"""The scalar reference simulation: differential oracle of the one path.

Production simulation replays traces through
:class:`repro.sim.vector.VectorExecutor` and plans with the array
implementations of :mod:`repro.core.scoring`.  This module keeps the
original, independent formulation of both alive as a test oracle:

* :class:`ScalarExecutor` — the per-span replay loop that re-derives
  every SI's implementation through a per-SI dispatch walk on each span
  and re-sums the remaining iterations with ``numpy.cumsum``;
* :class:`ReferenceRuntimeManager` — planning through
  :func:`repro.core.selection.select_molecules` and
  :meth:`repro.core.schedulers.base.AtomScheduler.schedule`;
* :class:`OracleRisppSimulator` / :class:`OracleMolenSimulator` — the
  two systems wired to both.

:func:`oracle_simulators` swaps the oracle classes in for the
production ones where :func:`repro.exec.runner.execute_cell` looks them
up, so any sweep-level entry point (``run_sweep``, ``run_figure7``, the
CLI ``sweep``) can be replayed on the oracle and diffed against
production.  Results and tracer event logs must agree field for field.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import repro.sim.molen
import repro.sim.rispp
from repro.core.molecule import Molecule
from repro.core.runtime import HotSpotPlan, RuntimeManager
from repro.core.schedule import Schedule, validate_schedule
from repro.core.selection import select_molecules
from repro.core.si import MoleculeImpl
from repro.obs.events import DegradedEnter, DegradedExit, SIUpgrade
from repro.sim.molen import MolenSimulator, _MolenContext
from repro.sim.results import LatencyEvent, Segment
from repro.sim.rispp import RisppSimulator
from repro.workload.trace import HotSpotTrace

__all__ = [
    "ScalarExecutor",
    "ReferenceRuntimeManager",
    "OracleRisppSimulator",
    "OracleMolenSimulator",
    "oracle_simulators",
]


class ScalarExecutor:
    """The per-span scalar replay loop (one instance per run)."""

    def __init__(self, sim) -> None:
        self._sim = sim
        self._obs_latency: Dict[str, int] = {}
        self._obs_degraded = False

    def _effective_latencies(
        self, trace: HotSpotTrace, available: Molecule, context: object
    ) -> Tuple[np.ndarray, Molecule, List[MoleculeImpl]]:
        """Per-SI latency vector, the atoms in active use, the impls."""
        sim = self._sim
        latencies = np.empty(len(trace.si_names), dtype=np.float64)
        used = available.space.zero()
        impls = []
        for col, si_name in enumerate(trace.si_names):
            impl = sim._impl_for(si_name, available, context)
            impls.append(impl)
            latencies[col] = sim.processor.si_execution_cycles(impl)
            if not impl.is_software:
                used = used | impl.atoms
        return latencies, used, impls

    def execute(
        self,
        trace: HotSpotTrace,
        context: object,
        now: int,
        segments: Optional[List[Segment]],
        latency_events: Optional[List[LatencyEvent]],
        last_latency: Dict[str, int],
    ) -> int:
        sim = self._sim
        counts = trace.counts
        n_iterations = trace.iterations
        overhead = trace.overhead_per_iteration
        i = 0
        tracer = sim.tracer
        while i < n_iterations:
            sim.port.advance_to(now)
            available = sim.fabric.available()
            latvec, used, impls = self._effective_latencies(
                trace, available, context
            )
            if tracer.enabled:
                for col, si_name in enumerate(trace.si_names):
                    lat = int(latvec[col])
                    if self._obs_latency.get(si_name) != lat:
                        self._obs_latency[si_name] = lat
                        tracer.emit(
                            SIUpgrade(
                                cycle=now,
                                si_name=si_name,
                                molecule=impls[col].name,
                                latency=lat,
                                software=impls[col].is_software,
                            )
                        )
            if latency_events is not None:
                for col, si_name in enumerate(trace.si_names):
                    lat = int(latvec[col])
                    if last_latency.get(si_name) != lat:
                        last_latency[si_name] = lat
                        latency_events.append(
                            LatencyEvent(cycle=now, si_name=si_name, latency=lat)
                        )
            remaining = counts[i:]
            per_iteration = remaining @ latvec + overhead
            cumulative = np.cumsum(per_iteration)
            next_event = sim.port.next_completion()
            if next_event is None or now + cumulative[-1] <= next_event:
                k = n_iterations - i
            else:
                budget = next_event - now
                # Iterations strictly before the completion, plus the one
                # in flight when it lands (old latencies apply to it).
                k = int(np.searchsorted(cumulative, budget, side="left")) + 1
                k = min(k, n_iterations - i)
            span = int(cumulative[k - 1])
            degraded = sim.fabric.is_degraded or sim.port.is_retrying
            if tracer.enabled and degraded != self._obs_degraded:
                self._obs_degraded = degraded
                tracer.emit(
                    DegradedEnter(cycle=now)
                    if degraded
                    else DegradedExit(cycle=now)
                )
            if degraded:
                sim._degraded_cycles += span
            if segments is not None:
                executed = remaining[:k].sum(axis=0)
                segments.append(
                    Segment(
                        t0=now,
                        t1=now + span,
                        frame_index=trace.frame_index,
                        hot_spot=trace.hot_spot,
                        si_names=trace.si_names,
                        executions=tuple(int(e) for e in executed),
                        latencies=tuple(int(lat) for lat in latvec),
                        degraded=degraded,
                    )
                )
            now += span
            i += k
            if not used.is_zero:
                sim.fabric.touch_atoms(used, now)
        return now


class ReferenceRuntimeManager(RuntimeManager):
    """Plans with the reference selection and scheduler code."""

    def plan_hot_spot(
        self,
        hot_spot: str,
        si_names: Sequence[str],
        available: Molecule,
        num_acs: Optional[int] = None,
    ) -> HotSpotPlan:
        budget = self.num_acs
        if num_acs is not None:
            budget = max(0, min(budget, int(num_acs)))
        sis = self.library.subset(si_names)
        expected = self.monitor.predict(hot_spot, si_names)
        selection = select_molecules(
            sis, expected, budget, available=available
        )
        hardware = selection.hardware_selection()
        if hardware:
            schedule = self.scheduler.schedule(
                hardware, {si.name: si for si in sis}, available, expected
            )
            if self.validate_schedules:
                validate_schedule(schedule, hardware, available)
        else:
            schedule = Schedule(self.library.space)
        return HotSpotPlan(
            hot_spot=hot_spot,
            expected=expected,
            selection=selection,
            schedule=schedule,
        )


class OracleRisppSimulator(RisppSimulator):
    """RISPP on reference planning, scalar replay and reference dispatch."""

    _executor_class = ScalarExecutor

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        runtime = self.runtime
        self.runtime = ReferenceRuntimeManager(
            self.library,
            runtime.scheduler,
            runtime.num_acs,
            monitor=runtime.monitor,
            validate_schedules=runtime.validate_schedules,
        )

    def _impl_for(
        self, si_name: str, available: Molecule, context: HotSpotPlan
    ) -> MoleculeImpl:
        return self.runtime.dispatch(si_name, available)


class OracleMolenSimulator(MolenSimulator):
    """Molen on reference selection, scalar replay and reference dispatch."""

    _executor_class = ScalarExecutor

    def _plan(
        self, trace: HotSpotTrace, available: Molecule
    ) -> Tuple[Sequence[str], Molecule, _MolenContext]:
        sis = self.library.subset(trace.si_names)
        expected = self.monitor.predict(trace.hot_spot, trace.si_names)
        selection = select_molecules(
            sis, expected, self.fabric.usable_acs, available=available
        )
        importance: List[Tuple[float, str]] = []
        for si_name, impl in selection.hardware_selection().items():
            si = self.library.get(si_name)
            gain = max(0, si.software_latency - impl.latency)
            importance.append((-(expected.get(si_name, 0.0) * gain), si_name))
        importance.sort()
        atom_sequence: List[str] = []
        virtual = available
        for _, si_name in importance:
            impl = selection.implementations[si_name]
            atom_sequence.extend(
                virtual.missing(impl.atoms).iter_atom_instances()
            )
            virtual = virtual | impl.atoms
        context = _MolenContext(selection=selection, expected=dict(expected))
        return atom_sequence, selection.meta, context

    def _impl_for(
        self, si_name: str, available: Molecule, context: _MolenContext
    ) -> MoleculeImpl:
        impl = context.selection.implementations[si_name]
        if impl.is_software or impl.atoms <= available:
            return impl
        return self.library.get(si_name).software


@contextlib.contextmanager
def oracle_simulators() -> Iterator[None]:
    """Run ``execute_cell`` (and every sweep built on it) on the oracle.

    Only in-process execution is rerouted: use ``jobs=1``.
    """
    saved = (repro.sim.rispp.RisppSimulator, repro.sim.molen.MolenSimulator)
    repro.sim.rispp.RisppSimulator = OracleRisppSimulator
    repro.sim.molen.MolenSimulator = OracleMolenSimulator
    try:
        yield
    finally:
        repro.sim.rispp.RisppSimulator, repro.sim.molen.MolenSimulator = saved
