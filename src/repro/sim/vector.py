"""Vectorized trace replay — the simulators' one replay path.

Replay advances analytically from port completion to port completion
(see :mod:`repro.sim.engine`).  Rebuilding the per-SI latency vector
from scratch on every span — one :meth:`fastest_available` lattice walk
per SI, plus a fresh cumulative sum over the remaining iterations —
would dominate the profile of paper-scale sweeps, so this module
replays the span algebra over precomputed struct-of-arrays views:

* per trace, the execution counts are folded once into int64 row-prefix
  sums ``P`` (shape ``(iterations + 1, num_sis)``), so any span's work is
  a difference of two rows;
* per latency vector, the cumulative-cycles curve
  ``W[t] = P[t] @ latencies + t * overhead`` is built once and cached —
  a span boundary becomes a single ``searchsorted`` on ``W``;
* per (dispatch key, availability) pair, the SI dispatch — the first
  loaded entry of each SI's preference list, found with one array
  feasibility scan — is memoized, so the scan happens once per distinct
  fabric state instead of once per span.

All accounting stays in int64, and this module is division-free by
construction — RL005 scans it alongside the schedulers.

With a tracer enabled the executor also emits the SI-upgrade and
degraded-segment events, built from the memoized dispatch entries.  A
scalar per-span replay is kept under ``tests/`` as the differential
oracle; results and event logs are bit-identical to it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..core.molecule import Molecule
from ..obs.events import DegradedEnter, DegradedExit, SIUpgrade
from ..workload.trace import HotSpotTrace
from .results import LatencyEvent, Segment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.si import MoleculeImpl
    from .engine import SystemSimulator

__all__ = ["VectorExecutor"]

#: (latencies per SI, atoms in active use or None, implementation per SI).
_DispatchEntry = Tuple[
    Tuple[int, ...], Optional[Molecule], Tuple["MoleculeImpl", ...]
]

#: Stacked dispatch preference tables: all SIs' preference rows in one
#: matrix (rows_all, rank, segment offsets, cycles per row, impls).
_PrefTable = Tuple[
    np.ndarray, np.ndarray, np.ndarray, List[int], List["MoleculeImpl"]
]


class _TraceArrays:
    """Per-trace prefix sums and the latency-vector cycle-curve cache."""

    __slots__ = ("prefix", "steps", "w_cache")

    def __init__(self, trace: HotSpotTrace) -> None:
        counts = np.asarray(trace.counts, dtype=np.int64)
        iterations = trace.iterations
        num_sis = len(trace.si_names)
        self.prefix = np.zeros((iterations + 1, num_sis), dtype=np.int64)
        if iterations:
            np.cumsum(counts, axis=0, out=self.prefix[1:])
        self.steps = (
            np.arange(iterations + 1, dtype=np.int64)
            * int(trace.overhead_per_iteration)
        )
        #: latency tuple -> W curve (cycles consumed after t iterations),
        #: as (ndarray for searchsorted, plain list for scalar reads —
        #: numpy scalar indexing is an order of magnitude slower than a
        #: list index on the span hot path).
        self.w_cache: Dict[Tuple[int, ...], Tuple[np.ndarray, List[int]]] = {}

    def cycles_curve(
        self, latencies: Tuple[int, ...]
    ) -> Tuple[np.ndarray, List[int]]:
        curve = self.w_cache.get(latencies)
        if curve is None:
            lat_arr = np.array(latencies, dtype=np.int64)
            arr = self.prefix @ lat_arr + self.steps
            curve = (arr, arr.tolist())
            self.w_cache[latencies] = curve
        return curve


class VectorExecutor:
    """Span-exact replay of one run's traces over cached arrays.

    One executor lives for one :meth:`SystemSimulator.run` call; its
    dispatch memo persists across traces (RISPP dispatch depends only on
    the SI set and the fabric content, which recur heavily across
    frames).
    """

    def __init__(self, sim: "SystemSimulator") -> None:
        self._sim = sim
        self._space = sim.library.space
        self._num_atoms = self._space.size
        # Per dispatch key: the stacked preference tables and the memo
        # availability -> entry.  The outer lookup happens once per
        # trace replay, so the per-span cost is one small-tuple hash.
        self._keyed: Dict[
            object, Tuple[_PrefTable, Dict[Tuple[int, ...], _DispatchEntry]]
        ] = {}
        self._avail_ver: Optional[int] = None
        self._avail_cache: Tuple[int, ...] = ()
        # Last latency / degraded state reported to the tracer.
        self._obs_latency: Dict[str, int] = {}
        self._obs_degraded = False

    # -- fabric snapshot ---------------------------------------------------

    def _availability(self) -> Tuple[int, ...]:
        """Loaded-atom counts, cheaper than building a Molecule.

        The fabric bumps ``_loaded_ver`` on every loaded-set edge, so it
        is an exact version stamp: between spans with the same stamp the
        previous snapshot is reused, and on a change only the per-type
        groups (not the container array) are folded.
        """
        fabric = self._sim.fabric
        ver = fabric._loaded_ver
        if ver == self._avail_ver:
            return self._avail_cache
        snapshot = tuple(fabric._avail_counts)
        self._avail_ver = ver
        self._avail_cache = snapshot
        return snapshot

    def _dispatch(
        self, tables: _PrefTable, avail_counts: Tuple[int, ...]
    ) -> _DispatchEntry:
        """First loaded row of each SI's preference segment.

        The rows are preference-ordered, so "first feasible" is the
        minimum preference rank among feasible rows.
        """
        rows_all, rank, offsets, cycles, impls = tables
        avail_arr = np.array(avail_counts, dtype=np.int64)
        feasible = (rows_all <= avail_arr).all(axis=1)
        masked = np.where(feasible, rank, len(cycles))
        first = np.minimum.reduceat(masked, offsets).tolist()
        # Molecule union is the component-wise max, and software rows
        # are all-zero, so the atoms in active use fall out of one
        # reduction over the chosen rows.
        used_counts = rows_all[first].max(axis=0).tolist()
        return (
            tuple(cycles[j] for j in first),
            Molecule._make(self._space, tuple(used_counts))
            if any(used_counts)
            else None,
            tuple(impls[j] for j in first),
        )

    def _pref_tables(
        self, trace: HotSpotTrace, context: object
    ) -> _PrefTable:
        """Stacked array views of the system's dispatch preferences."""
        sim = self._sim
        impls_all: List["MoleculeImpl"] = []
        offsets: List[int] = []
        for si_name in trace.si_names:
            prefs = sim._dispatch_preference(si_name, context)
            offsets.append(len(impls_all))
            impls_all.extend(prefs)
        rows_all = np.array(
            [impl.atoms.counts for impl in impls_all], dtype=np.int64
        ).reshape(len(impls_all), self._num_atoms)
        cycles = [
            int(sim.processor.si_execution_cycles(impl))
            for impl in impls_all
        ]
        return (
            rows_all,
            np.arange(len(impls_all), dtype=np.int64),
            np.array(offsets, dtype=np.intp),
            cycles,
            impls_all,
        )

    # -- span replay -------------------------------------------------------

    def execute(
        self,
        trace: HotSpotTrace,
        context: object,
        now: int,
        segments: Optional[List[Segment]],
        latency_events: Optional[List[LatencyEvent]],
        last_latency: Dict[str, int],
    ) -> int:
        """Replay one trace from cycle ``now``; returns the end cycle.

        ``segments`` / ``latency_events`` (when not None) receive the
        per-span records, ``last_latency`` carrying the latency-change
        state across traces.
        """
        sim = self._sim
        port = sim.port
        fabric = sim.fabric
        tracer = sim.tracer
        iterations = trace.iterations
        arrays = _TraceArrays(trace)
        memo_key = sim._dispatch_memo_key(trace, context)
        keyed = self._keyed.get(memo_key)
        if keyed is None:
            keyed = (self._pref_tables(trace, context), {})
            self._keyed[memo_key] = keyed
        tables, memo = keyed
        i = 0
        while i < iterations:
            port.advance_to(now)
            avail_counts = self._availability()
            entry = memo.get(avail_counts)
            if entry is None:
                entry = self._dispatch(tables, avail_counts)
                memo[avail_counts] = entry
            lat_tuple, used, impls = entry
            curve_arr, curve_list = arrays.cycles_curve(lat_tuple)
            if tracer.enabled:
                for col, si_name in enumerate(trace.si_names):
                    lat = lat_tuple[col]
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
                    lat = lat_tuple[col]
                    if last_latency.get(si_name) != lat:
                        last_latency[si_name] = lat
                        latency_events.append(
                            LatencyEvent(
                                cycle=now, si_name=si_name, latency=lat
                            )
                        )
            in_flight = port._in_flight is not None
            next_event = port._busy_until if in_flight else None
            curve_i = curve_list[i]
            total = curve_list[iterations] - curve_i
            if next_event is None or now + total <= next_event:
                k = iterations - i
            else:
                # Iterations strictly before the completion, plus the one
                # in flight when it lands (old latencies apply to it):
                # the first t > i with curve[t] - curve[i] >= budget.
                target = curve_i + (next_event - now)
                k = int(curve_arr.searchsorted(target, side="left")) - i
                k = min(k, iterations - i)
            span = curve_list[i + k] - curve_i
            # Degraded operation: the fabric lost containers, or the
            # port is burning its time budget on a retry.
            degraded = fabric._dead > 0 or (
                in_flight and port._in_flight_failures > 0
            )
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
                executed = arrays.prefix[i + k] - arrays.prefix[i]
                segments.append(
                    Segment(
                        t0=now,
                        t1=now + span,
                        frame_index=trace.frame_index,
                        hot_spot=trace.hot_spot,
                        si_names=trace.si_names,
                        executions=tuple(int(e) for e in executed),
                        latencies=lat_tuple,
                        degraded=degraded,
                    )
                )
            now += span
            i += k
            if used is not None:
                fabric.touch_atoms(used, now)
        return now
