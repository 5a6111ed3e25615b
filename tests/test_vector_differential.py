"""Differential harness: the production path vs the scalar oracle.

Production simulation (:mod:`repro.sim.vector` replay +
:mod:`repro.core.scoring` planning) promises *bit-identical* results to
the scalar reference kept in ``tests/oracle_engine.py`` — not
approximately equal, field-for-field equal on every
:class:`~repro.sim.results.SimulationResult`, and event-for-event equal
on every traced run.  This module drives both over the full scheduler
grid, two AC counts, and two fault configurations (clean and a noisy
retry-heavy one), the PREFETCH speculation grid, plus the Molen and
software baselines, and compares every result field.

Any mismatch here means the production path diverged from the reference
semantics — a correctness bug by definition, never an acceptable
"performance tradeoff".
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.schedulers import available_schedulers, get_scheduler
from repro.exec.runner import execute_cell
from repro.exec.spec import SweepSpec, WorkloadSpec
from repro.fabric.faults import BernoulliLoadFaults, RetryPolicy
from repro.h264.silibrary import build_atom_registry, build_si_library
from repro.obs import RecordingTracer
from repro.sim.molen import MolenSimulator
from repro.sim.rispp import RisppSimulator

from tests.oracle_engine import (
    OracleMolenSimulator,
    OracleRisppSimulator,
    oracle_simulators,
)

FRAMES = 3

#: (fault_rate, fault_seed, max_retries): a clean fabric and a noisy one
#: whose retries/abandons exercise the degraded-accounting paths.
FAULT_CONFIGS = [(0.0, 2008, 3), (0.12, 7, 2)]

AC_COUNTS = (4, 10)

#: The PREFETCH speculation grid: (generator, flip rate) workloads, AC
#: counts, predictor-confidence thresholds and fabrics (clean / 5%).
PREFETCH_WORKLOADS = [("h264", 0.0), ("adversarial", 0.0),
                      ("adversarial", 0.5)]
PREFETCH_ACS = (4, 6, 10, 16)
PREFETCH_CONFIDENCES = (0.0, 0.3, 0.6)
PREFETCH_FAULTS = [(0.0, 2008, 3), (0.05, 11, 2)]


@pytest.fixture(scope="module")
def registry():
    return build_atom_registry()


@pytest.fixture(scope="module")
def library(registry):
    return build_si_library(registry)


@pytest.fixture(scope="module")
def workload():
    from repro.workload.model import generate_workload

    return generate_workload(num_frames=FRAMES, seed=2008)


def _fault_args(config):
    rate, seed, max_retries = config
    fault_model = BernoulliLoadFaults(rate, seed=seed) if rate else None
    retry_policy = RetryPolicy(max_retries=max_retries)
    return fault_model, retry_policy


def assert_results_identical(ref, vec, label):
    """Field-by-field equality over the full SimulationResult."""
    for field in dataclasses.fields(ref):
        r = getattr(ref, field.name)
        v = getattr(vec, field.name)
        assert r == v, (
            f"{label}: field {field.name!r} diverged from the oracle:\n"
            f"  oracle:     {r!r}\n  production: {v!r}"
        )


def _rispp_pair(library, registry, workload, scheduler, acs, config,
                record_segments, tracers=(None, None)):
    """(oracle, production) results of one RISPP configuration."""
    results = []
    for cls, tracer in zip((OracleRisppSimulator, RisppSimulator), tracers):
        fault_model, retry_policy = _fault_args(config)
        sim = cls(
            library,
            registry,
            scheduler() if callable(scheduler) else get_scheduler(scheduler),
            acs,
            record_segments=record_segments,
            fault_model=fault_model,
            retry_policy=retry_policy,
            tracer=tracer,
        )
        results.append(sim.run(workload))
    return results


@pytest.mark.parametrize("scheduler", available_schedulers())
@pytest.mark.parametrize("acs", AC_COUNTS)
@pytest.mark.parametrize(
    "config", FAULT_CONFIGS, ids=["clean", "faulty"]
)
def test_rispp_grid_bit_identical(
    library, registry, workload, scheduler, acs, config
):
    ref, vec = _rispp_pair(
        library, registry, workload, scheduler, acs, config,
        record_segments=True,
    )
    label = f"RISPP/{scheduler}@{acs}ACs faults={config}"
    assert_results_identical(ref, vec, label)
    # Segments were recorded — make sure the comparison saw them.
    assert ref.segments, label


@pytest.mark.parametrize("config", FAULT_CONFIGS, ids=["clean", "faulty"])
def test_rispp_without_segments_bit_identical(
    library, registry, workload, config
):
    """The untraced, unsegmented shape every sweep cell takes."""
    ref, vec = _rispp_pair(
        library, registry, workload, "HEF", 10, config,
        record_segments=False,
    )
    assert ref.segments is None and vec.segments is None
    assert_results_identical(ref, vec, f"RISPP/HEF@10ACs faults={config}")


@pytest.mark.parametrize("acs", AC_COUNTS)
@pytest.mark.parametrize("config", FAULT_CONFIGS, ids=["clean", "faulty"])
def test_molen_bit_identical(library, registry, workload, acs, config):
    results = []
    for cls in (OracleMolenSimulator, MolenSimulator):
        fault_model, retry_policy = _fault_args(config)
        sim = cls(
            library,
            registry,
            acs,
            record_segments=True,
            fault_model=fault_model,
            retry_policy=retry_policy,
        )
        results.append(sim.run(workload))
    assert_results_identical(
        results[0], results[1], f"Molen@{acs}ACs faults={config}"
    )


def _prefetch_workload(generator, flip_rate):
    return WorkloadSpec(
        frames=FRAMES, seed=2008, generator=generator, flip_rate=flip_rate
    ).build()


@pytest.mark.parametrize(
    "config", PREFETCH_FAULTS, ids=["clean", "faulty"]
)
@pytest.mark.parametrize(
    "generator,flip_rate", PREFETCH_WORKLOADS,
    ids=[f"{g}-flip{f:g}" for g, f in PREFETCH_WORKLOADS],
)
def test_prefetch_speculation_bit_identical(
    library, registry, generator, flip_rate, config
):
    """PREFETCH with speculation on, across ACs and confidences."""
    workload = _prefetch_workload(generator, flip_rate)
    issued = 0
    for acs in PREFETCH_ACS:
        for confidence in PREFETCH_CONFIDENCES:
            ref, vec = _rispp_pair(
                library, registry, workload,
                lambda: get_scheduler("PREFETCH", confidence=confidence),
                acs, config, record_segments=True,
            )
            assert_results_identical(
                ref, vec,
                f"PREFETCH/{generator}@{acs}ACs conf={confidence} "
                f"faults={config}",
            )
            issued += vec.prefetch_issued
    # The grid must actually speculate, not merely pass.
    assert issued > 0


@pytest.mark.parametrize("scheduler", available_schedulers())
@pytest.mark.parametrize(
    "config", FAULT_CONFIGS, ids=["clean", "faulty"]
)
def test_traced_event_log_matches_oracle(
    library, registry, workload, scheduler, config
):
    """Traced runs: the production event log equals the oracle's."""
    kwargs = {"confidence": 0.3} if scheduler == "PREFETCH" else {}
    tracers = (RecordingTracer(), RecordingTracer())
    ref, vec = _rispp_pair(
        library, registry, workload,
        lambda: get_scheduler(scheduler, **kwargs), 10, config,
        record_segments=True, tracers=tracers,
    )
    assert_results_identical(ref, vec, f"traced {scheduler}")
    oracle_log, production_log = (list(t) for t in tracers)
    assert production_log == oracle_log
    kinds = {type(event).__name__ for event in production_log}
    assert "SIUpgrade" in kinds
    if config[0]:
        assert "DegradedEnter" in kinds


@pytest.mark.parametrize("acs", AC_COUNTS)
def test_traced_molen_event_log_matches_oracle(
    library, registry, workload, acs
):
    tracers = (RecordingTracer(), RecordingTracer())
    for cls, tracer in zip((OracleMolenSimulator, MolenSimulator), tracers):
        fault_model, retry_policy = _fault_args(FAULT_CONFIGS[1])
        cls(
            library, registry, acs, fault_model=fault_model,
            retry_policy=retry_policy, tracer=tracer,
        ).run(workload)
    assert list(tracers[1]) == list(tracers[0])


def test_sweep_cells_identical_across_engines():
    """Cell-level parity including the software baseline.

    ``execute_cell`` is what sweeps, figure drivers, the service and the
    CLI run; identical results here mean identical cached payloads.
    """
    spec = SweepSpec(
        schedulers=("HEF", "SJF", "PREFETCH"),
        ac_counts=(4, 10),
        workload=WorkloadSpec(frames=FRAMES, seed=2008),
        include_molen=True,
        include_software=True,
        prefetch_confidence=0.3,
    )
    for cell in spec.cells():
        with oracle_simulators():
            ref = execute_cell(cell)
        vec = execute_cell(cell)
        assert_results_identical(ref, vec, cell.label)


def test_traced_run_matches_untraced(library, registry, workload):
    """A tracer changes no result: traced and untraced runs agree."""
    tracer = RecordingTracer()
    traced = RisppSimulator(
        library,
        registry,
        get_scheduler("HEF"),
        10,
        tracer=tracer,
    ).run(workload)
    assert len(tracer) > 0
    untraced = RisppSimulator(
        library,
        registry,
        get_scheduler("HEF"),
        10,
    ).run(workload)
    assert_results_identical(traced, untraced, "traced vs untraced")
