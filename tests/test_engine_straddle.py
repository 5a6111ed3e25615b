"""Span-batching edge cases: straddled completions and mid-span events.

The production replay and the scalar oracle both batch iterations
into spans that end at the next reconfiguration-port completion, counting the iteration *in
flight* when the completion lands at the old latencies.  The nastiest
corners of that rule:

* **Final-iteration straddle** — the completion lands inside the last
  iteration of the run, so it is never processed (no later
  ``advance_to`` exists).  The load must stay in flight, accounted as
  started-but-not-completed, and both replays must agree on the exact
  final cycle.
* **Mid-iteration eviction under faults** — a completion mid-span
  immediately starts the next queued load, whose placement evicts an
  LRU container *between* iteration boundaries, while fault-induced
  retries stretch the port timeline.  Eviction timing feeds the LRU
  state the next scheduling decision sees, so a divergence here skews
  whole sweeps, not just one span.

These are regression tests for the span/searchsorted straddle math in
``sim/vector.py`` (``execute``) and its oracle in
``tests/oracle_engine.py``: each scenario first proves structurally
that the edge actually occurs (pending completion inside the final
span; eviction cycles strictly inside spans), then pins
oracle/production equality on it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.schedulers import get_scheduler
from repro.fabric.faults import BernoulliLoadFaults, RetryPolicy
from repro.obs import RecordingTracer
from repro.sim.rispp import RisppSimulator
from repro.workload.trace import HotSpotTrace, Workload

from tests.oracle_engine import OracleRisppSimulator

#: The two replays under test, by the ids the parametrized tests carry.
SIMULATORS = {"reference": OracleRisppSimulator, "vector": RisppSimulator}


def _straddle_workload(library):
    """One huge iteration: every load completion lands inside it."""
    si_names = tuple(library.si_names[:3])
    counts = np.full((1, len(si_names)), 400, dtype=np.int64)
    workload = Workload(name="straddle")
    workload.append(
        HotSpotTrace(
            hot_spot="ME",
            si_names=si_names,
            counts=counts,
            overhead_per_iteration=10,
            frame_index=0,
        )
    )
    return workload


def _eviction_workload(library):
    """Alternating hot spots on a tight fabric force mid-span evictions."""
    me = tuple(library.si_names[:2])
    ee = ("DCT", "HT4x4", "MC")
    workload = Workload(name="evict")
    for rep in range(3):
        for hot_spot, si_names in (("ME", me), ("EE", ee)):
            workload.append(
                HotSpotTrace(
                    hot_spot=hot_spot,
                    si_names=si_names,
                    counts=np.full((4, len(si_names)), 40, dtype=np.int64),
                    overhead_per_iteration=5,
                    frame_index=rep,
                )
            )
    return workload


def _run(library, registry, workload, replay, acs, fault_model=None,
         retry_policy=None, tracer=None):
    sim = SIMULATORS[replay](
        library,
        registry,
        get_scheduler("HEF"),
        acs,
        record_segments=True,
        fault_model=fault_model,
        retry_policy=retry_policy,
        tracer=tracer,
    )
    return sim, sim.run(workload)


@pytest.mark.parametrize("replay", sorted(SIMULATORS))
def test_final_iteration_straddles_completion(
    h264_library, h264_registry, replay
):
    sim, result = _run(
        h264_library, h264_registry, _straddle_workload(h264_library),
        replay, acs=6,
    )
    # The edge really occurred: the first load's completion cycle lies
    # strictly inside the one-and-only iteration span, and the run
    # ended before any advance_to could process it.
    pending = sim.port.next_completion()
    assert pending is not None
    final = result.segments[-1]
    assert final.t0 < pending < final.t1 == result.total_cycles
    assert result.loads_started == 1
    assert result.loads_completed == 0


def test_final_straddle_identical_across_engines(
    h264_library, h264_registry
):
    workload = _straddle_workload(h264_library)
    _, ref = _run(h264_library, h264_registry, workload, "reference", 6)
    _, vec = _run(h264_library, h264_registry, workload, "vector", 6)
    assert ref == vec


def test_mid_iteration_eviction_under_faults(h264_library, h264_registry):
    """Evictions strictly inside spans, with retries in the timeline."""
    workload = _eviction_workload(h264_library)

    def faults():
        return (
            BernoulliLoadFaults(0.15, seed=11),
            RetryPolicy(max_retries=3),
        )

    tracer = RecordingTracer()
    fault_model, retry_policy = faults()
    _, traced = _run(
        h264_library, h264_registry, workload, "vector", 4,
        fault_model, retry_policy, tracer,
    )
    spans = [(s.t0, s.t1) for s in traced.segments]
    evictions = [
        e.cycle for e in tracer if type(e).__name__ == "Eviction"
    ]
    mid_span = [
        c for c in evictions if any(t0 < c < t1 for t0, t1 in spans)
    ]
    # The scenario must actually exercise the edge, not merely pass.
    assert mid_span, "no eviction landed strictly inside a span"
    assert traced.loads_retried > 0
    assert traced.degraded_cycles > 0

    results = [traced]
    for replay in ("reference", "vector"):
        fault_model, retry_policy = faults()
        _, result = _run(
            h264_library, h264_registry, workload, replay, 4,
            fault_model, retry_policy,
        )
        results.append(result)
    assert results[0] == results[1] == results[2]

    # The oracle's traced run logs the very same events.
    oracle_tracer = RecordingTracer()
    fault_model, retry_policy = faults()
    _run(
        h264_library, h264_registry, workload, "reference", 4,
        fault_model, retry_policy, oracle_tracer,
    )
    assert list(oracle_tracer) == list(tracer)
