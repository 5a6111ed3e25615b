"""Property-based differential test: random workloads, production vs oracle.

Hypothesis draws arbitrary workloads over the real H.264 SI library —
random hot-spot composition, random per-iteration execution counts
(including all-zero iterations and empty-ish traces), random iteration
overheads, random AC budgets, schedulers (PREFETCH with speculation on
included), and fault schedules — and asserts that the production path
and the scalar oracle of ``tests/oracle_engine.py`` produce
*bit-identical* :class:`~repro.sim.results.SimulationResult`s.

Where ``tests/test_vector_differential.py`` pins a structured grid,
this module hunts the corners no grid enumerates: single-iteration
traces, duplicate frames, hot spots revisited with wildly different
counts, retry-heavy fault schedules.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedulers import get_scheduler
from repro.fabric.faults import BernoulliLoadFaults, RetryPolicy
from repro.h264.silibrary import build_atom_registry, build_si_library
from repro.exec.spec import WorkloadSpec
from repro.sim.rispp import RisppSimulator
from repro.workload.trace import HotSpotTrace, Workload

from tests.oracle_engine import OracleRisppSimulator

REGISTRY = build_atom_registry()
LIBRARY = build_si_library(REGISTRY)

#: Hot-spot SI pools the random traces draw from (subsets of the real
#: library, so molecule lattices stay meaningful).
SI_POOL = tuple(LIBRARY.si_names)


@st.composite
def random_trace(draw, frame_index):
    hot_spot = draw(st.sampled_from(["ME", "EE", "LF", "XX"]))
    num_sis = draw(st.integers(min_value=1, max_value=min(5, len(SI_POOL))))
    si_names = tuple(
        draw(
            st.lists(
                st.sampled_from(SI_POOL),
                min_size=num_sis,
                max_size=num_sis,
                unique=True,
            )
        )
    )
    iterations = draw(st.integers(min_value=1, max_value=24))
    counts = np.array(
        draw(
            st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=12),
                    min_size=len(si_names),
                    max_size=len(si_names),
                ),
                min_size=iterations,
                max_size=iterations,
            )
        ),
        dtype=np.int64,
    )
    overhead = draw(st.integers(min_value=0, max_value=50))
    return HotSpotTrace(
        hot_spot=hot_spot,
        si_names=si_names,
        counts=counts,
        overhead_per_iteration=overhead,
        frame_index=frame_index,
    )


@st.composite
def random_workload(draw):
    num_traces = draw(st.integers(min_value=1, max_value=6))
    workload = Workload(name="hypothesis-workload")
    for i in range(num_traces):
        frame = draw(st.integers(min_value=0, max_value=2))
        workload.append(draw(random_trace(frame)))
    return workload


@st.composite
def random_setup(draw):
    workload = draw(random_workload())
    scheduler = draw(
        st.sampled_from(["FSFR", "ASF", "SJF", "HEF", "PREFETCH"])
    )
    confidence = draw(st.sampled_from([0.0, 0.3, 0.6]))
    acs = draw(st.integers(min_value=1, max_value=16))
    fault_rate = draw(st.sampled_from([0.0, 0.05, 0.3]))
    fault_seed = draw(st.integers(min_value=0, max_value=2**16))
    max_retries = draw(st.integers(min_value=0, max_value=3))
    record = draw(st.booleans())
    return (workload, scheduler, confidence, acs, fault_rate, fault_seed,
            max_retries, record)


def _scheduler(name, confidence):
    if name == "PREFETCH":
        return get_scheduler(name, confidence=confidence)
    return get_scheduler(name)


def _run(workload, scheduler, confidence, acs, fault_rate, fault_seed,
         max_retries, record, cls):
    sim = cls(
        LIBRARY,
        REGISTRY,
        _scheduler(scheduler, confidence),
        acs,
        record_segments=record,
        fault_model=(
            BernoulliLoadFaults(fault_rate, seed=fault_seed)
            if fault_rate
            else None
        ),
        retry_policy=RetryPolicy(max_retries=max_retries),
    )
    return sim.run(workload)


@settings(max_examples=40, deadline=None)
@given(setup=random_setup())
def test_random_workloads_bit_identical(setup):
    ref = _run(*setup, cls=OracleRisppSimulator)
    vec = _run(*setup, cls=RisppSimulator)
    for field in dataclasses.fields(ref):
        r = getattr(ref, field.name)
        v = getattr(vec, field.name)
        assert r == v, (
            f"oracle/production diverged on {field.name!r}: {r!r} != {v!r}"
        )


@settings(max_examples=10, deadline=None)
@given(
    frames=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
    acs=st.integers(min_value=4, max_value=16),
    generator=st.sampled_from(["h264", "adversarial"]),
    flip_rate=st.sampled_from([0.0, 0.5]),
    scheduler=st.sampled_from(["HEF", "PREFETCH"]),
    confidence=st.sampled_from([0.0, 0.3, 0.6]),
    fault_rate=st.sampled_from([0.0, 0.05]),
)
def test_model_workloads_bit_identical(
    frames, seed, acs, generator, flip_rate, scheduler, confidence,
    fault_rate,
):
    """The workload generators under random seeds/scales, HEF and
    speculative PREFETCH, clean and faulty fabrics."""
    workload = WorkloadSpec(
        frames=frames, seed=seed, generator=generator, flip_rate=flip_rate
    ).build()
    results = [
        _run(workload, scheduler, confidence, acs, fault_rate, seed, 2,
             True, cls=cls)
        for cls in (OracleRisppSimulator, RisppSimulator)
    ]
    assert results[0] == results[1]


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
