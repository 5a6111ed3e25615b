"""Golden regressions re-run on the scalar oracle.

``tests/test_golden_fig7.py`` and ``tests/test_obs_schema.py`` pin the
production path against committed goldens.  This module re-drives the
same pinned scenarios through the scalar oracle of
``tests/oracle_engine.py`` and asserts both land on the *same* goldens:

* the live golden sweep's exact ``total_cycles`` per cell,
* the run behind the committed obs golden event log, untraced on the
  production path and traced on the oracle, cross-checked against the
  event counts stored in the golden log itself,
* the serialised Figure 7 artifact payload, byte-for-byte identical
  between production and oracle (and, behind ``REPRO_PAPER_SCALE=1``,
  byte-for-byte equal to the committed
  ``artifacts/full_sweep_results.json``),
* the ``repro sweep`` CLI surface, identical on production and oracle
  up to wall-clock timings.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from pathlib import Path

import pytest

from repro.analysis.experiments import (
    ExperimentScale,
    render_fig7_artifact,
    run_figure7,
)
from repro.cli import main
from repro.core.schedulers import get_scheduler
from repro.exec import run_sweep
from repro.obs import RecordingTracer
from repro.sim.rispp import RisppSimulator
from repro.workload.model import generate_workload

from tests.oracle_engine import OracleRisppSimulator, oracle_simulators
from tests.test_golden_fig7 import _GOLDEN_CYCLES, _GOLDEN_SPEC

ARTIFACT_JSON = (
    Path(__file__).resolve().parent.parent
    / "artifacts"
    / "full_sweep_results.json"
)
GOLDEN_LOG = Path(__file__).parent / "data" / "golden_event_log.json"


def test_live_goldens_under_vector_engine():
    """The pinned sweep's exact cycle counts, on production and oracle."""
    for label, context in (
        ("production", contextlib.nullcontext()),
        ("oracle", oracle_simulators()),
    ):
        with context:
            report = run_sweep(_GOLDEN_SPEC, jobs=1)
        actual = {o.cell.label: o.result.total_cycles for o in report}
        assert actual == _GOLDEN_CYCLES, (
            f"the {label} path moved the live goldens"
        )


def test_obs_golden_run_untraced_vector(h264_library, h264_registry):
    """The golden event log's run, re-simulated without a tracer on the
    production path, must agree with the traced oracle and with what
    the committed log records."""
    workload = generate_workload(num_frames=1, seed=2008)

    vec = RisppSimulator(
        h264_library, h264_registry, get_scheduler("HEF"), 6,
    ).run(workload)

    tracer = RecordingTracer()
    traced = OracleRisppSimulator(
        h264_library, h264_registry, get_scheduler("HEF"), 6,
        tracer=tracer,
    ).run(workload)
    assert vec == traced

    # Cross-check against the committed log: the vector result's load
    # and eviction accounting must equal the golden event counts.
    events = json.loads(GOLDEN_LOG.read_text())["events"]
    kinds = {}
    for event in events:
        kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
    assert vec.loads_started == kinds["load_start"]
    assert vec.loads_completed == kinds["load_complete"]
    assert vec.evictions == kinds["eviction"]


def test_fig7_artifact_bytes_identical_across_engines():
    """Production and oracle serialise the same Figure 7 artifact bytes.

    A reduced scale keeps this in the tier-1 budget; the committed
    paper-scale artifact is pinned byte-for-byte behind
    ``REPRO_PAPER_SCALE=1`` below.
    """
    scale = ExperimentScale(frames=4, ac_counts=(5, 8, 12))
    production = render_fig7_artifact(run_figure7(scale, jobs=1))
    with oracle_simulators():
        oracle = render_fig7_artifact(run_figure7(scale, jobs=1))
    assert production == oracle


@pytest.mark.skipif(
    os.environ.get("REPRO_PAPER_SCALE") != "1",
    reason="paper-scale sweep (140 frames); set REPRO_PAPER_SCALE=1",
)
def test_committed_artifact_reproduced_by_vector_engine():
    """``artifacts/full_sweep_results.json``, byte-for-byte, from the
    production path at the full 140-frame paper scale."""
    result = run_figure7(ExperimentScale(frames=140))
    assert render_fig7_artifact(result) == ARTIFACT_JSON.read_text()


_WALL_RE = re.compile(r"\s+\d+\.\d+m?s\b")


def _sweep_stdout(capsys):
    code = main([
        "sweep", "--scheduler", "HEF", "--frames", "2",
        "--ac-list", "6,10", "--jobs", "1", "--no-cache",
    ])
    assert code == 0
    out = capsys.readouterr().out
    # Mask wall-clock timings; everything else must match exactly.
    return _WALL_RE.sub(" <wall>", out)


def test_cli_sweep_identical_across_engines(capsys):
    vec = _sweep_stdout(capsys)
    with oracle_simulators():
        ref = _sweep_stdout(capsys)
    assert vec == ref, "repro sweep output diverged from the oracle"
