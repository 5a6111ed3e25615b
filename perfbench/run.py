"""The repository benchmark: one workload, measured, checked, reported.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig7-grid --seed 2008 \\
        --seconds 10 --trace 0

Workloads: ``fig7-grid``, ``prefetch-adversarial``, ``serve-cold`` and
``serve-durable`` (see ``perf_workloads.py``).  The seed only shapes the
generated inputs; the program receives those inputs, never the seed.

``--trace 0`` repeats whole passes of the workload until ``--seconds``
have elapsed (at least one), never patches the program, and reports the
end-to-end metrics (medians over the passes).  Every time is measured
with ``perf_clock.HostClock``, in reference seconds: seconds of a host
whose speed holds still (see ``perf_clock.py``).

* ``setup_s``: a fresh interpreter importing the program and building
  the workload's inputs, timed from outside; median of ``SETUP_REPS``.
* ``peak_rss_mb``: this process's peak resident set size.
* ``cells_per_s`` / ``requests_per_s``: the main phase's cells and
  requests per second.  On the batch workloads a cell is the
  caller's request; on the service workloads the requests are the
  submitted ones and the cells the answers served (admitted plus
  answer-memo hits).
* ``traced_cells_per_s``: the workload's cell sample run under a
  ``RecordingTracer`` (the HEF column on ``fig7-grid``).
* ``recovery_s``: the workload's crash-recovery path (see
  ``perf_workloads.py``); median over its repetitions.

``--trace 1`` runs one plain pass and then one traced pass, with timing
wrappers installed around each layer's public entry points by
``perf_spans.py``, and reports the per-layer metrics.  Deterministic
counts and digests must agree between the two passes.

Every pass checks its outputs: seed-independent invariants at any seed,
and the pinned result digest at the default seed.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only if every check
passed.  All scratch files live in a temporary directory inside the
checkout, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

from perf_clock import HostClock, Stopwatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = (
    "fig7-grid", "prefetch-adversarial", "serve-cold", "serve-durable",
)

#: Environment fallbacks of the program that would change what runs:
#: a result cache, worker pools, supervised workers, chaos, scale,
#: engine.  Cleared before the program is imported.
ISOLATED_ENV = (
    "REPRO_CACHE_DIR", "REPRO_JOBS", "REPRO_TIMEOUT", "REPRO_MAX_ATTEMPTS",
    "REPRO_CHAOS", "REPRO_FRAMES", "REPRO_ENGINE",
)

#: Thread pools the numeric libraries would start at import.  On a
#: small shared machine, OpenBLAS's idle workers make the set-up time
#: jump between levels 50 ms apart; the program does no threaded BLAS
#: work, so one thread changes nothing it computes.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1"}

SETUP_REPS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cells_per_s": "1/s",
    "traced_cells_per_s": "1/s",
    "requests_per_s": "1/s",
    "recovery_s": "s",
}

PER_LAYER_UNITS = {
    "core.plan_s": "s",
    "core.plans": "count",
    "core.selection_s": "s",
    "core.schedule_s": "s",
    "core.monitor_s": "s",
    "core.self_s": "s",
    "sim.run_s": "s",
    "sim.replay_self_s": "s",
    "sim.iterations": "count",
    "sim.replay_ns_per_iteration": "ns",
    "sim.mcycles": "Mcycles",
    "sim.hef_mcycles": "Mcycles",
    "sim.self_s": "s",
    "fabric.port_s": "s",
    "fabric.loads_started": "count",
    "fabric.loads_completed": "count",
    "fabric.evictions": "count",
    "fabric.bus_busy_share": "ratio",
    "fabric.prefetch_issued": "count",
    "fabric.prefetch_hit_ratio": "ratio",
    "fabric.prefetch_wasted_bus_cycles": "cycles",
    "fabric.prefetch_hidden_share": "ratio",
    "fabric.never_worse_violations": "count",
    "fabric.self_s": "s",
    "workload.build_s": "s",
    "workload.builds": "count",
    "workload.self_s": "s",
    "h264.silibrary_s": "s",
    "h264.silibrary_builds": "count",
    "h264.registry_s": "s",
    "h264.self_s": "s",
    "exec.cells": "count",
    "exec.cell_s_p50": "s",
    "exec.cell_s_p90": "s",
    "exec.cell_setup_s": "s",
    "exec.self_s": "s",
    "service.compute_s": "s",
    "service.computes": "count",
    "service.memo_hit_ratio": "ratio",
    "service.arbiter_self_s": "s",
    "service.snapshot_write_s": "s",
    "service.snapshots": "count",
    "service.snapshot_bytes_max": "bytes",
    "service.journal_bytes": "bytes",
    "service.p50_ticks": "ticks",
    "service.p99_ticks": "ticks",
    "service.shed_rate": "ratio",
    "service.self_s": "s",
    "obs.events": "count",
    "obs.trace_overhead": "ratio",
    "bench.span_overhead": "ratio",
    "bench.traced_wall_s": "s",
    "bench.unattributed_s": "s",
    "bench.absent_wrappers": "count",
}

#: Deterministic model outputs a workload may not produce; zero there.
MODEL_METRICS = (
    "sim.hef_mcycles", "fabric.prefetch_hidden_share",
    "fabric.never_worse_violations", "service.p50_ticks",
    "service.p99_ticks", "service.shed_rate", "service.memo_hit_ratio",
    "service.journal_bytes",
)


def fail(message: str) -> "SystemExit":
    print(f"perfbench: {message}", file=sys.stderr)
    return SystemExit(2)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it."""
    for name in ISOLATED_ENV:
        os.environ.pop(name, None)
    os.environ.update(SINGLE_THREAD_ENV)
    if not (SRC / "repro" / "__init__.py").is_file():
        raise fail(f"no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise fail(f"imported repro from {repro.__file__}, not {SRC}")


def measure_setup(name: str, seed: int) -> List[float]:
    """Reference seconds of fresh interpreters that import the program
    and build the workload's inputs."""
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
        "import perf_workloads\n"
        f"perf_workloads.WORKLOADS[{name!r}].inputs({seed})\n"
    )
    samples = []
    for _ in range(SETUP_REPS):
        with HostClock(slices=False) as timed:
            subprocess.run(
                [sys.executable, "-c", code], cwd=ROOT, check=True,
                stdout=subprocess.DEVNULL, timeout=120,
            )
        samples.append(timed.seconds)
    return samples


def run_pass(
    workload: Any, seed: int, scratch: Path, index: int,
    clock: Callable[[], Any] = Stopwatch,
) -> Any:
    from perf_workloads import PassRecord

    rec = PassRecord(clock=clock)
    tmp = scratch / f"pass-{index}"
    tmp.mkdir()
    try:
        workload.run_pass(seed, tmp, rec)
    except Exception as exc:  # noqa: BLE001 - a failed operation, reported
        traceback.print_exc()
        rec.attempted = max(rec.attempted, 1)
        rec.fail(f"pass {index} raised {exc!r}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return rec


def check_pass(rec: Any, first: Any, pinned: str) -> None:
    """Output checks that span passes; adds problems to ``rec``."""
    from perf_workloads import check_cells

    check_cells(rec)
    if first is not None and rec.record != first.record:
        rec.fail("deterministic counts differ between passes")
    if pinned and rec.record.get("digest") != pinned:
        rec.fail(
            f"digest {rec.record.get('digest')} != pinned {pinned} "
            f"at the default seed"
        )


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def end_to_end(
    workload: Any, seed: int, seconds: float, scratch: Path, pinned: str
) -> Tuple[List[Any], Dict[str, float]]:
    setup = measure_setup(workload.name, seed)
    passes: List[Any] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        wall, cpu = time.perf_counter(), time.process_time()
        rec = run_pass(workload, seed, scratch, len(passes), HostClock)
        print(
            f"perfbench: pass {len(passes)}: "
            f"{time.perf_counter() - wall:.3f} s wall, "
            f"{time.process_time() - cpu:.3f} s cpu",
            file=sys.stderr,
        )
        check_pass(rec, passes[0] if passes else None, pinned)
        passes.append(rec)
        if rec.problems:
            break
    usable = [p for p in passes if p.main_s > 0 and p.sample_traced_s > 0]
    if not usable or not all(p.recovery_s for p in usable):
        return passes, {}
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return passes, {
        "setup_s": median(setup),
        "peak_rss_mb": rss_kb / 1024.0,
        "cells_per_s": median([p.cells / p.main_s for p in usable]),
        "traced_cells_per_s": median(
            [p.sample_cells / p.sample_traced_s for p in usable]
        ),
        "requests_per_s": median([p.requests / p.main_s for p in usable]),
        "recovery_s": median([s for p in usable for s in p.recovery_s]),
    }


def per_layer(
    workload: Any, seed: int, scratch: Path, pinned: str
) -> Tuple[List[Any], Dict[str, float]]:
    from perf_spans import Instrumentation, Observations, SpanRecorder

    start = time.perf_counter()
    plain = run_pass(workload, seed, scratch, 0)
    plain_wall = time.perf_counter() - start
    check_pass(plain, None, pinned)
    recorder = SpanRecorder()
    seen = Observations()
    with Instrumentation(recorder, seen.observers()) as instrumentation:
        start = time.perf_counter()
        traced = run_pass(workload, seed, scratch, 1)
        wall = time.perf_counter() - start
    check_pass(traced, plain, pinned)
    for target in instrumentation.absent:
        print(f"perfbench: layer entry point absent: {target}",
              file=sys.stderr)
    if workload.sims_visible and traced.record and (
        seen.iterations != traced.record["iterations"]
        or any(
            seen.sim[key] != traced.record[key]
            for key in ("loads_started", "loads_completed", "evictions")
        )
    ):
        traced.fail("traced counts differ from the pass's own results")

    total, calls, self_s = recorder.total_s, recorder.calls, recorder.self_s
    layers = recorder.layer_self_s()
    unattributed = wall - sum(layers.values())
    if unattributed < -1e-6:
        traced.fail(f"layer self times exceed the traced wall ({unattributed})")
    cells = sorted(recorder.durations["exec.cell"])

    def quantile(q: float) -> float:
        return cells[min(len(cells) - 1, int(q * len(cells)))] if cells else 0.0

    sim = seen.sim
    metrics = {f"{layer}.self_s": seconds for layer, seconds in layers.items()}
    metrics.update({name: 0.0 for name in MODEL_METRICS})
    metrics.update(traced.model)
    metrics.update({
        "core.plan_s": total["core.plan"],
        "core.plans": calls["core.plan"],
        "core.selection_s": total["core.selection"],
        "core.schedule_s": total["core.schedule"],
        "core.monitor_s": total["core.monitor"],
        "sim.run_s": total["sim.run"],
        "sim.replay_self_s": self_s["sim.run"],
        "sim.iterations": seen.iterations,
        "sim.replay_ns_per_iteration": (
            self_s["sim.run"] / seen.iterations * 1e9
            if seen.iterations else 0.0
        ),
        "sim.mcycles": sim["total_cycles"] / 1e6,
        "fabric.port_s": total["fabric.port"],
        "fabric.loads_started": sim["loads_started"],
        "fabric.loads_completed": sim["loads_completed"],
        "fabric.evictions": sim["evictions"],
        "fabric.bus_busy_share": (
            sim["bus_busy_cycles"] / sim["total_cycles"]
            if sim["total_cycles"] else 0.0
        ),
        "fabric.prefetch_issued": sim["prefetch_issued"],
        "fabric.prefetch_hit_ratio": (
            sim["prefetch_hits"] / sim["prefetch_issued"]
            if sim["prefetch_issued"] else 0.0
        ),
        "fabric.prefetch_wasted_bus_cycles": sim["prefetch_wasted_bus_cycles"],
        "workload.build_s": total["workload.build"],
        "workload.builds": calls["workload.build"],
        "h264.silibrary_s": total["h264.silibrary"],
        "h264.silibrary_builds": calls["h264.silibrary"],
        "h264.registry_s": total["h264.registry"],
        "exec.cells": calls["exec.cell"],
        "exec.cell_s_p50": quantile(0.5),
        "exec.cell_s_p90": quantile(0.9),
        "exec.cell_setup_s": total["exec.cell"] - recorder.sim_in_cell_s,
        "service.compute_s": total["service.compute"],
        "service.computes": calls["service.compute"],
        "service.arbiter_self_s": self_s["service.run"],
        "service.snapshot_write_s": total["service.snapshot"],
        "service.snapshots": calls["service.snapshot"],
        "service.snapshot_bytes_max": seen.snapshot_bytes_max,
        "obs.events": traced.record.get("obs_events", 0),
        "obs.trace_overhead": (
            traced.sample_traced_cell_s / traced.sample_plain_cell_s - 1.0
            if traced.sample_plain_cell_s else 0.0
        ),
        "bench.span_overhead": wall / plain_wall - 1.0,
        "bench.traced_wall_s": wall,
        "bench.unattributed_s": unattributed,
        "bench.absent_wrappers": len(instrumentation.absent),
    })
    return [plain, traced], metrics


def main() -> int:
    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_program()
    import perf_workloads

    seed = perf_workloads.DEFAULT_SEED if args.seed is None else args.seed
    workload = perf_workloads.WORKLOADS[args.workload]
    pinned = (
        perf_workloads.PINNED_DIGESTS[workload.name]
        if seed == perf_workloads.DEFAULT_SEED else ""
    )
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        if args.trace:
            passes, values = per_layer(workload, seed, scratch, pinned)
            units = PER_LAYER_UNITS
        else:
            passes, values = end_to_end(
                workload, seed, args.seconds, scratch, pinned
            )
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems = [problem for rec in passes for problem in rec.problems]
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    missing = sorted(set(units) - set(values))
    if missing:
        problems.append(f"metrics not measured: {missing}")
        print(f"perfbench: {problems[-1]}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(rec.attempted for rec in passes),
        "failed": sum(rec.failed for rec in passes),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name in values
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
