"""The benchmark's four workloads, their inputs and their output checks.

Every workload is one closed-loop caller in one process: it calls the
program's public entry points serially (``jobs=1``, no result cache)
with the defaults users get, and never passes ``engine=``.  A *pass* is
one full execution of a workload:

``fig7-grid``
    The Figure 7 grid through ``run_sweep`` (FSFR/ASF/SJF/HEF and Molen
    at every AC count of the sweep, plus Software; H.264 model, 8
    frames, 101 cells).
``prefetch-adversarial``
    ``run_prefetch_comparison`` (HEF vs PREFETCH at 4/6/10/16 ACs) on
    the adversarial generator, flip 0.5, 8 frames, for
    ``PREFETCH_SEEDS`` consecutive seeds starting at the seed argument.
``serve-cold``
    ``run_service`` on an 8-tenant fleet whose ``variants`` keeps
    answer reuse under 5% of submitted requests; no cache, no journal.
``serve-durable``
    The ``BENCH_service`` fleet (``variants=4``) over a long soak with a
    journal, periodic snapshots, fault ticks and a live-reconfiguration
    schedule; then the same run crashed mid-soak and recovered.

A pass records into a :class:`PassRecord`; an exception that escapes
it is counted as one failed operation by ``run.py``.  Each pass also
re-runs a sample of the workload's cells under a
``RecordingTracer`` (the traced-cell phase) and times the workload's
crash-recovery path (the recovery phase):

* batch workloads run the sweep again after a crash that came after
  its last cell was stored: every cell comes from the result cache;
* ``serve-cold`` has no snapshots, so its recovery phase crashes a
  journalled 20k-tick soak of the same fleet mid-way and times the
  full journal replay;
* ``serve-durable`` times the snapshot-anchored recovery of its own
  crashed soak.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import experiments
from repro.errors import ServiceCrash
from repro.exec import runner
from repro.exec.cache import ResultCache
from repro.exec.spec import SweepCell, WorkloadSpec
from repro.obs.tracer import RecordingTracer
from repro import service

from perf_clock import Stopwatch

DEFAULT_SEED = 2008

#: Frames of the batch workloads' H.264 / adversarial models.
FRAMES = 8
#: AC counts of the PREFETCH comparison.
PREFETCH_ACS = (4, 6, 10, 16)
PREFETCH_FLIP = 0.5
#: Consecutive workload seeds one ``prefetch-adversarial`` pass covers.
PREFETCH_SEEDS = 16
#: The service fleets are fixed; the seed argument drives the request
#: streams (arrival times, hot spots, variants).  The fleet generator
#: jitters every tenant's request rate by its seed, which would make
#: the offered load, not the code, the largest term of the spread.
FLEET_SEED = DEFAULT_SEED

#: Output digests at the default seed, recorded at the commit that
#: introduced this benchmark.  ``fig7-grid`` uses ``bench_core``'s digest
#: fields and equals ``BENCH_core.json``'s ``result_digest``.
PINNED_DIGESTS = {
    "fig7-grid": "sha256:bc6be380d159ff5f",
    "prefetch-adversarial": "sha256:4b6eac40cc151f28",
    "serve-cold": (
        "702e3863983038f1aad09f5411ff5cb6d84ae664107599440490ff10fc20180f"
    ),
    "serve-durable": (
        "cf222af3c58b94b3a162e8431777fde5c99cd24b6522d3dbd20dae7ced57945e"
    ),
}

#: Repetitions of each workload's traced-cell sample, so that every
#: workload times about a second or more of traced cells.
TRACED_REPS = {
    "fig7-grid": 1,
    "prefetch-adversarial": 1,
    "serve-cold": 6,
    "serve-durable": 6,
}
#: AC counts whose PREFETCH cells form ``prefetch-adversarial``'s
#: traced-cell sample: the two where speculation has the most room.
TRACED_PREFETCH_ACS = (10, 16)

#: Samples of a service recovery phase; the run reports their median.
RECOVERY_SAMPLES = 5
#: Samples of a batch recovery phase, each of this many back-to-back
#: reruns: one rerun reads the cache in a few milliseconds, too short to
#: time alone, and the median of many short samples drops the ones a
#: burst of host noise hit.
RESUME_SAMPLES = 25
RERUNS_PER_SAMPLE = 4


# ---------------------------------------------------------------------------
# Pass records
# ---------------------------------------------------------------------------


@dataclass
class PassRecord:
    """What one pass did, how long it took, and what it produced."""

    #: Operations attempted (cells, ``run_service`` / ``recover_service``
    #: calls) and failed (raised or failed an output check).
    attempted: int = 0
    failed: int = 0
    #: Times every phase: a :class:`~perf_clock.Stopwatch` or a
    #: :class:`~perf_clock.HostClock`.
    clock: Callable[[], Any] = Stopwatch
    #: Main phase: cells and requests over the main phase's seconds.
    main_s: float = 0.0
    cells: int = 0
    requests: int = 0
    #: Traced-cell phase: cells run with a tracer and their seconds; and
    #: the runner's own per-cell seconds of those cells with and without
    #: a tracer, which give the tracer's cost.
    sample_cells: int = 0
    sample_traced_s: float = 0.0
    sample_plain_cell_s: float = 0.0
    sample_traced_cell_s: float = 0.0
    recovery_s: List[float] = field(default_factory=list)
    #: Deterministic counts and digests: equal in every pass of a seed,
    #: traced or not.
    record: Dict[str, Any] = field(default_factory=dict)
    #: Deterministic model outputs reported as per-layer metrics.
    model: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: (label, cells, results) of every simulated phase, checked by
    #: :func:`check_cells` after the pass (outside any traced region).
    simulated: List[Tuple[str, List[SweepCell], List[Any]]] = field(
        default_factory=list
    )

    def fail(self, problem: str, ops: int = 1) -> None:
        self.problems.append(problem)
        self.failed += ops


# ---------------------------------------------------------------------------
# Output checks shared by the workloads
# ---------------------------------------------------------------------------


def results_digest(results: Sequence[Any], prefetch: bool = False) -> str:
    """``bench_core``'s digest over every cell's cycle accounting.

    ``prefetch=True`` adds the speculative-lane counters.
    """
    payload = []
    for r in results:
        entry = {
            "system": r.system,
            "scheduler": r.scheduler_name,
            "num_acs": r.num_acs,
            "total_cycles": r.total_cycles,
            "hot_spot_cycles": r.hot_spot_cycles,
            "per_frame_cycles": list(r.per_frame_cycles),
            "si_executions": dict(r.si_executions),
            "loads_started": r.loads_started,
            "loads_completed": r.loads_completed,
            "evictions": r.evictions,
            "degraded_cycles": r.degraded_cycles,
        }
        if prefetch:
            entry.update(
                bus_busy_cycles=r.bus_busy_cycles,
                prefetch_issued=r.prefetch_issued,
                prefetch_hits=r.prefetch_hits,
                prefetch_wasted=r.prefetch_wasted,
                prefetch_wasted_bus_cycles=r.prefetch_wasted_bus_cycles,
            )
        payload.append(entry)
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return "sha256:" + hashlib.sha256(blob).hexdigest()[:16]


class WorkloadFacts:
    """Per-spec SI totals and iteration counts, built once per spec."""

    def __init__(self) -> None:
        self._facts: Dict[WorkloadSpec, Tuple[Dict[str, int], int]] = {}

    def get(self, spec: WorkloadSpec) -> Tuple[Dict[str, int], int]:
        if spec not in self._facts:
            workload = spec.build()
            totals: Dict[str, int] = {}
            for trace in workload.traces:
                for name, count in trace.totals().items():
                    totals[name] = totals.get(name, 0) + int(count)
            iterations = sum(int(t.counts.shape[0]) for t in workload.traces)
            self._facts[spec] = (totals, iterations)
        return self._facts[spec]


def check_cells(rec: PassRecord) -> None:
    """Seed-independent invariants of every cell the pass simulated;
    adds the pass's simulation work counts to its record."""
    facts = WorkloadFacts()
    work = rec.record
    work.update(iterations=0, loads_started=0, loads_completed=0, evictions=0)
    for label, cells, results in rec.simulated:
        for cell, r in zip(cells, results):
            problem = _cell_problem(facts, cell, r)
            if problem is not None:
                rec.fail(f"{label} {cell.label}: {problem}")
            work["iterations"] += facts.get(cell.workload)[1]
            for key in ("loads_started", "loads_completed", "evictions"):
                work[key] += int(getattr(r, key))


def _cell_problem(
    facts: WorkloadFacts, cell: SweepCell, r: Any
) -> Optional[str]:
    totals = facts.get(cell.workload)[0]
    if not (
        r.total_cycles == sum(r.per_frame_cycles)
        == sum(r.hot_spot_cycles.values())
    ):
        return "total_cycles != per-frame sum != hot-spot sum"
    executed = {k: v for k, v in r.si_executions.items() if v}
    if executed != {k: v for k, v in totals.items() if v}:
        return "si_executions differ from the workload's traces"
    if r.loads_completed > r.loads_started:
        return "loads_completed > loads_started"
    if r.prefetch_issued != r.prefetch_hits + r.prefetch_wasted:
        return "PREFETCH issued != hits + wasted"
    return None


def traced_phase(
    rec: PassRecord, cells: Sequence[SweepCell], reps: int,
    plain: Optional[Sequence[Any]] = None,
) -> None:
    """Run ``cells`` ``reps`` times with a ``RecordingTracer`` per cell.

    ``plain`` holds the same cells' outcomes without a tracer (from the
    main phase); without it the cells are run plain here first.  Tracing
    must not change a result.
    """
    cells = list(cells)
    if plain is None:
        rec.attempted += len(cells)
        plain = runner.run_sweep(cells, jobs=1, cache=None).outcomes
        rec.simulated.append(("sample", cells, [o.result for o in plain]))
    rec.sample_plain_cell_s = reps * sum(o.wall_time for o in plain)
    plain_digest = results_digest([o.result for o in plain], prefetch=True)
    events = [0]

    def count_events(_cell: SweepCell, tracer: RecordingTracer) -> None:
        events[0] += len(tracer)

    rec.attempted += reps * len(cells)
    for _ in range(reps):
        with rec.clock() as timed:
            traced = runner.run_sweep(
                cells, jobs=1, cache=None,
                tracer_factory=lambda _cell: RecordingTracer(),
                on_trace=count_events,
            )
        rec.sample_traced_s += timed.seconds
        rec.sample_traced_cell_s += sum(o.wall_time for o in traced.outcomes)
        if results_digest(traced.results, prefetch=True) != plain_digest:
            rec.fail("a RecordingTracer changed cell results", len(cells))
        rec.simulated.append(("traced sample", cells, traced.results))
    rec.sample_cells = reps * len(cells)
    rec.record["obs_events"] = events[0]
    rec.record["sample_digest"] = plain_digest


def resume_recovery(
    rec: PassRecord, tmp: Path, outcomes: Sequence[Any],
    resume: Callable[[ResultCache], List[Any]], digest: str,
    prefetch: bool = False,
) -> None:
    """Recovery phase of a batch workload: the caller crashed after the
    sweep's last cell was stored, before it received the report, and
    runs the sweep again.  Every cell is served from the result cache
    the finished cells were stored in.  ``resume`` returns the rerun's
    cell outcomes."""
    cache = ResultCache(tmp / "result-cache")
    for outcome in outcomes:
        cache.put(outcome.cell, outcome.result.to_json_dict())

    def once(rep: int) -> float:
        rec.attempted += RERUNS_PER_SAMPLE * len(outcomes)
        with rec.clock() as timed:
            reruns = [resume(cache) for _ in range(RERUNS_PER_SAMPLE)]
        for resumed in reruns:
            results = [o.result for o in resumed]
            if not all(o.cache_hit for o in resumed) or results_digest(
                results, prefetch=prefetch
            ) != digest:
                rec.fail(
                    "the resumed sweep differs from the uninterrupted one",
                    len(outcomes),
                )
        return timed.seconds / RERUNS_PER_SAMPLE

    rec.recovery_s = [once(rep) for rep in range(RESUME_SAMPLES)]


# ---------------------------------------------------------------------------
# Batch workloads
# ---------------------------------------------------------------------------


class Fig7Grid:
    name = "fig7-grid"
    #: Every simulation of a pass returns its result to the benchmark.
    sims_visible = True

    def inputs(self, seed: int) -> List[SweepCell]:
        scale = experiments.ExperimentScale(frames=FRAMES, seed=seed)
        return list(experiments.fig7_spec(scale).cells())

    def run_pass(self, seed: int, tmp: Path, rec: PassRecord) -> None:
        cells = self.inputs(seed)
        rec.attempted += len(cells)
        with rec.clock() as timed:
            report = runner.run_sweep(cells, jobs=1, cache=None)
        rec.main_s = timed.seconds
        rec.cells = rec.requests = len(cells)
        results = report.results
        digest = results_digest(results)
        rec.record["digest"] = digest
        rec.simulated.append(("grid", cells, results))
        hef = [
            o for o in report.outcomes
            if o.cell.system == "RISPP" and o.cell.scheduler == "HEF"
        ]
        rec.model["sim.hef_mcycles"] = sum(o.result.total_mcycles for o in hef)
        traced_phase(
            rec, [o.cell for o in hef], TRACED_REPS[self.name], plain=hef
        )
        resume_recovery(
            rec, tmp, report.outcomes,
            lambda cache: runner.run_sweep(cells, jobs=1, cache=cache).outcomes,
            digest,
        )


class PrefetchAdversarial:
    name = "prefetch-adversarial"
    sims_visible = True

    def inputs(self, seed: int) -> List[Any]:
        return [
            experiments.ExperimentScale(frames=FRAMES, seed=seed + offset)
            for offset in range(PREFETCH_SEEDS)
        ]

    @staticmethod
    def _compare(scale: Any, cache: Optional[ResultCache]) -> Any:
        return experiments.run_prefetch_comparison(
            ac_counts=PREFETCH_ACS,
            scale=scale,
            workload_generator="adversarial",
            flip_rate=PREFETCH_FLIP,
            jobs=1,
            cache=cache,
        )

    def run_pass(self, seed: int, tmp: Path, rec: PassRecord) -> None:
        scales = self.inputs(seed)
        rec.attempted += 2 * len(PREFETCH_ACS) * len(scales)
        with rec.clock() as timed:
            comparisons = [self._compare(scale, None) for scale in scales]
        rec.main_s = timed.seconds
        rec.cells = rec.requests = 2 * len(PREFETCH_ACS) * len(scales)
        outcomes = [o for c in comparisons for o in c.report.outcomes]
        results = [o.result for o in outcomes]
        digest = results_digest(results, prefetch=True)
        rec.record["digest"] = digest
        rec.simulated.append(("pair", [o.cell for o in outcomes], results))
        hidden = sum(sum(c.hidden_cycles) for c in comparisons)
        hef = [r for r in results if r.scheduler_name == "HEF"]
        hef_bus = sum(r.bus_busy_cycles for r in hef)
        # The known never-worse defect is reported, never asserted.
        violations = sum(1 for c in comparisons if not c.never_worse)
        rec.record["never_worse_violations"] = violations
        rec.model.update({
            "sim.hef_mcycles": sum(r.total_mcycles for r in hef),
            "fabric.prefetch_hidden_share": hidden / hef_bus if hef_bus else 0.0,
            "fabric.never_worse_violations": float(violations),
        })
        prefetch_cells = [
            o for o in outcomes
            if o.cell.scheduler == "PREFETCH"
            and o.cell.num_acs in TRACED_PREFETCH_ACS
        ]
        traced_phase(
            rec, [o.cell for o in prefetch_cells], TRACED_REPS[self.name],
            plain=prefetch_cells,
        )
        resume_recovery(
            rec, tmp, outcomes,
            lambda cache: [
                o for scale in scales
                for o in self._compare(scale, cache).report.outcomes
            ],
            digest,
            prefetch=True,
        )


# ---------------------------------------------------------------------------
# Service workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceInputs:
    fleet: Tuple[Any, ...]
    config: Any
    controls: Tuple[Any, ...] = ()


#: Request variants per tenant and hot spot in the service workloads'
#: traced-cell sample.
SAMPLE_VARIANTS = 8


def fleet_sample(fleet: Sequence[Any]) -> List[SweepCell]:
    """Cells of the first ``SAMPLE_VARIANTS`` variants of every tenant
    and hot spot, built the way the arbiter builds a request's cell
    from the tenant's public spec."""
    return [
        SweepCell(
            system="RISPP",
            scheduler=tenant.scheduler,
            num_acs=tenant.lease_acs,
            workload=dataclasses.replace(
                tenant.workload,
                hot_spots=(hot_spot,),
                seed=tenant.workload.seed + variant,
            ),
        )
        for tenant in fleet
        for hot_spot in tenant.hot_spots
        for variant in range(SAMPLE_VARIANTS)
    ]


def check_report(rec: PassRecord, report: Any, label: str) -> None:
    shed = report.shed_total
    if report.submitted != report.admitted + report.cache_hits + shed:
        rec.fail(f"{label}: submitted != admitted + cache_hits + shed")
    if report.dropped_admitted != 0:
        rec.fail(f"{label}: {report.dropped_admitted} admitted requests dropped")


def service_model(rec: PassRecord, report: Any) -> None:
    """Deterministic outputs of one service run (virtual ticks)."""
    payload = report.to_json_dict()
    served = report.admitted + report.cache_hits
    rec.model.update({
        "service.p50_ticks": float(payload["p50_latency"]),
        "service.p99_ticks": float(payload["p99_latency"]),
        "service.shed_rate": report.shed_rate,
        "service.memo_hit_ratio": report.cache_hits / served if served else 0.0,
    })
    rec.record.update({
        "digest": report.service_digest(),
        "submitted": report.submitted,
        "admitted": report.admitted,
        "cache_hits": report.cache_hits,
        "shed": report.shed_total,
        "end_tick": report.end_tick,
    })


def file_sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def journal_recovery(
    rec: PassRecord, tmp: Path, inputs: ServiceInputs, crash_at: int,
    expected_digest: str, expected_journal: Optional[Path],
) -> None:
    """Crash a journalled run at ``crash_at``, then time recoveries of
    fresh copies of the crashed journal (and its snapshots)."""
    crashed = tmp / "crashed"
    crashed.mkdir()
    rec.attempted += 1
    try:
        service.run_service(
            inputs.fleet, config=inputs.config, cache=None,
            journal_path=crashed / "service.jsonl",
            control_events=inputs.controls,
            crash_at_tick=crash_at, crash_mode="raise",
        )
    except ServiceCrash:
        pass
    else:
        rec.fail("the crash run finished without crashing")
        return

    def once(rep: int) -> float:
        copy = tmp / f"recovered-{rep}"
        shutil.copytree(crashed, copy)
        rec.attempted += 1
        with rec.clock() as timed:
            report = service.recover_service(
                inputs.fleet, config=inputs.config, cache=None,
                journal_path=copy / "service.jsonl",
                control_events=inputs.controls,
            )
        if report.service_digest() != expected_digest:
            rec.fail("recovered digest differs from the uninterrupted run")
        elif expected_journal is not None and file_sha(
            copy / "service.jsonl"
        ) != file_sha(expected_journal):
            rec.fail("recovered journal differs from the uninterrupted run")
        shutil.rmtree(copy)
        return timed.seconds

    rec.recovery_s = [once(rep) for rep in range(RECOVERY_SAMPLES)]


class ServeCold:
    name = "serve-cold"
    #: The service's own simulations stay inside ``run_service``.
    sims_visible = False
    duration = 100_000
    #: The recovery phase's journal-only soak and its crash tick.
    recovery_duration = 20_000

    def inputs(self, seed: int) -> ServiceInputs:
        fleet = service.make_tenant_fleet(
            8, seed=FLEET_SEED, mean_gap=90, deadline_slack=500,
            variants=4000,
        )
        config = service.ServiceConfig(
            num_acs=6, duration=self.duration, seed=seed,
            fault_ticks=(1000, 1020, 1040),
        )
        return ServiceInputs(fleet=fleet, config=config)

    def run_pass(self, seed: int, tmp: Path, rec: PassRecord) -> None:
        inputs = self.inputs(seed)
        rec.attempted += 1
        with rec.clock() as timed:
            report = service.run_service(
                inputs.fleet, config=inputs.config, cache=None,
            )
        rec.main_s = timed.seconds
        rec.requests = report.submitted
        rec.cells = report.admitted + report.cache_hits
        check_report(rec, report, "run")
        service_model(rec, report)
        traced_phase(rec, fleet_sample(inputs.fleet), TRACED_REPS[self.name])
        short = dataclasses.replace(
            inputs, config=dataclasses.replace(
                inputs.config, duration=self.recovery_duration
            ),
        )
        reference = tmp / "reference"
        reference.mkdir()
        rec.attempted += 1
        expected = service.run_service(
            short.fleet, config=short.config, cache=None,
            journal_path=reference / "service.jsonl",
        )
        check_report(rec, expected, "recovery reference")
        rec.record["recovery_digest"] = expected.service_digest()
        journal_recovery(
            rec, tmp, short, self.recovery_duration // 2,
            expected.service_digest(), reference / "service.jsonl",
        )


class ServeDurable:
    name = "serve-durable"
    sims_visible = False
    duration = 200_000
    snapshot_every = 25_000
    reconfig = (
        "400:tenant_join:latecomer",
        "1200:tenant_leave:tenant00",
        "1600:ac_add:2",
        "2400:ac_remove:1",
    )

    def inputs(self, seed: int) -> ServiceInputs:
        fleet = service.make_tenant_fleet(
            8, seed=FLEET_SEED, mean_gap=90, deadline_slack=500, variants=4,
        )
        config = service.ServiceConfig(
            num_acs=6, duration=self.duration, seed=seed,
            fault_ticks=(1000, 1020, 1040),
            snapshot_every=self.snapshot_every,
        )
        controls = []
        for text in self.reconfig:
            event = service.parse_reconfig_spec(text)
            if event.action == "tenant_join":
                event = dataclasses.replace(
                    event,
                    spec=service.derive_join_tenant(event.name, FLEET_SEED),
                )
            controls.append(event)
        return ServiceInputs(
            fleet=fleet, config=config, controls=tuple(controls)
        )

    def run_pass(self, seed: int, tmp: Path, rec: PassRecord) -> None:
        inputs = self.inputs(seed)
        run_dir = tmp / "run"
        run_dir.mkdir()
        journal = run_dir / "service.jsonl"
        rec.attempted += 1
        with rec.clock() as timed:
            report = service.run_service(
                inputs.fleet, config=inputs.config, cache=None,
                journal_path=journal, control_events=inputs.controls,
            )
        rec.main_s = timed.seconds
        rec.requests = report.submitted
        rec.cells = report.admitted + report.cache_hits
        check_report(rec, report, "run")
        service_model(rec, report)
        snapshots = service.list_snapshots(journal)
        rec.record["journal_bytes"] = journal.stat().st_size
        rec.record["snapshot_bytes"] = [p.stat().st_size for p in snapshots]
        rec.model["service.journal_bytes"] = float(journal.stat().st_size)
        traced_phase(rec, fleet_sample(inputs.fleet), TRACED_REPS[self.name])
        journal_recovery(
            rec, tmp, inputs, self.duration // 2,
            report.service_digest(), journal,
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Fig7Grid(), PrefetchAdversarial(), ServeCold(), ServeDurable()
    )
}
