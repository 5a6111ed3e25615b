"""Per-layer spans for the traced benchmark run, recorded from outside.

The benchmark never edits the program.  For the traced run it replaces
each layer's public entry points with timing wrappers, *where the caller
looks them up* (a module attribute or a class attribute), and restores
the originals afterwards.  Every wrapper records one span: the layer it
belongs to, its duration, and the part of that duration covered by
child spans, so each layer's *self* time is exact and the self times of
all layers plus the unattributed remainder add up to the traced wall
time.

A target that a later refactor removed or renamed is skipped and listed
as absent; the traced run then reports that layer's time as zero
instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Wrapped entry points: (bucket, module, attribute path[, alias]).  A
#: bucket is ``<layer>.<part>``; the layer is the text before the first
#: dot.  The module is where the *caller* finds the name, so a function
#: imported into several modules is listed once per importing module.
#: An alias tallies the calls made through that one lookup separately.
TARGETS: Tuple[Tuple[str, ...], ...] = (
    ("core.plan", "repro.core.runtime", "RuntimeManager.plan_hot_spot"),
    ("core.selection", "repro.core.runtime", "select_molecules"),
    ("core.selection", "repro.core.runtime", "select_molecules_fast"),
    ("core.schedule", "repro.core.schedulers.base", "AtomScheduler.schedule"),
    ("core.schedule", "repro.core.runtime", "fast_schedule"),
    ("core.monitor", "repro.core.monitor", "ExecutionMonitor.predict"),
    ("core.monitor", "repro.core.monitor", "ExecutionMonitor.update"),
    ("core.monitor", "repro.core.monitor", "ExecutionMonitor.record_transition"),
    ("core.monitor", "repro.core.monitor", "ExecutionMonitor.predict_next"),
    ("sim.run", "repro.sim.engine", "SystemSimulator.run"),
    ("sim.run", "repro.sim.software", "simulate_software"),
    ("fabric.port", "repro.fabric.reconfig", "ReconfigPort.advance_to"),
    ("fabric.port", "repro.fabric.reconfig", "ReconfigPort.replace_queue"),
    ("fabric.port", "repro.fabric.reconfig", "ReconfigPort.enqueue_speculative"),
    ("fabric.port", "repro.fabric.reconfig", "ReconfigPort.cancel_speculative"),
    ("workload.build", "repro.exec.spec", "WorkloadSpec.build"),
    ("h264.silibrary", "repro.h264.silibrary", "build_si_library"),
    ("h264.silibrary", "repro.service.arbiter", "build_si_library"),
    ("h264.registry", "repro.h264.silibrary", "build_atom_registry"),
    ("h264.registry", "repro.service.arbiter", "build_atom_registry"),
    ("exec.cell", "repro.exec.runner", "execute_cell"),
    ("exec.cell", "repro.service.arbiter", "execute_cell", "service.compute"),
    ("service.snapshot", "repro.service.arbiter", "write_snapshot"),
    ("service.run", "repro.service", "run_service"),
    ("service.run", "repro.service", "recover_service"),
)

#: Layers whose self time the traced run reports (``<layer>.self_s``).
LAYERS = ("core", "sim", "fabric", "workload", "h264", "exec", "service")

#: Called with (args, kwargs, result) after a wrapped call returns.
Observer = Callable[[Tuple[Any, ...], Dict[str, Any], Any], None]


class SpanRecorder:
    """Span stack plus per-bucket totals for one traced run.

    ``self_s`` partitions the wall time spent inside wrapped calls:
    each span contributes its duration minus its children's.
    ``total_s`` and ``calls`` count only the outermost span of a bucket,
    so a method that calls its own super-implementation is not counted
    twice.
    """

    def __init__(self) -> None:
        self._stack: List[List[Any]] = []  # [bucket, child seconds]
        self._depth: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: Seconds of ``sim.run`` spans nested inside ``exec.cell`` spans
        #: (the simulation part of a cell).
        self.sim_in_cell_s = 0.0

    def inside(self, bucket: str) -> bool:
        return self._depth[bucket] > 0

    def wrap(
        self, bucket: str, fn: Callable[..., Any],
        observe: Optional[Observer] = None, alias: Optional[str] = None,
    ) -> Callable[..., Any]:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [bucket, 0.0]
            recorder._stack.append(frame)
            recorder._depth[bucket] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                recorder._stack.pop()
                recorder._depth[bucket] -= 1
                recorder.self_s[bucket] += elapsed - frame[1]
                if recorder._stack:
                    recorder._stack[-1][1] += elapsed
                if recorder._depth[bucket] == 0:
                    recorder.total_s[bucket] += elapsed
                    recorder.calls[bucket] += 1
                    recorder.durations[bucket].append(elapsed)
                if alias is not None:
                    recorder.total_s[alias] += elapsed
                    recorder.calls[alias] += 1
                if bucket == "sim.run" and recorder.inside("exec.cell"):
                    recorder.sim_in_cell_s += elapsed
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def layer_self_s(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for bucket, seconds in self.self_s.items():
            layer = bucket.split(".", 1)[0]
            totals[layer] += seconds
        return totals


def _resolve(module_name: str, path: str) -> Optional[Tuple[Any, str]]:
    """(owner, attribute) for ``module:path``, or None if it is gone."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


class Instrumentation:
    """Install wrappers for one traced run; ``with`` restores them."""

    def __init__(
        self, recorder: SpanRecorder,
        observers: Optional[Dict[str, Observer]] = None,
    ) -> None:
        self.recorder = recorder
        self.observers = observers or {}
        self.absent: List[str] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Instrumentation":
        for bucket, module_name, path, *alias in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}:{path}")
                continue
            self._install(bucket, *found, *alias)
        return self

    def _install(
        self, bucket: str, owner: Any, attr: str, alias: Optional[str] = None
    ) -> None:
        original = vars(owner)[attr]
        if isinstance(original, (staticmethod, classmethod)) or not callable(
            original
        ):
            self.absent.append(f"{owner.__name__}.{attr} (descriptor)")
            return
        wrapped = self.recorder.wrap(
            bucket, original, self.observers.get(bucket), alias
        )
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class Observations:
    """Work counts read from wrapped calls' arguments and results."""

    SIM_FIELDS = (
        "total_cycles", "loads_started", "loads_completed", "evictions",
        "bus_busy_cycles", "prefetch_issued", "prefetch_hits",
        "prefetch_wasted_bus_cycles",
    )

    def __init__(self) -> None:
        self.sim: Dict[str, int] = {name: 0 for name in self.SIM_FIELDS}
        self.iterations = 0
        self.snapshot_bytes_max = 0

    def observers(self) -> Dict[str, Observer]:
        return {"sim.run": self._sim_run, "service.snapshot": self._snapshot}

    def _sim_run(self, args: Tuple[Any, ...], kwargs: Dict[str, Any],
                 result: Any) -> None:
        # SystemSimulator.run(self, workload) / simulate_software(library,
        # workload): the workload is the second argument either way.
        workload = args[1] if len(args) > 1 else kwargs.get("workload")
        for trace in getattr(workload, "traces", ()):
            self.iterations += int(trace.counts.shape[0])
        for name in self.SIM_FIELDS:
            self.sim[name] += int(getattr(result, name, 0))

    def _snapshot(self, args: Tuple[Any, ...], kwargs: Dict[str, Any],
                  result: Any) -> None:
        try:
            size = Path(result).stat().st_size
        except (OSError, TypeError):
            return
        self.snapshot_bytes_max = max(self.snapshot_bytes_max, size)
