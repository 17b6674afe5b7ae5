"""Self-time tracing of the program's layers, from outside the program.

:class:`Tracer` charges every interval of wall time to exactly one layer:
the layer of the innermost wrapped call running at that moment, or
``unattributed`` when none is. Each wrapper charges the time since the
last event on entry and on exit, so the per-layer self times telescope to
the traced wall time exactly; nothing is estimated.

Coarse calls (a cell, a request, a quantum, a journal append) also record
a span: name, start, end, the span that caused it and, on serve-open, the
request id. Calls made once per simulated instruction or cycle only add
to their layer's self time and call count, so tracing a run does not hold
millions of spans in memory.

:func:`install` wraps the program's public functions and methods in place
and returns an :class:`Installation` whose ``remove()`` restores them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

UNATTRIBUTED = "unattributed"


class Tracer:
    """Per-layer self time, call counts, spans and event marks."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: event -> request id -> first time seen (submit / spawn / reaped)
        self.marks: Dict[str, Dict[str, float]] = defaultdict(dict)
        self.spans: List[list] = []  # [id, parent, name, start, end, request_id]
        self.stack: List[str] = []
        self.span_stack: List[int] = []
        self.request_id: Optional[str] = None
        self.last = 0.0
        self.started: Optional[float] = None
        self.stopped: Optional[float] = None

    def reset(self) -> None:
        """Forget everything, keeping the containers the wrappers hold."""
        for d in (self.self_s, self.calls, self.counts, self.marks):
            d.clear()
        self.spans.clear()
        self.stack.clear()
        self.span_stack.clear()
        self.request_id = None
        self.started = self.stopped = None

    def start(self) -> None:
        self.started = self.last = self.clock()

    def stop(self) -> None:
        now = self.clock()
        self.self_s[self.stack[-1] if self.stack else UNATTRIBUTED] += now - self.last
        self.last = now
        self.stopped = now

    @property
    def wall_s(self) -> float:
        return self.stopped - self.started

    def mark(self, event: str, rid: str) -> None:
        self.marks[event].setdefault(rid, self.clock())

    def snapshot(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "marks": {k: dict(v) for k, v in self.marks.items()},
            "spans": [list(s) for s in self.spans],
        }


def _hot(tracer: Tracer, layer: str, name: str, fn: Callable) -> Callable:
    """Wrapper for calls made per instruction or cycle: time and count only."""
    clock, self_s, calls, stack = tracer.clock, tracer.self_s, tracer.calls, tracer.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        now = clock()
        self_s[stack[-1] if stack else UNATTRIBUTED] += now - tracer.last
        tracer.last = now
        stack.append(layer)
        calls[name] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            now = clock()
            self_s[layer] += now - tracer.last
            tracer.last = now
            stack.pop()

    return wrapper


def _spanned(
    tracer: Tracer, layer: str, name: str, fn: Callable,
    before: Optional[Callable] = None, after: Optional[Callable] = None,
) -> Callable:
    """Wrapper for coarse calls: time, count and one span per call.

    ``before(args, kwargs)`` may return state handed to
    ``after(state, args, result)``; both run inside the span.
    """
    clock, self_s, calls, stack = tracer.clock, tracer.self_s, tracer.calls, tracer.stack
    spans, span_stack = tracer.spans, tracer.span_stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        now = clock()
        self_s[stack[-1] if stack else UNATTRIBUTED] += now - tracer.last
        tracer.last = now
        stack.append(layer)
        calls[name] += 1
        sid = len(spans)
        spans.append([sid, span_stack[-1] if span_stack else None, name, now, None,
                      tracer.request_id])
        span_stack.append(sid)
        try:
            state = before(args, kwargs) if before is not None else None
            result = fn(*args, **kwargs)
            if after is not None:
                after(state, args, result)
            return result
        finally:
            now = clock()
            self_s[layer] += now - tracer.last
            tracer.last = now
            stack.pop()
            span_stack.pop()
            spans[sid][4] = now

    return wrapper


class Installation:
    """Wrappers installed in place; :meth:`remove` restores the originals."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, original: Callable, wrapper: Callable) -> None:
        """Replace ``original`` wherever a loaded program module binds it."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def install(tracer: Tracer) -> Installation:
    """Wrap the program's layer boundaries. Import-heavy: call after set-up."""
    import repro
    from repro.branch.base import BranchPredictor
    from repro.branch.btb import BranchTargetBuffer
    from repro.core.adts import ADTSController
    from repro.core.detector import DetectorThread
    from repro.harness import runner, sweep
    from repro.harness.executor import SupervisedExecutor
    from repro.harness.journal import RunJournal
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.policies.base import FetchPolicy
    from repro.service.resultstore import ResultStore
    from repro.service.router import ShardedService
    from repro.service.service import SimulationService
    from repro.smt.batch import BatchEngine, SharedTrace
    from repro.smt.pipeline import SMTProcessor
    from repro.storage import atomic
    from repro.workloads.tracecache import CachedTrace
    from repro.workloads.tracegen import TraceGenerator

    inst = Installation()

    def method(cls, attr, layer, hot=False, before=None, after=None):
        fn = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        wrapped = (_hot(tracer, layer, name, fn) if hot
                   else _spanned(tracer, layer, name, fn, before, after))
        inst.patch(cls, attr, wrapped)

    def function(fn, layer):
        inst.patch_function(fn, _spanned(tracer, layer, fn.__name__, fn))

    # repro.workloads: generation and on-disk replay, per instruction.
    method(TraceGenerator, "next_instruction", "workloads.tracegen", hot=True)
    method(TraceGenerator, "take", "workloads.tracegen", hot=True)
    method(CachedTrace, "next_instruction", "workloads.replay", hot=True)
    method(CachedTrace, "take", "workloads.replay", hot=True)

    # repro.smt.pipeline: the engine, with work counters read around run().
    def stats_before(args, _kwargs):
        s = args[0].stats
        return s.cycles, s.committed, s.idle_skipped_cycles

    def stats_after(state, args, _result):
        s = args[0].stats
        tracer.counts["smt.sim_cycles"] += s.cycles - state[0]
        tracer.counts["smt.committed"] += s.committed - state[1]
        tracer.counts["smt.idle_skipped_cycles"] += s.idle_skipped_cycles - state[2]

    method(SMTProcessor, "run", "smt.engine", before=stats_before, after=stats_after)
    method(SMTProcessor, "run_quanta", "smt.engine")
    function(repro.build_processor, "smt.build")

    # repro.smt.batch: lockstep pass bookkeeping and shared-trace cursors.
    def batch_after(_state, args, _result):
        tel = args[0].telemetry
        tracer.counts["batch.forks"] += tel["forks"]
        tracer.counts["batch.quantum_steps"] += tel["quantum_steps"]
        tracer.counts["batch.quantum_steps_sequential"] += tel["quantum_steps_sequential"]
        tracer.counts["batch.distinct_trajectories"] += tel["groups_final"]

    method(BatchEngine, "run", "batch.run", after=batch_after)
    method(SharedTrace, "next_instruction", "batch.shared_trace", hot=True)
    method(SharedTrace, "take", "batch.shared_trace", hot=True)

    # repro.core: the ADTS controller and its detector thread.
    method(ADTSController, "on_cycle", "core.adts", hot=True)
    method(ADTSController, "on_quantum_end", "core.adts")
    method(DetectorThread, "on_cycle", "core.adts", hot=True)

    # repro.policies, repro.memory, repro.branch: per-fetch units.
    for cls in _subclasses(FetchPolicy):
        for attr in ("rank", "keys"):
            if attr in cls.__dict__:
                method(cls, attr, "policies.rank", hot=True)
    for attr in ("ifetch", "load", "store"):
        method(MemoryHierarchy, attr, "memory.hierarchy", hot=True)
    for cls in _subclasses(BranchPredictor):
        if "predict_and_update" in cls.__dict__:
            method(cls, "predict_and_update", "branch.predictor", hot=True)
    for attr in ("lookup", "update"):
        method(BranchTargetBuffer, attr, "branch.predictor", hot=True)

    # repro.harness: drivers, journal, supervised workers.
    for fn in (runner.run_fixed, runner.run_adts, runner.run_batch,
               sweep.threshold_type_grid):
        function(fn, "harness.runner")
    method(RunJournal, "record", "harness.journal_record")

    def spawn_before(args, _kwargs):
        item = args[1] if len(args) > 1 else None
        tracer.request_id = item.label
        tracer.mark("spawn", item.label)

    def spawn_after(_state, _args, _result):
        tracer.request_id = None

    def pump_after(_state, _args, outcomes):
        for out in outcomes:
            tracer.mark("reaped", out.item.label)
            tracer.counts["harness.attempts"] += 1

    method(SupervisedExecutor, "spawn_attempt", "harness.spawn",
           before=spawn_before, after=spawn_after)
    method(SupervisedExecutor, "pump", "harness.poll", after=pump_after)

    # repro.service: front door, shard, result store.
    def submit_before(args, _kwargs):
        tracer.request_id = args[1].request_id
        tracer.mark("submit", args[1].request_id)

    def submit_after(_state, _args, _result):
        tracer.request_id = None

    method(ShardedService, "submit", "service.frontdoor",
           before=submit_before, after=submit_after)
    method(ShardedService, "pump", "service.frontdoor")
    method(SimulationService, "submit", "service.shard")
    method(SimulationService, "pump", "service.shard")
    method(ResultStore, "get", "service.store_get")
    method(ResultStore, "put", "service.store_put")

    # repro.storage: durable writes and appends wherever they are bound.
    function(atomic.atomic_write_bytes, "storage.atomic_write")
    function(atomic.append_line, "storage.append")

    # The serving loop's sleeps between pumps.
    inst.patch(time, "sleep", _spanned(tracer, "service.poll_sleep", "time.sleep",
                                       time.sleep))
    return inst


def worker_task(tracer: Tracer, task: Callable, out_dir: Path) -> Callable:
    """Wrap an executor task so a forked worker traces itself.

    The worker inherits the parent's tracer at fork time, inside the
    parent's ``spawn_attempt`` span, so the request id is read before the
    inherited state is dropped. The worker's own ledger, counts and spans
    are written to ``out_dir`` when the task ends, for the parent to merge.
    """

    def traced(spec, progress, checkpoint_path):
        rid = tracer.request_id
        tracer.reset()
        tracer.request_id = rid
        tracer.start()
        try:
            return task(spec, progress, checkpoint_path)
        finally:
            tracer.stop()
            from repro.workloads.tracecache import active_trace_cache

            cache = active_trace_cache()
            doc = tracer.snapshot()
            doc["request_id"] = rid
            doc["tracecache"] = dict(cache.stats) if cache is not None else {}
            import resource

            doc["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            path = out_dir / f"worker-{os.getpid()}.json"
            path.write_text(json.dumps(doc))

    return traced
