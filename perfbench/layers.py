"""The traced run: per-layer metrics for one workload.

Round 0 of the workload runs in pairs, first untraced and then with the
:mod:`perfbench.tracing` wrappers installed, until the run's seconds are
spent. Times are means per traced round; counts are those of one round,
and must repeat exactly in every pair. Every answer of a traced round must
equal the untraced round's, every ledger (the parent's and each worker's)
must add up to its wall time, and the rounds pass the same checks as in an
untraced run.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

from perfbench import checks, tracing

#: Per-layer self-time metrics and the tracer layers they sum.
LAYER_TIMES = {
    "workloads.tracegen_s": "workloads.tracegen",
    "workloads.replay_s": "workloads.replay",
    "smt.engine_s": "smt.engine",
    "smt.build_s": "smt.build",
    "batch.run_s": "batch.run",
    "batch.shared_trace_s": "batch.shared_trace",
    "core.adts_s": "core.adts",
    "policies.rank_s": "policies.rank",
    "memory.hierarchy_s": "memory.hierarchy",
    "branch.predictor_s": "branch.predictor",
    "harness.runner_s": "harness.runner",
    "harness.journal_record_s": "harness.journal_record",
    "harness.spawn_s": "harness.spawn",
    "harness.poll_s": "harness.poll",
    "service.frontdoor_s": "service.frontdoor",
    "service.shard_s": "service.shard",
    "service.poll_sleep_s": "service.poll_sleep",
    "service.store_get_s": "service.store_get",
    "service.store_put_s": "service.store_put",
    "storage.atomic_write_s": "storage.atomic_write",
    "storage.append_s": "storage.append",
    "trace.unattributed_s": tracing.UNATTRIBUTED,
}

UNITS = {name: "s" for name in LAYER_TIMES}
UNITS.update({
    "workloads.instructions_generated": "count",
    "workloads.tracecache_hit_ratio": "ratio",
    "smt.host_us_per_sim_cycle": "us",
    "smt.sim_cycles": "count",
    "smt.committed": "count",
    "smt.idle_skip_share": "ratio",
    "batch.dedup_ratio": "ratio",
    "batch.forks": "count",
    "batch.distinct_trajectories": "count",
    "core.switches": "count",
    "harness.journal_records": "count",
    "harness.attempts": "count",
    "harness.worker_attempt_ms_p50": "ms",
    "service.queue_wait_ms_p50": "ms",
    "service.generator_late_ms_p90": "ms",
    "service.store_hits": "count",
    "service.simulations": "count",
    "service.answers_per_simulation": "ratio",
    "storage.atomic_writes": "count",
    "storage.appends": "count",
    "proc.cpu_s": "s",
    "proc.worker_peak_rss_mb": "MB",
    "trace.wall_s": "s",
    "trace.worker_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.ledger_gap_s": "s",
})

#: Counts that must repeat exactly from pair to pair.
REPEATING = (
    "smt.sim_cycles", "smt.committed", "smt.idle_skipped_cycles", "core.switches",
    "batch.forks", "batch.quantum_steps", "batch.quantum_steps_sequential",
    "batch.distinct_trajectories", "instructions", "harness.journal_records",
    "storage.appends", "harness.attempts", "service.store_hits", "service.simulations",
)


class TraceSession:
    """Installs the wrappers for exactly the timed part of one round.

    On serve-open the worker task is wrapped too, so each forked worker
    traces itself and leaves its ledger in ``worker_dir``.
    """

    def __init__(self, tracer: tracing.Tracer, worker_dir: Path) -> None:
        self.tracer = tracer
        self.worker_dir = worker_dir
        self._inst = None
        self._task = None

    def start(self) -> None:
        from repro.harness import executor

        self.tracer.reset()
        self._inst = tracing.install(self.tracer)
        self._task = executor.TASK_KINDS["service_cell"]
        executor.register_task_kind(
            "service_cell", tracing.worker_task(self.tracer, self._task, self.worker_dir)
        )
        self.tracer.start()

    def stop(self) -> None:
        from repro.harness import executor

        self.tracer.stop()
        executor.register_task_kind("service_cell", self._task)
        self._inst.remove()

    def take_workers(self) -> List[dict]:
        docs = []
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            docs.append(json.loads(path.read_text()))
            path.unlink()
        return docs


def _pair_counts(driver, rnd: dict, parent: dict, workers: List[dict]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for doc in [parent] + workers:
        for k, v in doc["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in doc["calls"].items():
            counts["calls:" + k] = counts.get("calls:" + k, 0) + v
    counts["instructions"] = counts.get("calls:TraceGenerator.next_instruction", 0)
    counts["core.switches"] = driver.switches(rnd)
    counts["harness.journal_records"] = counts.get("calls:RunJournal.record", 0)
    counts["storage.appends"] = counts.get("calls:append_line", 0)
    counts["storage.atomic_writes"] = counts.get("calls:atomic_write_bytes", 0)
    stats = rnd.get("stats")
    if stats is not None:
        counts["service.store_hits"] = stats["front_store_hits"]
        counts["service.simulations"] = stats["front_simulations"]
        counts["service.answered"] = stats["front_answered"]
    return counts


def _median_ms(marks: Dict[str, Dict[str, float]], first: str, second: str) -> float:
    a, b = marks.get(first, {}), marks.get(second, {})
    spans = [1000.0 * (b[k] - a[k]) for k in a if k in b]
    return statistics.median(spans) if spans else 0.0


def measure_layers(driver, seconds: float, out_dir: Path) -> dict:
    worker_dir = driver.workdir / "worker-traces"
    worker_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer()
    session = TraceSession(tracer, worker_dir)
    pairs = []
    attempted = failed = 0
    correct = True
    problems_seen: List[str] = []
    t0 = time.perf_counter()
    while not pairs or time.perf_counter() - t0 < seconds:
        cpu0 = os.times()
        plain = driver.run_round(0, fresh=True)
        cpu1 = os.times()
        traced = driver.run_round(0, tracer=session, fresh=True)
        parent = tracer.snapshot()
        workers = session.take_workers()
        pairs.append({
            "plain": plain, "traced": traced, "parent": parent, "workers": workers,
            "cpu_s": sum(cpu1[:4]) - sum(cpu0[:4]),
            "counts": _pair_counts(driver, traced, parent, workers),
        })
        for rnd in (plain, traced):
            n, problems, expected = driver.check([rnd])
            bad, only_expected = checks.count_failed(problems, expected)
            attempted += n
            failed += bad
            correct = correct and only_expected
        if driver.payloads(plain) != driver.payloads(traced):
            problems_seen.append("a traced round answered differently from its untraced twin")
        for doc in [parent] + workers:
            problems_seen += checks.check_ledger(doc["self_s"], doc["wall_s"])
    first = pairs[0]["counts"]
    for pair in pairs[1:]:
        for key in REPEATING:
            if pair["counts"].get(key) != first.get(key):
                problems_seen.append(f"{key} did not repeat: {pair['counts'].get(key)} vs {first.get(key)}")
    spans = []
    for n, pair in enumerate(pairs):
        spans.append({"pair": n, "process": "parent", "spans": pair["parent"]["spans"]})
        for doc in pair["workers"]:
            spans.append({"pair": n, "process": "worker", "request_id": doc["request_id"],
                          "spans": doc["spans"]})
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"trace-{driver.name}-{driver.seed}.json").write_text(json.dumps(spans))
    metrics = _metrics(pairs, first)
    # The printed layer times, unattributed included, must add up to the
    # parent's traced wall time plus its workers' task time.
    docs = max(1 + len(p["workers"]) for p in pairs)
    problems_seen += checks.check_ledger(
        {name: metrics[name] for name in LAYER_TIMES},
        metrics["trace.wall_s"] + metrics["trace.worker_wall_s"], tol_s=1e-6 * docs)
    for text in problems_seen:
        print(f"{driver.name}: trace: {text}", file=sys.stderr)
    return {
        "correct": correct and not problems_seen,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _metrics(pairs: List[dict], c: Dict[str, int]) -> Dict[str, float]:
    n = len(pairs)
    self_s: Dict[str, float] = {}
    gap = 0.0
    worker_rss = 0
    marks: Dict[str, Dict[str, float]] = {}
    hits = lookups = 0
    attempt_ms, queue_ms = [], []
    for pair in pairs:
        docs = [pair["parent"]] + pair["workers"]
        for doc in docs:
            for layer, v in doc["self_s"].items():
                self_s[layer] = self_s.get(layer, 0.0) + v / n
            gap = max(gap, abs(sum(doc["self_s"].values()) - doc["wall_s"]))
        for doc in pair["workers"]:
            worker_rss = max(worker_rss, doc["maxrss_kb"])
            hits += doc["tracecache"].get("hits", 0)
            lookups += doc["tracecache"].get("hits", 0) + doc["tracecache"].get("misses", 0)
        marks = pair["parent"]["marks"]
        attempt_ms.append(_median_ms(marks, "spawn", "reaped"))
        queue_ms.append(_median_ms(marks, "submit", "spawn"))
    traced_wall = statistics.mean(p["parent"]["wall_s"] for p in pairs)
    worker_wall = statistics.mean(sum(d["wall_s"] for d in p["workers"]) for p in pairs)
    plain_wall = statistics.mean(p["plain"]["wall"] for p in pairs)
    cycles = c.get("smt.sim_cycles", 0)
    steps = c.get("batch.quantum_steps", 0)
    late = [1000.0 * x for p in pairs for x in p["plain"].get("late", [])]
    out = {name: self_s.get(layer, 0.0) for name, layer in LAYER_TIMES.items()}
    out.update({
        "workloads.instructions_generated": c.get("instructions", 0),
        "workloads.tracecache_hit_ratio": hits / lookups if lookups else 0.0,
        "smt.host_us_per_sim_cycle": 1e6 * plain_wall / cycles if cycles else 0.0,
        "smt.sim_cycles": cycles,
        "smt.committed": c.get("smt.committed", 0),
        "smt.idle_skip_share": c.get("smt.idle_skipped_cycles", 0) / cycles if cycles else 0.0,
        "batch.dedup_ratio": c.get("batch.quantum_steps_sequential", 0) / steps if steps else 0.0,
        "batch.forks": c.get("batch.forks", 0),
        "batch.distinct_trajectories": c.get("batch.distinct_trajectories", 0),
        "core.switches": c.get("core.switches", 0),
        "harness.journal_records": c.get("harness.journal_records", 0),
        "harness.attempts": c.get("harness.attempts", 0),
        "harness.worker_attempt_ms_p50": statistics.median(attempt_ms),
        "service.queue_wait_ms_p50": statistics.median(queue_ms),
        "service.generator_late_ms_p90": (
            statistics.quantiles(late, n=10)[8] if len(late) > 1 else 0.0),
        "service.store_hits": c.get("service.store_hits", 0),
        "service.simulations": c.get("service.simulations", 0),
        "service.answers_per_simulation": (
            c.get("service.answered", 0) / c["service.simulations"]
            if c.get("service.simulations") else 0.0),
        "storage.atomic_writes": c.get("storage.atomic_writes", 0),
        "storage.appends": c.get("storage.appends", 0),
        "proc.cpu_s": statistics.mean(p["cpu_s"] for p in pairs),
        "proc.worker_peak_rss_mb": worker_rss / 1024.0,
        "trace.wall_s": traced_wall,
        "trace.worker_wall_s": worker_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.ledger_gap_s": gap,
    })
    return out
