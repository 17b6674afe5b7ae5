"""The three workloads, driven through the program's public functions.

Each driver has the same shape:

* ``setup()`` imports the program, builds what the workload needs and runs
  one untimed warm-up operation;
* ``run_round(index, tracer=None, fresh=False)`` runs one timed round of
  operations and returns what the checks and metrics need; with a tracer,
  the tracer's clock runs exactly around the timed part;
* ``check(rounds)`` returns ``(attempted, problems, expected_failures)``;
* ``metrics(rounds, wall_s, failed)`` returns the end-to-end metrics other
  than ``setup_s`` and ``peak_rss_mb``, given the failed operations;
* ``payloads(rnd)`` returns every operation's answer, for comparing a
  traced round with an untraced one.

A round is the same list of operations in every run, whatever its length,
so failed operations are always the same share of attempted ones.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench import checks
from perfbench.inputs import (
    GRID_BATCH,
    GRID_CELL,
    GRID_HEURISTICS,
    GRID_MIXES,
    GRID_THRESHOLDS,
    POLICY_CELL,
    SERVE_REQUEST,
    ServeInputs,
    grid_seed,
    policy_cells,
    policy_seed,
    round_rng,
)

#: Sampled operations per round re-computed apart from the timed path, and
#: the rounds that are sampled (later rounds only add to the timed work).
SOLO_PER_ROUND = 2
REBUILD_PER_ROUND = 1
SERVE_MISS_REFS = 6
SERVE_BURST_REFS = 2
SAMPLED_ROUNDS = 4


def quantile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (10, 50 or 90) as ``statistics.quantiles``
    gives it with ``n=10``; the median for 50."""
    if q == 50:
        return statistics.median(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[q // 10 - 1]


def adts_payload(result) -> dict:
    """The payload the sweep and the service derive from one ADTS run."""
    return {
        "ipc": result.ipc,
        "switches": result.scheduler.get("switches", 0),
        "benign_probability": result.scheduler.get("benign_probability", 0.0),
    }


class SweepGrid:
    """The Fig. 7/8 grid through ``threshold_type_grid(..., batch=...)``."""

    name = "sweep-grid"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self._journals = 0

    def setup(self) -> None:
        self.imports()
        from repro.harness.runner import BatchRunSpec, run_batch

        warm = self.RunConfig(mix=GRID_MIXES[0], seed=grid_seed(self.seed, -1), **GRID_CELL)
        run_batch([BatchRunSpec(config=warm,
                                thresholds=self.ThresholdConfig(ipc_threshold=2.0))])

    def imports(self) -> None:
        from repro.core.thresholds import ThresholdConfig
        from repro.harness import sweep
        from repro.harness.journal import RunJournal
        from repro.harness.runner import RunConfig, run_adts
        from repro.smt.config import SMTConfig

        self.RunConfig, self.RunJournal = RunConfig, RunJournal
        self.ThresholdConfig, self.run_adts = ThresholdConfig, run_adts
        # Called through its module, so the traced run's wrapper applies.
        self.sweep = sweep
        self.width = SMTConfig(num_threads=GRID_CELL["num_threads"]).commit_width

    def solo(self, base, cell: Tuple[float, str, str]) -> dict:
        """One grid cell run alone through ``run_adts``."""
        m, h, mix = cell
        r = self.run_adts(replace(base, mix=mix), heuristic=h,
                          thresholds=self.ThresholdConfig(ipc_threshold=m))
        return adts_payload(r)

    def expected(self) -> List[Tuple[float, str, str]]:
        return [(m, h, mix) for m in GRID_THRESHOLDS for h in GRID_HEURISTICS
                for mix in GRID_MIXES]

    def run_round(self, index: int, tracer=None, fresh: bool = False) -> dict:
        base = self.RunConfig(seed=grid_seed(self.seed, index), **GRID_CELL)
        self._journals += 1
        path = self.workdir / f"grid-{self._journals:04d}.jsonl"
        journal = self.RunJournal(path)
        if tracer is not None:
            tracer.start()
        t0 = time.perf_counter()
        sweep = self.sweep.threshold_type_grid(
            base, GRID_MIXES, GRID_THRESHOLDS, GRID_HEURISTICS,
            journal=journal, batch=GRID_BATCH)
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.stop()
        journal.close()
        return {"index": index, "base": base, "sweep": sweep, "journal": path,
                "wall": wall, "ops": len(self.expected())}

    def _journal_cells(self, path: Path) -> List[Tuple[tuple, dict, str]]:
        out = []
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            entry = json.loads(line)
            key = json.loads(entry["key"])
            cell = (float(key["threshold"]), key["heuristic"], key["mix"])
            out.append((cell, entry["payload"], entry["key"]))
        return out

    def payloads(self, rnd: dict) -> Dict:
        return {cell: payload for cell, payload, _ in self._journal_cells(rnd["journal"])}

    def check(self, rounds: List[dict]) -> Tuple[int, checks.Problems, list]:
        problems: checks.Problems = {}
        attempted = 0
        for rnd in rounds:
            expected = self.expected()
            attempted += len(expected)
            records = self._journal_cells(rnd["journal"])
            reload = self.RunJournal(rnd["journal"])
            reload.load()
            reloaded = {cell: reload.get(key) for cell, _, key in records}
            solo = {}
            if rnd["index"] < SAMPLED_ROUNDS:
                rng = round_rng("sweep-grid-solo", self.seed, rnd["index"])
                for cell in rng.sample(expected, SOLO_PER_ROUND):
                    solo[cell] = self.solo(rnd["base"], cell)
            sweep = rnd["sweep"]
            found = checks.check_grid_pass(
                expected, [(c, p) for c, p, _ in records], reloaded,
                sweep.per_mix_ipc, sweep.switches, sweep.benign, solo,
                width=self.width, max_switches=rnd["base"].total_quanta(),
            )
            for cell, texts in found.items():
                problems[(rnd["index"], cell)] = texts
        return attempted, problems, []

    def metrics(self, rounds: List[dict], wall_s: float, failed: set) -> Dict[str, float]:
        cells = sum(r["ops"] for r in rounds)
        # With the whole grid in one batch every cell's result is journaled
        # at the end of its pass: its latency is the pass time.
        per_cell = [1000.0 * r["wall"] for r in rounds for _ in range(r["ops"])]
        return {
            "cells_per_s": cells / wall_s,
            "requests_per_s": len(rounds) / sum(r["wall"] for r in rounds),
            "latency_p50_ms": quantile(per_cell, 50),
            "latency_p90_ms": quantile(per_cell, 90),
        }

    def switches(self, rnd: dict) -> int:
        return sum(p["switches"] for p in self.payloads(rnd).values())

    def close(self) -> None:
        pass


class PolicyCells:
    """The ten Table 1 fixed policies, one ``run_fixed`` cell at a time."""

    name = "policy-cells"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        self.imports()
        mix, policy = self.cells[0]
        self.runner.run_fixed(self.config(mix, policy, policy_seed(self.seed, -1)))

    def imports(self) -> None:
        from repro import build_processor
        from repro.harness import runner
        from repro.policies.registry import POLICY_NAMES
        from repro.smt.config import SMTConfig

        # run_fixed is called through its module, so the traced run's
        # wrapper applies.
        self.RunConfig, self.runner = runner.RunConfig, runner
        self.build_processor = build_processor
        self.cells = policy_cells(list(POLICY_NAMES))
        self.width = SMTConfig(num_threads=POLICY_CELL["num_threads"]).commit_width

    @staticmethod
    def answer(result) -> dict:
        """The parts of a ``run_fixed`` result the checks compare."""
        return {"ipc": result.ipc, "committed": result.committed,
                "cycles": result.cycles, "quantum_ipcs": result.quantum_ipcs}

    def config(self, mix: str, policy: str, seed: int):
        return self.RunConfig(mix=mix, policy=policy, seed=seed, **POLICY_CELL)

    def run_round(self, index: int, tracer=None, fresh: bool = False) -> dict:
        seed = policy_seed(self.seed, index)
        configs = [self.config(mix, policy, seed) for mix, policy in self.cells]
        results, latencies = [], []
        if tracer is not None:
            tracer.start()
        t0 = time.perf_counter()
        for cfg in configs:
            t = time.perf_counter()
            r = self.runner.run_fixed(cfg)
            latencies.append(time.perf_counter() - t)
            results.append(r)
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.stop()
        return {"index": index, "configs": configs, "results": results,
                "latencies": latencies, "wall": wall, "ops": len(configs)}

    def payloads(self, rnd: dict) -> Dict:
        return {(cfg.mix, cfg.policy): self.answer(r)
                for cfg, r in zip(rnd["configs"], rnd["results"])}

    def _rebuild(self, cfg, stepwise: bool) -> dict:
        proc = self.build_processor(
            mix=cfg.mix, num_threads=cfg.num_threads, seed=cfg.seed,
            policy=cfg.policy, quantum_cycles=cfg.quantum_cycles,
        )
        total = cfg.total_quanta()
        if stepwise:
            for _ in range(total):
                proc.run_quanta(1)
        else:
            proc.run_quanta(total)
        window = proc.stats.quantum_history[cfg.warmup_quanta:total]
        committed = sum(q.committed for q in window)
        cycles = sum(q.cycles for q in window)
        return {
            "fingerprint": proc.fingerprint(),
            "committed": proc.stats.committed,
            "per_thread": dict(proc.stats.per_thread_committed),
            "window": {"ipc": committed / cycles if cycles else 0.0,
                       "committed": committed, "cycles": cycles},
        }

    def check(self, rounds: List[dict]) -> Tuple[int, checks.Problems, list]:
        problems: checks.Problems = {}
        attempted = 0
        for rnd in rounds:
            attempted += rnd["ops"]
            payloads = self.payloads(rnd)
            for cfg in rnd["configs"]:
                op = (rnd["index"], cfg.mix, cfg.policy)
                found = checks.check_policy_cell(
                    payloads[(cfg.mix, cfg.policy)],
                    cycles=cfg.quanta * cfg.quantum_cycles, width=self.width,
                )
                if found:
                    problems[op] = found
            if rnd["index"] < SAMPLED_ROUNDS:
                rng = round_rng("policy-cells-rebuild", self.seed, rnd["index"])
                for cfg in rng.sample(rnd["configs"], REBUILD_PER_ROUND):
                    found = checks.check_policy_rebuild(
                        payloads[(cfg.mix, cfg.policy)],
                        self._rebuild(cfg, stepwise=False),
                        self._rebuild(cfg, stepwise=True),
                    )
                    if found:
                        problems.setdefault((rnd["index"], cfg.mix, cfg.policy), []).extend(found)
        return attempted, problems, []

    def metrics(self, rounds: List[dict], wall_s: float, failed: set) -> Dict[str, float]:
        latencies = [1000.0 * x for r in rounds for x in r["latencies"]]
        return {
            "cells_per_s": sum(r["ops"] for r in rounds) / wall_s,
            "requests_per_s": len(rounds) / sum(r["wall"] for r in rounds),
            "latency_p50_ms": quantile(latencies, 50),
            "latency_p90_ms": quantile(latencies, 90),
        }

    def switches(self, rnd: dict) -> int:
        return 0

    def close(self) -> None:
        pass


class _Handback:
    """The service as the serving loop sees it, stamping each submit and
    each response the loop takes back, on the loop's own clock."""

    def __init__(self, service, clock) -> None:
        self.service = service
        self.clock = clock
        self.queue = service.queue
        self.config = service.config
        self.submitted: Dict[str, float] = {}
        self.handed: Dict[str, float] = {}
        self.responses: List = []

    @property
    def inflight(self) -> int:
        return self.service.inflight

    def submit(self, request):
        self.submitted.setdefault(request.request_id, self.clock())
        return self.service.submit(request)

    def pump(self) -> int:
        return self.service.pump()

    def take_completed(self):
        out = self.service.take_completed()
        now = self.clock()
        for r in out:
            self.handed.setdefault(r.request_id, now)
        self.responses.extend(out)
        return out


class ServeOpen:
    """An open loop then a burst against ``ShardedService(shards=1)`` with
    one supervised worker, a result store, a journal and a trace cache."""

    name = "serve-open"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.inputs = ServeInputs(seed)
        self._services = 0
        self.service = None

    def setup(self) -> None:
        self.imports()
        self.service = self.build()
        warm = dict(request_id="warm-up", client="warm-up", degradable=False,
                    mix="mix05", seed=50_000, **SERVE_REQUEST)
        self._serve(self.service, [(0.0, warm)])

    def imports(self) -> None:
        from repro.core.thresholds import ThresholdConfig
        from repro.faults import FaultPlan
        from repro.harness.runner import run_adts
        from repro.service import (
            ServiceConfig,
            ShardedService,
            SimRequest,
            TimedRequest,
            replay_realtime,
            request_identity,
        )

        self.ServiceConfig, self.ShardedService = ServiceConfig, ShardedService
        self.SimRequest, self.TimedRequest = SimRequest, TimedRequest
        self.replay, self.identity = replay_realtime, request_identity
        self.FaultPlan, self.ThresholdConfig, self.run_adts = FaultPlan, ThresholdConfig, run_adts

    def build(self):
        """A service set up as ``repro serve --shards 1 --workers 1
        --result-store DIR --journal PATH`` sets one up, plus a trace cache."""
        self._services += 1
        root = self.workdir / f"service-{self._services:02d}"
        cfg = self.ServiceConfig(
            workers=1,
            journal_path=root / "journal.jsonl",
            trace_cache_dir=root / "tracecache",
        )
        return self.ShardedService(cfg, shards=1, store=root / "store")

    def close(self) -> None:
        if self.service is not None:
            self.service.drain()
            self.service = None

    def _serve(self, service, timed: List[Tuple[float, dict]]) -> Tuple[_Handback, float]:
        """Drive one stream through the program's serving loop; returns the
        stamps and the loop's start time."""
        events = [self.TimedRequest(at_s=at, request=self.SimRequest(**fields))
                  for at, fields in timed]
        start: List[float] = []

        def clock() -> float:
            now = time.monotonic()
            if not start:
                start.append(now)
            return now

        probe = _Handback(service, clock)
        self.replay(probe, events, max_wall_s=150.0, clock=clock)
        probe.take_completed()
        return probe, start[0]

    def run_round(self, index: int, tracer=None, fresh: bool = False) -> dict:
        schedule, burst = self.inputs.round(index)
        service = self.build() if fresh else self.service
        sims0 = service.stats()["counters"]["front_simulations"]
        if tracer is not None:
            tracer.start()
        cpu0 = os.times()
        t0 = time.perf_counter()
        phase1, start1 = self._serve(service, [(t.at_s, t.fields) for t in schedule])
        phase2, _ = self._serve(service, [(0.0, f) for f in burst])
        wall = time.perf_counter() - t0
        cpu1 = os.times()
        if tracer is not None:
            tracer.stop()
        stats = service.stats()["counters"]
        if fresh:
            service.drain()
        latency, late = [], []
        for t in schedule:
            rid = t.fields["request_id"]
            due = start1 + t.at_s
            latency.append(phase1.handed[rid] - due)
            late.append(phase1.submitted[rid] - due)
        burst_ids = [f["request_id"] for f in burst]
        return {
            "index": index, "schedule": schedule, "burst": burst,
            "responses": [r.to_json() for r in phase1.responses + phase2.responses],
            "latency": latency, "late": late,
            "burst_wall": max(phase2.handed[r] for r in burst_ids)
            - min(phase2.submitted[r] for r in burst_ids),
            "wall": wall, "ops": len(schedule) + len(burst), "stats": stats,
            # Every attempt of the round has been reaped, so its worker's
            # CPU time is in the children's share.
            "cpu_s": sum(cpu1[:4]) - sum(cpu0[:4]),
            "simulations": stats["front_simulations"] - sims0,
        }

    def direct(self, fields: dict) -> dict:
        """The payload of one request computed in-process, without the service."""
        req = self.SimRequest(**fields)
        plan = None
        if req.fault_kinds:
            plan = self.FaultPlan.from_kinds(list(req.fault_kinds), rate=req.fault_rate,
                                             seed=req.seed)
        r = self.run_adts(req.run_config(), heuristic=req.heuristic,
                          thresholds=self.ThresholdConfig(ipc_threshold=req.threshold),
                          fault_plan=plan)
        return adts_payload(r)

    def payloads(self, rnd: dict) -> Dict:
        return {r["request_id"]: r["payload"] for r in rnd["responses"]}

    def check(self, rounds: List[dict]) -> Tuple[int, checks.Problems, list]:
        problems: checks.Problems = {}
        attempted = 0
        expected_failures = []
        for rnd in rounds:
            requests = [t.fields for t in rnd["schedule"]] + rnd["burst"]
            attempted += len(requests)
            submitted = [{"request_id": f["request_id"],
                          "identity": self.identity(self.SimRequest(**f))} for f in requests]
            sample = [t.fields for t in rnd["schedule"] if t.kind.startswith("twin")]
            expected_failures += [t.fields["request_id"] for t in rnd["schedule"]
                                  if t.kind == "twin-clean"]
            if rnd["index"] < SAMPLED_ROUNDS:
                rng = round_rng("serve-open-refs", self.seed, rnd["index"])
                misses = [t.fields for t in rnd["schedule"] if t.kind == "miss"]
                sample += rng.sample(misses, SERVE_MISS_REFS)
                sample += rng.sample(rnd["burst"], SERVE_BURST_REFS)
            references = {f["request_id"]: self.direct(f) for f in sample}
            problems.update(checks.check_serve_round(submitted, rnd["responses"], references))
        return attempted, problems, expected_failures

    def metrics(self, rounds: List[dict], wall_s: float, failed: set) -> Dict[str, float]:
        latency = [1000.0 * x for r in rounds for x in r["latency"]]
        burst_ok = sum(
            1 for r in rounds for f in r["burst"] if f["request_id"] not in failed
        )
        return {
            # The open loop's schedule sets the wall time, so serving
            # throughput is taken per CPU second of benchmark and worker.
            "cells_per_s": sum(r["simulations"] for r in rounds)
            / sum(r["cpu_s"] for r in rounds),
            "requests_per_s": burst_ok / sum(r["burst_wall"] for r in rounds),
            "latency_p50_ms": quantile(latency, 50),
            "latency_p90_ms": quantile(latency, 90),
        }

    def switches(self, rnd: dict) -> int:
        return sum(p["switches"] for p in self.payloads(rnd).values() if p)


DRIVERS = {d.name: d for d in (SweepGrid, PolicyCells, ServeOpen)}


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident memory of this process (and, optionally, of its
    largest reaped child), in MB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0
