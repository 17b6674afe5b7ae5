#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 30 --trace 0

Run it from the root of a source tree that holds ``src/repro``. With
``--trace 0`` it runs whole rounds of the workload for ``--seconds``,
checks every answer, sets the workload up again in fresh processes to
time set-up, and prints the end-to-end metrics. With ``--trace 1`` it runs
round 0 in pairs, untraced then traced, for ``--seconds``, and prints the
per-layer metrics; the traced spans go to
``.perfbench-out/trace-<workload>-<seed>.json``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
UNITS = {
    "cells_per_s": "1/s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _bootstrap() -> None:
    """Run the program from this tree's sources, or refuse to run."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path[0] = str(ROOT / "src")
    sys.path.insert(1, str(ROOT))
    # Workers inherit the environment: keep them off any shared trace cache.
    os.environ.pop("REPRO_TRACE_CACHE", None)


def _setup_probe(workload: str, seed: int) -> float:
    """Set the workload up in a fresh interpreter; the time until it is
    ready for its first timed operation, as the parent sees it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def _measure(driver, seconds: float) -> dict:
    from perfbench import checks
    from perfbench.drivers import peak_rss_mb

    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(driver.run_round(len(rounds)))
    wall = time.perf_counter() - t0
    # The program's peak, before the checks run their own simulations here.
    peak = peak_rss_mb(include_children=driver.name == "serve-open")
    attempted = failed = 0
    correct = True
    failed_ops = set()
    for rnd in rounds:
        n, problems, expected = driver.check([rnd])
        bad, only_expected = checks.count_failed(problems, expected)
        attempted += n
        failed += bad
        correct = correct and only_expected
        failed_ops.update(problems)
        for op, texts in problems.items():
            print(f"{driver.name}: {op}: {'; '.join(texts)}", file=sys.stderr)
    metrics = driver.metrics(rounds, wall, failed_ops)
    metrics["peak_rss_mb"] = peak
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "rounds": len(rounds)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to measure (required, except with --setup-probe)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready', tear down (used to time set-up)")
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_probe:
        parser.error("--seconds is required")
    _bootstrap()
    from perfbench.drivers import DRIVERS

    if args.workload not in DRIVERS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(DRIVERS)}")
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    driver = DRIVERS[args.workload](args.seed, workdir)
    try:
        driver.setup()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            from perfbench.layers import UNITS as units
            from perfbench.layers import measure_layers

            out = measure_layers(driver, args.seconds, ROOT / ".perfbench-out")
        else:
            units = UNITS
            out = _measure(driver, args.seconds)
            driver.close()
            setups = [_setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
            out["metrics"]["setup_s"] = statistics.median(setups)
    finally:
        driver.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only once no other run is using it
        except OSError:
            pass
    metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(out["metrics"].items())}
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
