#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of the same tree.

    python3 perfbench/steady.py --runs 10 [--seed-base 1000] [--out steady.json]

Every run measures for ``run_seconds`` of ``BENCHMARK.json``, the length
the bounds were set from. Run ``i`` of set A and run ``i`` of set B follow
each other for every workload, with the set that goes first alternating,
and every run gets a seed of its own. For each workload and end-to-end metric the report gives
each set's median, first and third quartile and spread (the distance
between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them), and how far set B's
median moved from set A's. Against the bounds in ``BENCHMARK.json`` a
metric is ``ok`` when both spreads are within its bound and the move is
not a worsening beyond the bound; ``steady`` when the spreads are also
below a third of the bound. The failed share of
attempted operations must be the same in both sets.

Exit status: 0 when every metric is ok and failed shares agree, else 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(command: list, workload: str, seed: int, seconds: int) -> dict:
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    result["seed"] = seed
    return result


def summarize(values):
    """Median, quartiles and quartile spread as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def judge(metric: dict, a: dict, b: dict) -> dict:
    """Compare two sets of one metric against its bound."""
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = sign * (b["median"] - a["median"]) / a["median"]
    return {
        "bound": bound,
        "worsening": worse,
        "ok": max(a["spread"], b["spread"]) <= bound and worse <= bound,
        "steady": max(a["spread"], b["spread"]) < bound / 3 and worse <= bound,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--out", default=None, help="write the full report here")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for side in order:
                seed = args.seed_base + 2 * i + (side == "B")
                r = _run(spec["command"], w, seed, spec["run_seconds"])
                runs[w][side].append(r)
                print(f"{w} set {side} run {i} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                      + f" ({r['elapsed_s']:.0f}s, failed {r['failed']}/{r['attempted']})",
                      file=sys.stderr, flush=True)
    report = {}
    all_ok = True
    for w in workloads:
        rows = {}
        shares = {s: {r["failed"] / r["attempted"] for r in runs[w][s]} for s in ("A", "B")}
        share_ok = len(shares["A"] | shares["B"]) == 1
        all_ok = all_ok and share_ok
        for metric in spec["end_to_end"]:
            a = summarize([r["metrics"][metric["name"]]["value"] for r in runs[w]["A"]])
            b = summarize([r["metrics"][metric["name"]]["value"] for r in runs[w]["B"]])
            verdict = judge(metric, a, b)
            all_ok = all_ok and verdict["ok"]
            rows[metric["name"]] = {"A": a, "B": b, **verdict}
        report[w] = {"metrics": rows, "failed_share": sorted(shares["A"] | shares["B"]),
                     "failed_share_same": share_ok,
                     "elapsed_s": [r["elapsed_s"] for s in ("A", "B") for r in runs[w][s]]}
        print(f"\n{w}: failed share {sorted(shares['A'] | shares['B'])}"
              f" ({'same' if share_ok else 'DIFFERS'} in both sets)")
        print(f"  {'metric':16s} {'median A':>10s} {'median B':>10s} {'spread A':>9s} "
              f"{'spread B':>9s} {'worse':>7s} {'bound':>6s}  verdict")
        for name, row in rows.items():
            verdict = "steady" if row["steady"] else ("ok" if row["ok"] else "FAIL")
            print(f"  {name:16s} {row['A']['median']:10.4g} {row['B']['median']:10.4g} "
                  f"{row['A']['spread']:9.3f} {row['B']['spread']:9.3f} "
                  f"{row['worsening']:7.3f} {row['bound']:6.2f}  {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
