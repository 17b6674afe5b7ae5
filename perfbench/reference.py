#!/usr/bin/env python3
"""Recompute reference payloads from scratch, apart from any timed run.

    python3 perfbench/reference.py --workload sweep-grid --seed 7 --round 2 [--op 2.0/type3/mix05]
    python3 perfbench/reference.py --workload policy-cells --seed 7 --round 1 [--op mix07/icount]
    python3 perfbench/reference.py --workload serve-open --seed 7 --round 0 [--op r000-p032]

Run it from the repository root. It regenerates the round's inputs from
the seed, computes each operation's payload in this process with
``run_adts`` or ``run_fixed`` (no batch engine, no service, no cache), and
prints one JSON line per operation: its id, its inputs and its payload.
Without ``--op`` it covers the whole round.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--op", default=None)
    args = parser.parse_args(argv)
    sys.path[0] = str(ROOT / "src")
    sys.path.insert(1, str(ROOT))
    from perfbench.drivers import DRIVERS
    from perfbench.inputs import GRID_CELL, grid_seed, policy_seed

    driver = DRIVERS[args.workload](args.seed, ROOT / ".perfbench-work")
    driver.imports()
    ops = []
    if args.workload == "sweep-grid":
        base = driver.RunConfig(seed=grid_seed(args.seed, args.round), **GRID_CELL)
        for cell in driver.expected():
            op = "/".join(map(str, cell))
            ops.append((op, dict(cell=cell, seed=base.seed, **GRID_CELL),
                        lambda cell=cell: driver.solo(base, cell)))
    elif args.workload == "policy-cells":
        seed = policy_seed(args.seed, args.round)
        for mix, policy in driver.cells:
            cfg = driver.config(mix, policy, seed)
            ops.append((f"{mix}/{policy}", dict(mix=mix, policy=policy, seed=seed),
                        lambda cfg=cfg: driver.answer(driver.runner.run_fixed(cfg))))
    else:
        schedule, burst = driver.inputs.round(args.round)
        for fields in [t.fields for t in schedule] + burst:
            ops.append((fields["request_id"], fields, lambda f=fields: driver.direct(f)))
    if args.op is not None:
        ops = [o for o in ops if o[0] == args.op]
        if not ops:
            parser.error(f"no operation {args.op!r} in that round")
    for op, inputs, compute in ops:
        print(json.dumps({"op": op, "inputs": inputs, "payload": compute()}, default=list))
    return 0


if __name__ == "__main__":
    sys.exit(main())
