"""Seeded inputs for the three workloads.

Everything the program receives is generated here from the benchmark seed
and the round index, so the same ``--seed`` always yields the same inputs.
Nothing in this module imports ``repro``: inputs are plain tuples and
dicts, turned into program objects by the drivers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

# -- sweep-grid: the Fig. 7/8 threshold x heuristic grid ---------------------
GRID_THRESHOLDS = (1.0, 2.0, 3.0, 4.0, 5.0)
GRID_HEURISTICS = ("type1", "type2", "type3", "type3g", "type4")
GRID_MIXES = ("mix05", "mix10")  # balanced; memory-bound homogeneous
GRID_BATCH = 50  # the whole grid in one lockstep pass
GRID_CELL = dict(num_threads=8, quantum_cycles=512, quanta=4, warmup_quanta=1)

# -- policy-cells: the ten Table 1 fixed fetch policies ----------------------
POLICY_MIXES = ("mix07", "mix03")  # control-intensive; memory-bound
POLICY_CELL = dict(num_threads=8, quantum_cycles=512, quanta=4, warmup_quanta=1)

# -- serve-open: open-loop phase plus a burst --------------------------------
SERVE_MIXES = ("mix01", "mix02", "mix03", "mix05", "mix07", "mix10")
SERVE_SEEDS = 4  # simulation seeds 0..3, so mixes repeat and traces replay
SERVE_REQUEST = dict(num_threads=4, quantum_cycles=512, quanta=2, warmup_quanta=1)
SERVE_RATE = 3.0  # phase-1 arrivals per second (exponential gaps)
SERVE_PHASE1 = 36  # phase-1 requests per round
SERVE_REPEATS = 7  # phase-1 requests per round that repeat an earlier identity
SERVE_REPEAT_GAP = 8  # a repeat copies an identity at least this many misses back
SERVE_REPEAT_FIRST = 12  # no repeat before this slot, so round 0 has enough misses
SERVE_BURST = 12  # phase-2 requests per round, all submitted at once
# One fault twin pair per round. Twins use simulation seeds far outside
# SERVE_SEEDS and a mix of their own seed range, so their identities are used
# nowhere else, and they do not depend on the benchmark seed.
TWIN_SEED_BASE = 100_000
TWIN_FAULTED_SLOT = 1
TWIN_CLEAN_SLOT = SERVE_PHASE1 - 4
TWIN_REQUEST = dict(mix="mix05", heuristic="type3", threshold=2.0)


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    """The generator for one round: a pure function of its three arguments."""
    return random.Random(f"{workload}:{seed}:{index}")


def grid_seed(seed: int, index: int) -> int:
    """Simulation seed of grid pass ``index``."""
    return round_rng("sweep-grid", seed, index).randrange(1 << 20)


def policy_seed(seed: int, index: int) -> int:
    """Simulation seed of policy-cells round ``index``."""
    return round_rng("policy-cells", seed, index).randrange(1 << 20)


def policy_cells(policies: List[str]) -> List[Tuple[str, str]]:
    """One round's cells, in run order: every policy on every mix."""
    return [(mix, policy) for mix in POLICY_MIXES for policy in policies]


@dataclass(frozen=True)
class Timed:
    """One phase-1 request: its arrival offset and its request fields."""

    at_s: float
    fields: Dict
    kind: str  # "miss" | "repeat" | "twin-faulted" | "twin-clean"


def _identity_pool(rng: random.Random) -> List[Tuple[str, int, str, float]]:
    """Every identity once, in a seeded order in which each run of six
    consecutive identities holds every mix once, so every round's misses
    have nearly the same mix make-up."""
    per_mix = []
    for mix in SERVE_MIXES:
        idents = [(mix, seed, h, t) for seed in range(SERVE_SEEDS)
                  for h in GRID_HEURISTICS for t in GRID_THRESHOLDS]
        rng.shuffle(idents)
        per_mix.append(idents)
    pool = []
    for block in zip(*per_mix):
        block = list(block)
        rng.shuffle(block)
        pool += block
    return pool


def _arrivals() -> List[float]:
    """Phase-1 arrival offsets, the same in every round and for every seed:
    exponential gaps at ``SERVE_RATE`` taken at evenly spaced quantiles, in
    an order drawn once. Queueing then has the same shape in every run, and
    the latency percentiles move only with the program's speed."""
    gaps = [-math.log(1.0 - (i + 0.5) / SERVE_PHASE1) / SERVE_RATE
            for i in range(SERVE_PHASE1)]
    random.Random("serve-open:arrivals").shuffle(gaps)
    out, at = [], 0.0
    for gap in gaps:
        at += gap
        out.append(at)
    return out


class ServeInputs:
    """Phase-1 schedules and phase-2 bursts for successive serve-open rounds.

    Identities of misses are drawn without replacement across the whole
    run, so a miss is never answered from the store; a repeat copies an
    identity issued at least ``SERVE_REPEAT_GAP`` misses earlier, so by the
    time it arrives that identity has long been answered. Round ``i``'s
    burst uses mix ``SERVE_MIXES[i % 6]``, so runs of the same length
    burst on the same mixes whatever the seed.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._pool = _identity_pool(random.Random(f"serve-open:{seed}:pool"))
        self._issued: List[Dict] = []  # every miss so far, in order
        self._rounds: List[Tuple[List[Timed], List[Dict]]] = []

    def _take(self) -> Tuple[str, int, str, float]:
        if not self._pool:
            raise RuntimeError("serve-open identity pool exhausted")
        return self._pool.pop(0)

    def round(self, index: int) -> Tuple[List[Timed], List[Dict]]:
        """Phase-1 schedule and phase-2 burst of round ``index``.

        Rounds draw on one identity pool, so they are generated in order
        and kept: round ``index`` is the same however it is first asked for.
        """
        while len(self._rounds) <= index:
            self._rounds.append(self._generate(len(self._rounds)))
        return self._rounds[index]

    def _generate(self, index: int) -> Tuple[List[Timed], List[Dict]]:
        rng = round_rng("serve-open", self.seed, index)
        prefix = f"r{index:03d}"
        schedule: List[Timed] = []
        arrivals = _arrivals()
        twins = (TWIN_FAULTED_SLOT, TWIN_CLEAN_SLOT)
        repeats = set(rng.sample([s for s in range(SERVE_REPEAT_FIRST, SERVE_PHASE1)
                                  if s not in twins], SERVE_REPEATS))
        for slot, at in enumerate(arrivals):
            rid = f"{prefix}-p{slot:03d}"
            base = dict(request_id=rid, client=f"{rid}-client", degradable=False,
                        **SERVE_REQUEST)
            if slot in twins:
                faulted = slot == TWIN_FAULTED_SLOT
                fields = dict(base, seed=TWIN_SEED_BASE + index, **TWIN_REQUEST)
                if faulted:
                    fields["fault_kinds"] = ("policy",)
                kind = "twin-faulted" if faulted else "twin-clean"
                schedule.append(Timed(at, fields, kind))
                continue
            if slot in repeats:
                src = self._issued[rng.randrange(len(self._issued) - SERVE_REPEAT_GAP)]
                fields = dict(base, **{k: src[k] for k in ("mix", "seed", "heuristic", "threshold")})
                schedule.append(Timed(at, fields, "repeat"))
                continue
            mix, seed, h, t = self._take()
            fields = dict(base, mix=mix, seed=seed, heuristic=h, threshold=t)
            self._issued.append(fields)
            schedule.append(Timed(at, fields, "miss"))
        # Phase 2: one mix and seed, distinct (heuristic, threshold) pairs.
        burst_mix = SERVE_MIXES[index % len(SERVE_MIXES)]
        groups: Dict[Tuple[str, int], list] = {}
        for ident in self._pool:
            if ident[0] == burst_mix:
                groups.setdefault(ident[:2], []).append(ident)
        eligible = sorted(k for k, v in groups.items() if len(v) >= SERVE_BURST)
        if not eligible:
            raise RuntimeError("serve-open burst pool exhausted")
        mix, seed = eligible[rng.randrange(len(eligible))]
        unused = sorted(groups[(mix, seed)])
        rng.shuffle(unused)
        burst: List[Dict] = []
        for n, ident in enumerate(unused[:SERVE_BURST]):
            self._pool.remove(ident)
            _, _, h, t = ident
            rid = f"{prefix}-b{n:03d}"
            fields = dict(request_id=rid, client=f"{rid}-client", degradable=False,
                          mix=mix, seed=seed, heuristic=h, threshold=t, **SERVE_REQUEST)
            self._issued.append(fields)
            burst.append(fields)
        return schedule, burst
