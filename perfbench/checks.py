"""Correctness checks, kept apart from the program.

Each check is a pure function over data the drivers collected: it returns
the problems it found, keyed by operation where an operation is at fault,
so the drivers can count failed operations. The negative controls in
``perfbench/tests`` feed each check a damaged input and expect a problem.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Problems = Dict[object, List[str]]

#: The one problem a clean fault twin is expected to have while the service
#: journal keys requests without their fault fields.
TWIN_MISMATCH = "payload differs from a direct run"


def _add(problems: Problems, op: object, text: str) -> None:
    problems.setdefault(op, []).append(text)


def payload_bytes(payload: Optional[dict]) -> bytes:
    """Canonical bytes of a payload, for byte-equality comparisons."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


# -- sweep-grid --------------------------------------------------------------
def check_grid_pass(
    expected: Sequence[Tuple[float, str, str]],
    journal_cells: Sequence[Tuple[Tuple[float, str, str], dict]],
    reloaded: Mapping[Tuple[float, str, str], Optional[dict]],
    per_mix_ipc: Mapping[Tuple[float, str, str], float],
    switches: Mapping[Tuple[float, str], int],
    benign: Mapping[Tuple[float, str], float],
    solo: Mapping[Tuple[float, str, str], dict],
    width: int,
    max_switches: int,
) -> Problems:
    """One grid pass.

    ``journal_cells`` is every record of the pass's journal file in file
    order, ``reloaded`` the payloads a fresh journal object serves,
    ``per_mix_ipc``/``switches``/``benign`` the sweep's own aggregates and
    ``solo`` the payloads of sampled cells re-run alone. Problems are keyed
    by cell, a stray journaled cell by itself.
    """
    problems: Problems = {}
    wanted = set(expected)
    seen: Dict[Tuple[float, str, str], int] = {}
    for cell, _payload in journal_cells:
        seen[cell] = seen.get(cell, 0) + 1
        if cell not in wanted:
            _add(problems, cell, f"journal holds a cell outside the grid: {cell}")
    for cell in expected:
        if seen.get(cell, 0) != 1:
            _add(problems, cell, f"journaled {seen.get(cell, 0)} times, not once")
        payload = reloaded.get(cell)
        if payload is None:
            _add(problems, cell, "missing after journal reload")
            continue
        if per_mix_ipc.get(cell) != payload.get("ipc"):
            _add(problems, cell, "reloaded ipc differs from the sweep result")
        ipc = payload.get("ipc", 0.0)
        if not (0.0 < ipc <= width):
            _add(problems, cell, f"ipc {ipc} outside (0, {width}]")
        n = payload.get("switches", -1)
        if not (0 <= n <= max_switches):
            _add(problems, cell, f"switches {n} outside [0, {max_switches}]")
        p = payload.get("benign_probability", -1.0)
        if not (0.0 <= p <= 1.0):
            _add(problems, cell, f"benign probability {p} outside [0, 1]")
        if cell in solo and payload_bytes(solo[cell]) != payload_bytes(payload):
            _add(problems, cell, "batch payload differs from its solo run")
    # The sweep's aggregates must follow from the journaled cells.
    mixes = sorted({c[2] for c in expected})
    for m, h in {(c[0], c[1]) for c in expected}:
        cells = [reloaded.get((m, h, mix)) for mix in mixes]
        if any(c is None for c in cells):
            continue
        total = sum(c["switches"] for c in cells)
        weighted = 0.0
        for c in cells:
            weighted += c["benign_probability"] * c["switches"]
        expect_benign = weighted / total if total else 0.0
        if switches.get((m, h)) != total or not math.isclose(
            benign.get((m, h), -1.0), expect_benign, rel_tol=1e-12, abs_tol=1e-12
        ):
            for mix in mixes:
                _add(problems, (m, h, mix), "sweep aggregate disagrees with its cells")
    return problems


# -- policy-cells ------------------------------------------------------------
def check_policy_cell(result: dict, cycles: int, width: int) -> List[str]:
    """One fixed-policy cell: ``result`` has ipc, committed and cycles."""
    out: List[str] = []
    if result["cycles"] != cycles:
        out.append(f"measured {result['cycles']} cycles, expected {cycles}")
    if result["cycles"] <= 0 or result["ipc"] != result["committed"] / result["cycles"]:
        out.append("ipc is not committed / cycles")
    if not (0.0 < result["ipc"] <= width):
        out.append(f"ipc {result['ipc']} outside (0, {width}]")
    return out


def check_policy_rebuild(result: dict, rebuild: dict, again: dict) -> List[str]:
    """A sampled cell rebuilt from scratch twice.

    ``rebuild`` and ``again`` hold the rebuilt machines' ``fingerprint``,
    total ``committed``, ``per_thread`` commits and the measured-window
    ``window`` (ipc, committed, cycles); ``result`` is the timed run's.
    """
    out: List[str] = []
    if rebuild["fingerprint"] != again["fingerprint"]:
        out.append("rebuilt cell has a different fingerprint")
    if sum(rebuild["per_thread"].values()) != rebuild["committed"]:
        out.append("per-thread commits do not sum to the total")
    for field in ("ipc", "committed", "cycles"):
        if rebuild["window"][field] != result[field]:
            out.append(f"rebuilt cell differs from the timed run in {field}")
    return out


# -- serve-open --------------------------------------------------------------
def check_serve_round(
    submitted: Sequence[dict],
    responses: Sequence[dict],
    references: Mapping[str, dict],
) -> Problems:
    """One serve-open round.

    ``submitted`` lists each request as ``{"request_id", "identity"}`` in
    submission order; ``responses`` every response the serving loop handed
    back (``request_id``, ``outcome``, ``tier``, ``payload``);
    ``references`` maps sampled request ids to the payload of the same
    request computed directly. Problems are keyed by request id, a
    response to a request never submitted by its own id.
    """
    problems: Problems = {}
    answers: Dict[str, List[dict]] = {}
    for r in responses:
        answers.setdefault(r["request_id"], []).append(r)
    ids = {s["request_id"] for s in submitted}
    for rid in answers:
        if rid not in ids:
            _add(problems, rid, f"response for a request never submitted: {rid}")
    first_bytes: Dict[str, bytes] = {}
    for s in submitted:
        rid = s["request_id"]
        got = answers.get(rid, [])
        if len(got) != 1:
            _add(problems, rid, f"answered {len(got)} times, not once")
            if not got:
                continue
        r = got[0]
        if r["outcome"] != "full" or r["tier"] != "full" or r["payload"] is None:
            _add(problems, rid, f"not a full-fidelity answer: {r['outcome']}/{r['tier']}")
            continue
        blob = payload_bytes(r["payload"])
        ident = s["identity"]
        if ident in first_bytes and first_bytes[ident] != blob:
            _add(problems, rid, "repeat differs from the first answer for its identity")
        first_bytes.setdefault(ident, blob)
        if rid in references and payload_bytes(references[rid]) != blob:
            _add(problems, rid, TWIN_MISMATCH)
    return problems


# -- tracing -----------------------------------------------------------------
def check_ledger(self_s: Mapping[str, float], wall_s: float, tol_s: float = 1e-6) -> List[str]:
    """Layer self times plus the unattributed remainder must add up to the
    traced wall time, and none may be negative."""
    out: List[str] = []
    negative = sorted(k for k, v in self_s.items() if v < 0)
    if negative:
        out.append(f"negative self time in {negative}")
    gap = abs(sum(self_s.values()) - wall_s)
    if gap > tol_s + 1e-9 * abs(wall_s):
        out.append(f"ledger misses the wall time by {gap:.6f} s")
    return out


def count_failed(problems: Problems, expected: Iterable[object] = ()) -> Tuple[int, bool]:
    """Failed operations, and whether every failure is an expected one.

    Every key of ``problems`` is one failed operation. A failure is
    expected when the operation is listed in ``expected`` and its only
    problem is :data:`TWIN_MISMATCH`.
    """
    allowed = set(expected)
    all_expected = all(op in allowed and all(t == TWIN_MISMATCH for t in texts)
                       for op, texts in problems.items())
    return len(problems), all_expected
