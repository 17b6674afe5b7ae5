"""Each correctness check must be able to fail.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root. The checks are pure functions, so each test builds a passing input,
confirms the check passes it, damages one thing and expects a problem.
"""

from __future__ import annotations

import copy
import time

import pytest

from perfbench import checks, tracing
from perfbench.inputs import (
    GRID_HEURISTICS,
    GRID_THRESHOLDS,
    SERVE_BURST,
    SERVE_PHASE1,
    SERVE_REPEATS,
    TWIN_SEED_BASE,
    ServeInputs,
)


# -- sweep-grid --------------------------------------------------------------
def _grid():
    mixes = ("mixA", "mixB")
    expected = [(m, h, mix) for m in GRID_THRESHOLDS for h in GRID_HEURISTICS for mix in mixes]
    payloads = {
        cell: {"ipc": 1.0 + i / 100, "switches": i % 3, "benign_probability": 0.5}
        for i, cell in enumerate(expected)
    }
    switches, benign = {}, {}
    for m in GRID_THRESHOLDS:
        for h in GRID_HEURISTICS:
            cells = [payloads[(m, h, mix)] for mix in mixes]
            total = sum(c["switches"] for c in cells)
            weighted = 0.0
            for c in cells:
                weighted += c["benign_probability"] * c["switches"]
            switches[(m, h)] = total
            benign[(m, h)] = weighted / total if total else 0.0
    return dict(
        expected=expected,
        journal_cells=[(c, payloads[c]) for c in expected],
        reloaded=copy.deepcopy(payloads),
        per_mix_ipc={c: p["ipc"] for c, p in payloads.items()},
        switches=switches,
        benign=benign,
        solo={expected[3]: dict(payloads[expected[3]]), expected[7]: dict(payloads[expected[7]])},
        width=8,
        max_switches=5,
    )


def test_grid_pass_accepts_a_clean_pass():
    assert checks.check_grid_pass(**_grid()) == {}


def test_grid_cell_with_a_flipped_field_fails():
    g = _grid()
    cell = g["expected"][3]
    g["reloaded"][cell]["switches"] += 1  # the batch's answer for a solo-checked cell
    problems = checks.check_grid_pass(**g)
    assert cell in problems
    assert "batch payload differs from its solo run" in problems[cell]


def test_grid_cell_journaled_twice_or_missing_fails():
    g = _grid()
    g["journal_cells"].append(g["journal_cells"][0])
    del g["reloaded"][g["expected"][1]]
    problems = checks.check_grid_pass(**g)
    assert "journaled 2 times, not once" in problems[g["expected"][0]]
    assert "missing after journal reload" in problems[g["expected"][1]]


def test_grid_reload_differing_from_the_sweep_fails():
    g = _grid()
    cell = g["expected"][10]
    g["per_mix_ipc"][cell] += 1e-9
    assert "reloaded ipc differs from the sweep result" in checks.check_grid_pass(**g)[cell]


def test_grid_journal_cell_outside_the_grid_fails():
    g = _grid()
    stray = (9.0, "type1", "mixA")
    g["journal_cells"].append((stray, {"ipc": 1.0, "switches": 0, "benign_probability": 0.0}))
    problems = checks.check_grid_pass(**g)
    assert list(problems) == [stray]
    assert checks.count_failed(problems) == (1, False)


@pytest.mark.parametrize("field,value", [("ipc", 0.0), ("ipc", 9.0), ("switches", 6),
                                         ("benign_probability", 1.5)])
def test_grid_cell_outside_its_bounds_fails(field, value):
    g = _grid()
    cell = g["expected"][20]
    g["reloaded"][cell][field] = value
    if field == "ipc":
        g["per_mix_ipc"][cell] = value
    assert cell in checks.check_grid_pass(**g)


# -- policy-cells ------------------------------------------------------------
def _cell():
    return {"ipc": 3000 / 2048, "committed": 3000, "cycles": 2048}


def test_policy_cell_checks():
    assert checks.check_policy_cell(_cell(), cycles=2048, width=8) == []
    bad = dict(_cell(), ipc=1.5)
    assert "ipc is not committed / cycles" in checks.check_policy_cell(bad, 2048, 8)
    assert checks.check_policy_cell(_cell(), cycles=4096, width=8)


def test_policy_rebuild_checks():
    result = _cell()
    rebuild = {"fingerprint": "abc", "committed": 4000, "per_thread": {0: 2500, 1: 1500},
               "window": dict(result)}
    assert checks.check_policy_rebuild(result, rebuild, copy.deepcopy(rebuild)) == []
    other = dict(copy.deepcopy(rebuild), fingerprint="abd")
    assert checks.check_policy_rebuild(result, rebuild, other)
    lost = copy.deepcopy(rebuild)
    lost["per_thread"][1] -= 1
    assert "per-thread commits do not sum to the total" in checks.check_policy_rebuild(
        result, lost, lost)
    assert checks.check_policy_rebuild(dict(result, committed=2999), rebuild, rebuild)


# -- serve-open --------------------------------------------------------------
def _serve():
    submitted = [{"request_id": f"r{i}", "identity": f"id{i % 4}"} for i in range(6)]
    payload = {i: {"ipc": 1.0 + i, "switches": i, "benign_probability": 0.0} for i in range(4)}
    responses = [{"request_id": f"r{i}", "outcome": "full", "tier": "full",
                  "payload": dict(payload[i % 4])} for i in range(6)]
    references = {"r0": dict(payload[0]), "r2": dict(payload[2]), "r5": dict(payload[1])}
    return submitted, responses, references


def test_serve_round_accepts_a_clean_round():
    assert checks.check_serve_round(*_serve()) == {}


def test_perturbed_served_payload_fails():
    submitted, responses, references = _serve()
    responses[2]["payload"]["ipc"] += 1e-12
    problems = checks.check_serve_round(submitted, responses, references)
    assert problems == {"r2": [checks.TWIN_MISMATCH]}


def test_dropped_response_fails():
    submitted, responses, references = _serve()
    del responses[3]
    assert "answered 0 times, not once" in checks.check_serve_round(
        submitted, responses, references)["r3"]


def test_duplicated_or_unknown_response_fails():
    submitted, responses, references = _serve()
    responses.append(dict(responses[1]))
    responses.append(dict(responses[1], request_id="stranger"))
    problems = checks.check_serve_round(submitted, responses, references)
    assert "answered 2 times, not once" in problems["r1"]
    assert "response for a request never submitted: stranger" in problems["stranger"]
    assert checks.count_failed(problems) == (2, False)


def test_store_hit_differing_from_the_first_answer_fails():
    submitted, responses, references = _serve()
    responses[4]["payload"]["switches"] += 1  # r4 repeats identity id0 of r0
    assert "repeat differs from the first answer for its identity" in checks.check_serve_round(
        submitted, responses, references)["r4"]


def test_degraded_answer_fails():
    submitted, responses, references = _serve()
    responses[1].update(outcome="degraded", tier="fast")
    assert "r1" in checks.check_serve_round(submitted, responses, references)


def test_only_clean_twin_mismatches_are_expected_failures():
    problems = {"twin": [checks.TWIN_MISMATCH]}
    assert checks.count_failed(problems, ["twin"]) == (1, True)
    assert checks.count_failed(problems, []) == (1, False)
    assert checks.count_failed({"twin": [checks.TWIN_MISMATCH, "answered 2 times"]},
                               ["twin"]) == (1, False)
    assert checks.count_failed({"stray": ["never submitted"]}, []) == (1, False)


# -- tracing -----------------------------------------------------------------
def _traced_ledger():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.002)

    leaf_w = tracing._hot(tracer, "leaf", "leaf", leaf)

    def outer_body():
        leaf_w()
        time.sleep(0.001)

    outer_w = tracing._spanned(tracer, "outer", "outer", outer_body)
    tracer.start()
    outer_w()
    outer_w()
    tracer.stop()
    return tracer


def test_traced_ledger_adds_up():
    tracer = _traced_ledger()
    snap = tracer.snapshot()
    assert checks.check_ledger(snap["self_s"], snap["wall_s"]) == []
    assert snap["self_s"]["leaf"] >= 0.004
    assert snap["calls"] == {"outer": 2, "leaf": 2}
    assert [s[1] for s in snap["spans"]] == [None, None]  # two top-level spans


def test_traced_ledger_that_does_not_add_up_fails():
    snap = _traced_ledger().snapshot()
    short = dict(snap["self_s"], leaf=snap["self_s"]["leaf"] - 0.001)
    assert checks.check_ledger(short, snap["wall_s"])
    negative = dict(snap["self_s"], ghost=-0.5, leaf=snap["self_s"]["leaf"] + 0.5)
    assert checks.check_ledger(negative, snap["wall_s"])


# -- inputs ------------------------------------------------------------------
def test_serve_inputs_repeat_per_seed_and_keep_twins_apart():
    a, b = ServeInputs(7), ServeInputs(7)
    for index in range(3):
        sa, ba = a.round(index)
        sb, bb = b.round(index)
        assert [(t.at_s, t.fields, t.kind) for t in sa] == [(t.at_s, t.fields, t.kind) for t in sb]
        assert ba == bb
        assert len(sa) == SERVE_PHASE1 and len(ba) == SERVE_BURST
        twins = [t for t in sa if t.kind.startswith("twin")]
        assert [t.kind for t in twins] == ["twin-faulted", "twin-clean"]
        assert all(t.fields["seed"] == TWIN_SEED_BASE + index for t in twins)
        others = [t.fields for t in sa if not t.kind.startswith("twin")] + ba
        assert all(f["seed"] < TWIN_SEED_BASE for f in others)
        assert len({(f["mix"], f["seed"]) for f in ba}) == 1
        assert sum(t.kind == "repeat" for t in sa) == SERVE_REPEATS
        assert ba[0]["mix"] == ServeInputs(8).round(index)[1][0]["mix"]
    assert ServeInputs(8).round(0)[0][5].fields != ServeInputs(7).round(0)[0][5].fields
    gaps = [[round(b - a, 12) for a, b in zip([0.0] + [t.at_s for t in s], [t.at_s for t in s])]
            for s in (ServeInputs(7).round(0)[0], ServeInputs(8).round(1)[0])]
    assert gaps[0] == gaps[1]
