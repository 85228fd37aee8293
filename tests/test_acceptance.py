"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value here is either a published constant or derived
from the independent brute-force oracle in brute.py.
"""

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

import brute
from conftest import run_of
from kbpcheck import dc
from kbpcheck import formula as fm
from kbpcheck.cli import conservative_kc_predicate
from kbpcheck.engine import generate_runs, rr_vector, verify_kbp_fixpoint
from kbpcheck.model import Point
from kbpcheck.reduction import engines_agree, random_formulas
from kbpcheck.localexpr import eval_expr
from kbpcheck.refine import (check_candidate, diff_candidates, refine_sequence,
                             synthesize_predicate)

GOLDEN = Path(__file__).parent / "golden"

EXAMPLE_LEFT = ((2, 2, 2), (1, 1, 1))
EXAMPLE_RIGHT = ((2, 0, 0), (1, 1, 1))
FIGURE_RR = [0, 1, 0, 0, 1, 0]


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS — {text}")


def test_c01_spec_1s_holds_everywhere(sys_unknown):
    started = time.perf_counter()
    ev = fm.Evaluator(sys_unknown)
    for agent in sys_unknown.agents:
        for slot in (1, 2, 3):
            phi, t = dc.spec("1s", agent, slot)
            assert t == slot + 2
            verdict = fm.check_valid_at(sys_unknown, phi, t, ev)
            assert verdict.holds, (agent, slot)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"spec 1s holds at all pre-transmission points, 9 instances in {elapsed:.3f}s")


def test_c02_spec_2_fails_with_validated_pair(sys_unknown):
    phi, t = dc.spec("2", "C1", 2)
    assert not fm.check_valid_at(sys_unknown, phi, t).holds
    left = run_of(sys_unknown, *EXAMPLE_LEFT)
    right = run_of(sys_unknown, *EXAMPLE_RIGHT)
    # exact round-result vectors
    assert rr_vector(sys_unknown, left) == FIGURE_RR
    assert rr_vector(sys_unknown, right) == FIGURE_RR
    # same C1 block at every time
    for u in range(7):
        labels, _ = sys_unknown.partition_labels("C1", u)
        assert labels[left] == labels[right]
    # the pair disagrees on the conflict body, so it witnesses the failure
    conflict2 = dc.conflict_macro(2)
    ev = fm.Evaluator(sys_unknown)
    assert fm.eval_at(sys_unknown, conflict2, Point(left, 6), ev)
    assert not fm.eval_at(sys_unknown, conflict2, Point(right, 6), ev)
    assert not fm.eval_at(sys_unknown, phi, Point(left, 6), ev)
    report(2, "spec 2 fails; the published indistinguishable pair validates exactly")


def test_c03_spec_3_fails_at_example_run(sys_unknown):
    phi, t = dc.spec("3", "C1", 2)
    verdict = fm.check_valid_at(sys_unknown, phi, t)
    assert not verdict.holds
    left = run_of(sys_unknown, *EXAMPLE_LEFT)
    assert not fm.eval_at(sys_unknown, phi, Point(left, t))
    report(3, "spec 3 fails, falsified at the all-collide example run")


def test_c04_refinement_chain(sys_unknown):
    know, t = dc.target_formula("conflict_free", "C1", 1)
    chain = [dc.builtin_predicate(n) for n in ("cf1", "cf2", "cf3")]
    rep = refine_sequence(sys_unknown, chain, know, "C1", t, slot=1)
    assert [e.verdict.outcome for e in rep.entries] == ["fails", "fails", "holds"]
    assert rep.entries[0].verdict.counterexample.direction == \
        "knowledge-true-candidate-false"
    ev = fm.Evaluator(sys_unknown)
    know_vec = ev.vector(know, t)
    # published cf1 witness: slot_request [3,1,3], reservation results (1,0,0)
    w1 = run_of(sys_unknown, [3, 1, 3], [1, 1, 1])
    assert rr_vector(sys_unknown, w1)[:3] == [1, 0, 0]
    cf1 = eval_expr(chain[0].expr, sys_unknown, "C1", t, slot=1)
    assert not cf1[w1] and know_vec[w1]
    # published cf2 witness: one agent requests the slot, the evaluator none
    w2 = run_of(sys_unknown, [0, 0, 1], [0, 0, 0])
    cf2 = eval_expr(chain[1].expr, sys_unknown, "C1", t, slot=1)
    assert not cf2[w2] and know_vec[w2]
    report(4, "cf chain fails/fails/holds; both published witnesses validate")


def test_c05_rcvd_first_guess_fails_and_corrected_holds(sys_unknown):
    ev = fm.Evaluator(sys_unknown)
    know, t = dc.target_formula("rcvd1", "C1", 1)
    g1 = check_candidate(sys_unknown, dc.builtin_predicate("rcvd1_g1"), know,
                         "C1", t, slot=1, name="rcvd1_g1")
    assert not g1.holds
    # published witness: all reserve slot 1, messages (1,1,0)
    w = run_of(sys_unknown, [1, 1, 1], [1, 1, 0])
    g1_vec = eval_expr(dc.builtin_predicate("rcvd1_g1").expr, sys_unknown, "C1", t, slot=1)
    know_vec = ev.vector(know, t)
    assert not g1_vec[w] and know_vec[w]
    # corrected finals make specs 4a and 4b hold everywhere
    for sid in ("4a", "4b"):
        for agent, slot in dc.spec_instances(sid):
            phi, tt = dc.spec(sid, agent, slot)
            assert fm.check_valid_at(sys_unknown, phi, tt, ev).holds, (sid, agent, slot)
    # and the corrected rcvd1 is exactly the synthesized predicate
    for slot in (1, 2, 3):
        know_s, ts = dc.target_formula("rcvd1", "C1", slot)
        synth = synthesize_predicate(sys_unknown, know_s, "C1", ts)
        assert check_candidate(sys_unknown, synth, know_s, "C1", ts).holds
        assert diff_candidates(sys_unknown, synth, dc.builtin_predicate("rcvd1_final"),
                               "C1", ts, slot=slot) == []
    report(5, "rcvd1 first guess fails (published witness validates); corrected "
              "finals hold and equal the synthesized predicates")


def test_c06_delivery_and_anonymity(sys_unknown):
    started = time.perf_counter()
    ev = fm.Evaluator(sys_unknown)
    for sid in ("5", "6"):
        for agent, slot in dc.spec_instances(sid):
            phi, t = dc.spec(sid, agent, slot)
            assert fm.check_valid_at(sys_unknown, phi, t, ev).holds, (sid, agent)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(6, f"spec 5 (nested knowledge) and spec 6 (anonymity) hold in {elapsed:.2f}s")


def test_c07_engine_equivalence_oracle(model2, scen2):
    started = time.perf_counter()
    suite = []
    for sid in dc.SPEC_IDS:
        if sid == "1c":
            continue
        for agent, slot in dc.spec_instances(sid, slots=2):
            phi, _ = dc.spec(sid, agent, slot, slots=2)
            suite.append((f"spec-{sid}-{agent}-{slot or 0}", phi))
    naive = generate_runs(model2, scen2, "naive")
    assert naive.n_runs == 884_736
    rep = engines_agree(model2, scen2, suite, seed=20250810, n_random=200,
                        naive=naive)
    elapsed = time.perf_counter() - started
    assert rep.ok, rep.mismatches[:3]
    assert rep.formulas == len(suite) + 200
    assert elapsed < 60.0
    report(7, f"naive ({naive.n_runs:,} runs) and reduced engines agree on "
              f"{rep.checks} checks / {rep.points_compared:,} points in {elapsed:.1f}s")


def test_c08_kbp_fixpoint(kbp_systems, sys_unknown):
    model, ksys = kbp_systems["speculative"]
    assert ksys.n_runs == 512
    for agent in sys_unknown.agents:
        assert np.array_equal(ksys.meta["contrib"][agent],
                              sys_unknown.meta["contrib"][agent])
    assert verify_kbp_fixpoint(ksys, model)
    report(8, "knowledge-based execution reproduces the candidate behaviour "
              "on all 512 assignments and re-checks as a fixpoint")


def test_c09_conservative_and_referendum_goldens(scen_unknown, kbp_systems, sys_referendum):
    # conservative: synthesized kc, spec 1c round-trip, against the golden file
    golden = json.loads((GOLDEN / "conservative_kc.json").read_text())
    _, ksys = kbp_systems["conservative"]
    for s in (1, 2, 3):
        know, t = dc.target_formula("kc", "C1", s, mode="conservative")
        synth = synthesize_predicate(ksys, know, "C1", t)
        assert synth.to_json()["table"] == golden["synthesized_kc"][str(s)]["table"]
        assert synth.sop_text == golden["synthesized_kc"][str(s)]["expr"]
    pred = conservative_kc_predicate(scen_unknown)
    cmodel = dc.build_cdc(dc.DcParams(mode="conservative"),
                          dict(dc.final_predicates(), kc=pred))
    csys = generate_runs(cmodel, scen_unknown, "reduced")
    for agent, slot in dc.spec_instances("1c"):
        phi, t = dc.spec("1c", agent, slot)
        verdict = fm.check_valid_at(csys, phi, t)
        assert verdict.holds
        assert golden["spec_1c"][f"{agent}/{slot}"] == "holds"
    # referendum: specs 2..6 verdicts match the committed derivation
    golden_ref = json.loads((GOLDEN / "referendum_specs.json").read_text())
    for sid in ("2", "3", "4a", "4b", "5", "6"):
        for agent, slot in dc.spec_instances(sid):
            phi, t = dc.spec(sid, agent, slot)
            verdict = fm.check_valid_at(sys_referendum, phi, t)
            key = agent if slot is None else f"{agent}/{slot}"
            assert golden_ref["specs"][sid]["instances"][key] == verdict.outcome
    report(9, "conservative kc synthesis round-trips (spec 1c holds) and the "
              "referendum verdicts match the committed goldens")


def test_c10_property_suites(sys_unknown, naive2):
    rng = random.Random(20250810)
    # S5 truth and positive introspection on 1,000 seeded samples
    samples = 0
    ev = fm.Evaluator(sys_unknown)
    for name, phi in random_formulas(sys_unknown, seed=20250810, count=200):
        horizon = sys_unknown.horizon - fm.x_depth(phi)
        agent = rng.choice(sys_unknown.agents)
        know = fm.Know(agent, phi)
        for _ in range(5):
            t = rng.randint(0, horizon)
            run = rng.randrange(sys_unknown.n_runs)
            k_vec = ev.vector(know, t)
            if k_vec[run]:
                assert ev.vector(phi, t)[run]                 # K phi -> phi
            assert bool(k_vec[run]) == bool(ev.vector(fm.Know(agent, know), t)[run])
            samples += 1
    assert samples == 1000
    # perfect-recall refinement on both systems, every agent, every step
    for system in (sys_unknown, naive2):
        for agent in system.agents:
            for t in range(1, system.horizon + 1):
                prev, _ = system.partition_labels(agent, t - 1)
                cur, n_blocks = system.partition_labels(agent, t)
                pairs = (cur.astype(np.int64) << 32) | prev.astype(np.int64)
                assert len(np.unique(pairs)) == n_blocks
    # key cancellation on every naive-engine run
    for t in range(1, naive2.horizon + 1):
        rr = naive2.column(f"rr[{t}]", naive2.horizon).astype(bool)
        xor = np.zeros(naive2.n_runs, dtype=bool)
        for agent in naive2.agents:
            xor ^= naive2.widen(naive2.meta["contrib"][agent][t]).astype(bool)
        assert np.array_equal(rr, xor)
    report(10, "S5 truth + introspection on 1,000 samples, partition refinement, "
               "and key cancellation on all 884,736 naive runs: zero violations")
