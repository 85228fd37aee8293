import dataclasses

import numpy as np
import pytest

from conftest import run_of
from kbpcheck import dc
from kbpcheck import formula as fm
from kbpcheck import localexpr as le
from kbpcheck.engine import generate_runs
from kbpcheck.model import Point, UsageError
from kbpcheck.refine import (check_candidate,
                             counterexample_from_verdict, diff_candidates,
                             refine_sequence, render_counterexample,
                             render_run_table, synthesize_predicate)


def test_check_candidate_cf1_fails_missing_knowledge(sys_unknown):
    know, t = dc.target_formula("conflict_free", "C1", 1)
    verdict = check_candidate(sys_unknown, dc.builtin_predicate("cf1"), know,
                              "C1", t, slot=1, name="cf1")
    assert not verdict.holds
    assert verdict.counterexample.direction == "knowledge-true-candidate-false"
    # the published witness validates independently: slot_request [3,1,3],
    # reservation results (1,0,0), cf1 false yet the agent knows the body
    run = run_of(sys_unknown, [3, 1, 3], [1, 1, 1])
    from kbpcheck.engine import rr_vector
    assert rr_vector(sys_unknown, run)[:3] == [1, 0, 0]
    cand = le.eval_expr(dc.builtin_predicate("cf1").expr, sys_unknown, "C1", t, slot=1)
    know_vec = fm.Evaluator(sys_unknown).vector(know, t)
    assert not cand[run] and know_vec[run]


def test_check_candidate_cf2_fails_on_silent_observer(sys_unknown):
    know, t = dc.target_formula("conflict_free", "C1", 1)
    verdict = check_candidate(sys_unknown, dc.builtin_predicate("cf2"), know,
                              "C1", t, slot=1, name="cf2")
    assert not verdict.holds
    # the published witness: one agent requests the slot, the evaluating agent
    # requests nothing
    run = run_of(sys_unknown, [0, 0, 1], [0, 0, 0])
    cand = le.eval_expr(dc.builtin_predicate("cf2").expr, sys_unknown, "C1", t, slot=1)
    know_vec = fm.Evaluator(sys_unknown).vector(know, t)
    assert not cand[run] and know_vec[run]


def test_check_candidate_trivial():
    import kbpcheck
    system = generate_runs(dc.build_cdc(dc.DcParams()), dc.unknown_scenario())
    verdict = check_candidate(system, "true", fm.Know("C1", fm.TRUE), "C1", 6)
    assert verdict.holds


def test_refine_sequence_chain(sys_unknown):
    know, t = dc.target_formula("conflict_free", "C1", 1)
    chain = [dc.builtin_predicate(n) for n in ("cf1", "cf2", "cf3")]
    report = refine_sequence(sys_unknown, chain, know, "C1", t, slot=1)
    assert [e.verdict.outcome for e in report.entries] == ["fails", "fails", "holds"]
    assert report.passed
    assert all(e.monotone for e in report.entries[1:])
    # cf3 alone passes
    solo = refine_sequence(sys_unknown, [chain[2]], know, "C1", t, slot=1)
    assert solo.passed and len(solo.entries) == 1


def test_refine_sequence_cf3_all_agents_slots(sys_unknown):
    cf3 = dc.builtin_predicate("cf3")
    for agent in sys_unknown.agents:
        for s in (1, 2, 3):
            know, t = dc.target_formula("conflict_free", agent, s)
            assert check_candidate(sys_unknown, cf3, know, agent, t, slot=s).holds


def test_refine_sequence_directions():
    system = generate_runs(dc.build_cdc(dc.DcParams()), dc.unknown_scenario())
    know = fm.Know("C1", fm.TRUE)
    report = refine_sequence(system, ["false", "true"], know, "C1", 6)
    assert [e.verdict.outcome for e in report.entries] == ["fails", "holds"]
    assert report.entries[0].verdict.counterexample.direction == \
        "knowledge-true-candidate-false"
    assert report.passed


def test_refine_sequence_empty_rejected(sys_unknown):
    with pytest.raises(UsageError):
        refine_sequence(sys_unknown, [], fm.TRUE, "C1", 6)


def test_refine_sequence_monotonicity_warning(sys_unknown):
    know, t = dc.target_formula("conflict_free", "C1", 1)
    report = refine_sequence(sys_unknown, ["rr[1]", "!rr[1]",
                                           dc.builtin_predicate("cf3")],
                             know, "C1", t, slot=1)
    assert report.entries[1].monotone is False
    assert report.passed


def test_refine_kc_with_rebuild(scen_unknown):
    # kc affects behaviour: the system is rebuilt per candidate
    know, t = dc.target_formula("kc", "C1", 1)

    def builder(candidate):
        preds = dict(dc.final_predicates(), kc=_as_pred(candidate))
        return generate_runs(dc.build_cdc(dc.DcParams(), preds), scen_unknown)

    def _as_pred(c):
        return c if hasattr(c, "expr_for") else dc.PredicateDef("cand", "kc", c)

    chain = [dc.PredicateDef("never", "kc", "false"),
             dc.builtin_predicate("kc_guess")]
    report = refine_sequence(builder, chain, know, "C1", t, slot=1)
    assert [e.verdict.outcome for e in report.entries] == ["fails", "holds"]


def test_counterexample_pair_is_verifiable(sys_unknown):
    phi, t = dc.spec("2", "C1", 2)
    verdict = fm.check_valid_at(sys_unknown, phi, t)
    cex = counterexample_from_verdict(sys_unknown, verdict)
    assert cex is not None and len(cex.witnesses) == 2
    primary, other = cex.witnesses
    runs = [run_of(sys_unknown, w.slot_request, w.msg) for w in (primary, other)]
    labels, _ = sys_unknown.partition_labels(cex.agent, t)
    assert labels[runs[0]] == labels[runs[1]]
    body = dc.conflict_macro(2)
    ev = fm.Evaluator(sys_unknown)
    vals = [fm.eval_at(sys_unknown, body, Point(r, t), ev) for r in runs]
    assert vals[0] != vals[1]


def test_render_counterexample_figure_shape(sys_unknown):
    run = run_of(sys_unknown, [2, 2, 2], [1, 1, 1])
    text = render_run_table(sys_unknown, run)
    assert "0 1 0 | 0 1 0" in text
    assert "slot_request = [2, 2, 2], msg = [1, 1, 1]" in text
    phi, t = dc.spec("2", "C1", 2)
    cex = counterexample_from_verdict(sys_unknown, fm.check_valid_at(sys_unknown, phi, t))
    rendered = render_counterexample(cex)
    assert rendered.count("Agent C1") == 2            # two witness tables
    assert "indistinguishable run (agent C1)" in rendered


def test_render_published_rcvd1_witness(sys_unknown):
    run = run_of(sys_unknown, [1, 1, 1], [1, 1, 0])
    text = render_run_table(sys_unknown, run)
    assert "slot_request = [1, 1, 1], msg = [1, 1, 0]" in text
    # all three reserve slot 1; the two true messages cancel in round 4
    assert "rr       | 1 0 0 | 0 0 0" in text


def test_counterexample_json_schema(sys_unknown):
    know, t = dc.target_formula("rcvd1", "C1", 1)
    verdict = check_candidate(sys_unknown, dc.builtin_predicate("rcvd1_g1"),
                              know, "C1", t, slot=1, name="rcvd1_g1")
    payload = verdict.counterexample.to_json()
    assert set(payload) >= {"formula", "time", "witnesses", "direction"}
    w = payload["witnesses"][0]
    assert set(w) == {"slot_request", "msg", "contrib", "rr"}
    assert len(w["contrib"]) == 3 and len(w["contrib"][0]) == 6


def test_synthesize_round_trip_many(sys_unknown, sys_referendum, kbp_systems):
    cases = [
        (sys_unknown, fm.Know("C1", fm.Not(dc.conflict_macro(1))), "C1", 6),
        (sys_unknown, fm.Not(fm.Know("C2", dc.conflict_macro(2))), "C2", 4),
        (sys_unknown, fm.Know("C3", dc.sender_macro("C3", 1, 2)), "C3", 5),
        (sys_referendum, fm.Know("C1", fm.Not(dc.conflict_macro(3))), "C1", 6),
        (kbp_systems["conservative"][1], fm.Know("C1", fm.Not(dc.conflict_macro(1))),
         "C1", 3),
    ]
    for system, phi, agent, time in cases:
        pred = synthesize_predicate(system, phi, agent, time)
        assert check_candidate(system, pred, phi, agent, time).holds


def test_synthesize_figure_block_value(sys_unknown):
    # after seeing reservation results (1,0,0) from slot_request 2, slot 1 is
    # known conflict-free at the end of the run
    pred = synthesize_predicate(sys_unknown, fm.Know("C1", fm.Not(dc.conflict_macro(1))),
                                "C1", 6)
    run = run_of(sys_unknown, [2, 2, 1], [1, 1, 1])
    from kbpcheck.engine import rr_vector
    assert rr_vector(sys_unknown, run)[:3] == [1, 0, 0]
    key = tuple([2, 1] + rr_vector(sys_unknown, run))
    assert pred.mapping[key] is True
    # on the all-collide block, conflict(2) is not known
    pred2 = synthesize_predicate(sys_unknown, fm.Know("C1", dc.conflict_macro(2)), "C1", 6)
    left = run_of(sys_unknown, [2, 2, 2], [1, 1, 1])
    key2 = tuple([2, 1] + rr_vector(sys_unknown, left))
    assert pred2.mapping[key2] is False


def test_synthesize_own_atom_gives_that_atom(sys_unknown):
    pred = synthesize_predicate(sys_unknown, fm.Know("C1", fm.Atom("C1", "msg", "==", 1)),
                                "C1", 6)
    assert pred.sop_text == "msg"
    vec = le.eval_expr(pred.expr_for(), sys_unknown, "C1", 6)
    assert np.array_equal(vec, sys_unknown.column("C1.msg", 0).astype(bool))


def test_synthesized_candidate_is_its_printed_expression(sys_unknown):
    know = fm.Know("C1", fm.Not(dc.conflict_macro(1)))
    pred = synthesize_predicate(sys_unknown, know, "C1", 6)
    assert check_candidate(sys_unknown, pred, know, "C1", 6).holds
    # the check reads the expression, not the table it was printed from
    wrong = dataclasses.replace(pred, sop_text="true")
    verdict = check_candidate(sys_unknown, wrong, know, "C1", 6)
    assert not verdict.holds
    assert verdict.counterexample.direction == "candidate-true-knowledge-false"
    with pytest.raises(UsageError, match="no expression"):
        check_candidate(sys_unknown, dataclasses.replace(pred, sop_text=None),
                        know, "C1", 6)


def test_check_candidate_accepts_per_slot_predicate(kbp_systems):
    from kbpcheck.cli import conservative_kc_predicate
    _, ksys = kbp_systems["conservative"]
    pred = conservative_kc_predicate(dc.unknown_scenario())
    assert isinstance(pred, dc.PerSlotPredicate)
    for s in (1, 2, 3):
        know, t = dc.target_formula("kc", "C1", s, 3, "conservative")
        assert check_candidate(ksys, pred, know, "C1", t, slot=s).holds


def test_candidate_of_unknown_type_rejected(sys_unknown):
    with pytest.raises(UsageError, match="not a candidate predicate"):
        check_candidate(sys_unknown, 42, fm.TRUE, "C1", 6)


def test_synthesize_rejects_non_local_formula(sys_unknown):
    with pytest.raises(UsageError):
        synthesize_predicate(sys_unknown, fm.Atom("C2", "msg", "==", 1), "C1", 6)


def test_synthesized_matches_corrected_rcvd1(sys_unknown):
    know, t = dc.target_formula("rcvd1", "C1", 1)
    pred = synthesize_predicate(sys_unknown, know, "C1", t)
    assert diff_candidates(sys_unknown, pred, dc.builtin_predicate("rcvd1_final"),
                           "C1", t, slot=1) == []
    # and against the first guess the difference is visible
    diffs = diff_candidates(sys_unknown, pred, dc.builtin_predicate("rcvd1_g1"),
                            "C1", t, slot=1)
    assert diffs and diffs == sorted(diffs)


def test_kc_synthesis_is_behavioral_fixpoint(scen_unknown, kbp_systems):
    # rebuild the system with the synthesized kc and re-synthesize: unchanged
    _, ksys = kbp_systems["speculative"]
    tables = {}
    for s in (1, 2, 3):
        know, t = dc.target_formula("kc", "C1", s)
        tables[s] = synthesize_predicate(ksys, know, "C1", t)
    preds = dict(dc.final_predicates(),
                 kc=dc.PerSlotPredicate("kc_synth", "kc",
                                        {s: p.sop_text for s, p in tables.items()}))
    rebuilt = generate_runs(dc.build_cdc(dc.DcParams(), preds), scen_unknown)
    for s in (1, 2, 3):
        know, t = dc.target_formula("kc", "C1", s)
        again = synthesize_predicate(rebuilt, know, "C1", t)
        assert again.mapping == tables[s].mapping
