import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from conftest import run_of
from kbpcheck import dc, engine, reduction
from kbpcheck import formula as fm
from kbpcheck.model import Point, UsageError
from kbpcheck.reduction import random_formulas


def parse(text, system=None):
    return fm.parse_formula(text, model=system, macros=dc.dc_macros())


def test_parse_true_and_constants():
    assert parse("true") == fm.TRUE
    assert parse("false") == fm.FALSE


def test_parse_conflict_macro_shape():
    phi = parse("K[C1](conflict(2))")
    assert isinstance(phi, fm.Know) and phi.agent == "C1"
    atoms = list(fm.atoms_of(phi))
    assert len(atoms) == 6   # three unordered pairs, two atoms each
    assert all(a.var == "slot_request" and a.value == 2 for a in atoms)


def test_parse_khat_expands_to_disjunction_of_knows():
    phi = parse("Khat[C1](C2.msg)")
    expected = fm.Or(fm.Know("C1", fm.Atom("C2", "msg", "==", 1)),
                     fm.Know("C1", fm.Atom("C2", "msg", "==", 0)))
    assert phi == expected


def test_parse_precedence_and_associativity():
    a, b, c = (fm.Atom(None, f"rr[{u}]", "==", 1) for u in (1, 2, 3))
    assert parse("RR[1] && RR[2] || RR[3]") == fm.Or(fm.And(a, b), c)
    assert parse("!RR[1] && RR[2]") == fm.And(fm.Not(a), b)
    assert parse("RR[1] => RR[2] <=> RR[3]") == fm.Iff(fm.Implies(a, b), c)
    assert parse("X RR[1] && RR[2]") == fm.And(fm.Next(a), b)


def test_parse_errors():
    for bad in ("K[C1](", "RR[1] &&", "Khat[C1](conflict(1))", "1 == 1",
                "unknownmacro(1)", "K[]"):
        with pytest.raises(UsageError):
            parse(bad)


def test_parse_validation_against_model(sys_unknown):
    with pytest.raises(UsageError):
        parse("C9.msg == 1", sys_unknown)
    with pytest.raises(UsageError):
        parse("C1.bogus == 1", sys_unknown)
    with pytest.raises(UsageError):
        parse("C1.slot_request == 9", sys_unknown)
    assert parse("C1.slot_request == 3", sys_unknown) == \
        fm.Atom("C1", "slot_request", "==", 3)


def _ast_strategy():
    atoms = st.sampled_from([
        fm.Atom(None, "rr[1]", "==", 1), fm.Atom("C1", "msg", "!=", 0),
        fm.Atom("C2", "slot_request", "==", 3), fm.Atom("C3", "kc[2]", "==", 1),
        fm.TRUE, fm.FALSE])
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.builds(fm.Not, children),
            st.builds(fm.Next, children),
            st.builds(fm.And, children, children),
            st.builds(fm.Or, children, children),
            st.builds(fm.Implies, children, children),
            st.builds(fm.Iff, children, children),
            st.builds(fm.Know, st.sampled_from(["C1", "C2", "C3"]), children)),
        max_leaves=12)


@given(_ast_strategy())
@settings(max_examples=300, deadline=None)
def test_print_parse_round_trip(phi):
    assert parse(fm.fmt(phi)) == phi


def test_eval_conflict_at_figure_left(sys_unknown):
    run = run_of(sys_unknown, [2, 2, 2], [1, 1, 1])
    conflict2 = dc.conflict_macro(2)
    for t in range(7):
        assert fm.eval_at(sys_unknown, conflict2, Point(run, t))
    assert not fm.eval_at(sys_unknown, fm.Know("C1", conflict2), Point(run, 6))


def test_eval_negation_clause(sys_unknown):
    rng = random.Random(5)
    formulas = random_formulas(sys_unknown, seed=11, count=30)
    ev = fm.Evaluator(sys_unknown)
    for _, phi in formulas:
        t = rng.randrange(0, 7 - fm.x_depth(phi))
        p = Point(rng.randrange(sys_unknown.n_runs), t)
        assert fm.eval_at(sys_unknown, phi, p, ev) == \
            (not fm.eval_at(sys_unknown, fm.Not(phi), p, ev))


def test_next_shifts_time(sys_unknown):
    run = run_of(sys_unknown, [2, 2, 2], [1, 1, 1])
    rr2 = fm.Atom(None, "rr[2]", "==", 1)
    assert not fm.eval_at(sys_unknown, rr2, Point(run, 1))
    assert fm.eval_at(sys_unknown, fm.Next(rr2), Point(run, 1))


def test_eval_at_rejects_points_outside_the_system(sys_unknown):
    for point in (Point(0, 7), Point(0, -1), Point(sys_unknown.n_runs, 0), Point(-1, 0)):
        with pytest.raises(UsageError):
            fm.eval_at(sys_unknown, fm.TRUE, point)


def test_temporal_depth_beyond_horizon_rejected(sys_unknown):
    phi = fm.Next(fm.Next(fm.Atom(None, "rr[1]", "==", 1)))
    with pytest.raises(UsageError):
        fm.Evaluator(sys_unknown).vector(phi, 5)
    fm.Evaluator(sys_unknown).vector(phi, 4)   # fits


def test_next_past_the_horizon_rejected_even_over_a_constant(sys_unknown):
    # a Const reads no column, so only the X clause can refuse this
    phi = fm.TRUE
    for _ in range(sys_unknown.horizon + 1):
        phi = fm.Next(phi)
    with pytest.raises(UsageError, match="temporal depth of the formula exceeds the horizon"):
        fm.Evaluator(sys_unknown).vector(phi, 0)


def test_check_valid_tautology(sys_unknown):
    phi = parse("K[C2](conflict(1)) || !K[C2](conflict(1))")
    verdict = fm.check_valid_at(sys_unknown, phi, 6)
    assert verdict.holds and verdict.witness is None


def test_check_valid_spec2_fails_with_pair(sys_unknown):
    phi, time = dc.spec("2", "C1", 2)
    verdict = fm.check_valid_at(sys_unknown, phi, time)
    assert not verdict.holds
    assert verdict.witness is not None
    kw = verdict.know_witness
    assert kw is not None and kw.agent == "C1"
    # the pair witnesses the false K: same block, body differs
    labels, _ = sys_unknown.partition_labels("C1", time)
    assert labels[verdict.witness.run] == labels[kw.other.run]
    ev = fm.Evaluator(sys_unknown)
    assert fm.eval_at(sys_unknown, kw.body, verdict.witness, ev) \
        != fm.eval_at(sys_unknown, kw.body, kw.other, ev)


def test_knowledge_matches_brute_force(sys_unknown):
    vs = brute.enumerate_vs()
    conflict2 = dc.conflict_macro(2)
    ev = fm.Evaluator(sys_unknown)
    rng = random.Random(3)
    for _ in range(40):
        v = vs[rng.randrange(len(vs))]
        t = rng.randrange(7)
        run = run_of(sys_unknown, v[0], v[1])
        ours = fm.eval_at(sys_unknown, fm.Know("C1", conflict2), Point(run, t), ev)
        theirs = brute.knows(vs, v, 0, t, lambda w: brute.conflict(w[0], 2))
        assert ours == theirs


def test_s5_and_introspection_hold(sys_unknown):
    ev = fm.Evaluator(sys_unknown)
    for name, phi in random_formulas(sys_unknown, seed=99, count=60):
        t = 6 - fm.x_depth(phi)
        know = fm.Know("C2", phi)
        k_vec = ev.vector(know, t)
        truth = ev.vector(phi, t)
        assert not (k_vec & ~truth).any()                      # knowledge is true
        assert (k_vec == ev.vector(fm.Know("C2", know), t)).all()   # KK = K


def test_know_constant_on_blocks(sys_unknown):
    ev = fm.Evaluator(sys_unknown)
    for _, phi in random_formulas(sys_unknown, seed=123, count=20):
        t = 6 - fm.x_depth(phi)
        vec = ev.vector(fm.Know("C3", phi), t)
        labels, n_blocks = sys_unknown.partition_labels("C3", t)
        per_block = {}
        for run in range(sys_unknown.n_runs):
            per_block.setdefault(int(labels[run]), set()).add(bool(vec[run]))
        assert all(len(vals) == 1 for vals in per_block.values())


def test_know_of_a_constant_body_is_the_block_kernel(naive2, reduced2):
    # a constant body skips the block kernel; K's vector must not change
    for system in (naive2, reduced2):
        ev = fm.Evaluator(system)
        last_rr = fm.Atom(None, f"rr[{system.horizon}]", "==", 1)   # all false before its step
        taut = fm.Or(last_rr, fm.Not(last_rr))
        for time in range(system.horizon + 1):
            for body in (fm.TRUE, fm.FALSE, taut, fm.Not(taut), last_rr):
                body_vec = ev.vector(body, time)
                constant = body_vec.all() or not body_vec.any()
                assert constant or time == system.horizon
                for agent in system.agents:
                    labels, n_blocks = system.partition_labels(agent, time)
                    tainted = np.zeros(n_blocks, dtype=bool)
                    tainted[labels[~body_vec]] = True
                    know = ev.vector(fm.Know(agent, body), time)
                    assert np.array_equal(know, ~tainted[labels])
                    # shared, not copied: the memo holds one class vector for both
                    assert (ev.classes(fm.Know(agent, body), time)
                            is ev.classes(body, time)) == constant


def test_know_of_a_constant_body_still_checks_the_agent(reduced2):
    with pytest.raises(UsageError, match="C9"):
        fm.Evaluator(reduced2).vector(fm.Know("C9", fm.TRUE), 0)


def test_eval_on_valuation():
    phi = parse("C1.slot_request == 2 && !(C2.msg == 1)")
    assert fm.eval_on_valuation(phi, {"C1.slot_request": 2, "C2.msg": 0})
    assert not fm.eval_on_valuation(phi, {"C1.slot_request": 1, "C2.msg": 0})
    with pytest.raises(UsageError):
        fm.eval_on_valuation(fm.Know("C1", phi), {})


def _run_width_vector(system, phi, time):
    """Every node over all runs, K through the run-indexed partition labels."""
    if isinstance(phi, fm.Const):
        return np.full(system.n_runs, phi.value, dtype=bool)
    if isinstance(phi, fm.Atom):
        col = system.column(phi.name, time)
        return (col == phi.value) if phi.op == "==" else (col != phi.value)
    if isinstance(phi, fm.Not):
        return ~_run_width_vector(system, phi.child, time)
    if isinstance(phi, fm.Next):
        return _run_width_vector(system, phi.child, time + 1)
    if isinstance(phi, fm.Know):
        body = _run_width_vector(system, phi.child, time)
        labels, n_blocks = system.partition_labels(phi.agent, time)
        tainted = np.zeros(n_blocks, dtype=bool)
        tainted[labels[~body]] = True
        return ~tainted[labels]
    left = _run_width_vector(system, phi.left, time)
    right = _run_width_vector(system, phi.right, time)
    if isinstance(phi, fm.And):
        return left & right
    if isinstance(phi, fm.Or):
        return left | right
    if isinstance(phi, fm.Implies):
        return ~left | right
    return left == right


def _run_width_labels(system, agent, time):
    """Runs grouped by every observable column at times 0..time, numbered by
    least member run."""
    matrix = np.stack([system.column(name, u) for u in range(time + 1)
                       for name in system.observable_names(agent)], axis=1)
    first = {}
    labels = [first.setdefault(row.tobytes(), len(first)) for row in matrix]
    return np.array(labels), len(first)


def _naive_system(model2, kind):
    """The restricted 2-slot naive scenario (8 assignments), or a pinned KBP
    built on the naive engine."""
    if kind == "restricted":
        scen = dc.custom_scenario("C1.slot_request == 1 && C2.slot_request == 2 "
                                  "&& C3.slot_request == 0")
        return engine.generate_runs(model2, scen, "naive")
    model = dc.build_cdc(dc.DcParams(slots=2), kbp=True)
    return engine.generate_runs(model, dc.pinned_scenario([1, 2, 0], [1, 0, 1], slots=2), "naive")


@pytest.mark.parametrize("kind", ["restricted", "pinned-kbp"])
def test_class_vectors_widen_to_the_run_width_semantics(model2, kind):
    system = _naive_system(model2, kind)
    assert system.branching == 8 and system.n_runs > 1
    for agent in system.agents:
        for t in range(system.horizon + 1):
            labels, n_blocks = system.partition_labels(agent, t)
            expected, n_expected = _run_width_labels(system, agent, t)
            assert n_blocks == n_expected
            assert np.array_equal(labels, expected)
    # every atom of the system, keys and raw announcements included
    atoms = [fm.Atom(agent or None, var, op, int(value))
             for name, decl in system.variables.items()
             for agent, _, var in [name.rpartition(".")]
             for value in decl.domain for op in ("==", "!=")]
    rng = random.Random(29)
    formulas = [reduction._gen(rng, atoms, list(system.agents), 4) for _ in range(60)]
    # K of a next-step key bit: only the continuations whose digit is not 0
    # falsify it, and no agent sees the bit before it is drawn
    formulas += [fm.Know(agent, fm.Next(fm.Atom(None, "k12", "==", 0)))
                 for agent in system.agents]
    ev = fm.Evaluator(system)
    knows = [sub for phi in formulas for sub in fm.subformulas(phi) if isinstance(sub, fm.Know)]
    assert {k.agent for k in knows} == set(system.agents)
    assert any(isinstance(sub, fm.Know) for k in knows for sub in fm.subformulas(k.child))
    assert any(isinstance(sub, fm.Next) for k in knows for sub in fm.subformulas(k.child))
    for phi in formulas:
        for t in range(system.horizon - fm.x_depth(phi) + 1):
            assert np.array_equal(ev.vector(phi, t), _run_width_vector(system, phi, t)), \
                (fm.fmt(phi), t)
