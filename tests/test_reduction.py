import numpy as np
import pytest

import brute
from kbpcheck import dc
from kbpcheck import formula as fm
from kbpcheck.engine import generate_runs, reduced_system
from kbpcheck.model import UsageError
from kbpcheck.reduction import engines_agree, invariant_history, random_formulas


def test_engine_mode_validation(model2, scen2):
    with pytest.raises(UsageError, match="unknown engine mode 'symbolic'"):
        generate_runs(model2, scen2, "symbolic")


def test_invariant_history_figure_pair(sys_unknown):
    left = ((2, 2, 2), (1, 1, 1))
    right = ((2, 0, 0), (1, 1, 1))
    h_left = invariant_history(sys_unknown, left, "C1", 3)
    h_right = invariant_history(sys_unknown, right, "C1", 3)
    assert h_left == ((0, 0), (1, 0), (0, 0))
    assert h_left == h_right          # the indistinguishability witness
    # derived independently
    assert h_left == brute.observation(left, 0, 3)[1:]


def test_invariant_history_all_silent(sys_unknown):
    h = invariant_history(sys_unknown, ((0, 0, 0), (1, 0, 1)), "C2", 3)
    assert h == ((0, 0),) * 3


def test_invariant_history_validates(sys_unknown):
    with pytest.raises(UsageError):
        invariant_history(sys_unknown, ((9, 0, 0), (0, 0, 0)), "C1", 3)
    with pytest.raises(UsageError):
        invariant_history(sys_unknown, 0, "C1", 9)


def test_reduce_counts(model3, scen_unknown):
    assert reduced_system(model3, scen_unknown).n_runs == 512
    assert reduced_system(model3, dc.referendum_scenario()).n_runs == 216


def test_reduced_rejects_key_atoms(sys_unknown):
    ev = fm.Evaluator(sys_unknown)
    with pytest.raises(UsageError, match="naive"):
        ev.vector(fm.Atom(None, "k12", "==", 1), 3)
    with pytest.raises(UsageError, match="naive"):
        ev.vector(fm.Atom(None, "said[1]", "==", 1), 3)


def test_singleton_scenario_knowledge_collapses(model3):
    system = reduced_system(model3, dc.pinned_scenario([1, 2, 3], [1, 0, 1]))
    assert system.n_runs == 1
    phi = dc.conflict_macro(1)
    ev = fm.Evaluator(system)
    for agent in system.agents:
        assert (ev.vector(fm.Know(agent, phi), 6) == ev.vector(phi, 6)).all()


def test_reduced_blocks_are_unions_of_naive_blocks(naive2, reduced2):
    n_keys = naive2.meta["n_key_schedules"]
    projection = np.arange(naive2.n_runs) // n_keys
    for agent in naive2.agents:
        for t in (0, 2, 4):
            nl, _ = naive2.partition_labels(agent, t)
            rl, n_reduced = reduced2.partition_labels(agent, t)
            # two naive runs in one naive block project into one reduced block
            pairs = (nl.astype(np.int64) << 32) | rl[projection].astype(np.int64)
            assert len(np.unique(pairs)) == len(np.unique(nl))


def test_reduced_count_equals_assignments_naive_times_keys(naive2, reduced2):
    assert naive2.n_runs == reduced2.n_runs * naive2.meta["n_key_schedules"]


def test_engines_agree_on_restricted_scenario(model2):
    # a small scenario keeps the naive side tiny: 8 assignments * 4096 keys
    scen = dc.custom_scenario("C1.slot_request == 1 && C2.slot_request == 2 "
                              "&& C3.slot_request == 0")
    scen.slot_request = {a: (0, 1, 2) for a in ("C1", "C2", "C3")}
    suite = [("conflict", dc.conflict_macro(1, slots=2)),
             ("k-conflict", fm.Know("C1", dc.conflict_macro(1, slots=2)))]
    report = engines_agree(model2, scen, suite, seed=5, n_random=25)
    assert report.ok
    assert report.checks > 0


def test_engines_agree_catches_injected_fault(model2, scen2, naive2):
    coarse = reduced_system(model2, scen2, coarse_fingerprints=True)
    suite = [(f"spec-1s-{a}-{s}", dc.spec("1s", a, s, slots=2)[0])
             for a in ("C1", "C2", "C3") for s in (1, 2)]
    report = engines_agree(model2, scen2, suite, naive=naive2, reduced=coarse)
    assert not report.ok
    assert report.mismatches


def test_random_formulas_are_seeded_and_key_free(sys_unknown):
    a = random_formulas(sys_unknown, seed=7, count=25)
    b = random_formulas(sys_unknown, seed=7, count=25)
    assert [f for _, f in a] == [f for _, f in b]
    c = random_formulas(sys_unknown, seed=8, count=25)
    assert [f for _, f in a] != [f for _, f in c]
    for _, phi in a:
        assert any(isinstance(s, fm.Know) for s in fm.subformulas(phi))
        for atom in fm.atoms_of(phi):
            assert not atom.name.startswith(("k1", "k2", "k3", "said"))


def test_propositional_agreement_is_pointwise(naive2, reduced2):
    # truth of key-free propositional formulas depends only on the assignment
    phi = fm.And(dc.conflict_macro(1, slots=2),
                 fm.Atom("C1", "msg", "==", 1))
    n_keys = naive2.meta["n_key_schedules"]
    projection = np.arange(naive2.n_runs) // n_keys
    for t in (0, 2, 4):
        vn = fm.Evaluator(naive2).vector(phi, t)
        vr = fm.Evaluator(reduced2).vector(phi, t)
        assert np.array_equal(vn, vr[projection])
