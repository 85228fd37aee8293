from collections import Counter

import numpy as np
import pytest

import brute
from conftest import assignment_pairs
from kbpcheck import dc
from kbpcheck import formula as fm
from kbpcheck.engine import execute_kbp, generate_runs, reduced_system, verify_kbp_fixpoint
from kbpcheck.model import UsageError
from kbpcheck.reduction import (AgreementReport, Mismatch, engines_agree,
                                random_formulas)


def test_engine_mode_validation(model2, scen2):
    with pytest.raises(UsageError, match="unknown engine mode 'symbolic'"):
        generate_runs(model2, scen2, "symbolic")


def _stored_pairs(system, assignment, agent, time):
    # the (own contribution, xor of the others') pairs stored for one run
    run = assignment_pairs(system.meta["assignments"]).index(assignment)
    return tuple((int(system.column(f"{agent}.contrib", u)[run]),
                  int(system.column(f"{agent}.oxr", u)[run]))
                 for u in range(1, time + 1))


def test_invariant_history_figure_pair(sys_unknown):
    left = ((2, 2, 2), (1, 1, 1))
    right = ((2, 0, 0), (1, 1, 1))
    h_left = _stored_pairs(sys_unknown, left, "C1", 3)
    h_right = _stored_pairs(sys_unknown, right, "C1", 3)
    assert h_left == ((0, 0), (1, 0), (0, 0))
    assert h_left == h_right          # the indistinguishability witness
    # derived independently
    assert h_left == brute.observation(left, 0, 3)[1:]


def test_invariant_history_all_silent(sys_unknown):
    h = _stored_pairs(sys_unknown, ((0, 0, 0), (1, 0, 1)), "C2", 3)
    assert h == ((0, 0),) * 3


def test_stored_invariant_pairs_match_brute_force(sys_unknown):
    # the reduced engine's observation columns, which its partitions read,
    # hold the per-step pair (own contribution, xor of the others'), derived
    # independently, for every admissible assignment, agent and time
    steps = range(1, sys_unknown.horizon + 1)
    for i, agent in enumerate(sys_unknown.agents):
        own = np.stack([sys_unknown.column(f"{agent}.contrib", u) for u in steps], axis=1)
        oxr = np.stack([sys_unknown.column(f"{agent}.oxr", u) for u in steps], axis=1)
        for run, v in enumerate(assignment_pairs(sys_unknown.meta["assignments"])):
            pairs = tuple(zip(own[run].tolist(), oxr[run].tolist()))
            for t in range(sys_unknown.horizon + 1):
                assert pairs[:t] == brute.observation(v, i, t)[1:]


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


def restricted_scenario():
    """A 2-slot scenario whose naive side is tiny: 8 assignments * 4096 keys."""
    scen = dc.custom_scenario("C1.slot_request == 1 && C2.slot_request == 2 "
                              "&& C3.slot_request == 0")
    scen.slot_request = {a: (0, 1, 2) for a in ("C1", "C2", "C3")}
    return scen


def test_engines_agree_on_restricted_scenario(model2):
    suite = [("conflict", dc.conflict_macro(1, slots=2)),
             ("k-conflict", fm.Know("C1", dc.conflict_macro(1, slots=2)))]
    report = engines_agree(model2, restricted_scenario(), suite, seed=5, n_random=25)
    assert report.ok
    assert report.checks > 0


def agree_with_shared_memo(naive, reduced, suite, seed):
    """engines_agree's comparison with each memo kept for the whole suite."""
    projection = np.arange(naive.n_runs) // naive.meta["n_key_schedules"]
    ev_naive, ev_reduced = fm.Evaluator(naive), fm.Evaluator(reduced)
    report = AgreementReport(len(suite), 0, 0, seed)
    for name, phi in suite:
        for time in range(naive.horizon - fm.x_depth(phi) + 1):
            vec_n = ev_naive.vector(phi, time)
            vec_r = ev_reduced.vector(phi, time)[projection]
            report.checks += 1
            report.points_compared += naive.n_runs
            if (vec_n != vec_r).any():
                run = int(np.argmax(vec_n != vec_r))
                report.mismatches.append(Mismatch(name, fm.fmt(phi), time, run,
                                                  bool(vec_n[run]), bool(vec_r[run])))
    return report


@pytest.mark.parametrize("coarse", [False, True])
def test_memo_eviction_computes_and_reports_as_a_shared_memo(model2, monkeypatch, coarse):
    scen = restricted_scenario()
    naive = generate_runs(model2, scen, "naive")
    reduced = reduced_system(model2, scen, coarse_fingerprints=coarse)
    suite = [(f"spec-{sid}-{agent}-{slot or 0}", dc.spec(sid, agent, slot, slots=2)[0])
             for sid in dc.SPEC_IDS if sid != "1c"
             for agent, slot in dc.spec_instances(sid, slots=2)]
    suite += random_formulas(reduced_system(model2, scen), 5, 25)

    computed = []       # per comparison loop: (naive side, node, time) -> calls
    compute = fm.Evaluator._compute

    def counted(self, phi, time):
        computed[-1][self.system is naive, phi, time] += 1
        return compute(self, phi, time)

    held = []           # naive memo nodes after each formula's eviction
    evict = fm.Evaluator.evict

    def recorded(self, nodes):
        evict(self, nodes)
        if self.system is naive:
            held.append({node for node, _ in self.memo})

    monkeypatch.setattr(fm.Evaluator, "_compute", counted)
    monkeypatch.setattr(fm.Evaluator, "evict", recorded)
    computed.append(Counter())
    report = engines_agree(model2, scen, suite, seed=5, naive=naive, reduced=reduced)
    computed.append(Counter())
    expected = agree_with_shared_memo(naive, reduced, suite, seed=5)

    assert report.ok is not coarse
    assert report.to_json() == expected.to_json()
    assert computed[0] == computed[1]
    assert len(held) == len(suite)
    for i, nodes in enumerate(held):
        assert nodes <= {sub for _, phi in suite[i + 1:] for sub in fm.subformulas(phi)}


def test_mismatch_names_the_first_differing_run_and_both_values(model2, monkeypatch):
    scen = restricted_scenario()
    naive = generate_runs(model2, scen, "naive")
    reduced = reduced_system(model2, scen)
    # at time 1 the formula has 8 history classes per assignment; flip two of
    # assignment 5's, so the report names the least run of the first one
    suite = [("conflict-or-rr", fm.Or(dc.conflict_macro(1, slots=2),
                                      fm.Atom(None, "rr[1]", "==", 1)))]
    run = 5 * naive.meta["n_key_schedules"] + 3
    classes = fm.Evaluator.classes

    def flipped(self, phi, time):
        out = classes(self, phi, time)
        if self.system is naive and time == 1:
            assert len(out) == 8 * 8
            out = out.copy()
            out[[5 * 8 + 3, 5 * 8 + 6]] ^= True
        return out

    monkeypatch.setattr(fm.Evaluator, "classes", flipped)
    report = engines_agree(model2, scen, suite, naive=naive, reduced=reduced)
    truth = bool(fm.Evaluator(reduced).vector(suite[0][1], 1)[5])
    assert [(m.time, m.run, m.naive_value, m.reduced_value) for m in report.mismatches] \
        == [(1, run, not truth, truth)]
    assert report.to_json() == agree_with_shared_memo(naive, reduced, suite, None).to_json()


def test_engines_agree_catches_injected_fault(model2, scen2, naive2):
    coarse = reduced_system(model2, scen2, coarse_fingerprints=True)
    suite = [(f"spec-1s-{a}-{s}", dc.spec("1s", a, s, slots=2)[0])
             for a in ("C1", "C2", "C3") for s in (1, 2)]
    report = engines_agree(model2, scen2, suite, naive=naive2, reduced=coarse)
    assert not report.ok
    assert report.mismatches


KBP_SUITE = [(f"spec-{sid}-{agent}-{slot or 0}", dc.spec(sid, agent, slot, slots=2)[0])
             for sid in ("2", "3", "4a", "4b", "5", "6")
             for agent, slot in dc.spec_instances(sid, slots=2)]


@pytest.mark.parametrize("mode", dc.MODES)
def test_naive_kbp_is_the_reduced_kbp_on_every_key_schedule(scen2, mode):
    # built here, not in a session fixture: each naive KBP holds about 250 MB
    model = dc.build_cdc(dc.DcParams(slots=2, mode=mode), kbp=True)
    naive = generate_runs(model, scen2, "naive")
    reduced = execute_kbp(model, scen2)
    n_keys = naive.meta["n_key_schedules"]
    assert naive.n_runs == reduced.n_runs * n_keys == 884_736
    for agent in model.agents:
        assert np.array_equal([naive.widen(vec) for vec in naive.meta["contrib"][agent]],
                              np.repeat(reduced.meta["contrib"][agent], n_keys, axis=1))
    names = [f"{a}.{name}" for a in model.agents for name in model.programs[a].locals_]
    names += [f"rr[{t}]" for t in range(1, model.horizon + 1)]
    for flat in names:
        assert np.array_equal(naive.column(flat, naive.horizon),
                              np.repeat(reduced.column(flat, reduced.horizon), n_keys))
    assert verify_kbp_fixpoint(naive, model)
    # the default reduced side of the oracle is the reduced KBP build
    report = engines_agree(model, scen2, KBP_SUITE, seed=3, n_random=40, naive=naive)
    assert report.ok
    assert report.formulas == len(KBP_SUITE) + 40


@pytest.mark.parametrize("mode", dc.MODES)
def test_pinned_three_slot_naive_kbp_is_the_reduced_kbp(mode):
    # C1 and C2 pinned, C3 free: 8 assignments x 2^18 key schedules
    model = dc.build_cdc(dc.DcParams(mode=mode), kbp=True)
    scenario = dc.custom_scenario("C1.slot_request == 1 && C1.msg == 1 && "
                                  "C2.slot_request == 2 && C2.msg == 0", 3)
    naive = generate_runs(model, scenario, "naive")
    assert naive.n_runs == 2_097_152
    assert verify_kbp_fixpoint(naive, model)
    suite = [(f"spec-{sid}-{agent}-{slot or 0}", dc.spec(sid, agent, slot)[0])
             for sid in ("2", "3", "4a", "4b", "5", "6")
             for agent, slot in dc.spec_instances(sid)]
    report = engines_agree(model, scenario, suite, seed=1, n_random=40, naive=naive)
    assert (report.formulas, report.checks) == (len(suite) + 40, 566)
    assert report.ok and not report.mismatches


@pytest.mark.parametrize("mode", dc.MODES)
def test_naive_kbp_oracle_catches_coarse_fingerprints(scen2, mode):
    model = dc.build_cdc(dc.DcParams(slots=2, mode=mode), kbp=True)
    coarse = reduced_system(model, scen2, coarse_fingerprints=True)
    report = engines_agree(model, scen2, KBP_SUITE, seed=3, n_random=40, reduced=coarse)
    assert report.mismatches


def test_engines_agree_refuses_a_reduced_system_of_other_runs(model2, scen2, naive2,
                                                             sys_unknown, monkeypatch):
    def no_evaluation(self, phi, time):
        raise AssertionError("evaluated before the systems were checked")

    # one assignment each, but not the same one (built first: a build
    # evaluates the programs' local expressions)
    naive = generate_runs(model2, dc.pinned_scenario([1, 2, 0], [1, 0, 1], slots=2), "naive")
    other = reduced_system(model2, dc.pinned_scenario([1, 2, 0], [1, 1, 1], slots=2))
    monkeypatch.setattr(fm.Evaluator, "_compute", no_evaluation)
    suite = [("conflict", dc.conflict_macro(1, slots=2))]
    # 3 slots: 512 runs at horizon 6 against 216 assignments at horizon 4
    with pytest.raises(UsageError, match="does not quotient the naive one"):
        engines_agree(model2, scen2, suite, naive=naive2, reduced=sys_unknown)
    with pytest.raises(UsageError, match="does not quotient the naive one"):
        engines_agree(model2, scen2, suite, naive=naive, reduced=other)


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
