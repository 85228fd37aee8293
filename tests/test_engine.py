import itertools
import random
import tracemalloc

import numpy as np
import pytest

import brute
from conftest import assignment_pairs, at_run, run_of
from kbpcheck import dc
from kbpcheck import formula as fm
from kbpcheck import localexpr as le
from kbpcheck.engine import (AgentProgram, Assign, PhaseBlock, admissible_assignments,
                             contribution_matrix, execute_kbp, generate_runs,
                             initial_vectors, rr_vector, verify_kbp_fixpoint)
from kbpcheck.model import ModelError, Point, UsageError
from scalar import eval_local_expr, observation_of, run_single


def test_reduced_run_count_and_order(model3, scen_unknown, sys_unknown):
    assert sys_unknown.n_runs == 512     # 4^3 * 2^3
    vs = assignment_pairs(sys_unknown.meta["assignments"])
    assert vs == sorted(vs)              # canonical lexicographic order
    again = generate_runs(model3, scen_unknown, "reduced")
    for name in sys_unknown.variables:
        for t in (0, 3, 6):
            assert np.array_equal(sys_unknown.column(name, t), again.column(name, t))


def test_naive_run_count_2slot(naive2):
    assert naive2.n_runs == 884_736      # 27 * 8 * 2^12
    assert naive2.meta["n_key_schedules"] == 4096


def test_naive_guard_for_full_model(model3, scen_unknown):
    with pytest.raises(UsageError):
        generate_runs(model3, scen_unknown, "naive")   # 512 * 2^18 runs


def test_figure_tables_from_pinned_scenarios(model3):
    left = generate_runs(model3, dc.pinned_scenario([2, 2, 2], [1, 1, 1]), "reduced")
    right = generate_runs(model3, dc.pinned_scenario([2, 0, 0], [1, 1, 1]), "reduced")
    assert rr_vector(left, 0) == [0, 1, 0, 0, 1, 0]
    assert rr_vector(right, 0) == [0, 1, 0, 0, 1, 0]
    assert contribution_matrix(left, 0) == [[0, 1, 0, 0, 1, 0]] * 3
    assert contribution_matrix(right, 0) == [[0, 1, 0, 0, 1, 0],
                                             [0, 0, 0, 0, 0, 0],
                                             [0, 0, 0, 0, 0, 0]]
    assert initial_vectors(right, 0) == ([2, 0, 0], [1, 1, 1])


def test_contributions_match_brute_force(sys_unknown):
    for v in brute.enumerate_vs():
        expected, rr = brute.contrib_table(*v)
        run = run_of(sys_unknown, v[0], v[1])
        assert contribution_matrix(sys_unknown, run) == expected
        assert rr_vector(sys_unknown, run) == rr


def test_unsatisfiable_scenario_rejected(model3):
    scen = dc.custom_scenario("C1.slot_request == 1 && C1.slot_request == 2")
    with pytest.raises(UsageError):
        generate_runs(model3, scen, "reduced")


def _product_pairs(model, scenario):
    """The reference enumeration: itertools.product over the domains,
    slot_request vector first, as (slot_request, msg) pairs of tuples."""
    k = len(model.agents)
    combos = itertools.product(*(scenario.slot_request[a] for a in model.agents),
                               *(scenario.msg[a] for a in model.agents))
    return [(tuple(map(int, c[:k])), tuple(map(int, c[k:]))) for c in combos]


@pytest.mark.parametrize("slots", [2, 3, 4])
@pytest.mark.parametrize("name", ["unknown", "referendum", "pinned"])
def test_assignment_array_is_the_product_in_lexicographic_order(name, slots):
    model = dc.build_cdc(dc.DcParams(slots=slots))
    scenario = (dc.pinned_scenario([1, slots, 0], [1, 0, 1], slots=slots) if name == "pinned"
                else dc.scenario_by_name(name, slots))
    vs = admissible_assignments(model, scenario)
    assert vs.dtype == np.uint8 and vs.shape[1:] == (2, 3)
    assert assignment_pairs(vs) == _product_pairs(model, scenario)


def test_assignment_array_keeps_the_rows_the_scalar_constraint_keeps(model3):
    text = ("(conflict(1) || !(C3.msg == 1)) => "
            "(C1.slot_request == 2 <=> C2.msg == 0) && C3.slot_request != 3")
    scenario = dc.custom_scenario(text)
    names = [f"{a}.{var}" for var in ("slot_request", "msg") for a in model3.agents]
    expected = [(sr, msg) for sr, msg in _product_pairs(model3, scenario)
                if fm.eval_on_valuation(scenario.constraint, dict(zip(names, sr + msg)))]
    assert 0 < len(expected) < 512
    assert assignment_pairs(admissible_assignments(model3, scenario)) == expected


def test_assignment_errors_keep_their_texts(model3):
    with pytest.raises(UsageError, match="^unsatisfiable scenario 'custom'$"):
        admissible_assignments(model3, dc.custom_scenario("C1.msg == 1 && !(C1.msg == 1)"))
    with pytest.raises(UsageError,
                       match=r"^constraint reads 'rr\[1\]', not an initial variable$"):
        admissible_assignments(model3, dc.custom_scenario("RR[1] && C1.msg == 1"))
    with pytest.raises(UsageError, match="^scenario constraints may not use K, Khat or X$"):
        admissible_assignments(model3, dc.custom_scenario("K[C1](C1.msg == 1)"))


def test_custom_scenario_constraint(model3):
    scen = dc.custom_scenario("C1.slot_request == 2 && C2.slot_request != 0")
    system = generate_runs(model3, scen, "reduced")
    assert system.n_runs == 1 * 3 * 4 * 8   # C1 pinned, C2 in 1..3, C3 free, msgs free
    assert all(int(v) == 2 for v in system.column("C1.slot_request", 0))


def test_generate_runs_builds_a_kbp_as_execute_kbp(kbp_systems, scen_unknown):
    model, ksys = kbp_systems["speculative"]
    system = generate_runs(model, scen_unknown, "reduced")
    for agent in model.agents:
        assert np.array_equal(system.meta["contrib"][agent], ksys.meta["contrib"][agent])
    assert verify_kbp_fixpoint(system, model)


def test_local_statements_read_the_columns_written_before_them(scen_unknown):
    # within a step rcvd0[s] is assigned before rcvd1[s], and dlvrd after both:
    # rcvd0[3] reads rcvd1[3] before the step writes it, dlvrd after
    preds = dict(dc.final_predicates(),
                 rcvd0=dc.PredicateDef("copy", "rcvd0", "rcvd1[s]"),
                 dlvrd=dc.PredicateDef("copy", "dlvrd", "rcvd1[3]"))
    system = generate_runs(dc.build_cdc(dc.DcParams(), preds), scen_unknown)
    end = system.horizon
    for agent in system.agents:
        assert not system.column(f"{agent}.rcvd0[3]", end).any()
        rcvd1 = system.column(f"{agent}.rcvd1[3]", end)
        assert np.array_equal(system.column(f"{agent}.dlvrd", end), rcvd1)
        assert int(rcvd1.sum()) == 76


def test_knowledge_assignment_reads_an_earlier_assignment_of_its_step():
    # C1 at step 3: rcvd0[1] := rcvd1[1]; rcvd1[1] := K...; dlvrd := rcvd1[1].
    # Each assignment reads the columns as the step has written them so far.
    model = dc.build_cdc(dc.DcParams(slots=2), kbp=True)
    prog = model.programs["C1"]
    phases = list(prog.phases)
    (rcvd1,) = [stmt for stmt in phases[2].post if stmt.var == "rcvd1[1]"]
    read = fm.Atom("C1", "rcvd1[1]", "==", 1)
    phases[2] = PhaseBlock(phases[2].announce,
                           (Assign("rcvd0[1]", read), rcvd1, Assign("dlvrd", read)))
    phases[3] = PhaseBlock(phases[3].announce,
                           tuple(stmt for stmt in phases[3].post if stmt.var != "dlvrd"))
    model.programs["C1"] = AgentProgram("C1", prog.locals_, tuple(phases))
    system = execute_kbp(model, dc.unknown_scenario(slots=2))
    end = system.horizon
    received = system.column("C1.rcvd1[1]", end)
    assert int(received.sum()) == 36
    assert np.array_equal(system.column("C1.dlvrd", end), received)
    assert not system.column("C1.rcvd0[1]", end).any()


def test_fixpoint_rechecks_a_read_before_the_write_of_its_step():
    # C1 at step 3: rcvd0[1] := K[C1](C1.rcvd1[1] == 1), then rcvd1[1] := K...
    # The first reads rcvd1[1] before its write, so false; the check re-reads
    # the statement as the build compiled it
    model = dc.build_cdc(dc.DcParams(slots=2), kbp=True)
    prog = model.programs["C1"]
    phases = list(prog.phases)
    (rcvd1,) = [stmt for stmt in phases[2].post if stmt.var == "rcvd1[1]"]
    early = fm.Know("C1", fm.Atom("C1", "rcvd1[1]", "==", 1))
    phases[2] = PhaseBlock(phases[2].announce, (Assign("rcvd0[1]", early), rcvd1))
    model.programs["C1"] = AgentProgram("C1", prog.locals_, tuple(phases))
    system = execute_kbp(model, dc.unknown_scenario(slots=2))
    end = system.horizon
    assert not system.column("C1.rcvd0[1]", end).any()
    assert int(system.column("C1.rcvd1[1]", end).sum()) == 36
    assert verify_kbp_fixpoint(system, model)
    _flip_class_0(system, "C1.rcvd0[1]", model.programs["C1"].assignment_step("rcvd0[1]"))
    assert not verify_kbp_fixpoint(system, model)


def _flip_class_0(system, name, step):
    """Flip class 0 of the latched trace `name`: stored vectors are the
    evaluator's read-only outputs, so a copy is flipped and stored back."""
    flipped = system.class_column(name, step).copy()
    flipped[0] ^= 1
    system.set_latched(name, flipped, step)


def test_a_step_reads_a_later_agent_assignment_as_false_and_an_earlier_one_as_written():
    # C2 assigns rcvd1[1] at step 3.  C1, whose statements run before C2's,
    # reads it false there, bare and inside a K body; C3, after C2, reads what
    # C2 wrote.  One evaluator serves the build, so C3's reads must not reuse
    # values computed for C1's
    model = dc.build_cdc(dc.DcParams(slots=2), kbp=True)
    bare = fm.Atom("C2", "rcvd1[1]", "==", 1)
    for agent in ("C1", "C3"):
        prog = model.programs[agent]
        phases = list(prog.phases)
        phases[2] = PhaseBlock(phases[2].announce, (
            Assign("rcvd0[1]", bare), phases[2].post[1], Assign("dlvrd", fm.Know("C2", bare))))
        phases[3] = PhaseBlock(phases[3].announce,
                               tuple(stmt for stmt in phases[3].post if stmt.var != "dlvrd"))
        model.programs[agent] = AgentProgram(agent, prog.locals_, tuple(phases))
    system = execute_kbp(model, dc.unknown_scenario(slots=2))
    end = system.horizon
    written = system.column("C2.rcvd1[1]", end)
    assert written.any()
    for name in ("rcvd0[1]", "dlvrd"):
        assert not system.column(f"C1.{name}", end).any()
        assert np.array_equal(system.column(f"C3.{name}", end), written)
    assert verify_kbp_fixpoint(system, model)


def test_a_local_assigned_at_two_steps_is_refused():
    # a second write would rewrite what the steps between read
    model = dc.build_cdc(dc.DcParams(slots=2), kbp=True)
    prog = model.programs["C1"]
    phases = list(prog.phases)
    phases[2] = PhaseBlock(phases[2].announce, phases[2].post + (Assign("dlvrd", fm.TRUE),))
    model.programs["C1"] = AgentProgram("C1", prog.locals_, tuple(phases))
    with pytest.raises(ModelError, match=r"C1\.dlvrd is assigned at steps 3 and 4"):
        execute_kbp(model, dc.unknown_scenario(slots=2))


def test_a_local_assigned_twice_in_one_step_is_refused():
    # the second write would change what the statements between read
    model = dc.build_cdc(dc.DcParams(slots=2), kbp=True)
    prog = model.programs["C1"]
    phases = list(prog.phases)
    phases[3] = PhaseBlock(phases[3].announce, phases[3].post + (Assign("dlvrd", fm.TRUE),))
    model.programs["C1"] = AgentProgram("C1", prog.locals_, tuple(phases))
    with pytest.raises(ModelError, match=r"C1\.dlvrd is assigned at steps 4 and 4"):
        execute_kbp(model, dc.unknown_scenario(slots=2))


def test_execute_step_reservation_and_transmission(model3):
    # all request slot 2: reservation round 2 has three contributions
    schedule = ((0, 0, 0),) * 6
    states = run_single(model3, [2, 2, 2], [1, 1, 1], schedule)
    assert states[2]["rr[2]"] is True        # 1 xor 1 xor 1
    assert states[5]["rr[5]"] is True        # all transmit under kc
    # only C1 requests slot 2 and transmits: rr[5] = its message
    states = run_single(model3, [2, 0, 0], [1, 1, 1], schedule)
    assert states[5]["rr[5]"] is True
    # a step where nobody's condition fires announces all-false
    states = run_single(model3, [0, 0, 0], [1, 1, 1], schedule)
    assert all(states[t][f"rr[{t}]"] is False for t in range(1, 7))


def test_execute_step_keys_mask_announcements(model3):
    run_a = run_single(model3, [2, 2, 2], [1, 1, 1], ((0, 0, 0),) * 6)
    run_b = run_single(model3, [2, 2, 2], [1, 1, 1], ((1, 0, 0),) * 6)
    assert run_a[2]["said[1]"] != run_b[2]["said[1]"]
    for t in range(1, 7):   # keys cancel in the round result
        assert run_a[t][f"rr[{t}]"] == run_b[t][f"rr[{t}]"]


def test_naive_traces_are_stored_per_history_class(model2, scen2, reduced2):
    # 884,736 runs, but stored once per class: the key bits, said and what
    # reads them at level t, everything else at a coarser level
    tracemalloc.start()
    try:
        system = generate_runs(model2, scen2, "naive")
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert system.n_runs == 884_736
    assert held < 20 * 2 ** 20
    # the reduced engine's classes are its runs: a column is the stored array
    for name in ("C1.slot_request", "C1.contrib", "rr[1]", "C1.kc[1]"):
        for t in range(reduced2.horizon + 1):
            assert np.shares_memory(reduced2.column(name, t), reduced2.class_column(name, t))


def test_behavior_key_freeness_sampled(model2, naive2):
    # contribution matrix is a function of the initial assignment alone
    rng = random.Random(17)
    n_keys = naive2.meta["n_key_schedules"]
    contrib = naive2.meta["contrib"]
    for _ in range(300):
        v_idx = rng.randrange(216)
        k1, k2 = rng.randrange(n_keys), rng.randrange(n_keys)
        for agent in naive2.agents:
            a = [at_run(naive2, vec, v_idx * n_keys + k1) for vec in contrib[agent]]
            b = [at_run(naive2, vec, v_idx * n_keys + k2) for vec in contrib[agent]]
            assert np.array_equal(a, b)


def test_naive_matches_scalar_reference(model2, naive2):
    # spot-check the vectorized naive engine against the scalar single-run loop
    rng = random.Random(23)
    n_keys = naive2.meta["n_key_schedules"]
    edges = [name for name, _ in model2.key_edges]
    for _ in range(25):
        run = rng.randrange(naive2.n_runs)
        kappa = run % n_keys
        bits = tuple(tuple((kappa >> (3 * (t - 1) + j)) & 1 for j in range(3))
                     for t in range(1, model2.horizon + 1))
        sr, msg = initial_vectors(naive2, run)
        states = run_single(model2, sr, msg, bits)

        def stored(name, t):
            return at_run(naive2, naive2.class_column(name, t), run)

        latched = [f"{base}[{s}]" for base in ("kc", "rcvd0", "rcvd1")
                   for s in range(1, model2.slots + 1)] + ["dlvrd"]
        for t in range(1, model2.horizon + 1):
            state = states[t]
            for i, agent in enumerate(naive2.agents):
                said = state[f"said[{i + 1}]"]
                assert bool(stored(f"said[{i + 1}]", t)) == said
                left, right = model2.agent_keys(agent)
                assert bool(at_run(naive2, naive2.meta["contrib"][agent][t], run)) == \
                    said ^ state[left] ^ state[right]
                for name in latched:
                    flat = f"{agent}.{name}"
                    assert bool(stored(flat, t)) == state[flat]
            assert bool(stored(f"rr[{t}]", t)) == state[f"rr[{t}]"]


def test_kbp_equals_candidate_behavior(kbp_systems, sys_unknown):
    _, ksys = kbp_systems["speculative"]
    assert ksys.n_runs == sys_unknown.n_runs
    for agent in sys_unknown.agents:
        assert np.array_equal(ksys.meta["contrib"][agent],
                              sys_unknown.meta["contrib"][agent])


def test_kbp_fixpoint(kbp_systems):
    for mode in ("speculative", "conservative"):
        model, system = kbp_systems[mode]
        assert verify_kbp_fixpoint(system, model)


@pytest.mark.parametrize("mode", dc.MODES)
def test_kbp_fixpoint_catches_a_flipped_bit_on_the_naive_engine(mode):
    model = dc.build_cdc(dc.DcParams(slots=2, mode=mode), kbp=True)
    scenario = dc.pinned_scenario([1, 2, 0], [1, 0, 1], slots=2)
    system = generate_runs(model, scenario, "naive")
    assert verify_kbp_fixpoint(system, model)
    _flip_class_0(system, "C1.rcvd1[1]", model.programs["C1"].assignment_step("rcvd1[1]"))
    assert not verify_kbp_fixpoint(system, model)


@pytest.mark.parametrize("mode", dc.MODES)
def test_kbp_fixpoint_catches_flipped_knowledge_choices(mode):
    model = dc.build_cdc(dc.DcParams(slots=2, mode=mode), kbp=True)
    scenario = dc.unknown_scenario(slots=2)
    guarded = model.slots + 1                   # transmission step of slot 1
    announce = model.programs["C1"].phases[guarded - 1].announce
    assert any(isinstance(sub, fm.Know) for sub in fm.subformulas(announce))
    system = execute_kbp(model, scenario)
    contrib = system.meta["contrib"]["C1"]
    contrib[guarded] = contrib[guarded].copy()
    contrib[guarded][0] ^= 1
    assert not verify_kbp_fixpoint(system, model)
    system = execute_kbp(model, scenario)
    _flip_class_0(system, "C1.rcvd1[1]", model.programs["C1"].assignment_step("rcvd1[1]"))
    assert not verify_kbp_fixpoint(system, model)


def test_kbp_with_trivial_test_behaves_as_constant_true(scen_unknown):
    base = dc.build_cdc(dc.DcParams(), kbp=True)
    programs = {}
    for agent, prog in base.programs.items():
        phases = []
        for step, block in enumerate(prog.phases, start=1):
            announce = block.announce
            if step > base.slots:
                s = step - base.slots
                announce = fm.conj([fm.Atom(agent, "slot_request", "==", s),
                                    fm.Know(agent, fm.TRUE), fm.Atom(agent, "msg", "==", 1)])
            phases.append(PhaseBlock(announce, block.post))
        programs[agent] = AgentProgram(agent, prog.locals_, tuple(phases))
    model = dc.build_cdc(dc.DcParams(), kbp=True)
    model.programs = programs
    ksys = execute_kbp(model, scen_unknown)
    # K_i(true) = true: every requester transmits, conflict or not
    ref_preds = dict(dc.final_predicates(),
                     kc=dc.PredicateDef("always", "kc", "true"))
    ref = generate_runs(dc.build_cdc(dc.DcParams(), ref_preds), scen_unknown)
    for agent in ksys.agents:
        assert np.array_equal(ksys.meta["contrib"][agent], ref.meta["contrib"][agent])


def test_conservative_kbp_backs_off_when_three_way_possible(kbp_systems, sys_unknown):
    _, ksys = kbp_systems["conservative"]
    vs = assignment_pairs(ksys.meta["assignments"])
    contrib = ksys.meta["contrib"]
    # solo requester with quiet other slots cannot rule out the 3-way world
    i = vs.index(((2, 2, 2), (1, 1, 1)))
    assert int(contrib["C1"][5][i]) == 0
    i = vs.index(((2, 0, 0), (1, 1, 1)))
    assert int(contrib["C1"][5][i]) == 0
    # another slot's reservation is visible: 3-way excluded, transmit
    i = vs.index(((2, 1, 3), (1, 1, 1)))
    assert int(contrib["C1"][5][i]) == 1


@pytest.mark.parametrize("where", ["announce", "assign"])
def test_kbp_future_time_test_rejected(scen_unknown, where):
    model = dc.build_cdc(dc.DcParams(), kbp=True)
    prog = model.programs["C1"]
    bad = fm.Next(fm.Know("C1", dc.conflict_macro(1)))
    block = prog.phases[3]
    phases = list(prog.phases)
    if where == "announce":
        phases[3] = PhaseBlock(bad, block.post)
    else:
        phases[3] = PhaseBlock(block.announce, (Assign(block.post[0].var, bad),) + block.post[1:])
    model.programs["C1"] = AgentProgram("C1", prog.locals_, tuple(phases))
    with pytest.raises(UsageError, match="present time"):
        execute_kbp(model, scen_unknown)


def test_eval_local_expr_over_observation(sys_unknown):
    run = run_of(sys_unknown, [2, 2, 2], [1, 1, 1])
    hist = observation_of(sys_unknown, Point(run, 3), "C1")
    # kc guess for slot 2 on the left figure run: requested and rr[2] = 1
    assert eval_local_expr("!(slot_request == 2 && !rr[2])", hist) is True
    assert eval_local_expr("true", hist) is True
    # cf3 for slot 1 with reservation pattern (1,0,0) seen from slot_request 2
    run2 = run_of(sys_unknown, [2, 2, 1], [1, 1, 1])
    hist2 = observation_of(sys_unknown, Point(run2, 3), "C1")
    rr = [hist2.value(f"rr[{u}]") for u in (1, 2, 3)]
    assert rr == [True, False, False]
    cf3 = dc.builtin_predicate("cf3")
    assert eval_local_expr(cf3.expr, hist2, slot=1) is True


def test_eval_local_expr_rejects_future_reads(sys_unknown):
    hist = observation_of(sys_unknown, Point(0, 3), "C1")
    with pytest.raises(ModelError):
        eval_local_expr("rr[5]", hist)


def test_observation_and_run_vector_views_agree(sys_unknown):
    # one history's scalar view and the run-vector view of the same time give
    # the same value, and refuse the same too-early reads
    exprs = [(pred.expr, s) for pred in dc.final_predicates().values()
             for s in range(1, 4)]
    runs = random.Random(31).sample(range(sys_unknown.n_runs), 12)
    for t in range(sys_unknown.horizon + 1):
        for agent in sys_unknown.agents:
            vectors = []
            for expr, s in exprs:
                try:
                    vectors.append(le.eval_expr(expr, sys_unknown, agent, t, s))
                except ModelError:
                    vectors.append(None)
            if t == sys_unknown.horizon:
                assert all(v is not None for v in vectors)
            for run in runs:
                hist = observation_of(sys_unknown, Point(run, t), agent)
                for (expr, s), vec in zip(exprs, vectors):
                    if vec is None:
                        with pytest.raises(ModelError):
                            eval_local_expr(expr, hist, slot=s)
                    else:
                        assert eval_local_expr(expr, hist, slot=s) == bool(vec[run])
