import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute
from conftest import run_of
from kbpcheck import dc, model
from kbpcheck.engine import generate_runs
from kbpcheck.model import InterpretedSystem, ModelError, Point, UsageError, VariableDecl
from scalar import observation_of


def test_variable_decl_rejects_empty_domain():
    with pytest.raises(UsageError):
        VariableDecl("x", (), None, frozenset())


def test_system_rejects_unknown_owner_and_observer(model3, scen_unknown):
    with pytest.raises(UsageError):
        InterpretedSystem(("C1",), 2,
                          [VariableDecl("x", (0, 1), "C9", frozenset())], 1)
    with pytest.raises(UsageError):
        InterpretedSystem(("C1",), 2,
                          [VariableDecl("x", (0, 1), None, frozenset({"C9"}))], 1)


def _one_const(domain, values):
    system = InterpretedSystem(("A",), 1, [VariableDecl("x", domain, "A", frozenset({"A"}))],
                               len(values))
    system.set_const("x", np.array(values, dtype=np.uint8))
    return system


def test_finalize_lists_values_above_a_contiguous_domain():
    with pytest.raises(ModelError, match=r"'x' outside its domain: \[3, 5\]$"):
        _one_const((0, 1, 2), [0, 5, 2, 3, 1, 5]).finalize()


def test_finalize_lists_values_in_the_gap_of_a_domain():
    # 1 lies between the domain's min and max, so only the exact check finds it
    with pytest.raises(ModelError, match=r"'x' outside its domain: \[1\]$"):
        _one_const((0, 2), [0, 2, 1, 2]).finalize()
    assert _one_const((0, 2), [2, 0, 2]).finalize().n_runs == 3


def test_finalize_accepts_a_system_without_runs():
    system = InterpretedSystem(("A",), 1, [VariableDecl("x", (0, 1), "A", frozenset({"A"})),
                                           VariableDecl("y", (1,), None, frozenset({"A"}))], 0)
    system.set_const("x", np.zeros(0, dtype=np.uint8))
    system.set_step("y", np.zeros((2, 0), dtype=np.uint8))
    assert system.finalize() is system
    for t in (0, 1):
        labels, n_blocks = system.partition_labels("A", t)
        assert labels.dtype == np.int64 and labels.shape == (0,) and n_blocks == 0


def test_grouping_wider_than_63_bits_matches_tuples():
    # 30 const and 70 step observations: the packed key space outgrows the
    # 400 classes many times at every time, so it is relabelled on the way;
    # the labels must still be the first-occurrence numbering of the plain
    # observation tuples
    rng = np.random.default_rng(5)
    n, horizon = 400, 2
    const = rng.integers(0, 2, (6, 30))[rng.integers(0, 6, n)]
    step = np.stack([rng.integers(0, 2, (3, 70))[rng.integers(0, 3, n)]
                     for _ in range(horizon + 1)])             # time x run x variable
    decls = [VariableDecl(f"c{i}", (False, True), None, frozenset({"A"})) for i in range(30)]
    decls += [VariableDecl(f"s{i}", (False, True), None, frozenset({"A"})) for i in range(70)]
    system = InterpretedSystem(("A",), horizon, decls, n)
    for i in range(30):
        system.set_const(f"c{i}", const[:, i])
    for i in range(70):
        system.set_step(f"s{i}", step[:, :, i])
    system.finalize()
    for t in range(horizon + 1):
        first = {}
        expected = [first.setdefault(tuple(const[r]) + tuple(step[:t + 1, r].ravel()), len(first))
                    for r in range(n)]
        labels, n_blocks = system.partition_labels("A", t)
        assert labels.tolist() == expected
        assert n_blocks == len(first) > 6


def test_grouping_packs_a_domain_with_gaps_by_its_largest_value():
    # domain (0, 1, 4) needs 3 bits, not the 2 that 3 values would suggest:
    # records (0, 4), (1, 0) and (1, 4) must stay apart
    decls = [VariableDecl(name, (0, 1, 4), None, frozenset({"A"})) for name in "xy"]
    system = InterpretedSystem(("A",), 0, decls, 4)
    system.set_const("x", np.array([0, 1, 0, 1], dtype=np.uint8))
    system.set_const("y", np.array([4, 0, 0, 4], dtype=np.uint8))
    labels, n_blocks = system.finalize().partition_labels("A", 0)
    assert labels.tolist() == [0, 1, 2, 3] and n_blocks == 4


def _sorted_reference_labels(system, agent):
    """class_labels at every time, rebuilt through the sort-based reference."""
    names = system._basis(agent)
    steps = [n for n in names if system._traces[n].kind == "step"]
    found = [brute.group_sorted([system.class_column(n, 0) for n in names],
                                [system.variables[n].bits() for n in names], None)]
    for t in range(1, system.horizon + 1):
        prev, n_prev = found[-1]
        found.append(brute.group_sorted([system.class_column(n, t) for n in steps],
                                        [system.variables[n].bits() for n in steps],
                                        (system.widen(prev, system.n_classes(t)), n_prev)))
    return found


def _assert_labels_match_reference(system):
    counts = {}
    for agent in system.agents:
        for t, (expected, n_expected) in enumerate(_sorted_reference_labels(system, agent)):
            labels, n_blocks = system.class_labels(agent, t)
            assert np.array_equal(labels, expected) and labels.dtype == np.int64
            assert n_blocks == n_expected
            counts.setdefault(agent, []).append(n_blocks)
    return counts


def test_class_labels_match_the_sorted_reference_on_the_naive_system(naive2):
    counts = _assert_labels_match_reference(naive2)
    assert counts == {a: [6, 96, 1536, 17408, 188416] for a in naive2.agents}


def test_class_labels_match_the_sorted_reference_at_eight_slots():
    system = generate_runs(dc.build_cdc(dc.DcParams(slots=8)), dc.unknown_scenario(slots=8),
                           "reduced")
    assert system.variables["C1.slot_request"].bits() == 4
    _assert_labels_match_reference(system)


@st.composite
def _grouping_inputs(draw):
    n = draw(st.integers(0, 40))
    bits = draw(st.lists(st.integers(1, 8), max_size=6))
    cols = [np.array(draw(st.lists(st.integers(0, (1 << b) - 1), min_size=n, max_size=n)),
                     dtype=np.uint8) for b in bits]
    prev = None
    if draw(st.booleans()) or not bits:
        n_prev = draw(st.integers(1, max(1, n)))
        prev = (np.array(draw(st.lists(st.integers(0, n_prev - 1), min_size=n, max_size=n)),
                         dtype=np.int64), n_prev)
    return cols, bits, prev


@given(_grouping_inputs())
@example(([np.arange(4, dtype=np.uint8) * 60 for _ in range(3)], [8, 8, 8], None))
@example(([np.array([1, 0, 1, 0, 1], dtype=np.uint8)] * 4, [1, 2, 3, 1],
          (np.array([2, 2, 0, 1, 0]), 3)))
@settings(max_examples=300, deadline=None)
def test_grouping_matches_the_sorted_reference(case):
    # small class counts against keys of up to 48 bits force the relabel
    cols, bits, prev = case
    spaces, first_occurrence = [], model._first_occurrence

    def spy(keys, space):
        spaces.append(space)
        return first_occurrence(keys, space)

    with mock.patch.object(model, "_first_occurrence", spy):
        labels, n_blocks = InterpretedSystem._group(cols, bits, prev)
    n = len(labels)
    assert max(spaces) <= max(n, 1) << max(bits, default=0)     # the table's size
    expected, n_expected = brute.group_sorted(cols, bits, prev)
    assert np.array_equal(labels, expected) and n_blocks == n_expected
    records = list(zip(*([] if prev is None else [prev[0].tolist()]),
                       *(c.tolist() for c in cols)))
    first = {}
    assert labels.tolist() == [first.setdefault(r, len(first)) for r in records]


def test_observation_of_figure_pair(sys_unknown):
    run = run_of(sys_unknown, [2, 2, 2], [1, 1, 1])
    hist = observation_of(sys_unknown, Point(run, 3), "C1")
    assert hist.time == 3
    derived_rr = [hist.value(f"rr[{u}]", 3) for u in (1, 2, 3)]
    assert derived_rr == [False, True, False]
    hist6 = observation_of(sys_unknown, Point(run, 6), "C1")
    assert [hist6.value(f"rr[{u}]") for u in range(1, 7)] == \
        [False, True, False, False, True, False]


def test_observation_time0_contains_only_initials(sys_unknown):
    hist = observation_of(sys_unknown, Point(0, 0), "C2")
    assert len(hist.records) == 1
    assert hist.value("C2.slot_request") == 0
    # announcement-derived values are all still at their initial false
    assert all(hist.value(f"rr[{u}]") is False for u in range(1, 7))


def test_observation_determinism(sys_unknown):
    a = observation_of(sys_unknown, Point(17, 4), "C3")
    b = observation_of(sys_unknown, Point(17, 4), "C3")
    assert a == b and hash(a) == hash(b)


def test_partition_time0_has_8_blocks_per_agent(sys_unknown):
    # derived independently: own slot_request in 0..3 x own msg in {0,1}
    expected = len(brute.blocks(brute.enumerate_vs(), 0, 0))
    assert expected == 8
    for agent in sys_unknown.agents:
        labels, n_blocks = sys_unknown.partition_labels(agent, 0)
        sizes = np.bincount(labels)
        assert n_blocks == len(sizes) == 8
        assert sizes.sum() == 512
        assert (sizes == 64).all()      # the other two agents' 4^2 * 2^2 initials


def test_partition_matches_brute_force_block_counts(sys_unknown):
    vs = brute.enumerate_vs()
    for agent_idx, agent in enumerate(sys_unknown.agents):
        for t in (1, 3, 6):
            expected = len(brute.blocks(vs, agent_idx, t))
            _, n_blocks = sys_unknown.partition_labels(agent, t)
            assert n_blocks == expected


def test_figure_pair_same_block_for_c1_not_c2(sys_unknown):
    left = run_of(sys_unknown, [2, 2, 2], [1, 1, 1])
    right = run_of(sys_unknown, [2, 0, 0], [1, 1, 1])
    for t in range(7):
        labels, _ = sys_unknown.partition_labels("C1", t)
        assert labels[left] == labels[right]
    labels, _ = sys_unknown.partition_labels("C2", 1)
    assert labels[left] != labels[right]   # C2's own slot_request differs


def test_own_initials_always_separate(sys_unknown):
    # two runs differing in C1's own slot_request never share a C1 block
    a = run_of(sys_unknown, [1, 0, 0], [0, 0, 0])
    b = run_of(sys_unknown, [2, 0, 0], [0, 0, 0])
    for t in range(7):
        labels, _ = sys_unknown.partition_labels("C1", t)
        assert labels[a] != labels[b]


def test_partition_soundness_against_full_histories(sys_unknown):
    # same block <=> equal ObservationHistory, for every agent and time
    for agent in sys_unknown.agents:
        for t in range(7):
            labels, n_blocks = sys_unknown.partition_labels(agent, t)
            by_history = {}
            for run in range(sys_unknown.n_runs):
                key = observation_of(sys_unknown, Point(run, t), agent)
                by_history.setdefault(key, set()).add(int(labels[run]))
            assert len(by_history) == n_blocks
            assert all(len(ls) == 1 for ls in by_history.values())
            seen = [next(iter(ls)) for ls in by_history.values()]
            assert len(set(seen)) == n_blocks


def test_fingerprint_basis_equals_full_history_grouping(model2):
    # partitions group on the primitive observations (initials, keys, raw
    # announcements); regrouping on *every* observable column, bookkeeping
    # included, must give the identical partition
    scen = dc.custom_scenario("C1.slot_request == 1 && C2.slot_request == 1")
    scen.slot_request = {a: (0, 1, 2) for a in ("C1", "C2", "C3")}
    small = generate_runs(model2, scen, "naive")
    assert small.n_runs == 3 * 8 * 2 ** 12
    for agent, t in (("C1", 2), ("C2", 4)):
        labels, n_blocks = small.partition_labels(agent, t)
        cols = [small.column(name, u)
                for u in range(t + 1)
                for name in small.observable_names(agent)]
        matrix = np.stack(cols, axis=1)
        _, inverse = np.unique(matrix, axis=0, return_inverse=True)
        assert len(np.unique(inverse)) == n_blocks
        pairs = (labels.astype(np.int64) << 32) | inverse.astype(np.int64)
        assert len(np.unique(pairs)) == n_blocks


def test_perfect_recall_refinement(sys_unknown):
    for agent in sys_unknown.agents:
        for t in range(1, 7):
            prev, _ = sys_unknown.partition_labels(agent, t - 1)
            cur, n_blocks = sys_unknown.partition_labels(agent, t)
            pairs = (cur.astype(np.int64) << 32) | prev.astype(np.int64)
            assert len(np.unique(pairs)) == n_blocks


def test_state_and_run_views(sys_unknown):
    run = run_of(sys_unknown, [2, 0, 0], [1, 1, 1])
    assert sys_unknown.column("C1.slot_request", 0)[run] == 2
    assert sys_unknown.column("rr[5]", 5)[run] == 1
    assert sys_unknown.column("rr[5]", 4)[run] == 0     # not yet announced


def test_pinned_single_run_count(model3):
    system = generate_runs(model3, dc.pinned_scenario([2, 2, 2], [1, 1, 1]), "reduced")
    assert system.n_runs == 1


@pytest.mark.parametrize("name", ["k12", "said[2]"])
def test_finalize_refuses_a_step_trace_finer_than_its_time(model2, name):
    system = generate_runs(model2, dc.pinned_scenario([1, 2, 0], [1, 0, 1], slots=2), "naive")
    assert system.branching == 8 and system.finalize() is system
    # time 1 may be stored at level 0 or 1, not at level 2
    values = [system.class_column(name, t) for t in range(system.horizon + 1)]
    values[1] = system.widen(values[1], system.n_classes(2))
    system.set_step(name, values)
    with pytest.raises(ModelError, match=rf"{re.escape(repr(name))} at time 1 is not a class "
                                         r"vector of a level up to 1$"):
        system.finalize()
