import json

import numpy as np
import pytest

import brute
from conftest import run_of
from kbpcheck import dc
from kbpcheck import formula as fm
from kbpcheck import localexpr as le
from kbpcheck.engine import local_vocabulary
from kbpcheck.model import Point, UsageError
from scalar import eval_local


def holds_at(system, v, phi, time):
    return fm.eval_at(system, phi, Point(run_of(system, v[0], v[1]), time))


def test_conflict_macro_cases(sys_unknown):
    c2 = dc.conflict_macro(2)
    assert holds_at(sys_unknown, ([2, 2, 2], [1, 1, 1]), c2, 0)
    for s in (1, 2, 3):
        assert not holds_at(sys_unknown, ([1, 2, 3], [0, 0, 0]),
                            dc.conflict_macro(s), 0)
    assert holds_at(sys_unknown, ([3, 1, 3], [0, 0, 0]), dc.conflict_macro(3), 0)
    assert not holds_at(sys_unknown, ([3, 1, 3], [0, 0, 0]), dc.conflict_macro(1), 0)
    with pytest.raises(UsageError):
        dc.conflict_macro(4)
    with pytest.raises(UsageError):
        dc.conflict_macro(0)


def test_sender_macro_cases(sys_unknown):
    v = ([1, 1, 1], [1, 1, 0])
    assert holds_at(sys_unknown, v, dc.sender_macro("C1", 1, 1), 0)
    assert holds_at(sys_unknown, v, dc.sender_macro("C1", 0, 1), 0)
    # nobody requests slot 2
    for x in (0, 1):
        assert not holds_at(sys_unknown, v, dc.sender_macro("C1", x, 2), 0)
    # only C1 itself requests slot 2
    v2 = ([2, 0, 0], [1, 1, 1])
    for x in (0, 1):
        assert not holds_at(sys_unknown, v2, dc.sender_macro("C1", x, 2), 0)
    with pytest.raises(UsageError):
        dc.sender_macro("C9", 1, 1)
    with pytest.raises(UsageError):
        dc.sender_macro("C1", 2, 1)
    with pytest.raises(UsageError):
        dc.sender_macro("C1", 1, 9)


def test_macros_via_parser(sys_unknown):
    phi = fm.parse_formula("sender(C1,1,2) || conflict(3)", model=sys_unknown,
                           macros=dc.dc_macros())
    atoms = list(fm.atoms_of(phi))
    assert len(atoms) == 4 + 6


def test_builtin_predicate_table():
    names = ("kc_guess", "cf1", "cf2", "cf3", "rcvd1_g1", "rcvd1_final",
             "rcvd0_g1", "rcvd0_final", "dlvrd_final")
    model = dc.build_cdc(dc.DcParams())
    vocabulary = local_vocabulary("C1", model.programs["C1"].locals_, model.horizon)
    for name in names:
        pred = dc.builtin_predicate(name)
        assert le.to_formula(pred.expr, "C1", model.horizon, 1, vocabulary) is not None
    with pytest.raises(UsageError):
        dc.builtin_predicate("nope")


def test_kc_guess_reading():
    # requested the slot and its reservation round came back 0: conflict known
    pred = dc.builtin_predicate("kc_guess")
    hist = {"C1.slot_request": 2, "C1.msg": True}
    hist.update({f"rr[{u}]": False for u in range(1, 7)})
    assert eval_local(pred.expr, "C1", 3, hist, slot=2) is False
    hist2 = dict(hist, **{"rr[2]": True})
    assert eval_local(pred.expr, "C1", 3, hist2, slot=2) is True
    assert eval_local(pred.expr, "C1", 3, hist, slot=1) is True     # not my slot


def test_dlvrd_trivial_when_silent():
    pred = dc.builtin_predicate("dlvrd_final")
    hist = {"C1.slot_request": 0, "C1.msg": False}
    hist.update({f"rr[{u}]": False for u in range(1, 7)})
    assert eval_local(pred.expr, "C1", 6, hist) is True


def test_spec_shapes_and_times():
    phi, t = dc.spec("1s", "C1", 1)
    assert t == 3 and isinstance(phi, fm.Iff)
    assert fm.fmt(phi).startswith("C1.kc[1] == 1 <=> !K[C1](")
    phi, t = dc.spec("2", "C1", 2)
    assert t == 6 and isinstance(phi, fm.Implies)
    phi, t = dc.spec("4b", "C2", 3)
    assert t == 6 and isinstance(phi, fm.Iff)
    phi, t = dc.spec("4b", "C2", 1)
    assert t == 4
    phi, t = dc.spec("5", "C3")
    assert t == 6
    # nested knowledge: K_i ... K_j
    nested = [s for s in fm.subformulas(phi) if isinstance(s, fm.Know)]
    assert any(isinstance(inner, fm.Know)
               for outer in nested for inner in fm.subformulas(outer.child))
    phi, t = dc.spec("6", "C1")
    assert t == 6
    with pytest.raises(UsageError):
        dc.spec("7", "C1")
    with pytest.raises(UsageError):
        dc.spec("2", "C1", None)
    with pytest.raises(UsageError):
        dc.spec("1s", "C9", 1)
    for sid in dc.SLOTLESS_SPECS:
        with pytest.raises(UsageError, match="ranges over no slot"):
            dc.spec(sid, "C1", 2)


def test_spec_instances():
    assert len(dc.spec_instances("1s")) == 9
    assert len(dc.spec_instances("5")) == 3
    assert dc.spec_instances("2", agent="C2", slot=3) == [("C2", 3)]
    assert len(dc.spec_instances("4a", slots=2)) == 6
    for sid in dc.SLOTLESS_SPECS:
        assert dc.spec_instances(sid, agent="C1") == [("C1", None)]
        with pytest.raises(UsageError, match="ranges over no slot"):
            dc.spec_instances(sid, slot=2)


def test_scenarios():
    assert len(brute.enumerate_vs()) == 512
    assert len(brute.enumerate_vs(referendum=True)) == 216
    unknown = dc.unknown_scenario()
    assert unknown.slot_request["C1"] == (0, 1, 2, 3)
    ref = dc.referendum_scenario()
    assert ref.slot_request["C2"] == (1, 2, 3)
    with pytest.raises(UsageError):
        dc.pinned_scenario([1, 2], [0, 0, 0])
    with pytest.raises(UsageError):
        dc.pinned_scenario([1, 2, 9], [0, 0, 0])
    with pytest.raises(UsageError):
        dc.scenario_by_name("bogus")


def test_build_cdc_requires_complete_predicates():
    with pytest.raises(UsageError):
        dc.build_cdc(dc.DcParams(), {"kc": None})
    with pytest.raises(UsageError):
        dc.DcParams(mode="bold")


def test_per_slot_predicate_without_an_expression_is_a_usage_error():
    # a synthesized table too wide to minimize carries no expression (None)
    kc = dc.PerSlotPredicate("kc_wide", "kc", {1: "true", 2: None, 3: "true"})
    with pytest.raises(UsageError, match="slot 2"):
        dc.build_cdc(dc.DcParams(), dict(dc.final_predicates(), kc=kc))


def test_scenario_file_round_trip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "model": "dc3", "mode": "speculative", "scenario": "pinned",
        "pinned": {"slot_request": [2, 0, 0], "msg": [1, 1, 1]}}))
    scenario, mode = dc.load_scenario_file(str(path))
    assert mode == "speculative"
    assert scenario.slot_request == {"C1": (2,), "C2": (0,), "C3": (0,)}
    path.write_text(json.dumps({"scenario": "custom",
                                "constraint": "C1.slot_request != 0"}))
    scenario, mode = dc.load_scenario_file(str(path))
    assert scenario.constraint is not None
    path.write_text(json.dumps({"scenario": "referendum", "mode": "conservative"}))
    scenario, mode = dc.load_scenario_file(str(path))
    assert mode == "conservative" and scenario.name == "referendum"
    path.write_text("{broken")
    with pytest.raises(UsageError):
        dc.load_scenario_file(str(path))
    path.write_text(json.dumps({"model": "dc4"}))
    with pytest.raises(UsageError):
        dc.load_scenario_file(str(path))


def test_predicates_file(tmp_path):
    path = tmp_path / "preds.json"
    chain = [dc.builtin_predicate(n) for n in ("cf1", "cf2", "cf3")]
    path.write_text(json.dumps([{"name": p.name, "target": p.target, "expr": p.expr}
                                for p in chain]))
    loaded = dc.load_predicates_file(str(path))
    assert [p.name for p in loaded] == ["cf1", "cf2", "cf3"]
    assert loaded[0].expr == chain[0].expr
    path.write_text(json.dumps([]))
    with pytest.raises(UsageError):
        dc.load_predicates_file(str(path))
    path.write_text(json.dumps([{"name": "x", "target": "bogus", "expr": "true"}]))
    with pytest.raises(UsageError):
        dc.load_predicates_file(str(path))


def test_failed_own_reservation_means_known_conflict_forever(sys_unknown):
    # own contribution true with an even round result forces another requester
    ev = fm.Evaluator(sys_unknown)
    for s in (1, 2, 3):
        know = fm.Know("C1", dc.conflict_macro(s))
        own = (sys_unknown.column("C1.slot_request", 0) == s)
        rr_false = sys_unknown.column(f"rr[{s}]", s) == 0
        mask = own & rr_false
        assert mask.any()
        for t in range(s, 7):
            assert ev.vector(know, t)[mask].all()


def test_conflict_free_transmission_delivers_the_bit(sys_unknown):
    # whenever exactly one agent requests s, the slot carries its message
    sr = np.stack([sys_unknown.column(f"{a}.slot_request", 0)
                   for a in sys_unknown.agents])
    msg = np.stack([sys_unknown.column(f"{a}.msg", 0) for a in sys_unknown.agents])
    for s in (1, 2, 3):
        requesters = (sr == s)
        solo = requesters.sum(axis=0) == 1
        assert solo.any()
        sent = (requesters & (msg == 1)).any(axis=0)
        rr_tx = sys_unknown.column(f"rr[{s + 3}]", 6).astype(bool)
        assert np.array_equal(rr_tx[solo], sent[solo])


def test_target_formulas():
    know, t = dc.target_formula("kc", "C1", 2)
    assert t == 4 and isinstance(know, fm.Not)
    know, t = dc.target_formula("kc", "C1", 2, mode="conservative")
    assert isinstance(know, fm.Know)
    know, t = dc.target_formula("conflict_free", "C2", 1)
    assert t == 6
    know, t = dc.target_formula("rcvd1", "C1", 3)
    assert t == 6
    with pytest.raises(UsageError):
        dc.target_formula("bogus", "C1", 1)


def _target_of(var):
    """kc[2] -> ("kc", 2); dlvrd -> ("dlvrd", None)."""
    base, _, rest = var.partition("[")
    return base, (int(rest[:-1]) if rest else None)


def _expected_check_time(target, slot, slots):
    """kc[s] before slot s's transmission, rcvd right after it, dlvrd at the end."""
    if target == "dlvrd":
        return 2 * slots
    return slots + slot - 1 if target == "kc" else slots + slot


@pytest.mark.parametrize("slots", [2, 3, 4])
@pytest.mark.parametrize("mode", dc.MODES)
def test_programs_assign_targets_at_their_check_time(slots, mode):
    params = dc.DcParams(slots=slots, mode=mode)
    kbp, impl = dc.build_cdc(params, kbp=True), dc.build_cdc(params)
    indexed = [f"{t}[{s}]" for t in ("kc", "rcvd0", "rcvd1") for s in range(1, slots + 1)]
    for agent in dc.AGENTS:
        # the KBP assigns each rcvd/dlvrd variable its knowledge formula
        assigned = {}
        for step, block in enumerate(kbp.programs[agent].phases, start=1):
            for stmt in block.post:
                target, slot = _target_of(stmt.var)
                assert _expected_check_time(target, slot, slots) == step
                assert dc.target_formula(target, agent, slot, slots, mode) == \
                    (stmt.formula, step)
                assigned[stmt.var] = step
            if step > slots:
                # the transmission guard tests kc's formula, read at step - 1
                s = step - slots
                know, t = dc.target_formula("kc", agent, s, slots, mode)
                assert t == step - 1
                assert block.announce == fm.conj([fm.Atom(agent, "slot_request", "==", s),
                                                  know, fm.Atom(agent, "msg", "==", 1)])
        assert sorted(assigned) == sorted(
            [v for v in indexed if not v.startswith("kc")] + ["dlvrd"])
        # the implementation assigns every variable, kc included, at that step
        program = impl.programs[agent]
        for var in indexed + ["dlvrd"]:
            target, slot = _target_of(var)
            _, t = dc.target_formula(target, agent, slot, slots, mode)
            assert t == _expected_check_time(target, slot, slots)
            assert program.assignment_step(var) == t
        # its statements, announcements included, are compiled local
        # expressions, so none of them tests knowledge
        assert not any(isinstance(sub, fm.Know) for block in program.phases
                       for phi in (block.announce, *(stmt.formula for stmt in block.post))
                       for sub in fm.subformulas(phi))


@pytest.mark.parametrize("slots", [2, 3, 4])
def test_equivalence_specs_follow_target_formula(slots):
    specs = {"1s": ("kc", "speculative"), "1c": ("kc", "conservative"),
             "4a": ("rcvd0", "speculative"), "4b": ("rcvd1", "speculative"),
             "5": ("dlvrd", "speculative")}
    for sid, (target, mode) in specs.items():
        for agent, slot in dc.spec_instances(sid, slots):
            know, t = dc.target_formula(target, agent, slot, slots, mode)
            var = target if slot is None else f"{target}[{slot}]"
            assert dc.spec(sid, agent, slot, slots) == \
                (fm.Iff(fm.Atom(agent, var, "==", 1), know), t)
