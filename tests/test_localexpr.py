import gzip
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbpcheck import cli, dc, refine
from kbpcheck import formula as fm
from kbpcheck import localexpr as le
from kbpcheck.engine import generate_runs
from kbpcheck.model import InterpretedSystem, ModelError, UsageError, VariableDecl
from scalar import eval_local


def flat(name):
    return name if name.startswith("rr[") else f"C1.{name}"


def history(values, time):
    """C1's history at `time`, from a dict keyed by its local names (rr[u],
    kc[s], msg, ...): the time and the valuation of its flat names."""
    return time, {flat(name): value for name, value in values.items()}


def view(time=6, **values):
    defaults = {"slot_request": 2, "msg": True, "dlvrd": False}
    defaults.update({f"rr[{u}]": False for u in range(1, 7)})
    defaults.update({f"kc[{s}]": False for s in (1, 2, 3)})
    defaults.update(values)
    return history(defaults, time)


def ev(expr, v=None, slot=None):
    time, valuation = v or view()
    return eval_local(expr, "C1", time, valuation, slot)


def vec(text, system, agent, time):
    return le.eval_expr(text, system, agent, time)


def test_constants_and_bool_ops():
    assert ev("true") is True
    assert ev("false") is False
    assert ev("!false && (true || false)") is True
    assert ev("true == false") is False
    assert ev("true != false") is True


def test_refs_and_slot_comparisons():
    v = view(**{"rr[2]": True})
    assert ev("rr[2]", v) is True
    assert ev("slot_request == 2", v) is True
    assert ev("slot_request != 2", v) is False
    assert ev("slot_request in {1, 3}", v) is False
    assert ev("slot_request in 1..3 except 3", v) is True
    assert ev("msg", v) is True


def test_slot_parameter_substitution():
    v = view(**{"rr[3]": True})
    assert ev("rr[s]", v, slot=3) is True
    assert ev("slot_request == s", v, slot=2) is True
    assert ev("rr[s+3]", v, slot=1) is False
    with pytest.raises(UsageError):
        ev("rr[s]", v)          # no slot given


def test_any_binder():
    v = view(**{"rr[1]": True})
    assert ev("any t in 1..3: rr[t]", v) is True
    assert ev("any t in 1..3 except 1: rr[t]", v) is False
    assert ev("any t in 1..3 except s: rr[t]", v, slot=1) is False
    assert ev("any t in 1..3 except s: slot_request == t && !rr[t]", v, slot=1) is True


def test_reading_future_round_result_is_model_error():
    v = view(time=3)
    with pytest.raises(ModelError):
        ev("rr[5]", v)
    # resolved via the slot parameter too
    with pytest.raises(ModelError):
        ev("rr[s+3]", v, slot=2)


def test_unassigned_bookkeeping_reads_as_false(model3, sys_unknown):
    # the run set stores a latched local as false before the step that
    # assigns it; compiling only refuses rr[u] before step u
    for agent in sys_unknown.agents:
        program = model3.programs[agent]
        for name in [f"{b}[{s}]" for b in ("kc", "rcvd0") for s in (1, 2, 3)] + ["dlvrd"]:
            step = program.assignment_step(name)
            for t in range(step):
                assert not vec(name, sys_unknown, agent, t).any()
            assert vec(name, sys_unknown, agent, sys_unknown.horizon).any()
        for u in range(1, sys_unknown.horizon + 1):
            with pytest.raises(ModelError):
                vec(f"rr[{u}]", sys_unknown, agent, u - 1)


def test_unknown_name_is_model_error():
    with pytest.raises(ModelError):
        ev("rr[9]")


def test_non_expression_is_a_type_error():
    with pytest.raises(TypeError):
        ev(None)


def test_parse_errors_carry_positions():
    for bad in ("rr[", "slot_request ==", "any t in 1..3 rr[t]", "msg &&", "@@"):
        with pytest.raises(UsageError):
            le.to_formula(bad, "C1", 6)


def test_to_formula_grounds_slot():
    _, valuation = view(**{"rr[2]": True, "rr[5]": True, "slot_request": 1})
    ground = le.to_formula("rr[s] && slot_request != s && rr[s+3]", "C1", 6, 2,
                           tuple(valuation))
    assert fm.fmt(ground) == "rr[2] == 1 && C1.slot_request != 2 && rr[5] == 1"
    assert fm.eval_on_valuation(ground, valuation) is True


def test_vector_scalar_agreement():
    rng = np.random.default_rng(42)
    exprs = [
        "!(slot_request == s && !rr[s])",
        "rr[s] && (any t in 1..3 except s: rr[t])",
        "rr[s] && ((any t in 1..3 except s: rr[t]) || slot_request != s)",
        "rr[s+3] != msg && slot_request == s",
        "msg || (dlvrd && rr[1])",
    ]
    n = 200
    cols = {"slot_request": rng.integers(0, 4, n).astype(np.uint8),
            "msg": rng.integers(0, 2, n).astype(np.uint8),
            "dlvrd": rng.integers(0, 2, n).astype(np.uint8)}
    for u in range(1, 7):
        cols[f"rr[{u}]"] = rng.integers(0, 2, n).astype(np.uint8)
    system = InterpretedSystem(("C1",), 6, [
        VariableDecl(flat(name), tuple(range(4)) if name == "slot_request" else (False, True),
                     None if name.startswith("rr[") else "C1", frozenset({"C1"}))
        for name in cols], n, meta={"vocabulary": {"C1": tuple(map(flat, cols))}})
    for name, col in cols.items():
        system.set_const(flat(name), col)
    system.finalize()
    for expr in exprs:
        for slot in (1, 2, 3):
            vector = le.eval_expr(expr, system, "C1", 6, slot)
            for i in range(0, n, 17):
                scalar_cols = {k: (bool(v[i]) if k != "slot_request" else int(v[i]))
                               for k, v in cols.items()}
                sv = history(scalar_cols, 6)
                assert bool(vector[i]) == ev(expr, sv, slot=slot)


@given(st.integers(0, 3), st.booleans(), st.lists(st.booleans(), min_size=6, max_size=6),
       st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_guess_chain_monotone_pointwise(sr, msg, rr, slot):
    from kbpcheck import dc
    values = {"slot_request": sr, "msg": msg}
    values.update({f"rr[{u}]": rr[u - 1] for u in range(1, 7)})
    v = history(values, 6)
    cf = [ev(dc.builtin_predicate(name).expr, v, slot=slot)
          for name in ("cf1", "cf2", "cf3")]
    assert (not cf[0]) or cf[1]
    assert (not cf[1]) or cf[2]


# ---------------------------------------------------------------------------
# The scope: what a name means in an agent's code


def compiled(text, time=6, slot=None):
    _, valuation = view(time)
    return le.to_formula(text, "C1", time, slot, tuple(valuation))


def rr(u):
    return fm.Atom(None, f"rr[{u}]", "==", 1)


def own(name, op="==", value=1):
    return fm.Atom("C1", name, op, value)


@pytest.fixture(scope="module")
def naive_pinned():
    return generate_runs(dc.build_cdc(dc.DcParams(slots=2)),
                         dc.pinned_scenario([1, 2, 0], [1, 0, 1], slots=2), "naive")


@pytest.mark.parametrize("name", ["contrib", "oxr", "k12", "said[1]"])
def test_engine_observations_are_unknown_history_variables(sys_unknown, naive_pinned, name):
    # the agent observes them, but its code reads only its locals and rr
    for system in (sys_unknown, naive_pinned):
        for agent in system.agents:
            message = f"unknown history variable {name!r} (agent {agent})"
            with pytest.raises(ModelError, match=re.escape(message)):
                refine.candidate_formula(system, name, agent, system.horizon, 1)


@pytest.mark.parametrize("text", ["K[C1](msg)", "Khat[C1](msg)", "X msg", "!X msg",
                                  "conflict(1)", "C1.msg", "slot_request",
                                  "msg && slot_request", "slot_request && msg"])
def test_non_local_forms_are_refused(text):
    with pytest.raises(UsageError, match="^local expression: "):
        compiled(text, slot=1)
    with pytest.raises(UsageError, match="^local expression: "):
        le.to_formula(text, None, 0)        # the syntax check alone


@pytest.mark.parametrize("text", ["msg == 2", "rr[1] in {3}", "kc[1] != 5", "msg in {0, 5}",
                                  "any t in 1..0: msg == 2"])
def test_bit_values_outside_0_1_are_refused(text):
    with pytest.raises(UsageError, match="^local expression: value .* outside the domain"):
        compiled(text, slot=1)
    with pytest.raises(UsageError, match="^local expression: value .* outside the domain"):
        le.to_formula(text, None, 0)        # the syntax check alone


def test_a_bit_compared_with_the_slot_is_refused_once_the_slot_is_known():
    assert compiled("kc[1] in {s}", slot=1) == own("kc[1]")
    with pytest.raises(UsageError, match="^local expression: value 3 outside the domain"):
        compiled("kc[1] in {s}", slot=3)
    assert compiled("slot_request in {s}", slot=3) == own("slot_request", "==", 3)


def test_empty_binder_is_false_and_only_its_syntax_is_checked():
    assert compiled("any t in 1..1 except 1: rr[9]") == fm.FALSE
    assert compiled("any t in 1..0: rr[s] && contrib && rr[t+5] && rr[w]", time=3) == fm.FALSE
    with pytest.raises(UsageError, match="^local expression: "):
        compiled("any t in 1..0: rr[")


def test_nested_binders_shadow_and_the_outer_binding_returns():
    inner = fm.Or(rr(3), rr(4))
    assert compiled("any t in 1..2: (any t in 3..4: rr[t]) && rr[t]") == \
        fm.Or(fm.And(inner, rr(1)), fm.And(inner, rr(2)))


def test_comparisons_bind_tighter_than_and():
    assert compiled("rr[s+3] != msg && slot_request == s", slot=2) == \
        fm.And(fm.Not(fm.Iff(rr(5), own("msg"))), own("slot_request", "==", 2))
    # true/false after == are constants, not atom values
    assert compiled("msg == true") == fm.Iff(own("msg"), fm.TRUE)
    assert compiled("slot_request in 1..3 except s", slot=2) == \
        fm.Or(own("slot_request", "==", 1), own("slot_request", "==", 3))


# the reprs of the compiled statements below, one a line, written at the commit
# before local expressions were parsed by the formula parser (its sha256 is
# 5633bfe2941396b633f7e204550120e2c31b5117b3eb0c8333b1c1162f70a409)
PINNED_PROGRAMS = Path(__file__).parent / "golden" / "compiled_programs.txt.gz"
BUILTINS = ("kc_guess", "cf1", "cf2", "cf3", "rcvd1_g1", "rcvd1_final",
            "rcvd0_g1", "rcvd0_final", "dlvrd_final")


def test_compiled_programs_are_pinned():
    items = []
    for slots in range(2, 9):
        for mode in dc.MODES:
            model = dc.build_cdc(dc.DcParams(slots, mode))
            items += [repr(model.programs[a]) for a in dc.AGENTS]
    for scen in (dc.unknown_scenario(), dc.referendum_scenario()):
        kc = cli.conservative_kc_predicate(scen)
        model = dc.build_cdc(dc.DcParams(mode="conservative"), dict(dc.final_predicates(), kc=kc))
        items += [repr(model.programs[a]) for a in dc.AGENTS]
        system = cli.kbp_system(scen, "speculative")
        items += [repr(refine.candidate_formula(system, dc.builtin_predicate(name), a, 6, s))
                  for name in BUILTINS for a in dc.AGENTS for s in (1, 2, 3)]
    pinned = gzip.decompress(PINNED_PROGRAMS.read_bytes()).decode().splitlines()
    assert len(items) == len(pinned) == 210
    for i, (item, expected) in enumerate(zip(items, pinned)):
        assert item == expected, f"compiled statement {i} differs"
