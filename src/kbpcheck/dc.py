"""Multi-round Dining Cryptographers two-phase broadcast: the case study.

Three agents C1..C3 sit on a key ring (k12, k23, k31; each edge shared by its
two endpoints, fresh bits every step) and run a two-phase protocol over three
single-bit slots: steps 1..3 announce slot reservations, steps 4..6 carry the
transmissions.  An agent requests slot s by contributing true in reservation
round s (slot_request = 0 means it stays silent) and, if its conflict test
allows, contributes its message bit in transmission round s + 3.

This module builds both forms of the protocol:

  * the knowledge-based program, whose transmission guard is an epistemic
    test — speculative mode transmits unless the agent knows there is a
    conflict, conservative mode only when it knows there is none — and whose
    reception/delivery variables are assigned from knowledge formulas;
  * the generic implementation, where the guard and those variables are
    filled by concrete predicates of the agent's own history (the library
    below ships the refinement chain cf1 -> cf2 -> cf3 and the validated
    kc / rcvd / dlvrd predicates).

One table, target_formula, pairs each of these variables (kc[s], rcvd0[s],
rcvd1[s], dlvrd) with the knowledge formula it stands for and the time it is
checked at.  The KBP assigns the formula there, the implementation assigns
the predicate there, and the equivalence specifications (1s, 1c, 4a, 4b, 5)
state that the two agree there, so all three come from that one table.

It also owns the conflict/sender macros, the numbered correctness
specifications (1s, 1c, 2, 3, 4a, 4b, 5, 6) with their scheduled check times,
the stock scenarios, and the JSON file formats used by the CLI.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional, Sequence

from . import formula as fm
from . import localexpr as le
from .engine import (AgentProgram, Assign, PhaseBlock, ProtocolModel, Scenario,
                     local_vocabulary)
from .model import UsageError

AGENTS = ("C1", "C2", "C3")
KEY_EDGES = (("k12", ("C1", "C2")), ("k23", ("C2", "C3")), ("k31", ("C3", "C1")))
MODES = ("speculative", "conservative")
SPEC_IDS = ("1s", "1c", "2", "3", "4a", "4b", "5", "6")
SLOTLESS_SPECS = ("5", "6")     # the others range over the slots
PREDICATE_TARGETS = ("kc", "conflict_free", "rcvd0", "rcvd1", "dlvrd")


@dataclass
class DcParams:
    slots: int = 3
    mode: str = "speculative"

    def __post_init__(self):
        if self.mode not in MODES:
            raise UsageError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.slots < 2:
            raise UsageError("need at least 2 slots")

# ---------------------------------------------------------------------------
# Macros


def conflict_macro(s: int, slots: int = 3) -> fm.Formula:
    """Two distinct agents both requesting slot s."""
    if not 1 <= int(s) <= slots:
        raise UsageError(f"conflict: slot {s} outside 1..{slots}")
    pairs = []
    for i, j in combinations(AGENTS, 2):
        pairs.append(fm.And(fm.Atom(i, "slot_request", "==", int(s)),
                            fm.Atom(j, "slot_request", "==", int(s))))
    return fm.disj(pairs)


def sender_macro(agent: str, x: int, s: int, slots: int = 3) -> fm.Formula:
    """Some agent other than `agent` is sending message bit x in slot s."""
    if agent not in AGENTS:
        raise UsageError(f"sender: unknown agent {agent!r}")
    if int(x) not in (0, 1):
        raise UsageError(f"sender: message bit must be 0 or 1, got {x!r}")
    if not 1 <= int(s) <= slots:
        raise UsageError(f"sender: slot {s} outside 1..{slots}")
    return fm.disj(fm.And(fm.Atom(j, "msg", "==", int(x)),
                          fm.Atom(j, "slot_request", "==", int(s)))
                   for j in AGENTS if j != agent)


def dc_macros(slots: int = 3) -> dict:
    return {
        "conflict": lambda args: conflict_macro(_one_int(args, "conflict"), slots),
        "sender": lambda args: sender_macro(str(args[0]), _int(args[1], "sender"),
                                            _int(args[2], "sender"), slots)
        if len(args) == 3 else _bad_arity("sender", args),
    }


def _one_int(args, name):
    if len(args) != 1:
        _bad_arity(name, args)
    return _int(args[0], name)


def _int(value, name):
    try:
        return int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{name}: expected an integer argument, got {value!r}")


def _bad_arity(name, args):
    raise UsageError(f"{name}: wrong number of arguments ({len(args)})")

# ---------------------------------------------------------------------------
# Predicate library


@dataclass(frozen=True)
class PredicateDef:
    """A named, slot-parameterized local predicate: local-expression text."""

    name: str
    target: str
    expr: str

    def __post_init__(self):
        if self.target not in PREDICATE_TARGETS:
            raise UsageError(f"unknown predicate target {self.target!r}")

    def expr_for(self, slot: Optional[int]) -> str:
        """The expression the program assigns for `slot`; its 's' reads `slot`."""
        return self.expr


@dataclass
class PerSlotPredicate:
    """A predicate given by one ground expression per slot (e.g. synthesized
    tables rendered to their sum-of-products form)."""

    name: str
    target: str
    exprs: dict               # slot (or None) -> text

    def expr_for(self, slot: Optional[int]) -> str:
        # a synthesized table too wide to minimize has no expression (None)
        expr = self.exprs.get(slot)
        if expr is None:
            raise UsageError(f"{self.name}: no expression for slot {slot!r}")
        return expr


def _cf1_body(n: int, s="s") -> str:
    return f"any t in 1..{n} except {s}: rr[t]"


def _cf2_body(n: int, s="s") -> str:
    # the membership test slot_request in {1..n}\{s} with rr[slot_request]
    # false, written as the equivalent bounded disjunction
    return (f"({_cf1_body(n, s)}) || "
            f"(any t in 1..{n} except {s}: slot_request == t && !rr[t])")


def _cf3_text(n: int, s="s") -> str:
    return f"rr[{s}] && (({_cf2_body(n, s)}) || slot_request != {s})"


def _quiet_others(n: int) -> str:
    return f"!(any t in 1..{n} except s: rr[t])"


def builtin_predicate(name: str, slots: int = 3) -> PredicateDef:
    """The predicate library: the guess chain and the validated finals."""
    n = slots
    cf3 = _cf3_text(n)
    table = {
        "kc_guess": ("kc", "!(slot_request == s && !rr[s])"),
        "cf1": ("conflict_free", f"rr[s] && ({_cf1_body(n)})"),
        "cf2": ("conflict_free", f"rr[s] && ({_cf2_body(n)})"),
        "cf3": ("conflict_free", cf3),
        "rcvd1_g1": ("rcvd1", f"rr[s] && ({cf3}) && slot_request != s"),
        "rcvd0_g1": ("rcvd0", f"rr[s] && ({cf3}) && slot_request != s"),
        "rcvd1_final": ("rcvd1",
                        f"(rr[s] && ({cf3}) && slot_request != s && rr[s+{n}])"
                        f" || (slot_request == s && rr[s] && rr[s+{n}] != msg && {_quiet_others(n)})"),
        "rcvd0_final": ("rcvd0",
                        f"(rr[s] && ({cf3}) && slot_request != s && !rr[s+{n}])"
                        f" || (slot_request == s && rr[s] && rr[s+{n}] != msg && {_quiet_others(n)})"),
        "dlvrd_final": ("dlvrd", _dlvrd_text(n)),
    }
    if name not in table:
        raise UsageError(f"unknown builtin predicate {name!r} "
                         f"(known: {', '.join(sorted(table))})")
    target, expr = table[name]
    return PredicateDef(name, target, expr)


def _dlvrd_text(n: int) -> str:
    # delivered iff silent, or the agent's own slot is known conflict-free
    return " || ".join(["slot_request == 0"] + [
        f"(slot_request == {u} && {_cf3_text(n, u)})" for u in range(1, n + 1)])


def final_predicates(slots: int = 3) -> dict:
    """The predicate set that passes every equivalence specification."""
    return {
        "kc": builtin_predicate("kc_guess", slots),
        "rcvd0": builtin_predicate("rcvd0_final", slots),
        "rcvd1": builtin_predicate("rcvd1_final", slots),
        "dlvrd": builtin_predicate("dlvrd_final", slots),
    }

# ---------------------------------------------------------------------------
# Program builders


def build_cdc(params: DcParams, predicates: Optional[dict] = None,
              kbp: bool = False) -> ProtocolModel:
    """The protocol model: knowledge-based (kbp=True) or a concrete candidate.

    Candidate mode needs predicates for the targets kc, rcvd0, rcvd1, dlvrd
    (default: the validated finals).  Reservation round s announces
    slot_request == s; transmission round s+slots announces msg under the
    guard slot_request == s && kc[s].
    """
    n = params.slots
    if not kbp:
        if predicates is None:
            predicates = final_predicates(n)
        missing = {"kc", "rcvd0", "rcvd1", "dlvrd"} - set(predicates)
        if missing:
            raise UsageError(f"incomplete predicate set: missing {sorted(missing)}")
        for target, pred in predicates.items():
            if not hasattr(pred, "expr_for"):
                raise UsageError(f"target {target!r}: not a predicate definition")
    programs = {a: _agent_program(a, params, predicates, kbp) for a in AGENTS}
    return ProtocolModel(AGENTS, n, 2 * n, programs, KEY_EDGES)


def _agent_program(agent: str, params: DcParams, predicates: Optional[dict],
                   kbp: bool) -> AgentProgram:
    """Every statement is a formula.  Each target variable is assigned at its
    target_formula check time: the KBP assigns the knowledge formula, the
    implementation its predicate compiled for this agent, time and slot (a
    predicate that reads outside the agent's locals and rr, or reads rr too
    early, is a ModelError here).  The KBP's transmission announcement tests
    kc's knowledge formula, read at its check time, where the implementation
    reads kc[s]."""
    n, slots = params.slots, range(1, params.slots + 1)
    indexed = ("rcvd0", "rcvd1") if kbp else ("kc", "rcvd0", "rcvd1")
    locals_ = ["slot_request", "msg"] + [_target_var(t, s) for t in indexed for s in slots]
    locals_.append("dlvrd")
    names = local_vocabulary(agent, locals_, 2 * n)

    # within a step: rcvd0[s], rcvd1[s], kc[s+1], then dlvrd
    post = {step: [] for step in range(1, 2 * n + 1)}
    schedule = [(t, s) for t in ("rcvd0", "rcvd1", "kc") if t in indexed for s in slots]
    for target, s in schedule + [("dlvrd", None)]:
        know, time = target_formula(target, agent, s, n, params.mode)
        stmt = know if kbp else le.to_formula(predicates[target].expr_for(s), agent, time, s, names)
        post[time].append(Assign(_target_var(target, s), stmt))

    phases = []
    for step in range(1, 2 * n + 1):
        s = step - n
        if s < 1:
            announce = fm.Atom(agent, "slot_request", "==", step)
        else:
            kc = target_formula("kc", agent, s, n, params.mode)[0] if kbp \
                else fm.Atom(agent, f"kc[{s}]", "==", 1)
            announce = fm.conj([fm.Atom(agent, "slot_request", "==", s), kc,
                                fm.Atom(agent, "msg", "==", 1)])
        phases.append(PhaseBlock(announce, tuple(post[step])))
    return AgentProgram(agent, tuple(locals_), tuple(phases))


def _target_var(target: str, slot: Optional[int]) -> str:
    """The local variable a predicate target is assigned to."""
    return target if slot is None else f"{target}[{slot}]"


def delivery_condition(agent: str, slots: int = 3) -> fm.Formula:
    """The agent knows its transmission got through: for the bit and slot it
    holds, everyone else knows some other agent sent that bit there."""
    parts = []
    for x in (0, 1):
        for t in range(1, slots + 1):
            antecedent = fm.And(fm.Atom(agent, "msg", "==", x),
                                fm.Atom(agent, "slot_request", "==", t))
            inner = fm.conj(fm.Know(j, sender_macro(j, x, t, slots))
                            for j in AGENTS if j != agent)
            parts.append(fm.Implies(antecedent, fm.Know(agent, inner)))
    return fm.conj(parts)

# ---------------------------------------------------------------------------
# Specifications


# the equivalence specifications: spec id -> (predicate target, KBP mode)
_EQUIVALENCES = {"1s": ("kc", "speculative"), "1c": ("kc", "conservative"),
                 "4a": ("rcvd0", "speculative"), "4b": ("rcvd1", "speculative"),
                 "5": ("dlvrd", "speculative")}


def spec(spec_id: str, agent: str, slot: Optional[int] = None, slots: int = 3):
    """The numbered correctness specifications, with their check times.

    1s/1c, 4a/4b and 5 — the kc, reception and delivery variables equal the
    knowledge formulas they stand for (target_formula), at its check time;
    2 — a conflict is always detected (end); 3 — an agent detects conflicts
    on its own slot (end); 6 — anonymity (end).
    """
    spec_id = str(spec_id)
    if spec_id not in SPEC_IDS:
        raise UsageError(f"unknown spec {spec_id!r} (known: {', '.join(SPEC_IDS)})")
    if agent not in AGENTS:
        raise UsageError(f"unknown agent {agent!r}")
    end = 2 * slots
    if spec_id in SLOTLESS_SPECS:
        _no_slot(spec_id, slot)
    elif slot is None:
        raise UsageError(f"spec {spec_id} needs a slot")
    elif not 1 <= slot <= slots:
        raise UsageError(f"slot {slot} outside 1..{slots}")
    if spec_id in _EQUIVALENCES:
        target, mode = _EQUIVALENCES[spec_id]
        know, time = target_formula(target, agent, slot, slots, mode)
        return fm.Iff(fm.Atom(agent, _target_var(target, slot), "==", 1), know), time
    if spec_id == "2":
        c = conflict_macro(slot, slots)
        return fm.Implies(c, fm.Know(agent, c)), end
    if spec_id == "3":
        c = conflict_macro(slot, slots)
        own = fm.Atom(agent, "slot_request", "==", slot)
        return fm.Implies(fm.And(c, own), fm.Know(agent, c)), end
    # spec 6: either the agent knows everyone else holds the same bit, or it
    # cannot tell any other agent's bit
    first = fm.disj(fm.Know(agent, fm.conj(fm.Atom(j, "msg", "==", x)
                                           for j in AGENTS if j != agent))
                    for x in (0, 1))
    second = fm.conj(fm.Not(fm.know_value(agent, fm.Atom(j, "msg", "==", 1)))
                     for j in AGENTS if j != agent)
    return fm.Or(first, second), end


def spec_instances(spec_id: str, slots: int = 3,
                   agent: Optional[str] = None, slot: Optional[int] = None):
    """All (agent, slot) instances a spec id ranges over, optionally narrowed."""
    if spec_id not in SPEC_IDS:
        raise UsageError(f"unknown spec {spec_id!r} (known: {', '.join(SPEC_IDS)})")
    if agent is not None and agent not in AGENTS:
        raise UsageError(f"unknown agent {agent!r}")
    if slot is not None and not 1 <= slot <= slots:
        raise UsageError(f"slot {slot} outside 1..{slots}")
    agents = list(AGENTS) if agent is None else [agent]
    if spec_id in SLOTLESS_SPECS:
        _no_slot(spec_id, slot)
        return [(a, None) for a in agents]
    slot_values = list(range(1, slots + 1)) if slot is None else [slot]
    return [(a, s) for a in agents for s in slot_values]


def _no_slot(spec_id: str, slot: Optional[int]):
    if slot is not None:
        raise UsageError(f"spec {spec_id} ranges over no slot, got slot {slot}")


@lru_cache(maxsize=1024)
def target_formula(target: str, agent: str, slot: Optional[int],
                   slots: int = 3, mode: str = "speculative"):
    """The knowledge formula a predicate target stands for, and the time it is
    checked at (which is when the program assigns the target's variable).

    kc[s] — the mode's conflict knowledge, at the pre-transmission point of
    slot s (end of step slots+s-1); rcvd0[s]/rcvd1[s] — knowing that another
    agent sent 0/1 in slot s, right after its transmission; dlvrd — the
    delivery condition, at the end.  conflict_free has no program variable.
    Formulas are immutable, so every program build shares the cached ones.
    """
    end = 2 * slots
    if target == "kc":
        c = conflict_macro(slot, slots)
        body = fm.Not(fm.Know(agent, c)) if mode == "speculative" \
            else fm.Know(agent, fm.Not(c))
        return body, slots + slot - 1
    if target == "conflict_free":
        someone = fm.disj(fm.Atom(j, "slot_request", "==", slot) for j in AGENTS)
        body = fm.Know(agent, fm.And(someone, fm.Not(conflict_macro(slot, slots))))
        return body, end
    if target in ("rcvd0", "rcvd1"):
        x = 0 if target == "rcvd0" else 1
        return fm.Know(agent, sender_macro(agent, x, slot, slots)), slots + slot
    if target == "dlvrd":
        return delivery_condition(agent, slots), end
    raise UsageError(f"unknown predicate target {target!r}")

# ---------------------------------------------------------------------------
# Scenarios


def unknown_scenario(slots: int = 3) -> Scenario:
    """Anyone may stay silent or request any slot; message bits free."""
    return Scenario("unknown",
                    {a: tuple(range(slots + 1)) for a in AGENTS},
                    {a: (0, 1) for a in AGENTS})


def referendum_scenario(slots: int = 3) -> Scenario:
    """Every agent requests some slot (nobody stays silent)."""
    return Scenario("referendum",
                    {a: tuple(range(1, slots + 1)) for a in AGENTS},
                    {a: (0, 1) for a in AGENTS})


def pinned_scenario(slot_request: Sequence[int], msg: Sequence[int],
                    slots: int = 3) -> Scenario:
    try:
        slot_request = [operator.index(v) for v in slot_request]
        msg = [operator.index(v) for v in msg]
    except TypeError:
        raise UsageError("pinned slot_request and msg must be lists of integers")
    if len(slot_request) != len(AGENTS) or len(msg) != len(AGENTS):
        raise UsageError("pinned scenario needs one slot_request and one msg per agent")
    for v in slot_request:
        if not 0 <= v <= slots:
            raise UsageError(f"pinned slot_request value {v} outside 0..{slots}")
    for v in msg:
        if v not in (0, 1):
            raise UsageError(f"pinned msg value {v} must be 0 or 1")
    return Scenario("pinned",
                    {a: (slot_request[i],) for i, a in enumerate(AGENTS)},
                    {a: (msg[i],) for i, a in enumerate(AGENTS)})


def custom_scenario(constraint_text: str, slots: int = 3) -> Scenario:
    constraint = fm.parse_formula(constraint_text, macros=dc_macros(slots))
    base = unknown_scenario(slots)
    return Scenario("custom", base.slot_request, base.msg, constraint)


def scenario_by_name(name: str, slots: int = 3) -> Scenario:
    makers = {"unknown": unknown_scenario, "referendum": referendum_scenario}
    if name not in makers:
        raise UsageError(f"unknown scenario {name!r} (use unknown, referendum, "
                         f"pinned or file:PATH)")
    return makers[name](slots)

# ---------------------------------------------------------------------------
# File formats


def _read_json(path: str, what: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:       # malformed JSON, or not text at all
            raise UsageError(f"{what} {path}: {exc}")


def load_scenario_file(path: str):
    """Scenario file: {"model": "dc3", "mode": ..., "scenario": ...,
    "pinned": {"slot_request": [..], "msg": [..]}?, "constraint": "..."?}.
    Returns (scenario, mode)."""
    data = _read_json(path, "scenario file")
    try:
        return _scenario_from_json(data)
    except UsageError as exc:
        raise UsageError(f"scenario file {path}: {exc}")


def _scenario_from_json(data):
    if not isinstance(data, dict):
        raise UsageError("expected a JSON object")
    if data.get("model", "dc3") != "dc3":
        raise UsageError(f"unknown model {data.get('model')!r}")
    mode = data.get("mode", "speculative")
    if mode not in MODES:
        raise UsageError(f"unknown mode {mode!r}")
    kind = data.get("scenario", "unknown")
    if kind == "pinned":
        pinned = data.get("pinned")
        if not isinstance(pinned, dict) or not {"slot_request", "msg"} <= pinned.keys():
            raise UsageError("pinned scenario needs 'pinned' with 'slot_request' and 'msg'")
        return pinned_scenario(pinned["slot_request"], pinned["msg"]), mode
    if kind == "custom":
        if not isinstance(data.get("constraint"), str):
            raise UsageError("custom scenario needs a 'constraint' string")
        return custom_scenario(data["constraint"]), mode
    return scenario_by_name(str(kind)), mode


def load_predicates_file(path: str) -> list:
    """Predicate file: ordered list of {"name", "target", "expr"}."""
    data = _read_json(path, "predicate file")
    if not isinstance(data, list) or not data:
        raise UsageError(f"predicate file {path}: expected a non-empty list")
    out = []
    for entry in data:
        if not (isinstance(entry, dict)
                and all(isinstance(entry.get(k), str) for k in ("name", "target", "expr"))):
            raise UsageError(f"predicate file {path}: entries need name/target/expr strings")
        try:
            pred = PredicateDef(entry["name"], entry["target"], entry["expr"])
            le.to_formula(pred.expr, None, 0)   # check the syntax now, so errors name the file
        except UsageError as exc:
            raise UsageError(f"predicate file {path}: {exc}")
        out.append(pred)
    return out
