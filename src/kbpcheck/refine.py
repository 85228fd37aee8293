"""Refinement toolkit: check candidate predicates against knowledge formulas,
render pair-witness counterexamples, iterate candidate chains, and synthesize
the exact predicate from the partition itself.

A candidate predicate for agent i at time t is the K/X-free formula its local
expression compiles to (candidate_formula), and it is correct when
`candidate <=> knowledge` is valid at time t.  That is checked like any spec,
by check_valid_at.  A failure has one of two directions: the candidate claims
knowledge the agent lacks, in which case the counterexample carries a second
run, indistinguishable to the agent whose K is false, disagreeing on that K's
body; or the candidate misses knowledge the agent has.

Synthesis reads the answer off the model: the knowledge formula is constant on
each observation class, so mapping the class (slot_request, msg, rr prefix —
which determine the class exactly) to that constant is the predicate sought.
Its printed form is an exact sum-of-products over the same variables, when the
input fits the minimizer, and that expression is what a synthesized candidate
is checked by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import formula as fm
from . import localexpr as le
from . import minimize as mz
from .engine import contribution_matrix, initial_vectors, rr_vector
from .model import InterpretedSystem, UsageError

DIRECTIONS = ("candidate-true-knowledge-false", "knowledge-true-candidate-false")

# ---------------------------------------------------------------------------
# Counterexamples


@dataclass
class Witness:
    slot_request: list
    msg: list
    contrib: list
    rr: list
    role: str = "primary"           # primary | indistinguishable

    def to_json(self) -> dict:
        return {"slot_request": self.slot_request, "msg": self.msg,
                "contrib": self.contrib, "rr": self.rr}


@dataclass
class Counterexample:
    formula: str
    time: int
    witnesses: list
    direction: Optional[str] = None
    agent: Optional[str] = None
    body: Optional[str] = None      # Know body the witness pair disagrees on

    def to_json(self) -> dict:
        out = {"formula": self.formula, "time": self.time,
               "witnesses": [w.to_json() for w in self.witnesses]}
        if self.direction:
            out["direction"] = self.direction
        if self.agent:
            out["agent"] = self.agent
        if self.body:
            out["body"] = self.body
        return out


def _witness(system: InterpretedSystem, run: int, role: str) -> Witness:
    sr, msg = initial_vectors(system, run)
    return Witness(sr, msg, contribution_matrix(system, run),
                   rr_vector(system, run), role)


def counterexample_from_verdict(system: InterpretedSystem,
                                verdict: fm.Verdict) -> Optional[Counterexample]:
    """Package a failed validity check as a renderable counterexample."""
    if verdict.holds:
        return None
    witnesses = [_witness(system, verdict.witness.run, "primary")]
    agent = body = None
    if verdict.know_witness is not None:
        kw = verdict.know_witness
        agent, body = kw.agent, fm.fmt(kw.body)
        if kw.other.run != verdict.witness.run:
            witnesses.append(_witness(system, kw.other.run, "indistinguishable"))
    return Counterexample(fm.fmt(verdict.formula), verdict.time, witnesses,
                          agent=agent, body=body)


def render_counterexample(cex: Counterexample) -> str:
    """Contribution tables in the two-phase layout, one per witness."""
    lines = [f"falsified: {cex.formula}   (checked at time {cex.time})"]
    if cex.direction:
        lines.append(f"direction: {cex.direction}")
    for w in cex.witnesses:
        if w.role != "primary":
            lines.append(f"indistinguishable run (agent {cex.agent}) "
                         f"disagreeing on: {cex.body}")
        lines.extend(_render_table(w))
    return "\n".join(lines)


def run_witness(system: InterpretedSystem, run: int) -> Witness:
    """Contribution/rr view of one run (trace rendering)."""
    return _witness(system, run, "primary")


def render_run_table(system: InterpretedSystem, run: int) -> str:
    return "\n".join(_render_table(run_witness(system, run)))


def _render_table(w: Witness) -> list:
    T = len(w.rr)
    half = T // 2
    def row(label, bits):
        cells = " ".join(str(int(b)) for b in bits[:half])
        cells += " | " + " ".join(str(int(b)) for b in bits[half:])
        return f"  {label:<9}| {cells}"
    lines = [row("s", range(1, T + 1))]
    for agent_row, bits in enumerate(w.contrib):
        lines.append(row(f"Agent C{agent_row + 1}", bits))
    lines.append(row("rr", w.rr))
    lines.append(f"  slot_request = {w.slot_request}, msg = {w.msg}")
    return lines

# ---------------------------------------------------------------------------
# Candidate evaluation


def candidate_formula(system: InterpretedSystem, candidate, agent: str, time: int,
                      slot: Optional[int] = None) -> fm.Formula:
    """The formula a candidate stands for in `agent`'s code at `time`.

    A candidate is the text of a local expression or a predicate with
    `expr_for(slot)` (PredicateDef, PerSlotPredicate, SynthesizedPredicate).
    """
    if isinstance(candidate, str):
        text = candidate
    elif hasattr(candidate, "expr_for"):
        text = candidate.expr_for(slot)
    else:
        raise UsageError(f"not a candidate predicate: {candidate!r}")
    return le.to_formula(text, agent, time, slot, system.meta["vocabulary"][agent])


@dataclass
class CandidateVerdict:
    holds: bool
    name: str
    counterexample: Optional[Counterexample] = None

    @property
    def outcome(self) -> str:
        return "holds" if self.holds else "fails"


def check_candidate(system: InterpretedSystem, candidate, know_formula: fm.Formula,
                    agent: str, time: int, slot: Optional[int] = None,
                    name: str = "candidate",
                    evaluator: Optional[fm.Evaluator] = None) -> CandidateVerdict:
    """Is `candidate <=> know_formula` valid at time `time`?

    On failure reports the first differing run (canonical order), the
    direction of the mismatch, and — whenever the knowledge side is a false
    K — the run indistinguishable to that K's agent that falsifies its body.
    """
    ev = evaluator or fm.Evaluator(system)
    cand = candidate_formula(system, candidate, agent, time, slot)
    verdict = fm.check_valid_at(system, fm.Iff(cand, know_formula), time, ev)
    cex = counterexample_from_verdict(system, verdict)
    if cex is None:
        return CandidateVerdict(True, name)
    cex.formula = f"{name} <=> {fm.fmt(know_formula)}"
    cex.direction = DIRECTIONS[0] if ev.vector(cand, time)[verdict.witness.run] \
        else DIRECTIONS[1]
    if len(cex.witnesses) == 1:
        cex.agent = agent
    return CandidateVerdict(False, name, cex)

# ---------------------------------------------------------------------------
# Refinement sequences


@dataclass
class RefinementEntry:
    name: str
    verdict: CandidateVerdict
    monotone: Optional[bool] = None     # truth set contains the previous one's?


@dataclass
class RefinementReport:
    entries: list
    passed: bool

    def to_json(self) -> dict:
        out = []
        for e in self.entries:
            item = {"name": e.name, "verdict": e.verdict.outcome}
            if e.monotone is not None:
                item["monotone"] = e.monotone
            if e.verdict.counterexample is not None:
                item["counterexample"] = e.verdict.counterexample.to_json()
            out.append(item)
        return {"candidates": out, "passed": self.passed}


def refine_sequence(system_or_builder, candidates: Sequence, know_formula: fm.Formula,
                    agent: str, time: int, slot: Optional[int] = None) -> RefinementReport:
    """Check candidates in order, stopping at the first that passes.

    system_or_builder is either a fixed system (for predicates that do not
    affect behaviour) or a callable candidate -> system (kc does affect it).
    Monotonicity of the chain is checked on the current candidate's system and
    reported, not enforced.
    """
    candidates = list(candidates)
    if not candidates:
        raise UsageError("empty candidate list")
    entries = []
    passed = False
    previous = ev = None
    for candidate in candidates:
        name = getattr(candidate, "name", "candidate")
        system = system_or_builder(candidate) if callable(system_or_builder) \
            else system_or_builder
        if ev is None or ev.system is not system:
            ev = fm.Evaluator(system)
        verdict = check_candidate(system, candidate, know_formula, agent, time,
                                  slot=slot, name=name, evaluator=ev)
        monotone = None
        if previous is not None:
            step = fm.Implies(candidate_formula(system, previous, agent, time, slot),
                              candidate_formula(system, candidate, agent, time, slot))
            monotone = bool(ev.vector(step, time).all())
        entries.append(RefinementEntry(name, verdict, monotone))
        previous = candidate
        if verdict.holds:
            passed = True
            break
    return RefinementReport(entries, passed)

# ---------------------------------------------------------------------------
# Synthesis


@dataclass
class SynthesizedPredicate:
    """Exact truth mapping from local-observation classes to booleans.

    A class at (agent, time) is keyed by the intrinsic tuple
    (slot_request, msg, rr[1], .., rr[time-capped]) — these values determine
    the agent's whole observation history here, so the key is portable across
    systems built from the same protocol shape.
    """

    agent: str
    time: int
    slots: int
    mapping: dict                     # key tuple -> bool
    sop_text: Optional[str] = None    # None when too wide to minimize
    formula: str = ""

    def key_names(self) -> list:
        names = ["slot_request", "msg"]
        names += [f"rr[{u}]" for u in range(1, self.rr_count() + 1)]
        return names

    def rr_count(self) -> int:
        any_key = next(iter(self.mapping))
        return len(any_key) - 2

    def expr_for(self, slot: Optional[int] = None) -> str:
        """The printed sum-of-products; the table itself is not a candidate."""
        if self.sop_text is None:
            raise UsageError(f"synthesized predicate for {self.formula} at time "
                             f"{self.time}: no expression (too wide to minimize)")
        return self.sop_text

    def to_json(self) -> dict:
        table = [{"class": list(map(int, key)), "value": bool(v)}
                 for key, v in sorted(self.mapping.items())]
        return {"agent": self.agent, "time": self.time, "formula": self.formula,
                "inputs": self.key_names(), "table": table,
                "expr": self.sop_text}


def _class_keys(system: InterpretedSystem, agent: str, time: int, rr_count: int):
    cols = [system.column(f"{agent}.slot_request", 0),
            system.column(f"{agent}.msg", 0)]
    cols += [system.column(f"rr[{u}]", time) for u in range(1, rr_count + 1)]
    stacked = np.stack(cols, axis=1)
    return [tuple(int(v) for v in row) for row in stacked]


def synthesize_predicate(system: InterpretedSystem, know_formula: fm.Formula,
                         agent: str, time: int,
                         evaluator: Optional[fm.Evaluator] = None) -> SynthesizedPredicate:
    """Read the exact predicate off the model: the formula's value per class."""
    if agent not in system.agents:
        raise UsageError(f"unknown agent {agent!r}")
    ev = evaluator or fm.Evaluator(system)
    values = ev.vector(know_formula, time)
    rr_count = min(time, system.horizon)
    keys = _class_keys(system, agent, time, rr_count)
    mapping = {}
    for key, v in zip(keys, values):
        old = mapping.get(key)
        if old is None:
            mapping[key] = bool(v)
        elif old != bool(v):
            raise UsageError(
                "formula is not constant on the agent's observation classes; "
                "it cannot be realized as a local predicate")
    slots = system.meta["slots"]
    pred = SynthesizedPredicate(agent, time, slots, mapping,
                                formula=fm.fmt(know_formula))
    _attach_sop(pred)
    return pred


def _attach_sop(pred: SynthesizedPredicate):
    """Exact sum-of-products over (msg, rr prefix, slot_request bits)."""
    rr_count = pred.rr_count()
    sr_bits = max(1, pred.slots.bit_length())
    n_bits = 1 + rr_count + sr_bits
    if n_bits > mz.MAX_BITS:
        return

    def index(key) -> int:
        sr, msg, *rr = key
        out = msg
        for i, bit in enumerate(rr):
            out |= bit << (1 + i)
        out |= sr << (1 + rr_count)
        return out

    on = [index(k) for k, v in pred.mapping.items() if v]
    seen = {index(k) for k in pred.mapping}
    dc = [m for m in range(2 ** n_bits) if m not in seen]
    cubes = mz.minimize(n_bits, on, dc)
    # exactness: the cover must agree with the mapping on every seen class
    fn = mz.cubes_semantics(cubes, n_bits)
    for key, v in pred.mapping.items():
        if fn(index(key)) != v:
            raise AssertionError("minimized cover disagrees with the truth table")
    pred.sop_text = _render_sop(cubes, rr_count, sr_bits, pred.slots)


def _render_sop(cubes, rr_count, sr_bits, slots) -> str:
    if not cubes:
        return "false"
    terms = []
    for cube in cubes:
        lits = []
        if cube[0] != 2:
            lits.append("msg" if cube[0] else "!msg")
        for u in range(1, rr_count + 1):
            bit = cube[u]
            if bit != 2:
                lits.append(f"rr[{u}]" if bit else f"!rr[{u}]")
        sr_cube = cube[1 + rr_count:]
        values = [v for v in range(slots + 1)
                  if all(b == 2 or (v >> i) & 1 == b for i, b in enumerate(sr_cube))]
        if len(values) == 1:
            lits.append(f"slot_request == {values[0]}")
        elif len(values) <= slots:
            inner = ", ".join(str(v) for v in sorted(values))
            lits.append(f"slot_request in {{{inner}}}")
        if not lits:
            return "true"
        terms.append(" && ".join(lits) if len(lits) == 1 or len(cubes) == 1
                     else "(" + " && ".join(lits) + ")")
    return " || ".join(terms)


def diff_candidates(system: InterpretedSystem, left, right, agent: str, time: int,
                    slot: Optional[int] = None) -> list:
    """Observation classes on which two candidates disagree, least first."""
    same = fm.Evaluator(system).vector(
        fm.Iff(candidate_formula(system, left, agent, time, slot),
               candidate_formula(system, right, agent, time, slot)), time)
    keys = _class_keys(system, agent, time, min(time, system.horizon))
    return sorted({keys[i] for i in np.flatnonzero(~same)})
