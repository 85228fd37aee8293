"""Temporal-epistemic formulas: AST, parser, printer, and evaluator.

Syntax:

    phi  := "true" | "false" | atom | "!" phi | phi "&&" phi | phi "||" phi
          | phi "=>" phi | phi "<=>" phi
          | "K[" AGENT "](" phi ")" | "Khat[" AGENT "](" atom ")" | "X" phi
          | macro
    atom := (AGENT "." | "") IDENT ["[" INT "]"] ("==" | "!=") VALUE | "RR[" INT "]"

Precedence: ! (and the prefix X) > && > || > (=>, <=>); binary operators are
left-associative; parentheses override.  Khat[A](x) is expanded at parse time
into K[A](x == true) || K[A](x == false).  Macros (conflict, sender, ...)
expand to plain formulas; the caller passes the macro table in (for the case
study, dc.dc_macros()), it is not read off a model.

Evaluation follows the standard clauses: an atom reads the valuation, X moves
one step forward, and K[A](phi) holds at a point iff phi holds at every point
in agent A's indistinguishability block.  A body that is constant over all
runs is its own K: every block agrees with it.  Evaluation is vectorized and
memoized per (node, time) within one Evaluator.  It runs on class vectors,
one value per history class (model's docstring): runs that share their
global history up to t agree at t on every formula of X-depth 0, and a
formula of X-depth d at t is read at level at most t + d.  An atom reads its
column at the level of its trace kind, a binary node widens its shorter
operand, and K at t reads the time-t class labels, after narrowing a deeper
body to level t with `any` over the continuations of its falsified classes.
`vector` widens the result to one value per run.  The memo
lives as long as its Evaluator, except where the caller knows a node is dead:
the engine-agreement oracle drops each node's entries after the last formula
of its suite that contains the node.  Nodes compute their hash once, so a memo
lookup does not walk the subtree.

This is the library's one evaluator: agents' local expressions compile to
K/X-free formulas (localexpr.to_formula) and are evaluated here too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .model import InterpretedSystem, Point, UsageError

# ---------------------------------------------------------------------------
# AST


def node(cls):
    """A frozen dataclass whose hash is computed once per instance: memo and
    cache lookups keyed by a node would otherwise hash its whole subtree."""
    cls = dataclass(frozen=True)(cls)
    fields_hash = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", fields_hash(self))
            return self._hash
    cls.__hash__ = __hash__
    return cls


@node
class Const:
    value: bool


@node
class Atom:
    agent: Optional[str]     # None for environment variables
    var: str                 # flat name, e.g. "slot_request", "kc[1]", "rr[2]"
    op: str                  # "==" | "!="
    value: int

    @property
    def name(self) -> str:
        return self.var if self.agent is None else f"{self.agent}.{self.var}"


@node
class Not:
    child: "Formula"


@node
class And:
    left: "Formula"
    right: "Formula"


@node
class Or:
    left: "Formula"
    right: "Formula"


@node
class Implies:
    left: "Formula"
    right: "Formula"


@node
class Iff:
    left: "Formula"
    right: "Formula"


@node
class Know:
    agent: str
    child: "Formula"


@node
class Next:
    child: "Formula"


Formula = Union[Const, Atom, Not, And, Or, Implies, Iff, Know, Next]

TRUE = Const(True)
FALSE = Const(False)


def conj(parts) -> Formula:
    parts = list(parts)
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts) -> Formula:
    parts = list(parts)
    if not parts:
        return FALSE
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def know_value(agent: str, atom: Atom) -> Formula:
    """Khat: the agent knows which way the atom goes."""
    if atom.value in (0, 1):
        flipped = Atom(atom.agent, atom.var, atom.op, 1 - atom.value)
        return Or(Know(agent, atom), Know(agent, flipped))
    return Or(Know(agent, atom), Know(agent, Not(atom)))


@lru_cache(maxsize=8192)
def x_depth(phi: Formula) -> int:
    # cached, so a compiled formula's shared subtrees are walked once
    if isinstance(phi, (Const, Atom)):
        return 0
    if isinstance(phi, (Not, Know)):
        return x_depth(phi.child)
    if isinstance(phi, Next):
        return 1 + x_depth(phi.child)
    return max(x_depth(phi.left), x_depth(phi.right))


@lru_cache(maxsize=8192)
def atom_names(phi: Formula) -> frozenset:
    # cached like x_depth: the engine asks it of every statement it builds
    return frozenset(atom.name for atom in atoms_of(phi))


def atoms_of(phi: Formula):
    if isinstance(phi, Atom):
        yield phi
    elif isinstance(phi, (Not, Know, Next)):
        yield from atoms_of(phi.child)
    elif not isinstance(phi, Const):
        yield from atoms_of(phi.left)
        yield from atoms_of(phi.right)


def subformulas(phi: Formula):
    yield phi
    if isinstance(phi, (Not, Know, Next)):
        yield from subformulas(phi.child)
    elif not isinstance(phi, (Const, Atom)):
        yield from subformulas(phi.left)
        yield from subformulas(phi.right)

# ---------------------------------------------------------------------------
# Printing (precedence-aware; parse(fmt(phi)) == phi)

_LEVEL = {Iff: 1, Implies: 1, Or: 2, And: 3}


def fmt(phi: Formula) -> str:
    return _fmt(phi, 0)


def _fmt(phi: Formula, outer: int) -> str:
    if isinstance(phi, Const):
        return "true" if phi.value else "false"
    if isinstance(phi, Atom):
        return f"{phi.name} {phi.op} {phi.value}"
    if isinstance(phi, Not):
        return "!" + _fmt(phi.child, 4)
    if isinstance(phi, Know):
        return f"K[{phi.agent}]({_fmt(phi.child, 0)})"
    if isinstance(phi, Next):
        return "X " + _fmt(phi.child, 4)
    op = {And: "&&", Or: "||", Implies: "=>", Iff: "<=>"}[type(phi)]
    level = _LEVEL[type(phi)]
    text = f"{_fmt(phi.left, level)} {op} {_fmt(phi.right, level + 1)}"
    return f"({text})" if outer > level else text

# ---------------------------------------------------------------------------
# Parser

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<op><=>|=>|\|\||&&|==|!=|[!()\[\].,])
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
""", re.VERBOSE)

MacroTable = dict  # name -> Callable[[list], Formula]


class Cursor:
    """A token stream shared by the formula and local-expression parsers.

    `pattern` names its token kinds by group ("ws" is skipped); `what`
    prefixes every error message.
    """

    def __init__(self, text: str, pattern: re.Pattern, what: str):
        self.what = what
        self.tokens, pos = [], 0
        while pos < len(text):
            m = pattern.match(text, pos)
            if not m:
                raise UsageError(f"{what}: bad character {text[pos]!r} at {pos}")
            pos = m.end()
            if m.lastgroup != "ws":
                self.tokens.append((m.lastgroup, m.group(), m.start()))
        self.tokens.append(("eof", "", len(text)))
        self.i = 0

    def peek(self, ahead=0):
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, text, pos = self.next()
        if text != value:
            raise UsageError(f"{self.what}: expected {value!r} at {pos}, got {text!r}")

    def fail(self, msg):
        _, text, pos = self.peek()
        raise UsageError(f"{self.what}: {msg} at {pos} (near {text!r})")

    def int_lit(self):
        kind, text, pos = self.next()
        if kind != "int":
            raise UsageError(f"{self.what}: expected an integer at {pos}")
        return int(text)


class _Parser(Cursor):
    def __init__(self, text: str, model=None, macros: Optional[MacroTable] = None):
        super().__init__(text, _TOKEN, "formula")
        self.model = model
        self.macros = macros or {}

    def parse(self) -> Formula:
        phi = self.parse_arrow()
        if self.peek()[0] != "eof":
            self.fail("trailing input")
        return phi

    def parse_arrow(self):
        phi = self.parse_or()
        while self.peek()[1] in ("=>", "<=>"):
            op = self.next()[1]
            rhs = self.parse_or()
            phi = Implies(phi, rhs) if op == "=>" else Iff(phi, rhs)
        return phi

    def parse_or(self):
        phi = self.parse_and()
        while self.peek()[1] == "||":
            self.next()
            phi = Or(phi, self.parse_and())
        return phi

    def parse_and(self):
        phi = self.parse_unary()
        while self.peek()[1] == "&&":
            self.next()
            phi = And(phi, self.parse_unary())
        return phi

    def parse_unary(self):
        kind, text, pos = self.peek()
        if text == "!":
            self.next()
            return Not(self.parse_unary())
        if text == "X":
            self.next()
            return Next(self.parse_unary())
        if text in ("K", "Khat") and self.peek(1)[1] == "[":
            return self.parse_know(text)
        return self.parse_primary()

    def parse_know(self, kw):
        self.next()
        self.expect("[")
        agent = self.ident("agent name")
        self.expect("]")
        self.expect("(")
        if kw == "K":
            body = self.parse_arrow()
            self.expect(")")
            self.check_agent(agent)
            return Know(agent, body)
        atom = self.parse_atom_or_ref()
        self.expect(")")
        self.check_agent(agent)
        return know_value(agent, atom)

    def parse_primary(self):
        kind, text, pos = self.peek()
        if text == "(":
            self.next()
            phi = self.parse_arrow()
            self.expect(")")
            return phi
        if text == "true":
            self.next()
            return TRUE
        if text == "false":
            self.next()
            return FALSE
        if kind == "name" and self.peek(1)[1] == "(" and text in self.macros:
            return self.parse_macro(text)
        if kind == "name" and self.peek(1)[1] == "(" and text not in ("K", "Khat"):
            raise UsageError(f"formula: unknown macro {text!r} at {pos}"
                             + ("" if self.macros else " (no model bound)"))
        return self.parse_atom_or_ref(require_cmp=True)

    def parse_macro(self, name):
        self.next()
        self.expect("(")
        args = []
        if self.peek()[1] != ")":
            args.append(self.macro_arg())
            while self.peek()[1] == ",":
                self.next()
                args.append(self.macro_arg())
        self.expect(")")
        try:
            return self.macros[name](args)
        except UsageError:
            raise
        except Exception as exc:
            raise UsageError(f"formula: macro {name}({', '.join(map(str, args))}): {exc}")

    def macro_arg(self):
        kind, text, pos = self.next()
        if kind == "int":
            return int(text)
        if kind == "name":
            return text
        raise UsageError(f"formula: bad macro argument at {pos}")

    def parse_atom_or_ref(self, require_cmp=False) -> Atom:
        kind, text, pos = self.peek()
        if text == "RR":
            self.next()
            self.expect("[")
            idx = self.int_lit()
            self.expect("]")
            return self.validated(Atom(None, f"rr[{idx}]", "==", 1))
        agent = None
        name = self.ident("variable or agent name")
        if self.peek()[1] == ".":
            self.next()
            agent = name
            self.check_agent(agent)
            name = self.ident("variable name")
        if self.peek()[1] == "[":
            self.next()
            idx = self.int_lit()
            self.expect("]")
            name = f"{name}[{idx}]"
        if self.peek()[1] in ("==", "!="):
            op = self.next()[1]
            value = self.value_lit()
            return self.validated(Atom(agent, name, op, value))
        if require_cmp:
            self.fail(f"atom {name!r} needs '== value' or '!= value'")
        return self.validated(Atom(agent, name, "==", 1))

    def ident(self, what):
        kind, text, pos = self.next()
        if kind != "name":
            raise UsageError(f"formula: expected {what} at {pos}")
        return text

    def value_lit(self):
        kind, text, pos = self.next()
        if kind == "int":
            return int(text)
        if text == "true":
            return 1
        if text == "false":
            return 0
        raise UsageError(f"formula: expected a value at {pos}")

    def check_agent(self, agent):
        if self.model is not None and agent not in self.model.agents:
            raise UsageError(f"formula: unknown agent {agent!r}")

    def validated(self, atom: Atom) -> Atom:
        if self.model is None:
            return atom
        if atom.agent is not None:
            self.check_agent(atom.agent)
        decls = getattr(self.model, "variables", None)
        if decls is not None and atom.name not in decls:
            raise UsageError(f"formula: unknown variable {atom.name!r}")
        if decls is not None:
            dom = {int(v) for v in decls[atom.name].domain}
            if atom.value not in dom:
                raise UsageError(
                    f"formula: value {atom.value} outside the domain of {atom.name!r}")
        return atom


def parse_formula(text: str, model=None, macros: Optional[MacroTable] = None) -> Formula:
    """Parse a formula; `model` (a system) enables agent/variable/domain
    validation and `macros` supplies the macro expansions."""
    return _Parser(text, model, macros).parse()

# ---------------------------------------------------------------------------
# Evaluation


class Evaluator:
    """Vectorized evaluator over one system; memoizes class vectors per (node, time).

    Entries stay until `evict` drops them: the engine-agreement oracle evicts
    each node after the last formula of its suite that contains it, so that
    only the vectors of nodes still to be asked for are held.
    """

    def __init__(self, system: InterpretedSystem):
        self.system = system
        self.memo: dict = {}

    def vector(self, phi: Formula, time: int) -> np.ndarray:
        """Truth of phi at time `time`, one value per run."""
        return self.system.widen(self.classes(phi, time))

    def classes(self, phi: Formula, time: int) -> np.ndarray:
        """Truth of phi at time `time`, one value per history class; the
        length says the level (see the module docstring)."""
        # a memoized (phi, time) was computed within the horizon; an X past
        # the horizon is refused where it is met
        cached = self.memo.get((phi, time))
        if cached is not None:
            return cached
        if not 0 <= time <= self.system.horizon:
            raise UsageError(f"time {time} outside 0..{self.system.horizon}")
        return self._fill(phi, time)

    def evict(self, nodes) -> None:
        """Drop the memoized vectors of `nodes` at every time."""
        for node in nodes:
            for time in range(self.system.horizon + 1):
                self.memo.pop((node, time), None)

    def _vec(self, phi, time):
        cached = self.memo.get((phi, time))
        return cached if cached is not None else self._fill(phi, time)

    def _fill(self, phi, time):
        out = self._compute(phi, time)
        out.setflags(write=False)
        self.memo[phi, time] = out
        return out

    def _compute(self, phi, time):
        system = self.system
        if isinstance(phi, Const):
            return np.full(system.n_classes(0), phi.value, dtype=bool)
        if isinstance(phi, Atom):
            col = system.class_column(phi.name, time)
            return (col == phi.value) if phi.op == "==" else (col != phi.value)
        if isinstance(phi, Not):
            return ~self._vec(phi.child, time)
        if isinstance(phi, (And, Or, Implies, Iff)):
            left, right = self._vec(phi.left, time), self._vec(phi.right, time)
            if len(left) != len(right):
                size = max(len(left), len(right))
                left, right = system.widen(left, size), system.widen(right, size)
            if isinstance(phi, And):
                return left & right
            if isinstance(phi, Or):
                return left | right
            if isinstance(phi, Implies):
                return ~left | right
            return left == right
        if isinstance(phi, Next):
            if time + 1 > system.horizon:
                raise UsageError("temporal depth of the formula exceeds the horizon")
            return self._vec(phi.child, time + 1)
        if isinstance(phi, Know):
            body = self._vec(phi.child, time)
            labels, n_blocks = system.class_labels(phi.agent, time)
            if body.all() or not body.any():
                return body     # constant: its own K (the agent is checked above)
            false = ~body
            if len(false) > len(labels):    # X in the body: any continuation falsifies
                false = system.any_within(false, len(labels))
            tainted = np.zeros(n_blocks, dtype=bool)
            tainted[labels[system.widen(false, len(labels))]] = True
            return ~tainted[labels]
        raise TypeError(f"not a formula node: {phi!r}")


def eval_at(system: InterpretedSystem, phi: Formula, point: Point,
            evaluator: Optional[Evaluator] = None) -> bool:
    """Truth of phi at one point."""
    if not 0 <= point.time <= system.horizon:
        raise UsageError(f"time {point.time} outside 0..{system.horizon}")
    if not 0 <= point.run < system.n_runs:
        raise UsageError(f"run {point.run} outside 0..{system.n_runs - 1}")
    ev = evaluator or Evaluator(system)
    return bool(ev.vector(phi, point.time)[point.run])


@dataclass
class KnowWitness:
    """Explains a false K[agent](body): `other` is in the same block as the
    witness point but falsifies the body."""

    agent: str
    body: Formula
    other: Point


@dataclass
class Verdict:
    holds: bool
    formula: Formula
    time: int
    witness: Optional[Point] = None
    know_witness: Optional[KnowWitness] = None

    @property
    def outcome(self) -> str:
        return "holds" if self.holds else "fails"


def check_valid_at(system: InterpretedSystem, phi: Formula, time: int,
                   evaluator: Optional[Evaluator] = None) -> Verdict:
    """Holds iff phi is true at every time-`time` point; otherwise reports the
    least failing run, plus a same-block witness pair for a falsified K."""
    ev = evaluator or Evaluator(system)
    vec = ev.vector(phi, time)
    if vec.all():
        return Verdict(True, phi, time)
    run = int(np.argmin(vec))
    witness = Point(run, time)
    return Verdict(False, phi, time, witness,
                   explain_know_failure(system, phi, witness, ev))


def explain_know_failure(system: InterpretedSystem, phi: Formula, point: Point,
                         evaluator: Optional[Evaluator] = None) -> Optional[KnowWitness]:
    """First (pre-order) K-subformula false at the point, explained by an
    indistinguishable point falsifying its body; None if no K is false."""
    ev = evaluator or Evaluator(system)

    def search(node, time):
        if isinstance(node, (Const, Atom)):
            return None
        if isinstance(node, Next):
            return search(node.child, time + 1)
        if isinstance(node, Know):
            if not ev.vector(node, time)[point.run]:
                body = ev.vector(node.child, time)
                labels, _ = system.partition_labels(node.agent, time)
                same = labels == labels[point.run]
                bad = np.flatnonzero(same & ~body)
                if bad.size:
                    return KnowWitness(node.agent, node.child, Point(int(bad[0]), time))
            return search(node.child, time)
        if isinstance(node, Not):
            return search(node.child, time)
        return search(node.left, time) or search(node.right, time)

    return search(phi, point.time)


def eval_on_valuation(phi: Formula, valuation: dict):
    """Evaluate a K/X-free formula on one valuation (a bool) or on columns of
    valuations, one row each (a bool array): scenario constraints, and the
    tests' scalar reference for compiled local expressions."""
    def value(phi):
        if isinstance(phi, Const):
            return np.bool_(phi.value)
        if isinstance(phi, Atom):
            if phi.name not in valuation:
                raise UsageError(f"constraint reads {phi.name!r}, not an initial variable")
            raw = np.asarray(valuation[phi.name])
            return (raw == phi.value) if phi.op == "==" else (raw != phi.value)
        if isinstance(phi, Not):
            return ~value(phi.child)
        if isinstance(phi, And):
            return value(phi.left) & value(phi.right)
        if isinstance(phi, Or):
            return value(phi.left) | value(phi.right)
        if isinstance(phi, Implies):
            return ~value(phi.left) | value(phi.right)
        if isinstance(phi, Iff):
            return value(phi.left) == value(phi.right)
        raise UsageError("scenario constraints may not use K, Khat or X")

    out = value(phi)
    return out if out.ndim else bool(out)
