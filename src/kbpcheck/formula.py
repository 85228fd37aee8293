"""Temporal-epistemic formulas: AST, parser, printer, and evaluator.

Syntax:

    phi  := "true" | "false" | atom | "!" phi | phi "&&" phi | phi "||" phi
          | phi "=>" phi | phi "<=>" phi | phi ("==" | "!=") phi
          | "K[" AGENT "](" phi ")" | "Khat[" AGENT "](" atom ")" | "X" phi
          | macro
    atom := (AGENT "." | "") IDENT ["[" INT "]"] ("==" | "!=") VALUE | "RR[" INT "]"

Precedence: ! (and the prefix X) > (==, !=) > && > || > (=>, <=>); binary
operators are left-associative, but == and != between formulas do not chain
(they are <=> and its negation); parentheses override.  Khat[A](x) is
expanded at parse time into K[A](x == true) || K[A](x == false).  Macros
(conflict, sender, ...) expand to plain formulas; the caller passes the macro
table in (for the case study, dc.dc_macros()), it is not read off a model.

A local expression, what an agent's own code may compute, is the same text
read in a LocalScope.  A bare name is the agent's own local (read as == 1),
rr[u] the round result, and an index INT | "s" (the slot) | VAR, optionally
"+" INT.  NAME ("==" | "!=") index is an atom, where a bit compares with an
INT only (so `msg == true` is msg <=> true); NAME "in" ("{" index, .. "}" |
INT ".." INT ["except" index]) and "any" VAR "in" INT ".." INT ["except"
index] ":" phi are left-folded disjunctions.  A bit's value is 0 or 1; only
the VALUED_LOCALS hold a slot number.  An empty binder is false, its body
only checked for syntax; K, Khat, X, macros, AGENT. prefixes, a bit compared
with another value and a bare valued local are refused.  A name outside the scope's names is an unknown
history variable, and rr[u] read before time u an unassigned one.

Evaluation follows the standard clauses: an atom reads the valuation, X moves
one step forward, and K[A](phi) holds at a point iff phi holds at every point
in agent A's indistinguishability block.  A body that is constant over all
runs is its own K: every block agrees with it.  Evaluation is vectorized and
memoized per (node, time) within one Evaluator.  It runs on class vectors,
one value per history class (model's docstring): runs that share their
global history up to t agree at t on every formula of X-depth 0, and a
formula of X-depth d at t is read at level at most t + d.  An atom reads its
trace's stored class vector, a binary node widens its shorter
operand, and K at t reads the time-t class labels, after narrowing a deeper
body to level t with `any` over the continuations of its falsified classes.
`vector` widens the result to one value per run.  The memo
lives as long as its Evaluator, except where the caller knows a node is dead:
the engine-agreement oracle drops each node's entries after the last formula
of its suite that contains the node.  Nodes compute their hash once, so a memo
lookup does not walk the subtree.

This is the library's one evaluator: agents' local expressions parse to
K/X-free formulas (localexpr.to_formula) and are evaluated here too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Optional, Union

import numpy as np

from .model import InterpretedSystem, ModelError, Point, UsageError

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
  | (?P<op>\.\.|<=>|=>|\|\||&&|==|!=|[!()\[\]{}.,:+])
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
""", re.VERBOSE)

MacroTable = dict  # name -> Callable[[list], Formula]

VALUED_LOCALS = frozenset({"slot_request"})    # hold a slot number; every other local is a bit


@dataclass(frozen=True)
class LocalScope:
    """Where a local expression is read: `agent`'s code at `time`, for `slot`.
    `names` are the flat names it may read (None: check the syntax only)."""

    agent: Optional[str]
    time: int
    slot: Optional[int]
    names: Optional[tuple]


@lru_cache(maxsize=8192)
def _shared(phi: Formula) -> Formula:
    """The first-built node equal to `phi`: parsed formulas share their equal
    subtrees, which keeps the caches that hold them small."""
    return phi


class _Parser:
    def __init__(self, text: str, model=None, macros: Optional[MacroTable] = None,
                 scope: Optional[LocalScope] = None):
        self.what = "formula" if scope is None else "local expression"
        self.tokens, pos = [], 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                raise UsageError(f"{self.what}: bad character {text[pos]!r} at {pos}")
            pos = m.end()
            if m.lastgroup != "ws":
                self.tokens.append((m.lastgroup, m.group(), m.start()))
        self.tokens.append(("eof", "", len(text)))
        self.i = 0
        self.model = model
        self.macros = macros or {}
        self.scope = scope
        self.bound = {}         # binder variable -> its value in the body being read
        # > 0 while only the syntax is checked: no scope names, or an empty binder
        self.dry = int(scope is not None and scope.names is None)

    # tokens --------------------------------------------------------------

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

    def ident(self, what):
        kind, text, pos = self.next()
        if kind != "name":
            raise UsageError(f"{self.what}: expected {what} at {pos}")
        return text

    # connectives -----------------------------------------------------------

    def parse(self) -> Optional[Formula]:
        phi = self.parse_arrow()
        if self.peek()[0] != "eof":
            self.fail("trailing input")
        return None if self.dry else phi

    def parse_arrow(self):
        phi = self.parse_or()
        while self.peek()[1] in ("=>", "<=>"):
            op = self.next()[1]
            rhs = self.parse_or()
            phi = _shared(Implies(phi, rhs) if op == "=>" else Iff(phi, rhs))
        return phi

    def parse_or(self):
        phi = self.parse_and()
        while self.peek()[1] == "||":
            self.next()
            phi = _shared(Or(phi, self.parse_and()))
        return phi

    def parse_and(self):
        phi = self.parse_cmp()
        while self.peek()[1] == "&&":
            self.next()
            phi = _shared(And(phi, self.parse_cmp()))
        return phi

    def parse_cmp(self):
        # e == e and e != e; an atom has taken its own comparison already
        phi = self.parse_unary()
        if self.peek()[1] in ("==", "!="):
            op = self.next()[1]
            phi = _shared(Iff(phi, self.parse_unary()))
            if op == "!=":
                phi = _shared(Not(phi))
        return phi

    def parse_unary(self):
        kind, text, pos = self.peek()
        if text == "!":
            self.next()
            return _shared(Not(self.parse_unary()))
        if text == "X" or (text in ("K", "Khat") and self.peek(1)[1] == "["):
            if self.scope is not None:
                self.fail(f"{text} reads beyond the agent's own state")
            if text == "X":
                self.next()
                return _shared(Next(self.parse_unary()))
            return self.parse_know(text)
        return self.parse_primary()

    def parse_know(self, kw):
        self.next()
        self.expect("[")
        agent = self.ident("agent name")
        self.expect("]")
        self.expect("(")
        body = self.parse_arrow() if kw == "K" else self.parse_atom_or_ref()
        self.expect(")")
        self.check_agent(agent)
        return _shared(Know(agent, body)) if kw == "K" else know_value(agent, body)

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
        if kind == "name" and self.peek(1)[1] == "(":
            if self.scope is not None:
                self.fail("a local expression has no macros")
            if text in self.macros:
                return self.parse_macro(text)
            raise UsageError(f"formula: unknown macro {text!r} at {pos}"
                             + ("" if self.macros else " (no model bound)"))
        if self.scope is not None:
            return self.parse_any() if text == "any" else self.parse_local()
        return self.parse_atom_or_ref(require_cmp=True)

    # formulas: atoms and macros ----------------------------------------------

    def parse_macro(self, name):
        self.next()
        self.expect("(")
        if self.peek()[1] == ")":
            self.next()
            args = []
        else:
            args = self.listed(self.macro_arg, ")")
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
        if atom.agent is not None:
            self.check_agent(atom.agent)
        decls = getattr(self.model, "variables", None)
        if decls is not None:
            if atom.name not in decls:
                raise UsageError(f"formula: unknown variable {atom.name!r}")
            if atom.value not in {int(v) for v in decls[atom.name].domain}:
                raise UsageError(
                    f"formula: value {atom.value} outside the domain of {atom.name!r}")
        return _shared(atom)

    # local expressions: reads of the scope's agent ---------------------------

    def parse_local(self):
        base = self.ident("an expression")
        if self.peek()[1] == ".":
            self.fail(f"{base}. names another agent's state")
        index = None
        if self.peek()[1] == "[":
            self.next()
            index = self.index()
            self.expect("]")
        op = self.peek()[1]
        if op == "in":
            self.next()
            return self.disj([self.read(base, index, "==", v) for v in self.members()])
        # a valued local compares with an index term, a bit with an integer
        # only: `msg == true` is the equivalence of two expressions
        valued = index is None and base in VALUED_LOCALS
        if op in ("==", "!=") and (valued or self.peek(1)[0] == "int"):
            self.next()
            return self.read(base, index, op, self.index())
        if valued:
            self.fail(f"expected ==, != or in after {base}")
        return self.read(base, index)

    def read(self, base, index, op="==", value=1):
        """The atom of a local read: rr[u] is the round result, any other name
        one of the agent's own locals."""
        if value not in (0, 1) and not (index is None and base in VALUED_LOCALS):
            self.fail(f"value {value} outside the domain of the bit {base!r}")
        if self.dry:
            return FALSE
        scope = self.scope
        name = base if index is None else f"{base}[{index}]"
        atom = Atom(None if base == "rr" and index is not None else scope.agent, name, op, value)
        if atom.name not in scope.names:
            raise ModelError(f"unknown history variable {name!r} (agent {scope.agent})")
        if atom.agent is None and index > scope.time:
            raise ModelError(f"unassigned history variable {name!r} read at time "
                             f"{scope.time} (agent {scope.agent})")
        return _shared(atom)

    def index(self):
        """INT | s | VAR, optionally + INT: its value in the scope."""
        kind, text, pos = self.next()
        if kind not in ("int", "name"):
            raise UsageError(f"{self.what}: bad index at {pos}")
        offset = 0
        if self.peek()[1] == "+":
            self.next()
            offset = self.int_lit()
        if kind == "int" or self.dry:
            return offset + (int(text) if kind == "int" else 0)
        if text == "s":
            if self.scope.slot is None:
                raise UsageError("expression uses the slot parameter 's' but no slot was given")
            return self.scope.slot + offset
        if text not in self.bound:
            raise UsageError(f"unbound index variable {text!r}")
        return self.bound[text] + offset

    def members(self):
        """The values after `in`: {i, ..} or a span."""
        if self.peek()[1] != "{":
            return self.span()
        self.next()
        return self.listed(self.index, "}")

    def listed(self, item, close):
        """item ("," item)* close: the items."""
        items = [item()]
        while self.peek()[1] == ",":
            self.next()
            items.append(item())
        self.expect(close)
        return items

    def span(self):
        """lo..hi [except i]: the integers from lo to hi, but i."""
        lo = self.int_lit()
        self.expect("..")
        hi = self.int_lit()
        excluded = None
        if self.peek()[1] == "except":
            self.next()
            excluded = self.index()
        return [v for v in range(lo, hi + 1) if v != excluded]

    def parse_any(self):
        """any v in lo..hi [except i]: e, the disjunction of e over the span.
        The body is read once per value; an empty span is false, and its body
        is only checked for syntax."""
        self.expect("any")
        var = self.ident("a binder variable")
        self.expect("in")
        values = self.span()
        self.expect(":")
        start, outer = self.i, self.bound
        self.bound = dict(outer)
        parts = []
        if self.dry or not values:
            self.dry += 1
            self.parse_arrow()
            self.dry -= 1
        else:
            for v in values:
                self.i = start
                self.bound[var] = v
                parts.append(self.parse_arrow())
        self.bound = outer
        return self.disj(parts)

    def disj(self, parts):
        # left-folded like fm.disj, with the nodes shared
        return reduce(lambda out, part: _shared(Or(out, part)), parts) if parts else FALSE


def parse_formula(text: str, model=None, macros: Optional[MacroTable] = None,
                  scope: Optional[LocalScope] = None) -> Optional[Formula]:
    """Parse a formula; `model` (a system) enables agent/variable/domain
    validation and `macros` supplies the macro expansions.  With a `scope`
    the text is a local expression, read in the scope's agent code (module
    docstring); a scope without names checks the syntax and returns None."""
    return _Parser(text, model, macros, scope).parse()

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
