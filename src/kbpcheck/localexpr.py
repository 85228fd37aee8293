"""Local-expression language: what an agent's own code may compute.

Grammar (predicates over one agent's accumulated history):

    e       := or
    or      := and ("||" and)*
    and     := cmp ("&&" cmp)*
    cmp     := unary (("==" | "!=") unary)?
    unary   := "!" unary | primary
    primary := "true" | "false" | "(" e ")" | "msg" | "dlvrd"
             | ("rr" | "kc" | "rcvd0" | "rcvd1") "[" idx "]"
             | "slot_request" (("==" | "!=") iterm | "in" iset)
             | "any" VAR "in" INT ".." INT ["except" idx] ":" e
    idx     := INT | "s" | VAR, optionally "+" INT
    iterm   := INT | "s" | VAR
    iset    := "{" iterm ("," iterm)* "}" | INT ".." INT ["except" idx]

"s" is the slot parameter, substituted when an expression is compiled for a
slot.  The "any" binder is a bounded disjunction; it covers forms such as
any t in 1..3 except s: (slot_request == t && !rr[t]).

An expression is not interpreted on its own: to_formula compiles it, for one
agent at one time, to a K/X-free formula over the agent's flat names (rr[u],
C1.kc[2], C1.slot_request == v), and the formula evaluator evaluates that on
whole columns of runs (eval_expr) or on one valuation (the tests' scalar
reference).  Reading rr[u] before step u has happened is a model error.
kc/rcvd/dlvrd read false until the step that assigns them; that comes from
the storage they are read from, and there is no declared initial value.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from typing import Optional, Union

import numpy as np

from . import formula as fm
from .formula import Cursor, node
from .model import InterpretedSystem, ModelError, UsageError

# ---------------------------------------------------------------------------
# AST

Idx = tuple  # ("const", n) | ("slot", offset) | ("var", name, offset)


@node
class LConst:
    value: bool


@node
class LRef:
    base: str            # rr | kc | rcvd0 | rcvd1 | msg | dlvrd
    index: Optional[Idx]


@node
class LSlotCmp:
    op: str              # "==" | "!=" | "in"
    terms: tuple         # of Idx (a single one for ==/!=)
    except_: Optional[Idx] = None


@node
class LNot:
    child: "LocalExpr"


@node
class LBin:
    op: str              # "&&" | "||" | "==" | "!="
    left: "LocalExpr"
    right: "LocalExpr"


@node
class LAny:
    var: str
    lo: int
    hi: int
    except_: Optional[Idx]
    body: "LocalExpr"


LocalExpr = Union[LConst, LRef, LSlotCmp, LNot, LBin, LAny]

_INDEXED = {"rr", "kc", "rcvd0", "rcvd1"}
_BARE = {"msg", "dlvrd"}
_UNINDEXED = _BARE | {"slot_request"}

# ---------------------------------------------------------------------------
# Parser

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<dots>\.\.)
  | (?P<op>\|\||&&|==|!=|[!()\[\]{},:+])
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
""", re.VERBOSE)


class _Parser(Cursor):
    def parse(self) -> LocalExpr:
        expr = self.parse_or()
        if self.peek()[0] != "eof":
            self.fail("trailing input")
        return expr

    def parse_or(self):
        expr = self.parse_and()
        while self.peek()[1] == "||":
            self.next()
            expr = LBin("||", expr, self.parse_and())
        return expr

    def parse_and(self):
        expr = self.parse_cmp()
        while self.peek()[1] == "&&":
            self.next()
            expr = LBin("&&", expr, self.parse_cmp())
        return expr

    def parse_cmp(self):
        expr = self.parse_unary()
        if self.peek()[1] in ("==", "!="):
            op = self.next()[1]
            expr = LBin(op, expr, self.parse_unary())
        return expr

    def parse_unary(self):
        if self.peek()[1] == "!":
            self.next()
            return LNot(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        kind, text, pos = self.peek()
        if text == "(":
            self.next()
            expr = self.parse_or()
            self.expect(")")
            return expr
        if text == "true":
            self.next()
            return LConst(True)
        if text == "false":
            self.next()
            return LConst(False)
        if text == "any":
            return self.parse_any()
        if text == "slot_request":
            self.next()
            return self.parse_slot_cmp()
        if text in _BARE:
            self.next()
            return LRef(text, None)
        if text in _INDEXED:
            self.next()
            self.expect("[")
            idx = self.parse_idx()
            self.expect("]")
            return LRef(text, idx)
        self.fail("expected an expression")

    def parse_any(self):
        self.expect("any")
        kind, var, pos = self.next()
        if kind != "name":
            raise UsageError(f"local expression: expected a binder variable at {pos}")
        self.expect("in")
        lo = self.int_lit()
        self.expect("..")
        hi = self.int_lit()
        except_ = None
        if self.peek()[1] == "except":
            self.next()
            except_ = self.parse_idx()
        self.expect(":")
        body = self.parse_or()
        return LAny(var, lo, hi, except_, body)

    def parse_slot_cmp(self):
        op = self.peek()[1]
        if op in ("==", "!="):
            self.next()
            return LSlotCmp(op, (self.parse_idx(),))
        if op == "in":
            self.next()
            if self.peek()[1] == "{":
                self.next()
                terms = [self.parse_idx()]
                while self.peek()[1] == ",":
                    self.next()
                    terms.append(self.parse_idx())
                self.expect("}")
                return LSlotCmp("in", tuple(terms))
            lo = self.int_lit()
            self.expect("..")
            hi = self.int_lit()
            except_ = None
            if self.peek()[1] == "except":
                self.next()
                except_ = self.parse_idx()
            return LSlotCmp("in", tuple(("const", v) for v in range(lo, hi + 1)), except_)
        self.fail("expected ==, != or in after slot_request")

    def parse_idx(self) -> Idx:
        kind, text, pos = self.next()
        if kind == "int":
            base = ("const", int(text))
        elif text == "s":
            base = ("slot", 0)
        elif kind == "name":
            base = ("var", text, 0)
        else:
            raise UsageError(f"local expression: bad index at {pos}")
        if self.peek()[1] == "+":
            self.next()
            off = self.int_lit()
            if base[0] == "const":
                base = ("const", base[1] + off)
            elif base[0] == "slot":
                base = ("slot", off)
            else:
                base = ("var", base[1], off)
        return base


def parse_local_expr(text: str) -> LocalExpr:
    """Parse a local expression; raises UsageError with a position on bad input."""
    return _Parser(text, _TOKEN, "local expression").parse()

# ---------------------------------------------------------------------------
# Compilation and evaluation


def _resolve(idx: Optional[Idx], slot: Optional[int], bindings: dict) -> Optional[int]:
    if idx is None:
        return None
    if idx[0] == "const":
        return idx[1]
    if idx[0] == "slot":
        if slot is None:
            raise UsageError("expression uses the slot parameter 's' but no slot was given")
        return slot + idx[1]
    _, name, off = idx
    if name not in bindings:
        raise UsageError(f"unbound index variable {name!r}")
    return bindings[name] + off


@lru_cache(maxsize=8192)
def _shared(phi: fm.Formula) -> fm.Formula:
    """The first-built node equal to `phi`: compiled formulas share their
    equal subtrees, which keeps the compile cache small."""
    return phi


def _disj(parts: list) -> fm.Formula:
    return reduce(lambda out, part: _shared(fm.Or(out, part)), parts) if parts else fm.FALSE


_CONNECTIVES = {"&&": fm.And, "||": fm.Or, "==": fm.Iff, "!=": fm.Iff}


@lru_cache(maxsize=4096)
def to_formula(expr: LocalExpr, agent: str, time: int, slot: Optional[int] = None,
               names: Optional[tuple] = None) -> fm.Formula:
    """The K/X-free formula an expression stands for in `agent`'s code at `time`.

    's' becomes `slot` and each "any" binder a disjunction; rr[u] becomes the
    atom rr[u], and an own local x the atom agent.x.  A reference outside the
    vocabulary, or outside `names` (the agent's observable names) when given,
    is an unknown history variable; rr[u] cannot be read before step u.
    """

    def ref(base, index):
        name = base if index is None else f"{base}[{index}]"
        flat = name if base == "rr" else f"{agent}.{name}"
        if base not in (_UNINDEXED if index is None else _INDEXED) or (
                names is not None and flat not in names):
            raise ModelError(f"unknown history variable {name!r} (agent {agent})")
        if base == "rr" and index > time:
            raise ModelError(f"unassigned history variable {name!r} read at time "
                             f"{time} (agent {agent})")
        return (None if base == "rr" else agent), name

    def compile_(expr, bindings):
        if isinstance(expr, LConst):
            return fm.TRUE if expr.value else fm.FALSE
        if isinstance(expr, LRef):
            return _shared(fm.Atom(*ref(expr.base, _resolve(expr.index, slot, bindings)), "==", 1))
        if isinstance(expr, LSlotCmp):
            owner, var = ref("slot_request", None)
            values = [_resolve(t, slot, bindings) for t in expr.terms]
            if expr.except_ is not None:
                excluded = _resolve(expr.except_, slot, bindings)
                values = [v for v in values if v != excluded]
            if expr.op != "in":
                return _shared(fm.Atom(owner, var, expr.op, values[0]))
            return _disj([_shared(fm.Atom(owner, var, "==", v)) for v in values])
        if isinstance(expr, LNot):
            return _shared(fm.Not(compile_(expr.child, bindings)))
        if isinstance(expr, LBin):
            phi = _shared(_CONNECTIVES[expr.op](compile_(expr.left, bindings),
                                                compile_(expr.right, bindings)))
            return _shared(fm.Not(phi)) if expr.op == "!=" else phi
        if isinstance(expr, LAny):
            excluded = _resolve(expr.except_, slot, bindings)
            return _disj([compile_(expr.body, {**bindings, expr.var: v})
                          for v in range(expr.lo, expr.hi + 1) if v != excluded])
        raise TypeError(f"not a local expression node: {expr!r}")

    return compile_(expr, {})


def eval_expr(expr: LocalExpr, system: InterpretedSystem, agent: str, time: int,
              slot: Optional[int] = None) -> np.ndarray:
    """The expression's truth vector over all runs of `system`, read at `time`.

    Each call evaluates with a fresh Evaluator: the engine writes latched
    columns in place while it builds, and a memo kept across statements would
    hand back a column's value from before its write.
    """
    phi = to_formula(expr, agent, time, slot, system.observable_names(agent))
    return fm.Evaluator(system).vector(phi, time)
