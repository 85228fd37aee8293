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

"s" is the slot parameter, substituted when a slot-parameterized predicate is
instantiated.  The "any" binder is a bounded disjunction; it covers forms such
as  any t in 1..3 except s: (slot_request == t && !rr[t]).

The library evaluates expressions on whole columns of runs at once (numpy
vectors): the engine's step loop and the fixpoint check read them that way.
The same evaluator also takes plain bools from a single history; that scalar
form serves the tests' per-history reference.
Reading rr[u] before step u has happened is a model error.  kc/rcvd/dlvrd read
false until the step that assigns them; that comes from the storage they are
read from, and there is no declared initial value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .formula import Cursor
from .model import ModelError, UsageError

# ---------------------------------------------------------------------------
# AST

Idx = tuple  # ("const", n) | ("slot", offset) | ("var", name, offset)


@dataclass(frozen=True)
class LConst:
    value: bool


@dataclass(frozen=True)
class LRef:
    base: str            # rr | kc | rcvd0 | rcvd1 | msg | dlvrd
    index: Optional[Idx]


@dataclass(frozen=True)
class LSlotCmp:
    op: str              # "==" | "!=" | "in"
    terms: tuple         # of Idx (a single one for ==/!=)
    except_: Optional[Idx] = None


@dataclass(frozen=True)
class LNot:
    child: "LocalExpr"


@dataclass(frozen=True)
class LBin:
    op: str              # "&&" | "||" | "==" | "!="
    left: "LocalExpr"
    right: "LocalExpr"


@dataclass(frozen=True)
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
# Evaluation


class HistoryView:
    """One agent's history at `time`, read on demand.

    read maps flat names (rr[u], or the agent's own "C1.kc[2]") to values,
    scalars or run vectors, and raises KeyError for a name it does not hold.
    Latched variables already read false before their step wherever they are
    stored, so the one time rule left here is that rr[u] cannot be read
    before step u.  Only the local-expression vocabulary can be read.
    """

    def __init__(self, agent: str, time: int, read):
        self.agent = agent
        self.time = time
        self.read = read

    def ref(self, base: str, index: Optional[int]):
        name = base if index is None else f"{base}[{index}]"
        try:
            if base not in (_UNINDEXED if index is None else _INDEXED):
                raise KeyError(name)
            value = self.read(name if base == "rr" else f"{self.agent}.{name}")
        except KeyError:
            raise ModelError(f"unknown history variable {name!r} (agent {self.agent})") from None
        if base == "rr" and index > self.time:
            raise ModelError(f"unassigned history variable {name!r} read at time "
                             f"{self.time} (agent {self.agent})")
        return value


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


def eval_expr(expr: LocalExpr, view: HistoryView, slot: Optional[int] = None,
              bindings: Optional[dict] = None):
    """Evaluate over a HistoryView; returns a bool or a bool vector."""
    bindings = bindings or {}
    if isinstance(expr, LConst):
        return expr.value
    if isinstance(expr, LRef):
        value = view.ref(expr.base, _resolve(expr.index, slot, bindings))
        return value.astype(bool) if isinstance(value, np.ndarray) else bool(value)
    if isinstance(expr, LSlotCmp):
        sr = view.ref("slot_request", None)
        values = [_resolve(t, slot, bindings) for t in expr.terms]
        if expr.except_ is not None:
            excluded = _resolve(expr.except_, slot, bindings)
            values = [v for v in values if v != excluded]
        if expr.op == "==":
            return sr == values[0]
        if expr.op == "!=":
            return sr != values[0]
        out = sr == values[0] if values else (sr != sr)
        for v in values[1:]:
            out = out | (sr == v)
        return out
    if isinstance(expr, LNot):
        child = eval_expr(expr.child, view, slot, bindings)
        return ~child if isinstance(child, np.ndarray) else not child
    if isinstance(expr, LBin):
        left = eval_expr(expr.left, view, slot, bindings)
        right = eval_expr(expr.right, view, slot, bindings)
        if expr.op == "&&":
            return left & right
        if expr.op == "||":
            return left | right
        if expr.op == "==":
            return left == right
        return left != right
    if isinstance(expr, LAny):
        values = range(expr.lo, expr.hi + 1)
        excluded = _resolve(expr.except_, slot, bindings)
        out = None
        for v in values:
            if v == excluded:
                continue
            term = eval_expr(expr.body, view, slot, {**bindings, expr.var: v})
            out = term if out is None else (out | term)
        if out is None:
            return False
        return out
    raise TypeError(f"not a local expression node: {expr!r}")


def instantiate(expr: LocalExpr, slot: int) -> LocalExpr:
    """Ground a slot-parameterized expression: every 's' index becomes a constant."""

    def ground(idx):
        if idx is None or idx[0] != "slot":
            return idx
        return ("const", slot + idx[1])

    if isinstance(expr, LConst):
        return expr
    if isinstance(expr, LRef):
        return LRef(expr.base, ground(expr.index))
    if isinstance(expr, LSlotCmp):
        return LSlotCmp(expr.op, tuple(ground(t) for t in expr.terms), ground(expr.except_))
    if isinstance(expr, LNot):
        return LNot(instantiate(expr.child, slot))
    if isinstance(expr, LBin):
        return LBin(expr.op, instantiate(expr.left, slot), instantiate(expr.right, slot))
    if isinstance(expr, LAny):
        return LAny(expr.var, expr.lo, expr.hi, ground(expr.except_),
                    instantiate(expr.body, slot))
    raise TypeError(f"not a local expression node: {expr!r}")
