"""Local expressions: what an agent's own code may compute.

A local expression is formula text read in the agent's scope (the formula
module's docstring has the grammar).  to_formula reads it, for one agent at
one time and slot, as a K/X-free formula, which the formula evaluator
evaluates on whole columns of runs (eval_expr) or on one valuation (the
tests' scalar reference).  kc/rcvd/dlvrd read false until the step that
assigns them; that comes from the storage they are read from, and there is
no declared initial value.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from . import formula as fm
from .model import InterpretedSystem


@lru_cache(maxsize=4096)
def to_formula(text: str, agent: Optional[str], time: int, slot: Optional[int] = None,
               names: Optional[tuple] = None) -> Optional[fm.Formula]:
    """The K/X-free formula `text` stands for in `agent`'s code at `time`.

    's' reads `slot`; `names` is the agent's vocabulary, the flat names its
    code may read (engine.local_vocabulary).  Without names only the syntax
    is checked, and the result is None.
    """
    scope = fm.LocalScope(agent, time, slot, names)
    return fm.parse_formula(text, scope=scope)


def eval_expr(text: str, system: InterpretedSystem, agent: str, time: int,
              slot: Optional[int] = None) -> np.ndarray:
    """The expression's truth vector over all runs of `system`, read at `time`.

    Each call evaluates with a fresh Evaluator: the engine stores latched
    traces step by step while it builds, and a memo kept across statements
    would hand back a trace's value from before it was stored.
    """
    phi = to_formula(text, agent, time, slot, system.meta["vocabulary"][agent])
    return fm.Evaluator(system).vector(phi, time)
