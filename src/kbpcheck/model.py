"""Semantic substrate: variables, bounded runs, observations, indistinguishability.

A finite interpreted system is a fixed set of bounded synchronous runs over a
declared variable vocabulary.  Agents observe a subset of the variables; under
perfect recall an agent's local state at time t is the full sequence of its
observations at times 0..t.  Two points (run, time) are indistinguishable to an
agent iff those sequences are equal, which yields, per agent and per time, a
partition of the time-t points.  Because every step appends one record, equal
local states force equal times, so synchrony is built in.

Runs are stored column-wise (one numpy vector per variable and time, one
value per history class, below) so that formula evaluation and partition
construction stay vectorized even for the exhaustive key-enumeration engine.
Every read serves that vector form: a column holds one value per run, and
partitions are dense block labels per run.  A question about one point
indexes those vectors; the per-point histories the tests compare the labels
against live in the test suite.

History classes.  A system of branching b holds groups * b^T runs, ordered
run = a * b^T + kappa: each step draws one of b values, and the step-1 draw
is the least significant digit of kappa.  The runs that share their global
history up to time t form a history class, (a, kappa mod b^t): there are
groups * b^t classes at t, numbered in the order of their least runs.  A
class vector at level t holds one value per class at t, so its length says
its level.  Traces are stored as class vectors only, so they are constant
within classes by construction; finalize checks that no stored level is
finer than the trace kind allows: 0 for a const trace, t for a step trace at
t, the latch time for a latched one.  Partitions are grouped once per (agent,
time), over class vectors: each class's record is packed into an integer
key, whose key space is relabelled densely whenever it outgrows the class
count, and the labels come from a first-occurrence table over that space.
The reduced engine has b = 1: its classes are its runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


class UsageError(Exception):
    """Bad parameters or inputs supplied by the caller (CLI exit code 2)."""


class ModelError(Exception):
    """Ill-formed model or an agent program reading unassigned history."""


@dataclass(frozen=True)
class VariableDecl:
    """A finite-domain variable: who owns it and who can observe it.

    owner is None for environment variables, otherwise an agent name.
    domain is the ordered tuple of admissible values (bools or small ints).
    """

    name: str
    domain: tuple
    owner: Optional[str]
    observable_by: frozenset

    def __post_init__(self):
        if not self.domain:
            raise UsageError(f"variable {self.name!r} has an empty domain")

    def bits(self) -> int:
        """Bits that hold every domain value (partition keys pack them)."""
        return max(1, int(max(self.domain)).bit_length())


@dataclass(frozen=True)
class Point:
    """A (run, time) pair; run is the index in the system's canonical order."""

    run: int
    time: int


class _Trace:
    """Per-variable storage as class vectors.  kind distinguishes the three
    time behaviours:

    const   — value fixed for the whole run (initial variables): one vector
              at level 0,
    step    — a fresh value at every step (announcements, key bits): one
              vector per time t, at a level <= t,
    latched — false until assigned at a fixed step, constant afterwards: one
              vector at a level <= that step, and before it the system's
              shared read-only zero vector.

    const and step traces are the primitive observations; latched traces are
    deterministic functions of them and are excluded from partition
    fingerprints (equivalence with full-history grouping is property-tested).
    """

    __slots__ = ("kind", "values", "latch_time", "before")

    def __init__(self, kind: str, values, latch_time: int = 0, before=None):
        self.kind = kind
        self.values = values
        self.latch_time = latch_time
        self.before = before

    def at(self, t: int) -> np.ndarray:
        if self.kind == "const":
            return self.values
        if self.kind == "step":
            return self.values[t]
        return self.values if t >= self.latch_time else self.before


class InterpretedSystem:
    """A finite set of bounded synchronous runs plus per-agent observability.

    Immutable after construction; all reads (columns, partitions, formula
    evaluation) are pure, so concurrent use is safe.  Partition labels are
    memoized per (agent, time), one per history class.  `branching` is the
    number of values each step draws (the naive engine's key bits); it lays
    out the history classes of the module docstring.
    """

    def __init__(self, agents: Sequence[str], horizon: int,
                 variables: Sequence[VariableDecl], n_runs: int,
                 meta: Optional[dict] = None, branching: int = 1):
        if horizon < 0:
            raise UsageError("horizon must be >= 0")
        if branching < 1 or n_runs % branching ** horizon:
            raise ModelError(f"{n_runs} runs do not split into histories of branching "
                             f"{branching} over {horizon} steps")
        self.agents = tuple(agents)
        self.horizon = horizon
        self.n_runs = n_runs
        self.branching = branching
        self._groups = n_runs // branching ** horizon     # the level-0 classes
        self.variables = {}
        for decl in variables:
            if decl.name in self.variables:
                raise UsageError(f"duplicate variable {decl.name!r}")
            if decl.owner is not None and decl.owner not in self.agents:
                raise UsageError(f"variable {decl.name!r} owned by unknown agent {decl.owner!r}")
            unknown = decl.observable_by - set(self.agents)
            if unknown:
                raise UsageError(f"variable {decl.name!r} observable by unknown agents {sorted(unknown)}")
            self.variables[decl.name] = decl
        self.meta = dict(meta or {})
        self.excluded_atoms: dict = {}      # name -> reason (e.g. key atoms on the reduced engine)
        self._traces: dict = {}
        self._labels_cache: dict = {}
        self._obs_names = {a: tuple(n for n, d in self.variables.items() if a in d.observable_by)
                           for a in self.agents}
        self._obs_basis: dict = {}          # agent -> primitive observations, on first use
        self._zero = np.zeros(self._groups, dtype=np.uint8)     # read before a latch time
        self._zero.setflags(write=False)

    # construction -------------------------------------------------------

    def set_const(self, name: str, values: np.ndarray):
        self._set(name, _Trace("const", np.asarray(values, dtype=np.uint8)))

    def set_step(self, name: str, values: Sequence[np.ndarray]):
        """values: the class vectors of times 0..T, which the build may fill."""
        self._set(name, _Trace("step", values))

    def set_latched(self, name: str, values: np.ndarray, latch_time: int):
        if not 0 <= latch_time <= self.horizon:
            raise ModelError(f"latch time {latch_time} outside 0..{self.horizon}")
        values = np.asarray(values, dtype=np.uint8)  # no copy when already uint8
        self._set(name, _Trace("latched", values, latch_time, self._zero))

    def _set(self, name, trace):
        if name not in self.variables:
            raise ModelError(f"trace for undeclared variable {name!r}")
        self._traces[name] = trace

    def finalize(self) -> "InterpretedSystem":
        missing = set(self.variables) - set(self._traces)
        if missing:
            raise ModelError(f"variables without traces: {sorted(missing)}")
        shapes = [(self.n_classes(t),) for t in range(self.horizon + 1)]
        for name, trace in self._traces.items():
            step = trace.kind == "step"
            if step and len(trace.values) != self.horizon + 1:
                raise ModelError(f"step trace {name!r} must hold T+1 class vectors")
            stored = enumerate(trace.values) if step else [(trace.latch_time, trace.values)]
            for t, vector in stored:
                if vector.shape not in shapes[:t + 1]:
                    raise ModelError(f"trace {name!r} at time {t} is not a class vector "
                                     f"of a level up to {t}")
            values = np.concatenate(trace.values) if step else trace.values
            allowed = {int(v) for v in self.variables[name].domain}
            # a span of allowed values needs no sort; np.unique names the culprits
            if not values.size or allowed.issuperset(
                    range(int(values.min()), int(values.max()) + 1)):
                continue
            present = set(np.unique(values).tolist())
            if not present <= allowed:
                raise ModelError(f"values of {name!r} outside its domain: {sorted(present - allowed)}")
        return self

    # reads ---------------------------------------------------------------

    def column(self, name: str, time: int) -> np.ndarray:
        """The column at `time`, one value per run: its class vector widened
        (on the reduced engine, the stored array itself)."""
        return self.widen(self.class_column(name, time))

    def class_column(self, name: str, time: int) -> np.ndarray:
        """The stored class vector of `name` at `time`; its length says its
        level, which is at most what the trace kind allows."""
        if name in self.excluded_atoms:
            raise UsageError(self.excluded_atoms[name])
        trace = self._traces.get(name)
        if trace is None:
            raise UsageError(f"unknown variable {name!r}")
        if not 0 <= time <= self.horizon:
            raise UsageError(f"time {time} outside 0..{self.horizon}")
        return trace.at(time)

    def n_classes(self, time: int) -> int:
        return self._groups * self.branching ** time

    def widen(self, values: np.ndarray, size: Optional[int] = None) -> np.ndarray:
        """A class vector spread to `size` classes (default: one per run):
        every finer class takes the value of the class that contains it."""
        size = self.n_runs if size is None else size
        if len(values) == size:
            return values
        g = self._groups
        return np.broadcast_to(values.reshape(g, 1, -1),
                               (g, size // len(values), len(values) // g)).reshape(-1)

    def any_within(self, values: np.ndarray, size: int) -> np.ndarray:
        """A class vector narrowed to the `size` classes of a coarser level:
        a class is set when any of its continuations is."""
        return values.reshape(self._groups, -1, size // self._groups).any(axis=1).reshape(-1)

    def observable_names(self, agent: str) -> tuple:
        self._check_agent(agent)
        return self._obs_names[agent]

    # partitions ----------------------------------------------------------

    def partition_labels(self, agent: str, time: int):
        """Dense block labels for the time-t points, one per run: the class
        labels widened to the runs."""
        labels, n = found = self.class_labels(agent, time)
        return found if len(labels) == self.n_runs else (self.widen(labels), n)

    def class_labels(self, agent: str, time: int):
        """Dense block labels per history class at `time`, refined incrementally.

        Labels at time t group the classes by equality of the primitive
        observation records at times 0..t; label numbering is by least member
        class, which is numbering by least member run.
        """
        self._check_agent(agent)
        if not 0 <= time <= self.horizon:
            raise UsageError(f"time {time} outside 0..{self.horizon}")
        key = (agent, time)
        if key in self._labels_cache:
            return self._labels_cache[key]
        names = self._basis(agent)
        if time == 0:
            labels, n = self._group([self.class_column(n, 0) for n in names],
                                    [self.variables[n].bits() for n in names], None)
        else:
            # the previous labels already split the runs by the const records
            names = [n for n in names if self._traces[n].kind == "step"]
            prev, n_prev = self.class_labels(agent, time - 1)
            size = self.n_classes(time)
            cols = [self.widen(self.class_column(n, time), size) for n in names]
            bits = [self.variables[n].bits() for n in names]
            labels, n = self._group(cols, bits, (self.widen(prev, size), n_prev))
        self._labels_cache[key] = (labels, n)
        return labels, n

    def _basis(self, agent):
        """The agent's primitive observations: its const and step traces.
        Computed once, so every trace must be set before partitions are read
        (knowledge tests read them mid-build, after every trace is set)."""
        names = self._obs_basis.get(agent)
        if names is None:
            names = tuple(n for n in self._obs_names[agent]
                          if self._traces[n].kind != "latched")
            self._obs_basis[agent] = names
        return names

    @staticmethod
    def _group(cols, bits, prev):
        """Group classes by the tuple (prev label, *cols), labelled densely
        in least-member order.

        The record is packed into one int64 key whose key space (the number
        of possible keys) is known: n_prev << sum(bits).  Before the next
        column is shifted in, a key space larger than the class count n is
        relabelled densely, so no key space passes n << max(bits).  Labels
        come from a first-occurrence table over the key space: table[key] is
        the least class with that key, and the classes that are their key's
        first occurrence number the blocks in order.
        """
        if prev is None:
            if not cols:
                raise ModelError("cannot group on an empty record")
            prev = (np.zeros(len(cols[0]), dtype=np.int64), 1)
        acc, space = prev
        for col, b in zip(cols, bits):
            if space > len(acc):
                acc, space = _first_occurrence(acc, space)
            acc = (acc << b) | col
            space <<= b
        return _first_occurrence(acc, space)

    # validation helpers ---------------------------------------------------

    def _check_agent(self, agent):
        if agent not in self.agents:
            raise UsageError(f"unknown agent {agent!r}")


def _first_occurrence(keys, space):
    """Dense labels of int64 `keys` in 0..space-1, numbered by the least
    index holding each key, and their count."""
    if not len(keys):
        return keys, 0
    index = np.arange(len(keys))
    table = np.full(space, len(keys), dtype=np.int64)
    np.minimum.at(table, keys, index)
    first = table[keys]
    ids = np.cumsum(first == index, dtype=np.int64) - 1
    return ids[first], int(ids[-1]) + 1
