"""The oracle proving the two observation models of the engine agree.

The naive engine enumerates every key schedule exhaustively: it is the
ground-truth semantics, feasible only at small scale.  The reduced engine
quotients the keys out: one run per admissible initial assignment, with
agent observations replaced by the per-step invariant pair

    (own contribution bit, xor of the other two agents' contribution bits)

— precisely what a ring member can reconstruct from the announcements and its
own two keys, and nothing more (the one key it does not hold masks the other
two contributions down to their xor).  The reduced engine stores that pair
as the step columns {agent}.contrib and {agent}.oxr, which its partitions
read.  For key-free formulas the engines give the same truth values;
engines_agree checks that claim formula by formula and time by time, for
every naive run under the run projection.  It compares class vectors: the
naive runs that share their global history up to the level of a formula's
vector share its value (model's docstring), so each class is compared once
against the reduced run of its assignment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import formula as fm
from .engine import (ProtocolModel, Scenario, generate_runs, reduced_system)
from .model import InterpretedSystem, UsageError

# ---------------------------------------------------------------------------
# Random formula suite


def random_formulas(system: InterpretedSystem, seed: int, count: int,
                    max_depth: int = 3) -> list:
    """Seeded epistemic formulas over the key-free vocabulary of `system`."""
    rng = random.Random(seed)
    atoms = _atom_pool(system)
    agents = list(system.agents)
    out = []
    for i in range(count):
        phi = _gen(rng, atoms, agents, max_depth)
        if not any(isinstance(sub, fm.Know) for sub in fm.subformulas(phi)):
            phi = fm.Know(rng.choice(agents), phi)
        out.append((f"random-{i}", phi))
    return out


def _atom_pool(system: InterpretedSystem) -> list:
    # the programs' vocabulary: the agents' locals and rr, no key material
    vocabulary = set().union(*system.meta["vocabulary"].values())
    pool = []
    for name, decl in system.variables.items():
        if name not in vocabulary:
            continue
        agent, _, var = name.rpartition(".")
        agent = agent or None
        for value in decl.domain:
            pool.append(fm.Atom(agent, var, "==", int(value)))
    return pool


def _gen(rng, atoms, agents, depth):
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice(atoms)
    kind = rng.choices(("not", "and", "or", "implies", "iff", "know", "next"),
                       weights=(2, 3, 3, 1, 1, 5, 2))[0]
    if kind == "not":
        return fm.Not(_gen(rng, atoms, agents, depth - 1))
    if kind == "know":
        return fm.Know(rng.choice(agents), _gen(rng, atoms, agents, depth - 1))
    if kind == "next":
        return fm.Next(_gen(rng, atoms, agents, depth - 1))
    ctor = {"and": fm.And, "or": fm.Or, "implies": fm.Implies, "iff": fm.Iff}[kind]
    return ctor(_gen(rng, atoms, agents, depth - 1),
                _gen(rng, atoms, agents, depth - 1))

# ---------------------------------------------------------------------------
# Agreement oracle


@dataclass
class Mismatch:
    name: str
    formula: str
    time: int
    run: int
    naive_value: bool
    reduced_value: bool

    def to_json(self) -> dict:
        return {"name": self.name, "formula": self.formula, "time": self.time,
                "run": self.run, "naive": self.naive_value, "reduced": self.reduced_value}


@dataclass
class AgreementReport:
    formulas: int
    checks: int
    points_compared: int
    seed: Optional[int]
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {"formulas": self.formulas, "checks": self.checks,
                "points_compared": self.points_compared, "seed": self.seed,
                "agree": self.ok,
                "mismatches": [m.to_json() for m in self.mismatches[:50]]}


def engines_agree(model: ProtocolModel, scenario: Scenario, formula_suite: Sequence,
                  seed: Optional[int] = None, n_random: int = 0,
                  max_naive_runs: int = 4_000_000,
                  naive: Optional[InterpretedSystem] = None,
                  reduced: Optional[InterpretedSystem] = None) -> AgreementReport:
    """Check naive/reduced agreement for every formula at every legal time.

    Pointwise: each naive run projects to the reduced run with the same
    initial assignment; truth values must match run by run, which subsumes
    verdict agreement.  The runs of a history class share their value, so
    each naive class is compared once, and a mismatch names the least run
    of the first differing class, which is the first differing run.  Any
    divergence is recorded, not raised — it is a test failure, not a runtime
    error.  A reduced system that is not the quotient of the naive one
    (other assignments, run count or horizon) is refused.

    Each node's memoized vectors are dropped once the last suite formula that
    contains the node has been compared: the same vectors are computed as
    with a memo kept for the whole suite, but only the live ones are held.
    """
    if n_random < 0:
        raise UsageError(f"random formula count {n_random} is negative")
    naive = naive if naive is not None else generate_runs(
        model, scenario, "naive", max_naive_runs=max_naive_runs)
    reduced = reduced if reduced is not None else reduced_system(model, scenario)
    n_keys = naive.meta["n_key_schedules"]
    if (reduced.n_runs * n_keys != naive.n_runs or reduced.horizon != naive.horizon
            or not np.array_equal(reduced.meta.get("assignments"), naive.meta.get("assignments"))):
        raise UsageError(
            f"the reduced system ({reduced.n_runs:,} runs, horizon {reduced.horizon}) does not "
            f"quotient the naive one ({naive.n_runs:,} runs, {n_keys:,} key schedules per "
            f"assignment, horizon {naive.horizon}); build both from one model and scenario")
    suite = list(formula_suite)
    if n_random:
        if seed is None:
            raise UsageError("random formulas need a seed")
        suite += random_formulas(reduced, seed, n_random)
    last_use = {sub: i for i, (_, phi) in enumerate(suite) for sub in fm.subformulas(phi)}
    ev_naive = fm.Evaluator(naive)
    ev_reduced = fm.Evaluator(reduced)
    report = AgreementReport(len(suite), 0, 0, seed)
    for i, (name, phi) in enumerate(suite):
        depth = fm.x_depth(phi)
        for time in range(0, naive.horizon - depth + 1):
            vec_n = ev_naive.classes(phi, time)
            vec_r = ev_reduced.classes(phi, time)
            report.checks += 1
            report.points_compared += naive.n_runs
            # naive classes are assignment-major: row a holds assignment a's k
            # classes, and class c's least run is (c // k) * n_keys + c % k
            k = len(vec_n) // len(vec_r)
            diff = vec_n.reshape(-1, k) != vec_r[:, None]
            if diff.any():
                c = int(np.argmax(diff))
                report.mismatches.append(
                    Mismatch(name, fm.fmt(phi), time, (c // k) * n_keys + c % k,
                             bool(vec_n[c]), bool(vec_r[c // k])))
        dead = {sub for sub in fm.subformulas(phi) if last_use[sub] == i}
        ev_naive.evict(dead)
        ev_reduced.evict(dead)
    return report
