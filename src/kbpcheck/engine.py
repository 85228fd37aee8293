"""Protocol engine: per-agent straight-line programs executed in lock-step.

A protocol runs for a fixed horizon of macro steps.  At every step each agent
announces one bit; all announcements of a step are simultaneous and observed
at the step's end, together with that step's fresh shared key bits.  The
round result rr[t] is the xor of the public announcements; each shared key
appears in exactly two announcements, so the keys cancel and rr[t] equals the
xor of the agents' contribution bits.

One lock-step loop builds every run set over all runs at once: announce, take
rr as the xor of the public announcements, latch it, run the post-step
assignments.  It stores what the evaluator returns, one value per history
class (model), not one per run.  Two observation models plug into it:

  * naive   — one run per (initial assignment x key schedule), exhaustively;
              agent i publicly says contribution xor both of its keys.  The
              ground-truth oracle: rr is taken from what is said, so it does
              not assume that the keys cancel.
  * reduced — one run per initial assignment; the keys are quotiented out and
              each agent observes, per step, its own contribution and the xor
              of the others' contributions.

generate_runs builds any program on either model, reduced_system exposes
the oracle's deliberately coarse variant, and execute_kbp is the reduced
build by its knowledge-based name.  Knowledge tests are resolved
time-inductively: the run prefixes up to step t determine each agent's
partition at t, which resolves every present-time knowledge test at t;
verify_kbp_fixpoint re-checks them in a built run set of either engine.
Every program local but slot_request and msg reads false until the step
that assigns it.

Every statement is a formula: an announcement is read at time step-1, an
assignment at time step.  The implementation's statements are its local
expressions compiled to formulas; the knowledge-based program's are the
knowledge formulas themselves, so the loop does not tell the two apart.
Each local is assigned once (the build checks it), so nothing at a time
before the current step is written again.  Within a step the loop stores the
latched traces, statement by statement and agent by agent, and a statement
reads false from a local that it or a later statement of the step assigns,
by any agent, and the new value from one an earlier statement stored.  Those
reads are compiled to false (_step_statements), so no memoized value is
computed from a trace stored afterwards: one Evaluator serves the build.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import formula as fm
from .model import InterpretedSystem, ModelError, UsageError, VariableDecl

ENGINE_MODES = ("naive", "reduced")

# ---------------------------------------------------------------------------
# Programs


@dataclass(frozen=True)
class Assign:
    var: str
    formula: fm.Formula


@dataclass(frozen=True)
class PhaseBlock:
    """One macro step: exactly one announcement, the agent's contribution bit
    read at the step's start, then post-step assignments that may read
    everything observed through this step."""

    announce: fm.Formula
    post: tuple = ()        # of Assign


@dataclass(frozen=True)
class AgentProgram:
    agent: str
    locals_: tuple          # of names: slot_request and msg, then the latched ones
    phases: tuple           # of PhaseBlock, one per step 1..T

    def assignment_step(self, var: str) -> Optional[int]:
        for step, block in enumerate(self.phases, start=1):
            for stmt in block.post:
                if stmt.var == var:
                    return step
        return None


@dataclass
class Scenario:
    """Initial-condition constraint: admissible slot_request/msg vectors."""

    name: str
    slot_request: dict       # agent -> tuple of admissible values
    msg: dict                # agent -> tuple of admissible values
    constraint: Optional[fm.Formula] = None


@dataclass
class ProtocolModel:
    agents: tuple
    slots: int
    horizon: int
    programs: dict           # agent -> AgentProgram
    key_edges: tuple         # of (edge name, (agent, agent)) around the ring

    def agent_keys(self, agent: str) -> tuple:
        names = [name for name, ends in self.key_edges if agent in ends]
        if len(names) != 2:
            raise ModelError(f"agent {agent!r} must sit on exactly two key edges")
        return tuple(names)

    def agent_index(self, agent: str) -> int:
        return self.agents.index(agent) + 1


def local_vocabulary(agent: str, locals_: Sequence[str], horizon: int) -> tuple:
    """The flat names an agent's code may read: its own locals and the round
    results rr[1..horizon].  The engines' other observations (contrib, oxr,
    key bits, said[i]) are not among them."""
    return tuple(f"{agent}.{name}" for name in locals_) + \
        tuple(f"rr[{t}]" for t in range(1, horizon + 1))


def _validate_program(program: AgentProgram):
    """Statements read the present only, and a local is assigned once: a
    second write would change what the statements between the two read."""
    latch = {}
    for step, block in enumerate(program.phases, start=1):
        for phi in (block.announce, *(stmt.formula for stmt in block.post)):
            if fm.x_depth(phi):
                raise UsageError("program statements must refer to the present time (no X)")
        for stmt in block.post:
            if stmt.var in latch:
                raise ModelError(f"{program.agent}.{stmt.var} is assigned at steps "
                                 f"{latch[stmt.var]} and {step}")
            latch[stmt.var] = step


def _step_statements(model: ProtocolModel, step: int):
    """The (agent, Assign) statements of a step in loop order, compiled as the
    build reads them: an atom of a local that this statement or a later one of
    the step assigns is the constant that local reads before its write."""
    stmts = [(a, stmt) for a in model.agents for stmt in model.programs[a].phases[step - 1].post]
    pending = {f"{a}.{stmt.var}" for a, stmt in stmts}
    for a, stmt in stmts:
        yield a, Assign(stmt.var, _unwritten(stmt.formula, pending))
        pending.discard(f"{a}.{stmt.var}")


def _unwritten(phi: fm.Formula, pending: set) -> fm.Formula:
    """phi with each atom of a `pending` local read as the atom against 0."""
    if not fm.atom_names(phi) & pending:
        return phi
    if isinstance(phi, fm.Atom):
        return fm.Const((phi.op == "==") == (phi.value == 0))
    if isinstance(phi, (fm.Not, fm.Know, fm.Next)):
        return replace(phi, child=_unwritten(phi.child, pending))
    return type(phi)(_unwritten(phi.left, pending), _unwritten(phi.right, pending))

# ---------------------------------------------------------------------------
# Initial assignments


def admissible_assignments(model: ProtocolModel, scenario: Scenario) -> np.ndarray:
    """All initial assignments the scenario admits, one row each of an
    (assignment, (slot_request, msg), agent) uint8 array, in lexicographic
    order (slot_request vector first, then msg vector)."""
    agents = model.agents
    try:
        domains = [scenario.slot_request[a] for a in agents] + [scenario.msg[a] for a in agents]
    except KeyError as exc:
        raise UsageError(f"scenario {scenario.name!r} has no domain for agent {exc}")
    index = np.indices([len(d) for d in domains]).reshape(len(domains), -1)
    columns = [np.asarray(d, dtype=np.uint8)[i] for d, i in zip(domains, index)]
    out = np.stack(columns, axis=1).reshape(-1, 2, len(agents))
    if scenario.constraint is not None:
        names = [f"{a}.{var}" for var in ("slot_request", "msg") for a in agents]
        keep = fm.eval_on_valuation(scenario.constraint, dict(zip(names, columns)))
        out = out[np.broadcast_to(keep, len(out))]
    if not len(out):
        raise UsageError(f"unsatisfiable scenario {scenario.name!r}")
    return out

# ---------------------------------------------------------------------------
# Run generation


def generate_runs(model: ProtocolModel, scenario: Scenario, engine_mode: str = "reduced",
                  max_naive_runs: int = 4_000_000) -> InterpretedSystem:
    """Run set of a protocol, concrete or knowledge-based, under a scenario.

    naive mode: one run per (initial assignment x key schedule), exhaustively.
    reduced mode: one run per initial assignment; agent observations are the
    per-step pairs (own contribution, xor of the others' contributions) —
    everything a ring member can reconstruct from announcements and its own
    keys, and nothing more.  Knowledge tests must be present-time; each is
    resolved against the partitions of the run prefixes built so far.
    """
    return _build(model, scenario, engine_mode, max_naive_runs=max_naive_runs)


def execute_kbp(model: ProtocolModel, scenario: Scenario) -> InterpretedSystem:
    """Behaviorally unique run set of a knowledge-based program: its reduced build."""
    return _build(model, scenario, "reduced")


def reduced_system(model: ProtocolModel, scenario: Scenario,
                   coarse_fingerprints: bool = False) -> InterpretedSystem:
    """Reduced engine entry point; coarse_fingerprints deliberately weakens the
    observation basis (oracle fault-injection self-test only)."""
    return _build(model, scenario, "reduced", coarse=coarse_fingerprints)


def _declare(model: ProtocolModel, engine_mode: str, coarse: bool):
    """Variable declarations for the chosen engine.  coarse hides the others'
    xor from every agent, so its fingerprints are too coarse on purpose."""
    agents = model.agents
    everyone = frozenset(agents)
    decls = []
    for a in agents:
        for name in model.programs[a].locals_:
            domain = tuple(range(model.slots + 1)) if name in fm.VALUED_LOCALS else (False, True)
            decls.append(VariableDecl(f"{a}.{name}", domain, a, frozenset({a})))
    for t in range(1, model.horizon + 1):
        decls.append(VariableDecl(f"rr[{t}]", (False, True), None, everyone))
    if engine_mode == "naive":
        for name, ends in model.key_edges:
            decls.append(VariableDecl(name, (False, True), None, frozenset(ends)))
        for a in agents:
            decls.append(VariableDecl(f"said[{model.agent_index(a)}]", (False, True), None, everyone))
    else:
        for a in agents:
            decls.append(VariableDecl(f"{a}.contrib", (False, True), a, frozenset({a})))
            decls.append(VariableDecl(f"{a}.oxr", (False, True), a,
                                      frozenset() if coarse else frozenset({a})))
    return decls


def _init_locals(model: ProtocolModel, system: InterpretedSystem, vs: np.ndarray):
    """Set the initial traces from the assignment rows of `vs`, and each
    latched trace to zero until the loop stores it at its step; returns that
    level-0 zero vector."""
    zero = np.zeros(system.n_classes(0), dtype=np.uint8)
    for i, a in enumerate(model.agents):
        program = model.programs[a]
        for name in program.locals_:
            flat = f"{a}.{name}"
            step = program.assignment_step(name)
            if name in ("slot_request", "msg"):
                system.set_const(flat, vs[:, 0 if name == "slot_request" else 1, i])
            elif step is None:
                system.set_const(flat, zero)
            else:
                system.set_latched(flat, zero, step)
    for t in range(1, model.horizon + 1):
        system.set_latched(f"rr[{t}]", zero, t)
    return zero


def _build(model: ProtocolModel, scenario: Scenario, engine_mode: str,
           coarse: bool = False, max_naive_runs: int = 4_000_000) -> InterpretedSystem:
    """The lock-step loop shared by both observation models."""
    for a in model.agents:
        _validate_program(model.programs[a])
    if engine_mode not in ENGINE_MODES:
        raise UsageError(f"unknown engine mode {engine_mode!r} (use 'naive' or 'reduced')")
    naive = engine_mode == "naive"
    vs = admissible_assignments(model, scenario)
    T = model.horizon
    edges = [name for name, _ in model.key_edges]
    branching = 2 ** len(edges) if naive else 1
    n_keys = branching ** T
    n = len(vs) * n_keys
    if naive and n > max_naive_runs:
        raise UsageError(
            f"naive engine would enumerate {n:,} runs (> {max_naive_runs:,}); "
            f"use the reduced engine, or raise max_naive_runs explicitly")
    meta = {"slots": model.slots, "assignments": vs,
            "vocabulary": {a: local_vocabulary(a, model.programs[a].locals_, T)
                           for a in model.agents}}
    if naive:
        meta["n_key_schedules"] = n_keys
    system = InterpretedSystem(model.agents, T, _declare(model, engine_mode, coarse), n,
                               meta=meta, branching=branching)
    zero = _init_locals(model, system, vs)

    def step_var(name):
        values = [zero] * (T + 1)       # the loop stores time t at step t
        system.set_step(name, values)
        return values

    if naive:
        # history classes of branching 2^len(edges) (model): within its
        # assignment, a class of level t is numbered by its key draws, the
        # step-t draw most significant; bit j of a draw is edge j's key
        keys = {name: step_var(name) for name in edges}
        for t in range(1, T + 1):
            draw = np.arange(branching ** t) >> len(edges) * (t - 1)
            for j, name in enumerate(edges):
                keys[name][t] = np.tile(((draw >> j) & 1).astype(np.uint8), len(vs))
        contrib = {a: [zero] * (T + 1) for a in model.agents}
        said = {a: step_var(f"said[{model.agent_index(a)}]") for a in model.agents}

        def publish(step):
            size = system.n_classes(step)
            for a in model.agents:
                left, right = model.agent_keys(a)
                said[a][step] = (system.widen(contrib[a][step], size)
                                 ^ keys[left][step] ^ keys[right][step])
            return np.bitwise_xor.reduce([said[a][step] for a in model.agents])
    else:
        contrib = {a: step_var(f"{a}.contrib") for a in model.agents}
        oxr = {a: step_var(f"{a}.oxr") for a in model.agents}
        for name in edges + [f"said[{model.agent_index(a)}]" for a in model.agents]:
            system.excluded_atoms[name] = (
                f"{name!r} mentions key/announcement material, which the reduced engine "
                f"quotients out; rerun with the naive engine")

        def publish(step):
            rr = np.bitwise_xor.reduce([contrib[a][step] for a in model.agents])
            for a in model.agents:
                oxr[a][step] = rr ^ contrib[a][step]
            return rr

    evaluator = fm.Evaluator(system)
    for step in range(1, T + 1):
        # announcements read the time step-1 view only, so storing one agent's
        # contribution at `step` cannot affect another's
        for a in model.agents:
            contrib[a][step] = evaluator.classes(
                model.programs[a].phases[step - 1].announce, step - 1).view(np.uint8)
        evaluator.memo.clear()      # what it holds is at time step-1, which nothing reads again
        system.set_latched(f"rr[{step}]", publish(step), step)
        for a, stmt in _step_statements(model, step):
            system.set_latched(f"{a}.{stmt.var}",
                               evaluator.classes(stmt.formula, step).view(np.uint8), step)
    system.meta["contrib"] = contrib
    return system.finalize()

# ---------------------------------------------------------------------------
# Rendering helpers


def initial_vectors(system: InterpretedSystem, run: int):
    sr = [int(system.column(f"{a}.slot_request", 0)[run]) for a in system.agents]
    msg = [int(system.column(f"{a}.msg", 0)[run]) for a in system.agents]
    return sr, msg


def contribution_matrix(system: InterpretedSystem, run: int) -> list:
    """Per-agent contribution bits at steps 1..T (keys already cancelled)."""
    contrib = system.meta.get("contrib")
    if contrib is None:
        raise UsageError("system carries no contribution record")
    return [[int(system.widen(contrib[a][t])[run]) for t in range(1, system.horizon + 1)]
            for a in system.agents]


def rr_vector(system: InterpretedSystem, run: int) -> list:
    return [int(system.column(f"rr[{t}]", system.horizon)[run])
            for t in range(1, system.horizon + 1)]


def verify_kbp_fixpoint(system: InterpretedSystem, model: ProtocolModel) -> bool:
    """Re-evaluate every statement of the program that tests knowledge inside
    the built system, as the build compiled it (_step_statements), and check
    that it gives back what the system was built with: an announcement at
    step-1 its contributions, an assignment at step its latched trace.  Both
    are class vectors, compared at the finer of their two levels."""
    evaluator = fm.Evaluator(system)
    contrib = system.meta["contrib"]
    for step in range(1, model.horizon + 1):
        checks = [(model.programs[a].phases[step - 1].announce, step - 1, contrib[a][step])
                  for a in model.agents]
        checks += [(stmt.formula, step, system.class_column(f"{a}.{stmt.var}", step))
                   for a, stmt in _step_statements(model, step)]
        for phi, time, built in checks:
            if _tests_knowledge(phi):
                found = evaluator.classes(phi, time)
                size = max(len(found), len(built))
                if not np.array_equal(system.widen(found, size), system.widen(built, size) == 1):
                    return False
    return True


def _tests_knowledge(phi: fm.Formula) -> bool:
    return any(isinstance(sub, fm.Know) for sub in fm.subformulas(phi))
