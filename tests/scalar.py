"""Scalar per-point reference semantics for the tests.

The library reads whole run vectors only.  These views rebuild one agent's
history, or one run, value by value, so that tests can hold the vector core
against a plainly scalar route.
"""

from dataclasses import dataclass
from typing import Optional

from kbpcheck import formula as fm
from kbpcheck import localexpr as le


@dataclass(frozen=True)
class History:
    """An agent's perfect-recall local state: one record per time 0..t of the
    values of its observable variables, in the order of `names`, as the
    system stores them (a latched variable reads false before its step)."""

    agent: str
    names: tuple
    records: tuple

    @property
    def time(self) -> int:
        return len(self.records) - 1

    def value(self, name: str, time: Optional[int] = None):
        return self.records[self.time if time is None else time][self.names.index(name)]


def observation_of(system, point, agent) -> History:
    """The agent's history at `point`, read one value at a time."""
    names = system.observable_names(agent)
    records = []
    for t in range(point.time + 1):
        record = []
        for name in names:
            raw = int(system.column(name, t)[point.run])
            record.append(bool(raw) if isinstance(system.variables[name].domain[0], bool) else raw)
        records.append(tuple(record))
    return History(agent, names, tuple(records))


def run_single(model, sr, msg, key_bits) -> list:
    """The valuation dict of one run at each time 0..T.  key_bits[t-1] holds
    step t's fresh bit per ring edge, in model.key_edges order.  Each step's
    announcements are evaluated on the time t-1 valuation and committed
    together; rr[t] and the step's post assignments follow.  Statements are
    K-free formulas, evaluated on the valuation as it stands."""
    edges = [name for name, _ in model.key_edges]
    valuation = {f"rr[{t}]": False for t in range(1, model.horizon + 1)}
    valuation.update(dict.fromkeys(edges, False))
    for i, a in enumerate(model.agents):
        for name in model.programs[a].locals_:
            valuation[f"{a}.{name}"] = (int(sr[i]) if name == "slot_request"
                                        else bool(msg[i]) if name == "msg" else False)
        valuation[f"said[{model.agent_index(a)}]"] = False
    states = [valuation]
    for step, bits in enumerate(key_bits, start=1):
        valuation = dict(valuation)
        valuation.update(zip(edges, map(bool, bits)))
        said = {}
        for a in model.agents:
            block = model.programs[a].phases[step - 1]
            contrib = fm.eval_on_valuation(block.announce, valuation)
            left, right = model.agent_keys(a)
            said[a] = contrib ^ valuation[left] ^ valuation[right]
        for a in model.agents:
            valuation[f"said[{model.agent_index(a)}]"] = said[a]
        valuation[f"rr[{step}]"] = sum(said.values()) % 2 == 1
        for a in model.agents:
            for stmt in model.programs[a].phases[step - 1].post:
                valuation[f"{a}.{stmt.var}"] = fm.eval_on_valuation(stmt.formula, valuation)
        states.append(valuation)
    return states


def eval_local(expr, agent, time, valuation: dict, slot=None) -> bool:
    """Value of a local expression in the agent's code at `time`, on one
    valuation of flat names (rr[u], or its own C1.kc[2]): the expression's
    formula evaluated on that valuation.  A name the valuation lacks is an
    unknown history variable."""
    phi = le.to_formula(expr, agent, time, slot, tuple(valuation))
    return fm.eval_on_valuation(phi, valuation)


def eval_local_expr(expr, history: History, slot=None) -> bool:
    """Value of a local expression at the history's last time."""
    return eval_local(expr, history.agent, history.time,
                      dict(zip(history.names, history.records[-1])), slot)
