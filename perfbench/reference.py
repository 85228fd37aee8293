"""Independent brute-force semantics of the two-phase Dining Cryptographers
broadcast, from which the benchmark derives every expected value it checks.

Nothing here imports kbpcheck.  The protocol is re-implemented from its
published description with plain tuples and lists, one entry per initial
assignment (the reduced engine's run set, enumerated lexicographically:
slot_request vector first, then msg vector):

  * steps 1..n reserve: agent i contributes slot_request_i == s in round s;
  * steps n+1..2n transmit: agent i contributes msg_i in round n+s iff it
    requested s and its kc[s], fixed at time n+s-1, allows it;
  * an agent's local state at time t is its own (slot_request, msg) plus, per
    step u <= t, the pair (own contribution, xor of the other two) — what a
    ring member can reconstruct, keys cancelled;
  * K[A](phi) holds at a point iff phi holds at every point with A's state.

Formulas are tuples: ("const", b), ("atom", name, op, value), ("not", f),
("and"|"or"|"implies"|"iff", f, g), ("K", agent, f), ("X", f).

Run as a script it prints the expected values of one workload as JSON:

    python3 perfbench/reference.py --workload reduced-sweep --seed 1

The benchmark runs it in a child process, so its memory stays out of the
measured process's peak RSS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
from itertools import combinations, product

AGENTS = ("C1", "C2", "C3")
SPEC_IDS = ("1s", "1c", "2", "3", "4a", "4b", "5", "6")
ORACLE_SLOTS = 2
ORACLE_RANDOM = 200
KEY_EDGES = 3                   # k12, k23, k31, one fresh bit each per step
LIB_SLOTS = (3, 4, 5, 6, 7, 8)  # library-level sweep of reduced-sweep
SCENARIOS = ("unknown", "referendum")


def assignments(slots, scenario="unknown"):
    """Admissible (slot_request, msg) vectors in the engines' canonical order."""
    lo = 1 if scenario == "referendum" else 0
    return [(sr, msg)
            for sr in product(range(lo, slots + 1), repeat=3)
            for msg in product((0, 1), repeat=3)]


def naive_run_count(slots):
    """Runs of the exhaustive engine: assignments x key schedules."""
    return len(assignments(slots)) * 2 ** (KEY_EDGES * 2 * slots)

# ---------------------------------------------------------------------------
# Local predicates of the validated library and the candidate chains, as
# functions of one agent's history: sr, msg and the round results rr[1..].


def _others_rr(rr, n, s):
    return any(rr[t - 1] for t in range(1, n + 1) if t != s)


def _cf2_body(sr, rr, n, s):
    return _others_rr(rr, n, s) or any(sr == t and not rr[t - 1]
                                       for t in range(1, n + 1) if t != s)


def cf1(sr, msg, rr, n, s):
    return bool(rr[s - 1] and _others_rr(rr, n, s))


def cf2(sr, msg, rr, n, s):
    return bool(rr[s - 1] and _cf2_body(sr, rr, n, s))


def cf3(sr, msg, rr, n, s):
    return bool(rr[s - 1] and (_cf2_body(sr, rr, n, s) or sr != s))


def kc_guess(sr, msg, rr, n, s):
    return not (sr == s and not rr[s - 1])


def kc_rr(sr, msg, rr, n, s):
    return bool(rr[s - 1])


def rcvd(x, sr, msg, rr, n, s):
    heard = rr[s - 1] and cf3(sr, msg, rr, n, s) and sr != s and rr[n + s - 1] == x
    own = (sr == s and rr[s - 1] and rr[n + s - 1] != msg
           and not _others_rr(rr, n, s))
    return bool(heard or own)


def dlvrd(sr, msg, rr, n):
    return sr == 0 or any(sr == u and cf3(sr, msg, rr, n, u) for u in range(1, n + 1))


# predicate files the benchmark writes: (name, local-expression text, function)
CF_CHAIN = (
    ("cf1", "rr[s] && (any t in 1..3 except s: rr[t])", cf1),
    ("cf2", "rr[s] && ((any t in 1..3 except s: rr[t]) || "
            "(any t in 1..3 except s: slot_request == t && !rr[t]))", cf2),
    ("cf3", "rr[s] && (((any t in 1..3 except s: rr[t]) || "
            "(any t in 1..3 except s: slot_request == t && !rr[t])) || slot_request != s)", cf3),
)
KC_CHAIN = (
    ("kc_rr", "rr[s]", kc_rr),
    ("kc_or", "slot_request != s || rr[s]", kc_guess),
)

# ---------------------------------------------------------------------------
# Formulas


def atom(name, value, op="=="):
    return ("atom", name, op, int(value))


def disj(parts):
    parts = list(parts)
    out = parts[0]
    for p in parts[1:]:
        out = ("or", out, p)
    return out


def conj(parts):
    parts = list(parts)
    out = parts[0]
    for p in parts[1:]:
        out = ("and", out, p)
    return out


def conflict(s):
    return disj(("and", atom(f"{i}.slot_request", s), atom(f"{j}.slot_request", s))
                for i, j in combinations(AGENTS, 2))


def sender(agent, x, s):
    return disj(("and", atom(f"{j}.msg", x), atom(f"{j}.slot_request", s))
                for j in AGENTS if j != agent)


def someone(s):
    return disj(atom(f"{j}.slot_request", s) for j in AGENTS)


def delivery(agent, n):
    parts = []
    for x in (0, 1):
        for t in range(1, n + 1):
            pre = ("and", atom(f"{agent}.msg", x), atom(f"{agent}.slot_request", t))
            inner = conj(("K", j, sender(j, x, t)) for j in AGENTS if j != agent)
            parts.append(("implies", pre, ("K", agent, inner)))
    return conj(parts)


def spec(sid, agent, slot, n):
    """The numbered specification and its check time, from the paper."""
    end = 2 * n
    if sid == "1s":
        return ("iff", atom(f"{agent}.kc[{slot}]", 1),
                ("not", ("K", agent, conflict(slot)))), n + slot - 1
    if sid == "1c":
        return ("iff", atom(f"{agent}.kc[{slot}]", 1),
                ("K", agent, ("not", conflict(slot)))), n + slot - 1
    if sid == "2":
        return ("implies", conflict(slot), ("K", agent, conflict(slot))), end
    if sid == "3":
        return ("implies", ("and", conflict(slot), atom(f"{agent}.slot_request", slot)),
                ("K", agent, conflict(slot))), end
    if sid in ("4a", "4b"):
        x = 0 if sid == "4a" else 1
        return ("iff", atom(f"{agent}.rcvd{x}[{slot}]", 1),
                ("K", agent, sender(agent, x, slot))), n + slot
    if sid == "5":
        return ("iff", atom(f"{agent}.dlvrd", 1), delivery(agent, n)), end
    others = [j for j in AGENTS if j != agent]
    same = disj(("K", agent, conj(atom(f"{j}.msg", x) for j in others)) for x in (0, 1))
    blind = conj(("not", ("or", ("K", agent, atom(f"{j}.msg", 1)),
                          ("K", agent, atom(f"{j}.msg", 0)))) for j in others)
    return ("or", same, blind), end


def instances(sid, n):
    if sid in ("5", "6"):
        return [(a, None) for a in AGENTS]
    return [(a, s) for a in AGENTS for s in range(1, n + 1)]


def instance_key(sid, agent, slot):
    return f"{sid}/{agent}/{slot or 0}"


def x_depth(f):
    op = f[0]
    if op in ("const", "atom"):
        return 0
    if op == "X":
        return 1 + x_depth(f[1])
    if op == "not":
        return x_depth(f[1])
    if op == "K":
        return x_depth(f[2])
    return max(x_depth(f[1]), x_depth(f[2]))


def has_know(f):
    if f[0] == "K":
        return True
    return any(has_know(g) for g in f[1:] if isinstance(g, tuple))


_TOKEN = re.compile(r"\s*(<=>|=>|\|\||&&|==|!=|[!()\[\]]|[A-Za-z_][A-Za-z0-9_.]*(?:\[\d+\])?|\d+)")


def parse(text):
    """Formula text as printed by the checker, e.g. 'K[C1](C1.msg == 1 && rr[2] == 0)'."""
    tokens, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad formula text at {pos}: {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    i = 0

    def peek():
        return tokens[i]

    def take(expected=None):
        nonlocal i
        tok = tokens[i]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, got {tok!r} in {text!r}")
        i += 1
        return tok

    def arrow():
        f = disjunction()
        while peek() in ("=>", "<=>"):
            op = "implies" if take() == "=>" else "iff"
            f = (op, f, disjunction())
        return f

    def disjunction():
        f = conjunction()
        while peek() == "||":
            take()
            f = ("or", f, conjunction())
        return f

    def conjunction():
        f = unary()
        while peek() == "&&":
            take()
            f = ("and", f, unary())
        return f

    def unary():
        tok = peek()
        if tok == "!":
            take()
            return ("not", unary())
        if tok == "X":
            take()
            return ("X", unary())
        if tok == "K":
            take()
            take("[")
            agent = take()
            take("]")
            take("(")
            body = arrow()
            take(")")
            return ("K", agent, body)
        if tok == "(":
            take()
            f = arrow()
            take(")")
            return f
        if tok in ("true", "false"):
            take()
            return ("const", tok == "true")
        name = take()
        op = take()
        if op not in ("==", "!="):
            raise ValueError(f"atom {name!r} without comparison in {text!r}")
        return ("atom", name, op, int(take()))

    f = arrow()
    if peek():
        raise ValueError(f"trailing input in {text!r}")
    return f

# ---------------------------------------------------------------------------
# Run sets


class World:
    """The run set over a list of assignments under one kc rule.

    kc_rule is a local predicate function (sr, msg, rr, n, s) -> bool, or
    "conservative" for the knowledge-based guard K[i](!conflict(s)), which is
    resolved step by step against the run prefixes built so far.
    """

    def __init__(self, n, vs, kc_rule=kc_guess):
        self.n, self.vs, self.T = n, list(vs), 2 * n
        self._labels, self._memo, self._columns = {}, {}, {}
        self.c = {}                 # (agent index, step) -> contribution per run
        self.rrc = {}               # step -> round result per run
        for s in range(1, n + 1):
            self._commit(s, [[int(sr[i] == s) for sr, _ in self.vs] for i in range(3)])
        self.rr = [list(row) for row in zip(*(self.rrc[u] for u in range(1, n + 1)))]
        self.kc = {}
        for s in range(1, n + 1):
            t = n + s - 1
            for i, agent in enumerate(AGENTS):
                if kc_rule == "conservative":
                    vec = self.know(agent, t, [not x for x in self.eval(conflict(s), t)])
                else:
                    vec = [kc_rule(sr[i], msg[i], self.rr[r], n, s)
                           for r, (sr, msg) in enumerate(self.vs)]
                self.kc[(i, s)] = vec
            self._commit(n + s, [[msg[i] if sr[i] == s and kc else 0
                                  for (sr, msg), kc in zip(self.vs, self.kc[(i, s)])]
                                 for i in range(3)])
        self.rr = [list(row) for row in zip(*(self.rrc[u] for u in range(1, self.T + 1)))]

    def _commit(self, step, cols):
        for i in range(3):
            self.c[(i, step)] = cols[i]
        self.rrc[step] = [x ^ y ^ z for x, y, z in zip(*cols)]

    def observation(self, r, agent, t):
        i = AGENTS.index(agent)
        sr, msg = self.vs[r]
        return ((sr[i], msg[i]),) + tuple(
            (self.c[(i, u)][r], self.rrc[u][r] ^ self.c[(i, u)][r]) for u in range(1, t + 1))

    def labels(self, agent, t):
        key = (agent, t)
        if key not in self._labels:
            i = AGENTS.index(agent)
            if t == 0:
                rows = [sr[i] * 2 + msg[i] for sr, msg in self.vs]
            else:
                rows = [p * 4 + c * 2 + x for p, c, x in
                        zip(self.labels(agent, t - 1), self.c[(i, t)], self.rrc[t])]
            ids = {}
            self._labels[key] = [ids.setdefault(row, len(ids)) for row in rows]
        return self._labels[key]

    def know(self, agent, t, vec):
        labels = self.labels(agent, t)
        bad = {lab for lab, ok in zip(labels, vec) if not ok}
        return [lab not in bad for lab in labels]

    def column(self, name, t):
        """Values of a variable over all runs at time t; latched variables
        read 0 before the step that assigns them."""
        if name not in self._columns:
            self._columns[name] = self._assigned(name)
        latch, values = self._columns[name]
        return values if t >= latch else [0] * len(values)

    def value(self, name, r, t):
        return self.column(name, t)[r]

    def _assigned(self, name):
        """(latch time, values once assigned) of one variable."""
        n, vs, rr = self.n, self.vs, self.rr
        if name.startswith("rr["):
            u = int(name[3:-1])
            return u, [rr[r][u - 1] for r in range(len(vs))]
        agent, var = name.split(".")
        i = AGENTS.index(agent)
        if var == "slot_request":
            return 0, [sr[i] for sr, _ in vs]
        if var == "msg":
            return 0, [msg[i] for _, msg in vs]
        if var == "dlvrd":
            return 2 * n, [int(dlvrd(sr[i], msg[i], rr[r], n))
                           for r, (sr, msg) in enumerate(vs)]
        base, s = var[:-1].split("[")
        s = int(s)
        if base == "kc":
            return n + s - 1, [int(x) for x in self.kc[(i, s)]]
        if base in ("rcvd0", "rcvd1"):
            x = int(base[-1])
            return n + s, [int(rcvd(x, sr[i], msg[i], rr[r], n, s))
                           for r, (sr, msg) in enumerate(vs)]
        raise ValueError(f"unknown variable {name!r}")

    def eval(self, f, t):
        """Truth vector of a formula over all runs at time t."""
        key = (f, t)
        out = self._memo.get(key)
        if out is not None:
            return out
        op = f[0]
        if op == "const":
            out = [f[1]] * len(self.vs)
        elif op == "atom":
            _, name, cmp, v = f
            col = self.column(name, t)
            out = [x == v for x in col] if cmp == "==" else [x != v for x in col]
        elif op == "not":
            out = [not x for x in self.eval(f[1], t)]
        elif op == "K":
            out = self.know(f[1], t, self.eval(f[2], t))
        elif op == "X":
            out = self.eval(f[1], t + 1)
        else:
            a, b = self.eval(f[1], t), self.eval(f[2], t)
            if op == "and":
                out = [x and y for x, y in zip(a, b)]
            elif op == "or":
                out = [x or y for x, y in zip(a, b)]
            elif op == "implies":
                out = [(not x) or y for x, y in zip(a, b)]
            else:
                out = [x == y for x, y in zip(a, b)]
        self._memo[key] = out
        return out

    def contrib(self, r):
        """Contribution matrix of one run: agent x step."""
        return [[self.c[(i, u)][r] for u in range(1, self.T + 1)] for i in range(3)]

    def contrib_digest(self):
        """sha256 over run x agent x step contribution bits, in run order."""
        cols = [self.c[(i, u)] for i in range(3) for u in range(1, self.T + 1)]
        return hashlib.sha256(bytes(b for row in zip(*cols) for b in row)).hexdigest()

    def verdicts(self, spec_ids):
        out = {}
        for sid in spec_ids:
            for agent, slot in instances(sid, self.n):
                f, t = spec(sid, agent, slot, self.n)
                out[instance_key(sid, agent, slot)] = "holds" if all(self.eval(f, t)) else "fails"
        return out

    def class_table(self, agent, f, t):
        """Value of f per observation class (sr, msg, rr[1..t]) of agent."""
        i = AGENTS.index(agent)
        vec = self.eval(f, t)
        table = {}
        for r, (sr, msg) in enumerate(self.vs):
            key = ",".join(map(str, (sr[i], msg[i], *self.rr[r][:t])))
            if table.setdefault(key, vec[r]) != vec[r]:
                raise ValueError(f"{f!r} is not constant on {agent}'s classes")
        return table

# ---------------------------------------------------------------------------
# Expected values per workload

SPECULATIVE_SPECS = tuple(s for s in SPEC_IDS if s != "1c")
CONSERVATIVE_SPECS = tuple(s for s in SPEC_IDS if s != "1s")
PUBLISHED_UNKNOWN = {"1s": "holds", "2": "fails", "3": "fails", "4a": "holds",
                     "4b": "holds", "5": "holds", "6": "holds"}


def sweep_choices(seed):
    """What the seed decides in reduced-sweep: the pinned runs traced and the
    agent/slot each refinement chain is checked for."""
    rng = random.Random(seed)
    vs = assignments(3)
    return {"trace": [list(map(list, rng.choice(vs))) for _ in range(2)],
            "cf": [rng.choice(AGENTS), rng.randint(1, 3)],
            "kc": [rng.choice(AGENTS), rng.randint(1, 3)]}


def synthesis_agents(seed):
    """Agent relabelling for the synthesis formulas: a rotation of the ring,
    which leaves the protocol (and so the work) unchanged."""
    k = seed % 3
    return AGENTS[k:] + AGENTS[:k]


def synthesis_targets(seed):
    """(formula text, --at, agent, reference formula, time) per synthesize call."""
    a1, a2, a3 = synthesis_agents(seed)
    return [(f"K[{a1}](!conflict(1))", "end", a1, ("K", a1, ("not", conflict(1))), 6),
            (f"K[{a3}](conflict(2))", "end", a3, ("K", a3, conflict(2)), 6),
            (f"K[{a2}](sender({a2},1,3))", "tx:3", a2, ("K", a2, sender(a2, 1, 3)), 6)]


def _bits(vec):
    return "".join("1" if x else "0" for x in vec)


def _chain(world_for, chain, agent, slot, target, t):
    """Verdicts, monotonicity and per-run values of a candidate chain."""
    out = {"verdicts": [], "monotone": [], "cand": [], "know": []}
    prev = None
    for name, _, fn in chain:
        world = world_for(fn)
        i = AGENTS.index(agent)
        cand = [fn(sr[i], msg[i], world.rr[r], world.n, slot)
                for r, (sr, msg) in enumerate(world.vs)]
        know = world.eval(target, t)
        out["verdicts"].append("holds" if cand == know else "fails")
        out["monotone"].append(None if prev is None
                               else all(c or not p for c, p in zip(cand, prev)))
        out["cand"].append(_bits(cand))
        out["know"].append(_bits(know))
        prev = cand
        if cand == know:
            break
    return out


def expect_sweep(seed):
    choices = sweep_choices(seed)
    out = {"choices": choices, "check": {}, "lib": {}}
    for n in LIB_SLOTS:
        for scen in SCENARIOS:
            vs = assignments(n, scen)
            world = World(n, vs)
            verdicts = world.verdicts(SPECULATIVE_SPECS)
            if scen == "unknown":
                for key, v in verdicts.items():
                    if PUBLISHED_UNKNOWN[key.split("/")[0]] != v:
                        raise AssertionError(f"reference contradicts the paper: {key} {v}")
            cons = World(n, vs, "conservative")
            out["lib"][f"{n}/{scen}"] = {
                "runs": len(vs), "verdicts": verdicts,
                "speculative": world.contrib_digest(),
                "conservative": cons.contrib_digest()}
            if n == 3:
                out["check"][scen] = {"runs": len(vs), "verdicts": verdicts}
    vs = assignments(3)
    agent, slot = choices["cf"]
    target = ("K", agent, ("and", someone(slot), ("not", conflict(slot))))
    world = World(3, vs)
    out["cf"] = _chain(lambda fn: world, CF_CHAIN, agent, slot, target, 6)
    agent, slot = choices["kc"]
    target = ("not", ("K", agent, conflict(slot)))
    out["kc"] = _chain(lambda fn: World(3, vs, fn), KC_CHAIN, agent, slot, target, 3 + slot - 1)
    return out


def expect_synthesis(seed):
    vs = assignments(3)
    world = World(3, vs)
    tables = [world.class_table(agent, f, t)
              for _, _, agent, f, t in synthesis_targets(seed)]
    cons = World(3, vs, "conservative")
    return {"tables": [{k: bool(v) for k, v in tab.items()} for tab in tables],
            "conservative": {"runs": len(vs), "verdicts": cons.verdicts(CONSERVATIVE_SPECS)}}


def expect_oracle(seed):
    n = ORACLE_SLOTS
    specs = [spec(sid, a, s, n)[0] for sid in SPECULATIVE_SPECS for a, s in instances(sid, n)]
    return {"naive_runs": naive_run_count(n),
            "spec_formulas": len(specs),
            "spec_checks": sum(2 * n - x_depth(f) + 1 for f in specs)}


EXPECT = {"reduced-sweep": expect_sweep, "synthesis": expect_synthesis,
          "oracle": expect_oracle}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(EXPECT))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(EXPECT[args.workload](args.seed), sort_keys=True))


if __name__ == "__main__":
    main()
