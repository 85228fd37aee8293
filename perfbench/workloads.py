"""The benchmark's workloads: their operations, inputs and output checks.

An operation is one CLI command run in-process through ``kbpcheck.cli.main``
or one library-level check unit.  Every operation carries the number of
(run, time) points whose truth value it decides, counted from the
benchmark's own inputs, and a check that compares its output with the
independent reference in ``reference.py``.  Calls into kbpcheck go through
module attributes so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import reference as ref

ORACLE_SEED = 20250810          # kbpcheck oracle's default --seed


@dataclass
class Op:
    name: str
    call: Callable[[], Any]     # the timed part
    check: Callable[[Any], Optional[str]]   # None when the output is right
    points: int
    expect_rc: Optional[int] = None         # CLI operations only


class WrongOutput(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise WrongOutput(message)


def cli_call(argv):
    from kbpcheck import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _checked(fn):
    """Turn a checker that raises WrongOutput into one returning the message."""
    def check(result):
        try:
            fn(result)
        except WrongOutput as exc:
            return str(exc)
        return None
    return check

# ---------------------------------------------------------------------------
# Shared checks


class Witnesses:
    """Checks counterexample witnesses against reference run sets.

    `population` is the reference World of the whole scenario when the
    behaviour depends on it (conservative mode); otherwise witnesses are
    checked on a world made of the witness runs alone, which is exact for
    local kc rules and knowledge-free bodies.
    """

    def __init__(self, n, scenario, kc_rule=ref.kc_guess, population=None):
        self.n, self.kc_rule, self.population = n, kc_rule, population
        self.admissible = set(ref.assignments(n, scenario))

    def _world(self, vs):
        if self.population is not None:
            index = {v: r for r, v in enumerate(self.population.vs)}
            return self.population, [index[v] for v in vs]
        return ref.World(self.n, vs, self.kc_rule), list(range(len(vs)))

    def check(self, cex, where):
        ws = cex["witnesses"]
        vs = [(tuple(w["slot_request"]), tuple(w["msg"])) for w in ws]
        _require(1 <= len(ws) <= 2, f"{where}: {len(ws)} witnesses")
        for v in vs:
            _require(v in self.admissible, f"{where}: witness {v} not admissible")
        world, runs = self._world(vs)
        for w, r in zip(ws, runs):
            _require(w["contrib"] == world.contrib(r), f"{where}: witness contributions")
            _require(w["rr"] == [world.value(f"rr[{u}]", r, world.T)
                                 for u in range(1, world.T + 1)], f"{where}: witness rr")
        if len(ws) == 2:
            agent, t = cex["agent"], cex["time"]
            _require(world.observation(runs[0], agent, t) ==
                     world.observation(runs[1], agent, t),
                     f"{where}: pair distinguishable to {agent} at time {t}")
            body = ref.parse(cex["body"])
            _require(self.population is not None or not ref.has_know(body),
                     f"{where}: body with K needs the whole run set")
            vec = world.eval(body, t)
            _require(vec[runs[0]] != vec[runs[1]], f"{where}: pair agrees on {cex['body']}")


def check_spec_results(results, expected, n, witnesses, where):
    """CLI `check --format json` results, or library results in that shape."""
    got = {ref.instance_key(r["spec"], r["agent"], r["slot"]): r for r in results}
    _require(set(got) == set(expected), f"{where}: instances {sorted(set(got) ^ set(expected))}")
    for key, r in got.items():
        sid = key.split("/")[0]
        _require(r["verdict"] == expected[key], f"{where}: {key} {r['verdict']}")
        _require(r["time"] == ref.spec(sid, r["agent"], r["slot"], n)[1], f"{where}: {key} time")
        cex = r["counterexample"]
        _require((cex is None) == (r["verdict"] == "holds"), f"{where}: {key} counterexample")
        if cex is not None:
            witnesses.check(cex, f"{where} {key}")


def check_chain(report, expected, candidates, witnesses, where):
    """A `refine --format json` report against the reference chain values."""
    entries = report["candidates"]
    _require([e["verdict"] for e in entries] == expected["verdicts"], f"{where}: verdicts")
    _require(report["passed"] == (expected["verdicts"][-1] == "holds"), f"{where}: passed")
    vs = ref.assignments(3)
    for i, e in enumerate(entries):
        _require(e["name"] == candidates[i][0], f"{where}: candidate {e['name']}")
        _require(e.get("monotone") == expected["monotone"][i], f"{where}: monotone")
        cex = e.get("counterexample")
        if e["verdict"] == "holds":
            _require(cex is None, f"{where}: counterexample on a passing candidate")
            continue
        w = cex["witnesses"][0]
        r = vs.index((tuple(w["slot_request"]), tuple(w["msg"])))
        cand, know = expected["cand"][i][r], expected["know"][i][r]
        _require(cand != know, f"{where}: {e['name']} witness is no mismatch")
        direction = ("candidate-true-knowledge-false" if cand == "1"
                     else "knowledge-true-candidate-false")
        _require(cex["direction"] == direction, f"{where}: direction")
        witnesses(candidates[i][2]).check(cex, f"{where} {e['name']}")


def contrib_digest(system):
    """sha256 over run x agent x step contribution bits, as reference.World."""
    import numpy as np
    contrib = system.meta["contrib"]
    stacked = np.stack([contrib[a][1:] for a in system.agents])    # agent, step, run
    return hashlib.sha256(np.ascontiguousarray(
        stacked.transpose(2, 0, 1), dtype=np.uint8).tobytes()).hexdigest()


def eval_sop(expr, sr, msg, rr):
    """Value of a rendered sum-of-products over (slot_request, msg, rr[..])."""
    if expr in ("true", "false"):
        return expr == "true"
    for term in expr.split(" || "):
        term = term.strip()
        if term.startswith("(") and term.endswith(")"):
            term = term[1:-1]
        ok = True
        for lit in term.split(" && "):
            neg = lit.startswith("!")
            lit = lit.lstrip("!")
            if lit == "msg":
                value = msg == 1
            elif lit.startswith("rr["):
                value = rr[int(lit[3:-1]) - 1] == 1
            elif lit.startswith("slot_request == "):
                value = sr == int(lit[16:])
            elif lit.startswith("slot_request in {"):
                value = sr in {int(v) for v in lit[17:-1].split(",")}
            else:
                raise WrongOutput(f"unknown literal {lit!r} in {expr!r}")
            ok = ok and (value != neg)
        if ok:
            return True
    return False

# ---------------------------------------------------------------------------
# reduced-sweep


def _lib_formulas(n):
    from kbpcheck import dc
    return [(sid, agent, slot) + dc.spec(sid, agent, slot, slots=n)
            for sid in ref.SPECULATIVE_SPECS for agent, slot in dc.spec_instances(sid, slots=n)]


def _lib_op(n, scenario, formulas):
    from kbpcheck import dc, engine, refine
    from kbpcheck import formula as fm

    def call():
        model = dc.build_cdc(dc.DcParams(slots=n))
        system = engine.generate_runs(model, scenario, "reduced")
        ev = fm.Evaluator(system)
        results = []
        for sid, agent, slot, phi, t in formulas:
            verdict = fm.check_valid_at(system, phi, t, ev)
            cex = refine.counterexample_from_verdict(system, verdict)
            results.append({"spec": sid, "agent": agent, "slot": slot, "time": t,
                            "verdict": verdict.outcome,
                            "counterexample": cex.to_json() if cex else None})
        kbp = {}
        for mode in dc.MODES:
            kmodel = dc.build_cdc(dc.DcParams(slots=n, mode=mode), kbp=True)
            ksys = engine.execute_kbp(kmodel, scenario)
            kbp[mode] = (ksys, engine.verify_kbp_fixpoint(ksys, kmodel))
        return results, kbp
    return call


def prepare_sweep(seed, workdir: Path):
    from kbpcheck import dc
    choices = ref.sweep_choices(seed)
    files = {}
    for label, chain in (("cf", ref.CF_CHAIN), ("kc", ref.KC_CHAIN)):
        target = "conflict_free" if label == "cf" else "kc"
        files[label] = workdir / f"{label}_chain.json"
        files[label].write_text(json.dumps([{"name": name, "target": target, "expr": text}
                                            for name, text, _ in chain]))
    scenarios = {"unknown": dc.unknown_scenario, "referendum": dc.referendum_scenario}
    lib = [(n, scen, scenarios[scen](n), _lib_formulas(n))
           for n in ref.LIB_SLOTS for scen in ref.SCENARIOS]
    return {"choices": choices, "files": files, "lib": lib}


def sweep_ops(prep, expected):
    ops = []
    for scen in ref.SCENARIOS:
        exp = expected["check"][scen]
        argv = ["check", "--spec", "all", "--scenario", scen, "--format", "json"]
        wit = Witnesses(3, scen)

        def check(result, exp=exp, wit=wit, scen=scen):
            check_spec_results(json.loads(result[1])["results"], exp["verdicts"], 3, wit,
                               f"check {scen}")
        ops.append(Op(f"check-{scen}", lambda argv=argv: cli_call(argv), _checked(check),
                      len(exp["verdicts"]) * exp["runs"], expect_rc=1))

    for label, chain in (("cf", ref.CF_CHAIN), ("kc", ref.KC_CHAIN)):
        agent, slot = prep["choices"][label]
        exp = expected[label]
        argv = ["refine", "--file", str(prep["files"][label]), "--agent", agent,
                "--slot", str(slot), "--format", "json"]
        def witness_for(fn, label=label):
            # a kc candidate is the behaviour itself; other targets run kc_guess
            return Witnesses(3, "unknown", fn if label == "kc" else ref.kc_guess)

        def check(result, exp=exp, chain=chain, witness_for=witness_for, label=label):
            check_chain(json.loads(result[1]), exp, chain, witness_for, f"refine {label}")
        ops.append(Op(f"refine-{label}", lambda argv=argv: cli_call(argv), _checked(check),
                      len(exp["verdicts"]) * 512, expect_rc=0))

    for k, (sr, msg) in enumerate(prep["choices"]["trace"]):
        assign = f"slot_request=[{','.join(map(str, sr))}];msg=[{','.join(map(str, msg))}]"
        argv = ["trace", "--assign", assign]

        def check(result, v=(tuple(sr), tuple(msg))):
            world = ref.World(3, [v])
            rows = {}
            for line in result[1].splitlines():
                label, _, cells = line.partition("|")
                if cells:
                    rows[label.strip()] = [int(b) for b in cells.replace("|", " ").split()]
            _require(rows.get("s") == list(range(1, 7)), "trace: step header")
            for i, agent in enumerate(ref.AGENTS):
                _require(rows.get(f"Agent {agent}") == world.contrib(0)[i],
                         f"trace: {agent} contributions")
            _require(rows.get("rr") == world.rr[0], "trace: rr")
            _require(f"slot_request = {list(v[0])}, msg = {list(v[1])}" in result[1],
                     "trace: assignment line")
        ops.append(Op(f"trace-{k}", lambda argv=argv: cli_call(argv), _checked(check), 0,
                      expect_rc=0))

    for n, scen, scenario, formulas in prep["lib"]:
        exp = expected["lib"][f"{n}/{scen}"]
        wit = Witnesses(n, scen)

        def check(result, exp=exp, wit=wit, n=n, scen=scen):
            results, kbp = result
            check_spec_results(results, exp["verdicts"], n, wit, f"library {n}/{scen}")
            for mode, (ksys, fixpoint) in kbp.items():
                _require(fixpoint, f"library {n}/{scen}: {mode} KBP is no fixpoint")
                _require(contrib_digest(ksys) == exp[mode],
                         f"library {n}/{scen}: {mode} KBP contributions")
        knowledge_tests = 3 * (3 * n + 1)           # per agent: n guards, 2n rcvd, dlvrd
        points = (len(formulas) + 2 * 2 * knowledge_tests) * exp["runs"]
        ops.append(Op(f"library-{n}-{scen}", _lib_op(n, scenario, formulas),
                      _checked(check), points))
    return ops

# ---------------------------------------------------------------------------
# synthesis


def prepare_synthesis(seed, workdir: Path):
    return {"targets": ref.synthesis_targets(seed)}


def synthesis_ops(prep, expected):
    ops = []
    inputs = ["slot_request", "msg"] + [f"rr[{u}]" for u in range(1, 7)]
    for k, (text, at, agent, _, _) in enumerate(prep["targets"]):
        table = expected["tables"][k]
        argv = ["synthesize", "--formula", text, "--at", at, "--format", "json"]

        def check(result, table=table, agent=agent, where=f"synthesize {text}"):
            out = json.loads(result[1])
            _require(out["agent"] == agent and out["time"] == 6, f"{where}: agent/time")
            _require(out["inputs"] == inputs, f"{where}: inputs")
            _require(out["round_trip"] == "holds", f"{where}: round-trip")
            got = {",".join(map(str, row["class"])): row["value"] for row in out["table"]}
            _require(got == table, f"{where}: class values differ from the reference")
            for key, value in table.items():
                sr, msg, *rr = map(int, key.split(","))
                _require(eval_sop(out["expr"], sr, msg, rr) == value,
                         f"{where}: minimized expression wrong on class {key}")
        ops.append(Op(f"synthesize-{k}", lambda argv=argv: cli_call(argv), _checked(check),
                      512, expect_rc=0))

    exp = expected["conservative"]
    population = []

    def check(result):
        if not population:
            population.append(ref.World(3, ref.assignments(3), "conservative"))
        wit = Witnesses(3, "unknown", population=population[0])
        out = json.loads(result[1])
        _require(out["mode"] == "conservative", "conservative check: mode")
        check_spec_results(out["results"], exp["verdicts"], 3, wit, "conservative check")
        _require(all(v == "holds" for k, v in exp["verdicts"].items() if k.startswith("1c/")),
                 "conservative check: reference 1c")
    argv = ["check", "--spec", "all", "--mode", "conservative", "--format", "json"]
    # spec instances, the three kc syntheses, and the KBP run that feeds them
    points = (len(exp["verdicts"]) + 3 + 3 * (3 * 3 + 1)) * exp["runs"]
    ops.append(Op("check-conservative", lambda: cli_call(argv), _checked(check), points,
                  expect_rc=1))
    return ops

# ---------------------------------------------------------------------------
# oracle


def prepare_oracle(seed, workdir: Path):
    return {}


def oracle_checks(expected):
    """Comparisons the oracle must make: spec analogues plus the seeded random
    formulas, each at every time its X-depth allows."""
    from kbpcheck import dc, reduction
    from kbpcheck import formula as fm
    from kbpcheck.engine import reduced_system
    n = ref.ORACLE_SLOTS
    reduced = reduced_system(dc.build_cdc(dc.DcParams(slots=n)), dc.unknown_scenario(slots=n))
    randoms = reduction.random_formulas(reduced, ORACLE_SEED, ref.ORACLE_RANDOM)
    return expected["spec_checks"] + sum(2 * n - ref.x_depth(ref.parse(fm.fmt(phi))) + 1
                                         for _, phi in randoms)


def oracle_ops(prep, expected):
    naive = expected["naive_runs"]
    checks = oracle_checks(expected)
    world = []

    def check_agree(result):
        out = json.loads(result[1])
        _require(out["agree"] is True and out["mismatches"] == [], "oracle: disagreement")
        _require(out["formulas"] == expected["spec_formulas"] + ref.ORACLE_RANDOM,
                 f"oracle: {out['formulas']} formulas")
        _require(out["checks"] == checks, f"oracle: {out['checks']} checks, not {checks}")
        _require(out["points_compared"] == naive * checks, "oracle: points compared")
        _require(out["seed"] == ORACLE_SEED, "oracle: seed")

    def check_selftest(result):
        out = json.loads(result[1])
        _require(out["agree"] is False and out["mismatches"], "self-test: fault not caught")
        _require(out["formulas"] == expected["spec_formulas"], "self-test: formulas")
        _require(out["checks"] == expected["spec_checks"], "self-test: checks")
        _require(out["points_compared"] == naive * expected["spec_checks"],
                 "self-test: points compared")
        if not world:
            world.append(ref.World(ref.ORACLE_SLOTS, ref.assignments(ref.ORACLE_SLOTS)))
        schedules = naive // len(world[0].vs)
        for m in out["mismatches"]:
            truth = world[0].eval(ref.parse(m["formula"]), m["time"])[m["run"] // schedules]
            _require(m["naive"] == truth and m["reduced"] != truth,
                     f"self-test: {m['name']} at run {m['run']} is no true disagreement")

    return [Op("oracle", lambda: cli_call(["oracle", "--format", "json"]),
               _checked(check_agree), naive * checks, expect_rc=0),
            Op("oracle-self-test",
               lambda: cli_call(["oracle", "--self-test", "--random", "0", "--format", "json"]),
               _checked(check_selftest), naive * expected["spec_checks"], expect_rc=1)]


# untimed rounds at the start of an untraced run; a workload that has them
# keeps the memory it frees (run.keep_freed_memory).  The oracle's first
# round in a process pays the page faults of its 3 GB, whose cost the host
# decides; later rounds reuse the memory.
WARMUP_ROUNDS = {"reduced-sweep": 0, "synthesis": 0, "oracle": 1}

# fewest timed rounds in an untraced run.  A synthesis round is 12-18 s of
# commands that each run for seconds, so one round already averages the
# host's short fluctuations; an oracle round takes 11-14 s.
MIN_ROUNDS = {"reduced-sweep": 2, "synthesis": 1, "oracle": 2}

# how a workload's times are brought to the calibration's reference speed
# (run.Calibration): samples during operations of seconds, between
# operations of milliseconds
CALIBRATION = {"reduced-sweep": "between", "synthesis": "during", "oracle": "during"}

WORKLOADS = {
    "reduced-sweep": (prepare_sweep, sweep_ops),
    "synthesis": (prepare_synthesis, synthesis_ops),
    "oracle": (prepare_oracle, oracle_ops),
}
