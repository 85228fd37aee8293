"""Command-line surface.

    kbpcheck check      --spec 1s [--agent C1] [--slot 2] [--scenario unknown]
    kbpcheck refine     --file predicates.json [--agent C1] [--slot 1]
    kbpcheck synthesize --formula "K[C1](!conflict(1))" --at end
    kbpcheck trace      --assign "slot_request=[2,2,2];msg=[1,1,1]"
    kbpcheck oracle     [--slots 2] [--seed N] [--self-test]

Exit codes: 0 — everything checked holds / engines agree; 1 — some check
fails (counterexamples are printed); 2 — usage error.  Reports are emitted in
a canonical order, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import dc
from . import formula as fm
from . import reduction
from .engine import ENGINE_MODES, generate_runs, reduced_system
from .model import ModelError, UsageError
from .refine import (check_candidate, counterexample_from_verdict,
                     refine_sequence, render_counterexample, render_run_table,
                     run_witness, synthesize_predicate)

DEFAULT_SEED = 20250810


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "cmd", None) is None:
        parser.print_help()
        return 2
    try:
        return args.entry(args)
    except (UsageError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kbpcheck", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd")

    p = sub.add_parser("check", help="check a numbered specification")
    _common(p)
    p.add_argument("--spec", required=True,
                   help="one of %s, or 'all'" % ", ".join(dc.SPEC_IDS))
    p.add_argument("--agent", help="restrict to one agent (default: all)")
    p.add_argument("--slot", type=int, help="restrict to one slot (default: all)")
    p.set_defaults(entry=cmd_check)

    p = sub.add_parser("refine", help="run a candidate chain against its knowledge formula")
    _common(p)
    p.add_argument("--file", required=True, help="ordered predicate list (JSON)")
    p.add_argument("--agent", default="C1")
    p.add_argument("--slot", type=int, help="default 1; the dlvrd target takes none")
    p.add_argument("--formula", help="override the target knowledge formula")
    p.add_argument("--at", help="override the check time (res:N, tx:N or end)")
    p.set_defaults(entry=cmd_refine)

    p = sub.add_parser("synthesize", help="read the exact predicate off the model")
    _common(p)
    p.add_argument("--formula", required=True, help="a knowledge formula")
    p.add_argument("--at", default="end", help="res:N, tx:N or end (default end)")
    p.add_argument("--agent", help="agent whose local predicate is wanted "
                                   "(default: the first K in the formula)")
    p.set_defaults(entry=cmd_synthesize)

    p = sub.add_parser("trace", help="render the contribution table of a pinned run")
    _run_options(p)
    p.set_defaults(entry=cmd_trace)

    p = sub.add_parser("oracle", help="naive/reduced engine agreement on a small model")
    p.add_argument("--slots", type=int, default=2)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--random", type=int, default=200, help="random formula count")
    p.add_argument("--max-naive", type=int, default=4_000_000)
    p.add_argument("--self-test", action="store_true",
                   help="perturb the reduced engine and confirm the oracle catches it")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(entry=cmd_oracle)
    return parser


def _common(p):
    p.add_argument("--model", default="dc3", choices=("dc3",))
    p.add_argument("--scenario", default="unknown",
                   help="unknown | referendum | pinned | file:PATH (default unknown)")
    p.add_argument("--engine", choices=ENGINE_MODES, default="reduced")
    _run_options(p)


def _run_options(p):
    """The options of a single run: all that trace takes."""
    p.add_argument("--mode", choices=dc.MODES, default=None,
                   help="speculative (default) or conservative")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--assign", help='pinned vectors, "slot_request=[..];msg=[..]"',
                   dest="assign", default=None)

# ---------------------------------------------------------------------------
# Shared assembly


def parse_assign(text: str):
    ints = r"\[(\s*\d+(?:\s*,\s*\d+)*\s*)\]"
    m = re.fullmatch(rf"\s*slot_request\s*=\s*{ints}\s*;\s*msg\s*=\s*{ints}\s*", text)
    if not m:
        raise UsageError('bad --assign (expected "slot_request=[..];msg=[..]")')
    sr = [int(v) for v in m.group(1).split(",")]
    msg = [int(v) for v in m.group(2).split(",")]
    return sr, msg


def resolve_scenario(args):
    mode = args.mode
    if args.scenario.startswith("file:"):
        scenario, file_mode = dc.load_scenario_file(args.scenario[5:])
        mode = mode or file_mode
    elif args.scenario == "pinned":
        if not args.assign:
            raise UsageError("pinned scenario needs --assign")
        sr, msg = parse_assign(args.assign)
        scenario = dc.pinned_scenario(sr, msg)
    else:
        scenario = dc.scenario_by_name(args.scenario)
    return scenario, (mode or "speculative")


def build_system(scenario, mode, engine="reduced", kc=None):
    """Candidate system under the validated predicates, with `kc` in place of
    the kc predicate when given.  Conservative mode has no closed-form kc, so
    by default its kc tables are synthesized from the knowledge-based program
    first."""
    if kc is None and mode == "conservative":
        kc = conservative_kc_predicate(scenario)
    predicates = None if kc is None else dict(dc.final_predicates(), kc=kc)
    model = dc.build_cdc(dc.DcParams(mode=mode), predicates)
    return model, generate_runs(model, scenario, engine)


def kbp_system(scenario, mode, engine="reduced"):
    """Run set of the knowledge-based program."""
    return generate_runs(dc.build_cdc(dc.DcParams(mode=mode), kbp=True), scenario, engine)


def conservative_kc_predicate(scenario):
    ksys = kbp_system(scenario, "conservative")
    slots = ksys.meta["slots"]
    exprs = {}
    for s in range(1, slots + 1):
        know, t = dc.target_formula("kc", "C1", s, slots, "conservative")
        exprs[s] = synthesize_predicate(ksys, know, "C1", t).sop_text
    return dc.PerSlotPredicate("kc_synthesized", "kc", exprs)


def emit_json(payload) -> int:
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0

# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(args) -> int:
    scenario, mode = resolve_scenario(args)
    model, system = build_system(scenario, mode, args.engine)
    spec_ids = list(dc.SPEC_IDS) if args.spec == "all" else [args.spec]
    evaluator = fm.Evaluator(system)
    results, counterexamples = [], []
    for sid in spec_ids:
        if sid == ("1c" if mode == "speculative" else "1s") and args.spec == "all":
            continue  # the kc equivalence of the other mode does not apply
        # --spec all --slot N narrows the slotted specs and keeps the others whole
        narrow = None if args.spec == "all" and sid in dc.SLOTLESS_SPECS else args.slot
        for agent, slot in dc.spec_instances(sid, model.slots, args.agent, narrow):
            phi, time = dc.spec(sid, agent, slot, model.slots)
            verdict = fm.check_valid_at(system, phi, time, evaluator)
            cex = counterexample_from_verdict(system, verdict)
            if cex:
                counterexamples.append(cex)
            results.append({"spec": sid, "agent": agent, "slot": slot, "time": time,
                            "verdict": verdict.outcome,
                            "counterexample": cex.to_json() if cex else None})
    if args.format == "json":
        emit_json({"model": args.model, "scenario": scenario.name, "mode": mode,
                   "engine": args.engine, "results": results})
    else:
        for r in results:
            slot_txt = f" slot {r['slot']}" if r["slot"] else ""
            print(f"spec {r['spec']} agent {r['agent']}{slot_txt} "
                  f"time {r['time']}: {r['verdict'].upper()}")
        for cex in counterexamples[:3]:
            print(render_counterexample(cex))
    return 1 if counterexamples else 0


def cmd_refine(args) -> int:
    scenario, mode = resolve_scenario(args)
    candidates = dc.load_predicates_file(args.file)
    targets = {c.target for c in candidates}
    if len(targets) != 1:
        raise UsageError(f"predicate file mixes targets {sorted(targets)}")
    target = targets.pop()
    agent, slot = args.agent, args.slot
    if target == "dlvrd":
        if slot is not None:
            raise UsageError(f"target dlvrd ranges over no slot, got slot {slot}")
    elif slot is None:
        slot = 1
    if target == "kc":
        # kc changes behaviour, so each candidate gets its own system; the
        # first is built here, to read the slot count and parse --formula
        first = build_system(scenario, mode, args.engine, kc=candidates[0])[1]

        def system_or_builder(candidate):
            if candidate is candidates[0]:
                return first
            return build_system(scenario, mode, args.engine, kc=candidate)[1]
    else:
        first = system_or_builder = build_system(scenario, mode, args.engine)[1]
    slots = first.meta["slots"]
    if args.formula:
        know = fm.parse_formula(args.formula, model=first, macros=dc.dc_macros(slots))
        if args.at is None:
            raise UsageError("--formula needs --at")
    else:
        know, time = dc.target_formula(target, agent, slot, slots, mode)
    if args.at:
        time = parse_at(args.at, slots)
    report = refine_sequence(system_or_builder, candidates, know, agent, time, slot=slot)
    if args.format == "json":
        emit_json(report.to_json())
    else:
        for entry in report.entries:
            extra = "" if entry.monotone is None else \
                ("" if entry.monotone else "  [warning: not monotone over the previous candidate]")
            print(f"{entry.name}: {entry.verdict.outcome.upper()}{extra}")
            if entry.verdict.counterexample:
                print(render_counterexample(entry.verdict.counterexample))
        print(f"chain {'passed' if report.passed else 'failed'}")
    return 0 if report.passed else 1


def parse_at(text: str, slots: int = dc.DcParams.slots) -> int:
    if text == "end":
        return 2 * slots
    m = re.fullmatch(r"(res|tx):([0-9]+)", text)
    if not m:
        raise UsageError(f"bad --at {text!r} (use res:N, tx:N or end)")
    n = int(m.group(2))
    if not 1 <= n <= slots:
        raise UsageError(f"--at slot {n} outside 1..{slots}")
    return n if m.group(1) == "res" else slots + n


def cmd_synthesize(args) -> int:
    scenario, mode = resolve_scenario(args)
    if mode == "conservative":
        system = kbp_system(scenario, mode, args.engine)
    else:
        _, system = build_system(scenario, mode, args.engine)
    slots = system.meta["slots"]
    phi = fm.parse_formula(args.formula, model=system, macros=dc.dc_macros(slots))
    agent = args.agent or _first_know_agent(phi)
    if agent is None:
        raise UsageError("no K in the formula; pass --agent explicitly")
    time = parse_at(args.at, slots)
    pred = synthesize_predicate(system, phi, agent, time)
    verdict = check_candidate(system, pred, phi, agent, time, name="synthesized")
    payload = pred.to_json()
    payload["round_trip"] = verdict.outcome
    if args.format == "json":
        emit_json(payload)
    else:
        print(f"predicate for {payload['formula']}  (agent {agent}, time {time})")
        print(f"inputs: {', '.join(payload['inputs'])}")
        for row in payload["table"]:
            bits = " ".join(str(v) for v in row["class"])
            print(f"  {bits} -> {'1' if row['value'] else '0'}")
        print(f"expr: {payload['expr']}")
        print(f"round-trip: {verdict.outcome}")
    return 0 if verdict.holds else 1


def _first_know_agent(phi):
    for sub in fm.subformulas(phi):
        if isinstance(sub, fm.Know):
            return sub.agent
    return None


def cmd_trace(args) -> int:
    if not args.assign:
        raise UsageError('trace needs --assign "slot_request=[..];msg=[..]"')
    sr, msg = parse_assign(args.assign)
    mode = args.mode or "speculative"
    scenario = dc.pinned_scenario(sr, msg)
    model, system = build_system(scenario, mode, "reduced")
    if args.format == "json":
        emit_json({"assign": {"slot_request": sr, "msg": msg}, "mode": mode,
                   "table": run_witness(system, 0).to_json()})
    else:
        print(render_run_table(system, 0))
    return 0


def cmd_oracle(args) -> int:
    params = dc.DcParams(slots=args.slots)
    model = dc.build_cdc(params)
    scenario = dc.unknown_scenario(slots=args.slots)
    suite = []
    for sid in dc.SPEC_IDS:
        if sid == "1c":
            continue
        for agent, slot in dc.spec_instances(sid, slots=args.slots):
            phi, _ = dc.spec(sid, agent, slot, slots=args.slots)
            suite.append((f"spec-{sid}-{agent}-{slot or 0}", phi))
    reduced = None
    if args.self_test:
        reduced = reduced_system(model, scenario, coarse_fingerprints=True)
    report = reduction.engines_agree(model, scenario, suite, seed=args.seed,
                                     n_random=args.random,
                                     max_naive_runs=args.max_naive,
                                     reduced=reduced)
    if args.format == "json":
        emit_json(report.to_json())
    else:
        what = "self-test (fault injected)" if args.self_test else "oracle"
        print(f"{what}: {report.formulas} formulas, {report.checks} checks, "
              f"{report.points_compared:,} points, seed {report.seed}")
        if report.ok:
            print("engines agree")
        else:
            print(f"{len(report.mismatches)} disagreements, first: "
                  f"{report.mismatches[0].to_json()}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
