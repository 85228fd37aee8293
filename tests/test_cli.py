import hashlib
import json
from pathlib import Path

import pytest

from kbpcheck import dc
from kbpcheck.cli import main, parse_assign, parse_at

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_spec_1s_exit_0(capsys):
    code, out, _ = run_cli(capsys, "check", "--spec", "1s", "--scenario", "unknown")
    assert code == 0
    assert out.count("HOLDS") == 9


def test_check_spec_2_exit_1_with_tables(capsys):
    code, out, _ = run_cli(capsys, "check", "--spec", "2")
    assert code == 1
    assert "FAILS" in out
    assert "Agent C1" in out and "rr" in out
    assert "slot_request = [" in out


def test_check_bogus_spec_exit_2(capsys):
    code, _, err = run_cli(capsys, "check", "--spec", "bogus")
    assert code == 2
    assert "unknown spec" in err


def test_check_all_speculative(capsys):
    code, out, _ = run_cli(capsys, "check", "--spec", "all", "--format", "json")
    assert code == 1     # specs 2 and 3 fail
    payload = json.loads(out)
    verdicts = {(r["spec"], r["agent"], r["slot"]): r["verdict"]
                for r in payload["results"]}
    assert verdicts[("1s", "C1", 1)] == "holds"
    assert verdicts[("2", "C1", 2)] == "fails"
    assert verdicts[("6", "C3", None)] == "holds"
    assert not any(spec == "1c" for spec, _, _ in verdicts)


def test_check_narrow_to_agent_slot(capsys):
    code, out, _ = run_cli(capsys, "check", "--spec", "4b", "--agent", "C2",
                           "--slot", "3")
    assert code == 0
    assert out.strip().splitlines()[0] == "spec 4b agent C2 slot 3 time 6: HOLDS"


def test_check_all_narrowed_to_a_slot_keeps_the_slotless_specs(capsys):
    code, out, _ = run_cli(capsys, "check", "--spec", "all", "--slot", "2")
    assert code == 1     # specs 2 and 3 fail
    lines = out.splitlines()
    assert "spec 5 agent C1 time 6: HOLDS" in lines
    assert "spec 6 agent C3 time 6: HOLDS" in lines
    assert not any(" slot 1 " in line or " slot 3 " in line for line in lines)


NARROWINGS = {f"{spec}-narrowing{i}": (spec, narrowing) for spec in ("1s", "all")
              for i, narrowing in enumerate([("--slot", "0"), ("--slot", "4"), ("--agent", "")])}
NARROWINGS.update({f"{spec}-slot": (spec, ("--slot", "2")) for spec in ("5", "6")})


@pytest.mark.parametrize("spec, narrowing", NARROWINGS.values(), ids=NARROWINGS.keys())
def test_check_rejects_narrowing_to_nothing(capsys, spec, narrowing):
    code, out, err = run_cli(capsys, "check", "--spec", spec, *narrowing)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_check_json_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "check", "--spec", "2", "--format", "json")
    _, out2, _ = run_cli(capsys, "check", "--spec", "2", "--format", "json")
    assert out1 == out2


def test_check_conservative_mode(capsys):
    code, out, _ = run_cli(capsys, "check", "--spec", "1c", "--mode", "conservative")
    assert code == 0
    assert out.count("HOLDS") == 9


def test_refine_chain_exit_codes(capsys, tmp_path):
    chain = [dc.builtin_predicate(n) for n in ("cf1", "cf2", "cf3")]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps([{"name": p.name, "target": p.target,
                                 "expr": p.expr} for p in chain]))
    code, out, _ = run_cli(capsys, "refine", "--file", str(path))
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("cf")]
    assert lines[0].startswith("cf1: FAILS")
    assert "cf3: HOLDS" in out
    path.write_text(json.dumps([{"name": "cf1", "target": "conflict_free",
                                 "expr": chain[0].expr}]))
    code, out, _ = run_cli(capsys, "refine", "--file", str(path))
    assert code == 1
    path.write_text("[]")
    code, _, err = run_cli(capsys, "refine", "--file", str(path))
    assert code == 2


def test_refine_kc_target_rebuilds(capsys, tmp_path):
    path = tmp_path / "kc.json"
    path.write_text(json.dumps([
        {"name": "never", "target": "kc", "expr": "false"},
        {"name": "kc_guess", "target": "kc",
         "expr": dc.builtin_predicate("kc_guess").expr}]))
    code, out, _ = run_cli(capsys, "refine", "--file", str(path))
    assert code == 0
    assert "never: FAILS" in out and "kc_guess: HOLDS" in out


def test_refine_kc_builds_each_candidate_once(capsys, tmp_path, monkeypatch):
    from kbpcheck import cli
    calls = []
    real = cli.generate_runs

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "generate_runs", counting)
    path = tmp_path / "kc.json"
    path.write_text(json.dumps([
        {"name": "never", "target": "kc", "expr": "false"},
        {"name": "kc_guess", "target": "kc",
         "expr": dc.builtin_predicate("kc_guess").expr}]))
    code, _, _ = run_cli(capsys, "refine", "--file", str(path))
    assert code == 0
    assert len(calls) == 2     # one run set per candidate, no extra probe


@pytest.mark.parametrize("agent", dc.AGENTS)
@pytest.mark.parametrize("target,expr,message", [
    # the candidate path: the predicate is read at the end of the run
    ("conflict_free", "rr[s] && rr[9]", "unknown history variable 'rr[9]' (agent {agent})"),
    ("conflict_free", "kc[7] || rr[s]", "unknown history variable 'kc[7]' (agent {agent})"),
    # the build path: kc[1] is assigned at time 3, before rr[4] is known
    ("kc", "rr[s+3]", "unassigned history variable 'rr[4]' read at time 3 (agent C1)"),
])
def test_refine_locality_errors_exit_2(capsys, tmp_path, agent, target, expr, message):
    path = tmp_path / "preds.json"
    path.write_text(json.dumps([{"name": "bad", "target": target, "expr": expr}]))
    code, out, err = run_cli(capsys, "refine", "--file", str(path), "--agent", agent)
    assert code == 2
    assert out == ""
    assert err == f"error: {message.format(agent=agent)}\n"


@pytest.mark.parametrize("expr,slot,message", [
    ("rr[s]", None, "expression uses the slot parameter 's' but no slot was given"),
    ("rr[s]", "9", "target dlvrd ranges over no slot, got slot 9"),
    (dc.builtin_predicate("dlvrd_final").expr, "1", "target dlvrd ranges over no slot, got slot 1"),
], ids=["slot-parameter", "slot-9", "final-slot-1"])
def test_refine_dlvrd_takes_no_slot_exit_2(capsys, tmp_path, expr, slot, message):
    path = tmp_path / "dlvrd.json"
    path.write_text(json.dumps([{"name": "d", "target": "dlvrd", "expr": expr}]))
    code, out, err = run_cli(capsys, "refine", "--file", str(path),
                             *(() if slot is None else ("--slot", slot)))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_refine_dlvrd_final_holds_without_a_slot(capsys, tmp_path):
    path = tmp_path / "dlvrd.json"
    path.write_text(json.dumps([{"name": "d", "target": "dlvrd",
                                 "expr": dc.builtin_predicate("dlvrd_final").expr}]))
    code, out, _ = run_cli(capsys, "refine", "--file", str(path), "--agent", "C2")
    assert code == 0 and out == "d: HOLDS\nchain passed\n"


def test_refine_pair_is_labelled_with_the_agent_whose_k_is_false(capsys, tmp_path):
    from conftest import run_of
    from kbpcheck.cli import build_system
    always = [{"name": "always", "target": "kc", "expr": "true"}]
    path = tmp_path / "always.json"
    path.write_text(json.dumps(always))
    code, out, _ = run_cli(capsys, "refine", "--file", str(path), "--agent", "C1",
                           "--slot", "1", "--formula", "K[C2](!conflict(1))",
                           "--at", "tx:1", "--format", "json")
    assert code == 1
    cex = json.loads(out)["candidates"][0]["counterexample"]
    assert cex["agent"] == "C2"
    assert len(cex["witnesses"]) == 2
    _, system = build_system(dc.unknown_scenario(), "speculative",
                             kc=dc.PredicateDef(**always[0]))
    runs = [run_of(system, w["slot_request"], w["msg"]) for w in cex["witnesses"]]
    labels, _ = system.partition_labels("C2", 4)
    assert labels[runs[0]] == labels[runs[1]]


# stdout sha256 and exit code of reports whose every line was checked by hand;
# any change to them is a change to the tool's output
PINNED_REPORTS = [
    (["check", "--spec", "all", "--format", "json"],
     "a0bc7b6e8ceed0410bcfd93d674a73d2b3bed82a8f862c0d14811b50316554e9", 1),
    (["check", "--spec", "all", "--format", "json", "--mode", "conservative"],
     "0a77140d9a9a915a64386b936e8d94dd85e4d0ee80aa8514263ed0288861ab9b", 1),
    (["check", "--spec", "all", "--format", "json", "--scenario", "referendum"],
     "4cef431c41e75bfc4ba703a181fa1f5461dbe7f458daf76dcdc19046e2fd13e2", 1),
    (["synthesize", "--formula", "K[C1](!conflict(1))", "--at", "end"],
     "8004b00c025c103ec85bfc2acaeebf13d71e67435451bb7a459919cef712289c", 0),
    (["trace", "--assign", "slot_request=[2,2,2];msg=[1,1,1]"],
     "e4392699a7196a14b1f61a6923cdf7df05fff3412fce46e8b8e627fcc96bfb85", 0),
    # the knowledge-based program's path: synthesis on the conservative KBP
    (["synthesize", "--formula", "K[C1](!conflict(2))", "--at", "res:3",
      "--mode", "conservative", "--format", "json"],
     "665e3b786dba5a54b8e6431c064c0c841327a3dd972028f9ab3f9d5be34b44ad", 0),
]


@pytest.mark.parametrize("argv, digest, rc", PINNED_REPORTS,
                         ids=[" ".join(argv[:2]) + f"-{i}" for i, (argv, _, _) in
                              enumerate(PINNED_REPORTS)])
def test_pinned_report_bytes(capsys, argv, digest, rc):
    code, out, _ = run_cli(capsys, *argv)
    assert code == rc
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_synthesize_unknown_agent_exit_2(capsys):
    code, out, err = run_cli(capsys, "synthesize", "--formula", "K[C1](!conflict(1))",
                             "--at", "end", "--agent", "C9")
    assert code == 2
    assert out == ""
    assert err == "error: unknown agent 'C9'\n"


def test_synthesize_trivial_msg(capsys):
    code, out, _ = run_cli(capsys, "synthesize", "--formula", "K[C1](C1.msg == 1)",
                           "--at", "end")
    assert code == 0
    assert "expr: msg" in out
    assert "round-trip: holds" in out


def test_synthesize_conflict_free_block(capsys):
    code, out, _ = run_cli(capsys, "synthesize", "--formula", "K[C1](!conflict(1))",
                           "--at", "end", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["round_trip"] == "holds"
    rows = {tuple(r["class"]): r["value"] for r in payload["table"]}
    assert rows[(2, 1, 1, 0, 0, 0, 0, 0)] is True    # reservation (1,0,0) seen from slot 2


def test_synthesize_conservative_kc(capsys):
    code, out, _ = run_cli(capsys, "synthesize", "--formula", "K[C1](!conflict(1))",
                           "--at", "res:3", "--mode", "conservative",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    golden = json.loads((GOLDEN / "conservative_kc.json").read_text())
    assert payload["table"] == golden["synthesized_kc"]["1"]["table"]
    assert payload["expr"] == golden["synthesized_kc"]["1"]["expr"]


def test_synthesize_conservative_refuses_naive_unknown(capsys):
    code, out, err = run_cli(capsys, "synthesize", "--formula", "K[C1](!conflict(1))",
                             "--at", "end", "--mode", "conservative", "--engine", "naive")
    assert code == 2
    assert out == ""
    assert "naive engine would enumerate 134,217,728 runs" in err


def test_synthesize_conservative_pinned_naive_matches_reduced(capsys):
    argv = ["synthesize", "--formula", "K[C1](!conflict(1))", "--at", "end",
            "--mode", "conservative", "--scenario", "pinned",
            "--assign", "slot_request=[1,2,0];msg=[1,0,1]", "--format", "json"]
    reports = [run_cli(capsys, *argv, "--engine", engine) for engine in ("reduced", "naive")]
    assert reports[0][0] == 0
    assert reports[1] == reports[0]


def test_synthesize_needs_agent_or_know(capsys):
    code, _, err = run_cli(capsys, "synthesize", "--formula", "conflict(1)",
                           "--at", "end")
    assert code == 2
    assert "agent" in err


def test_trace_golden(capsys):
    code, out, _ = run_cli(capsys, "trace", "--assign",
                           "slot_request=[2,2,2];msg=[1,1,1]")
    assert code == 0
    assert out == (GOLDEN / "trace_left.txt").read_text()
    code, out, _ = run_cli(capsys, "trace", "--assign",
                           "slot_request=[2,0,0];msg=[1,1,1]")
    assert out == (GOLDEN / "trace_right.txt").read_text()
    code, out, _ = run_cli(capsys, "trace", "--assign",
                           "slot_request=[0,0,0];msg=[0,0,0]")
    assert out == (GOLDEN / "trace_silent.txt").read_text()
    assert "rr       | 0 0 0 | 0 0 0" in out


@pytest.mark.parametrize("flag", [("--engine", "naive"), ("--scenario", "referendum"),
                                  ("--model", "dc3")])
def test_trace_takes_only_the_flags_it_reads(capsys, flag):
    code, out, _ = run_cli(capsys, "trace", "--assign", "slot_request=[2,2,2];msg=[1,1,1]", *flag)
    assert code == 2
    assert out == ""


def test_trace_bad_assign(capsys):
    code, _, err = run_cli(capsys, "trace", "--assign", "nonsense")
    assert code == 2


def test_scenario_file_flow(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    # a singleton scenario collapses knowledge: everything known, spec 3 holds
    path.write_text(json.dumps({"model": "dc3", "mode": "speculative",
                                "scenario": "pinned",
                                "pinned": {"slot_request": [2, 2, 2],
                                           "msg": [1, 1, 1]}}))
    code, out, _ = run_cli(capsys, "check", "--spec", "3", "--agent", "C1",
                           "--slot", "2", "--scenario", f"file:{path}")
    assert code == 0
    # with the other agents unconstrained the collision goes undetected
    path.write_text(json.dumps({"model": "dc3", "scenario": "custom",
                                "constraint": "C1.slot_request == 2"}))
    code, out, _ = run_cli(capsys, "check", "--spec", "3", "--agent", "C1",
                           "--slot", "2", "--scenario", f"file:{path}")
    assert code == 1


@pytest.mark.parametrize("content, message", [
    (json.dumps([{"scenario": "unknown"}]), "expected a JSON object"),
    (json.dumps({"scenario": "pinned", "pinned": {"msg": [1, 1, 1]}}), "'slot_request'"),
    (json.dumps({"scenario": "pinned",
                 "pinned": {"slot_request": [2, "two", 0], "msg": [1, 1, 1]}}),
     "lists of integers"),
    (json.dumps({"scenario": "custom", "constraint": ["C1.slot_request == 2"]}),
     "'constraint' string"),
    (json.dumps({"scenario": ["pinned"]}), "unknown scenario"),
    (b"\xff\xfe{}", "can't decode"),
], ids=["list", "pinned-without-slot-request", "non-integer-pinned",
        "non-string-constraint", "list-scenario-name", "not-utf8"])
def test_malformed_scenario_file_exit_2(capsys, tmp_path, content, message):
    path = tmp_path / "scenario.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    code, out, err = run_cli(capsys, "check", "--spec", "3", "--scenario", f"file:{path}")
    assert code == 2 and out == ""
    assert err.startswith(f"error: scenario file {path}: ")
    assert message in err


def test_scenario_file_is_a_directory_exit_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "check", "--spec", "3", "--scenario", f"file:{tmp_path}")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Is a directory" in err


def test_predicate_expr_not_a_string_exit_2(capsys, tmp_path):
    path = tmp_path / "preds.json"
    path.write_text(json.dumps([{"name": "cf", "target": "conflict_free",
                                 "expr": ["rr[s]"]}]))
    code, out, err = run_cli(capsys, "refine", "--file", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: predicate file {path}: ")


def test_predicate_parse_error_names_the_file(capsys, tmp_path):
    path = tmp_path / "preds.json"
    path.write_text(json.dumps([{"name": "cf", "target": "conflict_free",
                                 "expr": "rr[s] &&"}]))
    code, _, err = run_cli(capsys, "refine", "--file", str(path))
    assert code == 2
    assert err.startswith(f"error: predicate file {path}: local expression: ")


def test_assign_with_an_empty_entry_exit_2(capsys):
    code, out, err = run_cli(capsys, "trace", "--assign", "slot_request=[1,,2];msg=[1,0,1]")
    assert code == 2 and out == ""
    assert "bad --assign" in err


def test_oracle_small(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--random", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["seed"] == 20250810


def test_oracle_echoes_custom_seed(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--random", "3", "--seed", "99",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["seed"] == 99


def test_oracle_self_test_detects_fault(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--random", "2", "--self-test")
    assert code == 1
    assert "disagreements" in out


def test_oracle_rejects_a_negative_random_count(capsys):
    code, out, err = run_cli(capsys, "oracle", "--random", "-3")
    assert code == 2 and out == ""
    assert "negative" in err


def test_parse_helpers():
    assert parse_assign("slot_request=[2,0,0];msg=[1,1,1]") == ([2, 0, 0], [1, 1, 1])
    with pytest.raises(Exception):
        parse_assign("slot_request=[2,0,0]")
    assert parse_at("end") == 6
    assert parse_at("res:2") == 2
    assert parse_at("tx:1") == 4
    with pytest.raises(Exception):
        parse_at("tx:9")


def test_no_command_prints_help(capsys):
    code = main([])
    assert code == 2
