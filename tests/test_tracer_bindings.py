"""The traced benchmark (perfbench/tracer.py) wraps kbpcheck functions by
name; a renamed entry point must fail here rather than in a traced run."""

import importlib
from pathlib import Path

import kbpcheck.cli  # noqa: F401  (imports every module the tracer patches)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_binds_and_restores_every_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    tracer = Tracer()
    originals = {(home, attr): getattr(importlib.import_module(home), attr)
                 for home, attr, _ in tracer._functions()}
    tracer.install()
    try:
        patches = list(tracer._patches)
        for owner, attr, original in patches:
            assert vars(owner)[attr] is not original
    finally:
        tracer.uninstall()
    for (home, attr), fn in originals.items():
        assert any(original is fn for _, _, original in patches), f"{home}.{attr} not patched"
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original


def test_sweep_library_operation_runs(monkeypatch):
    # the library-level operation of the reduced-sweep workload calls
    # check_valid_at, verify_kbp_fixpoint and meta["contrib"] directly
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import reference as ref
    import workloads
    from kbpcheck import dc

    formulas = workloads._lib_formulas(3)
    results, kbp = workloads._lib_op(3, dc.unknown_scenario(3), formulas)()
    assert len(results) == len(formulas)
    vs = ref.assignments(3)
    worlds = {"speculative": ref.World(3, vs), "conservative": ref.World(3, vs, "conservative")}
    for mode, (system, fixpoint) in kbp.items():
        assert fixpoint, mode
        assert workloads.contrib_digest(system) == worlds[mode].contrib_digest()
