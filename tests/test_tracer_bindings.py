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
