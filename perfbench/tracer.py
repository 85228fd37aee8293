"""Per-layer spans and counters, recorded from outside kbpcheck.

The tracer wraps public functions of each layer at every module that bound
them by name (``cli`` imports ``generate_runs`` directly, ``reduction``
imports ``reduced_system``, the package re-exports most of them), plus three
methods: ``InterpretedSystem.partition_labels``, ``Evaluator.vector`` and
``Evaluator.__init__``.  Only the outermost call of a recursive function is
timed.  A span's self time is its duration minus the time its child spans
cover.  Spans stay in memory until ``write`` at the end of the run.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import weakref
from collections import Counter, defaultdict

# source of each per-layer metric of BENCHMARK.json (which holds units and
# direction):
# source is ("self", span name), ("count", counter) or ("ratio", num, den)
LAYER_SOURCES = {
    "engine.build_reduced_s": ("self", "engine.build_reduced"),
    "engine.build_naive_s": ("self", "engine.build_naive"),
    "engine.execute_kbp_s": ("self", "engine.execute_kbp"),
    "engine.verify_kbp_fixpoint_s": ("self", "engine.verify_kbp_fixpoint"),
    "engine.runs_built": ("count", "runs_built"),
    "model.partition_labels_s": ("self", "model.partition_labels"),
    "model.partition_labels_calls": ("count", "partition_calls"),
    "model.partition_cache_hit_ratio": ("ratio", "partition_hits", "partition_calls"),
    "model.partition_blocks": ("count", "partition_blocks"),
    "formula.parse_s": ("self", "formula.parse"),
    "formula.eval_s": ("self", "formula.eval"),
    "formula.eval_calls": ("count", "eval_calls"),
    "formula.memo_entries": ("count", "memo_entries"),
    "formula.memo_mb": ("count", "memo_mb"),
    "localexpr.eval_s": ("self", "localexpr.eval"),
    "localexpr.eval_calls": ("count", "localexpr_calls"),
    "refine.synthesize_s": ("self", "refine.synthesize"),
    "refine.check_candidate_s": ("self", "refine.check_candidate"),
    "refine.refine_sequence_s": ("self", "refine.refine_sequence"),
    "minimize.prime_implicants_s": ("self", "minimize.prime_implicants"),
    "minimize.cover_s": ("self", "minimize.cover"),
    "minimize.primes": ("count", "primes"),
    "minimize.minterms": ("count", "minterms"),
    "reduction.compare_s": ("self", "reduction.compare"),
    "reduction.points_compared": ("count", "points_compared"),
    "dc.build_cdc_s": ("self", "dc.build_cdc"),
}


def _engine_span(args, kwargs):
    mode = kwargs.get("engine_mode", args[2] if len(args) > 2 else "reduced")
    return "engine.build_naive" if mode == "naive" else "engine.build_reduced"


class Tracer:
    def __init__(self):
        self.spans = []             # [op, name, start, end, parent, child time]
        self._stack = []            # indices into spans
        self._active = Counter()    # span name -> open spans of that name
        self.counters = defaultdict(float)
        self._op = None
        self._patches = []          # (owner, attribute, original)
        self._evaluators = []       # created during the current operation
        self._partitions = weakref.WeakKeyDictionary()  # system -> {key: result}

    # spans ----------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self._op, name, time.perf_counter(), None, parent, 0.0])
        self._stack.append(len(self.spans) - 1)
        self._active[name] += 1

    def _close(self):
        index = self._stack.pop()
        span = self.spans[index]
        span[3] = time.perf_counter()
        self._active[span[1]] -= 1
        if span[4] is not None:
            self.spans[span[4]][5] += span[3] - span[2]

    def _timed(self, name, fn, args, kwargs):
        if self._active[name]:
            return fn(*args, **kwargs)      # recursion: the outer call is timed
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def begin_op(self, op):
        self._op = op
        self._open(f"op:{op}")

    def end_op(self):
        self._close()
        arrays = {}                 # one vector may sit under several keys
        for ev in self._evaluators:
            memo = getattr(ev, "memo", {})
            self.counters["memo_entries"] += len(memo)
            arrays.update((id(v), getattr(v, "nbytes", 0)) for v in memo.values())
        self.counters["memo_mb"] += sum(arrays.values()) / 2 ** 20
        self._evaluators.clear()
        self._partitions = weakref.WeakKeyDictionary()
        self._op = None

    def layer_values(self, first_span, counters):
        """Per-layer metric values over spans[first_span:] and the counters."""
        self_time = defaultdict(float)
        for span in self.spans[first_span:]:
            self_time[span[1]] += span[3] - span[2] - span[5]
        out = {}
        for metric, source in LAYER_SOURCES.items():
            if source[0] == "self":
                out[metric] = self_time[source[1]]
            elif source[0] == "count":
                out[metric] = counters.get(source[1], 0.0)
            else:
                den = counters.get(source[2], 0.0)
                out[metric] = counters.get(source[1], 0.0) / den if den else 0.0
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for op, name, start, end, parent, child in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start": start, "end": end,
                                     "parent": parent, "self": end - start - child}) + "\n")

    # wrappers -------------------------------------------------------------

    def _wrap(self, name_of, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs) if callable(name_of) else name_of
            result = tracer._timed(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_runs(self, args, kwargs, system):
        self.counters["runs_built"] += system.n_runs

    def _count_primes(self, args, kwargs, primes):
        self.counters["primes"] += len(primes)

    def _count_minterms(self, args, kwargs, cubes):
        on = args[1] if len(args) > 1 else kwargs["on"]
        dc = args[2] if len(args) > 2 else kwargs.get("dc", ())
        self.counters["minterms"] += len(on) + len(dc)

    def _count_points(self, args, kwargs, report):
        self.counters["points_compared"] += report.points_compared

    def _count_eval(self, args, kwargs, result):
        self.counters["eval_calls"] += 1

    def _count_localexpr(self, args, kwargs, result):
        self.counters["localexpr_calls"] += 1

    def _partition_labels(self, fn):
        tracer = self
        signature = inspect.signature(fn)

        def partition_labels(system, *args, **kwargs):
            # every call is counted, the outermost one timed; a call is a hit
            # when it hands back the very object an earlier call returned
            result = tracer._timed("model.partition_labels", fn, (system,) + args, kwargs)
            seen = tracer._partitions.setdefault(system, {})
            bound = signature.bind(system, *args, **kwargs)
            bound.apply_defaults()
            key = tuple(bound.arguments.values())[1:]
            tracer.counters["partition_calls"] += 1
            if seen.get(key) is result:
                tracer.counters["partition_hits"] += 1
            else:
                seen[key] = result
                tracer.counters["partition_blocks"] += result[1]
            return result

        partition_labels.__wrapped__ = fn
        return partition_labels

    def _evaluator_init(self, fn):
        tracer = self

        def __init__(ev, *args, **kwargs):
            fn(ev, *args, **kwargs)
            tracer._evaluators.append(ev)

        __init__.__wrapped__ = fn
        return __init__

    def _functions(self):
        """(module, attribute, wrapper factory) of every traced function."""
        w = self._wrap
        return [
            ("kbpcheck.engine", "generate_runs",
             lambda f: w(_engine_span, f, self._count_runs)),
            ("kbpcheck.engine", "reduced_system",
             lambda f: w("engine.build_reduced", f, self._count_runs)),
            ("kbpcheck.engine", "execute_kbp",
             lambda f: w("engine.execute_kbp", f, self._count_runs)),
            ("kbpcheck.engine", "verify_kbp_fixpoint",
             lambda f: w("engine.verify_kbp_fixpoint", f)),
            ("kbpcheck.formula", "parse_formula", lambda f: w("formula.parse", f)),
            ("kbpcheck.localexpr", "eval_expr",
             lambda f: w("localexpr.eval", f, self._count_localexpr)),
            ("kbpcheck.refine", "synthesize_predicate", lambda f: w("refine.synthesize", f)),
            ("kbpcheck.refine", "check_candidate", lambda f: w("refine.check_candidate", f)),
            ("kbpcheck.refine", "refine_sequence", lambda f: w("refine.refine_sequence", f)),
            ("kbpcheck.minimize", "prime_implicants",
             lambda f: w("minimize.prime_implicants", f, self._count_primes)),
            ("kbpcheck.minimize", "minimize",
             lambda f: w("minimize.cover", f, self._count_minterms)),
            ("kbpcheck.reduction", "engines_agree",
             lambda f: w("reduction.compare", f, self._count_points)),
            ("kbpcheck.dc", "build_cdc", lambda f: w("dc.build_cdc", f)),
        ]

    def install(self):
        """Replace every binding of the traced functions and methods."""
        from kbpcheck.formula import Evaluator
        from kbpcheck.model import InterpretedSystem
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "kbpcheck" or name.startswith("kbpcheck."))]
        for home, attr, factory in self._functions():
            original = getattr(sys.modules[home], attr)
            wrapper = factory(original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)
        methods = [
            (InterpretedSystem, "partition_labels", self._partition_labels),
            (Evaluator, "vector",
             lambda f: self._wrap("formula.eval", f, self._count_eval)),
            (Evaluator, "__init__", self._evaluator_init),
        ]
        for cls, attr, factory in methods:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, factory(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
