"""kbpcheck benchmark: one workload per run, timed end to end or traced per layer.

    python3 perfbench/run.py --workload reduced-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a kbpcheck source tree; the program is imported from
./src.  A run times set-up in fresh interpreters, computes the expected
outputs with the independent reference (reference.py, in a child process),
then, after the workload's untimed warm-up rounds, repeats whole rounds of
its operations while the next round is expected to end within --seconds (at
least MIN_ROUNDS timed ones), checking every output.  While operations run
it times a fixed calibration task, and the time metrics are given at the
calibration's reference speed (see `Calibration`).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 an untraced
warm-up round is followed by alternating traced and untraced rounds, and the
metrics are the per-layer ones plus the tracing overhead.  The spans of a
traced run are written to perfbench/out/spans-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# single-threaded numpy, fixed before anything imports it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 7
CHILD_TIMEOUT = 120
# calibration (see Calibration): a sample every CAL_PERIOD seconds during an
# operation, and an operation with CAL_OWN of them is scaled by its own; or
# samples after each operation for CAL_SHARE of its time; a sample takes
# CAL_REF_S at the reference speed
CAL_PERIOD = 0.05
CAL_REF_S = 0.002
CAL_OWN = 10
CAL_SHARE = 0.08

sys.path.insert(0, str(HERE))


def metric_units():
    """name -> unit of the end-to-end and of the per-layer metrics in BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("reduced-sweep", "synthesis", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import kbpcheck, prepare the inputs, print 'ready', "
                        "then calibration samples, and exit")
    return p.parse_args(argv)


class Calibration:
    """Samples of a fixed task whose time follows the host's speed.

    The task is dict and tuple work in the interpreter plus numpy passes over
    a cache-sized array, with no allocation while timed.  On a shared host
    the speed of interpreter-bound code changes in phases that last from
    seconds to tens of minutes, and the task slows down with them.  A
    workload takes its samples in one of two ways (CALIBRATION in
    workloads.py):

    - "during": while an operation runs, a timer signal takes a sample every
      CAL_PERIOD seconds in the same thread, so the samples see the speed the
      operation sees; their time is left out of the operation's latency.  An
      operation uses its own samples, or all of the run's when it has fewer
      than CAL_OWN.  For operations of seconds, within which the speed moves.
    - "between": after each operation, consecutive samples for CAL_SHARE of
      its time, pooled over the run.  For operations of milliseconds, which a
      sample would interrupt for a large share of their time and find with
      cold caches.

    A latency t is given at the reference speed, where a sample takes
    CAL_REF_S, as t x CAL_REF_S x mean(1 / sample): the work done at speed
    1 / sample, summed over the operation's time.
    """

    def __init__(self, mode):
        import numpy as np
        n = 1 << 14
        self.mode = mode
        self._np = np
        self._a = np.arange(n, dtype=np.int64)
        self._b, self._c = np.empty_like(self._a), np.empty_like(self._a)
        self._mask = np.empty(n, dtype=bool)
        self.pool = []                      # every sample of the run
        self._own = []                      # of the current operation
        self._owed = 0.0

    def sample(self):
        np, a, b, c = self._np, self._a, self._b, self._c
        start = time.perf_counter()
        table = {}
        for i in range(5000):
            key = (i & 255, i % 7)
            table[key] = table.get(key, 0) + i
        for _ in range(8):
            np.multiply(a, 3, out=b)
            np.right_shift(a, 2, out=c)
            np.bitwise_xor(b, c, out=b)
            np.bitwise_and(b, 1023, out=b)
            np.bincount(b)
            np.greater(b, 500, out=self._mask)
            np.count_nonzero(self._mask)
        took = time.perf_counter() - start
        self.pool.append(took)
        return took

    def _tick(self, signum, frame):
        self._own.append(self.sample())

    def measure(self, call):
        """Run `call`; return its latency, its own samples and its result."""
        self._own = []
        previous = None
        if self.mode == "during":
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD, CAL_PERIOD)
        start = time.perf_counter()
        try:
            result = call()
        finally:
            elapsed = time.perf_counter() - start
            if previous is not None:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
            latency = elapsed - sum(self._own)
            own = self._own
            if self.mode == "between":
                self._owed += latency * CAL_SHARE
                while self._owed > 0:
                    self._owed -= self.sample()
        return latency, own, result

    def reference_time(self, latency, own):
        """`latency` at the reference speed, given the operation's samples."""
        samples = own if len(own) >= CAL_OWN else self.pool
        return latency * CAL_REF_S * statistics.fmean(1 / t for t in samples)


def keep_freed_memory():
    """Make glibc keep the memory this process frees for its own reuse: no
    trimming of the heap top, no chunks mapped on their own.

    Memory a process hands back is reported free to the host, which takes
    the pages away; touching them again is then a page fault that the host
    serves, at a cost that depends on its load.  The oracle frees 2 GB at the
    end of each command, and its time with those faults spread 0.18-0.34
    over ten runs of the same code on a busy host.  With the memory kept, only the first
    round of a process pays them, and the oracle's warm-up round is that one.
    The other workloads free little and leave glibc as it is.  Returns
    whether both settings took.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    m_trim_threshold, m_mmap_max = -1, -4
    return bool(libc.mallopt(m_trim_threshold, -1)) and bool(libc.mallopt(m_mmap_max, 0))


def prepare(workload, seed, workdir):
    """Set-up: import kbpcheck and make the workload's inputs."""
    import kbpcheck  # noqa: F401
    from kbpcheck import cli  # noqa: F401
    import workloads
    if not Path(kbpcheck.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: kbpcheck imported from {kbpcheck.__file__}, not {SRC}")
    return workloads.WORKLOADS[workload][0](seed, workdir)


def setup_probe(args):
    """Set-up time of a fresh interpreter, from its start to its inputs being
    ready, at the reference speed of its own calibration samples."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed ({proc.returncode}): {line}{rest}")
    return (ready - start) * CAL_REF_S * statistics.fmean(1 / t for t in json.loads(rest))


def reference_values(args):
    out = subprocess.run([sys.executable, str(HERE / "reference.py"), "--workload",
                          args.workload, "--seed", str(args.seed)],
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True)
    return json.loads(out.stdout)


class Runner:
    """Runs rounds of operations, times them and checks their outputs."""

    def __init__(self, ops, calibration=None, tracer=None):
        self.ops, self.calibration, self.tracer = ops, calibration, tracer
        self.attempted = self.failed = 0
        self.correct = True
        self.first_output = {}
        # traced? -> operation -> (latency, own calibration samples) per
        # recorded round
        self.latencies = {traced: {op.name: [] for op in ops} for traced in (False, True)}
        self.layers = []                        # per-layer values of each traced round
        self.problems = []

    def round(self, traced, record=True):
        span_mark = len(self.tracer.spans) if traced else 0
        if traced:
            self.tracer.counters.clear()
            self.tracer.install()
        latencies = []
        try:
            for op in self.ops:
                gc.collect()
                latency, result = self._attempt(op, traced)
                latencies.append(latency)
                if result is not None:
                    self._check(op, result)
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            self.layers.append(self.tracer.layer_values(span_mark, dict(self.tracer.counters)))
        if record:
            for op, latency in zip(self.ops, latencies):
                self.latencies[traced][op.name].append(latency)

    def medians(self, traced):
        """Each operation's median latency over the recorded rounds, at the
        reference speed when the workload is calibrated."""
        cal = self.calibration
        return [statistics.median(cal.reference_time(t, own) if cal else t for t, own in times)
                for times in self.latencies[traced].values()]

    def _attempt(self, op, traced):
        self.attempted += 1
        if traced:
            self.tracer.begin_op(op.name)
        failure = None

        def call():
            nonlocal failure
            try:
                return op.call()
            except Exception as exc:    # an operation that raises counts as failed
                failure = exc
        try:
            if self.calibration:
                latency, own, result = self.calibration.measure(call)
            else:
                start = time.perf_counter()
                result = call()
                latency, own = time.perf_counter() - start, []
        finally:
            if traced:
                self.tracer.end_op()
        if failure is not None:
            self._fail(op, f"raised {failure!r}", wrong=False)
            result = None
        return (latency, own), result

    def _check(self, op, result):
        if op.expect_rc is not None:
            rc, text = result
            if rc != op.expect_rc:
                self._fail(op, f"exit code {rc}, expected {op.expect_rc}", wrong=False)
                return
            first = self.first_output.setdefault(op.name, text)
            if text != first:
                self._fail(op, "report differs from the first invocation's", wrong=True)
                return
        problem = op.check(result)
        if problem:
            self._fail(op, problem, wrong=True)

    def _fail(self, op, why, wrong):
        self.failed += 1
        self.correct = self.correct and not wrong
        if len(self.problems) < 20:
            self.problems.append(f"{op.name}: {why}")


def run(args):
    if not (SRC / "kbpcheck" / "__init__.py").is_file():
        print(f"perfbench: no kbpcheck sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        if args.setup_probe:
            prepare(args.workload, args.seed, workdir)
            print("ready", flush=True)
            calibration = Calibration("between")
            print(json.dumps([calibration.sample() for _ in range(CAL_OWN)]))
            return 0
        end_to_end, per_layer = metric_units()
        # back to back, before the rounds: a probe between rounds leaves the
        # caches cold for the next round and is itself slowed by the round
        setup = [setup_probe(args) for _ in range(0 if args.trace else SETUP_PROBES)]
        expected = reference_values(args)
        import workloads
        # a workload with warm-up rounds keeps its memory, so that only the
        # warm-up pays the page faults
        if workloads.WARMUP_ROUNDS[args.workload] and not keep_freed_memory():
            print("perfbench: mallopt failed; freed memory is not kept", file=sys.stderr)
        prep = prepare(args.workload, args.seed, workdir)
        ops = workloads.WORKLOADS[args.workload][1](prep, expected)
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        # a traced run is not calibrated: its samples would land in the spans
        calibration = None if args.trace else Calibration(workloads.CALIBRATION[args.workload])
        runner = Runner(ops, calibration, tracer)
        start = time.perf_counter()
        rounds = 0
        # a traced run starts with an untraced warm-up round, so that the
        # traced and untraced rounds it compares all run warm
        warmup = 1 if args.trace else workloads.WARMUP_ROUNDS[args.workload]
        min_rounds = warmup + (2 if args.trace else workloads.MIN_ROUNDS[args.workload])
        while True:
            traced = bool(args.trace) and rounds % 2 == 1
            runner.round(traced, record=rounds >= warmup)
            rounds += 1
            elapsed = time.perf_counter() - start
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in runner.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if args.trace:
        from tracer import LAYER_SOURCES
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        values = {name: statistics.median(layer[name] for layer in runner.layers)
                  for name in LAYER_SOURCES}
        # the traced and untraced rounds alternate, and both sides are sums of
        # per-operation medians, as wall_s is
        values["trace.overhead_s"] = sum(runner.medians(True)) - sum(runner.medians(False))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer.items()}
    else:
        medians = runner.medians(False)
        wall = sum(medians)
        points = sum(op.points for op in ops)
        values = {"setup_s": statistics.median(setup), "wall_s": wall,
                  "op_p50_s": statistics.median(medians),
                  "points_per_s": points / wall,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in end_to_end.items()}
    speed = "not calibrated"
    if calibration:
        speed = (f"calibration {calibration.mode} operations: median "
                 f"{statistics.median(calibration.pool) * 1e3:.3f} ms over "
                 f"{len(calibration.pool)} samples")
    print(f"perfbench: {args.workload} seed {args.seed}: {rounds} rounds "
          f"({warmup} untimed), {runner.attempted} operations, {runner.failed} failed; "
          f"{speed}", file=sys.stderr)
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def main(argv=None):
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
