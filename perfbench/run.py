"""Benchmark of the hyperfa package, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from
``src/``.  Workloads: member-random, member-ham, decide, cli (see
``workloads.py`` and ``BENCHMARK.json``).  The load is one closed-loop
client: one process, no threads, one ``hyperfa`` child at a time.

--trace 0  repeats the workload's round of operations until S seconds of
           operations have run, sets the workload up again between rounds
           (``setup_s`` is the median set-up time), and reports the
           end-to-end metrics.
--trace 1  sets up once with spans around every call into a layer, runs
           S/2 seconds untraced and S/2 seconds traced, replays the ``cli``
           round in-process, and reports the per-layer metrics, including
           the tracing overhead.  Spans go to ``.perfbench-out/``.

Outputs are checked after the window by ``checker.py``.  The last line of
standard output is the JSON result.  Without ``src/hyperfa`` the script
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from array import array
from time import perf_counter
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checker  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Layers, Tracer, self_times  # noqa: E402

OUT_DIR = os.path.join(W.ROOT, ".perfbench-out")
# at least this many set-ups, and at least SETUP_MIN_S of them, for setup_s
SETUP_REPS = 5
SETUP_MIN_S = 0.3
SETUP_MAX_REPS = 60
STARTUP_REPS = 5
# The tail is the highest of these percentiles with at least ten of the
# round's operations beyond it, and no higher than the workload's ceiling:
# member-random stops at p99, where its 552 slowest queries come from many
# acceptors rather than the few slowest the seed happened to draw.
TAIL_GRID = (50, 75, 90, 95, 99, 99.9)
TAIL_CEILING = {"member-random": 99}
# An operation's latency is the median of at most this many repeats; the
# samples are allocated up front so that memory does not grow with rounds.
MAX_REPEATS = 16

CLI_SUBCOMMANDS = ("compile", "member", "empty", "contains", "equiv", "canon",
                   "gen-ham", "dot")


def load_package():
    if not os.path.isfile(os.path.join(W.SRC, "hyperfa", "__init__.py")):
        print(f"error: no package source at {W.SRC}/hyperfa; run from the root "
              "of a hyperfa checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, W.SRC)
    import hyperfa

    return hyperfa


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "implementation":
            platform.python_implementation(), "nproc": nproc, "cpu": cpu,
            "platform": platform.platform(), "seed": seed}


def generator(name: str) -> dict:
    with open(os.path.join(HERE, "design.json"), encoding="utf-8") as fh:
        design = json.load(fh)
    return next(w["generator"] for w in design["workloads"] if w["name"] == name)


class HostSpeed:
    """How slow the host runs Python right now, relative to nominal.

    On a shared host the speed of pure-Python code shifts by up to half for
    seconds to minutes at a time.  Every latency is divided by the host
    factor: the time of a fixed reference computation over its nominal
    time.  The reference is the independent checker evaluating a fixed
    acceptor on fixed hyperwords (no package code), timed as the fastest of
    three back-to-back runs with the garbage collector paused, so that
    neither an interruption nor a collection of the workload's heap counts.
    A measurement stays current for ``FRESH_S``; an operation longer than
    that uses the mean of the factors before and just after it.
    """

    NOMINAL_S = 0.0005
    FRESH_S = 0.05

    def __init__(self) -> None:
        self.acc = W.random_acc(random.Random(0), "AAE", 3, 0.3, n=3)
        self.hyperwords = checker.all_hyperwords(("a", "b"), 3, 2)[:30]
        self.measure()

    def _once(self) -> float:
        start = perf_counter()
        ev = checker.Evaluator(self.acc)
        for hw in self.hyperwords:
            ev.member(hw)
        return perf_counter() - start

    def measure(self) -> float:
        gc.disable()  # a collection would scan the workload's heap, not time the host
        try:
            self.factor = min(self._once() for _ in range(3)) / self.NOMINAL_S
        finally:
            gc.enable()
        self.at = perf_counter()
        return self.factor

    def current(self) -> float:
        return self.factor if perf_counter() - self.at < self.FRESH_S else self.measure()

    def normalize(self, before: float, seconds: float) -> float:
        """seconds measured after ``before = current()``, at nominal speed."""
        after = self.measure() if seconds > self.FRESH_S else before
        return seconds * 2 / (before + after)


def set_up(name: str, L, seed: int, workdir: str, host: HostSpeed):
    gc.collect()
    factor = host.current()
    start = perf_counter()
    wl = W.SETUPS[name](L, random.Random(seed), workdir)
    return wl, host.normalize(factor, perf_counter() - start)


class Window:
    """The workload's round of operations, repeated until ``seconds`` have
    passed and at least one round is complete.

    An operation's latency is the median of its first ``MAX_REPEATS``
    repeats in the window, at nominal host speed (``HostSpeed``);
    ``latency_raw`` is the median as measured.  Between rounds, outside
    the clock, every output is compared with the first round's and
    ``between`` is called.
    """

    def __init__(self, wl, L, seconds: float, host: HostSpeed,
                 tracer: Tracer | None = None, between: Callable[[], object] | None = None):
        ops = wl.ops
        n = len(ops)
        samples = array("f", [0.0]) * (n * MAX_REPEATS)  # [round * n + op]
        raw = array("f", [0.0]) * (n * MAX_REPEATS)
        stored: list[int] = []  # operations run in each stored round
        self.first: list | None = None
        self.changed: list[str] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.elapsed = 0.0
        first_plain = None
        gc.collect()
        while self.elapsed < seconds:
            results = []
            round_start = perf_counter()
            for i, (kind, fn, args) in enumerate(ops):
                factor = host.current()
                t0 = perf_counter()
                try:
                    if tracer is None:
                        out = fn(L, *args)
                    else:
                        tracer.op += 1
                        out = tracer.span("op." + kind, fn, (L,) + args)
                except Exception as exc:  # an operation failed; count it, keep going
                    out = W.Failure(exc)
                    self.failed += 1
                    if len(self.errors) < 5:
                        self.errors.append(traceback.format_exc())
                t1 = perf_counter()
                if self.rounds < MAX_REPEATS:
                    raw[self.rounds * n + i] = t1 - t0
                    samples[self.rounds * n + i] = host.normalize(factor, t1 - t0)
                results.append(out)
                if self.first is not None and self.elapsed + t1 - round_start >= seconds:
                    break
            self.elapsed += perf_counter() - round_start
            self.attempted += len(results)
            if self.rounds < MAX_REPEATS:
                stored.append(len(results))
            self.rounds += 1
            if self.first is None:
                self.first = results
                first_plain = [W.plain(x) for x in results]
            else:
                self.changed += [f"op {i} ({ops[i][0]}) round {self.rounds}: output "
                                 "differs from the first round"
                                 for i, x in enumerate(results)
                                 if W.plain(x) != first_plain[i]]
            if between is not None and self.elapsed < seconds:
                between()
        self.latency = [statistics.median(samples[r * n + i] for r, m in enumerate(stored)
                                          if i < m) for i in range(n)]
        self.latency_raw = [statistics.median(raw[r * n + i] for r, m in enumerate(stored)
                                              if i < m) for i in range(n)]

    @property
    def throughput(self) -> float:
        """Operations per second: the round over the sum of its latencies."""
        return len(self.latency) / math.fsum(self.latency)

    @property
    def throughput_raw(self) -> float:
        return len(self.latency_raw) / math.fsum(self.latency_raw)

    def by_kind(self, ops: list) -> dict:
        out: dict = {}
        for (kind, _fn, _args), t in zip(ops, self.latency):
            out.setdefault(kind, []).append(t)
        return out


def percentile(ordered: list, p: float) -> float:
    pos = p / 100 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(ordered: list, ceiling: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it)."""
    n = len(ordered)
    p = max([q for q in TAIL_GRID if q <= ceiling and n * (100 - q) / 100 >= 10],
            default=TAIL_GRID[0])
    value = percentile(ordered, p)
    return p, value, n - bisect.bisect_right(ordered, value)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # kilobytes on Linux


def child_ms(argv: list[str]) -> float:
    start = perf_counter()
    subprocess.run(argv, env=W.child_env(W.SRC), check=True, cwd=W.ROOT)
    return (perf_counter() - start) * 1e3


def startup_metrics() -> dict:
    """Bare interpreter start-up, and ``import hyperfa`` on top of it."""
    bare = statistics.median(child_ms([sys.executable, "-c", "pass"])
                             for _ in range(STARTUP_REPS))
    imported = statistics.median(child_ms([sys.executable, "-c", "import hyperfa"])
                                 for _ in range(STARTUP_REPS))
    return {"cli.startup_ms": (bare, "ms"), "cli.import_ms": (imported - bare, "ms")}


# ---------------------------------------------------------------- runs


def run_untraced(name: str, pkg, seed: int, seconds: float, workdir: str) -> dict:
    L = Layers(pkg)
    host = HostSpeed()
    wl, first_setup = set_up(name, L, seed, workdir, host)
    times = [first_setup]

    def setup_again():  # spread over the run
        times.append(set_up(name, L, seed, workdir, host)[1])

    win = Window(wl, L, seconds, host, between=setup_again)
    while len(times) < SETUP_MAX_REPS and (len(times) < SETUP_REPS
                                           or math.fsum(times) < SETUP_MIN_S):
        setup_again()
    rss = peak_rss_mb(children=name == "cli")
    ordered = sorted(win.latency)
    p, tail_value, beyond = tail(ordered, TAIL_CEILING.get(name, TAIL_GRID[-1]))
    metrics = {
        "setup_s": (statistics.median(times), "s"),
        "throughput_ops": (win.throughput, "1/s"),
        "latency_p50_ms": (percentile(ordered, 50) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    wrong = wl.check(win.first) + win.changed
    return {"metrics": metrics, "windows": [win], "wrong": wrong, "workload": wl,
            "details": {"setup_s_reps": times, "rounds": win.rounds,
                        "ops_per_round": len(wl.ops), "attempted": win.attempted,
                        "window_s": win.elapsed,
                        "tail_percentile": p, "tail_samples_beyond": beyond,
                        "latency_ms_by_kind": {k: [len(v), math.fsum(v) * 1e3] for k, v in
                                            win.by_kind(wl.ops).items()},
                        "latency_samples": len(ordered),
                        "as_measured": {
                            "throughput_ops": win.throughput_raw,
                            "latency_p50_ms": percentile(sorted(win.latency_raw), 50) * 1e3},
                        "host_factor_last": host.factor}}


def run_traced(name: str, pkg, seed: int, seconds: float, workdir: str) -> dict:
    tracer = Tracer()
    plain_layers, traced_layers = Layers(pkg), Layers(pkg, tracer)
    host = HostSpeed()
    wl, setup_time = set_up(name, traced_layers, seed, workdir, host)
    untraced = Window(wl, plain_layers, seconds / 2, host)
    traced = Window(wl, traced_layers, seconds / 2, host, tracer)
    window_ops = range(1, tracer.op + 1)
    if wl.replay is not None:
        tracer.op += 1
        wl.replay(traced_layers)
    metrics = layer_metrics(tracer, window_ops, traced.attempted / len(wl.ops))
    metrics.update(startup_metrics())
    kinds = traced.by_kind(wl.ops)
    for sub in CLI_SUBCOMMANDS:
        samples = kinds.get("cli." + sub)
        metrics[f"cli.{sub}.wall_ms"] = (statistics.median(samples) * 1e3
                                         if samples else 0.0, "ms")
    metrics["trace.overhead_throughput_ops"] = (traced.throughput - untraced.throughput,
                                                "1/s")
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl.gz")
    tracer.write(spans_path)
    wrong = []
    for win in (untraced, traced):
        wrong += wl.check(win.first) + win.changed
    return {"metrics": metrics, "windows": [untraced, traced], "wrong": wrong,
            "workload": wl,
            "details": {"setup_s": setup_time, "spans": len(tracer.spans),
                        "spans_file": os.path.relpath(spans_path, W.ROOT),
                        "untraced_throughput_ops": untraced.throughput,
                        "traced_throughput_ops": traced.throughput,
                        "rounds": [untraced.rounds, traced.rounds]}}


def layer_metrics(tracer: Tracer, window_ops: range, passes: float) -> dict:
    """Per-layer calls, self time and counts for one pass of the workload:
    the set-up and the cli replay once, the traced window divided by the
    number of rounds it ran (``passes``)."""
    self_of = self_times(tracer.spans)
    weight = {}
    calls: dict = {}
    self_s: dict = {}
    max_s: dict = {}
    for sid, _parent, op, name, start, end in tracer.spans:
        w = weight[sid] = 1 / passes if op in window_ops else 1.0
        calls[name] = calls.get(name, 0) + w
        self_s[name] = self_s.get(name, 0.0) + w * self_of[sid]
        max_s[name] = max(max_s.get(name, 0.0), end - start)
    counts: dict = {}
    for sid, name, values in tracer.counts:
        for key, v in values.items():
            counts[(name, key)] = counts.get((name, key), 0) + weight[sid] * v

    def t(*names):
        return (sum(self_s.get(n, 0.0) for n in names), "s")

    def c(key, *names):
        return (sum(counts.get((n, key), 0) for n in names), "count")

    bound = counts.get(("hfa.member", "assignment_bound"), 0)
    m = {
        "hfa.member.calls": (calls.get("hfa.member", 0), "count"),
        "hfa.member.self_s": t("hfa.member"),
        "hfa.member.max_ms": (max_s.get("hfa.member", 0.0) * 1e3, "ms"),
        "hfa.member.assignment_bound": (bound, "count"),
        "hfa.member.us_per_assignment": (
            self_s.get("hfa.member", 0.0) * 1e6 / bound if bound else 0.0, "us"),
        "hfa.gen_hamiltonian.self_s": t("hfa.gen_hamiltonian"),
    }
    for op in ("complement", "union", "intersect"):
        m[f"hfa.{op}.self_s"] = t(f"hfa.{op}")
        m[f"hfa.{op}.states_out"] = c("states_out", f"hfa.{op}")
    m["hfa.nonempty.self_s"] = t("hfa.nonempty_exists", "hfa.nonempty_forall",
                                 "hfa.nonempty_exists_forall")
    for op in ("regular_member", "contains", "equivalent"):
        m[f"hfa.{op}.self_s"] = t(f"hfa.{op}")
    for op in ("minimize", "determinize", "complement", "intersect", "shortest_accepted"):
        m[f"fa.{op}.self_s"] = t(f"fa.{op}")
    m["fa.minimize.states_in"] = c("states_in", "fa.minimize")
    m["fa.minimize.states_out"] = c("states_out", "fa.minimize")
    for op in ("sequence_closure", "permutation_closure", "check_complete",
               "canonical_equal"):
        m[f"canon.{op}.self_s"] = t(f"canon.{op}")
    m["canon.closure.states_out"] = c("states_out", "canon.sequence_closure",
                                      "canon.permutation_closure")
    m["learn.learn.self_s"] = t("learn.learn")
    m.update(learner_counts(tracer.events, window_ops, passes))
    m["hre.parse.self_s"] = t("hre.parse")
    m["hre.compile_hre.self_s"] = t("hre.compile_hre")
    m["hre.compile_hre.states_out"] = c("states_out", "hre.compile_hre")
    m["hfa.parse_nfh.self_s"] = t("hfa.parse_nfh")
    m["hfa.format_nfh.self_s"] = t("hfa.format_nfh")
    return m


def learner_counts(events: list, window_ops: range, passes: float) -> dict:
    """Counts from the learner's trace records, per pass."""
    queries = lifts = states = 0.0
    iterations: dict = {}
    for op, e in events:
        w = 1 / passes if op in window_ops else 1.0
        queries += w * (e["event"] == "query")
        lifts += w * (e["event"] == "lift")
        if e["event"] == "done":
            states += w * e["detail"]["states"]
        iterations[op] = (w, max(iterations.get(op, (w, 0))[1], e["iteration"]))
    return {
        "learn.queries": (queries, "count"),
        "learn.iterations": (sum(w * n for w, n in iterations.values()), "count"),
        "learn.lifts": (lifts, "count"),
        "learn.queries_per_state": (queries / states if states else 0.0, "count"),
    }


# ---------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    pkg = load_package()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    try:
        run = run_traced if args.trace else run_untraced
        result = run(args.workload, pkg, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(w.attempted for w in result["windows"])
    failed = sum(w.failed for w in result["windows"])
    wrong = result["wrong"]
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(args.seed),
        "generator": generator(args.workload),
        "error_rate": failed / attempted, "wrong_verdicts": len(wrong),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        **result["details"],
    }
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for win in result["windows"]:
        for text in win.errors:
            print(text, file=sys.stderr)
    for text in wrong[:20]:
        print("wrong:", text, file=sys.stderr)

    print(json.dumps({"environment": record["environment"]}))
    for k, (v, u) in result["metrics"].items():
        print(f"{args.workload:14} {k:36} {v:14.6g} {u}")
    print(f"{args.workload:14} {'error_rate':36} {record['error_rate']:14.6g} ratio")
    print(f"{args.workload:14} {'wrong_verdicts':36} {len(wrong):14d} count")
    if "tail_percentile" in record:
        print(f"{args.workload:14} latency_tail_ms is p{record['tail_percentile']} with "
              f"{record['tail_samples_beyond']} of {record['latency_samples']} samples "
              "beyond it")
    print(json.dumps({
        "correct": not wrong and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
