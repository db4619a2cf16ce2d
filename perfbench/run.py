"""The hornsep benchmark: time to a verdict on one workload.

    python3 perfbench/run.py --workload modes --seed 1 --seconds 30 --trace 0

One client decides the workload's cases one after another (a closed
loop: the next problem starts only after the previous verdict), in
passes over the whole corpus, for about ``--seconds``; every pass
builds fresh ``Problem`` objects.  Every verdict is checked against
the workload's reference.  The last line of standard output is one JSON
object; the lines before it give each figure by name and unit.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` the first half of the time runs untraced and the
second half with the spans of ``spans.py`` installed, and it reports
the per-layer metrics; the spans go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
from corpus import ROOT, SRC  # noqa: E402
from speed import TASK_S, Speed  # noqa: E402

OUT = ROOT / ".perfbench"
CHILD_TIMEOUT = 150
# The host's speed swings by 10-30 % from one second to the next, so the
# set-up and command-line samples are spread over the whole run (see
# Probes) rather than taken in one burst.
PROBE_SHARE = 0.25
MIN_SAMPLES = 3
IMPORT_SECONDS = 1.0


def environment() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    cpus = ",".join(map(str, sorted(os.sched_getaffinity(0))))
    return (f"python={platform.python_version()} nproc={os.cpu_count()} "
            f"loadavg={load} cpus={cpus}")


def pin_to_one_cpu():
    """Keep this process and the interpreters it starts on one CPU.  The
    CPUs of a shared host run at different speeds at the same moment, so
    the speed task only stands for the decisions and the fresh
    interpreters when all of them run on the same one."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# ---------------------------------------------------------------------------
# deciding


def decide(case, problem):
    from hornsep import entailment

    if case.mode == "oracle":
        return entailment.oracle_witness_search(
            problem.t1, problem.t2, problem.sigA, problem.sigQ,
            corpus.ORACLE_MAX_IND, corpus.ORACLE_MAX_VARS,
        )
    return getattr(entailment, corpus.MODE_FUNCTIONS[case.mode])(problem)


def outcome(result) -> str:
    """What a pass must repeat exactly: the verdict and its counters."""
    from hornsep.entailment import Decision

    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    if isinstance(result, Decision):
        return json.dumps([result.entails, result.stats], sort_keys=True)
    return json.dumps(result.to_json_obj() if result else None, sort_keys=True)


@dataclass
class Pass:
    cpu: float  # CPU seconds: the sum of the decisions
    wall: float  # wall-clock seconds: the same sum, for the spans
    results: list  # (result, CPU seconds) by case index
    factor: float  # the host's speed factor over the pass (speed.py)
    layers: dict | None  # per-layer figures, when traced
    rss_mb: float  # peak resident memory of the process so far


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(w, problems, order, speed, tracer=None, probes=None):
    """Decide every case once, in the given order of case indices.
    Returns (CPU seconds, wall seconds, [(result, CPU seconds)] by case
    index).  Before each decision the garbage of the previous ones is
    collected, as a fresh ``check`` process would start without it, the
    speed task is topped up and any probe due is taken; none of these is
    timed, so the times are sums over the decisions."""
    from hornsep.syntax import HornsepError

    results = [None] * len(w.cases)
    wall = 0.0
    for i in order:
        if probes:
            probes.due()
        speed.top_up()
        gc.collect()
        if tracer:
            tracer.case_id = i
        t, c = time.perf_counter(), time.process_time()
        try:
            result = decide(w.cases[i], problems[i])
        except HornsepError as exc:  # counts as not decided
            result = exc
        results[i] = (result, time.process_time() - c)
        wall += time.perf_counter() - t
        speed.add(results[i][1])
    speed.top_up()
    if tracer:
        tracer.case_id = -1
    return sum(t for _r, t in results), wall, results


def run_passes(w, seconds, speed, problems=None, tracer=None, probes=None):
    """Passes until the next one would end more than half a pass after
    ``seconds``, judged by the mean pass time so far; at least one.  Each
    pass but a first one given ``problems`` parses its cases afresh,
    untimed.  Each pass decides the cases in its own order, drawn from
    the seed, so that no case always follows the same one."""
    passes = []
    start = time.perf_counter()
    while True:
        mark = tracer.mark() if tracer else None
        if passes or problems is None:
            problems = [corpus.make_problem(c.texts) for c in w.cases]
        order = list(range(len(w.cases)))
        random.Random(f"{w.name}:{w.seed}:{len(passes)}").shuffle(order)
        since = speed.mark()
        cpu, wall, results = run_pass(w, problems, order, speed, tracer,
                                      probes)
        layers = tracer.layer_metrics(mark, wall) if tracer else None
        passes.append(Pass(cpu, wall, results, speed.factor(since), layers,
                           peak_rss_mb()))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) / 2 > seconds:
            return passes


# ---------------------------------------------------------------------------
# correctness


def wrong_verdicts(w, passes) -> tuple:
    """Verdicts that contradict the workload's reference, and messages."""
    from hornsep import entailment
    from hornsep.entailment import PreconditionError

    errors = []
    first = passes[0].results
    for n, p in enumerate(passes[1:], start=2):
        for case, (a, _), (b, _) in zip(w.cases, first, p.results):
            if outcome(a) != outcome(b):
                errors.append(f"{case.key}: pass {n} differs from pass 1")
    refuted = set()
    if w.name == "random-cq":
        # untimed: a replayable oracle witness refutes "entails"
        for case in w.cases:
            prob = corpus.make_problem(case.texts)
            found = decide(corpus.Case(case.key, case.texts, "oracle"), prob)
            if found and entailment.verify_witness(prob.t1, prob.t2, found):
                refuted.add(case.key)
    wrong = 0
    for p in passes:
        for case, (result, _) in zip(w.cases, p.results):
            if isinstance(result, Exception):
                continue
            if case.mode == "oracle":
                prob = corpus.make_problem(case.texts)
                bad = result is not None and not entailment.verify_witness(
                    prob.t1, prob.t2, result)
            elif case.expect is not None:
                bad = result.entails != case.expect
            else:
                bad = result.entails and case.key in refuted
            if bad:
                wrong += 1
                errors.append(f"{case.key}: wrong verdict {outcome(result)}")
    for case in w.refused:
        try:
            decide(case, corpus.make_problem(case.texts))
            errors.append(f"{case.key}: precondition not refused")
        except PreconditionError:
            pass
    return wrong, errors


# ---------------------------------------------------------------------------
# measurements in fresh interpreters


def _child(argv, hash_seed="0"):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    return subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, cwd=ROOT)


def children_cpu() -> float:
    """CPU seconds of all children waited for so far, user and system."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def setup_sample(name, seed) -> float:
    r = _child([sys.executable, str(Path(corpus.__file__)), name, str(seed)])
    if r.returncode:
        raise RuntimeError(f"set-up probe failed: {r.stderr}")
    return float(r.stdout)


def import_seconds() -> float:
    code = ("import time; t = time.process_time(); import hornsep.cli; "
            "print(time.process_time() - t)")
    samples = []
    while len(samples) < MIN_SAMPLES or sum(samples) < IMPORT_SECONDS:
        samples.append(float(_child([sys.executable, "-c", code]).stdout))
    return statistics.median(samples)


def cli_argv(w) -> list:
    """Write the workload's cli case to files; the command line for it."""
    case = next(c for c in w.cases if c.key == w.cli_case)
    folder = OUT / f"cli-{w.name}"
    folder.mkdir(parents=True, exist_ok=True)
    files = []
    for fname, text in zip(("t1.tbox", "t2.tbox", "a.sig", "q.sig"), case.texts):
        (folder / fname).write_text(text + "\n")
        files.append(str(folder / fname))
    args = ["--t1", files[0], "--t2", files[1], "--sigma-a", files[2],
            "--sigma-q", files[3], "--json"]
    if case.mode == "oracle":
        return [sys.executable, "-m", "hornsep.cli", "oracle", *args,
                "--max-abox", str(corpus.ORACLE_MAX_IND),
                "--max-cq", str(corpus.ORACLE_MAX_VARS)]
    return [sys.executable, "-m", "hornsep.cli", "check", "--mode",
            case.mode, *args]


class Probes:
    """Set-up and command-line samples, each in a fresh interpreter, taken
    between two decisions whenever they fall behind ``PROBE_SHARE`` of
    the time since the run started.  Spread over the run like this, they
    see the same mix of host speeds as the passes do."""

    def __init__(self, w, setup: list):
        self.w = w
        self.argv = cli_argv(w)
        self.setup = setup
        self.cli = []
        self.outputs = []  # (exit code, stdout) of each command-line run
        self.start = time.perf_counter()
        self.spent = 0.0

    def due(self):
        """Take a sample if one is due."""
        now = time.perf_counter()
        if self.spent <= PROBE_SHARE * (now - self.start):
            self.take()
            self.spent += time.perf_counter() - now

    def take(self):
        self.setup.append(setup_sample(self.w.name, self.w.seed))
        # alternate two hash seeds: the output must not depend on them
        hash_seed = str(len(self.cli) % 2)
        t = children_cpu()
        r = _child(self.argv, hash_seed)
        self.cli.append(children_cpu() - t)
        self.outputs.append((r.returncode, r.stdout))

    def finish(self):
        while len(self.cli) < MIN_SAMPLES:
            self.take()


def cli_errors(w, passes, probes) -> list:
    """The command line must exit as the library decided, print what the
    library returns, and print the same bytes under both hash seeds."""
    i = next(k for k, c in enumerate(w.cases) if c.key == w.cli_case)
    case, result = w.cases[i], passes[0].results[i][0]
    if case.mode == "oracle":
        want_obj = {"mode": "cq",
                    "witness": result.to_json_obj() if result else None}
        want_code = 1 if result else 0
    else:
        want_obj = result.to_json_obj()
        want_code = 0 if result.entails else (
            2 if result.precheck.get("ri") is False else 1)
    errors = [f"cli: exit {code}, expected {want_code}"
              for code, _out in probes.outputs if code != want_code]
    outputs = {out for _code, out in probes.outputs}
    if len(outputs) != 1:
        errors.append("cli: output differs between hash seeds")
    elif _parse_json(outputs.pop()) != json.loads(json.dumps(want_obj)):
        errors.append("cli: output differs from the library's verdict")
    return errors


def _parse_json(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# figures


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density.  It pools
    neighbouring problems, each decided at another moment, so it moves
    less with the host's speed swings than a single order statistic."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1
    steps = max(20, 20000 // n)
    logs = [[a * math.log(t) + b * math.log1p(-t)
             for t in ((i + (k + 0.5) / steps) / n for k in range(steps))]
            for i in range(n)]
    top = max(map(max, logs))
    weights = [sum(math.exp(v - top) for v in row) for row in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(values) -> tuple:
    """The highest percentile with at least ten samples beyond it (the
    maximum under twenty samples), and its label."""
    n = len(values)
    if n < 20:
        return max(values), "max"
    p = int(100 * (1 - 10 / n))
    return quantile(values, p / 100), f"p{p}"


def end_to_end(w, passes, setup, cli, factor, attempted, failed) -> tuple:
    """Every time is CPU time divided by the host's speed factor: that of
    its pass for decisions, ``factor`` (the whole run's) for the samples
    taken in fresh interpreters."""
    cpus = [p.cpu / p.factor for p in passes]
    per_case = [statistics.median(p.results[i][1] / p.factor for p in passes)
                for i in range(len(w.cases))]
    tail_s, label = tail(per_case)
    metrics = {
        "setup_s": (statistics.median(setup) / factor, "s"),
        "corpus_s": (statistics.median(cpus), "s"),
        "verdict_p50_s": (quantile(per_case, 0.5), "s"),
        "verdict_tail_s": (tail_s, "s"),
        "decided_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (passes[0].rss_mb, "MB"),
        "cli_check_s": (statistics.median(cli) / factor, "s"),
    }
    notes = {
        "corpus_s": f"median of {len(cpus)} passes",
        "verdict_p50_s": f"over {len(per_case)} problems, each the median of its passes",
        "verdict_tail_s": f"{label} over {len(per_case)} problems, as verdict_p50_s",
        "setup_s": f"median of {len(setup)} set-ups",
        "peak_rss_mb": "when the first pass ends",
        "cli_check_s": f"case {w.cli_case}, median of {len(cli)} runs",
    }
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hornsep" / "__init__.py").is_file():
        print(f"error: no hornsep sources under {SRC}", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    t = time.process_time()
    w, problems = corpus.set_up(args.workload, args.seed)
    setup = [time.process_time() - t]
    print(f"env: {environment()}")
    print(f"corpus: workload={w.name} seed={w.seed} "
          f"corpus_seed={corpus.CORPUS_SEED} cases={len(w.cases)} "
          f"fingerprint={w.fingerprint()}")

    speed = Speed()
    if args.trace:
        from spans import Tracer

        plain = run_passes(w, args.seconds / 2, speed, problems)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(w, args.seconds / 2, speed, tracer=tracer)
        finally:
            tracer.uninstall()
        passes = plain + traced
    else:
        probes = Probes(w, setup)
        passes = run_passes(w, args.seconds, speed, problems, probes=probes)
        probes.finish()

    wrong, errors = wrong_verdicts(w, passes)
    attempted = sum(len(p.results) for p in passes)
    failed = sum(isinstance(r, Exception) for p in passes for r, _ in p.results)
    if args.trace:
        from spans import combine

        metrics, unsteady = combine([p.layers for p in traced])
        errors += [f"{k}: count differs between passes" for k in unsteady]
        cpu_plain = statistics.median(p.cpu / p.factor for p in plain)
        wall_traced = statistics.median(p.wall for p in traced)
        metrics["cli.import_s"] = import_seconds() / speed.factor()
        cpu_traced = statistics.median(p.cpu / p.factor for p in traced)
        metrics["trace.overhead_ratio"] = cpu_traced / cpu_plain
        units = {k: _layer_unit(k) for k in metrics}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{w.name}", {
            "workload": w.name, "seed": w.seed, "env": environment(),
            "cases": [c.key for c in w.cases], "metrics": metrics})
        for k in sorted(metrics):
            share = ""
            if k.endswith(".self_s") and wall_traced:
                share = f"  ({100 * metrics[k] / wall_traced:.1f} % of the traced wall time)"
            print(f"{k} = {metrics[k]:.6g} {units[k]}{share}")
    else:
        errors += cli_errors(w, passes, probes)
        figures, notes = end_to_end(w, passes, setup, probes.cli,
                                    speed.factor(), attempted, failed)
        metrics = {k: v for k, (v, _u) in figures.items()}
        units = {k: u for k, (_v, u) in figures.items()}
        for k, (v, u) in figures.items():
            note = f"  ({notes[k]})" if k in notes else ""
            print(f"{k} = {v:.6g} {u}{note}")
    print(f"wrong_verdicts = {wrong} count")
    print(f"attempted = {attempted}, not decided = {failed}, "
          f"passes = {len(passes)}" + (f" ({len(traced)} traced)" if args.trace else ""))
    print(f"speed factor = {speed.factor():.4g} over {speed.tasks} tasks "
          f"(1 is one task in {TASK_S} CPU seconds)")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": wrong == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_answer", "_share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
