"""Benchmark of the ``modality`` package: end-to-end times and traced per-layer costs.

Usage, from the root of a source checkout (the package is imported from
``src/``, nothing needs installing)::

    python3 bench/run.py --workload table2 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1          # every workload, untraced then traced

One run is one workload in one fresh, single-threaded process with one
caller in a closed loop. Set-up (importing the package in a fresh
interpreter, making the inputs, warm-up) is repeated ``SETUP_REPEATS``
times and its median reported. The timed phase then cycles through the
workload's operations until ``--seconds`` have passed and every
operation has run at least once. With ``--trace 1`` each
operation runs once untraced and once traced, in alternating order, over
as many whole passes as fit in ``--seconds`` (at least one); the per-layer
numbers are per pass, and the overhead ratio compares the two halves. Spans are written to ``.bench_out/``.

Every answer is checked (see ``workloads.py``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics listed in ``BENCHMARK.json``. A failed check exits with code 1.

Seed 7919 is held out: use it only to confirm a claim made on other seeds.
"""

from __future__ import annotations

import os

# one thread per process, fixed before NumPy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("table2", "bootstrap", "large_n")


def _import_package():
    """Import ``modality`` from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import modality.cli  # noqa: F401  (imports every module the workloads use)
        import workloads
    except ImportError as exc:
        sys.exit(f"error: cannot import the package from {src}: {exc}")
    import modality
    if Path(modality.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"error: imported modality from {modality.__file__}, not from {src}")
    return workloads


def _import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the package from ``src/``."""
    code = ("import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import modality.cli; print(time.perf_counter() - start)")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, check=True)
    return float(done.stdout)


def _machine() -> dict:
    """Core count, CPU model and library versions, printed with every result."""
    import numpy
    import scipy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _call(op) -> tuple[float, object]:
    start = time.perf_counter()
    try:
        answer = op.run()
    except Exception as exc:  # a raising operation counts as failed; the run goes on
        answer = exc
    return time.perf_counter() - start, answer


def _problems(workload, answers: dict) -> dict:
    """{kind: problem} over every recorded answer; a repeat must equal the first."""
    problems, first = {}, {}
    for op in workload.ops:
        runs = answers[op.kind]
        if isinstance(runs[0], Exception):
            problems[op.kind] = f"raised {type(runs[0]).__name__}: {runs[0]}"
            continue
        first[op.kind] = runs[0]
        problem = op.check(runs[0])
        if problem is None and any(a != runs[0] for a in runs[1:]):
            problem = "a repeat gave a different answer"
        if problem is not None:
            problems[op.kind] = problem
    for kind, problem in workload.check_pass(first).items():
        problems.setdefault(kind, problem)
    return problems


def _untraced(workload, seconds: float):
    times = {op.kind: [] for op in workload.ops}
    answers = {op.kind: [] for op in workload.ops}
    start = time.perf_counter()
    i = 0
    while i < len(workload.ops) or time.perf_counter() - start < seconds:
        op = workload.ops[i % len(workload.ops)]
        elapsed, answer = _call(op)
        times[op.kind].append(elapsed)
        answers[op.kind].append(answer)
        i += 1
    return time.perf_counter() - start, times, answers


def _traced(workload, seconds: float, tracer):
    answers = {op.kind: [] for op in workload.ops}
    spent = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    passes = 0
    # whole passes only, as many as fit in ``seconds`` at the pace so far
    while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        for i, op in enumerate(workload.ops):
            for traced in ((False, True) if (i + passes) % 2 == 0 else (True, False)):
                if traced:
                    with tracer, tracer.span(f"op.{op.kind}"):
                        elapsed, answer = _call(op)
                else:
                    elapsed, answer = _call(op)
                spent[traced] += elapsed
                answers[op.kind].append(answer)
        passes += 1
    return passes, spent[True] / spent[False] - 1.0, answers


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _evals(v) -> float:
    return v.calls("kde.kde_direct") + v.calls("kde.kde_fft")


def _calls(func: str):
    return (f"{func}.calls", "count", [func], lambda v: v.calls(func))


def _self_ms(func: str):
    return (f"{func}.self_ms", "ms", [func], lambda v: v.self_ms(func))


def _counted(func: str, counter: str):
    return (f"{func}.{counter}", "count", [func], lambda v: v.count(f"{func}.{counter}"))


# Per-layer metrics: (name, unit, functions it needs, value from the per-pass view).
LAYER_METRICS = [
    _calls("kde.kde_direct"), _self_ms("kde.kde_direct"), _counted("kde.kde_direct", "pair_evals"),
    _calls("kde.kde_fft"), _self_ms("kde.kde_fft"), _counted("kde.kde_fft", "grid_points"),
    _self_ms("kde.default_grid"),
    _calls("kde.as_sample"), _self_ms("kde.as_sample"),
    ("kde.as_sample.per_eval", "ratio", ["kde.as_sample"],
     lambda v: _ratio(v.calls("kde.as_sample"), _evals(v))),
    _calls("solver.critical_bandwidth"), _self_ms("solver.critical_bandwidth"),
    ("solver.evals_per_solve", "ratio", ["solver.critical_bandwidth"],
     lambda v: _ratio(v.count("solver.critical_bandwidth.evals"), v.calls("solver.critical_bandwidth"))),
    ("solver.unverified_ratio", "ratio", ["solver.critical_bandwidth"],
     lambda v: _ratio(v.count("solver.critical_bandwidth.unverified"), v.calls("solver.critical_bandwidth"))),
    _self_ms("modes.count_modes"), _calls("modes.find_modes"), _calls("modes.find_trough"),
    _self_ms("rng.substream"), _self_ms("rng.resample_with_replacement"), _self_ms("rng.standard_normals"),
    _calls("stattests.dip_statistic"), _self_ms("stattests.dip_statistic"),
    _self_ms("stattests.silverman_test"),
    _self_ms("io.read_data"),
    ("io.read_data.rows_per_s", "1/s", ["io.read_data"],
     lambda v: _ratio(v.count("io.read_data.rows"), v.total_s("io.read_data"))),
    _self_ms("decompose.detect_components"), _self_ms("decompose.bimodality_strength"),
    ("cli.solves_per_call", "ratio", ["cli.main", "solver.critical_bandwidth"],
     lambda v: _ratio(v.calls("solver.critical_bandwidth"), v.calls("cli.main"))),
    ("cli.kde_evals_per_call", "ratio", ["cli.main"], lambda v: _ratio(_evals(v), v.calls("cli.main"))),
]


class _PerPass:
    """Tracer totals divided by the number of traced passes."""

    def __init__(self, tracer, passes: int):
        self.totals, self.counts, self.passes = tracer.totals(), tracer.counts, passes

    def calls(self, name):
        return self.totals.get(name, {}).get("calls", 0) / self.passes

    def self_ms(self, name):
        return 1000.0 * self.totals.get(name, {}).get("self_s", 0.0) / self.passes

    def total_s(self, name):
        return self.totals.get(name, {}).get("total_s", 0.0) / self.passes

    def count(self, key):
        return self.counts.get(key, 0) / self.passes


def layer_metrics(tracer, passes: int, overhead: float) -> tuple[dict, list]:
    """({name: (value, unit)}, absent names) for the per-layer metrics."""
    view = _PerPass(tracer, passes)
    metrics, absent = {}, []
    for name, unit, needs, value in LAYER_METRICS:
        if all(n in tracer.names for n in needs):
            metrics[name] = (float(value(view)), unit)
        else:
            metrics[name] = (0.0, unit)
            absent.append(name)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics, absent


def end_to_end_metrics(setup_s: float, medians: dict) -> dict:
    """{name: (value, unit)} from set-up time and the median seconds of each operation."""
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (sum(medians.values()), "s"),
        "op_geomean_ms": (1000.0 * math.exp(statistics.fmean(math.log(m) for m in medians.values())), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workloads = _import_package()
    workdir = OUT_DIR / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload = workloads.WORKLOADS[name](seed, workdir)
            for op in workloads.warm_up(name, seed, workdir).ops:
                op.run()
            build_s = time.perf_counter() - start
            setups.append(_import_seconds() + build_s)
        setup_s = statistics.median(setups)

        if trace:
            from tracer import Tracer
            tracer = Tracer()
            passes, overhead, answers = _traced(workload, seconds, tracer)
            metrics, absent = layer_metrics(tracer, passes, overhead)
            tracer.write(OUT_DIR / f"trace-{name}-{seed}.jsonl")
        else:
            wall_s, times, answers = _untraced(workload, seconds)
            medians = {kind: statistics.median(t) for kind, t in times.items()}
            metrics = end_to_end_metrics(setup_s, medians)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = _problems(workload, answers)
    attempted = sum(len(a) for a in answers.values())
    failed = sum(len(answers[kind]) for kind in problems)
    for kind, problem in problems.items():
        print(f"FAILED {name} {kind}: {problem}")
    print(f"workload {name}  seed {seed}  trace {int(trace)}  machine {json.dumps(_machine())}")
    if trace:
        _print_metrics(f"per-layer metrics, per pass of {len(workload.ops)} operations ({passes} passes)",
                       metrics)
        if absent:
            print(f"  absent: {', '.join(absent)}")
    else:
        report = {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s"),
                  "failed_ratio": (failed / attempted, "ratio"), "peak_rss_mb": metrics["peak_rss_mb"]}
        report.update(workload.summary(medians))
        _print_metrics(f"end-to-end metrics ({attempted} operations, {len(workload.ops)} per pass)", report)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    worst = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all of them, each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
