"""Fast self-test of the benchmark: ``python3 -m pytest -q bench``.

Runs tiny instances of the workloads, so it takes seconds. It checks that
the tracer sees calls made inside the package, that each gate rejects a
wrong reference, and that the metric names match ``BENCHMARK.json``.
"""

import json

import pytest

import run

workloads = run._import_package()

import modality  # noqa: E402
from modality import kde, solver  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL_CASE = [c for c in workloads.suite.CASES if c.name == "small_sample"]


def _answers(workload):
    _, times, answers = run._untraced(workload, seconds=0.0)
    assert all(len(t) == 1 for t in times.values())
    return answers


def test_tracer_sees_calls_inside_the_package():
    x = workloads.rng.sample_mixture(SMALL_CASE[0].spec, 0)
    original = kde.kde_direct
    with Tracer() as tracer:
        result = modality.critical_bandwidth(x, 2)  # the package namespace is rebound too
    assert kde.kde_direct is original and modality.critical_bandwidth is solver.critical_bandwidth
    totals = tracer.totals()
    assert totals["kde.kde_direct"]["calls"] > 0
    assert totals["solver.critical_bandwidth"]["calls"] == 1
    assert tracer.counts["solver.critical_bandwidth.evals"] == result.iterations
    # every direct sum nests under the solve, whose self time excludes it
    spans = tracer.spans
    root = [s[0] for s in spans].index("solver.critical_bandwidth")

    def ancestors(i):
        while i >= 0:
            i = spans[i][3]
            yield i

    assert all(root in ancestors(i) for i, s in enumerate(spans) if s[0] == "kde.kde_direct")
    solve = totals["solver.critical_bandwidth"]
    assert 0.0 <= solve["self_s"] < solve["total_s"]


def test_absent_function_is_reported_not_raised():
    tracer = Tracer().install()
    tracer.uninstall()
    tracer.names.discard("kde.kde_fft")
    metrics, absent = run.layer_metrics(tracer, passes=1, overhead=0.0)
    assert "kde.kde_fft.calls" in absent and metrics["kde.kde_fft.calls"][0] == 0.0
    assert "kde.kde_direct.calls" not in absent


def test_table2_gate_rejects_a_perturbed_reference():
    workload = workloads.table2(0, cases=SMALL_CASE)
    answers = _answers(workload)
    assert run._problems(workload, answers) == {}
    case = SMALL_CASE[0]
    perturbed = workloads.table2(0, cases=SMALL_CASE,
                                 baseline_means={case.name: case.baseline_mean * 1.05})
    problems = run._problems(perturbed, answers)
    assert len(problems) == len(workload.ops)
    assert all("mean" in p for p in problems.values())


def test_large_n_gate_rejects_a_perturbed_reference(tmp_path):
    files = (("small.md", 400),)
    workload = workloads.large_n(0, tmp_path, files=files, reference={400: 1.857})
    answers = _answers(workload)
    assert run._problems(workload, answers) == {}
    (h_crit,) = [a[0][3] for a in answers.values()]
    wrong = workloads.large_n(0, tmp_path, files=files, reference={400: h_crit * 1.05})
    assert "outside" in run._problems(wrong, answers)["analyze/small.md"]


def test_bootstrap_gate_rejects_wrong_conclusions():
    workload = workloads.bootstrap(0, n=100, resamples=199, ci_resamples=99)
    answers = _answers(workload)
    assert run._problems(workload, answers) == {}
    wrong_p = {"bimodal": 0.5, "unimodal": 0.001}
    flipped = {kind: [(a[0][0], wrong_p[kind.split("/")[1]])] if "_test/" in kind else a
               for kind, a in answers.items()}
    problems = run._problems(workload, flipped)
    assert len(problems) == 4 and "critical_bandwidth_ci/bimodal" not in problems


def test_repeat_with_a_different_answer_fails():
    workload = workloads.table2(0, cases=SMALL_CASE)
    answers = _answers(workload)
    kind = workload.ops[0].kind
    h, success, count = answers[kind][0]
    answers[kind].append((h * 1.001, success, count))
    assert "repeat" in run._problems(workload, answers)[kind]


@pytest.mark.parametrize("key", ["end_to_end", "per_layer"])
def test_metric_names_match_benchmark_json(key):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        listed = {(m["name"], m["unit"]) for m in json.load(f)[key]}
    if key == "per_layer":
        metrics, _ = run.layer_metrics(Tracer(), passes=1, overhead=0.0)
    else:
        metrics = run.end_to_end_metrics(setup_s=1.0, medians={"a": 0.5, "b": 2.0})
    assert {(name, unit) for name, (_, unit) in metrics.items()} == listed
