import dataclasses
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modality
from modality import (
    analyze,
    bimodality_strength,
    critical_bandwidth,
    detect_components,
    find_modes,
    read_data,
    sample_mixture,
    silverman_bandwidth,
)
from modality.benchmark import (
    CASES,
    rows_to_csv,
    rows_to_text,
    run_scalability,
    run_table2,
    scalability_to_text,
)
from modality.cli import main
from modality.modes import _modes_payload
from tests.conftest import WELL_SEPARATED


@pytest.fixture(scope="module")
def wellsep_csv(tmp_path_factory):
    x = sample_mixture(WELL_SEPARATED, 0)
    path = tmp_path_factory.mktemp("cli") / "wellsep.csv"
    path.write_text("value\n" + "\n".join(repr(float(v)) for v in x) + "\n")
    return path


@pytest.fixture(scope="module")
def normal_csv(tmp_path_factory):
    rng = np.random.default_rng(11)
    x = np.sort(rng.normal(0.0, 1.0, 400))
    path = tmp_path_factory.mktemp("cli") / "normal.csv"
    path.write_text("value\n" + "\n".join(repr(float(v)) for v in x) + "\n")
    return path


def test_analyze_text_report(wellsep_csv, capsys):
    assert main(["analyze", str(wellsep_csv)]) == 0
    out = capsys.readouterr().out
    assert "h_crit: 1.8" in out
    assert "count: 2" in out
    assert "label: strong" in out


def test_analyze_json_schema(wellsep_csv, capsys):
    assert main(["analyze", str(wellsep_csv), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "input", "h_silverman", "h_crit", "k", "success", "iterations",
        "ci", "modes", "decomposition", "strength",
    }
    assert report["k"] == 2
    assert report["success"] is True
    assert report["h_crit"] == pytest.approx(1.86, abs=0.05)
    assert report["modes"]["count"] == 2
    assert report["strength"]["label"] == "strong"
    assert report["decomposition"]["component1"]["mean"] == pytest.approx(-2.0, abs=0.1)


def test_analyze_evaluates_each_bandwidth_once(wellsep_csv, capsys, kde_bandwidths):
    iterations = critical_bandwidth(read_data(wellsep_csv), k=2).iterations
    seen = kde_bandwidths
    for flags in ([], ["--ci", "--resamples", "99"]):
        seen.clear()
        assert main(["analyze", str(wellsep_csv), "--format", "json", *flags]) == 0
        report = json.loads(capsys.readouterr().out)
        # one curve at h0 for the modes and the decomposition, which is also
        # the first mode count of the one k = 2 solve, reused for the strength
        # and as the interval's point estimate; the replicates come after it
        assert report["iterations"] == iterations
        point = seen[:iterations]
        assert len(set(point)) == len(point) == iterations
        assert seen[0] == report["h_silverman"]
        assert seen.count(report["h_silverman"]) == 1
        assert (len(seen) > iterations) == bool(flags)


def test_analyze_k3_shares_the_curve_at_h0(wellsep_csv, capsys, kde_bandwidths):
    seen = kde_bandwidths
    assert main(["analyze", str(wellsep_csv), "--format", "json", "--k", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    # the k = 3 solve and the k = 2 solve for the strength both start at h0
    # and take its mode count from the report's curve
    assert seen.count(report["h_silverman"]) == 1
    assert len(set(seen)) == len(seen) > report["iterations"]


@pytest.mark.parametrize("flags", [
    pytest.param(["--k", "2"], id="k2"),
    pytest.param(["--k", "3"], id="k3"),
    pytest.param(["--ci", "--resamples", "99"], id="ci"),
])
def test_analyze_report_matches_library(wellsep_csv, capsys, flags):
    assert main(["analyze", str(wellsep_csv), "--format", "json", *flags]) == 0
    report = json.loads(capsys.readouterr().out)
    x = read_data(wellsep_csv)
    strength = bimodality_strength(x)
    expected = {
        "modes": _modes_payload(find_modes(x, silverman_bandwidth(x))),
        "decomposition": dataclasses.asdict(detect_components(x)),
        "strength": {"ratio": strength.ratio, "label": strength.label},
    }
    assert {key: report[key] for key in expected} == json.loads(json.dumps(expected))


def test_analyze_unverified_search_fails_before_the_interval(capsys, kde_bandwidths):
    # k = 1 has no attainable target, so the search never verifies; the
    # interval draws no replicate, and resamples below its least are not read
    path = str(Path(__file__).parent / "data" / "well_separated_n400.csv")
    seen = []
    for flags in ([], ["--ci", "--resamples", "99"], ["--ci", "--resamples", "50"]):
        kde_bandwidths.clear()
        assert main(["analyze", path, "--k", "1", *flags]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "method failure: critical bandwidth search failed (k=1, iterations=6)\n"
        seen.append(list(kde_bandwidths))
    assert seen[0] == seen[1] == seen[2]
    assert len(set(seen[0])) == len(seen[0]) == 6


def test_analyze_ci_flag(wellsep_csv, capsys):
    assert main(["analyze", str(wellsep_csv), "--ci", "--resamples", "99",
                 "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    ci = report["ci"]
    assert ci["method"] == "percentile"
    assert ci["low"] <= report["h_crit"] <= ci["high"]


def test_analyze_ci_survives_constant_replicates(tmp_path, capsys):
    path = tmp_path / "six.csv"
    path.write_text("value\n0\n0\n0\n1\n1\n1\n")
    assert main(["analyze", str(path), "--ci", "--resamples", "99", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0 < report["ci"]["failures"] < 50


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.csv")]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("make", [
    pytest.param(lambda path: path.mkdir(), id="directory"),
    pytest.param(lambda path: path.write_bytes(b"value\n1.5\n\xff\xfe\n2.5\n"), id="not_utf8"),
    pytest.param(lambda path: path.write_text("value\n" + "1" * 131_073 + "\n"), id="huge_field"),
])
def test_analyze_unreadable_file_exits_2(make, tmp_path, capsys):
    path = tmp_path / "x.csv"
    make(path)
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(path) in err


@pytest.mark.parametrize("text", [
    pytest.param("[" + "7" * 5000 + ", 1.5]", id="integer_past_digit_limit"),
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested_too_deep"),
])
def test_analyze_json_the_decoder_rejects_exits_2(text, tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("data error: x.json: invalid JSON:")


def test_analyze_single_value_exits_2(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("v\n3.0\n")
    assert main(["analyze", str(path)]) == 2
    assert "fewer than 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["modes"], ["decompose"], ["test", "--method", "excess"], ["analyze"],
], ids=["modes", "decompose", "test_excess", "analyze"])
def test_constant_sample_exits_2_with_zero_scale(argv, tmp_path, capsys):
    path = tmp_path / "constant.csv"
    path.write_text("value\n" + "0.1\n" * 7)
    assert main([*argv, str(path)]) == 2
    assert capsys.readouterr().err.startswith("data error: sample: zero scale")


def test_subnormal_spread_exits_2(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    path.write_text("value\n" + "0.0\n" * 4 + "5e-324\n")
    assert main(["modes", str(path)]) == 2
    assert capsys.readouterr().err.startswith("data error: sample: scale 0.0 is too small")


@pytest.mark.parametrize("h", ["0", "-1", "nan", "inf"])
def test_modes_bad_bandwidth_exits_2(h, capsys):
    path = Path(__file__).resolve().parent / "data" / "well_separated_n400.csv"
    assert main(["modes", str(path), "--bandwidth", h]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"data error: bandwidth: must be a positive finite real, got {float(h)!r}\n"


@pytest.mark.parametrize("argv", [
    ["analyze"], ["analyze", "--ci", "--resamples", "99"], ["test", "--method", "silverman"], ["decompose"],
], ids=["analyze", "analyze_ci", "test_silverman", "decompose"])
def test_huge_magnitude_exits_2(argv, tmp_path, capsys):
    # 2^1000 times a bimodal sample: its variance overflows
    x = sample_mixture(WELL_SEPARATED, 0) * 2.0**1000
    path = tmp_path / "huge.csv"
    path.write_text("value\n" + "\n".join(repr(float(v)) for v in x) + "\n")
    assert main([*argv, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "data error: sample: magnitude 3.08e+301 is too large for a variance\n"


def test_usage_error_exits_1(capsys):
    assert main(["bogus"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_test_silverman_conclusion(wellsep_csv, capsys):
    assert main(["test", str(wellsep_csv), "--method", "silverman",
                 "--resamples", "99", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "silverman"
    assert report["p_value"] < 0.05
    assert report["conclusion"].startswith("reject")


def test_test_dip_on_normal_fails_to_reject(normal_csv, capsys):
    assert main(["test", str(normal_csv), "--method", "dip",
                 "--resamples", "199", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["p_value"] > 0.05
    assert report["conclusion"].startswith("fail to reject")


@pytest.mark.parametrize("method, resamples, least", [("silverman", 50, 99), ("dip", 100, 199)])
def test_test_resamples_below_the_least_is_a_data_error(normal_csv, capsys, method, resamples, least):
    # the CLI passes the user's count through, as the library call would take it
    assert main(["test", str(normal_csv), "--method", method, "--resamples", str(resamples)]) == 2
    assert capsys.readouterr().err.startswith(f"data error: resamples: must be >= {least}, got {resamples}")


@pytest.mark.parametrize("method, rows, least", [("silverman", 5, 10), ("dip", 3, 4), ("excess", 4, 5)])
def test_test_below_the_least_sample_size_is_a_data_error(tmp_path, capsys, method, rows, least):
    path = tmp_path / "short.csv"
    path.write_text("value\n" + "".join(f"{i}.5\n" for i in range(rows)))
    assert main(["test", str(path), "--method", method]) == 2
    assert capsys.readouterr().err == (
        f"data error: sample: need at least {least} observations, got {rows}\n"
    )


def test_test_excess_reports_delta(wellsep_csv, capsys):
    assert main(["test", str(wellsep_csv), "--method", "excess",
                 "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "excess_mass"
    assert report["statistic"] > 0.3
    assert report["p_value"] is None


@pytest.mark.parametrize("sample,method", [
    pytest.param("well_separated_n400", "silverman", id="silverman"),
    pytest.param("well_separated_n400", "dip", id="dip"),
    # unimodal: the KS screen passes null rows on to the hull walk
    pytest.param("normal_n400", "dip", id="normal_dip"),
    # unimodal: fails to reject, so every replicate's mode count is compared
    pytest.param("normal_n400", "silverman", id="normal_silverman"),
    # no resampling: the seed is not read
    pytest.param("well_separated_n400", "excess", id="excess"),
])
def test_test_output_matches_golden_file(sample, method, capsys, monkeypatch):
    # the golden files are this command's stdout, run from the repository root
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    data = Path("tests") / "data"
    argv = ["test", str(data / f"{sample}.csv"), "--method", method, "--format", "json", "--seed", "0"]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (data / f"{sample}_{method}.json").read_bytes()


@pytest.mark.parametrize("command", ["decompose", "modes"])
def test_command_output_matches_golden_file(command, capsys, monkeypatch):
    # the golden files are this command's stdout, run from the repository root
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    data = Path("tests") / "data"
    assert main([command, str(data / "well_separated_n400.csv"), "--format", "json"]) == 0
    assert capsys.readouterr().out.encode() == (data / f"well_separated_n400_{command}.json").read_bytes()


def test_analyze_ci_output_matches_golden_file(capsys, monkeypatch):
    # the golden file is this command's stdout, run from the repository root
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    data = Path("tests") / "data"
    argv = ["analyze", str(data / "well_separated_n400.csv"), "--format", "json", "--ci", "--resamples", "99"]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (data / "well_separated_n400_analyze_ci.json").read_bytes()


def test_analyze_k3_output_matches_golden_file(capsys, monkeypatch):
    # the golden file is this command's stdout, run from the repository root;
    # k = 3 takes a second solve, at k = 2, for the strength
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    data = Path("tests") / "data"
    argv = ["analyze", str(data / "well_separated_n400.csv"), "--format", "json", "--k", "3"]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (data / "well_separated_n400_analyze_k3.json").read_bytes()


@pytest.mark.parametrize("kwargs,golden", [
    pytest.param({}, "analyze", id="k2"),
    pytest.param({"resamples": 99}, "analyze_ci", id="ci"),
    pytest.param({"k": 3}, "analyze_k3", id="k3"),
])
def test_library_analyze_equals_golden_report(kwargs, golden):
    # the golden files are the CLI's reports; the library's is the same without ``input``
    data = Path(__file__).resolve().parent / "data"
    expected = json.loads((data / f"well_separated_n400_{golden}.json").read_text())
    del expected["input"]
    report = dataclasses.asdict(analyze(read_data(data / "well_separated_n400.csv"), **kwargs))
    assert json.loads(json.dumps(report)) == expected


@pytest.mark.parametrize("resamples", [None, 99], ids=["plain", "ci"])
def test_library_analyze_equals_cli_report_on_a_unimodal_sample(resamples, capsys):
    path = Path(__file__).resolve().parent / "data" / "normal_n400.csv"
    flags = [] if resamples is None else ["--ci", "--resamples", str(resamples)]
    assert main(["analyze", str(path), "--format", "json", "--seed", "5", *flags]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["input"]
    assert report["decomposition"] is None
    analysis = analyze(read_data(path), resamples=resamples, seed=5)
    assert json.loads(json.dumps(dataclasses.asdict(analysis))) == report


def test_analyze_output_matches_golden_file_in_every_format(tmp_path, capsys, monkeypatch):
    # the golden file is the CSV's stdout, run from the repository root
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    source = Path("tests") / "data" / "well_separated_n400.csv"
    golden = source.with_name("well_separated_n400_analyze.json").read_bytes()
    assert main(["analyze", str(source), "--format", "json"]) == 0
    assert capsys.readouterr().out.encode() == golden

    expected = json.loads(golden)
    del expected["input"]["path"]
    cells = source.read_text().split()[1:]
    files = {
        "sample.tsv": "value\tgroup\n" + "".join(f"{c}\tg{i % 3}\n" for i, c in enumerate(cells)),
        "sample.json": "[" + ", ".join(cells) + "]\n",
        "sample.md": "| value |\n|---:|\n" + "".join(f"| {c} |\n" for c in cells),
    }
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text)
        assert main(["analyze", str(path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["input"].pop("path") == str(path)
        assert report == expected, name


def test_modes_subcommand(wellsep_csv, capsys):
    assert main(["modes", str(wellsep_csv), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["modes"]["count"] == 2


def test_modes_explicit_bandwidth(wellsep_csv, capsys):
    assert main(["modes", str(wellsep_csv), "--bandwidth", "5.0",
                 "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["modes"]["count"] == 1


def test_modes_bandwidth_too_narrow_for_a_finite_density_exits_2(capsys):
    # 1e-320 is a subnormal number of grid steps: the kernel's peak weight overflows
    data = Path(__file__).resolve().parent / "data"
    argv = ["modes", str(data / "well_separated_n400.csv"), "--bandwidth", "1e-320", "--format", "json"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error: bandwidth: 1e-320 is ")
    assert "too narrow for a finite density" in captured.err


def test_modes_bandwidth_far_below_a_grid_step_keeps_its_count(capsys):
    # far below a grid step every occupied grid bin is a mode, whatever the bandwidth;
    # at 1e-300 and 1e-307 an observation weighs about 3e297 and 3e304 per grid step,
    # and no float warning is raised on the way to the count
    data = Path(__file__).resolve().parent / "data"
    counts = []
    for h in ("1e-12", "1e-300", "1e-307"):
        assert main(["modes", str(data / "well_separated_n400.csv"), "--bandwidth", h, "--format", "json"]) == 0
        counts.append(json.loads(capsys.readouterr().out)["modes"]["count"])
    assert counts == [106, 106, 106]


def test_decompose_subcommand(wellsep_csv, capsys):
    assert main(["decompose", str(wellsep_csv), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    weights = (
        report["decomposition"]["component1"]["weight"],
        report["decomposition"]["component2"]["weight"],
    )
    assert sum(weights) == pytest.approx(1.0)


def test_decompose_unimodal_exits_3(normal_csv, capsys):
    assert main(["decompose", str(normal_csv)]) == 3
    assert "method failure" in capsys.readouterr().err


def test_env_seed_override(wellsep_csv, capsys, monkeypatch):
    monkeypatch.setenv("MODALITY_SEED", "17")
    assert main(["test", str(wellsep_csv), "--method", "silverman",
                 "--resamples", "99", "--format", "json"]) == 0
    with_env = json.loads(capsys.readouterr().out)
    monkeypatch.delenv("MODALITY_SEED")
    assert main(["test", str(wellsep_csv), "--method", "silverman",
                 "--resamples", "99", "--seed", "17", "--format", "json"]) == 0
    explicit = json.loads(capsys.readouterr().out)
    assert with_env == explicit


def test_env_seed_invalid_is_usage_error(wellsep_csv, capsys, monkeypatch):
    monkeypatch.setenv("MODALITY_SEED", "not-a-number")
    assert main(["test", str(wellsep_csv), "--method", "dip"]) == 1


@pytest.mark.parametrize("name,change,status", [
    ("well_separated", {"baseline_modes": 3}, "modes 2 != 3"),
    ("well_separated", {"baseline_mean": 2.0}, "mean drift -6.3%"),
    ("well_separated", {"stable": False}, "CV 0.6% unexpectedly low"),
    ("near_unimodal", {"stable": True}, "mean drift -4.2%; CV 22.6% >= 5%"),
], ids=["modes", "mean_drift", "unstable_row_too_steady", "stable_row_drifts_and_spreads"])
def test_benchmark_status_names_each_gate_it_misses(name, change, status):
    from modality.benchmark import run_case

    case = next(c for c in CASES if c.name == name)
    assert run_case(dataclasses.replace(case, **change)).status == status


def test_benchmark_csv_is_deterministic():
    from modality.benchmark import run_case

    a = rows_to_csv([run_case(CASES[0], seeds=(0, 1))])
    b = rows_to_csv([run_case(CASES[0], seeds=(0, 1))])
    assert a == b


def test_benchmark_single_case_values():
    from modality.benchmark import run_case

    row = run_case(CASES[0], seeds=(0, 1, 2))
    assert row.name == "well_separated"
    assert row.modes == 2
    assert row.failures == 0
    assert all(1.7 <= h <= 2.0 for h in row.h_crit)
    assert "case" in rows_to_csv([row]).splitlines()[0]
    assert "well_separated" in rows_to_text([row])


def test_benchmark_case_validates_once_and_evaluates_each_bandwidth_once(
        kde_bandwidths, as_sample_calls):
    from modality.benchmark import run_case

    # both seeds in one call, so their searches run in lockstep; each validates once
    row = run_case(CASES[0], seeds=(0, 1))
    assert row.failures == 0
    assert len(as_sample_calls) == 2
    # the mode count at h0 is each solve's first evaluation, not a second one
    assert len(set(kde_bandwidths)) == len(kde_bandwidths) > 2


def test_scalability_rows():
    rows = run_scalability(sizes=(100, 6000), seed=0)
    assert [r.n for r in rows] == [100, 6000]
    assert all(r.seconds > 0 and r.h_crit > 0 for r in rows)
    assert "h_crit" in scalability_to_text(rows)


@pytest.mark.parametrize("argv", [
    ["--seeds", "3..1"], ["--suite", "scalability", "--seeds", "3..1"],
    ["--seeds", "a..b"], ["--seeds", ","],
], ids=["empty_range", "empty_range_scalability", "not_numbers", "empty_list"])
def test_benchmark_bad_seeds_is_usage_error(argv, capsys):
    assert main(["benchmark", *argv]) == 1
    assert capsys.readouterr().err.startswith("usage error: --seeds:")


def test_benchmark_table2_prints_its_table_then_the_written_file(tmp_path, capsys):
    text = rows_to_text(run_table2(tuple(range(10))))
    assert main(["benchmark", "--suite", "table2", "--seeds", "0..9"]) == 0
    assert capsys.readouterr().out == text + "\n"
    out = tmp_path / "table2.csv"
    assert main(["benchmark", "--suite", "table2", "--seeds", "0..9", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"{text}\n\nwrote {out}\n"
    assert out.read_bytes() == (Path(__file__).resolve().parent / "data" / "table2_seeds0-9.csv").read_bytes()


@pytest.mark.parametrize("name", ["missing/table2.csv", "."], ids=["missing_directory", "directory"])
def test_benchmark_unwritable_out_prints_nothing(name, tmp_path, capsys):
    # the CSV is written before the table is returned, so a failed write prints no table
    out = tmp_path / name
    assert main(["benchmark", "--suite", "table2", "--seeds", "0..0", "--out", str(out)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith("data error: ") and str(out) in stderr


def test_benchmark_cli_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["benchmark", "--suite", "scalability", "--seeds", "0..0",
                 "--out", str(out)]) == 0
    assert out.exists()
    assert out.read_text().splitlines()[0] == "n,seconds,h_crit"


def _fresh_process(tmp_path, statement: str, *argv: str) -> tuple[bytes, list[str]]:
    """Run ``statement`` in a fresh interpreter from the repository root, with the
    package imported from this checkout; return its stdout and the ``scipy``
    modules loaded when it ends, which it writes as JSON to a file of its own."""
    root = Path(__file__).resolve().parents[1]
    loaded = tmp_path / "scipy_modules.json"
    code = (f"import json, sys; sys.path.insert(0, {str(root / 'src')!r}); {statement}; "
            f"open({str(loaded)!r}, 'w').write(json.dumps("
            "[m for m in sys.modules if m.partition('.')[0] == 'scipy']))")
    done = subprocess.run([sys.executable, "-c", code, *argv], cwd=root, capture_output=True, check=True)
    return done.stdout, json.loads(loaded.read_text())


def test_import_loads_no_scipy(tmp_path):
    # start-up imports no SciPy at all (so no scipy.optimize, scipy.fft or scipy.special)
    assert _fresh_process(tmp_path, "import modality.cli") == (b"", [])


_WELL_CSV = str(Path("tests") / "data" / "well_separated_n400.csv")


@pytest.mark.parametrize("argv,golden", [
    pytest.param(["analyze", _WELL_CSV, "--format", "json"], "well_separated_n400_analyze.json", id="k2"),
    # the interval resamples with integers and draws no normals
    pytest.param(["analyze", _WELL_CSV, "--format", "json", "--ci", "--resamples", "99"],
                 "well_separated_n400_analyze_ci.json", id="ci"),
    # the Silverman test and the table2 samples draw normals, through the package's own inverse CDF
    pytest.param(["test", _WELL_CSV, "--method", "silverman", "--format", "json", "--seed", "0"],
                 "well_separated_n400_silverman.json", id="silverman"),
    pytest.param(["benchmark", "--suite", "table2", "--seeds", "0..9", "--out", "{out}"],
                 "table2_seeds0-9.csv", id="table2"),
])
def test_command_in_a_fresh_process_loads_no_scipy(argv, golden, tmp_path):
    # a command given --out writes its answer there, the others to stdout
    written = tmp_path / golden
    argv = [arg.format(out=written) for arg in argv]
    out, scipy_modules = _fresh_process(tmp_path, "from modality.cli import main; assert main(sys.argv[1:]) == 0", *argv)
    got = written.read_bytes() if "--out" in argv else out
    assert got == (Path(__file__).resolve().parent / "data" / golden).read_bytes()
    assert scipy_modules == []


def test_sampling_and_the_silverman_test_load_no_scipy(tmp_path):
    out, scipy_modules = _fresh_process(
        tmp_path, "from modality import MixtureSpec, sample_mixture, silverman_test; "
        "x = sample_mixture(MixtureSpec(((0.5, -2.0, 0.5), (0.5, 2.0, 0.5)), 200), 0); "
        "print(silverman_test(x, resamples=99, seed=0).p_value)")
    assert 0.0 < float(out) <= 1.0
    assert scipy_modules == []


@pytest.mark.parametrize("name", ["modality"] + [f"modality.{module.name}"
                                                 for module in pkgutil.iter_modules(modality.__path__)])
def test_every_name_in_all_is_defined(name):
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []
