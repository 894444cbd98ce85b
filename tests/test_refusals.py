"""Bad inputs fail with a ``ValidationError`` that says why, and warn nothing.

Each input rule has one check, shared by every entry: the sample rule that
``as_sample``, ``kde_fft`` and ``resample_with_replacement`` apply
(``kde_fft`` leaves finiteness to its grid span check), the real scalars of
bandwidths, ``Grid`` and ``MixtureSpec``, the counts of ``_check_count`` and
the seeds of ``_check_seed``; ``parse_markdown_table`` refuses what is not
text. Then the magnitude check of the rule-of-thumb bandwidth: a sample
scaled by a power of two keeps every answer exactly, scaled, until its
variance overflows, and from there every procedure that needs a variance
refuses it.
"""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from modality import (
    Grid,
    MixtureSpec,
    ValidationError,
    critical_bandwidth,
    critical_bandwidth_ci,
    default_grid,
    detect_components,
    dip_statistic,
    dip_test,
    excess_mass,
    find_modes,
    find_trough,
    kde_fft,
    parse_markdown_table,
    resample_with_replacement,
    sample_mixture,
    silverman_bandwidth,
    silverman_test,
)
from modality import cli, decompose, solver, stattests
from tests.conftest import WELL_SEPARATED

_LINE = np.arange(20.0)
_GRID = Grid(-5.0, 0.05, 600)  # spans the line

_SAMPLE_CALLS = {
    "critical_bandwidth": critical_bandwidth,
    "silverman_test": lambda x: silverman_test(x, resamples=99),
    "dip_test": lambda x: dip_test(x, resamples=199),
    "find_modes": lambda x: find_modes(x, 0.5),
    "detect_components": detect_components,
    "excess_mass": excess_mass,
    "silverman_bandwidth": silverman_bandwidth,
    "dip_statistic": dip_statistic,
    "kde_fft": lambda x: kde_fft(x, _GRID, 0.5),
}

# (sample, message); kde_fft refuses the non-finite samples by its grid span check instead
_BAD_SAMPLES = {
    "nan": (np.append(_LINE, np.nan), "sample: all observations must be finite"),
    "inf": (np.append(_LINE, np.inf), "sample: all observations must be finite"),
    "-inf": (np.append(_LINE, -np.inf), "sample: all observations must be finite"),
    "2d": (np.ones((2, 20)), r"sample: expected 1-dimensional data, got shape \(2, 20\)"),
    "empty": (np.array([]), r"sample: need at least \d+ observations, got 0"),
    "non-numeric": ([*_LINE, "x"], re.escape("sample: expected real numbers (could not convert string to float")),
    "mapping": ({"a": 1}, re.escape("sample: expected real numbers (float() argument must be")),
    "ragged": ([_LINE, _LINE[:5]], re.escape("sample: expected real numbers (")),
    "complex": (_LINE + 2j, re.escape("sample: expected real numbers (complex128 values are not real)")),
}
_NON_FINITE = ("nan", "inf", "-inf")

_BANDWIDTH_CALLS = {
    "find_modes": lambda h: find_modes(_LINE, h),
    "find_trough": lambda h: find_trough(_LINE, h),
    "default_grid": lambda h: default_grid(_LINE, h),
    "kde_fft": lambda h: kde_fft(_LINE, _GRID, h),
    "excess_mass": lambda h: excess_mass(_LINE, h),
}

_SPEC = MixtureSpec(((1.0, 0.0, 1.0),), 10)


def _refusal(call, message, id):
    return pytest.param(call, re.escape(message), id=id)


_CASES = [
    *(pytest.param(lambda call=call, x=x: call(x),
                   "grid: data range" if name == "kde_fft" and kind in _NON_FINITE else message,
                   id=f"{name}-{kind}")
      for name, call in _SAMPLE_CALLS.items()
      for kind, (x, message) in _BAD_SAMPLES.items()),
    *(_refusal(lambda call=call, h=h: call(h), f"bandwidth: must be a positive finite real, got {h!r}",
               f"{name}-h={h}")
      for name, call in _BANDWIDTH_CALLS.items()
      for h in (0.0, -1.0, float("nan"), float("inf"))),
    *(_refusal(lambda call=call, h=h: call(h), f"bandwidth: expected a real number, got {h!r}", f"{name}-h={kind}")
      for name, call in _BANDWIDTH_CALLS.items()
      for kind, h in (("None", None), ("str", "abc"), ("array", np.array([0.5, 0.6])),
                      ("complex", np.complex128(0.5 + 1j)))
      if not (h is None and name == "excess_mass")),  # its None asks for the rule-of-thumb bandwidth
    _refusal(lambda: Grid(-5.0, 0.05, 5.0), "grid.size: must be an integer >= 2, got 5.0", "grid-size-float"),
    _refusal(lambda: Grid(-5.0, 0.05, True), "grid.size: must be an integer >= 2, got True", "grid-size-bool"),
    _refusal(lambda: Grid("a", 0.05, 600), "grid.start: expected a real number, got 'a'", "grid-start-str"),
    _refusal(lambda: Grid(-5.0, None, 600), "grid.spacing: expected a real number, got None", "grid-spacing-None"),
    _refusal(lambda: Grid(np.nan, 0.05, 600), "grid.start: must be a finite real, got nan", "grid-start-nan"),
    _refusal(lambda: Grid(-5.0, 0.0, 600), "grid.spacing: must be a positive finite real, got 0.0", "grid-spacing-0"),
    _refusal(lambda: MixtureSpec(((0.0, 0.0, 1.0), (1.0, 1.0, 1.0)), 10),
             "components[0].weight: must be in (0, 1], got 0.0", "weight-0"),
    _refusal(lambda: MixtureSpec(((1.5, 0.0, 1.0),), 10), "components[0].weight: must be in (0, 1], got 1.5",
             "weight-1.5"),
    _refusal(lambda: MixtureSpec(((1.0, 0.0, 0.0),), 10), "components[0].std: must be positive, got 0.0", "std-0"),
    _refusal(lambda: MixtureSpec(((1.0, 0.0, 1.0),), True), "n: must be an integer >= 1, got True", "n-bool"),
    _refusal(lambda: MixtureSpec([(1, 0, None)], 5), "components[0].std: expected a real number, got None",
             "std-None"),
    _refusal(lambda: MixtureSpec([("a", 0, 1)], 5), "components[0].weight: expected a real number, got 'a'",
             "weight-str"),
    _refusal(lambda: MixtureSpec([(1, 0)], 5), "components: expected (weight, mean, std) triples, got [(1, 0)]",
             "component-pair"),
    _refusal(lambda: MixtureSpec([1.0], 5), "components: expected (weight, mean, std) triples, got [1.0]",
             "component-non-iterable"),
    _refusal(lambda: MixtureSpec(1.0, 5), "components: expected (weight, mean, std) triples, got 1.0",
             "components-non-iterable"),
    _refusal(lambda: resample_with_replacement([], 0), "sample: need at least 1 observations, got 0",
             "resample-empty"),
    _refusal(lambda: resample_with_replacement([1.0, np.nan], 0), "sample: all observations must be finite",
             "resample-nan"),
    _refusal(lambda: parse_markdown_table(None), "markdown: expected text, got NoneType", "markdown-None"),
    _refusal(lambda: parse_markdown_table(b"|x|\n|-|\n|1|"), "markdown: expected text, got bytes", "markdown-bytes"),
    _refusal(lambda: sample_mixture(_SPEC, "0"), "seed: expected an integer, got str", "seed-str"),
    _refusal(lambda: sample_mixture(_SPEC, 1.5), "seed: expected an integer, got float", "seed-float"),
    _refusal(lambda: sample_mixture(_SPEC, True), "seed: expected an integer, got bool", "seed-bool"),
    _refusal(lambda: dip_test(_LINE, resamples=199, seed=True), "seed: expected an integer, got bool",
             "dip_test-seed-bool"),
    _refusal(lambda: sample_mixture(_SPEC, -1), "seed: must be in [0, 2**64), got -1", "seed-negative"),
]


@pytest.mark.parametrize("call,message", _CASES)
def test_bad_input_is_refused_with_its_reason(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=message):
            call()


@pytest.fixture(scope="module")
def bimodal():
    return sample_mixture(WELL_SEPARATED, 0)


@pytest.mark.parametrize("power", [-400, 400, 505])
def test_scaling_by_a_power_of_two_is_exact(bimodal, power):
    scale = 2.0**power
    scaled = bimodal * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert silverman_bandwidth(scaled) == scale * silverman_bandwidth(bimodal)
        base, solved = critical_bandwidth(bimodal), critical_bandwidth(scaled)
        assert (solved.h_crit, solved.iterations) == (scale * base.h_crit, base.iterations)
        base, tested = silverman_test(bimodal, resamples=99), silverman_test(scaled, resamples=99)
        assert (tested.statistic, tested.p_value) == (scale * base.statistic, base.p_value)


@pytest.mark.parametrize("call", [
    critical_bandwidth, lambda x: silverman_test(x, resamples=99), detect_components,
], ids=["critical_bandwidth", "silverman_test", "detect_components"])
def test_a_variance_that_overflows_is_refused(bimodal, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=re.escape("sample: magnitude 3.08e+301 is too large")):
            call(bimodal * 2.0**1000)


def test_the_dip_and_explicit_bandwidth_modes_need_no_variance(bimodal):
    scale = 2.0**1000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dip_test(bimodal * scale, resamples=199) == dip_test(bimodal, resamples=199)
        modes = find_modes(bimodal * scale, 0.5 * scale)
    np.testing.assert_array_equal(modes.locations, scale * find_modes(bimodal, 0.5).locations)


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda x: silverman_test(x, resamples=99, seed=-1), "got -1", id="silverman_test"),
    pytest.param(lambda x: dip_test(x, resamples=199, seed=2**64), f"got {2**64}", id="dip_test"),
    pytest.param(lambda x: critical_bandwidth_ci(x, resamples=99, seed=-1), "got -1", id="critical_bandwidth_ci"),
])
def test_a_bad_seed_is_refused_before_any_solve_or_walk(bimodal, call, message, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solved or walked before the seed was checked")

    for module, name in ((stattests, "_solve"), (stattests, "_dip_of_sorted"), (solver, "_solve")):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(ValidationError, match=re.escape(f"seed: must be in [0, 2**64), {message}")):
        call(bimodal)


def test_analyze_refuses_a_bad_seed_before_its_point_solve(capsys, monkeypatch):
    monkeypatch.setattr(decompose, "_solve", lambda *args: pytest.fail("solved before the seed was checked"))
    data = Path(__file__).resolve().parent / "data" / "well_separated_n400.csv"
    assert cli.main(["analyze", str(data), "--ci", "--resamples", "99", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "data error: seed: must be in [0, 2**64), got -1\n"
