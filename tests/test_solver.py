import warnings

import numpy as np
import pytest

from modality import (
    CIUnreliableError,
    CritBandResult,
    DegenerateSampleError,
    MixtureSpec,
    SolverError,
    ValidationError,
    bimodality_strength,
    count_modes,
    critical_bandwidth,
    critical_bandwidth_ci,
    default_grid,
    kde_fft,
    resample_with_replacement,
    sample_mixture,
    silverman_test,
    solver,
)
from modality.benchmark import CASES
from modality.rng import derive_seed
from tests.conftest import EXTREME_SEPARATION, TRIMODAL, UNEQUAL_WEIGHTS, WELL_SEPARATED


def _count(x, h):
    return count_modes(kde_fft(x, default_grid(x, h), h))


def test_well_separated_band_across_seeds():
    values = [
        critical_bandwidth(sample_mixture(WELL_SEPARATED, seed), k=2).h_crit
        for seed in range(10)
    ]
    mean = np.mean(values)
    assert 1.81 <= mean <= 1.91
    assert 100.0 * np.std(values, ddof=1) / mean < 2.0


def test_extreme_separation_band():
    values = [
        critical_bandwidth(sample_mixture(EXTREME_SEPARATION, seed), k=2).h_crit
        for seed in range(10)
    ]
    assert 4.55 <= np.mean(values) <= 4.82


def test_trimodal_k3_band():
    values = [
        critical_bandwidth(sample_mixture(TRIMODAL, seed), k=3).h_crit
        for seed in range(10)
    ]
    assert abs(np.mean(values) - 1.379) <= 0.05


def test_solver_result_fields(well_separated):
    r = critical_bandwidth(well_separated, k=2)
    assert r.success
    assert r.k == 2
    assert r.iterations > 0
    assert r.ci_low is None and r.ci_high is None and r.ci_method is None


def test_transition_property(well_separated):
    r = critical_bandwidth(well_separated, k=2)
    assert r.success
    assert _count(well_separated, r.h_crit) <= 1
    assert _count(well_separated, r.h_crit * (1.0 - 10.0 * solver.REL_TOL)) > 1


def test_dense_scan_oracle_small_samples():
    # brute force: smallest of 2000 log-spaced bandwidths with a merged
    # estimate; the ladder spans +/-5% so its step (5e-5) resolves below
    # the solver tolerance, making the rel_tol agreement meaningful
    spec = MixtureSpec(((0.5, -2.0, 0.5), (0.5, 2.0, 0.5)), 60)
    for seed in range(5):
        x = sample_mixture(spec, seed)
        r = critical_bandwidth(x, k=2)
        ladder = np.geomspace(r.h_crit / 1.05, r.h_crit * 1.05, 2000)
        counts = [_count(x, h) for h in ladder]
        assert counts[0] > 1  # the transition lies inside the scanned window
        merged = ladder[[c <= 1 for c in counts]]
        assert merged.size > 0
        scan = merged[0]
        assert abs(r.h_crit - scan) <= solver.REL_TOL * scan


def test_monotone_in_k(trimodal):
    h2 = critical_bandwidth(trimodal, k=2).h_crit
    h3 = critical_bandwidth(trimodal, k=3).h_crit
    h4 = critical_bandwidth(trimodal, k=4).h_crit
    assert h2 >= h3 >= h4


def test_scale_and_translation_equivariance(well_separated):
    base = critical_bandwidth(well_separated, k=2).h_crit
    for c in (0.1, 3.0, 100.0):
        scaled = critical_bandwidth(c * well_separated, k=2).h_crit
        assert abs(scaled - c * base) <= 2.0 * solver.REL_TOL * c * base
    shifted = critical_bandwidth(well_separated + 57.0, k=2).h_crit
    assert abs(shifted - base) <= 2.0 * solver.REL_TOL * base


def test_determinism(well_separated):
    a = critical_bandwidth(well_separated, k=2)
    b = critical_bandwidth(well_separated, k=2)
    assert a == b


def test_k1_has_no_attainable_target(well_separated):
    r = critical_bandwidth(well_separated, k=1)
    assert not r.success


def test_degenerate_inputs_rejected():
    with pytest.raises(ValidationError):
        critical_bandwidth(np.array([1.0, 2.0]), k=2)  # n < 3
    for x in (np.full(20, 5.0), np.full(7, 0.1)):  # zero scale
        with pytest.raises(ValidationError, match="zero scale"):
            critical_bandwidth(x, k=2)
    with pytest.raises(ValidationError):
        critical_bandwidth(np.arange(10.0), k=0)
    with pytest.raises(DegenerateSampleError, match="scale 0.0 is too small"):  # subnormal spread
        critical_bandwidth([0.0] * 4 + [5e-324], k=2)


def test_ci_point_estimate_independent_of_ci_machinery(well_separated):
    plain = critical_bandwidth(well_separated, k=2)
    with_ci = critical_bandwidth_ci(well_separated, k=2, resamples=99, seed=0)
    assert with_ci.h_crit == plain.h_crit
    assert with_ci.ci_method == "percentile"
    assert with_ci.ci_low <= with_ci.h_crit <= with_ci.ci_high
    assert with_ci.std_error > 0.0
    assert with_ci.ci_failures >= 0


def test_ci_determinism(well_separated):
    a = critical_bandwidth_ci(well_separated, k=2, resamples=99, seed=5)
    b = critical_bandwidth_ci(well_separated, k=2, resamples=99, seed=5)
    assert a == b


def test_ci_tiny_sample_keeps_invariants():
    x = np.sort(np.concatenate([
        -2.0 + 0.2 * np.arange(6) / 6.0, 2.0 + 0.2 * np.arange(6) / 6.0
    ]))
    try:
        r = critical_bandwidth_ci(x, k=2, resamples=99, seed=0)
    except CIUnreliableError as e:
        assert e.failures > 49
        return
    assert r.ci_low <= r.h_crit <= r.ci_high
    assert r.ci_failures >= 0


def test_ci_unreliable_when_most_replicates_fail():
    # the point solve verifies, but a resample shows four modes only if it
    # draws all four values (24 ways in 256), so most replicates fail
    with pytest.raises(CIUnreliableError, match="89 of 99 replicates failed") as caught:
        critical_bandwidth_ci([0.0, 1.0, 2.0, 3.0], k=4, resamples=99)
    assert caught.value.failures == 89


def test_ci_refuses_an_unverified_point_solve_before_any_replicate(well_separated, monkeypatch):
    # k = 1 has no attainable target, so the point solve never verifies
    iterations = critical_bandwidth(well_separated, k=1).iterations
    monkeypatch.setattr(solver, "_substreams", lambda *args: pytest.fail("keyed a replicate"))
    with pytest.raises(SolverError) as failure:
        critical_bandwidth_ci(well_separated, k=1, resamples=99)
    assert str(failure.value) == f"critical bandwidth search failed (k=1, iterations={iterations})"


def test_ci_counts_constant_replicates_as_failures():
    # about one replicate in 32 draws the same value six times
    x = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    constant = sum(
        np.ptp(resample_with_replacement(x, derive_seed(0, "ci", i))) == 0.0 for i in range(99)
    )
    assert constant > 0
    r = critical_bandwidth_ci(x, k=2, resamples=99, seed=0)
    assert r.h_crit == critical_bandwidth(x, k=2).h_crit
    assert constant <= r.ci_failures < 50
    assert r.ci_low <= r.h_crit <= r.ci_high


def test_ci_rejects_too_few_resamples(well_separated):
    with pytest.raises(ValidationError):
        critical_bandwidth_ci(well_separated, k=2, resamples=50, seed=0)


def test_large_sample_default_resamples_warns(monkeypatch):
    monkeypatch.setattr(solver, "DEFAULT_CI_RESAMPLES", 99)  # keep the run short
    x = sample_mixture(MixtureSpec(((0.5, -2.0, 0.3), (0.5, 2.0, 0.3)), 5001), 0)
    with pytest.warns(UserWarning, match="resamples"):
        critical_bandwidth_ci(x, k=2, seed=0)


def test_large_sample_warning_only_without_resamples(monkeypatch):
    # the point solve runs, the replicates do not
    monkeypatch.setattr(solver, "_bootstrap", lambda x, point, resamples, seed: point)
    spec = ((0.5, -2.0, 0.3), (0.5, 2.0, 0.3))
    x = sample_mixture(MixtureSpec(spec, 5001), 0)
    with pytest.warns(UserWarning, match="pass resamples explicitly"):
        critical_bandwidth_ci(x, k=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        critical_bandwidth_ci(x, k=2, resamples=99)
        critical_bandwidth_ci(sample_mixture(MixtureSpec(spec, 5000), 0), k=2)


def test_random_mixture_transitions():
    rng = np.random.default_rng(99)
    verified = 0
    for _ in range(15):
        sep = rng.uniform(2.5, 6.0)
        sd = rng.uniform(0.2, 0.8)
        n = int(rng.integers(50, 400))
        spec = MixtureSpec(((0.5, -sep / 2, sd), (0.5, sep / 2, sd)), n)
        x = sample_mixture(spec, int(rng.integers(0, 1000)))
        r = critical_bandwidth(x, k=2)
        if not r.success:
            continue
        verified += 1
        assert _count(x, r.h_crit) <= 1
        assert _count(x, r.h_crit * (1.0 - 10.0 * solver.REL_TOL)) > 1
    assert verified >= 12


def test_solve_evaluates_each_bandwidth_once(kde_bandwidths):
    seen = kde_bandwidths
    for spec, k in ((WELL_SEPARATED, 2), (UNEQUAL_WEIGHTS, 2), (TRIMODAL, 3)):
        for seed in range(3):
            seen.clear()
            r = critical_bandwidth(sample_mixture(spec, seed), k=k)
            assert r.success
            assert len(seen) == len(set(seen)) == r.iterations


def test_lockstep_solves_equal_solves_of_their_own():
    # each case's seeds run in one block, one _kde_rows_at row per search and
    # step, until one is left; each result, iterations included, is the one
    # its own solve gets from kde_fft
    for case in CASES:
        samples = [np.sort(sample_mixture(case.spec, seed)) for seed in range(3)]
        expected = [critical_bandwidth(x, k=case.k) for x in samples]
        assert solver._solve_each([(x, None) for x in samples], case.k) == expected


@pytest.mark.parametrize("rel_tol", [1e-16, 1e-17])
def test_tolerance_below_float_spacing_stops_unconverged(rel_tol, monkeypatch):
    # the bracket bottoms out at two adjacent floats before reaching rel_tol
    monkeypatch.setattr(solver, "REL_TOL", rel_tol)
    x = sample_mixture(WELL_SEPARATED, 0)
    r = critical_bandwidth(x, k=2)
    assert not r.success
    assert r.iterations <= solver.MAX_ITER
    assert _count(x, r.h_crit) <= 1


def test_solver_pinned_answers(well_separated, trimodal):
    # compared with ==: a change to the grids, the bracket or the order of
    # the float operations in any solve, bootstrap or test shows here
    r = critical_bandwidth(well_separated, k=2)
    assert (r.h_crit, r.iterations) == (1.859712486892561, 17)
    r = critical_bandwidth(trimodal, k=3)
    assert (r.h_crit, r.iterations) == (1.3593049970178006, 16)
    assert critical_bandwidth_ci(well_separated, resamples=99, seed=0) == CritBandResult(
        h_crit=1.859712486892561, success=True, k=2, iterations=17,
        ci_low=1.6581052603934863, ci_high=1.8682189985768805,
        std_error=0.053965516056068814, ci_method="percentile", ci_failures=0,
    )
    t = silverman_test(well_separated, resamples=199, seed=0)
    assert (t.statistic, t.p_value, t.resamples, t.method, t.h_crit) == (
        1.859712486892561, 0.005, 199, "silverman", 1.859712486892561)
    assert bimodality_strength(well_separated).ratio == 2.8864746093750004


def test_ci_pinned_answers(trimodal):
    # recorded before the replicates were solved in lockstep; compared with ==
    unequal = sample_mixture(UNEQUAL_WEIGHTS, 0)
    tied = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]  # about one replicate in 32 is constant
    expected = [
        (trimodal, 3, CritBandResult(
            h_crit=1.3593049970178006, success=True, k=3, iterations=16,
            ci_low=1.2221314308138804, ci_high=1.4297449737908827,
            std_error=0.05384630893348081, ci_method="percentile", ci_failures=0)),
        (unequal, 2, CritBandResult(
            h_crit=1.2716878701193162, success=True, k=2, iterations=20,
            ci_low=1.2150312054392418, ci_high=1.314185294187959,
            std_error=0.026229080953040173, ci_method="percentile", ci_failures=0)),
        (tied, 2, CritBandResult(
            h_crit=0.4745476235308722, success=True, k=2, iterations=17,
            ci_low=0.3194123134573369, ci_high=0.4745476235308722,
            std_error=0.05320962953447027, ci_method="percentile", ci_failures=5)),
    ]
    for x, k, answer in expected:
        assert critical_bandwidth_ci(x, k=k, resamples=99, seed=0) == answer


def test_ci_evaluates_each_replicate_bandwidth_once(well_separated, kde_bandwidths):
    # the lockstep interval evaluates exactly the bandwidths that solving
    # each replicate on its own evaluates, each once per replicate
    seen = kde_bandwidths
    point = critical_bandwidth_ci(well_separated, k=2, resamples=99, seed=1)
    rows = seen[point.iterations:]
    reference = []
    for i in range(99):
        seen.clear()
        r = critical_bandwidth(resample_with_replacement(well_separated, derive_seed(1, "ci", i)), k=2)
        assert len(seen) == len(set(seen)) == r.iterations
        reference += seen
    assert len(rows) == len(reference)
    assert sorted(rows) == sorted(reference)
