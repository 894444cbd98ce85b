import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import modality.kde as kde_mod
import modality.solver as solver_mod
import modality.stattests as stattests_mod
from modality import (
    DegenerateSampleError,
    ValidationError,
    analyze,
    bimodality_strength,
    critical_bandwidth,
    critical_bandwidth_ci,
    detect_components,
    dip_statistic,
    dip_test,
    excess_mass,
    silverman_test,
)
from modality.benchmark import CASES, run_case
from modality.errors import TestInconclusiveError as InconclusiveTestError
from modality.io import read_data
from modality.kde import _kde_at
from modality.rng import MixtureSpec, random_open01, sample_mixture, substream
from modality.stattests import _hull_links, _interval_masses


# --- independent dip oracle -------------------------------------------------
#
# Minimax fit of a piecewise-linear unimodal CDF to the ECDF, solved as one
# LP per candidate mode placement (each data knot, allowing the CDF's one
# jump there, and each gap including the virtual tail segments). Exact for
# this class because the optimal unimodal CDF against a step function can
# be taken piecewise linear with knots at the data points.

def dip_oracle(x):
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    big = 1e7 * (x[-1] - x[0])
    nv = 1 + 2 * n  # [d, u_0..u_{n-1}, v_0..v_{n-1}]

    def U(i):
        return 1 + i

    def V(i):
        return 1 + n + i

    def slope_expr(i):
        if i == -1:
            return [(U(0), 1.0)], 0.0, big
        if i == n - 1:
            return [(V(n - 1), -1.0)], 1.0, big
        return [(U(i + 1), 1.0), (V(i), -1.0)], 0.0, x[i + 1] - x[i]

    def solve(mode_knot=None, mode_gap=None):
        A_ub, b_ub, A_eq, b_eq = [], [], [], []

        def le(coefs, rhs):
            row = np.zeros(nv)
            for idx, c in coefs:
                row[idx] += c
            A_ub.append(row)
            b_ub.append(rhs)

        for i in range(n):
            le([(V(i), 1.0), (0, -1.0)], (i + 1) / n)
            le([(V(i), -1.0), (0, -1.0)], -(i + 1) / n)
            le([(U(i), 1.0), (0, -1.0)], i / n)
            le([(U(i), -1.0), (0, -1.0)], -i / n)
            le([(U(i), 1.0), (V(i), -1.0)], 0.0)
            if i + 1 < n:
                le([(V(i), 1.0), (U(i + 1), -1.0)], 0.0)
            if i != mode_knot:
                row = np.zeros(nv)
                row[U(i)], row[V(i)] = 1.0, -1.0
                A_eq.append(row)
                b_eq.append(0.0)

        left_last, right_first = (
            (mode_knot - 1, mode_knot) if mode_knot is not None else (mode_gap, mode_gap)
        )
        for i in range(-1, left_last):
            (ca, consta, wa), (cb, constb, wb) = slope_expr(i), slope_expr(i + 1)
            le([(j, c * wb) for j, c in ca] + [(j, -c * wa) for j, c in cb],
               wa * constb - wb * consta)
        for i in range(right_first, n - 1):
            (ca, consta, wa), (cb, constb, wb) = slope_expr(i), slope_expr(i + 1)
            le([(j, -c * wb) for j, c in ca] + [(j, c * wa) for j, c in cb],
               wb * consta - wa * constb)

        c = np.zeros(nv)
        c[0] = 1.0
        res = linprog(
            c, A_ub=np.array(A_ub), b_ub=np.array(b_ub),
            A_eq=np.array(A_eq) if A_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=[(0, None)] + [(0.0, 1.0)] * (2 * n), method="highs",
        )
        return res.fun if res.success else np.inf

    best = np.inf
    for m in range(n):
        best = min(best, solve(mode_knot=m))
    for g in range(-1, n):
        best = min(best, solve(mode_gap=g))
    return best


@pytest.mark.parametrize(
    "x,expected",
    [
        ([0.0, 1.0], 0.25),                 # n=2: jump placement forces 1/4
        ([0.0, 1.0, 2.0], 1.0 / 6.0),       # equal spacing attains the 1/(2n) floor
        ([0.0, 1.0, 2.0, 3.0], 0.125),
        ([0.0, 0.1, 0.9, 1.0], 2.0 / 9.0),  # clustered pairs
    ],
)
def test_dip_known_small_values(x, expected):
    x = np.array(x)
    assert dip_oracle(x) == pytest.approx(expected, abs=1e-9)
    assert dip_statistic(x) == pytest.approx(expected, abs=1e-12)


def test_dip_matches_oracle_on_random_samples():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        x = np.sort(rng.normal(0.0, 1.0, n))
        if np.min(np.diff(x), initial=np.inf) < 1e-9:
            continue
        assert dip_statistic(x) == pytest.approx(dip_oracle(x), abs=1e-9)


def test_dip_equally_spaced_is_small():
    x = np.arange(1.0, 51.0)
    d = dip_statistic(x)
    assert d == pytest.approx(0.01, abs=1e-12)  # 1/(2n)
    assert d < 0.02


def test_dip_bimodal_exceeds_unimodal(well_separated, normal_500):
    assert dip_statistic(well_separated) > 0.05
    assert dip_statistic(normal_500) < 0.03


def test_dip_bounds():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 300))
        x = rng.normal(0.0, 1.0, n)
        d = dip_statistic(x)
        assert 1.0 / (2.0 * n) - 1e-12 <= d <= 0.25 + 1e-12


def test_dip_affine_invariance():
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = rng.normal(0.0, 1.0, int(rng.integers(5, 120)))
        d = dip_statistic(x)
        assert dip_statistic(3.5 * x - 11.0) == pytest.approx(d, abs=1e-12)


def test_dip_depends_on_spacing_not_just_ranks():
    # monotone (non-affine) warping changes the statistic: certified by
    # the oracle on both configurations
    even = np.array([0.0, 0.1, 0.9, 1.0])
    squeezed = np.array([0.0, 0.001, 2.999, 3.0])
    assert dip_statistic(squeezed) > dip_statistic(even)
    assert dip_oracle(squeezed) > dip_oracle(even)


def test_dip_test_unimodal_fails_to_reject(normal_500):
    result = dip_test(normal_500, resamples=499, seed=0)
    assert result.p_value > 0.1
    assert result.method == "dip"


def test_dip_test_bimodal_rejects(well_separated):
    result = dip_test(well_separated, resamples=499, seed=0)
    assert result.p_value < 0.01


def test_dip_test_self_calibration_under_uniform_null():
    # rejection rate at alpha = 0.1 over 200 uniform-null trials
    alpha = 0.1
    rejections = 0
    trials = 200
    for t in range(trials):
        u = random_open01(substream(1000 + t, "null-trial"), 40)
        if dip_test(u, resamples=199, seed=t).p_value <= alpha:
            rejections += 1
    assert 0.05 <= rejections / trials <= 0.15


def test_dip_test_pinned_answers(well_separated, normal_500):
    # compared with ==: a change to the order or kind of the dip's float
    # operations, or to the null draws, shows here
    bimodal = dip_test(well_separated, resamples=199, seed=0)
    assert (bimodal.statistic, bimodal.p_value) == (0.16901183659916008, 0.005)
    unimodal = dip_test(normal_500, resamples=199, seed=0)
    assert (unimodal.statistic, unimodal.p_value) == (0.013308645219373048, 0.815)


def test_dip_test_walks_no_null_row_that_cannot_reach_the_dip(well_separated, monkeypatch):
    # every null row's KS distance to the uniform, an upper bound on its
    # dip, is below the bimodal sample's dip: only the sample itself is walked
    walks = []
    walk = stattests_mod._dip_of_sorted

    def counting(x):
        walks.append(x.size)
        return walk(x)

    monkeypatch.setattr(stattests_mod, "_dip_of_sorted", counting)
    result = dip_test(well_separated, resamples=199, seed=0)
    assert walks == [well_separated.size]
    assert result.p_value == 0.005


@pytest.fixture
def dip_walks(monkeypatch):
    """The size of every sample the dip's hull walk sees while the test runs."""
    walks = []
    walk = stattests_mod._dip_of_sorted

    def counting(x):
        walks.append(x.size)
        return walk(x)

    monkeypatch.setattr(stattests_mod, "_dip_of_sorted", counting)
    return walks


def test_dip_test_walks_only_the_null_rows_its_bounds_leave_open(dip_walks):
    # every null row's KS distance reaches the unimodal sample's dip, and
    # most rows' floors do too: those count without a walk
    x = read_data(Path(__file__).parent / "data" / "normal_n400.csv")
    result = dip_test(x, resamples=199, seed=0)
    u = np.sort([random_open01(substream(0, "dip", i), x.size) for i in range(199)], axis=1)
    d = result.statistic
    assert np.all(stattests_mod._ks_to_uniform(u) * (1.0 + stattests_mod._SCREEN_MARGIN) >= d)
    settled = stattests_mod._dip_floor(u, d) >= d * (1.0 + stattests_mod._SCREEN_MARGIN)
    assert settled.sum() > 140
    assert dip_walks == [x.size] * (1 + 199 - settled.sum())


@pytest.mark.parametrize("gap,n,decimals", [(0.0, 400, None), (1.5, 400, None), (2.0, 400, None),
                                            (2.4, 400, None), (0.0, 30, None), (0.0, 200, 1)])
def test_dip_floor_counts_each_row_as_its_walk_would(gap, n, decimals, monkeypatch):
    # with every floor at 0, each row the KS screen lets through is walked;
    # the answers are the same (rounded samples hold ties)
    x = sample_mixture(MixtureSpec(((0.5, 0.0, 0.6), (0.5, gap, 0.6)), n), 1)
    x = x if decimals is None else np.round(x, decimals)
    screened = [dip_test(x, resamples=199, seed=seed) for seed in (0, 3)]
    monkeypatch.setattr(stattests_mod, "_dip_floor", lambda u, d: np.zeros(len(u)))
    assert [dip_test(x, resamples=199, seed=seed) for seed in (0, 3)] == screened


def test_dip_statistic_ignores_input_order(well_separated):
    shuffled = np.random.default_rng(3).permutation(well_separated)
    assert dip_statistic(shuffled) == dip_statistic(well_separated)


def test_dip_test_validation(normal_500):
    with pytest.raises(ValidationError):
        dip_test(normal_500, resamples=100)
    with pytest.raises(ValidationError):
        dip_test(np.array([1.0, 2.0, 3.0]))


def test_silverman_test_bands(well_separated, barely_separated, near_unimodal):
    strong = silverman_test(well_separated, mod0=1, resamples=999, seed=0)
    assert strong.p_value < 0.01
    assert strong.h_crit == strong.statistic
    weak = silverman_test(barely_separated, mod0=1, resamples=999, seed=0)
    assert weak.p_value > 0.05
    mid = silverman_test(near_unimodal, mod0=1, resamples=999, seed=0)
    assert 0.01 < mid.p_value < 0.25


def test_silverman_test_trimodal_mod0(trimodal):
    # at most 2 modes strongly rejected; at most 3 comfortably retained
    reject2 = silverman_test(trimodal, mod0=2, resamples=199, seed=0)
    assert reject2.p_value < 0.05
    keep3 = silverman_test(trimodal, mod0=3, resamples=199, seed=0)
    assert keep3.p_value > 0.05


def test_silverman_test_determinism(well_separated):
    a = silverman_test(well_separated, mod0=1, resamples=99, seed=3)
    b = silverman_test(well_separated, mod0=1, resamples=99, seed=3)
    assert a == b


def test_silverman_test_pinned_answers(well_separated, normal_500, near_unimodal, trimodal):
    # recorded before replicates were evaluated in blocks; compared with ==
    # so that any change to the draws, the KDE arithmetic or the mode count shows
    tied = np.sort(np.random.default_rng(5).integers(0, 12, 150).astype(float))
    expected = [
        (well_separated, 1, (1.859712486892561, 0.005)),
        (normal_500, 1, (0.24660817680560587, 0.415)),
        (near_unimodal, 1, (0.32910150943345484, 0.135)),
        (trimodal, 2, (1.3593049970178006, 0.005)),
        (tied, 1, (2.0168869406777743, 0.035)),
    ]
    for x, mod0, answer in expected:
        result = silverman_test(x, mod0=mod0, resamples=199, seed=0)
        assert (result.statistic, result.p_value) == answer


def test_silverman_test_evaluates_each_replicate_once(well_separated, kde_bandwidths):
    # after the solve, one evaluation per replicate, at the critical bandwidth
    solve = critical_bandwidth(well_separated, k=2)
    kde_bandwidths.clear()
    result = silverman_test(well_separated, resamples=199, seed=0)
    assert len(kde_bandwidths) == solve.iterations + 199
    assert kde_bandwidths[solve.iterations:] == [result.h_crit] * 199


def _monte_carlo_answers(samples):
    return [
        (silverman_test(x, resamples=199, seed=2), dip_test(x, resamples=199, seed=2),
         critical_bandwidth_ci(x, resamples=99, seed=2))
        for x in samples
    ] + [run_case(CASES[0], seeds=range(3))]


@pytest.mark.parametrize("block_values,blocks", [(1, 199), (10**9, 1)])
def test_monte_carlo_tests_do_not_depend_on_the_block_size(
    block_values, blocks, well_separated, normal_500, monkeypatch
):
    # the same seed gives the same numbers with one replicate per block, or
    # one interval replicate or table2 seed in flight, and with every
    # replicate in one block
    samples = (well_separated, normal_500)
    expected = _monte_carlo_answers(samples)
    monkeypatch.setattr(kde_mod, "_BLOCK_VALUES", block_values)
    assert -(-199 // kde_mod._block_rows(well_separated.size + 800)) == blocks
    assert (kde_mod._block_rows(well_separated.size + 800) >= 99) == (blocks == 1)
    assert _monte_carlo_answers(samples) == expected


def test_silverman_test_validation(normal_500):
    with pytest.raises(ValidationError):
        silverman_test(normal_500, mod0=0)
    with pytest.raises(ValidationError):
        silverman_test(normal_500, resamples=50)
    with pytest.raises(ValidationError):
        silverman_test(np.arange(5.0))


@pytest.mark.parametrize("call", [
    lambda x: silverman_test(x, resamples=199.0),
    lambda x: dip_test(x, resamples=999.0),
    lambda x: critical_bandwidth_ci(x, resamples=99.0),
    lambda x: silverman_test(x, mod0=1.0),
    lambda x: critical_bandwidth(x, k=2.0),
    lambda x: silverman_test(x, mod0=True),
    lambda x: critical_bandwidth(x, k=True),
    lambda x: analyze(x, k=True),
], ids=["silverman-resamples", "dip-resamples", "ci-resamples", "mod0", "k", "mod0-bool", "k-bool",
        "analyze-k-bool"])
def test_counts_that_are_not_integers_fail_with_a_typed_error(call, well_separated):
    with pytest.raises(ValidationError, match="must be an integer >= "):
        call(well_separated)


def test_silverman_test_inconclusive_when_solver_fails():
    # two distinct values can never show three modes, so the mod0=2
    # statistic (the 3-to-2 merge bandwidth) does not exist
    x = np.array([0.0] * 5 + [1.0] * 5)
    with pytest.raises(InconclusiveTestError):
        silverman_test(x, mod0=2, resamples=99, seed=0)


def test_excess_mass_zero_threshold_is_total_mass(well_separated):
    curve = excess_mass(well_separated)
    assert curve.mass[0] == pytest.approx(1.0, abs=0.02)
    assert curve.mass[-1] == pytest.approx(0.0, abs=1e-12)


def test_excess_mass_monotone_and_nonnegative(well_separated, normal_500):
    for x in (well_separated, normal_500):
        curve = excess_mass(x)
        assert np.all(np.diff(curve.mass) <= 1e-12)
        assert curve.delta >= 0.0
        assert curve.thresholds[0] == 0.0
        assert curve.thresholds.size == 200


def test_excess_mass_orders_bimodal_above_unimodal(well_separated, normal_500):
    bimodal = excess_mass(well_separated)
    unimodal = excess_mass(normal_500[: well_separated.size])
    assert bimodal.delta > unimodal.delta


def test_excess_mass_explicit_bandwidth(well_separated):
    wide = excess_mass(well_separated, h=5.0)
    assert wide.delta == pytest.approx(0.0, abs=1e-6)  # oversmoothed to one bump


# --- reference excess mass: the interval walk the cell rule replaced ----------

def interval_masses_by_walk(pts, density, p):
    """Masses of (density - p) over each maximal interval where density > p,
    walked interval by interval, with a triangular sliver for each partial cell."""
    above = density > p
    if not above.any():
        return []
    delta = pts[1] - pts[0]
    d = density - p
    edges = np.flatnonzero(np.diff(above.astype(np.int8)))
    starts = [0] if above[0] else []
    starts += list(edges[~above[edges]] + 1)
    ends = list(edges[above[edges]])
    if above[-1]:
        ends.append(len(d) - 1)
    masses = []
    for i, j in zip(starts, ends):
        m = float(np.trapezoid(d[i : j + 1], pts[i : j + 1])) if j > i else 0.0
        if i > 0:
            t = d[i] / (d[i] - d[i - 1])
            m += 0.5 * d[i] * t * delta
        if j < len(d) - 1:
            t = d[j] / (d[j] - d[j + 1])
            m += 0.5 * d[j] * t * delta
        masses.append(m)
    return masses


def excess_mass_by_walk(x, h):
    curve = _kde_at(x, h)
    pts, density = curve.grid.points, curve.density
    thresholds = np.linspace(0.0, density.max(), stattests_mod.EXCESS_MASS_LEVELS)
    mass, delta = [], 0.0
    for p in thresholds:
        masses = sorted(interval_masses_by_walk(pts, density, p), reverse=True)
        mass.append(sum(masses))
        if len(masses) >= 2:
            delta = max(delta, masses[1])
    return np.array(mass), delta


@pytest.mark.parametrize("p,expected", [(0.0, [2.0, 8.0]), (1.0, [0.5, 5.25]), (4.0, [])])
def test_interval_masses_by_cell_rule_on_a_hand_built_curve(p, expected):
    # cells of width 1: whole trapezoids, and triangles up to the linear crossing
    pts = np.arange(7.0)
    density = np.array([0.0, 2.0, 0.0, 0.0, 4.0, 4.0, 0.0])
    assert _interval_masses(pts, density - p).tolist() == expected
    assert interval_masses_by_walk(pts, density, p) == expected


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_excess_mass_matches_the_interval_walk(case):
    x = np.sort(sample_mixture(case.spec, 0))
    for h in (kde_mod._silverman_bandwidth(x), 0.05, 1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = excess_mass(x, h=h)
        mass, delta = excess_mass_by_walk(x, h)
        np.testing.assert_allclose(curve.mass, mass, rtol=0, atol=1e-12)
        assert curve.delta == pytest.approx(delta, rel=0, abs=1e-12)


# --- reference hull links: the two mirrored loops _hull_links replaced ---------

def hull_links_by_loops(x):
    n = len(x)
    mn = [0] * n
    for j in range(1, n):
        xj = x[j]
        mnj = j - 1
        while mnj != 0:
            mnmnj = mn[mnj]
            if (xj - x[mnj]) * (mnj - mnmnj) < (x[mnj] - x[mnmnj]) * (j - mnj):
                break
            mnj = mnmnj
        mn[j] = mnj
    mj = [n - 1] * n
    for k in range(n - 2, -1, -1):
        xk = x[k]
        mjk = k + 1
        while mjk != n - 1:
            mjmjk = mj[mjk]
            if (xk - x[mjk]) * (mjk - mjmjk) < (x[mjk] - x[mjmjk]) * (k - mjk):
                break
            mjk = mjmjk
        mj[k] = mjk
    return mn, mj


# n in [2, 300], on a few integer levels, rounded to a coarse grid, or spread out
tie_heavy_samples = st.integers(2, 300).flatmap(
    lambda n: st.one_of(
        st.lists(st.integers(0, 4).map(float), min_size=n, max_size=n),
        st.lists(st.floats(-3.0, 3.0).map(lambda v: round(v, 1)), min_size=n, max_size=n),
        st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
    )
)


@settings(max_examples=100, deadline=None)
@given(tie_heavy_samples)
def test_hull_links_match_the_two_loops(values):
    x = sorted(values)
    n = len(x)
    assert (_hull_links(x, range(n)), _hull_links(x, range(n - 1, -1, -1))) == hull_links_by_loops(x)


@pytest.mark.parametrize("method", [
    excess_mass, detect_components, bimodality_strength,
    lambda x: silverman_test(x, resamples=99, seed=0),
], ids=["excess_mass", "detect_components", "bimodality_strength", "silverman_test"])
def test_constant_sample_has_zero_scale_everywhere(method):
    # np.std of this sample is 1.4e-17, not 0: the rule tests its range
    with pytest.raises(DegenerateSampleError, match="sample: zero scale"):
        method(np.full(20, 0.1))


def test_monte_carlo_tests_key_their_streams_in_bulk(monkeypatch):
    # every replicate's stream comes from rng._substreams, none from a substream, derive_seed or
    # resample_with_replacement call of its own, and no replicate re-validates the sample
    def refuse(*args, **kwargs):
        raise AssertionError("a replicate keyed its own stream or re-validated the sample")

    x = sample_mixture(MixtureSpec(((0.5, -2.0, 0.3), (0.5, 2.0, 0.3)), 100), 0)
    for name in ("substream", "derive_seed", "resample_with_replacement", "_sample"):
        monkeypatch.setattr(f"modality.rng.{name}", refuse)
        for module in (stattests_mod, solver_mod):
            monkeypatch.setattr(module, name, refuse, raising=False)
    silverman_test(x, resamples=99)
    dip_test(x, resamples=199)
    critical_bandwidth_ci(x, resamples=99)
