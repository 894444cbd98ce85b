import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modality import (
    DensityCurve,
    Grid,
    NotBimodalError,
    count_modes,
    default_grid,
    find_modes,
    find_trough,
    kde_fft,
    sample_mixture,
    silverman_bandwidth,
)
from modality.benchmark import CASES
from modality.kde import _kde_rows_at
from modality.modes import (
    PROMINENCE_DEPTH_RATIO,
    PROMINENCE_GLOBAL_RATIO,
    PROMINENCE_RATIO,
    _at_most_modes,
    _mode_runs,
)
from tests.conftest import EXTREME_SEPARATION, UNEQUAL_WEIGHTS


def _curve(values, lo=0.0, hi=1.0):
    values = np.asarray(values, dtype=float)
    return DensityCurve(
        grid=Grid(lo, (hi - lo) / (values.size - 1), values.size), density=values, h=1.0
    )


def test_count_modes_simple_peaks():
    assert count_modes(_curve([0, 1, 0, 2, 0])) == 2
    assert count_modes(_curve([0, 1, 2, 3, 2, 1, 0])) == 1
    assert count_modes(_curve([3, 2, 1, 2, 3])) == 0  # only boundary maxima


def test_endpoints_are_never_modes():
    assert count_modes(_curve([5, 1, 1, 1, 4])) == 0


def test_plateau_merges_to_single_mode():
    assert count_modes(_curve([0, 2, 2, 2, 0])) == 1
    # plateau that keeps rising afterwards is not a mode
    assert count_modes(_curve([0, 1, 1, 2, 0])) == 1


def test_plateau_location_is_midpoint():
    from modality.modes import _modes_of_curve

    curve = _curve([0, 2, 2, 2, 0], lo=0.0, hi=4.0)
    modes = _modes_of_curve(curve)[0]
    assert modes.locations.tolist() == [2.0]


def test_tiny_far_tail_mode_is_filtered():
    values = np.zeros(101)
    values[48:53] = [0.5, 0.9, 1.0, 0.9, 0.5]
    values[90] = 1e-8  # micro-mode far below the prominence floor
    assert count_modes(_curve(values)) == 1


def test_saddle_depth_separates_merged_from_distinct():
    rise = np.linspace(0.0, 1.0, 50)
    shallow = np.concatenate([rise, [1.0 - 1e-5], rise[::-1]])
    assert count_modes(_curve(shallow)) == 1
    deep = np.concatenate([rise, [0.9], rise[::-1]])
    assert count_modes(_curve(deep)) == 2


def test_count_modes_unimodal_reference(normal_500):
    h = silverman_bandwidth(normal_500)
    assert find_modes(normal_500, h).count == 1


def test_count_modes_bimodal_and_trimodal(well_separated, trimodal):
    assert find_modes(well_separated, silverman_bandwidth(well_separated)).count == 2
    assert find_modes(trimodal, silverman_bandwidth(trimodal)).count == 3


def test_unequal_weights_is_two_modes_not_hundreds():
    for seed in range(10):
        x = sample_mixture(UNEQUAL_WEIGHTS, seed)
        assert find_modes(x, silverman_bandwidth(x)).count == 2


def test_find_modes_well_separated_locations(well_separated):
    modes = find_modes(well_separated, silverman_bandwidth(well_separated))
    assert modes.count == 2
    assert abs(modes.locations[0] - (-2.0)) < 0.3
    assert abs(modes.locations[1] - 2.0) < 0.3
    assert np.all(modes.heights > 0)


def test_single_observation_mode_at_point():
    x = np.array([0.0])
    for h in (0.5, 2.0):
        modes = find_modes(x, h)
        assert modes.count == 1
        grid_spacing = 6.0 * h / 799
        assert abs(modes.locations[0]) <= grid_spacing


def test_mode_count_monotone_in_bandwidth():
    rng = np.random.default_rng(31)
    from modality import default_grid, kde_fft

    for _ in range(20):
        n = int(rng.integers(30, 400))
        x = np.sort(np.concatenate([
            rng.normal(-2.0, 0.5, n // 2), rng.normal(2.0, 0.8, n - n // 2)
        ]))
        span = x[-1] - x[0]
        counts = [
            count_modes(kde_fft(x, default_grid(x, h), h))
            for h in np.geomspace(span / 150, span, 30)
        ]
        assert all(a >= b for a, b in zip(counts[:-1], counts[1:]))
        assert counts[-1] == 1  # h at the data range smooths to one mode


def test_find_trough_symmetric(well_separated):
    h = silverman_bandwidth(well_separated)
    trough = find_trough(well_separated, h)
    grid_spacing = (well_separated[-1] - well_separated[0] + 6 * h) / 799
    assert abs(trough.location) <= 2 * grid_spacing + 0.05
    assert 0.0 < trough.ratio < 1.0


def test_find_trough_extreme_separation_matches_analytic_ratio():
    # population oracle: for 0.5*N(-5,0.5)+0.5*N(5,0.5) smoothed by h the
    # valley-to-peak ratio is 2*exp(-12.5 / (0.25 + h^2))
    x = sample_mixture(EXTREME_SEPARATION, 0)
    h = silverman_bandwidth(x)
    expected = 2.0 * np.exp(-12.5 / (0.25 + h * h))
    trough = find_trough(x, h)
    assert trough.ratio == pytest.approx(expected, abs=0.012)
    assert trough.ratio < 0.05


def test_find_trough_near_unimodal_is_shallow(near_unimodal):
    trough = find_trough(near_unimodal, silverman_bandwidth(near_unimodal))
    assert trough.ratio > 0.5


def test_find_trough_lies_between_modes(trimodal):
    h = silverman_bandwidth(trimodal)
    modes = find_modes(trimodal, h)
    trough = find_trough(trimodal, h)
    top_two = sorted(modes.locations[np.argsort(modes.heights)[-2:]])
    assert top_two[0] < trough.location < top_two[1]
    assert trough.height <= modes.heights.max()


@pytest.mark.parametrize("values, location", [
    ([0, 4, 1, 1, 2, 1, 4, 0], 2.5),  # a flat valley, the first of two minimal runs
    ([0, 4, 4, 3, 1, 1, 4, 0], 4.5),  # the minimal run reaches the end of the segment
])
def test_trough_is_the_midpoint_of_the_first_minimal_run(values, location):
    from modality.modes import _modes_of_curve, _trough_of_curve

    curve = _curve(values, lo=0.0, hi=len(values) - 1.0)
    trough = _trough_of_curve(curve, _modes_of_curve(curve))
    assert (trough.location, trough.height, trough.ratio) == (location, 1.0, 0.25)


def test_find_trough_requires_two_modes(normal_500):
    with pytest.raises(NotBimodalError):
        find_trough(normal_500, silverman_bandwidth(normal_500))


def _reference_mode_runs(density):
    """Reference mode scan: compress the curve into runs of equal values,
    take the runs above both neighbouring runs, then drop and merge them by
    the same prominence rules."""
    boundaries = np.flatnonzero(density[1:] != density[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries - 1, [density.size - 1]))
    values = density[starts]
    if values.size < 3:
        return starts[:0], ends[:0], values[:0]
    is_max = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
    keep = np.flatnonzero(is_max) + 1
    peak = density.max()
    keep = list(keep[values[keep] >= PROMINENCE_RATIO * peak])
    while len(keep) > 1:
        depths = []
        for i in range(len(keep) - 1):
            saddle = values[keep[i] + 1 : keep[i + 1]].min()
            shorter = min(values[keep[i]], values[keep[i + 1]])
            depths.append((values[keep[i]], values[keep[i + 1]], shorter - saddle, shorter))
        qualifying = [
            (depth / shorter, i)
            for i, (_, _, depth, shorter) in enumerate(depths)
            if depth < PROMINENCE_DEPTH_RATIO * shorter or depth < PROMINENCE_GLOBAL_RATIO * peak
        ]
        if not qualifying:
            break
        _, i = min(qualifying)
        keep.pop(i + 1 if depths[i][1] <= depths[i][0] else i)
    keep = np.asarray(keep, dtype=np.intp)
    return starts[keep], ends[keep], values[keep]


def _assert_same_runs(density):
    for got, want in zip(_mode_runs(density), _reference_mode_runs(density)):
        np.testing.assert_array_equal(got, want)


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.lists(st.integers(0, 3), min_size=2, max_size=80),
    st.lists(st.integers(0, 1000), min_size=2, max_size=80),
    # saddles within 1% of equal peaks: every pair merges, ties included
    st.lists(st.integers(990, 1000), min_size=2, max_size=80),
))
# both pairs shallow: once the middle peak is absorbed, the joined saddle 990 keeps two modes
@example([0, 1000, 995, 996, 990, 1000, 0])
@example([0, 1000, 999, 1000, 0])  # an exact height tie: the right member is absorbed
def test_mode_scan_matches_run_compression_on_tied_values(values):
    _assert_same_runs(np.asarray(values, dtype=float))


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.one_of(st.integers(0, 3), st.integers(0, 1000), st.integers(990, 1000),
              # deep and shallow saddles in one curve: some pairs merge, others stand
              st.sampled_from([0, 500, 996, 1000])),
    min_size=2, max_size=80,
))
@example([0, 1000, 0, 1000, 0, 1000, 999, 1000, 0])  # 4 candidates, 3 modes
# rows that reach the merge with 4, 4 and 3 candidates: rounding drops the bump of 4
@example([0, 100000, 99500, 100000, 0, 4, 0, 100000, 0])
@example([0, 1000, 0, 1000, 0, 1000, 0, 500, 500])  # a plateau still flat at the row's last point
@example([0, 1000, 0, 1000, 0, 500, 500, 1000, 0])  # a plateau that rises again: a shoulder, no mode
# the first row's flat 7, 7 runs on into the next row's, where it falls: no mode of either row
@example([0, 1000, 0, 1000, 0, 1000, 0, 7, 7])
def test_at_most_modes_equals_the_exact_count(values):
    # the block count must give each row's own _mode_runs answer, plateaus and shallow pairs included
    density = np.asarray(values, dtype=float)
    block = np.stack([density, density[::-1], np.round(density, -1)])
    for m in (1, 2, 3):
        want = [_mode_runs(row.copy())[0].size <= m for row in block]
        assert _at_most_modes(block, m).tolist() == want


def test_at_most_modes_equals_the_exact_count_on_bootstrap_blocks():
    # blocks as the interval and the Silverman test evaluate them: resampled
    # rows, each at its own bandwidth, across and below the transitions
    rng = np.random.default_rng(9)
    for case in CASES:
        x = sample_mixture(case.spec, 0)
        rows = np.sort(x[rng.integers(0, x.size, (12, x.size))], axis=1)
        for scale in np.geomspace(0.05, 3.0, 12):
            hs = scale * silverman_bandwidth(x) * np.geomspace(0.5, 2.0, rows.shape[0])
            block = _kde_rows_at(rows, hs)
            for m in (1, 2, 3):
                want = [_mode_runs(row)[0].size <= m for row in block]
                assert _at_most_modes(block, m).tolist() == want


def test_mode_scan_matches_run_compression_on_table2_curves():
    for case in CASES:
        x = sample_mixture(case.spec, 0)
        for h in np.geomspace(0.02, 4.0, 40) * silverman_bandwidth(x):
            _assert_same_runs(kde_fft(x, default_grid(x, h), h).density)
