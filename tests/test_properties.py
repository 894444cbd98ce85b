"""Property-based tests: invariants that must hold on any input, ties included."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modality import count_modes, default_grid, dip_statistic, kde_fft
from modality.kde import _kde_rows_at
from modality.stattests import _SCREEN_MARGIN, _dip_floor, _dip_of_sorted, _ks_to_uniform

# integer samples, n in [2, 60]: a narrow value range forces heavy ties
tied_samples = st.integers(2, 60).flatmap(
    lambda n: st.one_of(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.integers(-1000, 1000), min_size=n, max_size=n),
    )
)

open01 = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)

# samples in (0, 1), n in [4, 200]: spread out, tied on a few values, in one
# or two tight clusters, or at the midpoints (i + 1/2) / n, where the dip and
# the KS distance are both 1 / (2n) and only rounding tells them apart
open01_samples = st.integers(4, 200).flatmap(
    lambda n: st.one_of(
        st.lists(open01, min_size=n, max_size=n),
        st.just(list((np.arange(n) + 0.5) / n)),
        st.lists(st.sampled_from([1e-9, 0.25, 0.5, 0.5 + 1e-12, 0.75, 1.0 - 1e-9]), min_size=n, max_size=n),
        st.lists(st.floats(0.4, 0.4001), min_size=n, max_size=n),
        st.lists(st.one_of(st.floats(0.1, 0.1001), st.floats(0.9, 0.9001)), min_size=n, max_size=n),
    )
)


@settings(max_examples=300, deadline=None)
@given(tied_samples)
def test_dip_lies_between_its_bounds(values):
    n = len(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = dip_statistic(values)
    assert 1.0 / (2.0 * n) <= d <= 0.25 + 1e-12


@settings(max_examples=300, deadline=None)
@given(tied_samples, st.floats(0.1, 100.0), st.floats(-100.0, 100.0))
def test_dip_invariant_under_positive_affine_maps(values, scale, shift):
    x = np.asarray(values, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dip_statistic(scale * x + shift) == pytest.approx(dip_statistic(x), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-100.0, 100.0), st.floats(-100.0, 100.0),
    st.integers(1, 30), st.integers(1, 30),
    # log-uniform, so that kernels narrower than the grid spacing are drawn often
    st.floats(-4.0, np.log10(3.0)).map(lambda e: 10.0**e),
)
def test_two_values_never_show_more_than_two_modes(a, b, count_a, count_b, h_per_gap):
    """A kernel narrower than the grid spacing must not ring between the values."""
    # a gap near the subnormal range makes h or the grid spacing round to 0,
    # which the engine refuses with a typed error
    assume(abs(b - a) > 1e-300)
    x = np.sort(np.array([a] * count_a + [b] * count_b))
    h = h_per_gap * abs(b - a)
    assert count_modes(kde_fft(x, default_grid(x, h), h)) <= 2


@settings(max_examples=300, deadline=None)
@given(open01_samples)
def test_dip_never_exceeds_the_ks_distance_to_the_uniform(values):
    """The uniform CDF is unimodal, so the dip is at most the KS distance to it,
    up to rounding: dip_test may skip a null row whose KS distance, enlarged
    by the screen's margin, is below the observed dip."""
    u = np.sort(np.asarray(values))
    assert _dip_of_sorted(u) <= _ks_to_uniform(u) * (1.0 + _SCREEN_MARGIN)


@settings(max_examples=200, deadline=None)
@given(open01_samples, st.floats(0.0, 0.05))
def test_dip_floor_never_exceeds_the_dip(values, d):
    """Up to rounding: dip_test counts a null row without its walk when the
    row's floor is above the observed dip, enlarged by the screen's margin.
    ``d`` sets the narrowest window; a row with a tie gets no floor."""
    u = np.sort(np.asarray(values))
    floor = _dip_floor(u[None], d)[0]
    assert floor <= _dip_of_sorted(u) * (1.0 + _SCREEN_MARGIN)
    if np.any(u[1:] == u[:-1]):
        assert floor == 0.0


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 40).flatmap(lambda n: st.lists(
        st.lists(st.integers(-1000, 1000), min_size=n, max_size=n), min_size=1, max_size=6)),
    st.lists(st.floats(-3.0, 2.0).map(lambda e: 10.0**e), min_size=6, max_size=6),
)
def test_block_rows_at_their_own_bandwidths_equal_kde_fft(rows, bandwidths):
    """Each row of a block, at its own bandwidth, is bit for bit its one-row
    ``kde_fft``, whatever the other rows and their padded lengths."""
    block = np.sort(np.asarray(rows, dtype=float), axis=1)
    assume(all(row[0] < row[-1] for row in block))
    hs = np.asarray(bandwidths[: len(block)]) * (block[:, -1] - block[:, 0])
    for row, h, density in zip(block, hs, _kde_rows_at(block, hs)):
        assert np.array_equal(density, kde_fft(row, default_grid(row, h), h).density)
