"""Property-based tests: invariants that must hold on any input, ties included."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modality import dip_statistic

# integer samples, n in [2, 60]: a narrow value range forces heavy ties
tied_samples = st.integers(2, 60).flatmap(
    lambda n: st.one_of(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.integers(-1000, 1000), min_size=n, max_size=n),
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
