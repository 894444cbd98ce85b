"""Known defects, each pinned as a strict expected failure that asserts the right answer.

A fix makes its test pass unexpectedly, which fails under ``strict``, so
the fixing change removes the marker and the list checks itself.

The default grid spreads a fixed number of points (800 at these sizes)
over the data range plus 3h per side. A far outlier, or a bandwidth far
below the range over 800, makes a grid step many bandwidths wide: each
cluster's mass lands on the two grid points at one end of the grid, where
no maximum is a mode, and the curve shows none.
"""

import numpy as np
import pytest

from modality import critical_bandwidth, find_modes, sample_mixture
from tests.conftest import WELL_SEPARATED

_GRID_TOO_COARSE = "the default grid's step is many bandwidths wide, so the curve has no mode"


@pytest.fixture(scope="module")
def with_outlier():
    # well_separated (seed 0) and one point at 1e5: at h = 0.5 the grid's step is about 125
    return np.append(sample_mixture(WELL_SEPARATED, 0), 1e5)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_GRID_TOO_COARSE)
def test_a_far_outlier_keeps_the_two_modes(with_outlier):
    assert find_modes(with_outlier, 0.5).count == 2  # 0 today


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_GRID_TOO_COARSE)
def test_a_far_outlier_keeps_a_verified_critical_bandwidth(with_outlier):
    assert critical_bandwidth(with_outlier, 2).success  # h_crit 9.0e-7, unverified, today


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_GRID_TOO_COARSE)
def test_two_values_at_a_tiny_bandwidth_are_two_modes():
    assert find_modes([0.0] * 5 + [1.0] * 7, 1e-4).count == 2  # 0 today
