import tracemalloc

import numpy as np
import pytest

from modality import (
    DegenerateSampleError,
    Grid,
    GridSpanError,
    MixtureSpec,
    ValidationError,
    default_grid,
    kde_direct,
    kde_fft,
    sample_mixture,
    silverman_bandwidth,
)
from modality.kde import (
    GRID_MAX_POINTS,
    GRID_MIN_POINTS,
    _FAST_LENGTHS,
    _kde_rows_at,
    _linear_bin,
    _next_fast_len,
)


def _hand_silverman(x):
    sd = np.std(x, ddof=1)
    q75, q25 = np.percentile(x, [75, 25])
    return 1.06 * min(sd, (q75 - q25) / 1.34) * len(x) ** (-0.2)


def test_silverman_matches_hand_formula(well_separated):
    assert silverman_bandwidth(well_separated) == pytest.approx(
        _hand_silverman(well_separated), rel=1e-12
    )


def test_silverman_two_point_closed_form():
    # sd = sqrt(1/2), IQR = 0.5 under linear-interpolation quantiles
    x = np.array([0.0, 1.0])
    expected = 1.06 * min(np.sqrt(0.5), 0.5 / 1.34) * 2 ** (-0.2)
    assert silverman_bandwidth(x) == pytest.approx(expected, rel=1e-12)


def test_silverman_scale_equivariance(well_separated):
    h = silverman_bandwidth(well_separated)
    assert silverman_bandwidth(7.0 * well_separated) == pytest.approx(7.0 * h, rel=1e-12)


def test_silverman_translation_invariance(well_separated):
    h = silverman_bandwidth(well_separated)
    assert silverman_bandwidth(well_separated + 1000.0) == pytest.approx(h, rel=1e-9)


def test_silverman_degenerate_inputs():
    with pytest.raises(ValidationError):
        silverman_bandwidth(np.array([1.0]))
    # the n - 1 standard deviation of the last two rounds to 1.5e-17 and 1.2e-16, not 0
    for x in (np.full(10, 3.0), np.full(7, 0.1), np.full(11, 0.7)):
        with pytest.raises(DegenerateSampleError, match="zero scale"):
            silverman_bandwidth(x)


def test_silverman_subnormal_scale_is_degenerate():
    for x in ([0.0, 5e-324], [0.0] * 4 + [5e-324], [0.0] * 4 + [1e-300]):
        with pytest.raises(DegenerateSampleError, match="sample: scale 0.0 is too small"):
            silverman_bandwidth(x)


def test_silverman_zero_iqr_falls_back_to_sd():
    # heavy ties: IQR 0 but spread present; the rule must stay positive
    x = np.array([1.0] * 8 + [0.0, 2.0])
    assert silverman_bandwidth(x) > 0.0


@pytest.mark.parametrize("n,expected", [(100, 800), (1600, 800), (4000, 2000), (10_000, 5000), (20_000, 5000)])
def test_default_grid_size_rule(n, expected):
    x = np.linspace(0.0, 1.0, n)
    grid = default_grid(x, 0.1)
    assert grid.size == expected
    assert GRID_MIN_POINTS <= grid.size <= GRID_MAX_POINTS


def test_default_grid_span_is_three_bandwidths():
    x = np.array([0.0, 10.0])
    grid = default_grid(x, 2.0)
    assert grid.start == pytest.approx(-6.0)
    assert grid.stop == pytest.approx(16.0)
    # every point but the last is bit-for-bit np.linspace's, which pins the last to its stop
    linspace = np.linspace(-6.0, 16.0, grid.size)
    np.testing.assert_array_equal(grid.points[:-1], linspace[:-1])
    assert grid.points[-1] == grid.stop == pytest.approx(linspace[-1], rel=1e-15)


@pytest.mark.parametrize("start,spacing,size", [
    pytest.param(0.0, 0.0, 10, id="zero_spacing"),
    pytest.param(0.0, -0.5, 10, id="negative_spacing"),
    pytest.param(np.nan, 0.5, 10, id="nan_start"),
    pytest.param(0.0, np.inf, 10, id="inf_spacing"),
    pytest.param(0.0, 0.5, 1, id="one_point"),
])
def test_grid_rejects_invalid_triple(start, spacing, size):
    with pytest.raises(ValidationError):
        Grid(start, spacing, size)


def test_kde_direct_single_point_peak():
    grid = Grid(-4.0, 0.01, 801)
    curve = kde_direct(np.array([0.0]), grid, 1.0)
    assert curve.density[400] == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-12)


def test_kde_direct_symmetry():
    x = np.array([-1.5, 1.5])
    grid = Grid(-5.0, 0.01, 1001)
    curve = kde_direct(x, grid, 0.7)
    np.testing.assert_allclose(curve.density, curve.density[::-1], atol=1e-12)


def test_kde_normalization(well_separated):
    h = silverman_bandwidth(well_separated)
    curve = kde_direct(well_separated, default_grid(well_separated, h), h)
    assert 0.99 <= curve.trapezoid_integral() <= 1.001
    fft_curve = kde_fft(well_separated, default_grid(well_separated, h), h)
    assert 0.99 <= fft_curve.trapezoid_integral() <= 1.001


def test_kde_normalization_band_holds_broadly():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(10, 2000))
        x = np.sort(rng.normal(0.0, 1.0, n) * rng.uniform(0.1, 10.0))
        h = silverman_bandwidth(x) * rng.uniform(0.5, 4.0)
        curve = kde_direct(x, default_grid(x, h), h)
        assert 0.98 <= curve.trapezoid_integral() <= 1.001


def test_kde_fft_single_point_peak():
    grid = Grid(-6.0, 0.003, 4001)
    curve = kde_fft(np.array([0.0]), grid, 1.0)
    assert curve.density.max() == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-3)


def test_kde_fft_rejects_data_outside_grid():
    grid = Grid(0.0, 1.0 / 99, 100)
    with pytest.raises(GridSpanError):
        kde_fft(np.array([-0.5, 0.5]), grid, 0.1)


def test_kde_fft_nonnegative_after_clamp(well_separated):
    h = 0.25 * silverman_bandwidth(well_separated)
    curve = kde_fft(well_separated, default_grid(well_separated, h), h)
    assert np.all(curve.density >= 0.0)


def test_fft_matches_direct_on_random_samples():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(10, 3000))
        x = np.sort(rng.normal(0.0, 1.0 + rng.random(), n))
        span = x[-1] - x[0]
        h = np.exp(rng.uniform(np.log(span / 25.0), np.log(span / 2.0)))
        grid = default_grid(x, h)
        direct = kde_direct(x, grid, h)
        fft = kde_fft(x, grid, h)
        rel = np.max(np.abs(fft.density - direct.density)) / direct.density.max()
        assert rel <= 1e-4


def test_kde_scale_equivariance(well_separated):
    c = 3.7
    h = silverman_bandwidth(well_separated)
    grid = default_grid(well_separated, h)
    base = kde_direct(well_separated, grid, h)
    scaled = kde_direct(c * well_separated, Grid(c * grid.start, c * grid.spacing, grid.size), c * h)
    np.testing.assert_allclose(scaled.density, base.density / c, rtol=1e-10)


@pytest.mark.parametrize("n", [5000, 5001])
def test_fft_matches_direct_at_former_switch(n):
    # n = 5000 and 5001 once took different evaluation paths
    x = sample_mixture(MixtureSpec(((1.0, 0.0, 1.0),), n), 1)
    h = silverman_bandwidth(x)
    grid = default_grid(x, h)
    direct = kde_direct(x, grid, h)
    fft = kde_fft(x, grid, h)
    assert np.max(np.abs(fft.density - direct.density)) / direct.density.max() <= 1e-4


def test_next_fast_len_equals_scipy():
    # the package's padded lengths are SciPy's: every target up to 2^16,
    # every table length and its neighbours up to 2^22, random targets in
    # between, and targets above the table up to about SciPy's largest
    from scipy.fft import next_fast_len

    table = np.array(_FAST_LENGTHS)
    targets = np.concatenate([
        np.arange(1, 2**16 + 1),
        table, table - 1, table + 1,
        np.random.default_rng(0).integers(2**16, 2**22, 5_000, endpoint=True),
        [2**22 + 1, 4_199_041, 10**7 + 1, 3**15, 2**40 + 1, 10**18 + 1],
    ])
    targets = [t for t in targets.tolist() if t >= 1]
    assert [_next_fast_len(t) for t in targets] == [next_fast_len(t) for t in targets]


@pytest.mark.parametrize("target,length", [
    (1, 1), (13, 14), (801, 810), (1201, 1210), (2001, 2016), (5001, 5040), (9999, 10000),
    (10007, 10080), (65537, 65610), (4194303, 4194304), (4194304, 4194304), (4194305, 4199040),
    (10**12 + 1, 1000010753280), (2**61, 2**61),
])
def test_next_fast_len_pinned(target, length):
    # every density's rounding follows m, so m may not follow the installed SciPy
    assert _next_fast_len(target) == length


def test_next_fast_len_rejects_a_target_no_fft_reaches():
    # above 2^61 the lookup table would not fit in int64, nor any transform in memory
    with pytest.raises(ValueError, match="too large for an FFT"):
        _next_fast_len(2**61 + 1)


def test_kde_fft_bandwidth_too_wide_for_a_transform_is_a_validation_error():
    # 1e302 grid steps: the padded transform would need more than 2^61 points
    with pytest.raises(ValidationError, match=r"^bandwidth: 1e\+300 is 1e\+302 grid steps wide, too wide"):
        kde_fft(np.array([0.0, 1.0]), Grid(-3.0, 0.01, 600), 1e300)


@pytest.mark.parametrize("r", [2e5, 1e7])
def test_kde_fft_kernel_wider_than_its_fixed_grid_pads_no_further_than_the_grid(r):
    # the 6h reach is capped at the grid's 599 steps: no two grid points are further apart,
    # so the padded transform stays short however wide the kernel (a 6h padding needed
    # about 70 MB at r = 2e5 and would need gigabytes at 1e7)
    grid, x = Grid(-3.0, 0.01, 600), np.array([0.0, 1.0])
    tracemalloc.start()
    try:
        density = kde_fft(x, grid, r * grid.spacing).density
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    np.testing.assert_allclose(density, kde_direct(x, grid, r * grid.spacing).density, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("h, peak", [(1e-300, 3.989422804014327e299), (1e-308, 3.9894228040143273e307)])
def test_kde_fft_far_below_a_grid_step_is_the_kernel_peak(h, peak):
    # exp(-(1 / r)^2 / 2) overflows its square on the way to 0 without a warning
    density = kde_fft(np.array([0.0]), Grid(-1.0, 0.5, 5), h).density
    assert density.tolist() == [0.0, 0.0, peak, 0.0, 0.0]


@pytest.mark.parametrize("h", [6e-309, 1e-320])
def test_kde_fft_bandwidth_too_narrow_for_a_finite_density_is_a_validation_error(h):
    # the peak 1 / (h sqrt(2 pi)) is near or past the largest float, and the
    # transform overflows on the way to it
    with pytest.raises(ValidationError, match=f"^bandwidth: {h!r} is .* too narrow for a finite density"):
        kde_fft(np.array([0.0]), Grid(-1.0, 0.5, 5), h)


def _sampled_kernel_kde(x, grid, h):
    """Reference: convolution with the sampled kernel, truncated at 6h and
    transformed by FFT, on the grid padded by that reach on both sides."""
    counts = _linear_bin(np.asarray(x, dtype=float), grid.start, grid.spacing, grid.size)
    half_width = int(np.ceil(6.0 * h / grid.spacing))
    offsets = np.arange(-half_width, half_width + 1) * grid.spacing
    kernel = np.exp(-0.5 * (offsets / h) ** 2) / (h * np.sqrt(2.0 * np.pi))
    m = _next_fast_len(grid.size + 2 * half_width)
    conv = np.fft.irfft(np.fft.rfft(counts, m) * np.fft.rfft(kernel, m), m)
    return conv[half_width : half_width + grid.size] / len(x)


# r = h / spacing across both branches, with both sides of the switch at r = 3
STEPS_PER_BANDWIDTH = [*np.geomspace(0.01, 200.0, 40), 2.999, 3.0, 3.001]


@pytest.mark.parametrize("sample,h,tol", [
    pytest.param("well_separated", 0.3, 1e-8, id="well_separated"),
    # the reference drops the kernel's tail past 6h and the engine's one-sided
    # pad wraps it: up to exp(-18) of each value's own peak at a point more
    # than 6h from both values
    pytest.param("two_values", 0.3, 2.0 * np.exp(-18.0), id="two_values"),
])
def test_kde_fft_matches_sampled_kernel_convolution(sample, h, tol, request):
    if sample == "two_values":
        x = np.array([0.0] * 5 + [1.0] * 7)
    else:
        x = request.getfixturevalue(sample)
    worst = 0.0
    for r in STEPS_PER_BANDWIDTH:
        spacing = h / r
        start = x[0] - 3.0 * h
        grid = Grid(start, spacing, max(2, int(np.ceil((x[-1] + 3.0 * h - start) / spacing)) + 1))
        reference = _sampled_kernel_kde(x, grid, h)
        gap = np.max(np.abs(kde_fft(x, grid, h).density - reference)) / reference.max()
        worst = max(worst, gap)
    assert worst <= tol


@pytest.mark.parametrize("r,transforms", [(3.5, 2), (40.0, 2), (2.5, 3)])
def test_kde_fft_transform_count_and_length(r, transforms, monkeypatch):
    # the closed form spares the kernel's transform; the pad is one-sided
    x = np.array([0.0, 0.5, 2.0])
    h = 0.2
    grid = Grid(-1.0, h / r, int(np.ceil(4.0 * r / h)) + 1)
    lengths = []

    def counted(transform):
        def call(a, n=None):
            lengths.append(a.size if n is None else n)
            return transform(a, n)
        return call

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    kde_fft(x, grid, h)
    assert lengths == [_next_fast_len(grid.size + int(np.ceil(6.0 * r)))] * transforms


@pytest.mark.parametrize("h", [0.01, 0.3, 1.86])
@pytest.mark.parametrize("sample", ["two_values", "well_separated"])
def test_block_densities_equal_kde_fft(sample, h, request):
    # a block of bootstrap-like rows, scaled so that it mixes kernels
    # narrower and wider than 3 grid steps and several padded lengths
    x = np.array([0.0] * 5 + [1.0] * 7) if sample == "two_values" else request.getfixturevalue(sample)
    rng = np.random.default_rng(4)
    block = np.array([
        np.sort(scale * x[rng.integers(0, x.size, x.size)] + h * rng.standard_normal(x.size))
        for scale in (0.1, 1.0, 10.0, 100.0, 1000.0) for _ in range(2)
    ])
    # one bandwidth for the block, then one per row as the bootstrap interval
    # uses, the widest on the narrowest row
    per_row = h * np.geomspace(20.0, 0.05, len(block))
    for bandwidths, hs in ((h, [h] * len(block)), (per_row, per_row)):
        grids = [default_grid(row, h_row) for row, h_row in zip(block, hs)]
        steps = [h_row / grid.spacing for grid, h_row in zip(grids, hs)]
        assert min(steps) < 3.0 <= max(steps)
        assert len({_next_fast_len(grid.size + int(np.ceil(6.0 * r))) for grid, r in zip(grids, steps)}) > 1
        densities = _kde_rows_at(block, bandwidths)
        for row, grid, h_row, density in zip(block, grids, hs, densities):
            assert np.array_equal(density, kde_fft(row, grid, h_row).density)
