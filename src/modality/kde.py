"""Gaussian kernel density estimation on a uniform grid.

``kde_fft`` is the package's one KDE engine, used for every sample size:
it linear-bins the sample onto the grid and convolves with the Gaussian
kernel by FFT in O(n + g log g) (binned KDE, Silverman 1982, AS 176;
Wand 1994). The kernel's transform is the Gaussian's closed form, so an
evaluation costs two transforms, one of the bin counts and one back.
The Monte Carlo tests evaluate a block of replicates at once with the
same arithmetic (``_kde_rows_at``), each row at its own bandwidth and bit
for bit its ``kde_fft``, and so do the solver's lockstep steps (interval
replicates, table2 seeds); a step with one live search calls ``kde_fft``.
``kde_direct`` is the exact O(n*g) direct sum, kept as the oracle the
engine is tested against.

The padded transform length m is the package's own ``_next_fast_len``, a
lookup in a table of 11-smooth lengths, not SciPy's ``next_fast_len``:
m sets every density's rounding, and SciPy documents that its choice
may change between versions. Owning it pins m for every target, and
keeps ``scipy.fft`` out of the package.
"""

from __future__ import annotations

import bisect
import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, GridSpanError, ValidationError

__all__ = [
    "Grid",
    "DensityCurve",
    "as_sample",
    "silverman_bandwidth",
    "default_grid",
    "kde_direct",
    "kde_fft",
    "GRID_MIN_POINTS",
    "GRID_MAX_POINTS",
    "GRID_CUT_BANDWIDTHS",
]

# Grid sizing: g = max(GRID_MIN_POINTS, min(GRID_MAX_POINTS, n // 2)).
GRID_MIN_POINTS = 800
GRID_MAX_POINTS = 5000

# The grid extends this many bandwidths past the data range. Gaussian mass
# beyond 3h is under 0.27%, which keeps the normalization check meaningful.
GRID_CUT_BANDWIDTHS = 3.0

# Kernel reach in bandwidths. The FFT pads the grid on one side by this
# many bandwidths, so the circular convolution wraps only kernel mass
# beyond 6h (under exp(-18) of the peak) onto the grid. Below
# _CLOSED_FORM_MIN_STEPS the kernel is also truncated here.
_KERNEL_SUPPORT_BANDWIDTHS = 6.0

# Bandwidths of at least this many grid steps use the Gaussian's
# closed-form transform: its first alias, exp(-pi^2 r^2 / 2) at r steps,
# is then below 1e-19. Narrower kernels are undersampled, and the
# band-limited closed form rings (a sample of two distinct values can
# show a third mode), so they use the transform of the sampled kernel.
_CLOSED_FORM_MIN_STEPS = 3.0

# exp(-t) rounds to exactly 0.0 in double precision for every t above this.
_EXP_UNDERFLOW = 746.0

# FFT roundoff produces tiny negative lobes; anything smaller than this
# fraction of the peak is clamped to zero to preserve nonnegativity.
_NEGATIVE_CLAMP_RATIO = 1e-12

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# Below this bandwidth, or this many grid steps r, the kernel's (step / r)^2 and weight
# 1 / (r sqrt(2 pi)) may overflow: kde_fft lets them (exp(-inf) is the kernel's exact 0)
# and refuses a density left infinite or NaN.
_NARROW = 1e-100

# Padded lengths are looked up among the 11-smooth integers up to this
# (3 608 of them, built at import in about 1 ms).
_FAST_LENGTHS_MAX = 1 << 22

# The largest target with a length: no FFT is this long (SciPy stops at
# about 2^60.5), and twice it fits in an int64.
_MAX_TARGET = 1 << 61


def _smooth_lengths(limit: int) -> list[int]:
    """The integers up to ``limit`` (< 2^63) with no prime factor above 11, ascending."""
    lengths = np.ones(1, dtype=np.int64)
    for p in (2, 3, 5, 7, 11):
        multiples = [lengths]
        power = p
        while power <= limit:
            multiples.append(lengths[lengths <= limit // power] * power)
            power *= p
        lengths = np.concatenate(multiples)
    return np.sort(lengths).tolist()


_FAST_LENGTHS = _smooth_lengths(_FAST_LENGTHS_MAX)


def _next_fast_len(target: int) -> int:
    """The smallest 11-smooth integer >= ``target`` (>= 1): a length that
    NumPy's FFT transforms quickly, and SciPy's ``next_fast_len(target)``.

    A target beyond the table, which only a grid of millions of points or
    a bandwidth of hundreds of thousands of grid steps reaches, is looked
    up in a table built up to twice the target, which holds a power of
    two >= the target. A target above ``_MAX_TARGET``
    (2^61) raises ``ValueError``.
    """
    if target <= _FAST_LENGTHS_MAX:
        lengths = _FAST_LENGTHS
    elif target <= _MAX_TARGET:
        lengths = _smooth_lengths(2 * target)
    else:
        raise ValueError(f"transform length: target {target} is too large for an FFT")
    return lengths[bisect.bisect_left(lengths, target)]


def _sample(values, min_size: int, finite: bool = True) -> np.ndarray:
    """``values`` as a 1-D float64 array of at least ``min_size`` real observations, finite if ``finite``."""
    try:
        if (x := np.asarray(values)).dtype.kind == "c":  # a cast would drop the imaginary parts
            raise TypeError(f"{x.dtype} values are not real")
        x = x.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError) as e:  # non-numeric, complex, ragged or huge
        raise ValidationError(f"sample: expected real numbers ({e})") from None
    if x.ndim != 1:
        raise ValidationError(f"sample: expected 1-dimensional data, got shape {x.shape}")
    if x.size < min_size:
        raise ValidationError(f"sample: need at least {min_size} observations, got {x.size}")
    if finite and not np.isfinite(x).all():
        raise ValidationError("sample: all observations must be finite")
    return x


def as_sample(values, min_size: int = 1) -> np.ndarray:
    """Validate and normalize raw observations into a sorted float array."""
    return np.sort(_sample(values, min_size))


def _check_count(name: str, value, least: int) -> int:
    """``value``, the argument ``name``, as an ``int``: it must be an integer of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name}: must be an integer >= {least}, got {value!r}")
    if value < least:
        raise ValidationError(f"{name}: must be >= {least}, got {value}")
    return int(value)


def _check_real(name: str, value, positive: bool = False) -> float:
    """``value``, the argument ``name``, as a finite ``float``, and a positive one if ``positive``."""
    try:
        if isinstance(value, np.complexfloating):  # float() would drop its imaginary part
            raise TypeError
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name}: expected a real number, got {value!r}") from None
    if not (math.isfinite(value) and (value > 0.0 or not positive)):
        raise ValidationError(f"{name}: must be a {'positive ' if positive else ''}finite real, got {value!r}")
    return value


@dataclass(frozen=True)
class Grid:
    """``size`` evaluation points ``start + i * spacing``, uniform by construction."""

    start: float
    spacing: float
    size: int

    def __post_init__(self):
        object.__setattr__(self, "start", _check_real("grid.start", self.start))
        object.__setattr__(self, "spacing", _check_real("grid.spacing", self.spacing, positive=True))
        object.__setattr__(self, "size", _check_count("grid.size", self.size, 2))

    @property
    def points(self) -> np.ndarray:
        # np.linspace's arithmetic, except that linspace pins its last point to its stop
        return np.arange(self.size) * self.spacing + self.start

    @property
    def stop(self) -> float:
        return (self.size - 1) * self.spacing + self.start


@dataclass(frozen=True)
class DensityCurve:
    """KDE values over a grid at a fixed bandwidth."""

    grid: Grid
    density: np.ndarray
    h: float

    def trapezoid_integral(self) -> float:
        return float(np.trapezoid(self.density, self.grid.points))


def silverman_bandwidth(x) -> float:
    """Rule-of-thumb bandwidth 1.06 * min(sd, IQR/1.34) * n**(-1/5).

    ``sd`` is the n-1 sample standard deviation; the IQR uses linearly
    interpolated quantiles (numpy's default convention). When the IQR
    collapses to zero on a sample that still has spread, the rule falls
    back to the standard deviation so the result stays positive. A sample
    has zero scale exactly when its smallest and largest values are equal;
    that raises :class:`DegenerateSampleError`, whatever ``np.std`` rounds to.
    So does a spread so small (subnormal) that the bandwidth underflows to 0,
    or so large (values beyond about 1e153) that the variance overflows.
    """
    return _silverman_bandwidth(as_sample(x, min_size=2))


def _silverman_bandwidth(x: np.ndarray) -> float:
    """:func:`silverman_bandwidth` of a validated, sorted sample of size >= 2."""
    if x[0] == x[-1]:
        raise DegenerateSampleError("sample: zero scale (all observations identical)")
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(np.std(x, ddof=1))
    if not math.isfinite(sd):
        raise DegenerateSampleError(f"sample: magnitude {max(-x[0], x[-1]):.3g} is too large for a variance")
    q75, q25 = np.percentile(x, [75.0, 25.0])
    iqr = float(q75 - q25)
    if iqr > 0.0:
        scale = min(sd, iqr / 1.34)
    else:
        scale = sd
    h = 1.06 * scale * x.size ** (-0.2)
    if not h > 0.0:  # a subnormal spread underflows in the variance or in the product
        raise DegenerateSampleError(f"sample: scale {scale!r} is too small for a bandwidth")
    return h


def default_grid(x, h) -> Grid:
    """Adaptive grid spanning the data plus a cut of 3 bandwidths per side."""
    return _default_grid(as_sample(x), h)


def _default_grid(x: np.ndarray, h) -> Grid:
    """:func:`default_grid` of a sample that is already validated and sorted."""
    h = _check_real("bandwidth", h, positive=True)
    return Grid(*_grid_span(x[0], x[-1], x.size, h))


def _grid_size(n: int) -> int:
    """Number of points of the default grid for a sample of size ``n``."""
    return max(GRID_MIN_POINTS, min(GRID_MAX_POINTS, n // 2))


def _grid_span(first, last, n: int, h: float):
    """(start, spacing, size) of the default grid of samples running from
    ``first`` to ``last``; scalars for one sample, arrays for a block."""
    g = _grid_size(n)
    lo = first - GRID_CUT_BANDWIDTHS * h
    hi = last + GRID_CUT_BANDWIDTHS * h
    return lo, (hi - lo) / (g - 1), g


def kde_direct(x, grid: Grid, h) -> DensityCurve:
    """Exact Gaussian KDE: mean of kernels centered at each observation."""
    x = as_sample(x)
    h = _check_real("bandwidth", h, positive=True)
    pts = grid.points
    density = np.empty(pts.size)
    # chunk over grid points to bound the (chunk x n) scratch matrix
    chunk = max(1, int(4_000_000 / max(x.size, 1)))
    inv_h = 1.0 / h
    for start in range(0, pts.size, chunk):
        block = pts[start : start + chunk]
        z = (block[:, None] - x[None, :]) * inv_h
        density[start : start + chunk] = np.exp(-0.5 * z * z).sum(axis=1)
    density /= x.size * h * _SQRT_2PI
    return DensityCurve(grid=grid, density=density, h=h)


def _linear_bin(x: np.ndarray, start, spacing, size: int) -> np.ndarray:
    """Split each observation's unit mass between its two nearest grid points.

    ``x`` is one sample on the grid of ``size`` points ``start + j * spacing``,
    or a (k, n) block of samples, each row on its own grid, with ``start``
    and ``spacing`` as (k, 1) columns; the counts are (size,) or (k, size).
    A block shares one ``bincount`` per neighbour, which adds each bin's
    weights in the order binning its row alone would.
    """
    pos = (x - start) / spacing
    left = pos.astype(np.int64)  # the floor, since no observation lies left of its grid
    frac = pos - left
    # observations exactly on the last grid point
    at_end = left == size - 1
    left[at_end] -= 1
    frac[at_end] = 1.0
    shape = x.shape[:-1] + (size,)
    if x.ndim == 2:  # row i's bins follow row i - 1's
        left = (left + np.arange(0, x.shape[0] * size, size)[:, None]).ravel()
        frac = frac.ravel()
    counts = np.bincount(left, weights=1.0 - frac, minlength=math.prod(shape))
    counts += np.bincount(left + 1, weights=frac, minlength=math.prod(shape))
    return counts.reshape(shape)


def _kernel_plan(h: float, spacing: float, size: int) -> tuple[float, int, int]:
    """(r, half_width, m): the kernel's width and its reach in grid steps,
    and the padded transform length for a grid of ``size`` points.

    The reach is 6h, capped at ``size - 1`` steps: no two grid points are
    further apart, so a wide kernel on a fixed grid pads no further.
    """
    r = h / spacing
    if not size + _KERNEL_SUPPORT_BANDWIDTHS * r <= _MAX_TARGET:  # also an infinite r
        raise ValidationError(f"bandwidth: {h!r} is {r:.3g} grid steps wide, too wide for a transform")
    half_width = min(math.ceil(_KERNEL_SUPPORT_BANDWIDTHS * r), size - 1)
    return r, half_width, _next_fast_len(size + half_width)


def _kernel_transform(r: float, half_width: int, m: int) -> np.ndarray:
    """``rfft`` of the Gaussian kernel ``r`` grid steps wide, at padded length ``m``.

    The kernel is weighted per grid step, so its transform is 1 at zero
    frequency and a convolution with it keeps the mass of the bin counts.
    The closed form needs the padding of the full 6h reach, so a reach
    capped at the grid's length takes the sampled kernel.
    """
    if r >= _CLOSED_FORM_MIN_STEPS and half_width >= _KERNEL_SUPPORT_BANDWIDTHS * r:
        step = 2.0 * np.pi * r / m  # r * w from one frequency to the next
        transform = np.zeros(m // 2 + 1)
        # only where exp(-(r w)^2 / 2) has not underflowed to 0
        live = min(transform.size, int(math.sqrt(2.0 * _EXP_UNDERFLOW) / step) + 1)
        r_omega = np.arange(live) * step
        transform[:live] = np.exp(-0.5 * r_omega * r_omega)
        return transform
    # the sampled kernel, truncated at half_width steps and wrapped so
    # that index i stands for offset i or i - m, whichever is nearer 0
    steps = np.arange(m)
    steps = np.minimum(steps, m - steps)
    kernel = np.where(steps <= half_width, np.exp(-0.5 * (steps / r) ** 2), 0.0)
    return np.fft.rfft(kernel / (r * _SQRT_2PI))


def kde_fft(x, grid: Grid, h) -> DensityCurve:
    """FFT-accelerated Gaussian KDE on a uniform grid.

    Bins the sample linearly onto the grid, zero-pads it on one side by
    the kernel's 6h reach, or by the grid's length when that is shorter,
    multiplies its transform by the kernel's, and keeps the first
    ``grid.size`` points of the inverse transform. At r = h / spacing >= 3
    the kernel's transform is the closed form exp(-(r w)^2 / 2), so an
    evaluation makes two transforms. Narrower kernels use the transform
    of the sampled kernel, truncated at 6h, because the closed form rings
    there; so do kernels whose reach passes the grid's length, which the
    shorter padding would wrap. Either way the result differs
    from a convolution with the sampled kernel truncated at 6h only by
    kernel mass beyond 6h, under exp(-18) (1.5e-8) of an observation's
    own peak. Tiny negative roundoff lobes are clamped to zero.

    The sample is held to :func:`as_sample`'s rule but for finiteness, which
    the grid span check covers, and need not be sorted. A bandwidth too
    narrow for a finite density, or too wide in grid steps for a
    transform, raises :class:`ValidationError`.
    """
    x = _sample(x, 1, finite=False)
    h = _check_real("bandwidth", h, positive=True)
    lo, hi = x.min(), x.max()
    if not (grid.start <= lo and hi <= grid.stop):
        raise GridSpanError(
            f"grid: data range [{lo:g}, {hi:g}] exceeds grid span "
            f"[{grid.start:g}, {grid.stop:g}]"
        )
    r, half_width, m = _kernel_plan(h, grid.spacing, grid.size)
    counts = _linear_bin(x, grid.start, grid.spacing, grid.size)
    narrow = min(h, r) < _NARROW
    with np.errstate(over="ignore", invalid="ignore") if narrow else contextlib.nullcontext():
        density = _convolve(counts, _kernel_transform(r, half_width, m), m, x.size, grid.spacing)
    if narrow and not np.isfinite(density).all():
        raise ValidationError(f"bandwidth: {h!r} is {r:.3g} grid steps wide, too narrow for a finite density")
    return DensityCurve(grid=grid, density=density, h=h)


def _convolve(counts: np.ndarray, kernel: np.ndarray, m: int, n: int, spacing) -> np.ndarray:
    """Density from bin counts at padded length ``m``: the product of their
    transform with the kernel's, normalised, with roundoff lobes clamped.

    ``counts`` and ``spacing`` are one row or a block of rows, as in
    :func:`_linear_bin`; a block takes one kernel transform per row.
    """
    size = counts.shape[-1]
    density = np.fft.irfft(np.fft.rfft(counts, m) * kernel, m)[..., :size] / (n * spacing)
    peak = density.max(axis=-1, keepdims=density.ndim == 2)  # a scalar for one row is cheaper
    density[np.abs(density) < _NEGATIVE_CLAMP_RATIO * peak] = 0.0
    return density


def _kde_at(x: np.ndarray, h) -> DensityCurve:
    """``kde_fft`` of a validated, sorted sample at ``h`` on its default grid."""
    return kde_fft(x, _default_grid(x, h), h)


# Replicate loops work on blocks of rows holding about this many values:
# rows x (n + grid points) where each row is a KDE (the Silverman test and
# the bootstrap interval: 40 rows at n = 400, one from n = 19 001 up), and
# rows x n in the dip test (120 rows at n = 400). Larger blocks share more
# transforms but raise the peak memory.
_BLOCK_VALUES = 48_000


def _block_rows(values_per_row: int) -> int:
    """Rows of ``values_per_row`` values that make one block of about _BLOCK_VALUES values."""
    return max(1, _BLOCK_VALUES // values_per_row)


def _kde_rows_at(rows: np.ndarray, h) -> np.ndarray:
    """:func:`_kde_at` of each row of a (k, n) block of sorted samples, as a (k, g) array.

    ``h`` is one bandwidth for every row or a sequence of one per row.
    Each row is binned onto its own default grid and gets its own kernel
    transform; rows sharing a padded length share one 2-D ``rfft`` and
    ``irfft``. Every step is the one ``kde_fft`` takes, so each row is bit
    for bit its ``kde_fft`` density.
    """
    hs = np.broadcast_to(np.asarray(h, dtype=np.float64), rows.shape[:1])
    starts, spacings, size = _grid_span(rows[:, :1], rows[:, -1:], rows.shape[1], hs[:, None])
    counts = _linear_bin(rows, starts, spacings, size)
    groups: dict[int, tuple[list, list]] = {}  # padded length -> (rows, kernel transforms)
    for i, (h_row, spacing) in enumerate(zip(hs.tolist(), spacings.ravel().tolist())):
        r, half_width, m = _kernel_plan(h_row, spacing, size)
        which, kernels = groups.setdefault(m, ([], []))
        which.append(i)
        kernels.append(_kernel_transform(r, half_width, m))
    density = np.empty(counts.shape)
    for m, (which, kernels) in groups.items():
        density[which] = _convolve(counts[which], np.array(kernels), m, rows.shape[1], spacings[which])
    return density
