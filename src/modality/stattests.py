"""Multimodality hypothesis tests and diagnostics.

Three complementary views of the same question:

* ``silverman_test`` — smoothed-bootstrap calibration of the critical
  bandwidth: resample from the just-unimodal density estimate and ask how
  often the resample needs at least as much smoothing as the data did.
* ``dip_test`` — sup-norm distance from the empirical CDF to the nearest
  unimodal CDF, calibrated by Monte Carlo against the uniform null.
* ``excess_mass`` — probability mass above a moving threshold, split by
  super-level intervals; a large two-interval excess signals bimodality.

Monte Carlo p-values use the add-one convention (1 + exceedances) over
(1 + resamples), so they live in (0, 1] and can never be exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TestInconclusiveError
from .kde import _check_count, _grid_size, _kde_at, _kde_rows_at, _silverman_bandwidth, as_sample
from .modes import _at_most_modes
from .rng import _check_seed, _ndtri, _open01, _replicate_blocks
from .solver import _solve

__all__ = [
    "TestResult",
    "ExcessMassCurve",
    "silverman_test",
    "dip_statistic",
    "dip_test",
    "excess_mass",
    "EXCESS_MASS_LEVELS",
]

# Number of uniformly spaced thresholds for the excess-mass ladder.
EXCESS_MASS_LEVELS = 200

# A null row skips the dip walk when its Kolmogorov-Smirnov distance to the
# uniform, enlarged by this relative margin for rounding, is below the dip,
# or when its dip floor is above the dip so enlarged.
_SCREEN_MARGIN = 1e-9


@dataclass(frozen=True)
class TestResult:
    """Outcome of a Monte Carlo test.

    ``method`` is "silverman" or "dip"; ``h_crit`` is populated by the
    Silverman test only.
    """

    statistic: float
    p_value: float
    resamples: int
    method: str
    h_crit: float | None = None


@dataclass(frozen=True)
class ExcessMassCurve:
    """Excess mass over a ladder of density thresholds.

    ``mass[i]`` is the total mass above ``thresholds[i]`` across all
    super-level intervals; ``delta`` is the largest gain from allowing a
    second interval, max over p of E2(p) - E1(p).
    """

    thresholds: np.ndarray
    mass: np.ndarray
    delta: float


def silverman_test(x, mod0: int = 1, resamples: int = 999, seed: int = 0) -> TestResult:
    """Smoothed-bootstrap test of "at most ``mod0`` modes".

    The statistic is the critical bandwidth at which the data collapse to
    at most ``mod0`` modes. Each replicate draws n points from the
    density estimate at that bandwidth (data point plus kernel noise,
    shrunk about the mean by (1 + h^2/var)^(-1/2) to preserve the sample
    variance) and counts how often the replicate still shows more than
    ``mod0`` modes at the same bandwidth -- by mode-count monotonicity in
    the bandwidth, exactly the event that its own critical bandwidth is
    at least the observed one.

    Replicate rows are drawn through ``rng._replicate_blocks`` and evaluated
    in blocks. Row ``i`` draws from its own substream
    ``(seed, "silverman", i)`` (keyed in bulk; the seed is checked with the
    other arguments, before the solve), and its density on its own default
    grid is bit for bit the one ``kde_fft`` gives, so the p-value does not
    depend on the block size. The whole block's mode counts are compared
    with ``mod0`` at once, with the exact answer of a row-by-row count.
    """
    x = as_sample(x, min_size=10)
    _check_count("mod0", mod0, 1)
    _check_count("resamples", resamples, 99)
    _check_seed(seed)

    solved = _solve(x, mod0 + 1)
    if not solved.success:
        raise TestInconclusiveError(
            f"critical bandwidth search did not verify a transition for mod0={mod0}"
        )
    h = solved.h_crit
    n = x.size
    center = x.mean()
    shrink = 1.0 / np.sqrt(1.0 + h * h / np.var(x, ddof=1))

    exceed = 0
    blocks = _replicate_blocks(seed, "silverman", resamples, n + _grid_size(n),
                               lambda g: (g.integers(0, n, size=n), g.random(n)))
    for idx, noise in blocks:
        y = center + (x[idx] + h * _ndtri(_open01(noise)) - center) * shrink
        y.sort(axis=1)
        exceed += int(np.count_nonzero(~_at_most_modes(_kde_rows_at(y, h), mod0)))
    p = (1.0 + exceed) / (resamples + 1.0)
    return TestResult(statistic=h, p_value=p, resamples=resamples,
                      method="silverman", h_crit=h)


def dip_statistic(x) -> float:
    """Exact dip: sup-distance from the ECDF to the best unimodal CDF.

    Computed by alternately fitting the greatest convex minorant and
    least concave majorant and shrinking to the modal interval until the
    deviation stops improving (Hartigan & Hartigan 1985, AS 217). Values
    lie in [1/(2n), 1/4]; large values mean the ECDF cannot be tracked by
    any rising-then-falling density.

    The walk visits one element at a time, so it runs on Python floats
    and ints read once from the sorted sample: indexing a NumPy array
    yields a boxed scalar per access, which made the same loop several
    times slower. The arithmetic is the same IEEE operations in the same
    order either way, so the result is identical.
    """
    return _dip_of_sorted(as_sample(x, min_size=2))


def _dip_of_sorted(x: np.ndarray) -> float:
    """:func:`dip_statistic` of a sorted, finite float sample of size >= 2."""
    x = x.tolist()
    n = len(x)
    low, high = 0, n - 1
    best = 1.0  # in units of 1/(2n); never below the attainable floor

    mn = _hull_links(x, range(n))  # mn[j]: previous touchpoint of the convex minorant of 0..j
    mj = _hull_links(x, range(n - 1, -1, -1))  # mj[k]: next touchpoint of the concave majorant of k..n-1

    while True:
        gcm = [high]
        while gcm[-1] > low:
            gcm.append(mn[gcm[-1]])
        lcm = [low]
        while lcm[-1] < high:
            lcm.append(mj[lcm[-1]])
        l_gcm = len(gcm) - 1
        l_lcm = len(lcm) - 1
        ig, ih = l_gcm, l_lcm
        ix, iv = l_gcm - 1, 1

        # largest separation between the two fits inside [low, high]
        d = 0.0
        if l_gcm != 1 or l_lcm != 1:
            while True:
                gcmix = gcm[ix]
                lcmiv = lcm[iv]
                if gcmix > lcmiv:
                    gcmi1 = gcm[ix + 1]
                    dx = (lcmiv - gcmi1 + 1) - (x[lcmiv] - x[gcmi1]) * (gcmix - gcmi1) / (x[gcmix] - x[gcmi1])
                    iv += 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv - 1
                else:
                    lcmiv1 = lcm[iv - 1]
                    dx = (x[gcmix] - x[lcmiv1]) * (lcmiv - lcmiv1) / (x[lcmiv] - x[lcmiv1]) - (gcmix - lcmiv1 - 1)
                    ix -= 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv
                if ix < 0:
                    ix = 0
                if iv > l_lcm:
                    iv = l_lcm
                if gcm[ix] == lcm[iv]:
                    break
        else:
            d = 1.0
        if d < best:
            break

        # deviations of the ECDF from each fit over the selected stretches
        dip_l = _stretch_dip(x, zip(gcm[ig + 1 :], gcm[ig:l_gcm]), upper=False)
        dip_u = _stretch_dip(x, zip(lcm[ih:l_lcm], lcm[ih + 1 :]), upper=True)

        best = max(best, dip_l, dip_u)
        if low == gcm[ig] and high == lcm[ih]:
            break
        low = gcm[ig]
        high = lcm[ih]

    return best / (2.0 * n)


def _stretch_dip(x: list[float], stretches, upper: bool) -> float:
    """Largest gap between the ECDF and the concave majorant above it (``upper``)
    or the convex minorant below it, over the hull's ``(jb, je)`` stretches."""
    dip = 0.0
    for jb, je in stretches:
        xb = x[jb]
        if je - jb > 1 and x[je] != xb:
            c = (je - jb) / (x[je] - xb)  # i below counts points from the stretch start jb
            if upper:
                t = max((xi - xb) * c - (i - 1) for i, xi in enumerate(x[jb : je + 1]))
            else:
                t = max(i + 1 - (xi - xb) * c for i, xi in enumerate(x[jb : je + 1]))
            dip = max(dip, 1.0, t)
        else:
            dip = max(dip, 1.0)
    return dip


def _hull_links(x: list[float], order: range) -> list[int]:
    """Each point's link to the hull touchpoint before it, walking ``x`` in ``order``.

    Walking up from 0, ``links[j]`` is the previous touchpoint of the
    greatest convex minorant of the points 0..j; walking down from n - 1,
    it is the next touchpoint of the least concave majorant of k..n - 1.
    """
    end = order[0]
    links = [end] * len(x)
    for j in order[1:]:
        xj = x[j]
        link = j - order.step
        while link != end:
            nxt = links[link]
            if (xj - x[link]) * (link - nxt) < (x[link] - x[nxt]) * (j - link):
                break
            link = nxt
        links[j] = link
    return links


def dip_test(x, resamples: int = 999, seed: int = 0) -> TestResult:
    """Dip test of unimodality, calibrated against uniform null samples.

    The dip's null distribution is stochastically largest under the
    uniform, so calibrating there gives a conservative test for any
    unimodal null without lookup tables. The sample is validated once;
    each null replicate is already finite, so it is only sorted.

    Null rows are drawn in blocks through ``rng._replicate_blocks``, row
    ``i`` from substream ``(seed, "dip", i)`` (keyed in bulk; the seed is
    checked with the other arguments, before the observed dip is walked),
    and screened before the hull walk. The Uniform(0, 1) CDF is itself
    unimodal, so a row's dip, its distance to the nearest unimodal CDF, is
    at most its Kolmogorov-Smirnov distance to the uniform. A row whose KS
    distance, enlarged by a relative 1e-9 for rounding, is below the
    observed dip therefore cannot count as an exceedance, and skips the
    walk. A row whose dip floor, a lower bound on its dip from chords across
    windows of its points, is above the observed dip so enlarged counts as
    one, and skips the walk too. Only the rows between the two bounds are
    walked, and the p-value is exactly the one walking every row gives.
    """
    x = as_sample(x, min_size=4)
    _check_count("resamples", resamples, 199)
    _check_seed(seed)
    d = _dip_of_sorted(x)
    n = x.size
    exceed = 0
    for (u,) in _replicate_blocks(seed, "dip", resamples, n, lambda g: (g.random(n),)):
        _open01(u)
        u.sort(axis=1)
        # dip <= KS: a row whose KS is below d cannot reach it
        u = u[_ks_to_uniform(u) * (1.0 + _SCREEN_MARGIN) >= d]
        if not len(u):
            continue
        # dip >= floor: a row whose floor is above d reaches it
        reach = _dip_floor(u, d) >= d * (1.0 + _SCREEN_MARGIN)
        exceed += int(np.count_nonzero(reach))
        for row in u[~reach]:
            if _dip_of_sorted(row) >= d:
                exceed += 1
    p = (1.0 + exceed) / (resamples + 1.0)
    return TestResult(statistic=d, p_value=p, resamples=resamples, method="dip")


def _dip_floor(u: np.ndarray, d: float) -> np.ndarray:
    """A lower bound on the dip of each sorted row of ``u``, over windows
    wide enough to show that the dip reaches ``d``; 0 for a row with a tie.

    Let G be unimodal with mode m and |F - G| <= e, F the ECDF of n
    distinct points x_0 < ... < x_{n-1}. Left of m, G is convex, so for
    x_a < x_i < x_b <= m it lies below its chord from G(x_a) <= a/n + e
    to G(x_b-) <= b/n + e, while G(x_i) >= (i + 1)/n - e; with
    k = i - a and l = (x_i - x_a)/(x_b - x_a), that gives
    2ne >= 1 + k - (b - a) l. Right of m, G is concave, and for
    m <= x_a it gives 2ne >= 1 - k + (b - a) l. These are the terms the
    walk takes along its hull stretches. For a mode between x_q and
    x_{q+1}, the dip is at least the largest convex term of the windows
    [a, b] with b <= q and the largest concave term of those with
    a > q; the floor is the least of these over q.

    A window of w = b - a steps gives terms of at most w, so one narrower
    than 2n d cannot show that a row reaches ``d``, and on uniform rows
    one narrower than 4n d hardly ever does: w doubles from 4n d, each
    size at four offsets a quarter window apart.
    """
    rows, n = u.shape
    convex = np.zeros((rows, n + 1))  # column b + 1: windows ending at b
    concave = np.zeros((rows, n + 1))  # column a: windows starting at a
    w = max(2, int(4.0 * n * d))
    while w < n:
        share = np.arange(w) / w  # k / w
        for start in sorted({w * j // 4 for j in range(4)}):
            count = (n - 1 - start) // w
            if count == 0:
                continue
            ends = start + w * np.arange(1, count + 1)
            window = u[:, start : ends[-1]].reshape(rows, count, w)
            xa = window[:, :, :1]
            # lead = l - k / w at each point, in place: a convex term is
            # 1 - w lead and a concave one 1 + w lead; l <= 1 cannot overflow
            lead = window - xa
            with np.errstate(divide="ignore", invalid="ignore"):  # tied rows: set to 0 below
                lead /= u[:, ends, None] - xa
            lead -= share
            convex[:, ends + 1] = np.maximum(convex[:, ends + 1], 1.0 - w * lead.min(axis=2))
            concave[:, ends - w] = np.maximum(concave[:, ends - w], 1.0 + w * lead.max(axis=2))
        w *= 2
    np.maximum.accumulate(convex, axis=1, out=convex)
    np.maximum.accumulate(concave[:, ::-1], axis=1, out=concave[:, ::-1])
    floor = np.maximum(convex, concave, out=convex).min(axis=1) / (2.0 * n)
    floor[~(u[:, 1:] > u[:, :-1]).all(axis=1)] = 0.0  # a tie breaks the chord bound
    return floor


def _ks_to_uniform(u: np.ndarray) -> np.ndarray:
    """Kolmogorov-Smirnov distance of each sorted row of ``u`` to the Uniform(0, 1) CDF."""
    n = u.shape[-1]
    above = (np.arange(1, n + 1) / n - u).max(axis=-1)  # ECDF just after each point
    below = (u - np.arange(n) / n).max(axis=-1)  # and just before it
    return np.maximum(above, below)


def _interval_masses(pts: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Integral of the positive part of ``d`` over each maximal run where ``d > 0``.

    ``d`` is sampled at the grid points ``pts`` and read as linear between
    them. One rule per cell of width dx with end values a and b:
    both above 0 adds (a + b) dx/2; exactly one above 0 adds
    hi^2/(hi - lo) dx/2, with hi = max(a, b) and lo = min(a, b), the
    triangle up to the linear crossing; any other cell adds 0. Each cell
    counts toward the run that holds its end above 0.
    """
    above = d > 0
    # the last run begun at or before each point: at a cell's right end,
    # that is the run holding the cell's end above 0
    run = np.cumsum(above & np.diff(above, prepend=False)) - 1
    hi, lo = np.maximum(d[:-1], d[1:]), np.minimum(d[:-1], d[1:])
    cell = hi > 0
    hi, lo = hi[cell], lo[cell]
    area = np.divide(hi * hi, hi - lo, out=hi + lo, where=lo <= 0)
    return np.bincount(run[1:][cell], weights=area * np.diff(pts)[cell] / 2)


def excess_mass(x, h: float | None = None) -> ExcessMassCurve:
    """Excess mass of the KDE over a uniform ladder of thresholds."""
    x = as_sample(x, min_size=5)
    curve = _kde_at(x, _silverman_bandwidth(x) if h is None else h)
    pts = curve.grid.points
    density = curve.density
    thresholds = np.linspace(0.0, density.max(), EXCESS_MASS_LEVELS)
    total = np.empty(thresholds.size)
    delta = 0.0
    for i, p in enumerate(thresholds):
        masses = sorted(_interval_masses(pts, density - p), reverse=True)
        total[i] = sum(masses)
        if len(masses) >= 2:
            delta = max(delta, masses[1])  # E2 - E1 = second-largest mass
    return ExcessMassCurve(thresholds=thresholds, mass=total, delta=float(delta))
