"""Critical bandwidth search.

``critical_bandwidth(x, k)`` finds the smallest kernel bandwidth at which
the density estimate of ``x`` stops showing ``k`` modes, i.e. the infimum
of bandwidths whose estimate has at most ``k - 1`` modes. Large values
mean heavy smoothing is needed to merge the k-th mode away, which is the
signature of strong multimodal structure; ``k=2`` probes bimodality.

The search brackets the discrete mode-count transition around the
rule-of-thumb bandwidth in steps of ``BRACKET_GROWTH`` and bisects it to
``REL_TOL``, then verifies the count on both sides of the answer. Each
mode count is one binned-FFT KDE (``kde_fft``) on the sample's default
grid, memoized on ``h``; ``iterations`` counts distinct bandwidths. The
public functions validate and sort the sample once; the layers below
take it as given.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import CIUnreliableError, ValidationError
from .kde import _kde_at, _silverman_bandwidth, as_sample
from .modes import count_modes
from .rng import derive_seed, resample_with_replacement

__all__ = [
    "CritBandResult",
    "critical_bandwidth",
    "critical_bandwidth_ci",
    "DEFAULT_CI_RESAMPLES",
    "REL_TOL",
    "MAX_ITER",
    "BRACKET_GROWTH",
]

# Bisection stops once (h_hi - h_lo) / h_hi < REL_TOL, or unconverged after
# MAX_ITER distinct evaluations; the bracket steps by a factor BRACKET_GROWTH.
REL_TOL = 1e-4
MAX_ITER = 200
BRACKET_GROWTH = 2.0

# Shrinking below this fraction of the starting bandwidth without finding
# the transition means the target mode count never appears.
_BRACKET_FLOOR_RATIO = 1e-6

# The upper bracket never grows past this multiple of the data range.
_BRACKET_CAP_RANGES = 2.0

DEFAULT_CI_RESAMPLES = 999

_LARGE_SAMPLE = 5000


@dataclass(frozen=True)
class CritBandResult:
    """Outcome of a critical bandwidth search.

    ``success`` means the mode-count transition was verified on both
    sides: at most ``k - 1`` modes at ``h_crit`` and at least ``k`` just
    below it. The ``ci_*`` fields are populated only by the bootstrap
    interval path.
    """

    h_crit: float
    success: bool
    k: int
    iterations: int
    ci_low: float | None = None
    ci_high: float | None = None
    std_error: float | None = None
    ci_method: str | None = None
    ci_failures: int | None = None


class _ModeCounter:
    """Counts KDE modes at a bandwidth, evaluating each bandwidth once.

    ``counts`` seeds the memo with counts the caller already took on
    ``x``; they count as evaluations of the solve.
    """

    def __init__(self, x: np.ndarray, counts: dict[float, int] | None = None):
        self.x = x
        self._counts = dict(counts or {})

    @property
    def evals(self) -> int:
        return len(self._counts)

    def __call__(self, h: float) -> int:
        if h not in self._counts:
            self._counts[h] = count_modes(_kde_at(self.x, h))
        return self._counts[h]


def _check_solvable(x: np.ndarray, k: int) -> np.ndarray:
    """Check ``k`` and the size and scale of a validated, sorted sample."""
    if x.size < 3:
        raise ValidationError(f"sample: need at least 3 observations, got {x.size}")
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValidationError(f"k: must be an integer >= 1, got {k!r}")
    if x[0] == x[-1]:
        raise ValidationError("sample: zero scale (all observations identical)")
    return x


def _bracket(counter: _ModeCounter, h0: float, max_modes: int):
    """Find [h_lo, h_hi] with count(h_lo) > max_modes >= count(h_hi).

    Returns (h_lo, h_hi, failed_at) where ``failed_at`` is None on
    success, "floor" when the count never exceeded the target down to
    the floor, and "cap" when it never dropped to the target below the
    cap.
    """
    x = counter.x
    if counter(h0) <= max_modes:
        h_hi = h0
        h_lo = h0 / BRACKET_GROWTH
        while counter(h_lo) <= max_modes:
            h_hi = h_lo
            h_lo /= BRACKET_GROWTH
            if h_lo < _BRACKET_FLOOR_RATIO * h0:
                return h_lo, h_hi, "floor"
        return h_lo, h_hi, None
    h_lo = h0
    cap = _BRACKET_CAP_RANGES * (x[-1] - x[0])
    h_hi = min(h0 * BRACKET_GROWTH, cap)
    while counter(h_hi) > max_modes:
        if h_hi >= cap:
            return h_lo, h_hi, "cap"
        h_lo = h_hi
        h_hi = min(h_hi * BRACKET_GROWTH, cap)
    return h_lo, h_hi, None


def _bisect(counter: _ModeCounter, h_lo: float, h_hi: float, max_modes: int) -> tuple[float, bool]:
    """Shrink the bracket until (h_hi - h_lo) / h_hi < REL_TOL; give up after
    ``MAX_ITER`` evaluations or once it is two adjacent floats."""
    while (h_hi - h_lo) / h_hi >= REL_TOL:
        mid = 0.5 * (h_lo + h_hi)
        if counter.evals >= MAX_ITER or not h_lo < mid < h_hi:
            return h_hi, False
        if counter(mid) <= max_modes:
            h_hi = mid
        else:
            h_lo = mid
    return h_hi, True


def _verify_transition(counter: _ModeCounter, h: float, max_modes: int) -> bool:
    below = h * (1.0 - 10.0 * REL_TOL)
    return counter(h) <= max_modes and counter(below) > max_modes


def critical_bandwidth(x, k: int = 2) -> CritBandResult:
    """Smallest bandwidth at which the KDE of ``x`` has fewer than ``k`` modes.

    The returned ``h_crit`` is the upper end of the final bracket, so the
    estimate at ``h_crit`` always satisfies the at-most-``k - 1`` mode
    bound; ``success`` additionally confirms the count exceeds the bound
    just below. ``k=1`` has no attainable target (every density has at
    least one mode) and reports ``success=False``.
    """
    return _solve(_check_solvable(as_sample(x, min_size=3), k), k)


def _solve(x: np.ndarray, k: int, counts: dict[float, int] | None = None) -> CritBandResult:
    """:func:`critical_bandwidth` of a validated, sorted sample; ``counts``
    holds mode counts the caller already took on ``x``, keyed by bandwidth."""
    counter = _ModeCounter(x, counts)
    max_modes = k - 1
    h0 = _silverman_bandwidth(x)
    h_lo, h_hi, failed_at = _bracket(counter, h0, max_modes)
    if failed_at == "floor":
        # target count never exceeded: the infimum lies below the floor
        return CritBandResult(h_crit=h_lo, success=False, k=k, iterations=counter.evals)
    if failed_at == "cap":
        return CritBandResult(h_crit=h_hi, success=False, k=k, iterations=counter.evals)
    h_crit, converged = _bisect(counter, h_lo, h_hi, max_modes)
    success = converged and _verify_transition(counter, h_crit, max_modes)
    return CritBandResult(h_crit=h_crit, success=success, k=k, iterations=counter.evals)


def critical_bandwidth_ci(x, k: int = 2, resamples: int | None = None,
                          seed: int = 0) -> CritBandResult:
    """Point estimate plus a percentile bootstrap interval for ``h_crit``.

    Each replicate resamples the data with replacement (sub-seeded from
    ``(seed, replicate index)``) and re-runs the search. Replicates whose
    solve does not verify, or that draw one value only, are excluded and
    counted in ``ci_failures``; more than half failing raises
    :class:`CIUnreliableError`. The 95% interval is widened, if needed, to
    contain the point estimate.
    """
    x = _check_solvable(as_sample(x, min_size=3), k)
    if resamples is None:
        resamples = DEFAULT_CI_RESAMPLES
        if x.size > _LARGE_SAMPLE:
            warnings.warn(
                f"bootstrap with the default {DEFAULT_CI_RESAMPLES} resamples on "
                f"n={x.size} will be slow; pass resamples explicitly to silence",
                stacklevel=2,
            )
    return _bootstrap(x, _solve(x, k), resamples, seed)


def _bootstrap(x: np.ndarray, point: CritBandResult, resamples: int, seed: int) -> CritBandResult:
    """``point``, the solve on the validated sample ``x``, with the interval
    of :func:`critical_bandwidth_ci` from ``resamples`` replicates."""
    if resamples < 99:
        raise ValidationError(f"resamples: must be >= 99, got {resamples}")
    values = []
    failures = 0
    for i in range(resamples):
        y = resample_with_replacement(x, derive_seed(seed, "ci", i))
        # a replicate that drew a single value has no scale to solve on
        r = _solve(y, point.k) if y[0] != y[-1] else None
        if r is not None and r.success:
            values.append(r.h_crit)
        else:
            failures += 1
    if len(values) < 0.5 * resamples:
        raise CIUnreliableError(
            f"bootstrap interval unreliable: {failures} of {resamples} replicates failed",
            failures=failures,
        )
    values = np.asarray(values)
    ci_low, ci_high = np.percentile(values, [2.5, 97.5])
    ci_low = min(float(ci_low), point.h_crit)
    ci_high = max(float(ci_high), point.h_crit)
    return replace(
        point,
        ci_low=ci_low,
        ci_high=ci_high,
        std_error=float(np.std(values, ddof=1)),
        ci_method="percentile",
        ci_failures=failures,
    )
