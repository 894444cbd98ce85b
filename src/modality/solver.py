"""Critical bandwidth search.

``critical_bandwidth(x, k)`` finds the smallest kernel bandwidth at which
the density estimate of ``x`` stops showing ``k`` modes, i.e. the infimum
of bandwidths whose estimate has at most ``k - 1`` modes. Large values
mean heavy smoothing is needed to merge the k-th mode away, which is the
signature of strong multimodal structure; ``k=2`` probes bimodality.

The search brackets the discrete mode-count transition around the
rule-of-thumb bandwidth in steps of ``BRACKET_GROWTH``, bisects it to
``REL_TOL``, then verifies the count on both sides of the answer. It is
one generator, ``_search``, which yields each bandwidth it needs and is
sent whether the estimate there has at most ``k - 1`` modes; it asks for
each bandwidth once, and ``iterations`` counts distinct bandwidths. One
driver, ``_solve_each``, answers every search on the sample's default
grid: live searches of one size (the interval's replicates, the seeds of
``benchmark --suite table2``) step in lockstep, one ``_kde_rows_at`` row
each, and a lone live search, as in a single solve, uses ``kde_fft``; each
gets the answers a solve of its own would. The public functions validate
and sort the sample once, asking for the 3 observations a search needs.
``_solve``, the checked entry below them, checks ``k``; zero scale raises
at the first step, the rule-of-thumb h0, whose mode count may seed it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import CIUnreliableError, SolverError
from .kde import _block_rows, _check_count, _grid_size, _kde_at, _kde_rows_at, _silverman_bandwidth, as_sample
from .modes import _at_most_modes, count_modes
from .rng import _check_seed, derive_seed, resample_with_replacement

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


def _search(x: np.ndarray, k: int, modes_at_h0: int | None):
    """The critical bandwidth search on a validated, sorted sample, as a generator.

    It yields each bandwidth whose mode count it needs and is sent back
    whether that count is at most ``k - 1``; it returns the
    :class:`CritBandResult`. Each bandwidth is asked for once, and
    ``iterations`` counts distinct bandwidths. A given ``modes_at_h0``, the
    mode count at the rule-of-thumb h0, counts as its first evaluation.
    """
    h0 = _silverman_bandwidth(x)
    answers = {} if modes_at_h0 is None else {h0: modes_at_h0 <= k - 1}

    def at_most(h):
        if h not in answers:
            answers[h] = yield h
        return answers[h]

    def result(h_crit, success: bool) -> CritBandResult:
        return CritBandResult(h_crit=h_crit, success=success, k=k, iterations=len(answers))

    # bracket the transition: more than k - 1 modes at h_lo, at most k - 1 at h_hi
    if (yield from at_most(h0)):
        h_hi, h_lo = h0, h0 / BRACKET_GROWTH
        while (yield from at_most(h_lo)):
            h_hi = h_lo
            h_lo /= BRACKET_GROWTH
            if h_lo < _BRACKET_FLOOR_RATIO * h0:
                # target count never exceeded: the infimum lies below the floor
                return result(h_lo, False)
    else:
        cap = _BRACKET_CAP_RANGES * (x[-1] - x[0])
        h_lo, h_hi = h0, min(h0 * BRACKET_GROWTH, cap)
        while not (yield from at_most(h_hi)):
            if h_hi >= cap:
                return result(h_hi, False)
            h_lo = h_hi
            h_hi = min(h_hi * BRACKET_GROWTH, cap)
    # bisect until (h_hi - h_lo) / h_hi < REL_TOL; give up after MAX_ITER
    # evaluations or once the bracket is two adjacent floats
    while (h_hi - h_lo) / h_hi >= REL_TOL:
        mid = 0.5 * (h_lo + h_hi)
        if len(answers) >= MAX_ITER or not h_lo < mid < h_hi:
            return result(h_hi, False)
        if (yield from at_most(mid)):
            h_hi = mid
        else:
            h_lo = mid
    # verify the transition on both sides of the answer
    below = h_hi * (1.0 - 10.0 * REL_TOL)
    return result(h_hi, (yield from at_most(h_hi)) and not (yield from at_most(below)))


def critical_bandwidth(x, k: int = 2) -> CritBandResult:
    """Smallest bandwidth at which the KDE of ``x`` has fewer than ``k`` modes.

    The returned ``h_crit`` is the upper end of the final bracket, so the
    estimate at ``h_crit`` always satisfies the at-most-``k - 1`` mode
    bound; ``success`` additionally confirms the count exceeds the bound
    just below. ``k=1`` has no attainable target (every density has at
    least one mode) and reports ``success=False``.
    """
    return _solve(as_sample(x, min_size=3), k)


def _solve(x: np.ndarray, k: int, modes_at_h0: int | None = None) -> CritBandResult:
    """:func:`critical_bandwidth` of a validated, sorted sample of size >= 3,
    with ``k`` checked; ``modes_at_h0`` seeds the search, as in :func:`_search`."""
    _check_count("k", k, 1)
    return _solve_each([(x, modes_at_h0)], k)[0]


def _verified(result: CritBandResult) -> CritBandResult:
    """``result``, or :class:`SolverError` if its search did not verify a transition."""
    if not result.success:
        raise SolverError(f"critical bandwidth search failed (k={result.k}, iterations={result.iterations})")
    return result


def _solve_each(problems, k: int) -> list[CritBandResult]:
    """:func:`_solve` of each ``(x, modes_at_h0)`` in ``problems``, in order,
    unchecked: ``k`` is valid and the samples are solvable and of one size.
    A block's worth of searches runs in lockstep, refilled from ``problems``:
    each step evaluates every live search at its pending bandwidth in one
    ``_kde_rows_at`` block, or by ``kde_fft`` if one is live, and sends each
    its answer, the one a solve of its own gets.
    """
    results: list[CritBandResult | None] = []
    live = []  # [result index, sample, search, pending bandwidth]

    def advance(slot, answer) -> bool:
        try:
            slot[3] = slot[2].send(answer)
            return True
        except StopIteration as done:
            results[slot[0]] = done.value
            return False

    def step() -> None:
        if len(live) == 1:
            answers = [count_modes(_kde_at(live[0][1], live[0][3])) <= k - 1]
        else:
            density = _kde_rows_at(np.array([slot[1] for slot in live]), [slot[3] for slot in live])
            answers = _at_most_modes(density, k - 1).tolist()
        live[:] = [slot for slot, answer in zip(live, answers) if advance(slot, answer)]

    for x, modes_at_h0 in problems:
        slot = [len(results), x, _search(x, k, modes_at_h0), None]
        results.append(None)
        if advance(slot, None):
            live.append(slot)
        while len(live) >= _block_rows(x.size + _grid_size(x.size)):
            step()
    while live:
        step()
    return results


def critical_bandwidth_ci(x, k: int = 2, resamples: int | None = None,
                          seed: int = 0) -> CritBandResult:
    """Point estimate plus a percentile bootstrap interval for ``h_crit``.

    Each replicate resamples the data with replacement (sub-seeded from
    ``(seed, replicate index)``) and re-runs the search; the searches run in
    lockstep blocks, with the answers of one solve per replicate whatever the
    block size. Replicates whose solve does not verify, or that draw one value
    only, are excluded and counted in ``ci_failures``; more than half failing
    raises :class:`CIUnreliableError`. The 95% interval is widened, if needed,
    to contain the point estimate. A bad seed or an unverified point solve
    (:class:`SolverError`) is refused before any replicate is drawn.
    """
    x = as_sample(x, min_size=3)
    _check_seed(seed)
    point = _verified(_solve(x, k))
    if resamples is None:
        resamples = DEFAULT_CI_RESAMPLES
        if x.size > _LARGE_SAMPLE:
            warnings.warn(
                f"bootstrap with the default {DEFAULT_CI_RESAMPLES} resamples on "
                f"n={x.size} will be slow; pass resamples explicitly to silence",
                stacklevel=2,
            )
    return _bootstrap(x, point, resamples, seed)


def _bootstrap(x: np.ndarray, point: CritBandResult, resamples: int, seed: int) -> CritBandResult:
    """``point``, the solve on the validated sample ``x``, with the interval
    of :func:`critical_bandwidth_ci` from ``resamples`` replicates."""
    _check_count("resamples", resamples, 99)
    replicates = (resample_with_replacement(x, derive_seed(seed, "ci", i)) for i in range(resamples))
    solved = _solve_each(((y, None) for y in replicates if y[0] != y[-1]), point.k)
    values = [r.h_crit for r in solved if r.success]
    failures = resamples - len(values)
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
