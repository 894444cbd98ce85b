"""Mode and trough detection on evaluated density curves.

A mode is an interior strict local maximum of the curve, located at the
midpoint of its run of tied values (a plateau, typically FFT roundoff);
grid endpoints are never modes, since a maximum there is an artifact of
grid truncation. Candidates under PROMINENCE_RATIO (1e-6) of the tallest
value are dropped as floating-point micro-modes. Adjacent peaks then
merge, shallowest first, while the valley between them is shallower than
PROMINENCE_DEPTH_RATIO (0.8%) of the shorter peak or
PROMINENCE_GLOBAL_RATIO (0.2%) of the tallest (``_shallow``, applied by
``_merge_shallow_pairs``). The thresholds are module constants so that
calibration sweeps can revisit them in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotBimodalError
from .kde import DensityCurve, _kde_at, as_sample

__all__ = [
    "ModeSet",
    "Trough",
    "count_modes",
    "find_modes",
    "find_trough",
    "PROMINENCE_RATIO",
    "PROMINENCE_DEPTH_RATIO",
    "PROMINENCE_GLOBAL_RATIO",
]

# Candidates below this fraction of the tallest density value are treated
# as floating-point micro-modes in the far tails and dropped.
PROMINENCE_RATIO = 1e-6

# Adjacent peaks merge when the shorter one rises above their shared
# saddle by less than this fraction of its own height ...
PROMINENCE_DEPTH_RATIO = 8e-3

# ... or by less than this fraction of the tallest density value, which
# suppresses low ripples riding on the slope of a dominant component.
PROMINENCE_GLOBAL_RATIO = 2e-3


@dataclass(frozen=True)
class ModeSet:
    """Detected modes, ordered left to right."""

    locations: np.ndarray
    heights: np.ndarray

    @property
    def count(self) -> int:
        return self.locations.size


@dataclass(frozen=True)
class Trough:
    """Valley between the two tallest modes.

    ``ratio`` is the valley height divided by the taller of the two
    flanking peaks, in [0, 1]; small values mean deep separation.
    """

    location: float
    height: float
    ratio: float


def _value_runs(density: np.ndarray):
    """Compress consecutive exactly-equal values into (start, end, value) runs."""
    boundaries = np.flatnonzero(density[1:] != density[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries - 1, [density.size - 1]))
    return starts, ends, density[starts]


def _shallow(shorter, saddle, peak):
    """Whether adjacent peaks, the shorter one ``shorter`` high, have merged
    over ``saddle`` when the tallest value is ``peak``; elementwise."""
    depth = shorter - saddle
    return (depth < PROMINENCE_DEPTH_RATIO * shorter) | (depth < PROMINENCE_GLOBAL_RATIO * peak)


def _saddles(curve: np.ndarray, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """The minimum of ``curve`` strictly between ``lefts[i]`` and ``rights[i] > lefts[i] + 1``."""
    bounds = np.empty(2 * lefts.size, dtype=np.intp)
    bounds[0::2], bounds[1::2] = lefts + 1, rights
    return np.minimum.reduceat(curve, bounds)[0::2]


def _merge_shallow_pairs(heights: np.ndarray, saddles: np.ndarray, peak: float) -> list[int]:
    """Agglomerate candidates whose shared saddle is too shallow.

    ``heights`` are the candidates' heights left to right and ``saddles[i]``
    the lowest value between candidates ``i`` and ``i + 1``. The shallow
    pair by ``_shallow`` whose shorter peak rises least above its saddle,
    relative to its height, merges first; its shorter member is absorbed,
    the right one on exact ties. An absorbed candidate stands above both
    its saddles, so the pair it joins takes the lower of them. Returns the
    indices of the survivors once no pair is shallow.
    """
    keep = list(range(heights.size))
    heights = heights.tolist()
    saddles = [np.inf, *saddles.tolist(), np.inf]  # candidate j stands between saddles j and j + 1
    while len(keep) > 1:
        pairs = zip(map(min, heights, heights[1:]), saddles[1:-1])  # (shorter, saddle)
        shallow = [((shorter - saddle) / shorter, i)
                   for i, (shorter, saddle) in enumerate(pairs) if _shallow(shorter, saddle, peak)]
        if not shallow:
            break
        _, i = min(shallow)
        j = i + 1 if heights[i + 1] <= heights[i] else i
        del keep[j], heights[j]
        saddles[j : j + 2] = [min(saddles[j], saddles[j + 1])]
    return keep


def _mode_runs(density: np.ndarray):
    """Interior local-maximum runs surviving the prominence cleanup.

    Returns (start, end, height) arrays, one entry per mode; a plateau
    contributes its full index range. A maximum run is entered by a
    rising step and left by a falling one, so the first and last runs of
    the curve are never candidates.
    """
    diffs = density[1:] - density[:-1]  # zero exactly where neighbours are equal
    rising = diffs > 0.0
    starts = np.flatnonzero(rising[:-1] & ~rising[1:]) + 1  # entered by a rise, not left by one
    ends = starts
    if (diffs[starts] == 0.0).any():
        # some of them are plateaus: each ends at the next nonzero step,
        # and is a maximum only if that step falls
        steps = np.flatnonzero(diffs)
        after = np.searchsorted(steps, starts)
        closed = after < steps.size  # a plateau reaching the last point is no maximum
        starts, ends = starts[closed], steps[after[closed]]
        falls = diffs[ends] < 0.0
        starts, ends = starts[falls], ends[falls]
    heights = density[starts]
    peak = float(density.max())  # a Python float keeps the merge loop's scalar tests cheap
    prominent = heights >= PROMINENCE_RATIO * peak
    starts, ends, heights = starts[prominent], ends[prominent], heights[prominent]
    if starts.size > 1:
        keep = _merge_shallow_pairs(heights, _saddles(density, ends[:-1], starts[1:]), peak)
        starts, ends, heights = starts[keep], ends[keep], heights[keep]
    return starts, ends, heights


def _at_most_modes(density: np.ndarray, m: int) -> np.ndarray:
    """Whether each row of a (k, g) block of curves has at most ``m`` modes.

    Exactly ``_mode_runs(row)[0].size <= m`` for every row, decided for the
    whole block from the candidates ``_mode_runs`` starts from: the points
    entered by a rise and not left by one that reach PROMINENCE_RATIO of
    the row's peak. Later steps only drop or merge candidates, so a row
    with at most ``m`` of them has at most ``m`` modes. Rows with a plateau
    candidate go to ``_mode_runs``; in the others every candidate is a
    single point, so with no shallow pair each is a mode, and otherwise
    ``_merge_shallow_pairs`` runs on the row's heights and saddles.
    """
    diffs = density[:, 1:] - density[:, :-1]  # as in _mode_runs
    rising = diffs > 0.0
    peaks = density.max(axis=1)
    candidates = rising[:, :-1] & ~rising[:, 1:]
    candidates &= density[:, 1:-1] >= PROMINENCE_RATIO * peaks[:, None]
    at_most = candidates.sum(axis=1) <= m
    plateau = (candidates & (diffs[:, 1:] == 0.0)).any(axis=1)
    for i in np.flatnonzero(~at_most & plateau):
        at_most[i] = _mode_runs(density[i])[0].size <= m
    open_rows = np.flatnonzero(~at_most & ~plateau)
    peaks = peaks[open_rows]
    row, col = np.nonzero(candidates[open_rows])
    at = row * density.shape[1] + col + 1  # each candidate's index in the rows laid end to end
    curves = density[open_rows].ravel()
    heights = curves[at]
    saddles = _saddles(curves, at[:-1], at[1:])  # the one after a row's last candidate is no pair's
    shallow = (row[1:] == row[:-1]) & _shallow(
        np.minimum(heights[:-1], heights[1:]), saddles, peaks[row[:-1]])
    first = np.searchsorted(row, np.arange(open_rows.size + 1))  # row r: first[r]:first[r + 1]
    for r in np.unique(row[:-1][shallow]):
        lo, hi = first[r], first[r + 1]
        keep = _merge_shallow_pairs(heights[lo:hi], saddles[lo : hi - 1], float(peaks[r]))
        at_most[open_rows[r]] = len(keep) <= m
    return at_most


def count_modes(curve: DensityCurve) -> int:
    """Number of modes of the evaluated density."""
    starts, _, _ = _mode_runs(curve.density)
    return int(starts.size)


def _modes_of_curve(curve: DensityCurve) -> tuple[ModeSet, np.ndarray, np.ndarray]:
    pts = curve.grid.points
    starts, ends, heights = _mode_runs(curve.density)
    locations = 0.5 * (pts[starts] + pts[ends])  # plateau midpoint
    return ModeSet(locations=locations, heights=heights), starts, ends


def find_modes(x, h) -> ModeSet:
    """Locate the modes of the KDE of ``x`` at bandwidth ``h``."""
    modes, _, _ = _modes_of_curve(_kde_at(as_sample(x), h))
    return modes


def _trough_of_curve(curve: DensityCurve, mode_runs) -> Trough:
    """Trough of ``curve`` given its ``_modes_of_curve(curve)``."""
    modes, starts, ends = mode_runs
    if modes.count < 2:
        raise NotBimodalError(
            f"trough: need at least 2 modes at this bandwidth, found {modes.count}"
        )
    # the two tallest peaks; ties broken toward the leftmost location
    order = np.lexsort((np.arange(modes.count), -modes.heights))
    i, j = sorted(order[:2])
    lo, hi = ends[i] + 1, starts[j]  # strictly between the flanking runs
    density = curve.density
    segment = density[lo:hi]
    valley_value = segment.min()
    # midpoint of the first run attaining the minimum, for symmetry
    vstarts, vends, vvalues = _value_runs(segment)
    run = np.flatnonzero(vvalues == valley_value)[0]
    pts = curve.grid.points
    location = 0.5 * (pts[lo + vstarts[run]] + pts[lo + vends[run]])
    ratio = float(valley_value / max(modes.heights[i], modes.heights[j]))
    return Trough(location=float(location), height=float(valley_value), ratio=ratio)


def find_trough(x, h) -> Trough:
    """Locate the valley between the two tallest modes of the KDE at ``h``."""
    curve = _kde_at(as_sample(x), h)
    return _trough_of_curve(curve, _modes_of_curve(curve))
