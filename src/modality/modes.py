"""Mode and trough detection on evaluated density curves.

A mode is an interior strict local maximum after three cleanups: runs of
exactly tied values (plateaus, typically FFT roundoff) merge into a
single candidate at the plateau midpoint; candidates below a small
fraction of the global peak are dropped as floating-point micro-modes;
and adjacent candidates separated by a saddle almost as high as the
shorter of them agglomerate into one (see ``_merge_shallow_pairs``).
Grid endpoints are never modes; a maximum at the boundary is an artifact
of grid truncation.

All thresholds are module constants so calibration sweeps can revisit
them in one place.
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


def _merge_shallow_pairs(density: np.ndarray, starts, ends, peak: float) -> list[int]:
    """Agglomerate candidates whose shared saddle is too shallow.

    Candidate ``i`` is the maximum run ``density[starts[i] : ends[i] + 1]``.
    For each adjacent candidate pair, the saddle is the minimum density
    between their runs; the pair has effectively merged when the shorter
    peak rises above that saddle by less than PROMINENCE_DEPTH_RATIO of
    its own height, or less than PROMINENCE_GLOBAL_RATIO of the global
    peak. The shallowest qualifying pair merges first (the shorter member
    is absorbed; on exact ties the right one), and saddles are recomputed
    until every remaining pair stands on its own. Returns the indices of
    the surviving candidates.
    """
    keep = list(range(len(starts)))
    while len(keep) > 1:
        depths = []
        for a, b in zip(keep, keep[1:]):
            saddle = density[ends[a] + 1 : starts[b]].min()
            left_h, right_h = density[starts[a]], density[starts[b]]
            shorter = min(left_h, right_h)
            depths.append((left_h, right_h, shorter - saddle, shorter))
        qualifying = [
            (depth / shorter, i)
            for i, (_, _, depth, shorter) in enumerate(depths)
            if depth < PROMINENCE_DEPTH_RATIO * shorter or depth < PROMINENCE_GLOBAL_RATIO * peak
        ]
        if not qualifying:
            return keep
        _, i = min(qualifying)
        left_h, right_h = depths[i][0], depths[i][1]
        keep.pop(i + 1 if right_h <= left_h else i)
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
    peak = density.max()
    prominent = heights >= PROMINENCE_RATIO * peak
    starts, ends, heights = starts[prominent], ends[prominent], heights[prominent]
    if starts.size > 1:
        keep = _merge_shallow_pairs(density, starts, ends, peak)
        starts, ends, heights = starts[keep], ends[keep], heights[keep]
    return starts, ends, heights


def _at_most_modes(density: np.ndarray, m: int) -> np.ndarray:
    """Whether each row of a (k, g) block of curves has at most ``m`` modes.

    Exactly ``_mode_runs(row)[0].size <= m`` for every row, decided for the
    whole block from the candidates ``_mode_runs`` starts from: the points
    entered by a rise and not left by one that reach PROMINENCE_RATIO of
    the row's peak. Later steps only drop or merge candidates, so a row
    with at most ``m`` of them has at most ``m`` modes. In a row whose
    candidates are all single points, the saddles of its adjacent pairs
    are the ones ``_merge_shallow_pairs`` first looks at: with no shallow
    pair every candidate is a mode, and with ``m + 1`` candidates and a
    shallow pair one of them merges away. Rows with a plateau candidate,
    and rows with more candidates and a shallow pair, go to ``_mode_runs``.
    """
    diffs = density[:, 1:] - density[:, :-1]  # as in _mode_runs
    rising = diffs > 0.0
    peaks = density.max(axis=1)
    candidates = rising[:, :-1] & ~rising[:, 1:]
    candidates &= density[:, 1:-1] >= PROMINENCE_RATIO * peaks[:, None]
    counts = candidates.sum(axis=1)
    at_most = counts <= m
    plateau = (candidates & (diffs[:, 1:] == 0.0)).any(axis=1)
    exact = np.flatnonzero(~at_most & plateau)
    open_rows = np.flatnonzero(~at_most & ~plateau)
    row, col = np.nonzero(candidates[open_rows])
    pair = np.flatnonzero(row[1:] == row[:-1])  # adjacent candidates of one row
    if pair.size:
        curves = density[open_rows].ravel()
        at = row * density.shape[1] + col + 1  # each candidate's index in curves
        left, right = at[pair], at[pair + 1]
        bounds = np.empty(2 * pair.size, dtype=np.intp)
        bounds[0::2], bounds[1::2] = left + 1, right
        saddles = np.minimum.reduceat(curves, bounds)[0::2]  # min strictly between the pair
        shorter = np.minimum(curves[left], curves[right])
        depth = shorter - saddles
        shallow = (depth < PROMINENCE_DEPTH_RATIO * shorter) | (
            depth < PROMINENCE_GLOBAL_RATIO * peaks[open_rows[row[pair]]])
        merges = np.bincount(row[pair][shallow], minlength=open_rows.size) > 0
        at_most[open_rows] = merges & (counts[open_rows] == m + 1)
        exact = np.concatenate((exact, open_rows[merges & (counts[open_rows] > m + 1)]))
    for i in exact:
        at_most[i] = _mode_runs(density[i])[0].size <= m
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
