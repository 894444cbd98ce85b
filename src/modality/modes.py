"""Mode and trough detection on evaluated density curves.

A mode candidate is a run of equal values (one point, or a plateau,
typically FFT roundoff) entered by a rising step, left by a falling one,
and at least PROMINENCE_RATIO (1e-6) of the tallest value, lower ones
being floating-point micro-modes; so a grid endpoint, where a maximum is
an artifact of grid truncation, is never a mode (``_candidate_runs``).
Adjacent candidates then merge, shallowest first, while the valley
between them is shallower than PROMINENCE_DEPTH_RATIO (0.8%) of the
shorter peak or PROMINENCE_GLOBAL_RATIO (0.2%) of the tallest
(``_shallow``, applied by ``_merge_shallow_pairs``); each survivor is a
mode, located at the midpoint of its run. The thresholds are module
constants so that calibration sweeps can revisit them in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotBimodalError
from .kde import DensityCurve, _check_type, _kde_at, as_sample

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


def _candidate_runs(density: np.ndarray):
    """The mode candidates of a curve, or of each row of a (k, g) block.

    Returns (row, start, end, peaks): one entry per candidate run, row by
    row and left to right, with ``start`` and ``end`` indexing the rows
    laid end to end (for a curve, its own indices, all in row 0), and the
    peak of each row.
    """
    g = density.shape[-1]
    curves = density.ravel()
    diffs = curves[1:] - curves[:-1]  # zero exactly where neighbours are equal
    rising = diffs > 0.0
    entered = rising[:-1] > rising[1:]  # entered[i]: point i + 1 is entered by a rise, not left by one
    if density.ndim > 1:  # the step between two rows is neither's (a curve has no such step)
        entered[g - 2 :: g] = entered[g - 1 :: g] = False
    starts = entered.nonzero()[0] + 1
    rows = starts // g
    peaks = density.max(axis=-1, keepdims=density.ndim == 1)  # one per row; a curve is one row
    prominent = curves[starts] >= PROMINENCE_RATIO * peaks[rows]
    rows, starts = rows[prominent], starts[prominent]
    ends = starts
    if not diffs[starts].all():
        # some of them are plateaus: each ends at the next nonzero step,
        # and is a maximum only if that step falls inside its row
        steps = diffs.nonzero()[0]
        ends = np.append(steps, curves.size - 1)[np.searchsorted(steps, starts)]
        maxima = (ends < (rows + 1) * g - 1) & (diffs.take(ends, mode="clip") < 0.0)
        rows, starts, ends = rows[maxima], starts[maxima], ends[maxima]
    return rows, starts, ends, peaks


def _mode_runs(density: np.ndarray):
    """(start, end, height) of each mode of a curve, a plateau by its full
    index range: the curve's candidate runs after ``_merge_shallow_pairs``."""
    _, starts, ends, peaks = _candidate_runs(density)
    heights = density[starts]
    if starts.size > 1:
        # a Python float peak keeps the merge loop's scalar tests cheap
        keep = _merge_shallow_pairs(heights, _saddles(density, ends[:-1], starts[1:]), float(peaks[0]))
        starts, ends, heights = starts[keep], ends[keep], heights[keep]
    return starts, ends, heights


def _at_most_modes(density: np.ndarray, m: int) -> np.ndarray:
    """Whether each row of a (k, g) block of curves has at most ``m`` modes.

    Exactly ``_mode_runs(row)[0].size <= m`` for every row, decided for the
    whole block from its candidate runs. The merge only drops candidates,
    so a row with at most ``m`` of them has at most ``m`` modes; in a row
    with more and no shallow pair every candidate is a mode; the other
    rows run ``_merge_shallow_pairs`` on their heights and saddles.
    """
    rows, starts, ends, peaks = _candidate_runs(density)
    at_most = np.bincount(rows, minlength=density.shape[0]) <= m
    more = ~at_most[rows]
    rows, starts, ends = rows[more], starts[more], ends[more]
    curves = density.ravel()
    heights = curves[starts]
    saddles = _saddles(curves, ends[:-1], starts[1:])  # the one after a row's last candidate is no pair's
    shallow = (rows[1:] == rows[:-1]) & _shallow(
        np.minimum(heights[:-1], heights[1:]), saddles, peaks[rows[:-1]])
    first = np.searchsorted(rows, np.arange(density.shape[0] + 1))  # row r: first[r]:first[r + 1]
    for r in np.unique(rows[:-1][shallow]):
        lo, hi = first[r], first[r + 1]
        keep = _merge_shallow_pairs(heights[lo:hi], saddles[lo : hi - 1], float(peaks[r]))
        at_most[r] = len(keep) <= m
    return at_most


def count_modes(curve: DensityCurve) -> int:
    """Number of modes of the evaluated density."""
    starts, _, _ = _mode_runs(_check_type("curve", curve, DensityCurve).density)
    return int(starts.size)


def _modes_of_curve(curve: DensityCurve) -> tuple[ModeSet, np.ndarray, np.ndarray]:
    pts = curve.grid.points
    starts, ends, heights = _mode_runs(curve.density)
    locations = 0.5 * (pts[starts] + pts[ends])  # plateau midpoint
    return ModeSet(locations=locations, heights=heights), starts, ends


def _modes_payload(mode_set: ModeSet) -> dict:
    """``mode_set`` as the plain ``count``, ``locations`` and ``heights`` of a report."""
    return {"count": mode_set.count, "locations": mode_set.locations.tolist(),
            "heights": mode_set.heights.tolist()}


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
    # midpoint of the first run attaining the minimum, for symmetry
    first = int(segment.argmin())
    valley_value = segment[first]
    last = first + int(np.argmax(np.append(segment[first:], np.inf) > valley_value)) - 1
    pts = curve.grid.points
    location = 0.5 * (pts[lo + first] + pts[lo + last])
    ratio = float(valley_value / max(modes.heights[i], modes.heights[j]))
    return Trough(location=float(location), height=float(valley_value), ratio=ratio)


def find_trough(x, h) -> Trough:
    """Locate the valley between the two tallest modes of the KDE at ``h``."""
    curve = _kde_at(as_sample(x), h)
    return _trough_of_curve(curve, _modes_of_curve(curve))
