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


def _merge_shallow_pairs(values: np.ndarray, keep: list[int], peak: float) -> list[int]:
    """Agglomerate candidates whose shared saddle is too shallow.

    For each adjacent candidate pair, the saddle is the minimum run value
    between them; the pair has effectively merged when the shorter peak
    rises above that saddle by less than PROMINENCE_DEPTH_RATIO of its
    own height, or less than PROMINENCE_GLOBAL_RATIO of the global peak.
    The shallowest qualifying pair merges first (the shorter member is
    absorbed; on exact ties the right one), and saddles are recomputed
    until every remaining pair stands on its own.
    """
    while len(keep) > 1:
        depths = []
        for i in range(len(keep) - 1):
            saddle = values[keep[i] + 1 : keep[i + 1]].min()
            shorter = min(values[keep[i]], values[keep[i + 1]])
            depths.append((values[keep[i]], values[keep[i + 1]], shorter - saddle, shorter))
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
    contributes its full index range.
    """
    starts, ends, values = _value_runs(density)
    if values.size < 3:
        return starts[:0], ends[:0], values[:0]
    interior = slice(1, values.size - 1)
    is_max = (values[interior] > values[:-2]) & (values[interior] > values[2:])
    keep = np.flatnonzero(is_max) + 1
    peak = density.max()
    keep = keep[values[keep] >= PROMINENCE_RATIO * peak]
    if keep.size > 1:
        keep = np.asarray(_merge_shallow_pairs(values, list(keep), peak))
    return starts[keep], ends[keep], values[keep]


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
