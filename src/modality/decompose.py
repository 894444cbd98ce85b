"""Two-component decomposition, the bimodality strength metric, and
:func:`analyze`, which reports both with the critical bandwidth in one call."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotBimodalError, SolverError
from .kde import _kde_at, _silverman_bandwidth, as_sample
from .modes import _modes_of_curve, _modes_payload, _trough_of_curve
from .rng import _check_seed
from .solver import CritBandResult, _bootstrap, _solve, _verified

__all__ = [
    "Analysis",
    "Component",
    "Decomposition",
    "StrengthReport",
    "detect_components",
    "bimodality_strength",
    "analyze",
    "classify_strength",
    "STRENGTH_MODERATE",
    "STRENGTH_STRONG",
]

# Ratio cutoffs for the strength label; heuristic summaries, not
# calibrated decision thresholds. Below the first is "weak", at or above
# the second is "strong".
STRENGTH_MODERATE = 1.0
STRENGTH_STRONG = 2.0


@dataclass(frozen=True)
class Component:
    """Summary statistics of one side of the split."""

    mean: float
    std: float
    weight: float


@dataclass(frozen=True)
class Decomposition:
    """Trough split of a bimodal sample.

    ``component1`` is the lower-mean side; ``dip_ratio`` is the valley
    height over the taller peak, so small values mean clean separation.
    """

    component1: Component
    component2: Component
    separation_point: float
    dip_ratio: float


@dataclass(frozen=True)
class StrengthReport:
    """Continuous bimodality strength: merge bandwidth over rule-of-thumb."""

    ratio: float
    label: str


def detect_components(x) -> Decomposition:
    """Split a bimodal sample at the KDE valley into two summarized groups.

    The density is taken at the rule-of-thumb bandwidth; with fewer than
    two modes there the split is undefined and callers may retry with an
    explicit smaller bandwidth via :func:`modality.modes.find_trough`.
    Side weights are exact sample fractions; a single-point side reports
    a standard deviation of zero.
    """
    x = as_sample(x, min_size=2)
    curve = _kde_at(x, _silverman_bandwidth(x))
    return _components_of_curve(x, curve, _modes_of_curve(curve))


def _components_of_curve(x: np.ndarray, curve, mode_runs) -> Decomposition:
    """:func:`detect_components` of a sorted sample, split on its curve at h0
    with that curve's ``_modes_of_curve``."""
    if mode_runs[0].count < 2:
        raise NotBimodalError(
            "decomposition: sample is unimodal at the rule-of-thumb bandwidth"
        )
    trough = _trough_of_curve(curve, mode_runs)
    left = x[x <= trough.location]
    right = x[x > trough.location]
    if left.size == 0 or right.size == 0:
        raise NotBimodalError("decomposition: no observations on one side of the valley")
    w = left.size / x.size

    def _component(side: np.ndarray, weight: float) -> Component:
        std = float(np.std(side, ddof=1)) if side.size > 1 else 0.0
        return Component(mean=float(side.mean()), std=std, weight=weight)

    return Decomposition(
        component1=_component(left, w),
        component2=_component(right, 1.0 - w),
        separation_point=trough.location,
        dip_ratio=trough.ratio,
    )


def classify_strength(ratio: float) -> str:
    if ratio < STRENGTH_MODERATE:
        return "weak"
    if ratio < STRENGTH_STRONG:
        return "moderate"
    return "strong"


def bimodality_strength(x) -> StrengthReport:
    """How much extra smoothing merges the two modes, as a scale-free ratio.

    Ratio of the bimodal critical bandwidth to the rule-of-thumb
    bandwidth; both scale with the data, so the ratio is affine
    invariant. Labels follow the module cutoffs.
    """
    x = as_sample(x, min_size=3)
    return _strength_of(_solve(x, 2), _silverman_bandwidth(x))


def _strength_of(result: CritBandResult, h0: float) -> StrengthReport:
    """:func:`bimodality_strength` from a k = 2 solve, :class:`SolverError` unless verified, and h0."""
    ratio = _verified(result).h_crit / h0
    return StrengthReport(ratio=float(ratio), label=classify_strength(float(ratio)))


@dataclass(frozen=True)
class Analysis:
    """The report of :func:`analyze`; ``dataclasses.asdict`` of it is the
    CLI's ``analyze`` report without ``input``."""

    h_silverman: float
    h_crit: float
    k: int
    success: bool
    iterations: int
    ci: dict | None
    modes: dict
    decomposition: Decomposition | None
    strength: StrengthReport | None


def analyze(x, k: int = 2, resamples: int | None = None, seed: int = 0) -> Analysis:
    """Is ``x`` multimodal, and how strongly? The critical bandwidth for ``k``,
    the modes and decomposition at the rule-of-thumb h0, and the strength,
    from one validation and one curve at h0, whose mode count seeds each solve.

    ``ci`` is the bootstrap interval of ``resamples`` replicates keyed on
    ``seed``, drawn only when ``resamples`` is given; ``decomposition`` is
    None below two modes at h0, and ``strength`` when the k = 2 search fails.
    A search for ``k`` that does not verify raises :class:`SolverError`.
    """
    x = as_sample(x, min_size=3)
    if resamples is not None:
        _check_seed(seed)  # before the point solve, not at the interval's first replicate
    h0 = _silverman_bandwidth(x)
    # the one curve at h0 gives the modes, the decomposition and the first
    # mode count of the solves below, which start at h0
    curve = _kde_at(x, h0)
    mode_runs = _modes_of_curve(curve)
    count = mode_runs[0].count
    result = _verified(_solve(x, k, count))  # before the interval draws a replicate
    if resamples is not None:
        result = _bootstrap(x, result, resamples, seed)
    decomposition = _components_of_curve(x, curve, mode_runs) if count >= 2 else None
    try:
        strength = _strength_of(result if k == 2 else _solve(x, 2, count), h0)
    except SolverError:
        strength = None
    ci = None if result.ci_method is None else {
        "low": result.ci_low, "high": result.ci_high, "std_error": result.std_error,
        "method": result.ci_method, "failures": result.ci_failures}
    return Analysis(h0, result.h_crit, result.k, result.success, result.iterations,
                    ci, _modes_payload(mode_runs[0]), decomposition, strength)
