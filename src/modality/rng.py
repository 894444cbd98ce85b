"""Deterministic random generation for sampling and resampling.

All randomness in the package flows through one pinned generator so that a
seed reproduces bit-identical results across platforms and runs:

* Bit source: PCG64 (numpy's permuted congruential generator, 64-bit
  output), keyed through ``SeedSequence``.
* Uniforms: 53-bit integers mapped to the open interval (0, 1) via
  ``(k + 0.5) / 2**53``, so transforms below never see 0 or 1.
* Normals: inverse normal CDF applied to those uniforms (no ziggurat or
  rejection step, hence a fixed draw count per variate). The inverse CDF
  is SciPy's ``ndtri``, imported on the first draw rather than with the
  package, so only paths that draw normals (mixture sampling, the
  Silverman test) load ``scipy.special``.

Independent consumers (mixture sampling, bootstrap replicate *i*, ...)
derive their own stream from ``(seed, purpose tag, index)``, which keeps
replicate streams independent of evaluation order.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "MixtureSpec",
    "substream",
    "derive_seed",
    "random_open01",
    "standard_normals",
    "component_counts",
    "sample_mixture",
    "resample_with_replacement",
]

_SEED_MAX = 2**64 - 1

WEIGHT_SUM_TOL = 1e-12


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)):
        raise ValidationError(f"seed: expected an integer, got {type(seed).__name__}")
    if not 0 <= seed <= _SEED_MAX:
        raise ValidationError(f"seed: must be in [0, 2**64), got {seed}")
    return int(seed)


def _tag_u64(tag: str) -> int:
    """Stable 64-bit hash of a purpose tag (process-independent)."""
    return int.from_bytes(hashlib.blake2b(tag.encode(), digest_size=8).digest(), "little")


def substream(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Return the generator for logical consumer ``(seed, tag, index)``."""
    entropy = [_check_seed(seed), _tag_u64(tag), int(index)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, tag: str, index: int = 0) -> int:
    """Derive an independent 64-bit sub-seed for consumer ``(seed, tag, index)``."""
    entropy = [_check_seed(seed), _tag_u64(tag), int(index)]
    state = np.random.SeedSequence(entropy).generate_state(2, dtype=np.uint32)
    return int(state[0]) | (int(state[1]) << 32)


def random_open01(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform draws strictly inside (0, 1), one 53-bit word each."""
    k = rng.integers(0, 1 << 53, size=size, dtype=np.uint64)
    # the top word's (k + 0.5) 2^-53 rounds up to 1.0: it takes the double below 1.0 instead
    return np.minimum((k.astype(np.float64) + 0.5) * 2.0**-53, 1.0 - 2.0**-53)


@functools.cache
def _ndtri():
    """SciPy's inverse normal CDF, imported on the first draw.

    Cached, because a function-local import statement costs more per draw
    than this call does.
    """
    from scipy.special import ndtri
    return ndtri


def standard_normals(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normal draws via the inverse-CDF transform."""
    return _ndtri()(random_open01(rng, size))


@dataclass(frozen=True)
class MixtureSpec:
    """Gaussian mixture to sample from.

    ``components`` is a sequence of ``(weight, mean, std)`` triples whose
    weights sum to one; ``n`` is the number of draws.
    """

    components: tuple[tuple[float, float, float], ...]
    n: int

    def __post_init__(self):
        object.__setattr__(
            self, "components", tuple(tuple(float(v) for v in c) for c in self.components)
        )
        if not self.components:
            raise ValidationError("components: at least one (weight, mean, std) required")
        for i, (w, mean, std) in enumerate(self.components):
            if not 0.0 < w <= 1.0:
                raise ValidationError(f"components[{i}].weight: must be in (0, 1], got {w}")
            if not np.isfinite(mean):
                raise ValidationError(f"components[{i}].mean: must be finite, got {mean}")
            if not (np.isfinite(std) and std > 0.0):
                raise ValidationError(f"components[{i}].std: must be positive, got {std}")
        total = sum(w for w, _, _ in self.components)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"components: weights must sum to 1, got {total!r}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValidationError(f"n: must be an integer >= 1, got {self.n!r}")

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _, _ in self.components])

    @property
    def means(self) -> np.ndarray:
        return np.array([m for _, m, _ in self.components])

    @property
    def stds(self) -> np.ndarray:
        return np.array([s for _, _, s in self.components])


def component_counts(weights: np.ndarray, n: int) -> np.ndarray:
    """Deterministic per-component draw counts proportional to weights.

    Cumulative rounding: component i receives round(cum_i * n) minus the
    draws already allocated, so counts always sum to n and each count is
    within one draw of w_i * n.
    """
    cum = np.round(np.cumsum(weights) * n).astype(np.int64)
    cum[-1] = n
    return np.diff(np.concatenate(([0], cum)))


def sample_mixture(spec: MixtureSpec, seed: int) -> np.ndarray:
    """Draw ``spec.n`` points from the mixture, sorted ascending.

    Component membership is allocated proportionally to the weights
    (fixed counts, see :func:`component_counts`) rather than resampled
    per draw, which keeps the realized mixture weights pinned and makes
    per-seed critical bandwidths comparable across seeds. Each component
    then draws its normals from its own substream ``(seed, "mixture",
    component index)``, so one component's draws do not depend on the
    sizes of the others. The output is a pure function of
    ``(spec, seed)``.
    """
    if not isinstance(spec, MixtureSpec):
        spec = MixtureSpec(tuple(spec.components), spec.n)  # re-validate duck-typed input
    counts = component_counts(spec.weights, spec.n)
    parts = []
    for i, ((_, mean, std), c) in enumerate(zip(spec.components, counts)):
        z = standard_normals(substream(seed, "mixture", i), int(c))
        parts.append(mean + std * z)
    return np.sort(np.concatenate(parts))


def resample_with_replacement(x: np.ndarray, seed: int) -> np.ndarray:
    """Bootstrap resample of ``x`` (uniform with replacement), sorted."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValidationError("x: cannot resample an empty sample")
    rng = substream(seed, "resample")
    idx = rng.integers(0, x.size, size=x.size)
    return np.sort(x[idx])
