"""Deterministic random generation for sampling and resampling.

All randomness in the package flows through one pinned generator so that a
seed reproduces bit-identical results across platforms and runs:

* Bit source: PCG64 (numpy's permuted congruential generator, 64-bit
  output), keyed through ``SeedSequence``.
* Uniforms: the top 53 bits k of each 64-bit word, mapped to the open
  interval (0, 1) via ``(k + 0.5) / 2**53``, so transforms below never
  see 0 or 1. They are drawn through ``Generator.random``, which on PCG64
  reads the same k (see :func:`random_open01`); on a generator built on
  another bit source, MT19937 say, ``random`` combines two 32-bit words
  and the draws differ.
* Normals: inverse normal CDF applied to those uniforms (no ziggurat or
  rejection step, hence a fixed draw count per variate). The inverse CDF
  is SciPy's ``ndtri``, imported on the first draw rather than with the
  package, so only paths that draw normals (mixture sampling, the
  Silverman test) load ``scipy.special``.

Independent consumers (mixture sampling, bootstrap replicate *i*, ...)
derive their own stream from ``(seed, purpose tag, index)``, which keeps
replicate streams independent of evaluation order. :func:`substream` is
the reference for that derivation. The Monte Carlo tests' replicate loops
key their streams in bulk through ``_substreams``, which hashes every
index at once and gives each one the state ``substream`` gives it.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Iterator
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

# SeedSequence's hash (NumPy's numpy/random/bit_generator.pyx): pool size,
# the multipliers of its two hash-constant sequences and of ``mix``
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 2**32 - 1
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = 2**128 - 1
# indices keyed per vectorized pass
_KEY_BLOCK = 1024

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


def _words(value: int) -> list[int]:
    """``value`` as SeedSequence reads an entropy integer: its 32-bit words,
    least significant first, and one word for 0."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _pcg64_seed_words(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for every entropy row
    ``e`` at once, as a (4, rows) array.

    ``entropy`` holds the rows' 32-bit words as one uint32 array per word
    position. Every row has the same number of words, so every row meets
    the same sequence of hash constants, and NumPy's loops over the pool
    run once over whole columns, with uint32 arithmetic wrapping as theirs.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        state.append((value ^ (value >> 16)).astype(np.uint64))
    # little-endian: word 2j is the low half of 64-bit word j
    return np.array([state[j] | (state[j + 1] << 32) for j in range(0, 8, 2)])


def _substreams(seed: int, tag: str, indices: range) -> Iterator[np.random.Generator]:
    """The generators of ``substream(seed, tag, i)`` for each ``i`` in ``indices``.

    Indices are keyed in passes of up to ``_KEY_BLOCK``: one vectorized
    SeedSequence hash per pass (:func:`_pcg64_seed_words`), then PCG64's
    seeding step per index in Python integers (``pcg64_set_seed``: the
    increment is 2 s' + 1 and the state steps once from 0, adds s and
    steps again, for the seed words s, s'). One generator is re-keyed
    through ``bit_generator.state`` for every index, so a stream must be
    used up before the next one is taken.
    """
    head = _words(_check_seed(seed)) + _words(_tag_u64(tag))
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    # an index from 2**32 up takes a second entropy word: no pass spans both
    for low, high, width in ((indices.start, min(indices.stop, 2**32), 1),
                             (max(indices.start, 2**32), indices.stop, 2)):
        for start in range(low, high, _KEY_BLOCK):
            index = np.arange(min(_KEY_BLOCK, high - start), dtype=np.uint64) + np.uint64(start)
            columns = [np.full(index.size, word, dtype=np.uint32) for word in head]
            columns += [(index >> np.uint64(32 * k)).astype(np.uint32) for k in range(width)]
            seed_words = _pcg64_seed_words(columns)
            for row in range(index.size):
                s_hi, s_lo, i_hi, i_lo = seed_words[:, row].tolist()
                inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
                state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
                bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                       "has_uint32": 0, "uinteger": 0}
                yield rng


def derive_seed(seed: int, tag: str, index: int = 0) -> int:
    """Derive an independent 64-bit sub-seed for consumer ``(seed, tag, index)``."""
    entropy = [_check_seed(seed), _tag_u64(tag), int(index)]
    state = np.random.SeedSequence(entropy).generate_state(2, dtype=np.uint32)
    return int(state[0]) | (int(state[1]) << 32)


def random_open01(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform draws strictly inside (0, 1): (k + 0.5) 2^-53 rounded, for the
    top 53 bits k of one 64-bit word each when ``rng`` runs on PCG64.

    PCG64 is the package's only bit generator. On it these are the numbers
    the same formula gives on the draws of
    ``integers(0, 2**53, dtype=np.uint64)``. For a PCG64 word w, ``Generator.random`` is
    (w >> 11) 2^-53. ``integers`` with range 2^53 is Lemire's method: it
    returns (w 2^53) >> 64 = w >> 11 and never rejects, because its
    threshold (2^64 - 2^53) mod 2^53 is 0; so both read one word and the
    same k. Both then round the same real number, (k + 0.5) 2^-53, once:
    k 2^-53 is exact, and scaling by a power of two is exact in the normal
    range, so adding 2^-54 rounds as adding 0.5 before the scaling did.
    """
    # the top word's (k + 0.5) 2^-53 rounds up to 1.0: it takes the double below 1.0 instead
    return np.minimum(rng.random(size) + 2.0**-54, 1.0 - 2.0**-53)


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
