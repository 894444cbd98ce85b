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
  is :func:`_ndtri`, a NumPy port of the Cephes ``ndtri`` that SciPy
  compiles as ``scipy.special.ndtri``: it returns SciPy's doubles, and
  the package needs NumPy alone. It runs once per array of uniforms, so
  the Monte Carlo tests and mixture sampling draw a block's uniforms
  first and transform them in one pass.

Independent consumers (mixture sampling, bootstrap replicate *i*, ...)
derive their own stream from ``(seed, purpose tag, index)``, which keeps
replicate streams independent of evaluation order. :func:`substream` is
the reference for that derivation. The Monte Carlo tests draw their rows
through ``_replicate_blocks``, which keys them in bulk (``_substreams``
hashes every index at once, with the state ``substream`` gives it); the
bootstrap interval still keys each replicate alone, with :func:`derive_seed`.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kde import _block_rows, _check_count, _check_real, _check_type, _sample

__all__ = [
    "MixtureSpec",
    "substream",
    "derive_seed",
    "random_open01",
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
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
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


def _replicate_blocks(seed: int, tag: str, resamples: int, values_per_row: int,
                      draw: Callable[[np.random.Generator], tuple]) -> Iterator[tuple[np.ndarray, ...]]:
    """Replicates 0 .. resamples - 1 of ``(seed, tag)``, ``kde._block_rows(values_per_row)``
    to a block: each block stacks, row by row, the arrays ``draw(g)`` returns
    for replicate i's generator g, keyed in bulk as ``substream(seed, tag, i)``."""
    streams = _substreams(seed, tag, range(resamples))
    rows = _block_rows(values_per_row)
    for start in range(0, resamples, rows):
        block = [draw(next(streams)) for _ in range(min(rows, resamples - start))]
        yield tuple(np.stack(column) for column in zip(*block))


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
    return _open01(rng.random(size))


def _open01(r: np.ndarray) -> np.ndarray:
    """Map draws k 2^-53 of ``Generator.random`` in place to (k + 0.5) 2^-53
    rounded, as :func:`random_open01` does."""
    r += 2.0**-54
    # the top word's (k + 0.5) 2^-53 rounds up to 1.0: it takes the double below 1.0 instead
    return np.minimum(r, 1.0 - 2.0**-53, out=r)


# Cephes ndtri (Moshier): the constants and coefficients of SciPy's compiled ndtri
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_EXPM2 = 0.13533528323661269189  # exp(-2)
# central branch: exp(-2) < y <= 1 - exp(-2)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# tails with sqrt(-2 log y) < 8, that is y > exp(-32)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# the far tails, y <= exp(-32)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Cephes ``polevl``: Horner's rule from the leading coefficient ``coef[0]``."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Cephes ``p1evl``: :func:`_polevl` with an implied leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _log(a: np.ndarray) -> np.ndarray:
    """The C library's ``log`` of each ``a``, for positive normal ``a`` outside [0.5, 2).

    NumPy's float64 ``log`` runs its own SIMD kernels, which differ from
    the C library's ``log`` in the last bit on a few values in 10^4.
    NumPy's complex ``log`` calls the C library's ``clog``, whose real part
    is ``log(|a|)`` itself for such ``a``.
    """
    return np.log(a.astype(np.complex128)).real


def _ndtri(p: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each ``p`` in the open interval (0, 1).

    A NumPy port of Cephes ``ndtri`` (S. L. Moshier), which SciPy compiles
    as ``scipy.special.ndtri``. Its operations are Cephes' own, in the same
    order, so it returns the same doubles as SciPy. Its logarithms are the
    C library's (see :func:`_log`), as in SciPy's compiled code, and both
    read arguments outside [0.5, 2): y in [2^-54, exp(-2)], and
    sqrt(-2 log y) in [2, 8.7]. Each branch runs once over the array: the
    central rational function on every value, which is finite on the
    tails too, then the tail functions on the tails, whose results
    overwrite the central ones there.
    """
    flip = p > 1.0 - _EXPM2
    y = np.where(flip, 1.0 - p, p)

    c = y - 0.5
    c2 = c * c
    x = c + c * (c2 * _polevl(c2, _P0) / _p1evl(c2, _Q0))
    x *= _S2PI

    tail = np.flatnonzero(y <= _EXPM2)
    r = np.sqrt(-2.0 * _log(np.take(y, tail)))
    x0 = r - _log(r) / r
    z = 1.0 / r
    x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    far = np.flatnonzero(r >= 8.0)
    if far.size:
        z = np.take(z, far)
        np.put(x1, far, z * _polevl(z, _P2) / _p1evl(z, _Q2))
    x0 -= x1
    # the lower tail is negative; the upper one, flipped onto the lower, positive
    np.negative(x0, out=x0, where=~np.take(flip, tail))
    np.put(x, tail, x0)
    return x


@dataclass(frozen=True)
class MixtureSpec:
    """Gaussian mixture to sample from.

    ``components`` is a sequence of ``(weight, mean, std)`` triples whose
    weights sum to one; ``n`` is the number of draws.
    """

    components: tuple[tuple[float, float, float], ...]
    n: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "components", tuple(
                tuple(_check_real(f"components[{i}].{field}", v)
                      for field, v in zip(("weight", "mean", "std"), c, strict=True))
                for i, c in enumerate(self.components)))
        except (TypeError, ValueError):  # not an iterable of triples
            raise ValidationError(f"components: expected (weight, mean, std) triples, got {self.components!r}") from None
        if not self.components:
            raise ValidationError("components: at least one (weight, mean, std) required")
        for i, (w, _, std) in enumerate(self.components):
            if not 0.0 < w <= 1.0:
                raise ValidationError(f"components[{i}].weight: must be in (0, 1], got {w}")
            if not std > 0.0:
                raise ValidationError(f"components[{i}].std: must be positive, got {std}")
        total = sum(w for w, _, _ in self.components)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"components: weights must sum to 1, got {total!r}")
        _check_count("n", self.n, 1)

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
    then draws its uniforms from its own substream ``(seed, "mixture",
    component index)``, so one component's draws do not depend on the
    sizes of the others, and one :func:`_ndtri` call turns every
    component's uniforms into normals. The output is a pure function of
    ``(spec, seed)``.
    """
    _check_type("spec", spec, MixtureSpec)
    counts = component_counts(spec.weights, spec.n)
    z = _ndtri(np.concatenate([random_open01(substream(seed, "mixture", i), int(c))
                               for i, c in enumerate(counts)]))
    return np.sort(spec.means.repeat(counts) + spec.stds.repeat(counts) * z)


def resample_with_replacement(x: np.ndarray, seed: int) -> np.ndarray:
    """Bootstrap resample of ``x`` (uniform with replacement), sorted."""
    x = _sample(x, 1)
    return np.sort(x[substream(seed, "resample").integers(0, x.size, size=x.size)])
