import math
import re

import numpy as np
import pytest

import modality.kde as kde_mod
import modality.rng as rng_mod
from modality import MixtureSpec, ValidationError, resample_with_replacement, sample_mixture
from modality.rng import (_EXPM2, _log, _ndtri, _replicate_blocks, _substreams, component_counts, derive_seed,
                          random_open01, substream)


def test_single_component_sanity():
    x = sample_mixture(MixtureSpec(((1.0, 0.0, 1.0),), 5), seed=1)
    assert x.shape == (5,)
    assert np.all(np.isfinite(x))
    assert np.all(np.diff(x) >= 0)


def test_sample_mixture_is_deterministic():
    spec = MixtureSpec(((0.5, -2.0, 0.3), (0.5, 2.0, 0.3)), 400)
    a = sample_mixture(spec, 7)
    b = sample_mixture(spec, 7)
    np.testing.assert_array_equal(a, b)
    c = sample_mixture(spec, 8)
    assert not np.array_equal(a, c)


def test_sample_mixture_length_and_order():
    spec = MixtureSpec(((0.3, -1.0, 0.5), (0.7, 4.0, 0.2)), 1001)
    x = sample_mixture(spec, 3)
    assert x.size == 1001
    assert np.all(np.diff(x) >= 0)
    assert np.all(np.isfinite(x))


def test_large_sample_moments_match_mixture():
    # law-of-large-numbers oracle on the generator itself
    n = 100_000
    spec = MixtureSpec(((0.5, -2.0, 0.3), (0.5, 2.0, 0.3)), n)
    x = sample_mixture(spec, 123)
    sigma = np.sqrt(0.5 * (0.09 + 4.0) + 0.5 * (0.09 + 4.0))
    assert abs(x.mean()) < 3.0 * sigma / np.sqrt(n)
    frac_below_zero = np.mean(x < 0.0)
    assert abs(frac_below_zero - 0.5) < 3.0 * np.sqrt(0.25 / n)


def test_component_proportions_converge():
    n = 100_000
    spec = MixtureSpec(((0.2, -10.0, 0.5), (0.8, 10.0, 0.5)), n)
    x = sample_mixture(spec, 5)
    observed = np.mean(x < 0.0)
    assert abs(observed - 0.2) <= 4.0 * np.sqrt(0.2 * 0.8 / n)


def test_component_counts_sum_and_rounding():
    counts = component_counts(np.array([1 / 3, 1 / 3, 1 / 3]), 450)
    assert counts.sum() == 450
    assert np.all(np.abs(counts - 150) <= 1)
    counts = component_counts(np.array([0.2, 0.8]), 500)
    assert counts.tolist() == [100, 400]


@pytest.mark.parametrize(
    "components,n,field",
    [
        (((0.5, 0.0, 1.0), (0.6, 1.0, 1.0)), 10, "weights"),
        (((1.0, 0.0, 0.0),), 10, "std"),
        (((1.0, 0.0, -1.0),), 10, "std"),
        (((1.0, np.inf, 1.0),), 10, "mean"),
        (((1.0, 0.0, 1.0),), 0, "n"),
    ],
)
def test_invalid_spec_names_offending_field(components, n, field):
    with pytest.raises(ValidationError, match=field):
        MixtureSpec(components, n)


def test_resample_singleton_maps_to_itself():
    out = resample_with_replacement(np.array([3.0]), seed=42)
    np.testing.assert_array_equal(out, [3.0])


def test_resample_support_containment():
    x = np.array([1.0, 2.0])
    for seed in range(20):
        out = resample_with_replacement(x, seed)
        assert set(out.tolist()) <= {1.0, 2.0}
        assert out.size == 2


def test_resample_empty_rejected():
    with pytest.raises(ValidationError):
        resample_with_replacement(np.array([]), seed=0)


@pytest.mark.parametrize("x", [np.ones((3, 2)), np.arange(4.0).reshape(4, 1)], ids=["3x2", "4x1"])
def test_resample_rejects_a_sample_that_is_not_1d(x):
    with pytest.raises(ValidationError, match=re.escape(f"sample: expected 1-dimensional data, got shape {x.shape}")):
        resample_with_replacement(x, seed=0)


def test_bootstrap_inclusion_probability():
    # P(element appears in a resample) = 1 - (1 - 1/n)^n ~ 0.636 for n = 50
    x = np.arange(50, dtype=float)
    hits = np.zeros(50)
    trials = 10_000
    for i in range(trials):
        out = resample_with_replacement(x, derive_seed(99, "inclusion", i))
        hits[np.unique(out).astype(int)] += 1
    expected = 1.0 - (1.0 - 1.0 / 50.0) ** 50
    assert np.all(np.abs(hits / trials - expected) < 0.02)


def test_substreams_are_independent_of_index():
    a = substream(0, "tag", 0).integers(0, 1 << 32, 8)
    b = substream(0, "tag", 1).integers(0, 1 << 32, 8)
    assert not np.array_equal(a, b)
    c = substream(0, "other", 0).integers(0, 1 << 32, 8)
    assert not np.array_equal(a, c)


def _states(seed, tag, indices):
    """The bulk-keyed streams' states, taken as each is yielded (one generator is re-keyed)."""
    return [g.bit_generator.state for g in _substreams(seed, tag, indices)]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize("indices", [
    range(1030),  # two passes
    range(2**32 - 3, 2**32 + 3),  # the index's second entropy word begins at 2^32
    range(2**64 - 3, 2**64),
], ids=["first", "2^32", "2^64"])
def test_bulk_keyed_streams_equal_substream(seed, indices):
    assert _states(seed, "silverman", indices) == [substream(seed, "silverman", i).bit_generator.state
                                                   for i in indices]


@pytest.mark.parametrize("tag_hash", [0, 5])
def test_bulk_keyed_streams_equal_substream_for_a_one_word_tag(tag_hash, monkeypatch):
    # seed 0, a one-word tag and a one-word index fill 3 words of the 4-word pool;
    # the largest seed and index take 5
    monkeypatch.setattr(rng_mod, "_tag_u64", lambda tag: tag_hash)
    for seed in (0, 2**64 - 1):
        for indices in (range(3), range(2**32 - 1, 2**32 + 1)):
            assert _states(seed, "dip", indices) == [substream(seed, "dip", i).bit_generator.state
                                                     for i in indices]


def test_replicate_blocks_equal_each_replicates_own_draws(monkeypatch):
    # 40 rows a block: 199 replicates make four full blocks and a last one of 39 rows
    n = 30
    monkeypatch.setattr(kde_mod, "_BLOCK_VALUES", 40 * (n + 7))

    def draw(g):  # the Silverman test's draw: indices and uniforms
        return g.integers(0, n, size=n), g.random(n)

    blocks = list(_replicate_blocks(5, "silverman", 199, n + 7, draw))
    assert [len(idx) for idx, _ in blocks] == [40, 40, 40, 40, 39]
    expected = [draw(substream(5, "silverman", i)) for i in range(199)]
    for got, want in zip(zip(*blocks), zip(*expected)):
        got = np.concatenate(got)
        np.testing.assert_array_equal(got, np.stack(want))
        assert got.dtype == want[0].dtype


def test_bulk_keyed_streams_refuse_a_bad_seed():
    with pytest.raises(ValidationError, match=r"seed: must be in \[0, 2\*\*64\), got -1"):
        next(_substreams(-1, "dip", range(3)))


def test_random_open01_is_strictly_inside_unit_interval():
    u = random_open01(substream(1, "u"), 10_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_random_open01_top_word_stays_below_one():
    class _Words:
        """A generator whose words are the largest and the smallest of 53 bits."""

        def random(self, size):
            assert size == 2
            return np.array([((1 << 53) - 1) * 2.0**-53, 0.0])

    u = random_open01(_Words(), 2)
    # (2^53 - 1 + 0.5) 2^-53 rounds to 1.0; the draw is capped just below it
    assert u.tolist() == [np.nextafter(1.0, 0.0), 2.0**-54]


def test_ndtri_equals_scipy_bit_for_bit():
    from scipy.special import ndtri

    # the open-interval draws the package transforms
    u = np.concatenate([random_open01(substream(seed, "ndtri"), 500_000) for seed in (0, 1)])
    np.testing.assert_array_equal(_ndtri(u).view(np.int64), ndtri(u).view(np.int64))
    # each branch's edges and their neighbours, and the extremes random_open01 returns
    edges = np.array([_EXPM2, 1.0 - _EXPM2, 0.5, 2.0**-54, 1.0 - 2.0**-53])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    edges = edges[(edges > 0.0) & (edges < 1.0)]
    # both tails down to 2^-54, past exp(-32) (about 1.27e-14) into the P2/Q2 branch
    lower = np.geomspace(2.0**-54, _EXPM2, 100_000)
    p = np.concatenate([edges, lower, 1.0 - lower[lower >= 2.0**-53]])
    assert np.count_nonzero(p < np.exp(-32.0)) > 1000
    np.testing.assert_array_equal(_ndtri(p).view(np.int64), ndtri(p).view(np.int64))


def test_ndtri_log_is_the_c_library_log():
    # _ndtri's logs read y in [2^-54, exp(-2)] and sqrt(-2 log y) in [2, 8.7]:
    # log(exp(-2)) rounds to -2, so the second range starts at 2.0
    assert math.log(_EXPM2) == -2.0
    u = random_open01(substream(2, "log"), 200_000)
    y = np.concatenate([np.geomspace(2.0**-54, _EXPM2, 100_000), u[u <= _EXPM2]])
    for a in (y, np.sqrt(-2.0 * _log(y))):
        assert _log(a).tolist() == [math.log(v) for v in a.tolist()]


def test_seed_validation():
    with pytest.raises(ValidationError, match="seed"):
        substream(-1, "x")
    with pytest.raises(ValidationError, match="seed"):
        substream(2**64, "x")
