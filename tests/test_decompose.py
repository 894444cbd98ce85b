from pathlib import Path

import numpy as np
import pytest

from modality import (
    Decomposition,
    MixtureSpec,
    NotBimodalError,
    SolverError,
    StrengthReport,
    analyze,
    bimodality_strength,
    critical_bandwidth,
    detect_components,
    find_modes,
    find_trough,
    read_data,
    sample_mixture,
    silverman_bandwidth,
)
from modality.decompose import classify_strength

GALAXY = MixtureSpec(((0.45, 0.3, 0.12), (0.55, 0.8, 0.15)), 500)
GENE = MixtureSpec(((0.3, 0.5, 0.3), (0.7, 4.0, 0.4)), 200)


def test_symmetric_mixture_splits_evenly(well_separated):
    decomp = detect_components(well_separated)
    assert 0.45 <= decomp.component1.weight <= 0.55
    assert -0.3 <= decomp.separation_point <= 0.3
    assert decomp.component1.mean < decomp.component2.mean
    assert decomp.component1.weight + decomp.component2.weight == pytest.approx(1.0, abs=1e-15)
    assert 0.0 <= decomp.dip_ratio <= 1.0


def test_galaxy_color_decomposition():
    decomp = detect_components(sample_mixture(GALAXY, 1))
    assert decomp.component1.mean == pytest.approx(0.30, abs=0.05)
    assert decomp.component2.mean == pytest.approx(0.80, abs=0.05)


def test_gene_expression_decomposition():
    decomp = detect_components(sample_mixture(GENE, 0))
    assert decomp.component1.weight == pytest.approx(0.30, abs=0.05)
    assert decomp.component2.weight == pytest.approx(0.70, abs=0.05)
    assert decomp.component1.mean == pytest.approx(0.5, abs=0.2)
    assert decomp.component2.mean == pytest.approx(4.0, abs=0.2)


def test_unimodal_sample_is_rejected(normal_500):
    with pytest.raises(NotBimodalError):
        detect_components(normal_500)


def test_decomposition_affine_equivariance(well_separated):
    base = detect_components(well_separated)
    mapped = detect_components(2.0 * well_separated + 30.0)
    assert mapped.component1.mean == pytest.approx(2.0 * base.component1.mean + 30.0, rel=1e-6, abs=1e-6)
    assert mapped.component2.std == pytest.approx(2.0 * base.component2.std, rel=1e-6)
    assert mapped.separation_point == pytest.approx(2.0 * base.separation_point + 30.0, abs=1e-6)
    assert mapped.component1.weight == base.component1.weight
    assert mapped.dip_ratio == pytest.approx(base.dip_ratio, rel=1e-9)


def test_single_point_side_has_zero_std():
    x = np.sort(np.concatenate([[-5.0], np.random.default_rng(2).normal(2.0, 0.3, 60)]))
    try:
        decomp = detect_components(x)
    except NotBimodalError:
        pytest.skip("isolated point not detected as a mode for this draw")
    assert decomp.component1.std == 0.0
    assert decomp.component1.weight == pytest.approx(1.0 / x.size)


def test_strength_galaxy_is_strong():
    report = bimodality_strength(sample_mixture(GALAXY, 1))
    assert 1.8 <= report.ratio <= 2.4
    assert report.label == "strong"


def test_strength_near_unimodal_is_moderate(near_unimodal):
    report = bimodality_strength(near_unimodal)
    assert 1.0 <= report.ratio <= 2.0
    assert report.label == "moderate"


def test_strength_scale_invariance(well_separated):
    a = bimodality_strength(well_separated)
    b = bimodality_strength(10.0 * well_separated)
    assert b.ratio == pytest.approx(a.ratio, rel=1e-3)
    assert b.label == a.label


def test_classify_strength_cutoffs():
    assert classify_strength(0.5) == "weak"
    assert classify_strength(1.0) == "moderate"
    assert classify_strength(1.99) == "moderate"
    assert classify_strength(2.0) == "strong"


def test_components_come_from_one_evaluation(well_separated, monkeypatch, kde_bandwidths):
    import modality.modes as modes_mod

    h = silverman_bandwidth(well_separated)
    assert find_modes(well_separated, h).count >= 2
    trough = find_trough(well_separated, h)
    seen = kde_bandwidths
    seen.clear()
    scans = []
    mode_runs = modes_mod._mode_runs

    def counting(density):
        scans.append(density.size)
        return mode_runs(density)

    monkeypatch.setattr(modes_mod, "_mode_runs", counting)
    decomp = detect_components(well_separated)
    assert seen == [h]
    assert len(scans) == 1  # one mode scan serves the count check and the trough
    assert decomp.separation_point == trough.location
    assert decomp.dip_ratio == trough.ratio


@pytest.mark.parametrize("resamples", [None, 99], ids=["plain", "ci"])
def test_analyze_evaluates_each_bandwidth_once(well_separated, resamples, kde_bandwidths):
    iterations = critical_bandwidth(well_separated, k=2).iterations
    seen = kde_bandwidths
    seen.clear()
    analysis = analyze(well_separated, resamples=resamples)
    # one curve at h0 for the modes and the decomposition, which is also the
    # first mode count of the one k = 2 solve, reused for the strength and as
    # the interval's point estimate; the replicates come after it
    assert analysis.iterations == iterations
    point = seen[:iterations]
    assert len(set(point)) == len(point) == iterations
    assert seen[0] == analysis.h_silverman
    assert seen.count(analysis.h_silverman) == 1
    assert (len(seen) > iterations) == (resamples is not None)
    assert isinstance(analysis.decomposition, Decomposition)
    assert isinstance(analysis.strength, StrengthReport)
    assert (analysis.ci is None) == (resamples is None)


def test_analyze_unverified_search_raises_before_the_interval(kde_bandwidths):
    # k = 1 has no attainable target, so the search never verifies: the call
    # raises the CLI's message and the interval draws no replicate
    x = read_data(Path(__file__).parent / "data" / "well_separated_n400.csv")
    seen = []
    for resamples in (None, 99):
        kde_bandwidths.clear()
        with pytest.raises(SolverError) as failure:
            analyze(x, k=1, resamples=resamples)
        assert str(failure.value) == "critical bandwidth search failed (k=1, iterations=6)"
        seen.append(list(kde_bandwidths))
    assert seen[0] == seen[1]
    assert len(set(seen[0])) == len(seen[0]) == 6
