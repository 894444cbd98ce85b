"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (run with ``pytest -s`` to
see them on success) and asserts at the stated tolerance. Monte Carlo
pieces run on fixed seeds, so results are reproducible bit for bit.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from modality import (
    MixtureSpec,
    count_modes,
    critical_bandwidth,
    critical_bandwidth_ci,
    default_grid,
    detect_components,
    dip_statistic,
    kde_direct,
    kde_fft,
    sample_mixture,
    silverman_bandwidth,
    silverman_test,
)
from modality import solver
from modality.benchmark import CASES, rows_to_csv, run_table2
from modality.decompose import bimodality_strength

# `modality benchmark --suite table2 --seeds 0..9 --out` as recorded; a change
# that moves any answer regenerates it on purpose
GOLDEN_TABLE2 = Path(__file__).parent / "data" / "table2_seeds0-9.csv"

GALAXY = MixtureSpec(((0.45, 0.3, 0.12), (0.55, 0.8, 0.15)), 500)

STRONG_ROWS = (
    "well_separated",
    "moderate_separation",
    "unequal_variance",
    "unequal_weights",
    "extreme_separation",
    "trimodal",
    "skewed_bimodal",
    "wide_component",
)


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _count(x, h):
    return count_modes(kde_fft(x, default_grid(x, h), h))


@pytest.fixture(scope="module")
def table2_rows():
    return {row.name: row for row in run_table2()}


def test_table2_reproduction(table2_rows):
    problems = []
    for case in CASES:
        row = table2_rows[case.name]
        if row.modes != case.baseline_modes:
            problems.append(f"{case.name}: modes {row.modes} != {case.baseline_modes}")
        if case.stable:
            drift = abs(row.mean - case.baseline_mean) / case.baseline_mean
            if drift > 0.03:
                problems.append(f"{case.name}: mean {row.mean:.4f} drifts {100 * drift:.1f}%")
            if row.cv_percent >= 5.0:
                problems.append(f"{case.name}: CV {row.cv_percent:.2f}% >= 5%")
        else:
            if row.cv_percent <= 10.0:
                problems.append(f"{case.name}: boundary CV {row.cv_percent:.2f}% <= 10%")
    detail = "; ".join(problems) if problems else (
        "9 stable rows within +/-3% of baseline at CV<5%, "
        "3 boundary rows unstable as expected, mode counts match on all 12"
    )
    _criterion("table2-reproduction", not problems, detail)


def test_table2_answers_match_golden_csv(table2_rows):
    got = rows_to_csv([table2_rows[case.name] for case in CASES])
    want = GOLDEN_TABLE2.read_bytes().decode("utf-8")
    got_lines, want_lines = got.split("\n"), want.split("\n")
    changed = [i + 1 for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b]
    _criterion(
        "table2-golden",
        got == want,
        f"{len(got_lines) - 1} lines byte-identical to {GOLDEN_TABLE2.name}" if got == want else
        f"{len(got_lines)} vs {len(want_lines)} lines, first changed: {changed[:5]}",
    )


def test_transition_property_suite():
    rng = np.random.default_rng(2024)
    violations = 0
    verified = 0
    for _ in range(50):
        ncomp = int(rng.integers(2, 4))
        means = np.sort(rng.uniform(-6.0, 6.0, ncomp))
        stds = rng.uniform(0.2, 1.0, ncomp)
        weights = rng.dirichlet(np.full(ncomp, 5.0))
        spec = MixtureSpec(
            tuple((float(w), float(m), float(s)) for w, m, s in zip(weights, means, stds)),
            int(rng.integers(60, 500)),
        )
        x = sample_mixture(spec, int(rng.integers(0, 10_000)))
        k = int(rng.integers(2, 4))
        result = critical_bandwidth(x, k=k)
        if not result.success:
            continue
        verified += 1
        if _count(x, result.h_crit) > k - 1:
            violations += 1
        if _count(x, result.h_crit * (1.0 - 10.0 * solver.REL_TOL)) <= k - 1:
            violations += 1
    _criterion(
        "transition-property",
        violations == 0 and verified >= 40,
        f"{verified}/50 verified solves, {violations} transition violations",
    )


def test_oracle_equivalence_h_scan():
    # 2000 log-spaced bandwidths over +/-5% (step 5e-5, below rel_tol);
    # the scan's smallest merged bandwidth is the reference answer
    spec = MixtureSpec(((0.5, -2.0, 0.5), (0.5, 2.0, 0.5)), 60)
    worst = 0.0
    for seed in range(5):
        x = sample_mixture(spec, seed)
        result = critical_bandwidth(x, k=2)
        ladder = np.geomspace(result.h_crit / 1.05, result.h_crit * 1.05, 2000)
        counts = [_count(x, h) for h in ladder]
        assert counts[0] > 1
        scan = ladder[[c <= 1 for c in counts]][0]
        worst = max(worst, abs(result.h_crit - scan) / scan)
    _criterion(
        "oracle-equivalence-h-scan",
        worst <= solver.REL_TOL,
        f"worst relative solver-vs-scan gap over 5 samples: {worst:.2e} (tol {solver.REL_TOL:g})",
    )


def test_oracle_equivalence_fft_vs_direct():
    worst = 0.0
    for case in CASES:
        x = sample_mixture(case.spec, 0)
        for h in (silverman_bandwidth(x), critical_bandwidth(x, k=case.k).h_crit):
            grid = default_grid(x, h)
            direct = kde_direct(x, grid, h)
            fft = kde_fft(x, grid, h)
            rel = np.max(np.abs(fft.density - direct.density)) / direct.density.max()
            worst = max(worst, rel)
    _criterion(
        "oracle-equivalence-fft",
        worst <= 1e-4,
        f"worst relative sup-norm gap over 12 cases x 2 bandwidths: {worst:.2e}",
    )


def test_engine_brackets_direct_oracle_transition():
    # the FFT engine's answer must straddle the exact direct-sum transition
    # within 0.1% on every table2 case
    misses = []
    for case in CASES:
        for seed in (0, 1, 2):
            x = sample_mixture(case.spec, seed)
            result = critical_bandwidth(x, k=case.k)
            above, below = (
                count_modes(kde_direct(x, default_grid(x, h), h))
                for h in (result.h_crit * (1.0 + 1e-3), result.h_crit * (1.0 - 1e-3))
            )
            if not (result.success and above <= case.k - 1 and below >= case.k):
                misses.append(f"{case.name}/seed{seed}: success {result.success}, "
                              f"direct counts {below} below and {above} above")
    _criterion(
        "engine-vs-direct-oracle",
        not misses,
        "; ".join(misses) if misses else
        "36 solves (12 cases x seeds 0-2) bracket the direct-sum transition within 0.1%",
    )


def test_mode_monotonicity():
    rng = np.random.default_rng(555)
    violations = 0
    for _ in range(100):
        ncomp = int(rng.integers(1, 4))
        means = rng.uniform(-5.0, 5.0, ncomp)
        stds = rng.uniform(0.2, 1.5, ncomp)
        weights = rng.dirichlet(np.ones(ncomp))
        spec = MixtureSpec(
            tuple((float(w), float(m), float(s)) for w, m, s in zip(weights, means, stds)),
            int(rng.integers(30, 500)),
        )
        x = sample_mixture(spec, int(rng.integers(0, 2**31)))
        span = x[-1] - x[0]
        counts = [
            _count(x, h) for h in np.geomspace(span / 150.0, span, 30)
        ]
        violations += sum(1 for a, b in zip(counts[:-1], counts[1:]) if b > a)
    _criterion(
        "mode-monotonicity",
        violations == 0,
        f"{violations} violations over 100 samples x 30-step ladders",
    )


def test_test_conclusions():
    # exact reference p-values are not reproducible (different calibration);
    # this encodes direction bands only
    failures = []
    by_name = {case.name: case for case in CASES}
    for name in STRONG_ROWS:
        x = sample_mixture(by_name[name].spec, 0)
        p = silverman_test(x, mod0=1, resamples=999, seed=0).p_value
        if not p < 0.01:
            failures.append(f"{name}: p={p:.4f} not < 0.01")
    x = sample_mixture(by_name["barely_separated"].spec, 0)
    p = silverman_test(x, mod0=1, resamples=999, seed=0).p_value
    if not p > 0.05:
        failures.append(f"barely_separated: p={p:.4f} not > 0.05")
    detail = "; ".join(failures) if failures else (
        "8 strongly multimodal rows reject at p<0.01; barely separated retains at p>0.05"
    )
    _criterion("test-conclusions", not failures, detail)


def test_bootstrap_ci_band():
    x = sample_mixture(CASES[0].spec, 0)  # well separated, n=400
    result = critical_bandwidth_ci(x, k=2, resamples=999, seed=0)
    width = result.ci_high - result.ci_low
    ok = 0.15 <= width <= 0.45 and result.ci_low <= result.h_crit <= result.ci_high
    _criterion(
        "bootstrap-ci-band",
        ok,
        f"95% interval [{result.ci_low:.3f}, {result.ci_high:.3f}] width {width:.3f}, "
        f"point {result.h_crit:.4f}, failures {result.ci_failures}",
    )


def test_galaxy_vignette():
    x = sample_mixture(GALAXY, 1)
    strength = bimodality_strength(x)
    decomp = detect_components(x)
    ok = (
        1.8 <= strength.ratio <= 2.4
        and abs(decomp.component1.mean - 0.30) <= 0.05
        and abs(decomp.component2.mean - 0.80) <= 0.05
    )
    _criterion(
        "galaxy-vignette",
        ok,
        f"strength {strength.ratio:.2f} ({strength.label}), "
        f"means ({decomp.component1.mean:.3f}, {decomp.component2.mean:.3f})",
    )


def test_equivariance_suite():
    x = sample_mixture(CASES[0].spec, 3)
    problems = []

    h = silverman_bandwidth(x)
    if abs(silverman_bandwidth(7.0 * x) - 7.0 * h) > 1e-10 * h:
        problems.append("silverman scale")
    if abs(silverman_bandwidth(x + 100.0) - h) > 1e-9 * h:
        problems.append("silverman translation")

    base = critical_bandwidth(x, k=2).h_crit
    for c in (0.1, 3.0, 100.0):
        scaled = critical_bandwidth(c * x, k=2).h_crit
        if abs(scaled - c * base) > 2.0 * solver.REL_TOL * c * base:
            problems.append(f"h_crit scale c={c}")
    shifted = critical_bandwidth(x + 57.0, k=2).h_crit
    if abs(shifted - base) > 2.0 * solver.REL_TOL * base:
        problems.append("h_crit translation")

    d = dip_statistic(x)
    if abs(dip_statistic(2.0 * x - 3.0) - d) > 1e-12:
        problems.append("dip affine")

    dec = detect_components(x)
    mapped = detect_components(2.0 * x + 30.0)
    if abs(mapped.component1.mean - (2.0 * dec.component1.mean + 30.0)) > 1e-6:
        problems.append("decomposition mean map")
    if abs(mapped.component1.weight - dec.component1.weight) > 1e-12:
        problems.append("decomposition weight")
    if abs(mapped.dip_ratio - dec.dip_ratio) > 1e-9:
        problems.append("decomposition dip ratio")

    _criterion(
        "equivariance-suite",
        not problems,
        "; ".join(problems) if problems else
        "scale/translation hold for bandwidth rule, h_crit, dip (affine), decomposition",
    )


def test_performance_large_sample():
    x = sample_mixture(MixtureSpec(CASES[0].components, 10_000), 0)
    start = time.perf_counter()
    result = critical_bandwidth(x, k=2)
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0 and result.success
    _criterion(
        "performance-n10000",
        ok,
        f"{elapsed:.2f}s (< 5s), h_crit {result.h_crit:.4f}",
    )
