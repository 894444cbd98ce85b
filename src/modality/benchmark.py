"""Benchmark harness: twelve Gaussian-mixture cases spanning separation
regimes, unequal variances, unequal weights, and small samples.

``run_table2`` regenerates every case over a fixed set of seeds and
summarizes the per-seed critical bandwidths; ``run_scalability`` times
the search across sample sizes. Each case carries the suite's baseline
mean and mode count so regressions surface directly in the report:
stable rows (baseline spread under 5%) are flagged when the mean drifts
more than 3% or the spread exceeds 5%; boundary rows are expected to be
unstable and are checked for mode count and spread above 10% only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .kde import _kde_at, _silverman_bandwidth, as_sample
from .modes import count_modes
from .rng import MixtureSpec, sample_mixture
from .solver import _check_solvable, _solve_each, critical_bandwidth

__all__ = [
    "BenchmarkCase",
    "BenchmarkRow",
    "ScalabilityRow",
    "CASES",
    "DEFAULT_SEEDS",
    "run_table2",
    "run_scalability",
    "rows_to_csv",
    "rows_to_text",
    "scalability_to_csv",
    "scalability_to_text",
]

DEFAULT_SEEDS = tuple(range(10))

MEAN_BAND = 0.03   # relative drift allowed on stable-row means
STABLE_CV = 5.0    # stable rows must stay under this CV%
UNSTABLE_CV = 10.0  # boundary rows are expected to exceed this CV%


@dataclass(frozen=True)
class BenchmarkCase:
    """One mixture scenario with its baseline results."""

    name: str
    n: int
    components: tuple[tuple[float, float, float], ...]
    k: int
    baseline_mean: float
    baseline_modes: int
    stable: bool

    @property
    def spec(self) -> MixtureSpec:
        return MixtureSpec(self.components, self.n)

    def mixture_label(self) -> str:
        return "+".join(f"{w:g}*N({m:g},{s:g})" for w, m, s in self.components)


CASES: tuple[BenchmarkCase, ...] = (
    BenchmarkCase("well_separated", 400, ((0.5, -2.0, 0.3), (0.5, 2.0, 0.3)), 2, 1.857, 2, True),
    BenchmarkCase("moderate_separation", 500, ((0.5, -1.0, 0.5), (0.5, 1.5, 0.5)), 2, 1.047, 2, True),
    BenchmarkCase("barely_separated", 600, ((0.5, -0.5, 0.4), (0.5, 0.5, 0.4)), 2, 0.226, 2, False),
    BenchmarkCase("unequal_variance", 400, ((0.5, -2.0, 0.6), (0.5, 2.0, 0.2)), 2, 1.736, 2, True),
    BenchmarkCase("unequal_weights", 500, ((0.2, -2.0, 0.3), (0.8, 2.0, 0.3)), 2, 1.247, 2, True),
    BenchmarkCase("extreme_separation", 400, ((0.5, -5.0, 0.5), (0.5, 5.0, 0.5)), 2, 4.682, 2, True),
    BenchmarkCase(
        "trimodal", 450,
        ((1.0 / 3, -3.0, 0.3), (1.0 / 3, 0.0, 0.3), (1.0 / 3, 3.0, 0.3)), 3, 1.379, 3, True,
    ),
    BenchmarkCase("skewed_bimodal", 500, ((0.7, -1.5, 0.4), (0.3, 2.0, 0.6)), 2, 1.144, 2, True),
    BenchmarkCase("wide_component", 400, ((0.5, -3.0, 0.8), (0.5, 3.0, 0.8)), 2, 2.692, 2, True),
    BenchmarkCase("near_unimodal", 600, ((0.5, 0.0, 0.6), (0.5, 1.5, 0.6)), 2, 0.339, 2, False),
    BenchmarkCase("small_sample", 60, ((0.5, -2.0, 0.5), (0.5, 2.0, 0.5)), 2, 1.823, 2, True),
    BenchmarkCase("overlapping_variances", 500, ((0.5, -0.8, 0.7), (0.5, 0.8, 0.5)), 2, 0.322, 2, False),
)


@dataclass(frozen=True)
class BenchmarkRow:
    """Per-case summary over the seed set."""

    name: str
    n: int
    mixture: str
    seeds: tuple[int, ...]
    h_crit: tuple[float, ...]       # per seed; nan where the solve failed
    mode_counts: tuple[int, ...]    # per seed, at the rule-of-thumb bandwidth
    mean: float
    std: float
    cv_percent: float
    modes: int                      # per-row count: median across seeds
    failures: int
    status: str                     # "ok" or a short reason


def _row_modes(counts) -> int:
    return int(math.floor(np.median(counts) + 0.5))


def _status(case: BenchmarkCase, mean: float, cv: float, modes: int) -> str:
    problems = []
    if modes != case.baseline_modes:
        problems.append(f"modes {modes} != {case.baseline_modes}")
    if case.stable:
        if abs(mean - case.baseline_mean) > MEAN_BAND * case.baseline_mean:
            problems.append(f"mean drift {100 * (mean / case.baseline_mean - 1):+.1f}%")
        if cv >= STABLE_CV:
            problems.append(f"CV {cv:.1f}% >= {STABLE_CV:g}%")
    elif cv <= UNSTABLE_CV:
        problems.append(f"CV {cv:.1f}% unexpectedly low")
    return "ok" if not problems else "; ".join(problems)


def run_case(case: BenchmarkCase, seeds=DEFAULT_SEEDS) -> BenchmarkRow:
    problems, counts = [], []
    for seed in seeds:
        x = _check_solvable(as_sample(sample_mixture(case.spec, seed), min_size=3), case.k)
        # the mode count at h0 is also the solve's first evaluation
        h0 = _silverman_bandwidth(x)
        counts.append(count_modes(_kde_at(x, h0)))
        problems.append((x, {h0: counts[-1]}))
    results = _solve_each(problems, case.k)
    values = [r.h_crit if r.success else float("nan") for r in results]
    failures = sum(not r.success for r in results)
    good = np.array([v for v in values if not math.isnan(v)])
    mean = float(good.mean()) if good.size else float("nan")
    std = float(good.std(ddof=1)) if good.size > 1 else float("nan")
    cv = 100.0 * std / mean if good.size > 1 and mean > 0 else float("nan")
    modes = _row_modes(counts)
    return BenchmarkRow(
        name=case.name,
        n=case.n,
        mixture=case.mixture_label(),
        seeds=tuple(seeds),
        h_crit=tuple(values),
        mode_counts=tuple(counts),
        mean=mean,
        std=std,
        cv_percent=cv,
        modes=modes,
        failures=failures,
        status=_status(case, mean, cv, modes),
    )


def run_table2(seeds=DEFAULT_SEEDS) -> list[BenchmarkRow]:
    return [run_case(case, seeds) for case in CASES]


@dataclass(frozen=True)
class ScalabilityRow:
    n: int
    seconds: float
    h_crit: float


def run_scalability(sizes=(100, 1000, 10000), seed: int = 0) -> list[ScalabilityRow]:
    """Time the bandwidth search on the well-separated mixture per size.

    Timings are reported, never asserted; they are machine-specific.
    """
    base = CASES[0]
    rows = []
    for n in sizes:
        x = sample_mixture(MixtureSpec(base.components, n), seed)
        start = time.perf_counter()
        result = critical_bandwidth(x, k=base.k)
        elapsed = time.perf_counter() - start
        rows.append(ScalabilityRow(n=n, seconds=elapsed, h_crit=result.h_crit))
    return rows


def rows_to_csv(rows: list[BenchmarkRow]) -> str:
    """Deterministic CSV: byte-identical across runs for fixed seeds."""
    lines = ["case,n,mixture,seed,h_crit,modes_at_silverman"]
    for row in rows:
        for seed, h, c in zip(row.seeds, row.h_crit, row.mode_counts):
            lines.append(f"{row.name},{row.n},{row.mixture},{seed},{h!r},{c}")
    lines.append("")
    lines.append("case,n,mean,std,cv_percent,modes,failures,status")
    for row in rows:
        lines.append(
            f"{row.name},{row.n},{row.mean!r},{row.std!r},{row.cv_percent!r},"
            f"{row.modes},{row.failures},{row.status}"
        )
    return "\n".join(lines) + "\n"


def rows_to_text(rows: list[BenchmarkRow]) -> str:
    header = f"{'case':<24}{'n':>6}  {'mean':>8}  {'std':>8}  {'CV%':>7}  {'modes':>5}  status"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.name:<24}{row.n:>6}  {row.mean:>8.4f}  {row.std:>8.4f}  "
            f"{row.cv_percent:>7.2f}  {row.modes:>5}  {row.status}"
        )
    return "\n".join(lines)


def scalability_to_csv(rows: list[ScalabilityRow]) -> str:
    lines = ["n,seconds,h_crit"]
    for r in rows:
        lines.append(f"{r.n},{r.seconds!r},{r.h_crit!r}")
    return "\n".join(lines) + "\n"


def scalability_to_text(rows: list[ScalabilityRow]) -> str:
    header = f"{'n':>8}  {'time (s)':>10}  {'h_crit':>8}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(f"{r.n:>8}  {r.seconds:>10.3f}  {r.h_crit:>8.4f}")
    return "\n".join(lines)
