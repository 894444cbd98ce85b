"""Each public call validates and sorts its sample once, where it enters.

Every layer below a public function takes the sorted sample it is given,
so a solve of 17 KDE evaluations, a bootstrap of 99 replicates and every
CLI command all sort the data once. A command's file reader returns the
numbers unsorted; ``analyze``, ``test`` and ``decompose`` pass them to
the public procedure, and ``modes`` validates them at its start.

No internal evaluation re-checks what its public call checked: it runs
the unchecked core ``kde._density``, never the checked ``kde_fft``, and a
solve's evaluations build no ``Grid``. A call that returns a curve, or
modes or a trough read from one, builds that curve's one ``Grid``.
"""

import sys

import numpy as np
import pytest

import modality.kde as kde_mod
from modality import (
    Grid,
    analyze,
    bimodality_strength,
    critical_bandwidth,
    critical_bandwidth_ci,
    detect_components,
    dip_test,
    excess_mass,
    find_modes,
    find_trough,
    silverman_test,
)
from modality.cli import main


# the calls whose every evaluation is a solve's or a replicate's
_GRIDLESS = {"critical_bandwidth", "bimodality_strength", "silverman_test", "critical_bandwidth_ci",
             "dip_test", "test_silverman", "test_dip"}


def _cli(*argv):
    assert main(list(argv)) == 0


CALLS = {
    "critical_bandwidth": lambda x, path: critical_bandwidth(x, k=2),
    "bimodality_strength": lambda x, path: bimodality_strength(x),
    "silverman_test": lambda x, path: silverman_test(x, resamples=199, seed=0),
    "critical_bandwidth_ci": lambda x, path: critical_bandwidth_ci(x, resamples=99, seed=0),
    "find_modes": lambda x, path: find_modes(x, 0.5),
    "find_trough": lambda x, path: find_trough(x, 0.5),
    "detect_components": lambda x, path: detect_components(x),
    "excess_mass": lambda x, path: excess_mass(x),
    "dip_test": lambda x, path: dip_test(x, resamples=199, seed=0),
    "analyze_library": lambda x, path: analyze(x),
    "analyze_library_ci": lambda x, path: analyze(x, resamples=99),
    "analyze": lambda x, path: _cli("analyze", str(path), "--format", "json"),
    "analyze_ci": lambda x, path: _cli("analyze", str(path), "--format", "json",
                                       "--ci", "--resamples", "99"),
    "test_silverman": lambda x, path: _cli("test", str(path), "--method", "silverman",
                                           "--resamples", "99"),
    "test_dip": lambda x, path: _cli("test", str(path), "--method", "dip", "--resamples", "199"),
    "test_excess": lambda x, path: _cli("test", str(path), "--method", "excess"),
    "modes": lambda x, path: _cli("modes", str(path)),
    "decompose": lambda x, path: _cli("decompose", str(path)),
}


@pytest.fixture
def grids_built(monkeypatch):
    """Every ``Grid`` constructed while the test runs."""
    built = []
    check = Grid.__post_init__

    def counting(grid):
        built.append(grid)
        check(grid)

    monkeypatch.setattr(Grid, "__post_init__", counting)
    return built


@pytest.fixture
def kde_fft_calls(monkeypatch):
    """The bandwidth of every ``kde_fft`` call made while the test runs, in
    every ``modality.*`` namespace that holds ``kde_fft``."""
    calls = []
    engine = kde_mod.kde_fft

    def counting(x, grid, h):
        calls.append(h)
        return engine(x, grid, h)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "modality" and getattr(module, "kde_fft", None) is engine:
            monkeypatch.setattr(module, "kde_fft", counting)
    return calls


@pytest.mark.parametrize("name", list(CALLS))
def test_public_call_validates_once(name, well_separated, tmp_path, capsys, as_sample_calls, grids_built,
                                    kde_fft_calls):
    x = np.random.default_rng(0).permutation(well_separated)
    path = tmp_path / "sample.csv"
    path.write_text("value\n" + "\n".join(repr(float(v)) for v in x) + "\n")
    CALLS[name](x, path)
    capsys.readouterr()
    assert len(as_sample_calls) == 1
    assert len(grids_built) == (0 if name in _GRIDLESS else 1)
    assert kde_fft_calls == []
