import sys

import numpy as np
import pytest

import modality.kde as kde_mod
from modality import MixtureSpec, sample_mixture

WELL_SEPARATED = MixtureSpec(((0.5, -2.0, 0.3), (0.5, 2.0, 0.3)), 400)
BARELY_SEPARATED = MixtureSpec(((0.5, -0.5, 0.4), (0.5, 0.5, 0.4)), 600)
NEAR_UNIMODAL = MixtureSpec(((0.5, 0.0, 0.6), (0.5, 1.5, 0.6)), 600)
EXTREME_SEPARATION = MixtureSpec(((0.5, -5.0, 0.5), (0.5, 5.0, 0.5)), 400)
UNEQUAL_WEIGHTS = MixtureSpec(((0.2, -2.0, 0.3), (0.8, 2.0, 0.3)), 500)
TRIMODAL = MixtureSpec(
    ((1.0 / 3, -3.0, 0.3), (1.0 / 3, 0.0, 0.3), (1.0 / 3, 3.0, 0.3)), 450
)


@pytest.fixture(scope="session")
def well_separated():
    return sample_mixture(WELL_SEPARATED, 0)


@pytest.fixture(scope="session")
def barely_separated():
    return sample_mixture(BARELY_SEPARATED, 0)


@pytest.fixture(scope="session")
def near_unimodal():
    # seed 1 draws a sample whose merge bandwidth sits near the case mean
    return sample_mixture(NEAR_UNIMODAL, 1)


@pytest.fixture(scope="session")
def trimodal():
    return sample_mixture(TRIMODAL, 0)


@pytest.fixture(scope="session")
def normal_500():
    rng = np.random.default_rng(11)
    return np.sort(rng.normal(0.0, 1.0, 500))


@pytest.fixture
def kde_bandwidths(monkeypatch):
    """The bandwidth of every KDE evaluation made while the test runs, one
    entry per row of a block evaluated at once, at that row's bandwidth.

    A lone evaluation, checked (``kde_fft``) or not, runs the unchecked core
    ``kde._density``, which is looked up in ``modality.kde``. Modules import
    the block evaluation by name, so its recorder is bound in every
    ``modality.*`` namespace that holds it.
    """
    seen = []
    engine = kde_mod._density
    block_engine = kde_mod._kde_rows_at

    def recording(x, start, spacing, size, h):
        seen.append(h)
        return engine(x, start, spacing, size, h)

    def recording_rows(rows, h):
        seen.extend(np.broadcast_to(h, rows.shape[:1]).tolist())
        return block_engine(rows, h)

    monkeypatch.setattr(kde_mod, "_density", recording)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "modality" and getattr(module, "_kde_rows_at", None) is block_engine:
            monkeypatch.setattr(module, "_kde_rows_at", recording_rows)
    return seen


@pytest.fixture
def as_sample_calls(monkeypatch):
    """The ``min_size`` of every ``as_sample`` call made while the test runs.

    Modules import ``as_sample`` by name, so the counter is bound in every
    ``modality.*`` namespace that holds it, not only in ``modality.kde``.
    """
    calls = []
    validate = kde_mod.as_sample

    def counting(values, min_size=1):
        calls.append(min_size)
        return validate(values, min_size)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "modality" and getattr(module, "as_sample", None) is validate:
            monkeypatch.setattr(module, "as_sample", counting)
    return calls
