"""Is this sample unimodal or multimodal?

One-dimensional multimodality detection built on kernel density
estimation: critical bandwidth search with bootstrap intervals, the
Silverman, dip, and excess-mass tests, trough-split component
decomposition, a strength metric, ``analyze`` (the critical bandwidth,
modes, decomposition and strength in one call), tabular file ingestion,
and a benchmark harness. See the README for the CLI.
"""

from .decompose import (
    Analysis,
    Component,
    Decomposition,
    StrengthReport,
    analyze,
    bimodality_strength,
    detect_components,
)
from .errors import (
    CIUnreliableError,
    DataFormatError,
    DegenerateSampleError,
    GridSpanError,
    ModalityError,
    NotBimodalError,
    SolverError,
    TestInconclusiveError,
    ValidationError,
)
from .io import Table, parse_markdown_table, read_data
from .kde import (
    DensityCurve,
    Grid,
    as_sample,
    default_grid,
    kde_direct,
    kde_fft,
    silverman_bandwidth,
)
from .modes import ModeSet, Trough, count_modes, find_modes, find_trough
from .rng import MixtureSpec, resample_with_replacement, sample_mixture
from .solver import (
    CritBandResult,
    critical_bandwidth,
    critical_bandwidth_ci,
)
from .stattests import (
    ExcessMassCurve,
    TestResult,
    dip_statistic,
    dip_test,
    excess_mass,
    silverman_test,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Analysis",
    "Component",
    "CritBandResult",
    "Decomposition",
    "DensityCurve",
    "ExcessMassCurve",
    "Grid",
    "MixtureSpec",
    "ModeSet",
    "StrengthReport",
    "Table",
    "TestResult",
    "Trough",
    "analyze",
    "as_sample",
    "parse_markdown_table",
    "read_data",
    "bimodality_strength",
    "count_modes",
    "critical_bandwidth",
    "critical_bandwidth_ci",
    "default_grid",
    "detect_components",
    "dip_statistic",
    "dip_test",
    "excess_mass",
    "find_modes",
    "find_trough",
    "kde_direct",
    "kde_fft",
    "resample_with_replacement",
    "sample_mixture",
    "silverman_bandwidth",
    "silverman_test",
    # errors
    "ModalityError",
    "ValidationError",
    "DegenerateSampleError",
    "GridSpanError",
    "DataFormatError",
    "NotBimodalError",
    "SolverError",
    "CIUnreliableError",
    "TestInconclusiveError",
]
