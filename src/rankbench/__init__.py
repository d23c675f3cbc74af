"""rankbench: quantify how seed randomness affects benchmark rankings."""

__version__ = "0.1.0"

from .comparison import FcrResult, Granularity, fcr
from .concordance import (
    COEFFICIENTS,
    CoefficientResult,
    coefficients_for,
    kendall_w,
    kendall_w_tied,
    randomness,
)
from .ranking import RankCube, TiePolicy, count_ties, rank_table, tie_groups
from .resampling import ConvergenceReport, subsample_convergence
from .results import (
    Direction,
    MetricSpec,
    ResultRecord,
    ResultTable,
    Status,
    TestId,
    ValidationError,
    ingest,
    parse_registry,
    resolve_failures,
)
from .synthgen import SynthConfig, generate
from .wasserstein import wasserstein_w

__all__ = [
    "COEFFICIENTS",
    "CoefficientResult",
    "ConvergenceReport",
    "Direction",
    "FcrResult",
    "Granularity",
    "MetricSpec",
    "RankCube",
    "ResultRecord",
    "ResultTable",
    "Status",
    "SynthConfig",
    "TestId",
    "TiePolicy",
    "ValidationError",
    "coefficients_for",
    "count_ties",
    "fcr",
    "generate",
    "ingest",
    "kendall_w",
    "kendall_w_tied",
    "parse_registry",
    "randomness",
    "rank_table",
    "resolve_failures",
    "subsample_convergence",
    "tie_groups",
    "wasserstein_w",
]
