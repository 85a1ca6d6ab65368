"""Privacy-preserving release of numerical query answers.

Datasets are held by a trusted curator; queries are answered through noise
mechanisms calibrated to exact sensitivities (global, local, smooth, or a
per-distance group schedule), with spending tracked by a composable budget
ledger and the claimed output-ratio bounds checkable by brute force on small
domains.
"""

from .bench import (
    ExperimentPlan,
    default_profile_grid,
    run_ci_table,
    run_error_grid,
    run_noise_profile,
    run_verification,
    write_csv,
)
from .curator import (
    BudgetLedger,
    Calibration,
    LedgerEntry,
    MechanismConfig,
    NoisyAnswer,
    answer,
    calibrate,
    load_session,
    save_session,
)
from .dataset import Dataset, DomainBounds, load_csv, synthesize
from .errors import (
    BoundsError,
    BudgetExceededError,
    ConfigError,
    CsvFormatError,
    CuratorError,
    PreconditionError,
    QueryError,
    SensitivityError,
    SessionError,
)
from .noise import (
    AdmissibleNoiseParams,
    DiscreteLaplaceParams,
    LaplaceParams,
    RandomSource,
    admissible_pdf,
    dl_cdf,
    dl_pmf,
    laplace_cdf,
    laplace_pdf,
    sample_admissible,
    sample_discrete_laplace,
    sample_laplace,
)
from .oracle import (
    GridDomain,
    RatioReport,
    brute_local_sensitivity,
    brute_smooth_sensitivity,
    multiset_distance,
    verify_ratio_bound,
)
from .queries import QuerySpec, evaluate
from .sensitivity import (
    GroupSensitivity,
    SensitivityReport,
    build_report,
    global_sensitivity,
    group_local_sensitivity,
    local_sensitivity,
    smooth_sensitivity,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleNoiseParams",
    "BoundsError",
    "BudgetExceededError",
    "BudgetLedger",
    "Calibration",
    "ConfigError",
    "CsvFormatError",
    "CuratorError",
    "Dataset",
    "DiscreteLaplaceParams",
    "DomainBounds",
    "ExperimentPlan",
    "GridDomain",
    "GroupSensitivity",
    "LaplaceParams",
    "LedgerEntry",
    "MechanismConfig",
    "NoisyAnswer",
    "PreconditionError",
    "QueryError",
    "QuerySpec",
    "RandomSource",
    "RatioReport",
    "SensitivityError",
    "SensitivityReport",
    "SessionError",
    "admissible_pdf",
    "answer",
    "brute_local_sensitivity",
    "brute_smooth_sensitivity",
    "build_report",
    "calibrate",
    "default_profile_grid",
    "dl_cdf",
    "dl_pmf",
    "evaluate",
    "global_sensitivity",
    "group_local_sensitivity",
    "laplace_cdf",
    "laplace_pdf",
    "load_csv",
    "load_session",
    "local_sensitivity",
    "multiset_distance",
    "run_ci_table",
    "run_error_grid",
    "run_noise_profile",
    "run_verification",
    "sample_admissible",
    "sample_discrete_laplace",
    "sample_laplace",
    "save_session",
    "smooth_sensitivity",
    "synthesize",
    "verify_ratio_bound",
    "write_csv",
]
