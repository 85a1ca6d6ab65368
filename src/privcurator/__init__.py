"""Privacy-preserving release of numerical query answers.

Datasets are held by a trusted curator; queries are answered through noise
mechanisms calibrated to exact sensitivities (global, local, smooth, or a
per-distance group schedule), with spending tracked by a composable budget
ledger and the claimed output-ratio bounds checkable by brute force on small
domains.

The benchmark and oracle names are loaded on first use (PEP 562), so
importing the package or its CLI does not pay for those modules.
"""

import importlib

from .curator import (
    BudgetLedger,
    LedgerEntry,
    MechanismConfig,
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
from .queries import QuerySpec, evaluate
from .sensitivity import (
    build_report,
    global_sensitivity,
    group_local_sensitivity,
    local_sensitivity,
    smooth_sensitivity,
)

__version__ = "0.1.0"

_LAZY = {
    **dict.fromkeys(
        ("ExperimentPlan", "default_profile_grid", "run_ci_table", "run_error_grid",
         "run_noise_profile", "run_verification", "write_csv"),
        "bench",
    ),
    **dict.fromkeys(
        ("GridDomain", "brute_local_sensitivity", "brute_smooth_sensitivity",
         "multiset_distance", "verify_ratio_bound"),
        "oracle",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "AdmissibleNoiseParams",
    "BoundsError",
    "BudgetExceededError",
    "BudgetLedger",
    "ConfigError",
    "CsvFormatError",
    "CuratorError",
    "Dataset",
    "DiscreteLaplaceParams",
    "DomainBounds",
    "ExperimentPlan",
    "GridDomain",
    "LaplaceParams",
    "LedgerEntry",
    "MechanismConfig",
    "PreconditionError",
    "QueryError",
    "QuerySpec",
    "RandomSource",
    "SensitivityError",
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
