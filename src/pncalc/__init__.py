"""Projector-nilpotent operator calculus on tensor-lifted matrix families.

Decomposes square complex matrices into projector + nilpotent spectral
components, lifts several matrices onto a common tensor-product space where
they commute, and evaluates analytic functions of the family by three
independent routes (spectral assembly, contour quadrature, truncated power
series).  Truncation, perturbation, and regularization experiments quantify
how the calculus survives finite-dimensional approximation.
"""
from .errors import (
    CalcError,
    ClusterSeparationError,
    ConfigError,
    ContourTooCloseError,
    DecompositionError,
    DimensionCapError,
    DomainError,
    NearSingularError,
    PreconditionError,
    QuadratureError,
    TailBoundError,
    ToleranceError,
)
from .linalg import (
    KRON_CAP,
    EigenResult,
    eig,
    eye_like,
    op_norm,
    read_cmat,
    resolvent,
    write_cmat,
)
from .spectra import (
    Contour,
    Decomposition,
    SpectralComponent,
    cluster_eigenvalues,
    decompose,
    nilpotency_index,
    read_decomposition,
    riesz_projector,
    verify_decomposition,
    write_decomposition,
)
from .functions import (
    AnalyticFunction,
    CosAffine,
    ExpAffine,
    Polynomial,
    Product,
    Ratio,
    SinAffine,
    Sum,
    as_multi_index,
    parse_function,
    taylor_coefficients,
)
from .calculus import (
    CalculusResult,
    LedgerEntry,
    LiftedSystem,
    dunford,
    dunford_multivariate,
    func_multivariate,
    func_univariate,
    lift,
    power_series_apply,
    write_term_ledger,
)
from .approx import (
    MODEL_KINDS,
    ConvergenceReport,
    OperatorModel,
    RegularizationReport,
    build_model,
    compress,
    default_probes,
    error_constant,
    error_constant_multi,
    level_experiment,
    lowest_cluster_contour,
    multivariate_experiment,
    perturbation_experiment,
    regularization_sweep,
    resolvent_error,
    write_convergence_csv,
    write_regularization_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CalcError", "ConfigError", "PreconditionError", "ToleranceError",
    "DimensionCapError", "NearSingularError", "ContourTooCloseError",
    "ClusterSeparationError", "DomainError", "QuadratureError",
    "DecompositionError", "TailBoundError",
    "KRON_CAP", "EigenResult", "eig", "eye_like", "op_norm",
    "read_cmat", "resolvent", "write_cmat",
    "Contour", "Decomposition", "SpectralComponent", "cluster_eigenvalues",
    "decompose", "nilpotency_index", "read_decomposition",
    "riesz_projector", "verify_decomposition", "write_decomposition",
    "AnalyticFunction", "Polynomial", "ExpAffine", "SinAffine", "CosAffine",
    "Sum", "Product", "Ratio", "as_multi_index", "parse_function",
    "taylor_coefficients",
    "CalculusResult", "LedgerEntry", "LiftedSystem", "dunford",
    "dunford_multivariate", "func_multivariate", "func_univariate", "lift",
    "power_series_apply", "write_term_ledger",
    "MODEL_KINDS", "ConvergenceReport", "OperatorModel",
    "RegularizationReport", "build_model", "compress", "default_probes",
    "error_constant", "error_constant_multi", "level_experiment",
    "lowest_cluster_contour", "multivariate_experiment",
    "perturbation_experiment", "regularization_sweep", "resolvent_error",
    "write_convergence_csv", "write_regularization_csv",
    "__version__",
]
