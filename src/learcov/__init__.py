"""Linear exponent autoregressive (LEAR) covariance models.

Builds correlation and covariance matrices whose decay rate over distance
is itself a parameter, maps them to and from the ARMA(1,1) structure on
unit-spaced grids, fits either parameterization to repeated-measures data
by profile ML or REML, and simulates Gaussian datasets deterministically.

Importing the package loads none of its modules: each public name is
imported from the module that defines it on first use (PEP 562), so a
program that only reads a CSV never loads the estimation code.
"""
import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_MODULE_OF = {
    name: module
    for module, names in (
        # matrices
        ("core", (
            "MeasurementGrid", "build_grid", "LearParams", "Arma11Params",
            "lear_correlation", "lear_covariance", "arma11_covariance",
            "cholesky_lower", "validate_lear_values", "validate_arma11_values",
        )),
        # reparameterization
        ("reparam", (
            "SpecialCaseReport", "check_special_case", "normalize_grid",
            "map_lear_to_arma11", "map_arma11_to_lear", "lear_to_arma",
            "arma_to_lear", "correlation_at_distance",
        )),
        # data and fit settings
        ("model", ("SubjectData", "RepeatedMeasuresData", "FitOptions")),
        # estimation
        ("estimation", (
            "ProfileEstimates", "profile_estimates", "profile_loglik",
            "FitResult", "fit", "ComparisonReport", "compare_parameterizations",
        )),
        # simulation
        ("sim", ("SimSpec", "simulate", "standard_normals")),
        # data I/O
        ("dataio", (
            "read_long_csv", "write_long_csv", "load_sim_spec", "sim_spec_to_dict",
        )),
        # errors
        ("errors", (
            "LearcovError", "InvalidGrid", "DegenerateGrid", "InvalidParams",
            "InvalidSize", "NotPositiveDefinite", "NotSpecialCase",
            "DegenerateRange", "OutsideLearImage", "Unidentifiable",
            "DuplicateMeasurement", "ParseError", "RankDeficient", "SingularFit",
            "FitFailed", "UnidentifiableWarning",
        )),
    )
    for name in names
}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups do not come here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
