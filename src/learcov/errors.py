"""Exception taxonomy shared across the package.

Every error class carries a stable machine token and a distinct process
exit code so the command line interface can report failures in a way that
scripts can parse without scraping the human-readable message.
"""
from __future__ import annotations


class LearcovError(Exception):
    """Base class for all package errors."""

    token = "E_LEARCOV"
    exit_code = 9


class InvalidGrid(LearcovError):
    """Measurement times are malformed (non-increasing, non-finite, empty)."""

    token = "E_INVALID_GRID"
    exit_code = 10


class DegenerateGrid(LearcovError):
    """No within-subject pair exists, so no distance is defined."""

    token = "E_DEGENERATE_GRID"
    exit_code = 11


class InvalidParams(LearcovError):
    """Parameter values violate their documented constraints."""

    token = "E_INVALID_PARAMS"
    exit_code = 12


class InvalidSize(LearcovError):
    """Dimension mismatch or a non-positive requested size."""

    token = "E_INVALID_SIZE"
    exit_code = 13


class NotPositiveDefinite(LearcovError):
    """Cholesky factorization failed; the matrix is not positive definite."""

    token = "E_NOT_POSITIVE_DEFINITE"
    exit_code = 14


class NotSpecialCase(LearcovError):
    """Grid is not in the equally spaced unit-distance form required here."""

    token = "E_NOT_SPECIAL_CASE"
    exit_code = 15


class DegenerateRange(LearcovError):
    """All pairwise distances are equal, so the distance range is zero."""

    token = "E_DEGENERATE_RANGE"
    exit_code = 16


class OutsideLearImage(LearcovError):
    """ARMA(1,1) parameters have no linear exponent counterpart."""

    token = "E_OUTSIDE_LEAR_IMAGE"
    exit_code = 17


class Unidentifiable(LearcovError):
    """A parameter does not affect the likelihood and cannot be estimated."""

    token = "E_UNIDENTIFIABLE"
    exit_code = 18


class DuplicateMeasurement(LearcovError):
    """Two rows share the same subject and measurement time."""

    token = "E_DUPLICATE_MEASUREMENT"
    exit_code = 19


class ParseError(LearcovError):
    """Input file could not be parsed."""

    token = "E_PARSE_ERROR"
    exit_code = 20


class RankDeficient(LearcovError):
    """Stacked design matrix does not have full column rank."""

    token = "E_RANK_DEFICIENT"
    exit_code = 21


class SingularFit(LearcovError):
    """Residual variance estimate is zero; the model fits the data exactly."""

    token = "E_SINGULAR_FIT"
    exit_code = 22


class FitFailed(LearcovError):
    """No usable point was found during optimization."""

    token = "E_FIT_FAILED"
    exit_code = 23


class UnidentifiableWarning(UserWarning):
    """Emitted when a returned parameter value is a convention, not an estimate."""

