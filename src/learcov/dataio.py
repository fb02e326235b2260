"""Long-format CSV ingest/emit and the JSON simulation-spec loader.

Long format: one row per measurement, UTF-8 (a leading byte-order mark is
skipped), header row required, RFC-4180 quoting. Default column names are
"subject", "time", "y"; extra columns are ignored unless explicitly named
as design covariates. Subjects keep their order of first appearance and
rows are sorted by time within subject, so a shuffled file ingests to the
same dataset.

The read itself, from opening the file to the sorted columns, is
learcov.plain's, shared with check-special-case; this module builds the
dataset of the columns. A file is written a block of rows (_WRITE_BLOCK)
at a time, each block formatted by one % call. Each distinct time is
formatted once and each subject id quoted once; only y is formatted per
row.

learcov.model, which defines the dataset type and the design rules, and
learcov.plain are imported by read_long_csv when it is called, as
load_sim_spec imports sim for SimSpec and json for the spec: reading and
writing CSV loads neither the estimation nor the simulation module nor
json, and writing neither the model nor learcov.plain.
"""
from __future__ import annotations

import csv
import io
import re
from collections import Counter
from dataclasses import asdict, fields
from typing import TYPE_CHECKING

import numpy as np

from .core import Arma11Params, LearParams
from .errors import InvalidParams, ParseError

if TYPE_CHECKING:
    from .model import RepeatedMeasuresData
    from .sim import SimSpec

__all__ = [
    "read_long_csv",
    "write_long_csv",
    "load_sim_spec",
    "sim_spec_to_dict",
    "SIM_SPEC_SCHEMA_VERSION",
]

SIM_SPEC_SCHEMA_VERSION = 1

# Characters that can make csv.writer quote a field.
_NEEDS_WRITER = re.compile('[,"\r\n]')


def _design_columns(design) -> tuple[str | None, list[str]]:
    from .model import DESIGN_RULES

    if isinstance(design, str):
        if design not in DESIGN_RULES:
            raise InvalidParams(
                f"design must be one of {DESIGN_RULES} or a sequence of "
                f"covariate column names (got {design!r})"
            )
        return design, []
    names = [str(c) for c in design]
    if not names:
        raise InvalidParams("covariate design needs at least one column name")
    return None, names


def read_long_csv(
    path,
    subject_col: str = "subject",
    time_col: str = "time",
    y_col: str = "y",
    design="intercept",
) -> RepeatedMeasuresData:
    """Read a long-format CSV into per-subject vectors and design matrices.

    ``design`` selects the fixed-effects matrix: "intercept" gives a single
    constant column, "intercept-time" adds the measurement time, and a
    sequence of column names uses those columns verbatim (include your own
    constant column if you want one).

    Subjects are ordered by first appearance and rows by time within
    subject. A design without full column rank is read; a fit refuses it.

    Raises:
        ParseError: missing header/columns, short rows, non-numeric values,
            or a row the csv module cannot read (such as a field over its
            field size limit, in a header or in a file that numpy's reader
            refuses), reported with the number of the first bad row
            (header is row 1).
        DuplicateMeasurement: repeated (subject, time) pair.
        DegenerateGrid: fewer than two measurements in the whole file.
    """
    from .model import RepeatedMeasuresData, rule_design
    from .plain import _open_csv, _sorted_columns

    rule, covariate_cols = _design_columns(design)
    names = [subject_col, time_col, y_col, *covariate_cols]
    with _open_csv(path) as (fh, _):
        values, offsets = _sorted_columns(fh, names)
    t = values[0]
    if covariate_cols:
        X = np.ascontiguousarray(values[2:].T)
    else:
        X = rule_design(rule, t)
    return RepeatedMeasuresData._from_columns(t, values[1], X, offsets)


def write_long_csv(path, data: RepeatedMeasuresData, subject_ids=None) -> None:
    """Write subject, time, y columns with 17-significant-digit numbers.

    Design matrices are not written; they are reconstructed at ingest time
    via the design rule. Default subject ids are "s1", "s2", ...

    Raises:
        InvalidParams: ``subject_ids`` does not give one id per subject, or
            two subjects' ids are equal as strings (reading the file back
            would merge them).
    """
    if subject_ids is None:
        subject_ids = [f"s{i + 1}" for i in range(data.n_subjects)]
    else:
        subject_ids = [str(s) for s in subject_ids]
        if len(subject_ids) != data.n_subjects:
            raise InvalidParams(
                f"got {len(subject_ids)} subject ids for {data.n_subjects} subjects"
            )
        repeated = [sid for sid, n in Counter(subject_ids).items() if n > 1]
        if repeated:
            raise InvalidParams(
                f"subject id {repeated[0]!r} is given to more than one subject"
            )
    ids = np.repeat(np.array(_csv_fields(subject_ids), dtype=object),
                    np.diff(data.offsets))
    # Each distinct time is formatted once, keyed by its bits: -0.0 and 0.0
    # stay apart.
    bits, inverse = np.unique(data.times.view(np.uint64), return_inverse=True)
    times = np.array(["%.17g" % t for t in bits.view(float).tolist()],
                     dtype=object)
    fields = np.empty((data.n_obs, 3), dtype=object)
    fields[:, 0] = ids
    fields[:, 1] = times[inverse]
    fields[:, 2] = data.y.tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("subject,time,y\n")
        for lo in range(0, data.n_obs, _WRITE_BLOCK):
            block = fields[lo:lo + _WRITE_BLOCK]
            fh.write("%s,%s,%.17g\n" * len(block) % tuple(block.ravel().tolist()))


# Rows formatted by one % call; bounds the text held at once.
_WRITE_BLOCK = 1 << 16


def _csv_fields(values: list[str]) -> list[str]:
    """Each value as csv.writer writes it as the first of several fields.

    Only a value that is empty or holds a comma, a quote, a carriage return
    or a newline goes to the writer; any other is written as it is. Quoting
    follows the writer's dialect. Each value is written with an empty
    second field, which is then cut off: alone in its row, an empty value
    would be written as "".
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    out = []
    for value in values:
        if value and not _NEEDS_WRITER.search(value):
            out.append(value)
            continue
        buf.seek(0)
        buf.truncate()
        writer.writerow((value, ""))
        out.append(buf.getvalue()[:-2])  # without the trailing ",\n"
    return out


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ParseError(f"{context}: missing required field {key!r}")
    return mapping[key]


_COVARIANCE_CLASSES = {"lear": LearParams, "arma11": Arma11Params}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numeric(value) -> bool:
    """Whether ``value`` is a number or a list of them, nested to any depth."""
    return all(map(_numeric, value)) if isinstance(value, list) else _is_number(value)


def _numeric_array(value, field: str) -> np.ndarray:
    """Float array of a JSON number or (nested) array of numbers.

    Shapes are left to SimSpec to judge; anything non-numeric, or nested
    unevenly, raises ParseError naming ``field``.
    """
    if _numeric(value):
        try:
            return np.asarray(value, dtype=float)
        except (ValueError, OverflowError):
            pass
    raise ParseError(
        f"field {field!r} must be numeric: a number or a regular array of numbers"
    )


def load_sim_spec(path) -> SimSpec:
    """Load a SimSpec from JSON.

    Expected shape (schema_version 1):

        {"schema_version": 1, "n_subjects": 100, "times": [[1, 2, 3]],
         "beta": [1.0], "design": "intercept", "seed": 42,
         "covariance": {"parameterization": "lear", "sigma2": 1.0,
                        "rho_l": 0.5, "delta": 1.0}}

    "times" may be a single template or a list of templates; "design" is
    optional and defaults to "intercept". Unknown fields are rejected so
    typos fail loudly instead of silently using defaults.
    """
    import json

    from .sim import SimSpec

    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in simulation spec: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError("simulation spec must be a JSON object")
    version = _require(raw, "schema_version", "simulation spec")
    if version != SIM_SPEC_SCHEMA_VERSION:
        raise ParseError(
            f"unsupported schema_version {version!r}; this reader handles "
            f"{SIM_SPEC_SCHEMA_VERSION}"
        )
    allowed = {
        "schema_version", "n_subjects", "times", "beta", "design",
        "covariance", "seed",
    }
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ParseError(f"unknown simulation spec fields: {', '.join(unknown)}")

    cov_raw = _require(raw, "covariance", "simulation spec")
    if not isinstance(cov_raw, dict):
        raise ParseError("covariance must be a JSON object")
    kind = _require(cov_raw, "parameterization", "covariance")
    if kind not in _COVARIANCE_CLASSES:
        raise ParseError(
            f"covariance parameterization must be 'lear' or 'arma11' (got {kind!r})"
        )
    cls = _COVARIANCE_CLASSES[kind]
    names = [f.name for f in fields(cls)]
    extra = sorted(set(cov_raw) - {"parameterization", *names})
    if extra:
        raise ParseError(f"unknown covariance fields: {', '.join(extra)}")
    values = [_require(cov_raw, f, "covariance") for f in names]
    for name, v in zip(names, values):
        if not _is_number(v):
            raise ParseError(f"covariance field {name!r} must be a number")
    cov = cls(*map(float, values))

    times = _require(raw, "times", "simulation spec")
    if not isinstance(times, list):
        raise ParseError(
            "field 'times' must be an array of times or of time templates"
        )
    if times and not isinstance(times[0], list):
        times = [times]
    design = raw.get("design", "intercept")
    if not isinstance(design, str):
        raise ParseError("design must be a string rule in simulation specs")
    return SimSpec(
        n_subjects=_require(raw, "n_subjects", "simulation spec"),
        times=tuple(_numeric_array(t, "times") for t in times),
        beta=_numeric_array(_require(raw, "beta", "simulation spec"), "beta"),
        covariance=cov,
        seed=_require(raw, "seed", "simulation spec"),
        design=design,
    )


def sim_spec_to_dict(spec: SimSpec) -> dict:
    """Inverse of load_sim_spec for round-tripping specs to JSON."""
    kind = "lear" if isinstance(spec.covariance, LearParams) else "arma11"
    if not isinstance(spec.design, str):
        raise InvalidParams("explicit design matrices do not round-trip to JSON")
    return {
        "schema_version": SIM_SPEC_SCHEMA_VERSION,
        "n_subjects": spec.n_subjects,
        "times": [list(map(float, t)) for t in spec.times],
        "beta": [float(b) for b in spec.beta],
        "design": spec.design,
        "seed": spec.seed,
        "covariance": {"parameterization": kind, **asdict(spec.covariance)},
    }
