"""Long-format CSV ingest/emit and the JSON simulation-spec loader.

Long format: one row per measurement, UTF-8 (a leading byte-order mark is
skipped), header row required, RFC-4180 quoting. Default column names are
"subject", "time", "y"; extra columns are ignored unless explicitly named
as design covariates. Subjects keep their order of first appearance and
rows are sorted by time within subject, so a shuffled file ingests to the
same dataset.

After the header, which csv.reader reads, numpy's C reader (np.loadtxt)
parses the rows straight into the dataset's columns. It splits fields as
csv.reader does and parses numbers as float() does, and it refuses the
files where it could differ. A file it refuses is walked again from its
first data row by csv.reader, one row at a time, which reads it or raises
the error of its first bad row. A stream that cannot seek, such as a
pipe, is read into memory first, so it takes the same two paths.

A file is written a block of rows (_WRITE_BLOCK) at a time, each block
formatted by one % call. Each distinct time is formatted once and each
subject id quoted once; only y is formatted per row.

The dataset type and the design rules come from learcov.model, so reading
and writing CSV loads neither the estimation nor the simulation module;
load_sim_spec imports sim for SimSpec when it is called.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
import warnings
from collections import Counter
from dataclasses import asdict, fields
from typing import TYPE_CHECKING

import numpy as np

from .core import Arma11Params, LearParams
from .errors import (
    DegenerateGrid,
    DuplicateMeasurement,
    InvalidParams,
    ParseError,
)
from .model import DESIGN_RULES, RepeatedMeasuresData, rule_design

if TYPE_CHECKING:
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
# ASCII separators: numpy's number parser strips them as white space,
# float() does not.
_NOT_FLOAT_SPACE = "\x1c\x1d\x1e\x1f"
# Characters of lines handed to numpy's reader at a time.
_READ_BLOCK = 1 << 16


def _parse_number(text: str, row: int, column: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise ParseError(
            f"row {row}: cannot parse {column}={text!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"row {row}: {column}={text!r} is not finite")
    return value


def _design_columns(design) -> tuple[str | None, list[str]]:
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
    subject.

    Raises:
        ParseError: missing header/columns, short rows, non-numeric values,
            or a row the csv module cannot read (such as a field over its
            field size limit, in a header or in a file that numpy's reader
            refuses), reported with the number of the first bad row
            (header is row 1).
        DuplicateMeasurement: repeated (subject, time) pair.
        DegenerateGrid: fewer than two measurements in the whole file.
    """
    rule, covariate_cols = _design_columns(design)
    names = [subject_col, time_col, y_col, *covariate_cols]
    values, offsets = _read_sorted(path, names)
    t = values[0]
    if covariate_cols:
        X = np.ascontiguousarray(values[2:].T)
    else:
        X = rule_design(rule, t)
    return RepeatedMeasuresData._from_columns(t, values[1], X, offsets)


def _read_sorted(path, names):
    """The columns ``names`` of the CSV at ``path``, rows sorted by subject.

    ``names`` starts with the subject column; the rest are parsed as
    numbers, and the first of them is the time. Returns the numeric columns
    as one (columns, rows) array, in ``names`` order and sorted as
    read_long_csv orders rows, and each subject's row offsets into it.
    Raises what read_long_csv raises for these columns: columns the file
    has but ``names`` leaves out are not parsed.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        if not fh.seekable():
            # Kept whole so that a file numpy's reader refuses can be walked
            # again; newline="" keeps line ends as the file has them.
            fh = io.StringIO(fh.read(), newline="")
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ParseError(f"row 1: {exc}") from None
        if header is None:
            raise ParseError("empty file: a header row is required")
        for name in names:
            if name not in header:
                raise ParseError(f"missing required column {name!r} in header")
        positions = [header.index(name) for name in names]
        parsed = _load_columns(fh, positions)
        if parsed is None:
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            parsed = _read_rows(reader, names, positions)
    values, rank = parsed
    if len(rank) == 1:
        raise DegenerateGrid(
            "a single measurement defines no distances; need at least two rows"
        )
    return values, np.concatenate(([0], np.cumsum(np.bincount(rank))))


def _load_columns(fh, positions):
    """The rows after the header, read by numpy's C reader, or None.

    Fields are split as csv.reader splits them and numbers parsed with the
    routine behind float(), so what this read accepts it reads to the same
    bits. It refuses more: numbers that only float() takes (such as 1_0 or
    non-ASCII digits), rows too short for ``positions``, and every block of
    lines holding a character from \\x1c to \\x1f, which numpy strips from
    around a number and float() does not. It also returns None for the
    faults _sort_columns finds and for a file without data rows, so that
    the row walk reports them.
    """
    def checked(lines):
        text = "".join(lines)
        if any(c in text for c in _NOT_FLOAT_SPACE):
            raise ValueError("a number may be framed by an ASCII separator")
        return lines

    blocks = iter(lambda: fh.readlines(_READ_BLOCK), [])
    dtype = np.dtype([(f"f{i}", object if i == 0 else float)
                      for i in range(len(positions))])
    try:
        # loadtxt warns of a file with no data rows; the row walk refuses it.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(
                itertools.chain.from_iterable(map(checked, blocks)),
                dtype=dtype, delimiter=",", quotechar='"', comments=None,
                usecols=positions, ndmin=1,
            )
    except ValueError:
        return None
    if not table.size:
        return None
    values = np.array([table[name] for name in dtype.names[1:]])
    return _sort_columns(table["f0"].tolist(), values)


def _read_rows(reader, names, positions):
    """The rows left in csv ``reader``, parsed: what _sort_columns returns.

    Raises the error of the first bad row in file order. Within a row: a
    short row, then each named column in ``names`` order, then a repeated
    (subject, time) pair. A row the csv module cannot read is numbered by
    the rows read before it; the header is row 1.
    """
    needed = max(positions) + 1
    columns = list(zip(names[1:], positions[1:]))
    sids: list[str] = []
    rows: list[list[float]] = []
    seen: set[tuple[str, float]] = set()
    row_num = 1
    try:
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < needed:
                raise ParseError(
                    f"row {row_num}: expected at least {needed} fields, got {len(row)}"
                )
            sid = row[positions[0]]
            numbers = [_parse_number(row[pos], row_num, name) for name, pos in columns]
            if (sid, numbers[0]) in seen:
                raise DuplicateMeasurement(
                    f"row {row_num}: duplicate measurement for subject "
                    f"{sid!r} at time {numbers[0]!r}"
                )
            seen.add((sid, numbers[0]))
            sids.append(sid)
            rows.append(numbers)
    except csv.Error as exc:
        raise ParseError(f"row {row_num + 1}: {exc}") from None
    if not rows:
        raise ParseError("no data rows after the header")
    return _sort_columns(sids, np.ascontiguousarray(np.array(rows).T))


def _sort_columns(sids, values):
    """Rows sorted by subject, then time.

    ``sids`` holds each row's subject id and ``values`` the numeric columns
    as one (columns, rows) array. Returns them sorted, with each row's
    subject rank in order of first appearance, or None when a number is not
    finite or a (subject, time) pair repeats.
    """
    if not np.isfinite(values).all():
        return None
    rank_of = {sid: r for r, sid in enumerate(dict.fromkeys(sids))}
    rank = np.fromiter(map(rank_of.__getitem__, sids), np.intp, len(sids))
    order = np.lexsort((values[0], rank))
    values, rank = values[:, order], rank[order]
    t = values[0]
    if ((t[1:] == t[:-1]) & (rank[1:] == rank[:-1])).any():
        return None
    return values, rank


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


def _numeric_array(value, field: str) -> np.ndarray:
    """Float array of a JSON number or (nested) array of numbers.

    Shapes are left to SimSpec to judge; anything non-numeric, or nested
    unevenly, raises ParseError naming ``field``.
    """
    def numeric(v) -> bool:
        return all(map(numeric, v)) if isinstance(v, list) else _is_number(v)

    if numeric(value):
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
