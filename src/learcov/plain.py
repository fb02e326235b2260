"""Reading a long-format CSV, and the special-case verdict without numpy.

Every read of a CSV is this module's. _sorted_columns, behind
dataio.read_long_csv, reads the header with csv.reader and the rows with
numpy's C reader (np.loadtxt), which splits fields as csv.reader does,
parses numbers as float() does and refuses the files where it could
differ. A refused file is walked again one row at a time by csv.reader,
which reads it or raises the error of its first bad row. A stream that
cannot seek, such as a pipe, is read into memory first. numpy is imported
by the functions that use it, when they run, and dataclasses never.

``check-special-case`` answers a file smaller than _SMALL_FILE without
numpy. Text without quotes, NULs or lone CRs, in lines of equal width, is
split in bulk a block at a time, and other text read by csv.reader; a file
with a bad row or a repeated (subject, time) is walked, which names the
first. Subjects are runs of equal ids where each one's rows sit together,
else found by a dict, and the distinct time patterns are judged by a port of
reparam._special_case on Python floats. A larger file, or other text with a
field over csv's limit, goes to numpy's reader and reparam._special_case, as
every library caller does. Either judge's verdict is the five flags of
reparam.SpecialCaseReport, a tuple in the order of FLAGS.
"""
from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import warnings
from operator import itemgetter, ne

from .errors import DegenerateGrid, DuplicateMeasurement, ParseError

__all__ = ["DEFAULT_REL_TOL", "FLAGS"]

#: Relative tolerance for judging equal spacing and integer distances.
DEFAULT_REL_TOL = 1e-9

#: The names of a verdict's flags, in order: the fields of
#: reparam.SpecialCaseReport.
FLAGS = ("equally_spaced", "integer_distances", "dmin_is_one", "spacing", "eligible")

# Size of a file, in bytes (characters for a pipe), from which
# check-special-case imports numpy and reads it with numpy's reader. Checking
# simulated files in a new process on 2 vCPUs (medians of 11), the bulk
# split was 136 ms faster than numpy's route at 2.6 MB and 182 ms faster at
# 10.4 MB, and csv.reader, on the same rows with quoted ids, 52 ms faster at
# 11.1 MB. csv.reader with per-row dict grouping broke even at 10.4 MB.
# Above it no route wins everywhere. _check_csv in a new process, imports
# included, on 2 vCPUs (medians of 5; MB is the peak RSS):
#
#   file                                     Python route    numpy's route
#   36.2 MB, 2e5 subjects, 3 shared patterns   506 ms 136 MB   858 ms 203 MB
#   26.7 MB, 1e5 subjects x 8 jittered visits  885 ms 151 MB   772 ms 136 MB
#   the first with R-quoted ids (38.8 MB)     1357 ms 172 MB   797 ms 203 MB
#   the second with R-quoted ids (28.3 MB)    1119 ms 137 MB   716 ms 136 MB
#
# The better route depends on the quoting and the number of patterns, which
# are known only after the read, so the threshold stays where it is.
_SMALL_FILE = 10_000_000


@contextlib.contextmanager
def _open_csv(path):
    """The CSV at ``path`` as a text stream that can seek, and its size.

    The file is read as UTF-8, skipping a leading byte-order mark, with its
    line ends kept as they are (newline=""). A stream that cannot seek, such
    as a pipe, is read into memory first, so that it can be read twice like
    a file on disk; its size is then the number of characters read, and
    otherwise the file's size in bytes. Bytes that are not UTF-8 are
    ParseError, whichever read meets them, placed by their offset in the
    file and their line: the decoder of a text stream places them within
    the block it was decoding.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        data = None if fh.seekable() else fh.buffer.read()
        try:
            if data is None:
                yield fh, os.fstat(fh.fileno()).st_size
            else:
                text = data.decode("utf-8-sig")
                yield io.StringIO(text, newline=""), len(text)
        except UnicodeDecodeError:
            if data is None:
                fh.buffer.seek(0)
                data = fh.buffer.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                # Lines end as the csv module ends them: LF, CRLF or CR.
                line = len((data[:exc.start] + b".").splitlines())
                raise ParseError(f"{exc}, on line {line}") from None
            raise


def _read_header(fh, names):
    """A csv.reader over ``fh`` past the header, and the header position of
    each of ``names``.

    Raises ParseError for an empty file, a header the csv module cannot
    read, or a name the header lacks.
    """
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
    return reader, [header.index(name) for name in names]


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


def _walk_rows(reader, names, positions):
    """The rows left in csv ``reader``: each row's subject id, and one list
    per column of ``names[1:]`` holding the rows' numbers, in file order.

    Raises the error of the first bad row in file order. Within a row: a
    short row, then each named column in ``names`` order, then a repeated
    (subject, time) pair. A row the csv module cannot read is ParseError
    with the csv module's message, numbered by the rows read before it,
    plus one, with the header as row 1.
    """
    needed = max(positions) + 1
    columns = list(zip(names[1:], positions[1:]))
    sids: list[str] = []
    values: list[list[float]] = [[] for _ in columns]
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
            for column, number in zip(values, numbers):
                column.append(number)
    except csv.Error as exc:
        raise ParseError(f"row {row_num + 1}: {exc}") from None
    if not sids:
        raise ParseError("no data rows after the header")
    return sids, values


# Rows that _read_times reads and checks at once.
_BLOCK = 1 << 12


def _read_times(reader, positions):
    """The subject ids and the times of the rows left in csv ``reader``,
    read a block of rows at a time, or None.

    ``positions`` are those of the subject and time fields. None means a
    row that _walk_rows refuses: a short row, a time that float() refuses
    or that is not finite, or no data row at all. A repeated (subject,
    time) pair is not looked for. Each block is checked by a few passes
    that run in C, in about half the time of the walk.
    """
    sid_at, time_at = positions
    needed = max(positions) + 1
    sids: list[str] = []
    times: list[float] = []
    for block in iter(lambda: list(itertools.islice(reader, _BLOCK)), []):
        rows = list(filter(None, block))  # no blank lines
        if min(map(len, rows), default=needed) < needed:
            return None
        try:
            block_times = list(map(float, map(itemgetter(time_at), rows)))
        except ValueError:
            return None
        if not all(map(math.isfinite, block_times)):
            return None
        sids += map(itemgetter(sid_at), rows)
        times += block_times
    return (sids, times) if sids else None


# The bytes _split_times drops: all but commas, line ends, quotes and NUL.
_NOT_SHAPE = bytes(sorted(set(range(256)) - set(b',\n\r"\0')))


def _split_times(fh, positions):
    """The subject ids and times of the rows left in ``fh``, split in bulk a
    block of lines at a time, or None: for text that csv.reader could split
    otherwise (a quote, a NUL, a CR outside CRLF, lines of unequal width or
    too short for ``positions``) or that is not UTF-8, a time that float()
    refuses or that is not finite, or no data line. A field over the csv
    module's limit is split like any other, as numpy's reader reads it."""
    width = None
    sids, cells = [], []
    try:
        for text in iter(lambda: fh.read(_READ_BLOCK) + fh.readline(), ""):
            if "\r" in text:
                text = text.replace("\r\n", "\n")
            text = text.removesuffix("\n")
            shape = text.encode().translate(None, _NOT_SHAPE)
            lines = shape.count(b"\n") + 1
            width = width or (len(shape) + 1) // lines  # if all lines are alike
            if (width <= max(positions)
                    or shape != b"\n".join([b"," * (width - 1)] * lines)):
                return None
            fields = text.replace("\n", ",").split(",")
            sids += fields[positions[0]::width]
            cells += fields[positions[1]::width]
        distinct = set(cells)  # each parsed once
        parsed = dict(zip(distinct, map(float, distinct)))
    except ValueError:  # a time float() refuses, or text that is not UTF-8
        return None
    if not (cells and all(map(math.isfinite, parsed.values()))):
        return None
    return sids, list(map(parsed.__getitem__, cells))


def _subject_times(sids, times) -> list[list[float]] | None:
    """Each distinct list of a subject's times, sorted, in order of first
    appearance, or None when a subject has a time twice. Subjects are runs
    of equal ids where each one's rows sit together, else found by a dict."""
    starts = [0, *itertools.compress(range(1, len(sids)), map(ne, sids[1:], sids))]
    if len(set(map(sids.__getitem__, starts))) == len(starts):
        groups = map(times.__getitem__, map(slice, starts, [*starts[1:], None]))
    else:
        by_subject: dict[str, list[float]] = {}
        for sid, t in zip(sids, times):
            by_subject.setdefault(sid, []).append(t)
        groups = by_subject.values()
    patterns = dict.fromkeys(map(tuple, groups))
    if sum(map(len, map(set, patterns))) < sum(map(len, patterns)):
        return None
    return list(map(sorted, patterns))


def _two_or_more(rows: int) -> None:
    """DegenerateGrid when a file holds a single measurement."""
    if rows == 1:
        raise DegenerateGrid(
            "a single measurement defines no distances; need at least two rows"
        )


# ASCII separators: numpy's number parser strips them as white space,
# float() does not.
_NOT_FLOAT_SPACE = "\x1c\x1d\x1e\x1f"
# Characters of lines read at a time by numpy's reader and _split_times.
_READ_BLOCK = 1 << 16


def _sorted_columns(fh, names):
    """The columns ``names`` of the CSV open as ``fh`` (see _open_csv), rows
    sorted as read_long_csv sorts them, and each subject's row offsets.

    ``names`` starts with the subject column; the rest, the time first, are
    returned as one (columns, rows) array of numbers. Raises what
    read_long_csv raises for these columns; columns left out are not
    parsed. A file numpy's reader refuses is walked from its first data row
    (see _walk_rows).
    """
    import numpy as np

    _, positions = _read_header(fh, names)
    parsed = _load_columns(fh, positions)
    if parsed is None:
        fh.seek(0)
        reader, _ = _read_header(fh, names)
        sids, values = _walk_rows(reader, names, positions)
        parsed = _sort_columns(sids, np.array(values))
    values, rank = parsed
    _two_or_more(len(rank))
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
    import numpy as np

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


def _sort_columns(sids, values):
    """Rows sorted by subject, then time.

    ``sids`` holds each row's subject id and ``values`` the numeric columns
    as one (columns, rows) array. Returns them sorted, with each row's
    subject rank in order of first appearance, or None when a number is not
    finite or a (subject, time) pair repeats.
    """
    import numpy as np

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


def _check_csv(path, names) -> tuple:
    """The special-case flags of the times in the CSV at ``path``.

    ``names`` are the subject and time columns. A file smaller than
    _SMALL_FILE is read without numpy and judged in Python (_check_small);
    a larger one, or one the split refuses with a row the csv module cannot
    read (numpy's reader has no field size limit), is read by numpy's
    reader and judged by reparam._special_case. Both give the verdict and
    the errors of ``reparam.check_special_case`` on the grid of
    ``read_long_csv``.
    """
    with _open_csv(path) as (fh, size):
        if size < _SMALL_FILE:
            try:
                return _check_small(fh, names)
            except csv.Error:
                fh.seek(0)
        from .core import _Patterns
        from .reparam import _special_case as judge

        values, offsets = _sorted_columns(fh, names)
        patterns = _Patterns(values[0], offsets)
        return judge(patterns, patterns.defined_extremes()[0])


def _check_small(fh, names) -> tuple:
    """_check_csv of the CSV open as ``fh``, without numpy."""
    _, positions = _read_header(fh, names)
    read = _split_times(fh, positions)
    if read is None:
        fh.seek(0)
        reader, _ = _read_header(fh, names)
        read = _read_times(reader, positions)
    subjects = None if read is None else _subject_times(*read)
    if subjects is None:
        # Only a bad row or a repeated pair gets here: the walk raises it.
        fh.seek(0)
        reader, _ = _read_header(fh, names)
        _walk_rows(reader, names, positions)
    _two_or_more(len(read[0]))
    return _special_case(subjects)


def _special_case(
    subject_times: list[list[float]], rel_tol: float = DEFAULT_REL_TOL
) -> tuple:
    """reparam._special_case on Python floats: the flags in FLAGS order.

    ``subject_times`` holds each subject's times, or each distinct list of
    them, sorted, in order of first appearance. The arithmetic is numpy's,
    one IEEE operation at a time, so the flags and the spacing have the
    same bits. Each distinct gap and each distinct difference between two
    times of a subject is judged once: a quotient depends on the difference
    alone.
    """
    multi = [t for t in subject_times if len(t) > 1]
    if not multi:
        raise DegenerateGrid(
            "every subject has a single measurement; no distance is defined"
        )
    # The first subject with two times fixes the gap.
    h = multi[0][1] - multi[0][0]
    gaps = {b - a for t in multi for a, b in zip(t, t[1:])}
    bound = rel_tol * abs(h)
    equally_spaced = all(abs(g - h) <= bound for g in gaps)

    scale = h if equally_spaced else 1.0
    # Each difference is judged when first met, and the first that is not
    # whole ends the check.
    judged: set[float] = set()
    integer_distances = all(
        _whole(d / scale, rel_tol)
        for t in multi for a, b in itertools.combinations(t, 2)
        if (d := b - a) not in judged and not judged.add(d)
    )
    dmin_is_one = abs(min(gaps) / scale - 1.0) <= rel_tol

    return (equally_spaced, integer_distances, dmin_is_one,
            h if equally_spaced else None,
            equally_spaced and integer_distances and dmin_is_one)


def _whole(s: float, rel_tol: float) -> bool:
    """Whether ``s`` is a whole number within ``rel_tol``, as
    reparam._whole_distances judges one distance: never when it is
    infinite."""
    return math.isfinite(s) and abs(s - round(s)) <= rel_tol * max(1.0, abs(s))
