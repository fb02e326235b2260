import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import threading
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import learcov as lc
from learcov import _jsonio, dataio, plain
from conftest import (
    csv_writer_write_long_csv,
    per_row_read_long_csv,
    simulated_dataset,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


GOOD_CSV = "subject,time,y\na,1,0.5\na,2,0.7\nb,1,1.5\nb,3,0.1\n"


# --------------------------------------------------------------------------
# long-format CSV


def test_read_long_csv_groups_by_subject(tmp_path):
    data = lc.read_long_csv(write(tmp_path, GOOD_CSV))
    assert data.n_subjects == 2
    assert np.array_equal(data.subjects[0].times, [1.0, 2.0])
    assert np.array_equal(data.subjects[1].y, [1.5, 0.1])
    assert np.array_equal(data.subjects[0].X, np.ones((2, 1)))
    assert data.grid.d_min == 1.0
    assert data.grid.d_max == 2.0


def test_read_long_csv_is_order_invariant(tmp_path):
    shuffled = "subject,time,y\nb,3,0.1\na,2,0.7\nb,1,1.5\na,1,0.5\n"
    plain = lc.read_long_csv(write(tmp_path, GOOD_CSV, "a.csv"))
    mixed = lc.read_long_csv(write(tmp_path, shuffled, "b.csv"))
    # subjects keep first-appearance order, rows sort by time within subject
    assert np.array_equal(mixed.subjects[0].times, [1.0, 3.0])
    assert np.array_equal(mixed.subjects[0].y, plain.subjects[1].y)
    assert np.array_equal(mixed.subjects[1].y, plain.subjects[0].y)


def test_read_long_csv_honors_custom_column_names(tmp_path):
    path = write(tmp_path, "id,visit,resp,junk\nx,1,2.0,9\nx,2,3.0,9\n")
    data = lc.read_long_csv(path, subject_col="id", time_col="visit", y_col="resp")
    assert np.array_equal(data.subjects[0].y, [2.0, 3.0])


def test_read_long_csv_builds_rule_designs(tmp_path):
    path = write(tmp_path, GOOD_CSV)
    data = lc.read_long_csv(path, design="intercept-time")
    assert np.array_equal(
        data.subjects[1].X, np.column_stack([np.ones(2), [1.0, 3.0]])
    )


def test_read_long_csv_takes_covariate_columns_verbatim(tmp_path):
    text = "subject,time,y,dose\na,1,0.5,10\na,2,0.7,20\nb,1,1.5,30\nb,3,0.1,40\n"
    data = lc.read_long_csv(write(tmp_path, text), design=["dose"])
    # no implicit intercept: the named columns are the whole matrix
    assert np.array_equal(data.subjects[1].X, [[30.0], [40.0]])


def test_read_long_csv_rejects_unknown_design_rule(tmp_path):
    with pytest.raises(lc.InvalidParams):
        lc.read_long_csv(write(tmp_path, GOOD_CSV), design="cubic")
    with pytest.raises(lc.InvalidParams):
        lc.read_long_csv(write(tmp_path, GOOD_CSV), design=[])


def test_read_long_csv_reports_row_numbers(tmp_path):
    path = write(tmp_path, "subject,time,y\na,1,0.5\na,two,0.7\n")
    with pytest.raises(lc.ParseError, match="row 3"):
        lc.read_long_csv(path)


def test_read_long_csv_rejects_short_rows(tmp_path):
    path = write(tmp_path, "subject,time,y\na,1,0.5\na,2\n")
    with pytest.raises(lc.ParseError, match="row 3"):
        lc.read_long_csv(path)


@pytest.mark.parametrize("text, row", [
    # Over csv's default field size limit of 131072 characters.
    ("subject,time,y\na,1,0.5\na,2," + "1" * 200_000 + "\n", 3),
    ("subject,time," + "y" * 200_000 + "\na,1,0.5\n", 1),
    # Row numbers count blank lines and rows whose quoted field spans lines.
    ('subject,time,y\n"a\nb",1,0.5\n\na,2,"' + "1" * 200_000 + '"\n', 4),
])
def test_read_long_csv_reports_unreadable_rows(tmp_path, text, row):
    assert len(text) < 2 ** 18  # the limit is not raised on the way
    with pytest.raises(lc.ParseError, match=f"^row {row}: field larger than field limit"):
        lc.read_long_csv(write(tmp_path, text))


def test_read_long_csv_reads_a_long_field_in_a_column_it_does_not_use(tmp_path):
    # csv.reader refuses fields over its limit; numpy's reader has none, so
    # a file it reads whole is read even where a spare field is that long.
    text = "subject,time,y,junk\na,1,0.5,j\na,2,0.7,{}\nb,1,1.5,j\n"
    data = lc.read_long_csv(write(tmp_path, text.format("j" * 200_000), "long.csv"))
    plain = lc.read_long_csv(write(tmp_path, text.format("j"), "short.csv"))
    for name in ("times", "y", "X", "offsets"):
        assert getattr(data, name).tobytes() == getattr(plain, name).tobytes()
    # A file numpy's reader refuses (here for a short row) is walked row by
    # row, which still names the long field's row.
    with pytest.raises(lc.ParseError, match="^row 3: field larger than field limit"):
        lc.read_long_csv(write(tmp_path, text.format("j" * 200_000) + "c,1\n"))


def test_the_row_walk_numbers_a_row_past_the_csv_limit():
    reader = csv.reader(io.StringIO(
        "subject,time,y\na,1,0.5\n\na,2," + "1" * 200_000 + "\n", newline=""))
    next(reader)
    with pytest.raises(lc.ParseError,
                       match=r"^row 4: field larger than field limit \(131072\)$"):
        plain._walk_rows(reader, ["subject", "time", "y"], [0, 1, 2])


def test_read_long_csv_names_the_first_bad_row(tmp_path):
    # A short row before a row the csv module cannot read is the one named.
    text = "subject,time,y\na,1,0.5\na,2\nb,1," + "1" * 200_000 + "\n"
    with pytest.raises(lc.ParseError, match="^row 3: expected at least 3 fields"):
        lc.read_long_csv(write(tmp_path, text))


# CR line ends, and ids holding CRLF and LF, which a read that turned CRLF
# into LF would merge into one subject measured twice at time 1.
CR_TEXT = 'subject,time,y\r"x\r\ny",1,0.5\r"x\ny",1,0.7\r"x\r\ny",2,0.1\r"x\ny",3,0.2\r'


def through_fifo(fifo, data, read):
    """``read(fifo)`` of a FIFO made at ``fifo`` while ``data`` is written
    into it. Each end runs in a thread of its own, so a read that blocks
    fails the test instead of hanging the suite."""
    os.mkfifo(fifo)
    outcome = []
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    reader = threading.Thread(target=lambda: outcome.append(read(fifo)), daemon=True)
    writer.start()
    reader.start()
    reader.join(timeout=60)
    writer.join(timeout=60)
    assert not reader.is_alive() and not writer.is_alive()
    (got,) = outcome
    return got


@pytest.mark.parametrize("text, error", [
    (GOOD_CSV, None),
    ("subject,time,y\na,1,0.5\na,1_0,0.7\nb,1,1.5\nb,x,0.1\n", "row 5: cannot parse"),
    # Over the csv module's field limit: numbered without reading the pipe
    # a second time.
    ("subject,time,y\na,1," + "1" * 200_000 + "\n", "row 2: field larger than field limit"),
    (CR_TEXT, None),
    ("subject,time,y,junk\na,1,0.5,j\na,2,0.7," + "j" * 200_000 + "\nb,1,1.5,j\n", None),
])
def test_read_long_csv_reads_a_stream_that_cannot_seek(tmp_path, text, error):
    # A pipe is read into memory first, so it is read as the same file on
    # disk is.
    def read(fifo):
        try:
            return lc.read_long_csv(fifo)
        except lc.LearcovError as exc:
            return exc

    got = through_fifo(tmp_path / "pipe.csv", text.encode(), read)
    if error is None:
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        want = lc.read_long_csv(path)
        for name in ("times", "y", "X", "offsets"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    else:
        assert isinstance(got, lc.ParseError)
        assert str(got).startswith(error)


def test_read_long_csv_rejects_non_finite_values(tmp_path):
    path = write(tmp_path, "subject,time,y\na,1,inf\na,2,0.7\n")
    with pytest.raises(lc.ParseError, match="not finite"):
        lc.read_long_csv(path)


def test_read_long_csv_rejects_missing_columns(tmp_path):
    path = write(tmp_path, "subject,when,y\na,1,0.5\n")
    with pytest.raises(lc.ParseError, match="'time'"):
        lc.read_long_csv(path)


def test_read_long_csv_rejects_empty_input(tmp_path):
    with pytest.raises(lc.ParseError, match="header"):
        lc.read_long_csv(write(tmp_path, ""))
    with pytest.raises(lc.ParseError, match="no data rows"):
        lc.read_long_csv(write(tmp_path, "subject,time,y\n"))


def test_read_long_csv_rejects_single_measurement(tmp_path):
    with pytest.raises(lc.DegenerateGrid):
        lc.read_long_csv(write(tmp_path, "subject,time,y\na,1,0.5\n"))


def test_read_long_csv_rejects_duplicate_measurements(tmp_path):
    path = write(tmp_path, "subject,time,y\na,1,0.5\na,1,0.7\n")
    with pytest.raises(lc.DuplicateMeasurement, match="row 3"):
        lc.read_long_csv(path)


def test_read_long_csv_skips_blank_lines(tmp_path):
    path = write(tmp_path, "subject,time,y\na,1,0.5\n\na,2,0.7\n")
    assert lc.read_long_csv(path).n_obs == 2


def test_read_long_csv_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + GOOD_CSV.encode("utf-8"))
    data = lc.read_long_csv(path)
    plain = lc.read_long_csv(write(tmp_path, GOOD_CSV))
    for name in ("times", "y", "X", "offsets"):
        assert getattr(data, name).tobytes() == getattr(plain, name).tobytes()


IDS = ["a", "b", "c,d", 'say "hi"', "two\nlines", ""]
BAD_CELLS = ["x", "", "nan", "inf", "-inf", "1e999", "1,5"]
TIME_CELLS = st.one_of(
    st.integers(0, 300).map(str), st.sampled_from(["-0.0", "0.0", "2.5", " 7", "1e1"])
)
NUMBER_CELLS = st.floats(-1e3, 1e3).map(repr)
COLUMNS = ["subject", "time", "y", "dose", "junk"]


@st.composite
def long_csv_rows(draw):
    """Header and records of a long-format CSV, now and then with a fault:
    a short row, an unparsable or non-finite cell, a repeated (subject,
    time) pair, or a blank line, each at a random row."""
    header = draw(st.permutations(COLUMNS))
    # Distinct cells; "0", "0.0" and "-0.0" are still the same time.
    keys = draw(st.lists(st.tuples(st.sampled_from(IDS), TIME_CELLS),
                         max_size=20, unique=True))
    rows = []
    for sid, t in keys:
        cells = {
            "subject": sid,
            "time": t,
            "y": draw(NUMBER_CELLS),
            "dose": draw(NUMBER_CELLS),
            "junk": "j",
        }
        rows.append([cells[c] for c in header])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(rows)))
        kind = draw(st.sampled_from(["short", "bad", "duplicate", "blank"]))
        if kind == "blank":
            rows.insert(at, [])
        elif rows:
            i = at % len(rows)
            if kind == "short":
                rows[i] = rows[i][:draw(st.integers(1, len(COLUMNS) - 1))]
            elif kind == "bad":
                column = header.index(draw(st.sampled_from(["time", "y", "dose"])))
                if column < len(rows[i]):
                    rows[i][column] = draw(st.sampled_from(BAD_CELLS))
            else:
                rows.insert(at, list(rows[i]))
    return header, rows


def read_outcome(read, path, design):
    try:
        data = read(path, design=design)
    except lc.LearcovError as exc:
        return type(exc), str(exc)
    return [
        tuple((a.shape, a.tobytes()) for a in (s.times, s.y, s.X))
        for s in data.subjects
    ]


@settings(max_examples=400, deadline=None)
@given(
    long_csv_rows(),
    st.sampled_from(["intercept", "intercept-time", ["dose"], ["dose", "y"]]),
)
def test_read_long_csv_matches_the_per_row_read(tmp_path_factory, csv_rows, design):
    header, rows = csv_rows
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    assert read_outcome(lc.read_long_csv, path, design) == read_outcome(
        per_row_read_long_csv, path, design
    )


# Cells on which numpy's reader and float() could part: syntax only float()
# takes, white space each strips, quotes and line breaks inside fields.
ODD_NUMBERS = [
    "1_0", " 1.5 ", "+.5", "5.", "-0", "1e400", "nan", "Infinity", "١٢",
    "0x10", "1.5\x00", "1\x1c", "\x1f2", "3 ", " 4", '"5"', '"6\r\n"',
    '"7""', " 8", "9\t", "\x0b10",
]
ODD_TEXT = st.text(alphabet=',"\r\n\x00\u2028 ab1', max_size=6)


@st.composite
def odd_csv_text(draw, grouped=False):
    """A long-format CSV written by hand, with a few odd cells: numbers from
    ODD_NUMBERS, ids and spare fields drawn from an alphabet of commas,
    quotes, line breaks, NUL, U+2028 and spaces, rows cut short or run
    long, lines ended by LF, CRLF or CR, and now and then a leading
    byte-order mark. Each row draws its id, so subjects mostly interleave;
    when ``grouped``, the file is written as a program writes one: each
    subject's rows together, ids that are not odd cells without a comma,
    and every line ended by LF or every line by CRLF."""
    header = draw(st.permutations(COLUMNS))
    # Odd cells in twenty: none, some, or many.
    rate = draw(st.sampled_from([0, 1, 4]))

    def cell(plain, odd):
        return draw(odd if draw(st.integers(0, 19)) < rate else plain)

    numbers = st.sampled_from(ODD_NUMBERS)
    ids = ["a", "b", "c"] if grouped else IDS[:3]
    end = draw(st.sampled_from(["\n", "\r\n", *([] if grouped else ["\r", None])]))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        cells = {
            "subject": cell(st.sampled_from(ids), ODD_TEXT),
            "time": cell(TIME_CELLS, numbers),
            "y": cell(NUMBER_CELLS, numbers),
            "dose": cell(NUMBER_CELLS, numbers),
            "junk": cell(st.just("j"), ODD_TEXT),
        }
        row = [cells[c] for c in header]
        cut = cell(st.none(), st.sampled_from([1, 3, 6]))
        if cut is not None:
            row = (row + ["x"])[:cut]
        rows.append((cells["subject"], ",".join(row)))
    if grouped:
        rows.sort(key=itemgetter(0))
    lines = [",".join(header), *map(itemgetter(1), rows)]
    if cell(st.just(False), st.just(True)):
        lines.insert(draw(st.integers(1, len(lines))), "")
    ends = [end or draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + e for line, e in zip(lines, ends))
    if not draw(st.booleans()):
        text = text[:-len(ends[-1])]
    return "\ufeff" + text if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(odd_csv_text(), st.sampled_from(["intercept", ["dose"], ["dose", "y"]]))
def test_read_long_csv_matches_the_per_row_read_on_odd_text(
    tmp_path_factory, text, design
):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    assert read_outcome(lc.read_long_csv, path, design) == read_outcome(
        per_row_read_long_csv, path, design
    )


# Faults of the full read that lie in the subject or time column, or in no
# column: the read of those two columns alone meets them as well.
TIME_FAULTS = re.compile(
    r"row \d+: (cannot parse time=|time=.* is not finite|duplicate measurement)"
    r"|a single measurement|no data rows"
)


def csv_error(path):
    """The csv module's message for the file, or None when it reads it."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            list(csv.reader(fh))
        except csv.Error as exc:
            return str(exc)
    return None


LONG_FIELD = "1" * 200_000


@settings(max_examples=300, deadline=None)
@given(odd_csv_text())
# Fields over the csv module's limit, which odd_csv_text does not draw.
@example(f"subject,time,y\na,1,0.5\na,{LONG_FIELD},0.7\nb,1,1\n")
@example(f"subject,time,y\na,1,0.5\na,2,{LONG_FIELD}\nb,1,1\n")
def test_the_times_read_alone_as_in_the_full_read(tmp_path_factory, text):
    # check-special-case reads the subject and time columns alone.
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        with plain._open_csv(path) as (fh, _):
            values, offsets = plain._sorted_columns(fh, ["subject", "time"])
        narrowed = values[0].tobytes(), offsets.tobytes()
    except lc.LearcovError as exc:
        narrowed = type(exc), str(exc)
    try:
        data = lc.read_long_csv(path)
    except lc.LearcovError as exc:
        full = type(exc), str(exc)
        error = csv_error(path)
        if TIME_FAULTS.match(full[1]):
            assert narrowed == full
        elif error is not None and full[1].endswith(f": {error}"):
            # The same error, unless numpy's reader takes the two columns
            # whole: it skips the other fields, however long.
            assert narrowed == full or isinstance(narrowed[0], bytes)
        return
    assert narrowed == (data.times.tobytes(), data.offsets.tobytes())


ROWS = "a,1,0.5\na,2,0.7\nb,1,1.5\nb,3,0.1\n"


# The routes of the check: the bulk split of a small file, csv.reader on a
# small file, and numpy's reader.
ROUTES = ("split", "csv", "numpy")


def check_outcome(path, route):
    """check-special-case's verdict on ``path``, read by ``route`` (one of
    ROUTES) and whatever it falls back to: the verdict's JSON bytes, or the
    error's token and message."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            plain, "_SMALL_FILE", 0 if route == "numpy" else math.inf))
        if route == "csv":
            stack.enter_context(mock.patch.object(plain, "_split_times",
                                                  lambda fh, positions: None))
        try:
            flags = plain._check_csv(path, ["subject", "time"])
        except lc.LearcovError as exc:
            return exc.token, str(exc)
    return _jsonio.dumps(dict(zip(plain.FLAGS, flags)))


def assert_every_route_agrees(path):
    split, *others = (check_outcome(path, route) for route in ROUTES)
    assert others == [split, split]


@settings(max_examples=300, deadline=None)
@given(st.one_of(odd_csv_text(), odd_csv_text(grouped=True)))
def test_every_read_of_the_check_agrees_on_odd_text(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_every_route_agrees(path)


def test_the_split_read_takes_a_quarter_of_the_grouped_draws(tmp_path_factory):
    # Taken: split in bulk, and grouped by runs of equal ids.
    taken = []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(odd_csv_text(grouped=True))
    def draw(text):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            with plain._open_csv(path) as (fh, _):
                _, positions = plain._read_header(fh, ["subject", "time"])
                read = plain._split_times(fh, positions)
        except lc.LearcovError:
            read = None
        taken.append(read is not None and
                     len(set(read[0])) == len(list(itertools.groupby(read[0]))))

    draw()
    assert sum(taken) >= len(taken) / 4, f"{sum(taken)} of {len(taken)}"


@pytest.mark.parametrize("row", [
    "a,1,0.7," + "j" * 200_000,
    "a,1," + "1" * 200_000 + ",j",
    "a,1." + "0" * 199_998 + ",0.7,j",
], ids=["spare", "y", "time"])
def test_the_split_read_takes_a_field_over_the_csv_limit(row):
    # As numpy's reader does, which has no limit; csv.reader would refuse it.
    text = f"a,0,0.5,j\n{row}\nb,1,1.5,j\n"
    assert max(map(len, row.split(","))) > csv.field_size_limit()
    assert plain._split_times(io.StringIO(text, newline=""), [0, 1]) == (
        ["a", "a", "b"], [0.0, 1.0, 1.0])


CHECK_TEXTS = {
    "long time": f"subject,time,y\na,1,0.5\na,{LONG_FIELD},0.7\nb,1,1\n",
    "long y": f"subject,time,y\na,1,0.5\na,2,{LONG_FIELD}\nb,1,1\nb,2,1\n",
    "long spare field": f"subject,time,y,junk\na,1,0.5,j\na,2,0.7,{LONG_FIELD}\n",
    "bad time before a long field":
        f"subject,time,y\na,1,0.5\na,x,0.7\nb,1,{LONG_FIELD}\n",
    "long field before a bad time":
        f"subject,time,y\na,1,0.5\na,2,{LONG_FIELD}\nb,x,1\n",
    "long header": f"subject,time,{LONG_FIELD}\na,1,0.5\na,2,0.7\n",
    "repeat after a long note":
        f"subject,time,note\na,1,{LONG_FIELD}\na,2,j\nb,1,j\na,1.0,j\n",
    "repeat before a long note":
        f"subject,time,note\na,1,j\na,1.0,j\nb,1,{LONG_FIELD}\n",
    "R-quoted ids and a long note": '"subject","time","note"\n'
        f'"a",1,j\n"a",2,{LONG_FIELD}\n"b",1,j\n"b",3,j\n',
    **{f"separator {ord(c):#x} in a time": ROWS.replace("a,2", f"a,{c}2")
       for c in "\x1c\x1d\x1e\x1f"},
    **{f"separator {ord(c):#x} in an id and a spare field":
       f"a{c},1,0.5{c}\na{c},2,0.7\nb,1,1\nb,3,{c}\n" for c in "\x1c\x1f"},
    "1_0": ROWS.replace("b,3", "b,1_0"),
    "byte-order mark": "\ufeffsubject,time,y\n" + ROWS,
    "CR": ("subject,time,y\n" + ROWS).replace("\n", "\r"),
    "CRLF": ("subject,time,y\n" + ROWS).replace("\n", "\r\n"),
    "quoted line ends": CR_TEXT,
    "single visits": "subject,time,y\na,1,0.5\nb,2,0.7\nc,2.5,1\n",
    # As many fields as lines of three would have, split 4 + 2.
    "a long row and a short one": "subject,time,y\n1,1,0.5,7\n1,2\n2,1,1\n2,3,1\n",
    "one row": "subject,time,y\na,1,0.5\n",
    "no rows": "subject,time,y\n\n",
    "repeated time": "subject,time,y\na,1,0.5\nb,1,1\na,1.0,0.7\nb,x,1\n",
    "-0.0 and 0.0": "subject,time,y\na,-0.0,1\nb,0.0,1\na,1,1\nb,1,1\na,0,1\n",
    "signed zeros apart": "subject,time,y\na,-0.0,1\nb,0.0,1\na,1,1\nb,1,1\n",
    "irregular": "subject,time,y\na,0,1\na,1,1\nb,0,1\nb,2.5,1\n",
    "gap within tolerance": "subject,time\na,0\na,1.0000000004\nb,0\nb,1\nb,2\n",
    "overflowing span": "subject,time\na,-1e308\na,1e308\nb,1\nb,2\n",
}


@pytest.mark.parametrize("name", list(CHECK_TEXTS))
def test_every_read_of_the_check_agrees(tmp_path, name):
    path = tmp_path / "data.csv"
    path.write_bytes(CHECK_TEXTS[name].encode("utf-8"))
    assert_every_route_agrees(path)


@pytest.mark.parametrize("at", [100, 17_000, 70_000])
def test_every_read_of_the_check_places_a_byte_that_is_not_utf8_alike(tmp_path, at):
    # A text stream's decoder places the byte within the block it decodes;
    # every read, of a file or a pipe, places it in the file.
    rows = "".join(f"s{i},{k},1\n" for i in range(3000) for k in range(4)).encode()
    line = rows[:at].count(b"\n") + 2
    for name, end in (("lf", b"\n"), ("cr", b"\r")):
        data = (b"subject,time,y\n" + rows[:at] + b"\xff" + rows[at:]).replace(b"\n", end)
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        message = (f"'utf-8' codec can't decode byte 0xff in position {at + 15}: "
                   f"invalid start byte, on line {line}")
        assert [check_outcome(path, route) for route in ROUTES] == [
            ("E_PARSE_ERROR", message)] * 3
        assert through_fifo(tmp_path / f"{name}.pipe", data,
                            lambda fifo: check_outcome(fifo, "split")) == (
            "E_PARSE_ERROR", message)
        assert read_outcome(lc.read_long_csv, path, "intercept") == (
            lc.ParseError, message)


@pytest.mark.parametrize("name", ["CRLF", "long y", "long time", "repeated time"])
def test_every_read_of_the_check_agrees_on_a_pipe(tmp_path, name):
    # Each read gets the text through a FIFO of its own.
    text = CHECK_TEXTS[name].encode("utf-8")
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    for route in ROUTES:
        assert through_fifo(tmp_path / f"pipe-{route}.csv", text,
                            lambda fifo: check_outcome(fifo, route)) == (
            check_outcome(path, route))
    assert_every_route_agrees(path)



@pytest.mark.parametrize("text, fast", [
    # Quoting, line ends and blank lines as csv.reader reads them.
    ('"a,1",1,0.5\n"a,1",2,0.7\n"say ""hi""",1,1.5\n"two\nlines",3,0.1\n', True),
    (ROWS.replace("\n", "\r\n") + "\r\n", True),
    (ROWS.replace("\n", "\r"), True),
    ('a,"1",0.5\na, 2 ,0.7\nb,+1.,"1.5"\nb,3,1e-3\n\n', True),
    ("a\x00b,1,0.5\na\x00b,2,0.7\n#c,1,1\n#c,2,2\n", True),
    # Numbers only float() reads, and white space only numpy strips.
    (ROWS.replace("0.7", "0_7"), False),
    (ROWS.replace("0.7", "٠.٧"), False),
    (ROWS.replace("0.7", "0.7\x1c"), False),
    (ROWS.replace("a,2", "a,\x1f2"), False),
    # Rows too short for the columns read, and a row ending in a spare field.
    (ROWS + "c\n", False),
    (ROWS.replace("b,1,1.5", "b,1,1.5,spare"), True),
])
def test_the_fast_read_takes_what_it_reads_as_the_csv_path_does(tmp_path, text, fast):
    # Where numpy's reader takes a file, its columns are the per-row read's;
    # where it could differ from float(), it refuses the file.
    path = write(tmp_path, "subject,time,y\n" + text)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        next(csv.reader(fh))
        loaded = plain._load_columns(fh, [0, 1, 2])
    assert (loaded is not None) == fast
    assert read_outcome(lc.read_long_csv, path, "intercept") == read_outcome(
        per_row_read_long_csv, path, "intercept"
    )


def test_csv_round_trip_is_exact(tmp_path):
    data = simulated_dataset(5, [1.0, 2.0, 4.0], seed=8)
    path = tmp_path / "out.csv"
    lc.write_long_csv(path, data)
    back = lc.read_long_csv(path)
    assert back.n_subjects == data.n_subjects
    for a, b in zip(back.subjects, data.subjects):
        # 17 significant digits reproduce doubles exactly
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.y, b.y)


def test_write_long_csv_validates_subject_ids(tmp_path):
    data = simulated_dataset(3, [1.0, 2.0], seed=8)
    with pytest.raises(lc.InvalidParams):
        lc.write_long_csv(tmp_path / "out.csv", data, subject_ids=["only-one"])
    # Repeated ids, or ids equal as strings, would merge subjects on reading.
    for ids in (["a", "a", "b"], [1, "1", 2]):
        with pytest.raises(lc.InvalidParams, match="more than one subject"):
            lc.write_long_csv(tmp_path / "out.csv", data, subject_ids=ids)
    lc.write_long_csv(tmp_path / "out.csv", data, subject_ids=["p", "q", "r"])
    text = (tmp_path / "out.csv").read_text(encoding="utf-8")
    assert text.splitlines()[1].startswith("p,")


def row_by_row_csv(path, data, subject_ids):
    """The writer ``write_long_csv`` replaced: one writerow per numpy value."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject", "time", "y"])
        for sid, subject in zip(subject_ids, data.subjects):
            for t, yv in zip(subject.times, subject.y):
                writer.writerow([sid, format(t, ".17g"), format(yv, ".17g")])


def test_write_long_csv_bytes_match_the_row_by_row_writer(tmp_path):
    data = lc.simulate(lc.SimSpec(
        n_subjects=5,
        times=(np.array([0.1, 1.0, 2.5e-7]).cumsum(), np.array([1e20, 3e20])),
        beta=np.array([1.0]),
        covariance=lc.Arma11Params(1e6, 0.5, 0.7),
        seed=8,
    ))
    ids = ["a,b", 'say "hi"', "two\nlines", "plain", 7]
    lc.write_long_csv(tmp_path / "new.csv", data, subject_ids=ids)
    row_by_row_csv(tmp_path / "old.csv", data, [str(s) for s in ids])
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert b'"a,b"' in new and b'"say ""hi"""' in new and b'"two\nlines"' in new


ID_PIECES = st.sampled_from([",", '"', "\n", "\r", " ", "é", "☃", "a", "7", "\t"])


@settings(max_examples=200, deadline=None)
@given(
    ids=st.lists(st.text(ID_PIECES, max_size=6), min_size=1, max_size=8, unique=True),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_write_long_csv_bytes_match_csv_writer(tmp_path_factory, ids, seed):
    # Ids with a comma, a quote, a newline, spaces, non-ASCII characters or
    # nothing at all are quoted as csv.writer quotes them; an empty id among
    # three fields is an empty field, not "".
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 4, len(ids))
    data = lc.RepeatedMeasuresData(
        lc.SubjectData(np.arange(1.0, p + 1) * rng.uniform(0.5, 2.0),
                       rng.standard_normal(p) * 10.0 ** rng.integers(-20, 20, p),
                       np.ones((p, 1)))
        for p in sizes.tolist()
    )
    out = tmp_path_factory.mktemp("write")
    lc.write_long_csv(out / "new.csv", data, subject_ids=ids)
    csv_writer_write_long_csv(out / "old.csv", data, ids)
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


@pytest.mark.parametrize("block", [1, 2, 7])
def test_write_long_csv_blocks_match_csv_writer(tmp_path, monkeypatch, block):
    # Eight rows: the last block is partial for blocks of 7. Times -0.0 and
    # 0.0 are distinct values to format, and the extremes of the float
    # range format as csv.writer writes them.
    monkeypatch.setattr(dataio, "_WRITE_BLOCK", block)
    data = lc.RepeatedMeasuresData(
        lc.SubjectData(t, y, np.ones((len(t), 1))) for t, y in (
            ([-0.0, 1.0, 2.5], [5e-324, -0.0, 1e308]),
            ([0.0, 1.0], [-1e308, 2.2250738585072014e-308]),
            ([5e-324, 1e308], [0.1, -5e-324]),
            ([-0.0], [1.7976931348623157e308]),
        )
    )
    ids = [f"s{i + 1}" for i in range(data.n_subjects)]
    lc.write_long_csv(tmp_path / "default.csv", data)
    lc.write_long_csv(tmp_path / "explicit.csv", data, subject_ids=ids)
    csv_writer_write_long_csv(tmp_path / "want.csv", data, ids)
    want = (tmp_path / "want.csv").read_bytes()
    assert (tmp_path / "default.csv").read_bytes() == want
    assert (tmp_path / "explicit.csv").read_bytes() == want
    assert b"\ns1,-0,4.9406564584124654e-324\n" in want
    assert b"\ns2,0,-1e+308\n" in want
    assert b"\ns4,-0,1.7976931348623157e+308\n" in want


def test_write_long_csv_writes_an_empty_id_as_an_empty_field(tmp_path):
    data = simulated_dataset(2, [1.0, 2.0], seed=8)
    lc.write_long_csv(tmp_path / "out.csv", data, subject_ids=["", "b"])
    lines = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1].startswith(",1,") and lines[3].startswith("b,1,")


# --------------------------------------------------------------------------
# simulation spec JSON


def good_spec_dict():
    return {
        "schema_version": 1,
        "n_subjects": 4,
        "times": [[1.0, 2.0, 3.0]],
        "beta": [1.0],
        "design": "intercept",
        "seed": 42,
        "covariance": {
            "parameterization": "lear",
            "sigma2": 1.0,
            "rho_l": 0.5,
            "delta": 1.0,
        },
    }


def dump_spec(tmp_path, d):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    return path


def test_load_sim_spec_round_trips(tmp_path):
    d = good_spec_dict()
    spec = lc.load_sim_spec(dump_spec(tmp_path, d))
    assert spec.n_subjects == 4
    assert isinstance(spec.covariance, lc.LearParams)
    assert lc.sim_spec_to_dict(spec) == d
    assert list(lc.sim_spec_to_dict(spec)["covariance"]) == [
        "parameterization", "sigma2", "rho_l", "delta",
    ]


def test_load_sim_spec_accepts_single_template(tmp_path):
    d = good_spec_dict()
    d["times"] = [1.0, 2.0, 3.0]
    spec = lc.load_sim_spec(dump_spec(tmp_path, d))
    assert len(spec.times) == 1
    assert np.array_equal(spec.times[0], [1.0, 2.0, 3.0])


def test_load_sim_spec_reads_arma_covariances(tmp_path):
    d = good_spec_dict()
    d["covariance"] = {
        "parameterization": "arma11", "sigma2": 2.0, "tau": 0.5, "rho_a": 0.4,
    }
    spec = lc.load_sim_spec(dump_spec(tmp_path, d))
    assert spec.covariance == lc.Arma11Params(2.0, 0.5, 0.4)
    assert list(lc.sim_spec_to_dict(spec)["covariance"]) == [
        "parameterization", "sigma2", "tau", "rho_a",
    ]


def test_load_sim_spec_defaults_the_design(tmp_path):
    d = good_spec_dict()
    del d["design"]
    assert lc.load_sim_spec(dump_spec(tmp_path, d)).design == "intercept"


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.pop("schema_version"), "schema_version"),
        (lambda d: d.update(schema_version=2), "schema_version"),
        (lambda d: d.update(extra_field=1), "unknown"),
        (lambda d: d.pop("covariance"), "covariance"),
        (lambda d: d.update(covariance=[1, 2]), "JSON object"),
        (
            lambda d: d["covariance"].update(parameterization="toeplitz"),
            "parameterization",
        ),
        (lambda d: d["covariance"].pop("rho_l"), "rho_l"),
        (lambda d: d["covariance"].update(tau=0.5), "unknown covariance"),
        (lambda d: d["covariance"].update(sigma2="big"), "must be a number"),
        (lambda d: d["covariance"].update(sigma2=True), "must be a number"),
        (lambda d: d.update(design=["dose"]), "design must be a string"),
        (lambda d: d.update(times="abc"), "'times'"),
        (lambda d: d.update(times=5), "'times'"),
        (lambda d: d.update(times=[[1, "a", 3]]), "'times'"),
        (lambda d: d.update(times=[1, [2, 3]]), "'times'"),
        (lambda d: d.update(beta="x"), "'beta'"),
    ],
)
def test_load_sim_spec_rejects_malformed_specs(tmp_path, mutate, message):
    d = good_spec_dict()
    mutate(d)
    with pytest.raises(lc.ParseError, match=message):
        lc.load_sim_spec(dump_spec(tmp_path, d))


def test_load_sim_spec_rejects_invalid_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(lc.ParseError, match="invalid JSON"):
        lc.load_sim_spec(path)


def test_load_sim_spec_feeds_simulate(tmp_path):
    spec = lc.load_sim_spec(dump_spec(tmp_path, good_spec_dict()))
    data = lc.simulate(spec)
    assert data.n_subjects == 4
    assert data.n_obs == 12


def test_sim_spec_to_dict_refuses_explicit_matrices():
    spec = lc.SimSpec(
        n_subjects=2,
        times=(np.array([1.0, 2.0]),),
        beta=np.array([1.0]),
        covariance=lc.LearParams(1.0, 0.5, 1.0),
        seed=0,
        design=(np.ones((2, 1)),),
    )
    with pytest.raises(lc.InvalidParams):
        lc.sim_spec_to_dict(spec)
