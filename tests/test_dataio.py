import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import learcov as lc
from conftest import per_row_read_long_csv, simulated_dataset


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
