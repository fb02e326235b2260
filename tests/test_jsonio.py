"""The JSON writer's output for numpy values and for strings.

_jsonio converts numpy scalars and arrays through their ``tolist()``, so
that it imports no numpy. The expected documents are what the writer gave
when it tested each value against numpy's types. It quotes a string of
printable ASCII itself, and must give json's bytes for every string.
"""
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from learcov._jsonio import dumps

CASES = {
    "bool scalars": [np.bool_(True), np.bool_(False)],
    "int scalars": [np.int8(-3), np.int32(7), np.int64(2 ** 62), np.uint64(2 ** 64 - 1)],
    "float scalars": [np.float16(0.1), np.float32(0.1), np.float64(1 / 3),
                      np.float64(-0.0), np.float64("nan"), np.float32("inf"),
                      np.longdouble(1.5)],
    "0-d arrays": [np.array(2.5), np.array(True), np.array(-7), np.array(np.float32(0.1))],
    "n-d arrays": {"ints": np.arange(6).reshape(2, 3),
                   "floats": np.array([[0.1, np.nan], [np.inf, 1e-320]]),
                   "bools": np.array([True, False]), "empty": np.zeros((0, 2)),
                   "cube": np.arange(8.0).reshape(2, 2, 2) / 3},
}

# Each case's document, compact and indented by two.
EXPECTED = {
    "bool scalars": (
        '[true, false]',
        '[\n  true,\n  false\n]',
    ),
    "int scalars": (
        '[-3, 7, 4611686018427387904, 18446744073709551615]',
        '[\n  -3,\n  7,\n  4611686018427387904,\n  18446744073709551615\n]',
    ),
    "float scalars": (
        '[0.0999755859375, 0.10000000149011612, 0.33333333333333331, -0, null, null, 1.5]',
        '[\n  0.0999755859375,\n  0.10000000149011612,\n  0.33333333333333331,\n  -0,\n  null,\n  null,\n  1.5\n]',
    ),
    "0-d arrays": (
        '[2.5, true, -7, 0.10000000149011612]',
        '[\n  2.5,\n  true,\n  -7,\n  0.10000000149011612\n]',
    ),
    "n-d arrays": (
        '{"ints": [[0, 1, 2], [3, 4, 5]], "floats": [[0.10000000000000001, null], [null, 9.9998886718268301e-321]], "bools": [true, false], "empty": [], "cube": [[[0, 0.33333333333333331], [0.66666666666666663, 1]], [[1.3333333333333333, 1.6666666666666667], [2, 2.3333333333333335]]]}',
        '{\n  "ints": [\n    [\n      0,\n      1,\n      2\n    ],\n    [\n      3,\n      4,\n      5\n    ]\n  ],\n  "floats": [\n    [\n      0.10000000000000001,\n      null\n    ],\n    [\n      null,\n      9.9998886718268301e-321\n    ]\n  ],\n  "bools": [\n    true,\n    false\n  ],\n  "empty": [],\n  "cube": [\n    [\n      [\n        0,\n        0.33333333333333331\n      ],\n      [\n        0.66666666666666663,\n        1\n      ]\n    ],\n    [\n      [\n        1.3333333333333333,\n        1.6666666666666667\n      ],\n      [\n        2,\n        2.3333333333333335\n      ]\n    ]\n  ]\n}',
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_numpy_values_give_the_documents_they_gave(name):
    compact, indented = EXPECTED[name]
    assert dumps(CASES[name]) == compact
    assert dumps(CASES[name], indent=2) == indented


def test_numpy_values_write_as_their_python_equivalents():
    for value in [*CASES["bool scalars"], *CASES["int scalars"], *CASES["0-d arrays"]]:
        assert dumps(value) == dumps(value.tolist())
    for value in CASES["n-d arrays"].values():
        assert dumps(value) == dumps(value.tolist())


def test_values_of_no_json_type_are_refused():
    for value in (np.complex128(1j), {1: 2}, object()):
        with pytest.raises(TypeError):
            dumps(value)


def test_empty_containers_are_written_as_json_writes_them():
    for value in ({}, [], {"a": {}, "b": []}):
        for indent in (None, 2):
            assert dumps(value, indent=indent) == json.dumps(value, indent=indent)


# Any code point, lone surrogates included, and the characters at the edges
# of what _jsonio quotes itself.
TEXT = st.text(st.one_of(
    st.characters(codec=None, categories=None),
    st.sampled_from('\x00\x08\t\n\x1f "\\/~\x7f\x80\xe9\u2028\ud800\udfff\U0001f600'),
))


@settings(max_examples=500, deadline=None)
@given(TEXT, TEXT)
@example("", "a b")
@example("~", "\x7f")
@example('"', "\\")
@example("\x1f", "\xe9")
@example("\ud800", "\U0001f600")
def test_strings_are_written_as_json_writes_them(value, key):
    assert dumps(value) == json.dumps(value)
    assert dumps({key: value}) == json.dumps({key: value})
    assert dumps([value, {key: 1}], indent=2) == json.dumps([value, {key: 1}], indent=2)
