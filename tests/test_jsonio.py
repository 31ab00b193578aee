import json
import os
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkdd import cli, fixtures, linalg
from hkdd.errors import HkddError
from hkdd.jsonio import (
    MAX_RANK,
    decode_int,
    decode_matrix,
    dump_json,
    encode_int,
    encode_matrix,
    load_lattice,
    load_matrix,
)
from hkdd.polynomial import IntPolynomial, isolate_real_roots, poly
from hkdd.salem import salem_root_of
from conftest import TPQR_SALEM_FACTORS
from oracles import algebraic_real_from_json, decode_coeffs
from test_cli_golden import CASES, PRECISIONS, _argv, read_snapshot, run


def test_int53_rule():
    assert encode_int(7) == 7
    assert encode_int(-(2**53) + 1) == -(2**53) + 1
    big = 2**53
    assert encode_int(big) == str(big)
    assert encode_int(-big) == str(-big)
    assert decode_int(encode_int(big)) == big
    assert encode_int(-(10**4300 - 1)) == "-" + "9" * 4300
    for huge in (10**4300, -(10**8000)):
        with pytest.raises(HkddError, match="^report has an integer of more than 4300 digits$"):
            encode_int(huge)
    assert decode_int(7) == 7
    assert decode_int("-12") == -12
    for bad in ("x", "1_000", " 7 ", "+7", "\u0661\u0662", "7\n", "-", ""):
        with pytest.raises(HkddError, match=f"^bad integer string {re.escape(repr(bad))}$"):
            decode_int(bad)
    with pytest.raises(HkddError, match="^expected an integer, got True$"):
        decode_int(True)
    with pytest.raises(HkddError, match="^expected an integer, got float$"):
        decode_int(3.5)


def test_integer_string_past_the_digit_limit_is_named(tmp_path):
    # a valid integer that CPython's 4300-digit limit refuses to read
    f = tmp_path / "lat.json"
    f.write_text(json.dumps({"gram": [["1" * 5001]]}))
    with pytest.raises(HkddError) as exc:
        load_lattice(f)
    assert str(exc.value) == "integer string has more than 4300 digits"
    assert decode_int("1" * 4300) == int("1" * 4300)


def test_matrix_roundtrip_with_huge_entries(m1m2):
    big = linalg.mat_pow(m1m2, 12)
    assert any(abs(x) > 2**53 for row in big for x in row)
    encoded = encode_matrix(big)
    assert any(isinstance(x, str) for row in encoded for x in row)
    assert decode_matrix(json.loads(json.dumps(encoded))) == big


def test_load_lattice_and_matrix(tmp_path):
    f = tmp_path / "lat.json"
    f.write_text(json.dumps({"gram": [[2, 1], [1, 2]]}))
    lat = load_lattice(f)
    assert lat.labels == ("b1", "b2")
    f.write_text(json.dumps({"gram": [[2, 1], [1, 2]], "labels": ["x", 3]}))
    with pytest.raises(HkddError, match='"labels" must be a list of strings$'):
        load_lattice(f)
    f.write_text(json.dumps({"gram": [[2, 1], [3, 2]]}))
    with pytest.raises(HkddError) as exc:
        load_lattice(f)
    assert str(exc.value) == f"{f}: gram[0][1] = 1 != gram[1][0] = 3"
    f.write_text(json.dumps({"matrix": [[1, 0], [0, 1]]}))
    with pytest.raises(HkddError, match='missing "gram"$'):
        load_lattice(f)
    assert load_matrix(f) == [[1, 0], [0, 1]]
    # not UTF-8, nested past the recursion limit, a number literal past the digit limit
    for raw, message in (
        (b'\xff\xfe{"gram": [[1]]}', "cannot read"),
        (b'{"gram": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "JSON nested too deeply"),
        (b'{"gram": [[' + b"1" * 5001 + b"]]}", "integer has more than 4300 digits"),
    ):
        f.write_bytes(raw)
        with pytest.raises(HkddError, match=message):
            load_lattice(f)


def test_crlf_syntax_error_reads_as_in_text_mode(tmp_path):
    # the binary read turns CR LF and a lone CR into LF, as a text-mode read
    # does, so the error names the same position
    f = tmp_path / "crlf.json"
    f.write_bytes(b'{\r\n  "gram": [[2,\r\n  0],\r  [0, 2]],\r\n  "labels": [x]\r\n}\r\n')
    with pytest.raises(json.JSONDecodeError) as text_mode:
        json.loads(Path(f).read_text(encoding="utf-8"))
    with pytest.raises(json.JSONDecodeError) as raw:
        json.loads(f.read_bytes().decode("utf-8"))
    assert str(raw.value) != str(text_mode.value)
    with pytest.raises(HkddError) as exc:
        load_lattice(str(f))
    assert str(exc.value) == f"{f} is not valid JSON: {text_mode.value}"


def test_fixture_paths_are_strings():
    path = fixtures.fixture_path("m1.json")
    assert isinstance(path, str) and os.path.dirname(path) == fixtures.fixture_dir()
    with pytest.raises(FileNotFoundError, match="^no bundled fixture named 'm3.json'$"):
        fixtures.fixture_path("m3.json")


def load_matrix_rows(path):
    return tuple(map(tuple, load_matrix(path)))


@pytest.mark.parametrize("name, load, constant", [
    ("quartic_pair_lattice.json", load_lattice, fixtures.QUARTIC_PAIR_LATTICE),
    ("rank3_lattice.json", load_lattice, fixtures.RANK3_LATTICE),
    ("m1.json", load_matrix_rows, fixtures.M1),
    ("m2.json", load_matrix_rows, fixtures.M2),
])
def test_bundled_fixture_file_equals_its_constant(name, load, constant):
    # the command line reads the files and beauville-demo the constants
    assert load(fixtures.fixture_path(name)) == constant


def test_matrix_past_the_rank_limit_is_an_input_error():
    square = [[0] * MAX_RANK for _ in range(MAX_RANK)]
    assert decode_matrix(square) == square
    message = f"^matrix of size {MAX_RANK + 1} exceeds the rank limit of {MAX_RANK}$"
    for big in (square + [[0] * MAX_RANK], [row + [0] for row in square], [[0] * (MAX_RANK + 1)]):
        with pytest.raises(HkddError, match=message):
            decode_matrix(big)


def test_decode_coeffs():
    assert decode_coeffs([1, -34, 1]) == [1, -34, 1]
    with pytest.raises(HkddError, match="^polynomial must be a list of coefficients$"):
        decode_coeffs("1 -34 1")


def test_dump_json_stable():
    obj = {"b": 1, "a": [3, 2]}
    out = "".join(dump_json(obj))
    assert "".join(dump_json(json.loads(out))) == out


# strings with quotes, backslashes, control characters, line separators and
# characters past the BMP, which \uXXXX escapes write as surrogate pairs
TEXT = st.text(st.sampled_from('a"\\/\x00\x1f\x7f\n\t\u00e9\u2028\u20ac\U0001f600')) | st.text()
INT53 = 2**53
REPORT_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(INT53 - 2, INT53 + 2)
    | st.integers(-INT53 - 2, -INT53 + 2)
    | TEXT
    | st.integers(10**4299, 10**4300 - 1).map(str)
    | st.integers(-(10**4300) + 1, -(10**4299)).map(str),
    lambda children: st.lists(children) | st.lists(children).map(tuple) | st.dictionaries(TEXT, children),
    max_leaves=40,
)


@settings(max_examples=400)
@given(REPORT_VALUES)
def test_dump_json_writes_what_json_dumps_writes(obj):
    assert "".join(dump_json(obj)) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def as_generators(obj):
    """obj with every list and tuple in it made a generator of its items."""
    if isinstance(obj, (list, tuple)):
        return (as_generators(v) for v in obj)
    if isinstance(obj, dict):
        return {k: as_generators(v) for k, v in obj.items()}
    return obj


@settings(max_examples=200)
@given(REPORT_VALUES)
def test_dump_json_writes_a_generator_as_a_list(obj):
    assert "".join(dump_json(as_generators(obj))) == "".join(dump_json(obj))


def test_dump_json_writes_a_generator_row_before_it_reads_the_next():
    read = []

    def rows():
        for k in range(5):
            read.append(k)
            yield {"k": k, "exact": [str(k)]}

    pieces = dump_json({"a": 1, "entries": rows(), "z": None})
    seen = []
    for piece in pieces:
        seen.append(piece)
        if '"k": 2' in piece:
            break
    # each row is one piece, made when the row is read
    assert read == [0, 1, 2] and '"k": 1' in seen[-2]
    rest = "".join(seen) + "".join(pieces)
    assert rest == json.dumps({"a": 1, "entries": [{"k": k, "exact": [str(k)]} for k in range(5)], "z": None},
                              indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "obj",
    [1.5, [1, 2.0], {1, 2}, {"a": frozenset()}, {1: "a"}, {"a": {None: 1}}, [[1, 2.0]], [{"a": {1, 2}}]],
)
def test_dump_json_refuses_what_no_report_holds(obj):
    with pytest.raises(TypeError):
        "".join(dump_json(obj))
    with pytest.raises(TypeError):
        "".join(dump_json(as_generators(obj)))


def test_json_goldens_never_reach_the_python_encoder(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("json.JSONEncoder.iterencode called")

    monkeypatch.setattr(json.encoder.JSONEncoder, "iterencode", forbidden)
    with pytest.raises(AssertionError):
        json.dumps([1], indent=2)
    for case in CASES:
        snapshot = read_snapshot(case)
        for precision in PRECISIONS:
            argv = _argv(case, "json", precision)
            assert run(argv) == snapshot[" ".join(argv)], " ".join(argv)


def test_algebraic_real_json_roundtrip():
    root = isolate_real_roots(poly(1, -34, 1))[-1]
    payload = cli._root_json(root, root.decimal_str(12))
    assert payload["poly"] == [1, -34, 1]
    assert payload["decimal"] == "33.9705627485"
    back = algebraic_real_from_json(payload)
    assert back.compare_to(root) == 0
    assert back.poly == root.poly


def test_root_json_writes_each_end_in_lowest_terms():
    # AlgebraicReal divides a, b and den by their common gcd only, so one end
    # alone may not be in lowest terms: (399, 798, 2) at s = 398
    quadratics = [salem_root_of(poly(1, -s, 1)) for s in range(3, 400)]
    lehmer = salem_root_of(IntPolynomial(TPQR_SALEM_FACTORS[0]))
    signed = isolate_real_roots(poly(0, -1, 0, 1))  # ends -2, -1, 0 and 2
    for root in quadratics + [lehmer] + signed:
        payload = cli._root_json(root, "")
        ends = (Fraction(root.a, root.den), Fraction(root.b, root.den))
        assert (payload["lo"], payload["hi"]) == tuple(f"{e.numerator}/{e.denominator}" for e in ends)
    s398 = quadratics[398 - 3]
    assert (s398.a, s398.b, s398.den) == (399, 798, 2) and cli._root_json(s398, "")["hi"] == "399/1"
    assert (lehmer.a, lehmer.b, lehmer.den) == (18, 19, 16) and cli._root_json(lehmer, "")["lo"] == "9/8"
