import json

import pytest

from hkdd import linalg
from hkdd.jsonio import (
    InputParseError,
    decode_int,
    decode_matrix,
    dump_json,
    encode_int,
    encode_matrix,
    load_lattice,
    load_matrix,
)
from hkdd.polynomial import isolate_real_roots, poly
from oracles import algebraic_real_from_json, decode_coeffs


def test_int53_rule():
    assert encode_int(7) == 7
    assert encode_int(-(2**53) + 1) == -(2**53) + 1
    big = 2**53
    assert encode_int(big) == str(big)
    assert encode_int(-big) == str(-big)
    assert decode_int(encode_int(big)) == big
    assert decode_int(7) == 7
    assert decode_int("-12") == -12
    for bad in ("x", "1_000", " 7 ", "+7", "\u0661\u0662", "7\n", "-", ""):
        with pytest.raises(InputParseError):
            decode_int(bad)
    with pytest.raises(InputParseError):
        decode_int(True)
    with pytest.raises(InputParseError):
        decode_int(3.5)


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
    with pytest.raises(InputParseError):
        load_lattice(f)
    f.write_text(json.dumps({"gram": [[2, 1], [3, 2]]}))
    with pytest.raises(InputParseError):
        load_lattice(f)
    f.write_text(json.dumps({"matrix": [[1, 0], [0, 1]]}))
    with pytest.raises(InputParseError):
        load_lattice(f)
    assert load_matrix(f) == [[1, 0], [0, 1]]


def test_decode_coeffs():
    assert decode_coeffs([1, -34, 1]) == [1, -34, 1]
    with pytest.raises(InputParseError):
        decode_coeffs("1 -34 1")


def test_dump_json_stable():
    obj = {"b": 1, "a": [3, 2]}
    out = dump_json(obj)
    assert dump_json(json.loads(out)) == out


def test_algebraic_real_json_roundtrip():
    root = isolate_real_roots(poly(1, -34, 1))[-1]
    payload = root.to_json(12)
    assert payload["poly"] == [1, -34, 1]
    assert payload["decimal"] == "33.9705627485"
    back = algebraic_real_from_json(payload)
    assert back.equals(root)
    assert back.poly == root.poly
