"""JSON wire formats for lattices and isometries.

Matrices are row-major lists of lists. Integers within the 53-bit range are
plain JSON numbers; anything larger is serialized as a decimal string so that
consumers without big integers still read the exact value. Reports write
their matrices, vectors and polynomial coefficients this way; an integer
past MAX_DIGITS digits, which CPython's int/str limit will not write,
ends in exit 2. An input matrix, a Gram matrix or an isometry, has at most
MAX_RANK rows and columns: a larger one is an input error (exit 2) before
any entry is read.

Reports are written by dump_json, which yields the bytes of
json.dumps(obj, indent=2, sort_keys=True) with a trailing newline in
pieces: a dict member by member and a generator, written as the list of
what it yields, item by item. With an indent, json.dumps runs its
pure-Python encoder; dump_json builds every other container with one join
and escapes every string with the C function that encoder calls, so the
output cannot differ.

An input file is read with one binary read and decoded as UTF-8, with the
newlines of a text-mode read (CR LF and a lone CR become LF), so a syntax
error names the position that a text-mode read gives. Paths stay plain
strings, and no text-mode wrapper is built: a forked worker that reads a
file touches no path-object code or class, and so copies none of its pages.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii
from types import GeneratorType

from .errors import HkddError
from .lattice import GramLattice, make_lattice
from .polynomial import MAX_DIGITS

_INT53 = 1 << 53
# the largest rank a lattice or matrix file may have: the lattices of the
# paper have rank at most 24, and the traces behind a char poly cost O(r^4)
# integer operations, about 0.4 s for a degree table at rank 64
MAX_RANK = 64
# the strings encode_int writes: an optional minus sign and ASCII digits
_DECIMAL = re.compile(r"-?[0-9]+")


def encode_int(x: int) -> int | str:
    try:
        return x if -_INT53 < x < _INT53 else str(x)
    except ValueError:  # past the interpreter's digit limit: exit 2, not 1
        raise HkddError(f"report has an integer of more than {MAX_DIGITS} digits") from None


def decode_int(v) -> int:
    if isinstance(v, bool):
        raise HkddError(f"expected an integer, got {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        if _DECIMAL.fullmatch(v):
            try:
                return int(v)
            except ValueError:  # past the interpreter's digit limit
                raise HkddError(f"integer string has more than {MAX_DIGITS} digits") from None
        raise HkddError(f"bad integer string {v!r}")
    raise HkddError(f"expected an integer, got {type(v).__name__}")


def encode_vector(v) -> list[int | str]:
    return [encode_int(x) for x in v]


def encode_matrix(m: list[list[int]]) -> list[list[int | str]]:
    return [encode_vector(row) for row in m]


def decode_matrix(obj) -> list[list[int]]:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise HkddError("matrix must be a non-empty list of rows")
    if (size := max(len(obj), *map(len, obj))) > MAX_RANK:
        raise HkddError(f"matrix of size {size} exceeds the rank limit of {MAX_RANK}")
    return [[decode_int(x) for x in row] for row in obj]


def dump_json(obj) -> Iterator[str]:
    """Yield json.dumps(obj, indent=2, sort_keys=True) + "\n" in pieces, for
    the types a report holds: dicts with str keys, lists, tuples and
    generators (written as lists), str, int, bool and None. A dict is
    written member by member and a generator item by item, so a report
    whose rows come from a generator is never held as one string; any
    other value is one piece. Any other type, a float or a set, or a key
    that is not a str (encode_basestring_ascii takes only str), raises
    TypeError when its piece is made."""
    yield from _stream(obj, "\n")
    yield "\n"


def _stream(obj, newline: str) -> Iterator[str]:
    """The pieces of _dump(obj, newline): a dict's members and a
    generator's items one at a time."""
    inner = newline + "  "
    if isinstance(obj, dict) and obj:
        sep = "{" + inner
        for k, v in sorted(obj.items()):
            yield sep + encode_basestring_ascii(k) + ": "
            yield from _stream(v, inner)
            sep = "," + inner
        yield newline + "}"
    elif isinstance(obj, GeneratorType):
        sep = "[" + inner
        for v in obj:
            yield sep + _dump(v, inner)
            sep = "," + inner
        yield "[]" if sep[0] == "[" else newline + "]"
    else:
        yield _dump(obj, newline)


def _dump(obj, newline: str) -> str:
    """obj as json.dumps writes it with indent=2, newline being a line break
    and the indent of obj's own line."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (encode_basestring_ascii(k) + ": " + _dump(v, inner) for k, v in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple, GeneratorType)):
        items = ("," + inner).join(_dump(v, inner) for v in obj)
        return "[" + inner + items + newline + "]" if items else "[]"
    raise TypeError(f"a report holds no {type(obj).__name__}")


def _load(path: str) -> dict:
    """The JSON object in the UTF-8 file path; anything else is an HkddError."""
    try:
        with open(path, "rb") as f:
            text = f.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise HkddError(f"cannot read {path}: {exc}") from exc
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise HkddError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise HkddError(f"{path}: JSON nested too deeply") from None
    except ValueError:  # a number literal past the interpreter's digit limit
        raise HkddError(f"{path}: integer has more than {MAX_DIGITS} digits") from None
    if not isinstance(obj, dict):
        raise HkddError(f"{path}: top-level JSON object expected")
    return obj


def load_lattice(path: str) -> GramLattice:
    """{"labels": [...], "gram": [[...]]}; labels are optional."""
    obj = _load(path)
    if "gram" not in obj:
        raise HkddError(f'{path}: missing "gram"')
    gram = decode_matrix(obj["gram"])
    labels = obj.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or not all(isinstance(s, str) for s in labels)
    ):
        raise HkddError(f'{path}: "labels" must be a list of strings')
    try:
        return make_lattice(gram, labels)
    except HkddError as exc:
        raise HkddError(f"{path}: {exc}") from exc


def load_matrix(path: str) -> list[list[int]]:
    """{"matrix": [[...]]}."""
    obj = _load(path)
    if "matrix" not in obj:
        raise HkddError(f'{path}: missing "matrix"')
    return decode_matrix(obj["matrix"])
