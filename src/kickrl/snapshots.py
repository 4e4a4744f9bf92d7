"""The JSON-lines record file, and named-array snapshots stored in it.

A record file is UTF-8 JSON lines: a header object, then one object per
record.  Demo stores (demos.py) keep one transition per record; a named-array
snapshot keeps one flat real array with its name and shape per record, and
free-form metadata in its header.  Used for network and encoder parameter
snapshots.

The writer streams each record to the file.  An array value goes out as its
JSON list in pieces of at most ``_PIECE`` values, so a save holds one piece
as Python floats and text, not the whole array; the bytes are those of one
``json.dumps``.  Only arrays that fit in one piece have their text memoised.
"""

from __future__ import annotations

import json
import math
import re
import struct
from collections.abc import Iterable, Iterator
from typing import TextIO

import numpy as np

from .errors import FormatError

FORMAT_VERSION = 1
_PIECE = 4096  # the most array values a writer holds as Python floats and text at once
_FLAT_LIST = re.compile(r"\[[-+.0-9eE \t\n\r,]*\]")  # a list of number characters only
_HOLE = "@"  # a cut list's mark in a line's skeleton; valid JSON only inside a string


def write_records(path: str, header: dict, records: Iterable[dict]) -> None:
    """Write the header and then each record as one JSON line.

    A record's top-level numpy-array values are written as the JSON lists of
    their float64 values, so every line is byte-equal to ``json.dumps`` of
    the record with its arrays as lists of Python floats.  An array larger
    than ``_PIECE`` values is written piece by piece along its first axis.
    Within one file, each distinct array of at most ``_PIECE`` values (by
    shape and float64 bytes) is encoded once and its text kept until the
    file is written.  Record keys are strings.
    """
    texts: dict[tuple, str] = {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for record in records:
            _write_record(fh, record, texts)


def _write_record(fh: TextIO, record: dict, texts: dict[tuple, str]) -> None:
    # json.dumps of a dict joins its items with ", ", so a run of non-array
    # items is the dump of that run as a dict, without its braces.
    sep, plain = "", {}
    fh.write("{")
    for key, value in record.items():
        if not isinstance(value, np.ndarray):
            plain[key] = value
            continue
        if plain:
            fh.write(sep + json.dumps(plain)[1:-1])
            sep, plain = ", ", {}
        fh.write(f"{sep}{json.dumps(key)}: ")
        sep = ", "
        value = np.asarray(value, dtype=np.float64)
        if value.size <= _PIECE:
            memo = (value.shape, value.tobytes())
            text = texts.get(memo)
            if text is None:
                text = texts[memo] = json.dumps(value.tolist())
            fh.write(text)
        else:
            _write_pieces(fh, value)
    if plain:
        fh.write(sep + json.dumps(plain)[1:-1])
    fh.write("}\n")


def _write_pieces(fh: TextIO, arr: np.ndarray) -> None:
    """``json.dumps(arr.tolist())`` of an array of more than ``_PIECE``
    values, written in pieces of at most ``_PIECE`` values: runs of whole
    rows, or one row at a time when a row alone is larger."""
    row = arr[0].size
    step = max(1, _PIECE // row)
    fh.write("[")
    for start in range(0, len(arr), step):
        if start:
            fh.write(", ")
        if row > _PIECE:
            _write_pieces(fh, arr[start])
        else:
            fh.write(json.dumps(arr[start:start + step].tolist())[1:-1])
    fh.write("]")


def read_records(path: str, packed: frozenset = frozenset()) -> Iterator[tuple[int, dict]]:
    """(line number, object) for the header and then each record, parsed one
    line at a time.  A missing header, a blank line, invalid JSON or a line
    that is not a JSON object is a FormatError naming its line.  An object is
    ``json.loads`` of its line, but, as the writer encodes them, top-level
    lists of at most ``_PIECE`` numbers are decoded once per distinct text in
    the file and shared (do not write into them), packed under a key in
    ``packed`` (``pack_floats``)."""
    lists: dict[tuple[bool, str], list | bytes] = {}
    lineno = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                raise FormatError(f"line {lineno}: blank line")
            try:
                obj = _parsed(raw, lists, packed)
            except json.JSONDecodeError as exc:
                raise FormatError(f"line {lineno}: not valid JSON ({exc})") from None
            if not isinstance(obj, dict):
                raise FormatError(f"line {lineno}: expected a JSON object")
            yield lineno, obj
    if lineno == 0:
        raise FormatError("line 1: missing header")


def _parsed(raw: str, lists: dict, packed: frozenset):
    """``json.loads(raw)``: the flat lists of numbers are cut out, leaving
    holes, and the skeleton is parsed.  A hole cut from a string breaks the
    parse, and one from a nested value or under a repeated key is missing at
    the top level; then, or if the line holds the mark or an escape that
    could spell it, the whole line is parsed.  So is a line too long to cut
    cheaply: a snapshot line of a large array."""
    texts: list[str] = []

    def cut(match: re.Match) -> str:
        text = match.group()
        if len(text) > 2 * _PIECE and text.count(",") >= _PIECE:
            return text  # a larger array is parsed in place
        texts.append(text)
        return f'"{_HOLE}{len(texts) - 1}"'

    plain = _HOLE in raw or "\\" in raw or len(raw) > 64 * _PIECE  # a long line holds an array
    skeleton = raw if plain else _FLAT_LIST.sub(cut, raw)
    try:
        obj = json.loads(skeleton) if texts else None
        holes = {key: texts[int(value[1:])] for key, value in obj.items()
                 if type(value) is str and value[:1] == _HOLE} if type(obj) is dict else {}
        if holes and len(holes) == len(texts):
            for key, text in holes.items():
                memo = (key in packed, text)
                if memo not in lists:
                    value = json.loads(text)
                    lists[memo] = pack_floats(value) if key in packed else value
                obj[key] = lists[memo]
            return obj
    except json.JSONDecodeError:
        pass
    return json.loads(raw)


def save_arrays(path: str, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "kind": "named-arrays",
        "names": list(arrays),
        "meta": meta or {},
    }
    write_records(path, header, (_array_record(name, arr) for name, arr in arrays.items()))


def _array_record(name: str, arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=np.float64)
    return {"name": name, "shape": list(arr.shape), "data": arr.reshape(-1)}


def field_int(value, lineno: int, name: str) -> int:
    """A JSON integer field; any other value is a FormatError naming its line."""
    if type(value) is not int:
        raise FormatError(f"line {lineno}: {name} {value!r} is not an integer")
    return value


def field_number(value, lineno: int, name: str) -> float:
    """A JSON number field as a float; any other value, or an integer beyond
    the float range, is a FormatError."""
    if type(value) not in (int, float):
        raise FormatError(f"line {lineno}: {name} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise FormatError(f"line {lineno}: {name} is an integer beyond the float range") from None


def pack_floats(values: list) -> bytes | list:
    """The float64 bytes of a list of numbers, else the list itself."""
    try:
        return struct.pack(f"{len(values)}d", *values)
    except struct.error:
        return values


def field_float_bytes(value, lineno: int, name: str) -> bytes:
    """The float64 bytes of a JSON list of numbers (or read_records' packing);
    anything else (a string or a nested list among them, or no list at all)
    is a FormatError."""
    value = pack_floats(value) if isinstance(value, list) else value
    if type(value) is bytes:
        return value
    raise FormatError(f"line {lineno}: {name} is not a list of numbers")


def meta_field(meta: dict, name: str, kind: type):
    """``meta[name]`` from a snapshot header's metadata, checked to be a
    ``kind`` (a bool is not an int); a missing field or another value is a
    FormatError naming line 1."""
    value = meta.get(name)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise FormatError(f"line 1: meta field {name!r} is {value!r}, not a {kind.__name__}")
    return value


def load_arrays(path: str) -> tuple[dict[str, np.ndarray], dict]:
    records = read_records(path, packed=frozenset({"data"}))
    _, header = next(records)
    if header.get("format_version") != FORMAT_VERSION or header.get("kind") != "named-arrays":
        raise FormatError("line 1: not a named-array snapshot")
    expected, meta = header.get("names", []), header.get("meta", {})
    if not isinstance(expected, list) or not isinstance(meta, dict):
        raise FormatError("line 1: names is not a list or meta is not an object")

    arrays: dict[str, np.ndarray] = {}
    for lineno, row in records:
        if set(row) != {"name", "shape", "data"}:
            raise FormatError(f"line {lineno}: array fields wrong")
        if not isinstance(row["name"], str) or not isinstance(row["shape"], list):
            raise FormatError(f"line {lineno}: name is not a string or shape is not a list")
        shape = tuple(field_int(s, lineno, "shape entry") for s in row["shape"])
        if any(s < 0 for s in shape):
            raise FormatError(f"line {lineno}: negative shape entry")
        arr = np.frombuffer(field_float_bytes(row["data"], lineno, "data"), dtype=np.float64)
        if arr.size != math.prod(shape):  # Python ints: an int64 product can wrap
            raise FormatError(f"line {lineno}: data length does not match shape")
        arrays[row["name"]] = arr.reshape(shape).copy()
    if list(arrays) != expected:
        raise FormatError(
            f"line 1: header names {expected} do not match the file's arrays {list(arrays)}"
        )
    return arrays, dict(meta)
