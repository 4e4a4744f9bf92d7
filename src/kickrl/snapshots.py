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
import struct
from collections.abc import Iterable, Iterator
from typing import TextIO

import numpy as np

from .errors import FormatError

FORMAT_VERSION = 1
_PIECE = 4096  # the most array values a writer holds as Python floats and text at once


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


def read_records(path: str) -> Iterator[tuple[int, dict]]:
    """(line number, object) for the header and then each record, parsed one
    line at a time.  A missing header, a blank line, invalid JSON or a line
    that is not a JSON object is a FormatError naming its line."""
    lineno = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                raise FormatError(f"line {lineno}: blank line")
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise FormatError(f"line {lineno}: not valid JSON ({exc})") from None
            if not isinstance(obj, dict):
                raise FormatError(f"line {lineno}: expected a JSON object")
            yield lineno, obj
    if lineno == 0:
        raise FormatError("line 1: missing header")


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


def field_float_bytes(value, lineno: int, name: str) -> bytes:
    """The float64 bytes of a JSON list of numbers; anything else (a string
    or a nested list among them, or no list at all) is a FormatError."""
    if isinstance(value, list):
        try:
            return struct.pack(f"{len(value)}d", *value)
        except struct.error:
            pass
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
    records = read_records(path)
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
        if arr.size != (int(np.prod(shape)) if shape else 1):
            raise FormatError(f"line {lineno}: data length does not match shape")
        arrays[row["name"]] = arr.reshape(shape).copy()
    if list(arrays) != expected:
        raise FormatError(
            f"line 1: header names {expected} do not match the file's arrays {list(arrays)}"
        )
    return arrays, dict(meta)
