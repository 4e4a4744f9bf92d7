"""The JSON-lines record file, and named-array snapshots stored in it.

A record file is UTF-8 JSON lines: a header object, then one object per
record.  Demo stores (demos.py) keep one transition per record; a named-array
snapshot keeps one flat real array with its name and shape per record, and
free-form metadata in its header.  Used for network and encoder parameter
snapshots.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import FormatError

FORMAT_VERSION = 1


def write_records(path: str, header: dict, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for record in records:
            fh.write(json.dumps(record) + "\n")


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
    return {"name": name, "shape": list(arr.shape), "data": [float(v) for v in arr.reshape(-1)]}


def load_arrays(path: str) -> tuple[dict[str, np.ndarray], dict]:
    records = read_records(path)
    _, header = next(records)
    if header.get("format_version") != FORMAT_VERSION or header.get("kind") != "named-arrays":
        raise FormatError("line 1: not a named-array snapshot")
    expected = list(header.get("names", []))

    arrays: dict[str, np.ndarray] = {}
    for lineno, row in records:
        if set(row) != {"name", "shape", "data"}:
            raise FormatError(f"line {lineno}: array fields wrong")
        arr = np.asarray(row["data"], dtype=np.float64)
        shape = tuple(int(s) for s in row["shape"])
        if arr.size != (int(np.prod(shape)) if shape else 1):
            raise FormatError(f"line {lineno}: data length does not match shape")
        arrays[str(row["name"])] = arr.reshape(shape)
    if list(arrays) != expected:
        raise FormatError(
            f"line 1: header names {expected} do not match the file's arrays {list(arrays)}"
        )
    return arrays, dict(header.get("meta", {}))
