from __future__ import annotations

import json

import numpy as np
import pytest

from kickrl import snapshots
from kickrl.errors import FormatError


def _write_lines(path, lines) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return str(path)


def _saved_lines(tmp_path) -> list[str]:
    path = str(tmp_path / "good.snapshot.jsonl")
    snapshots.save_arrays(path, {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)},
                          meta={"kind": "test"})
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _header_as_list(lines):
    lines[0] = json.dumps(list(json.loads(lines[0])))


def _row_as_list(lines):
    lines[2] = json.dumps(list(json.loads(lines[2])))


def _bad_json(lines):
    lines[1] = lines[1][:-1]


def _blank_line(lines):
    lines.insert(2, "")


def _short_data(lines):
    row = json.loads(lines[1])
    row["data"] = row["data"][:-1]
    lines[1] = json.dumps(row)


def _renamed_array(lines):
    row = json.loads(lines[2])
    row["name"] = "bias"
    lines[2] = json.dumps(row)


def _shape_not_ints(lines):
    row = json.loads(lines[1])
    row["shape"] = ["a", 2]
    lines[1] = json.dumps(row)


def _meta_as_list(lines):
    header = json.loads(lines[0])
    header["meta"] = ["kind", "test"]
    lines[0] = json.dumps(header)


def _string_in_data(lines):
    row = json.loads(lines[2])
    row["data"][0] = "0.5"
    lines[2] = json.dumps(row)


@pytest.mark.parametrize("corrupt, line", [
    (_header_as_list, 1), (_row_as_list, 3), (_bad_json, 2), (_blank_line, 3),
    (_short_data, 2), (_renamed_array, 1), (_shape_not_ints, 2), (_meta_as_list, 1),
    (_string_in_data, 3),
])
def test_bad_named_array_files_are_format_errors_naming_the_line(tmp_path, corrupt,
                                                                 line) -> None:
    lines = _saved_lines(tmp_path)
    corrupt(lines)
    path = _write_lines(tmp_path / "bad.snapshot.jsonl", lines)
    with pytest.raises(FormatError, match=rf"^line {line}: "):
        snapshots.load_arrays(path)


def test_empty_record_file_is_missing_its_header(tmp_path) -> None:
    path = _write_lines(tmp_path / "empty.jsonl", [])
    with pytest.raises(FormatError, match="line 1: missing header"):
        snapshots.load_arrays(path)
