from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kickrl import encoders, harness, nets, snapshots
from kickrl.errors import FormatError


# -- the streamed writer -------------------------------------------------------------

SPECIAL = [-0.0, 5e-324, 1e-300, float(2**60), float("nan"), float("inf"), -float("inf")]


def _shapes(piece: int) -> list[tuple[int, ...]]:
    """0-d, empty, and sizes around one and several pieces of ``piece``
    values, with rows that fit a piece and rows that do not."""
    return [(), (0,), (2, 0), (0, 3), (1,), (2, 3), (piece - 1,), (piece,), (piece + 1,),
            (3 * piece + 1,), (2, piece + 1), (piece // 2 + 2, 3), (2, 2, piece // 2 + 1)]


@st.composite
def _arrays(draw, piece: int) -> np.ndarray:
    shape = draw(st.sampled_from(_shapes(piece)))
    size = int(np.prod(shape))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array(draw(st.lists(st.sampled_from(SPECIAL) | st.floats(), min_size=1,
                                  max_size=8)))
    values = rng.standard_normal(size)
    special = rng.random(size) < 0.3
    values[special] = rng.choice(pool, int(special.sum()))
    return values.reshape(shape)


_plain = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) \
    | st.lists(st.integers(), max_size=3)


@st.composite
def _records(draw, piece: int) -> list[dict]:
    items = st.lists(st.tuples(st.text(max_size=4), _arrays(piece) | _plain), max_size=5,
                     unique_by=lambda item: item[0])
    return [dict(record) for record in draw(st.lists(items, max_size=3))]


def _as_lists(record: dict) -> dict:
    return {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in record.items()}


_piece = st.sampled_from([2, 3, 7, snapshots._PIECE])
_file_settings = settings(max_examples=60, deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])


@_file_settings
@given(data=st.data(), piece=_piece)
def test_each_written_line_is_the_json_dump_of_its_record(tmp_path, data, piece) -> None:
    """Every record is written twice, so each array's second line comes from
    the writer's text memo when the array fits in one piece."""
    records = data.draw(_records(piece))
    path = str(tmp_path / "records.jsonl")
    with mock.patch.object(snapshots, "_PIECE", piece):
        snapshots.write_records(path, {"kind": "test"}, records + records)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    assert lines == [json.dumps({"kind": "test"})] + [
        json.dumps(_as_lists(record)) for record in records + records] + [""]


def test_arrays_of_equal_bytes_and_other_shapes_keep_their_own_text(tmp_path) -> None:
    record = {"a": np.zeros(()), "b": np.zeros(1), "c": np.zeros(6), "d": np.zeros((2, 3)),
              "e": np.zeros((0,)), "f": np.zeros((2, 0))}
    path = str(tmp_path / "records.jsonl")
    snapshots.write_records(path, {}, [record])
    with open(path, encoding="utf-8") as fh:
        assert fh.read().splitlines()[1] == json.dumps(_as_lists(record))


@_file_settings
@given(data=st.data(), piece=_piece)
def test_saved_arrays_are_their_json_dumps_and_load_bit_exactly(tmp_path, data, piece) -> None:
    arrays = {f"a{i}": arr for i, arr in enumerate(data.draw(st.lists(_arrays(piece),
                                                                      max_size=4)))}
    path = str(tmp_path / "arrays.jsonl")
    with mock.patch.object(snapshots, "_PIECE", piece):
        snapshots.save_arrays(path, arrays, meta={"kind": "test"})
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[1:] == [json.dumps({"name": name, "shape": list(arr.shape),
                                     "data": arr.reshape(-1).tolist()})
                         for name, arr in arrays.items()]
    loaded, meta = snapshots.load_arrays(path)
    assert meta == {"kind": "test"} and list(loaded) == list(arrays)
    for name, arr in arrays.items():
        assert loaded[name].shape == arr.shape
        if np.isfinite(arr).all():
            assert loaded[name].tobytes() == arr.tobytes()


# -- malformed files -------------------------------------------------------------------


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


def _shape_product_wraps_to_the_length(lines):
    row = json.loads(lines[1])
    row["shape"] = [2**62 + 1, 4]  # an int64 product of 2**64 + 4 wraps to 4
    row["data"] = row["data"][:4]
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
    (_string_in_data, 3), (_shape_product_wraps_to_the_length, 2),
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


# -- loaders of named-array files ------------------------------------------------------


def _encoder_file(tmp_path, enc, mutate) -> str:
    arrays, meta = encoders.encoder_to_arrays(enc)
    meta = {"encoder": dict(meta)}
    mutate(meta, arrays)
    path = str(tmp_path / "enc.jsonl")
    snapshots.save_arrays(path, arrays, meta=meta)
    return path


IDENTITY = encoders.IdentityEncoder(4)
STANDARDIZE = encoders.StandardizeEncoder(np.arange(4.0), np.arange(1.0, 5.0))
VAE = encoders.new_vae(input_dim=4, latent_dim=2, hidden=(5,), seed=3)


@pytest.mark.parametrize("enc, mutate", [
    (IDENTITY, lambda meta, arrays: meta.pop("encoder")),
    (IDENTITY, lambda meta, arrays: meta.update(encoder=["identity", 4])),
    (IDENTITY, lambda meta, arrays: meta["encoder"].pop("dim")),
    (IDENTITY, lambda meta, arrays: meta["encoder"].update(dim="4")),
    (IDENTITY, lambda meta, arrays: meta["encoder"].update(dim=True)),
    (IDENTITY, lambda meta, arrays: meta["encoder"].update(dim=0)),
    (IDENTITY, lambda meta, arrays: meta["encoder"].pop("kind")),
    (IDENTITY, lambda meta, arrays: meta["encoder"].update(kind="pca")),
    (STANDARDIZE, lambda meta, arrays: arrays.pop("std")),
    (STANDARDIZE, lambda meta, arrays: arrays.update(std=np.zeros(4))),
    (STANDARDIZE, lambda meta, arrays: arrays.update(std=np.ones(3))),
    (VAE, lambda meta, arrays: meta["encoder"].pop("enc_activations")),
    (VAE, lambda meta, arrays: meta["encoder"].update(dec_activations="relu")),
    (VAE, lambda meta, arrays: meta["encoder"].update(dec_activations=["linear"])),
    (VAE, lambda meta, arrays: meta["encoder"].update(enc_activations=["relu", "tanh"])),
    (VAE, lambda meta, arrays: meta["encoder"].pop("latent_dim")),
    (VAE, lambda meta, arrays: meta["encoder"].update(latent_dim=3)),
    (VAE, lambda meta, arrays: arrays.pop("dec.layer1.biases")),
], ids=["no-encoder", "encoder-not-object", "identity-no-dim", "identity-dim-string",
        "identity-dim-bool", "identity-dim-0", "no-kind", "unknown-kind", "standardize-no-std",
        "standardize-zero-std", "standardize-short-std", "vae-no-enc-activations",
        "vae-activations-string", "vae-too-few-activations", "vae-unknown-activation",
        "vae-no-latent-dim", "vae-wrong-latent-dim", "vae-missing-array"])
def test_bad_encoder_files_are_format_errors_naming_line_1(tmp_path, enc, mutate) -> None:
    assert encoders.load_encoder(_encoder_file(tmp_path, enc, lambda meta, arrays: None))
    with pytest.raises(FormatError, match="^line 1: "):
        encoders.load_encoder(_encoder_file(tmp_path, enc, mutate))


def _policy_file(tmp_path, mutate) -> str:
    net = nets.mlp(4, 3, (5,), np.random.default_rng(4))
    arrays = nets.net_to_arrays(net, "q")
    meta = {"agent": "cdql", "env_id": "room-nav", "head": "q",
            "head_activations": ["relu", "linear"], "encoder": {"kind": "identity", "dim": 4}}
    mutate(meta, arrays)
    path = str(tmp_path / "policy.jsonl")
    snapshots.save_arrays(path, arrays, meta=meta)
    return path


@pytest.mark.parametrize("mutate", [
    lambda meta, arrays: meta.pop("head"),
    lambda meta, arrays: meta.update(head=["q"]),
    lambda meta, arrays: meta.update(head="policy"),
    lambda meta, arrays: meta.pop("head_activations"),
    lambda meta, arrays: meta.update(head_activations="relu"),
    lambda meta, arrays: meta.update(head_activations=["relu"]),
    lambda meta, arrays: meta.update(head_activations=["relu", "linear", "linear"]),
    lambda meta, arrays: meta.update(head_activations=["softmax", "linear"]),
    lambda meta, arrays: arrays.pop("q.layer1.weights"),
    lambda meta, arrays: arrays.update({"q.layer1.biases": np.zeros(2)}),
    lambda meta, arrays: meta.pop("encoder"),
    lambda meta, arrays: meta.update(encoder={"kind": "identity"}),
    lambda meta, arrays: meta.update(encoder={"kind": "vae", "latent_dim": 2}),
], ids=["no-head", "head-not-string", "head-without-arrays", "no-head-activations",
        "activations-string", "too-few-activations", "too-many-activations", "softmax-hidden",
        "missing-weights", "short-biases", "no-encoder", "identity-no-dim",
        "vae-without-arrays"])
def test_bad_policy_snapshots_are_format_errors_naming_line_1(tmp_path, mutate) -> None:
    action_fn, _ = harness.load_policy_snapshot(
        _policy_file(tmp_path, lambda meta, arrays: None))
    assert action_fn(np.zeros(4)) in range(3)
    with pytest.raises(FormatError, match="^line 1: "):
        harness.load_policy_snapshot(_policy_file(tmp_path, mutate))
