from __future__ import annotations

import json

import numpy as np
import pytest

from kickrl import encoders, harness, nets, snapshots
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
