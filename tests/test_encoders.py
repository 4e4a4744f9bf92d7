from __future__ import annotations

import functools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kickrl import encoders, envs, nets
from kickrl.errors import FormatError, ShapeError

from gradcheck import grad_check


CFG = encoders.VaeTrainConfig()


# -- beta schedule -----------------------------------------------------------


def test_beta_is_zero_before_the_ramp() -> None:
    assert encoders.beta_schedule(2, 30, CFG) == 0.0


def test_beta_reaches_max_after_the_ramp() -> None:
    assert encoders.beta_schedule(27, 30, CFG) == 5e-8


def test_beta_linear_midpoint() -> None:
    assert encoders.beta_schedule(15, 30, CFG) == pytest.approx(2.5e-8, abs=1e-20)


def test_beta_continuous_at_ramp_endpoints() -> None:
    start, end = int(0.1 * 30), int(0.9 * 30)
    assert encoders.beta_schedule(start, 30, CFG) == 0.0
    assert encoders.beta_schedule(end, 30, CFG) == CFG.beta_max


@given(st.integers(min_value=2, max_value=200))
def test_beta_monotone_non_decreasing(total: int) -> None:
    values = [encoders.beta_schedule(e, total, CFG) for e in range(total)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_beta_rejects_out_of_range_epoch() -> None:
    with pytest.raises(ValueError):
        encoders.beta_schedule(30, 30, CFG)


def test_vae_config_validates_ramp_window() -> None:
    with pytest.raises(ValueError):
        encoders.VaeTrainConfig(ramp_start=0.9, ramp_end=0.1)


@pytest.mark.parametrize("field, value", [
    ("beta_max", float("nan")), ("beta_max", float("inf")), ("beta_max", -1e-9),
    ("learning_rate", -1.0), ("learning_rate", 0.0), ("learning_rate", float("nan")),
    ("learning_rate", float("inf")), ("epochs", -3), ("epochs", 0), ("batch_size", 0),
    ("epochs", float("inf")), ("ramp_start", float("nan")), ("ramp_end", float("nan")),
])
def test_vae_config_rejects_each_bad_field_by_name(field, value) -> None:
    with pytest.raises(ValueError, match=field):
        encoders.VaeTrainConfig(**{field: value})


# -- encode variants -----------------------------------------------------------


def test_identity_passes_observations_through() -> None:
    enc = encoders.IdentityEncoder(3)
    assert enc.encode(np.array([1.0, 2.0, 3.0])).tolist() == [1.0, 2.0, 3.0]


def test_identity_rejects_wrong_dimension() -> None:
    with pytest.raises(ShapeError):
        encoders.IdentityEncoder(3).encode(np.zeros(4))


def test_standardize_centers_its_own_mean() -> None:
    obs = np.array([2.0, -1.0, 0.5])
    enc = encoders.StandardizeEncoder(mean=obs, std=np.ones(3))
    assert np.array_equal(enc.encode(obs), np.zeros(3))


def test_standardize_rejects_non_positive_std() -> None:
    with pytest.raises(ValueError):
        encoders.StandardizeEncoder(np.zeros(2), np.array([1.0, 0.0]))


def test_fit_standardizer_floors_constant_features() -> None:
    data = np.column_stack([np.ones(10), np.linspace(0, 1, 10)])
    enc = encoders.fit_standardizer(data)
    assert np.all(enc.std > 0)


def test_vae_encode_is_deterministic_and_pure() -> None:
    vae = encoders.new_vae(input_dim=5, latent_dim=2, hidden=(8,), seed=0)
    obs = np.random.default_rng(1).standard_normal(5)
    a = vae.encode(obs)
    b = vae.encode(obs)
    assert np.array_equal(a, b)
    assert a.shape == (2,)


def test_vae_requires_two_heads_worth_of_outputs() -> None:
    rng = np.random.default_rng(2)
    enc_net = nets.init_net([5, 3], ["linear"], rng)  # should be 2*latent = 4
    dec_net = nets.init_net([2, 5], ["linear"], rng)
    with pytest.raises(ShapeError):
        encoders.DenseVaeEncoder(enc_net, dec_net, latent_dim=2)


# -- losses -----------------------------------------------------------------------


def test_kl_zero_when_posterior_matches_prior() -> None:
    assert encoders.kl_standard_normal(np.zeros((1, 4)), np.zeros((1, 4)))[0] == 0.0


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50)
def test_kl_never_negative(seed: int) -> None:
    rng = np.random.default_rng(seed)
    mu = rng.standard_normal((3, 5)) * 3.0
    log_var = rng.standard_normal((3, 5)) * 2.0
    assert np.all(encoders.kl_standard_normal(mu, log_var) >= 0.0)


def test_beta_zero_reduces_to_pure_reconstruction() -> None:
    vae = encoders.new_vae(input_dim=4, latent_dim=2, hidden=(6,), seed=3)
    rng = np.random.default_rng(4)
    batch = rng.standard_normal((6, 4))
    noise = rng.standard_normal((6, 2))
    parts, _, _ = encoders.vae_loss_and_grads(vae, batch, 0.0, noise)
    assert parts.total == parts.reconstruction


def test_vae_gradients_match_finite_differences_with_frozen_noise() -> None:
    vae = encoders.new_vae(input_dim=6, latent_dim=3, hidden=(8,), seed=5)
    rng = np.random.default_rng(6)
    batch = rng.standard_normal((5, 6))
    noise = rng.standard_normal((5, 3))
    beta = 0.7  # large enough that the KL path carries real gradient

    def enc_loss(_net):
        parts, enc_grads, _ = encoders.vae_loss_and_grads(vae, batch, beta, noise)
        return parts.total, enc_grads

    def dec_loss(_net):
        parts, _, dec_grads = encoders.vae_loss_and_grads(vae, batch, beta, noise)
        return parts.total, dec_grads

    assert grad_check(vae.enc_net, enc_loss, tolerance=1e-3).passed
    assert grad_check(vae.dec_net, dec_loss, tolerance=1e-3).passed


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_vae_train_step_rejects_non_finite_loss() -> None:
    vae = encoders.new_vae(input_dim=4, latent_dim=2, hidden=(6,), seed=7)
    enc_opt = nets.AdamState.for_params(vae.enc_net.param_arrays())
    dec_opt = nets.AdamState.for_params(vae.dec_net.param_arrays())
    bad = np.full((3, 4), np.inf)
    with pytest.raises(FloatingPointError):
        encoders.vae_train_step(vae, bad, 0.0, enc_opt, dec_opt)


def test_vae_training_reduces_reconstruction_error() -> None:
    rng = np.random.default_rng(8)
    data = rng.standard_normal((300, 6)) @ rng.standard_normal((6, 6)) * 0.5
    _, history = encoders.train_vae(
        data, latent_dim=3,
        cfg=encoders.VaeTrainConfig(epochs=8, batch_size=64),
        seed=1, hidden=(16,))
    assert history[-1].reconstruction < history[0].reconstruction


# -- persistence -------------------------------------------------------------------


@pytest.mark.parametrize("factory", [
    lambda: encoders.IdentityEncoder(7),
    lambda: encoders.StandardizeEncoder(np.arange(4.0), np.arange(1.0, 5.0)),
    lambda: encoders.new_vae(input_dim=5, latent_dim=2, hidden=(6,), seed=9),
])
def test_encoder_round_trip(tmp_path, factory) -> None:
    enc = factory()
    path = str(tmp_path / "enc.jsonl")
    encoders.save_encoder(enc, path)
    loaded = encoders.load_encoder(path)
    obs = np.random.default_rng(10).standard_normal(getattr(enc, "dim"))
    assert np.array_equal(enc.encode(obs), loaded.encode(obs))
    assert enc.encoder_id == loaded.encoder_id


def test_encode_batch_matches_per_row_encode() -> None:
    vae = encoders.new_vae(input_dim=5, latent_dim=2, hidden=(6,), seed=11)
    batch = np.random.default_rng(12).standard_normal((4, 5))
    stacked = np.stack([vae.encode(row) for row in batch])
    assert np.allclose(vae.encode_batch(batch), stacked, atol=1e-12)


# -- memoised encodes -------------------------------------------------------------------


def _fresh_latents(vae, batch: np.ndarray) -> np.ndarray:
    return nets.forward(vae.enc_net, batch).final[:, : vae.latent_dim]


def test_memoised_encodes_equal_a_fresh_forward_after_each_train_step() -> None:
    vae = encoders.new_vae(input_dim=24, latent_dim=4, hidden=(16, 16), seed=13)
    enc_opt = nets.AdamState.for_params(vae.enc_net.param_arrays(), 1e-2)
    dec_opt = nets.AdamState.for_params(vae.dec_net.param_arrays(), 1e-2)
    rng = np.random.default_rng(14)
    pool = rng.integers(0, 2, size=(10, 24)).astype(np.float64)
    batch = pool[rng.integers(0, len(pool), 32)]
    for _ in range(3):
        for _ in range(2):  # the second pass is answered from the memo
            assert np.array_equal(vae.encode_batch(batch), _fresh_latents(vae, batch))
            for obs in pool:
                assert np.array_equal(vae.encode(obs), _fresh_latents(vae, obs[None, :])[0])
        encoders.vae_train_step(vae, batch, 0.0, enc_opt, dec_opt)


def test_encoded_latents_can_be_mutated_by_the_caller() -> None:
    vae = encoders.new_vae(input_dim=5, latent_dim=2, hidden=(6,), seed=15)
    batch = np.random.default_rng(16).standard_normal((4, 5))
    expected = _fresh_latents(vae, batch)
    for _ in range(2):
        vae.encode_batch(batch)[:] = 99.0
        vae.encode(batch[0])[:] = 99.0
    assert np.array_equal(vae.encode_batch(batch), expected)
    assert np.array_equal(vae.encode(batch[0]), _fresh_latents(vae, batch[:1])[0])


def test_vae_encode_runs_the_net_once_per_distinct_observation() -> None:
    """encode memoises by an observation's bytes: repeated calls equal a
    fresh 1-row forward_values slice bitwise, 0.0 and -0.0 are two
    observations, and after vae_train_step encode follows the new net."""
    vae = encoders.new_vae(input_dim=3, latent_dim=2, hidden=(8,), seed=17)
    calls = []
    latents = vae._latents
    vae._latents = lambda batch: calls.append(len(batch)) or latents(batch)
    zero, one = np.zeros(3), np.ones(3)
    pool = (zero, -zero, one)

    def fresh(obs):
        return nets.forward_values(vae.enc_net, obs[None, :])[0, :vae.latent_dim]

    for _ in range(3):
        for obs in pool:
            assert vae.encode(obs).tobytes() == fresh(obs).tobytes()
    assert calls == [1, 1, 1]
    before = vae.encode(one)
    enc_opt = nets.AdamState.for_params(vae.enc_net.param_arrays(), 1e-2)
    dec_opt = nets.AdamState.for_params(vae.dec_net.param_arrays(), 1e-2)
    encoders.vae_train_step(vae, np.stack(pool * 4), 0.0, enc_opt, dec_opt)
    for obs in pool:
        assert vae.encode(obs).tobytes() == fresh(obs).tobytes()
    assert calls == [1] * 6
    assert not np.array_equal(vae.encode(one), before)


# -- the pre-training corpus ------------------------------------------------------------


def _reference_random_observations(spec, n_traj: int, seed: int) -> np.ndarray:
    """collect_random_observations as it was before it held each distinct
    observation once: one array per row, stacked at the end."""
    from kickrl import envs
    from kickrl.seeding import spawn_rng, spawn_seed

    rows = []
    for i in range(n_traj):
        state, obs = envs.reset(spec, seed=spawn_seed(seed, "vae-corpus", i))
        rng = spawn_rng(seed, "vae-corpus-actions", i)
        rows.append(obs)
        while not state.done:
            res = envs.step(spec, state, int(rng.integers(spec.action_count)))
            rows.append(res.observation)
    return np.asarray(rows, dtype=np.float64)


@pytest.mark.parametrize("preset, n_traj, seed", [("four-rooms-nav", 50, 0),  # the bench's
                                                  ("room-nav", 7, 3), ("collect-grid", 4, 5)])
def test_random_corpus_equals_the_list_stacking_version(preset, n_traj, seed) -> None:
    from kickrl import envs

    spec = envs.PRESETS[preset]()
    corpus = encoders.collect_random_observations(spec, n_traj, seed)
    reference = _reference_random_observations(spec, n_traj, seed)
    assert corpus.ids.dtype == np.int64 and corpus.ids.ndim == 1 and len(corpus) == len(reference)
    gathered = corpus.rows[corpus.ids]
    assert gathered.dtype == reference.dtype and gathered.shape == reference.shape
    assert gathered.tobytes() == reference.tobytes()
    distinct = {row.tobytes() for row in corpus.rows}  # each distinct row is held once
    assert len(distinct) == len(corpus.rows) == len({row.tobytes() for row in reference})
    if preset == "four-rooms-nav":
        assert len(corpus.rows) == 104


def test_train_vae_over_a_corpus_saves_the_bytes_of_one_over_its_rows(tmp_path) -> None:
    corpus = encoders.collect_random_observations(envs.make_room_nav(), 5, seed=1)
    cfg = encoders.VaeTrainConfig(epochs=1, batch_size=32)
    saved = []
    for observations in (corpus, corpus.rows[corpus.ids]):
        vae, _ = encoders.train_vae(observations, 4, cfg, seed=2)
        path = tmp_path / f"vae{len(saved)}.jsonl"
        encoders.save_encoder(vae, str(path))
        saved.append(path.read_bytes())
    assert saved[0] == saved[1]


# -- inputs the library refuses ------------------------------------------------------


def _room_corpus() -> encoders.Corpus:
    return encoders.collect_random_observations(envs.make_room_nav(), 2, seed=0)


def test_train_vae_rejects_a_latent_dim_below_one() -> None:
    with pytest.raises(ValueError, match="latent_dim must be >= 1"):
        encoders.train_vae(_room_corpus(), 0)


@pytest.mark.parametrize("corpus", [
    np.zeros((0, 128)), np.zeros(0),
    encoders.Corpus(np.zeros((0, 128)), np.zeros(1, dtype=np.int64)),
    encoders.Corpus(np.zeros((2, 3)), np.zeros(0, dtype=np.int64)),
    encoders.Corpus(np.zeros((2, 3)), np.zeros((1, 1), dtype=np.int64)),
    encoders.Corpus(np.zeros(3), np.zeros(1, dtype=np.int64)),
], ids=["no-rows", "1-D", "corpus-no-rows", "corpus-no-ids", "corpus-2-D-ids", "corpus-1-D-rows"])
def test_train_vae_rejects_an_empty_corpus(corpus) -> None:
    with pytest.raises(ValueError, match="observations must be a non-empty"):
        encoders.train_vae(corpus, 4)


@pytest.mark.filterwarnings("error")
def test_fit_standardizer_rejects_an_empty_corpus() -> None:
    with pytest.raises(ValueError, match="observations must be a non-empty"):
        encoders.fit_standardizer(np.zeros((0, 128)))


@pytest.mark.parametrize("ids", [[0, 2], [-1, 0], [0.0, 1.0]])
def test_train_vae_rejects_corpus_ids_outside_its_rows(ids) -> None:
    with pytest.raises(ValueError, match=r"corpus ids must be integers in \[0, 2\)"):
        encoders.train_vae(encoders.Corpus(np.zeros((2, 3)), np.asarray(ids)), 4)


def test_random_corpus_needs_at_least_one_trajectory() -> None:
    with pytest.raises(ValueError, match="n_traj must be >= 1"):
        encoders.collect_random_observations(envs.make_room_nav(), 0)


# -- properties: encoder files round-trip and survive single-field mutations ----------

EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, float(2**60), -float(2**60)]
_finite = st.sampled_from(EDGE_VALUES) | st.floats(allow_nan=False, allow_infinity=False)
_positive = (st.sampled_from([5e-324, 1e-300, float(2**60)])
             | st.floats(min_value=5e-324, allow_infinity=False))
_property_settings = settings(max_examples=200, deadline=None,
                              suppress_health_check=[HealthCheck.function_scoped_fixture])


def _arrays(draw, elements, shape) -> np.ndarray:
    n = int(np.prod(shape))
    return np.array(draw(st.lists(elements, min_size=n, max_size=n))).reshape(shape)


@st.composite
def _encoders(draw) -> encoders.Encoder:
    """An identity, standardize or VAE encoder of width 1-4 whose parameters
    draw on the edge values (a standardizer's std on positive ones)."""
    dim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["identity", "standardize", "vae"]))
    if kind == "identity":
        return encoders.IdentityEncoder(dim)
    if kind == "standardize":
        return encoders.StandardizeEncoder(_arrays(draw, _finite, (dim,)),
                                           _arrays(draw, _positive, (dim,)))
    latent, hidden = draw(st.integers(1, 2)), draw(st.integers(1, 3))

    def net(dims):
        acts = [draw(st.sampled_from(nets.ACTIVATIONS)) for _ in dims[1:]]
        return nets.DenseNet([nets.Layer(_arrays(draw, _finite, (i, o)),
                                         _arrays(draw, _finite, (o,)), a)
                              for i, o, a in zip(dims, dims[1:], acts)])

    return encoders.DenseVaeEncoder(net([dim, hidden, 2 * latent]),
                                    net([latent, hidden, dim]), latent)


def _bytes_of(enc: encoders.Encoder):
    """Everything a saved encoder carries, with its arrays as bytes."""
    arrays, meta = encoders.encoder_to_arrays(enc)
    return {name: (arr.shape, arr.tobytes()) for name, arr in arrays.items()}, meta


@pytest.mark.formats
@_property_settings
@given(enc=_encoders())
def test_encoders_with_edge_values_load_back_bit_exactly(tmp_path, enc) -> None:
    path = str(tmp_path / "edges.encoder.jsonl")
    encoders.save_encoder(enc, path)
    loaded = encoders.load_encoder(path)
    assert type(loaded) is type(enc)
    assert _bytes_of(loaded) == _bytes_of(enc)
    assert loaded.encoder_id == enc.encoder_id


def _edge_encoder_files(tmp_path) -> dict[str, list[str]]:
    """The lines of one saved encoder of each kind, with edge values in every
    array."""
    edges = np.array(EDGE_VALUES)
    vae = encoders.new_vae(input_dim=4, latent_dim=1, hidden=(3,), seed=0)
    for p in (*vae.enc_net.param_arrays(), *vae.dec_net.param_arrays()):
        p.flat[:len(edges)] = edges[:p.size]
    made = {"identity": encoders.IdentityEncoder(4),
            "standardize": encoders.StandardizeEncoder(
                np.array([-0.0, 5e-324, 1e-300, 2.0**60]),
                np.array([5e-324, 1e-300, 2.0**60, 1 / 3])),
            "vae": vae}
    files = {}
    for kind, enc in made.items():
        path = tmp_path / f"{kind}.encoder.jsonl"
        encoders.save_encoder(enc, str(path))
        files[kind] = path.read_text(encoding="utf-8").splitlines()
    return files


_numbers = st.sampled_from([-1, 0, 1, 2, 7, 2**60, 10**400, -(10**400), math.nan, math.inf,
                            -math.inf]) | st.integers() | st.floats()
_any_value = st.one_of(_numbers, st.none(), st.booleans(),
                       st.sampled_from(["relu", "linear", "softmax", "vae", "identity",
                                        "standardize", "enc.layer0.weights", "mean", "std"]),
                       st.text(max_size=3), st.lists(_numbers, max_size=5),
                       st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def _paths(value, path=()):
    """Every place in a JSON value: the value itself and each dict field and
    list element, at any depth."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _paths(child, (*path, key))


def _mutate(data, record):
    """``record`` with one place replaced or deleted, or a field added to it."""
    path = data.draw(st.sampled_from(list(_paths(record))))
    if not path:
        return data.draw(_any_value)
    parent = functools.reduce(lambda value, key: value[key], path[:-1], record)
    how = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if how == "delete":
        del parent[path[-1]]
    elif how == "add" and isinstance(parent, dict):
        parent[data.draw(st.text(max_size=3))] = data.draw(_any_value)
    else:
        parent[path[-1]] = data.draw(_any_value)
    return record


@pytest.mark.formats
@_property_settings
@given(data=st.data())
def test_a_single_field_mutation_loads_or_is_a_format_error_naming_a_line(tmp_path,
                                                                         data) -> None:
    """One place in one line of a saved encoder file, at any depth, is
    replaced or deleted, or a field is added there.  Loading either gives
    an encoder with finite parameters or raises a FormatError whose message
    starts with the line it names."""
    lines = _edge_encoder_files(tmp_path)[data.draw(st.sampled_from(["identity",
                                                                     "standardize", "vae"]))]
    index = data.draw(st.integers(0, len(lines) - 1))
    lines[index] = json.dumps(_mutate(data, json.loads(lines[index])))
    path = tmp_path / "mutated.encoder.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        enc = encoders.load_encoder(str(path))
    except FormatError as exc:
        assert re.match(r"line \d+: ", str(exc)), str(exc)
    else:
        arrays, _ = encoders.encoder_to_arrays(enc)
        assert all(np.all(np.isfinite(arr)) for arr in arrays.values())
