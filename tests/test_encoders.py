from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kickrl import encoders, nets
from kickrl.errors import ShapeError

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

    assert nets.grad_check(vae.enc_net, enc_loss, tolerance=1e-3).passed
    assert nets.grad_check(vae.dec_net, dec_loss, tolerance=1e-3).passed


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
    assert corpus.dtype == reference.dtype and corpus.shape == reference.shape
    assert corpus.tobytes() == reference.tobytes()
    assert corpus.flags.c_contiguous and corpus.flags.writeable
    corpus[0, 0] = 7.0  # the rows are the caller's: no two share memory
    assert np.array_equal(corpus[1:], reference[1:])
