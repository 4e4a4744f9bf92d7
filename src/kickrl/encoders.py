"""Feature extractors mapping observations into the shared latent space.

Three variants: identity (grid observations are already compact vectors),
per-feature standardization, and a dense variational autoencoder trained on
reconstruction plus a KL penalty whose weight ramps linearly over training.
Inference always uses the mean head, so encoding is deterministic and every
downstream consumer (agents, retrieval index) sees the same latents.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, fields

import numpy as np

from .errors import FormatError, ShapeError
from .nets import (AdamState, DenseNet, RowMemo, RowTable, adam_step, backward, forward,
                   forward_values, mlp, net_from_arrays, net_to_arrays)
from .seeding import spawn_rng, spawn_seed
from .snapshots import load_arrays, meta_field, save_arrays


@dataclass
class VaeTrainConfig:
    epochs: int = 30
    batch_size: int = 128
    learning_rate: float = 3e-4
    beta_max: float = 5e-8
    ramp_start: float = 0.1  # fraction of epochs where the ramp begins
    ramp_end: float = 0.9

    def __post_init__(self) -> None:
        # every check below is written so that NaN fails it
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("epochs", "batch_size"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be > 0")
        if not self.beta_max >= 0.0:
            raise ValueError("beta_max must be >= 0")
        if not 0.0 <= self.ramp_start < self.ramp_end <= 1.0:
            raise ValueError("need 0 <= ramp_start < ramp_end <= 1")


def beta_schedule(epoch: int, total_epochs: int, cfg: VaeTrainConfig) -> float:
    """KL weight: 0 before the ramp, linear across it, beta_max after."""
    if not 0 <= epoch < total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs})")
    start = cfg.ramp_start * total_epochs
    end = cfg.ramp_end * total_epochs
    frac = (epoch - start) / (end - start)
    return cfg.beta_max * min(1.0, max(0.0, frac))


class Encoder:
    """The row contract every encoder keeps: an observation of width ``dim``
    maps to a latent of width ``latent_dim`` (``dim`` unless the encoder says
    otherwise), one row or a (B, dim) batch.  Subclasses define ``_latents``,
    the map over a checked float64 batch."""

    dim: int

    @property
    def latent_dim(self) -> int:
        return self.dim

    def encode(self, obs: np.ndarray) -> np.ndarray:
        obs = np.asarray(obs, dtype=np.float64)
        if obs.shape != (self.dim,):
            raise ShapeError(f"observation shape {obs.shape} != ({self.dim},)")
        return self._latents(obs[None, :])[0]

    def encode_batch(self, batch: np.ndarray) -> np.ndarray:
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != self.dim:
            raise ShapeError(f"batch shape {batch.shape} incompatible with dim {self.dim}")
        return self._latents(batch)


class IdentityEncoder(Encoder):
    def __init__(self, dim: int):
        self.dim = dim

    @property
    def encoder_id(self) -> str:
        return f"identity:{self.dim}"

    def _latents(self, batch: np.ndarray) -> np.ndarray:
        return batch


class StandardizeEncoder(Encoder):
    def __init__(self, mean: np.ndarray, std: np.ndarray):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.asarray(std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ShapeError("mean and std must be 1-D and aligned")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.std))):
            raise ValueError("mean and std must be finite")
        if np.any(self.std <= 0.0):
            raise ValueError("std entries must be > 0")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def encoder_id(self) -> str:
        tag = zlib.crc32(self.mean.tobytes() + self.std.tobytes()) & 0xFFFFFFFF
        return f"standardize:{self.dim}:{tag:08x}"

    def _latents(self, batch: np.ndarray) -> np.ndarray:
        return (batch - self.mean) / self.std


@dataclass(frozen=True)
class Corpus:
    """A training corpus held once per distinct observation: row i is
    ``rows[ids[i]]``.  ``rows`` is (m, d) float64, ``ids`` is (n,) int64, and
    ``len`` is n."""

    rows: np.ndarray
    ids: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def _corpus(observations: Corpus | np.ndarray) -> Corpus:
    """A checked Corpus; an (n, d) array becomes one over its own rows, with
    no copy."""
    if not isinstance(observations, Corpus):
        obs = np.asarray(observations, dtype=np.float64)
        observations = Corpus(obs, np.arange(obs.shape[0] if obs.ndim else 0))
    rows, ids = np.asarray(observations.rows, dtype=np.float64), np.asarray(observations.ids)
    if rows.ndim != 2 or rows.size == 0 or ids.ndim != 1 or ids.size == 0:
        raise ValueError(f"observations must be a non-empty (n, d) corpus, got rows of shape "
                         f"{rows.shape} and ids of shape {ids.shape}")
    if ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() >= len(rows):
        raise ValueError(f"corpus ids must be integers in [0, {len(rows)})")
    return Corpus(rows, ids)


def fit_standardizer(observations: Corpus | np.ndarray,
                     std_floor: float = 1e-8) -> StandardizeEncoder:
    corpus = _corpus(observations)
    obs = corpus.rows[corpus.ids]
    std = np.maximum(obs.std(axis=0), std_floor)  # floor keeps the >0 invariant
    return StandardizeEncoder(obs.mean(axis=0), std)


class DenseVaeEncoder(Encoder):
    """Dense VAE: encoder emits (mu, log-variance); decode reconstructs.

    Encoded rows are memoised per observation; vae_train_step, the only code
    that changes ``enc_net``, clears the memo.
    """

    def __init__(self, enc_net: DenseNet, dec_net: DenseNet, latent_dim: int,
                 noise_seed: int = 0):
        if enc_net.output_dim != 2 * latent_dim:
            raise ShapeError(
                f"encoder must emit 2*latent_dim={2 * latent_dim} values, "
                f"got {enc_net.output_dim}"
            )
        if dec_net.input_dim != latent_dim or dec_net.output_dim != enc_net.input_dim:
            raise ShapeError("decoder dims must invert the encoder")
        self.enc_net = enc_net
        self.dec_net = dec_net
        self.latent_memo = RowMemo(  # over locals: a closure on self is a reference cycle
            lambda obs: forward_values(enc_net, obs)[:, :latent_dim].copy())
        self.noise_rng = spawn_rng(noise_seed, "vae-noise")

    @property
    def dim(self) -> int:
        return self.enc_net.input_dim

    @property
    def latent_dim(self) -> int:
        return self.enc_net.output_dim // 2

    @property
    def encoder_id(self) -> str:
        tag = zlib.crc32(b"".join(p.tobytes() for p in self.enc_net.param_arrays()))
        return f"vae:{self.latent_dim}:{tag & 0xFFFFFFFF:08x}"

    def _latents(self, batch: np.ndarray) -> np.ndarray:
        return self.latent_memo(batch)


def new_vae(input_dim: int, latent_dim: int, hidden: tuple[int, ...] = (64, 64),
            seed: int = 0) -> DenseVaeEncoder:
    enc = mlp(input_dim, 2 * latent_dim, hidden, spawn_rng(seed, "vae-enc"))
    dec = mlp(latent_dim, input_dim, hidden, spawn_rng(seed, "vae-dec"))
    return DenseVaeEncoder(enc, dec, latent_dim, noise_seed=seed)


@dataclass
class VaeLossParts:
    total: float
    reconstruction: float
    kl: float


def kl_standard_normal(mu: np.ndarray, log_var: np.ndarray) -> np.ndarray:
    """Per-sample KL against a standard normal; always >= 0."""
    return -0.5 * np.sum(1.0 + log_var - np.square(mu) - np.exp(log_var), axis=1)


def vae_loss_and_grads(vae: DenseVaeEncoder, batch: np.ndarray, beta: float,
                       noise: np.ndarray,
                       opts: tuple[AdamState, AdamState] | None = None):
    """Reconstruction + beta*KL with explicit (frozen) reparameterization noise.

    Returns (parts, enc_grads, dec_grads); grads are batch means aligned with
    each net's param_arrays().  They are new arrays, or, with ``opts`` (the
    encoder's and the decoder's AdamState), those states' buffers, which also
    hold the step's batch-sized arrays (see nets.backward).
    """
    batch = np.asarray(batch, dtype=np.float64)
    n_rows, n_features = batch.shape
    enc_work, dec_work = opts or (None, None)
    enc_acts = forward(vae.enc_net, batch, work=enc_work)
    mu = enc_acts.final[:, : vae.latent_dim]
    log_var = enc_acts.final[:, vae.latent_dim:]
    sigma = np.exp(0.5 * log_var)
    if noise.shape != mu.shape:
        raise ShapeError(f"noise shape {noise.shape} != latent shape {mu.shape}")
    z = mu + sigma * noise

    dec_acts = forward(vae.dec_net, z, work=dec_work)
    diff_buf = square_buf = None
    if dec_work is not None:
        diff_buf, square_buf = (dec_work.rows(name, n_rows, n_features)
                                for name in ("diff", "square"))
    diff = np.subtract(dec_acts.final, batch, out=diff_buf)
    per_sample_mse = np.mean(np.square(diff, out=square_buf), axis=1)
    per_sample_kl = kl_standard_normal(mu, log_var)
    parts = VaeLossParts(
        total=float(per_sample_mse.mean() + beta * per_sample_kl.mean()),
        reconstruction=float(per_sample_mse.mean()),
        kl=float(per_sample_kl.mean()),
    )

    diff *= 2.0  # the per-sample MSE grad, 2 * (recon - batch) / n_features
    diff /= n_features
    dec_grads, dz = backward(vae.dec_net, dec_acts, diff, work=dec_work)
    d_mu = dz + beta * mu
    d_log_var = dz * noise * 0.5 * sigma + beta * 0.5 * (np.exp(log_var) - 1.0)
    enc_grads, _ = backward(vae.enc_net, enc_acts, np.hstack([d_mu, d_log_var]),
                            input_gradient=False, work=enc_work)
    return parts, enc_grads, dec_grads


def vae_train_step(vae: DenseVaeEncoder, batch: np.ndarray, beta: float,
                   enc_opt: AdamState, dec_opt: AdamState) -> VaeLossParts:
    """One optimization step; noise comes from the encoder's seeded stream.
    Its gradients and batch-sized arrays live in the optimisers' buffers."""
    batch = np.asarray(batch, dtype=np.float64)
    noise = vae.noise_rng.standard_normal((batch.shape[0], vae.latent_dim))
    parts, enc_grads, dec_grads = vae_loss_and_grads(vae, batch, beta, noise,
                                                     (enc_opt, dec_opt))
    if not np.isfinite(parts.total):
        raise FloatingPointError(f"non-finite loss {parts.total}: step rejected")
    adam_step(vae.enc_net.param_arrays(), enc_grads, enc_opt)
    adam_step(vae.dec_net.param_arrays(), dec_grads, dec_opt)
    vae.latent_memo.clear()
    return parts


def train_vae(observations: Corpus | np.ndarray, latent_dim: int,
              cfg: VaeTrainConfig | None = None, seed: int = 0,
              hidden: tuple[int, ...] = (64, 64)) -> tuple[DenseVaeEncoder, list[VaeLossParts]]:
    """Train a dense VAE over an observation corpus with the ramped KL weight."""
    if not latent_dim >= 1:
        raise ValueError(f"latent_dim must be >= 1, got {latent_dim!r}")
    cfg = cfg or VaeTrainConfig()
    corpus = _corpus(observations)
    vae = new_vae(corpus.rows.shape[1], latent_dim, hidden=hidden, seed=seed)
    enc_opt = AdamState.for_params(vae.enc_net.param_arrays(), cfg.learning_rate)
    dec_opt = AdamState.for_params(vae.dec_net.param_arrays(), cfg.learning_rate)
    order_rng = spawn_rng(seed, "vae-batches")
    gathered = np.empty((cfg.batch_size, corpus.rows.shape[1]))  # each batch, in turn
    history: list[VaeLossParts] = []
    for epoch in range(cfg.epochs):
        beta = beta_schedule(epoch, cfg.epochs, cfg)
        perm = order_rng.permutation(len(corpus))
        epoch_parts = None
        for start in range(0, len(perm), cfg.batch_size):
            ids = corpus.ids[perm[start:start + cfg.batch_size]]
            # mode "clip" writes straight into out; "raise" would gather a copy
            chunk = np.take(corpus.rows, ids, axis=0, out=gathered[:len(ids)], mode="clip")
            epoch_parts = vae_train_step(vae, chunk, beta, enc_opt, dec_opt)
        if epoch_parts is not None:
            history.append(epoch_parts)
    return vae, history


def encoder_to_arrays(enc: Encoder) -> tuple[dict[str, np.ndarray], dict]:
    """Flatten an encoder into the named-array container (arrays, meta)."""
    if isinstance(enc, IdentityEncoder):
        return {}, {"kind": "identity", "dim": enc.dim}
    if isinstance(enc, StandardizeEncoder):
        return {"mean": enc.mean, "std": enc.std}, {"kind": "standardize"}
    arrays = {**net_to_arrays(enc.enc_net, "enc"), **net_to_arrays(enc.dec_net, "dec")}
    meta = {
        "kind": "vae",
        "latent_dim": enc.latent_dim,
        "enc_activations": [l.activation for l in enc.enc_net.layers],
        "dec_activations": [l.activation for l in enc.dec_net.layers],
    }
    return arrays, meta


def encoder_from_arrays(arrays: dict[str, np.ndarray], meta: dict) -> Encoder:
    """Rebuild the encoder that encoder_to_arrays flattened.  Metadata or
    arrays that do not describe one are a FormatError naming line 1, the
    header of the file they come from."""
    kind = meta_field(meta, "kind", str)
    if kind == "identity":
        dim = meta_field(meta, "dim", int)
        if dim < 1:
            raise FormatError(f"line 1: identity encoder dim {dim} < 1")
        return IdentityEncoder(dim)
    if kind == "standardize":
        try:
            return StandardizeEncoder(arrays["mean"], arrays["std"])
        except (KeyError, ValueError) as exc:
            raise FormatError(f"line 1: no standardizer in the arrays ({exc})") from None
    if kind == "vae":
        enc = net_from_arrays(arrays, "enc", meta_field(meta, "enc_activations", list))
        dec = net_from_arrays(arrays, "dec", meta_field(meta, "dec_activations", list))
        try:
            return DenseVaeEncoder(enc, dec, meta_field(meta, "latent_dim", int))
        except ShapeError as exc:
            raise FormatError(f"line 1: {exc}") from None
    raise FormatError(f"line 1: unknown encoder kind {kind!r}")


def save_encoder(enc: Encoder, path: str) -> None:
    arrays, meta = encoder_to_arrays(enc)
    save_arrays(path, arrays, meta={"encoder": meta})


def load_encoder(path: str) -> Encoder:
    arrays, meta = load_arrays(path)
    return encoder_from_arrays(arrays, meta_field(meta, "encoder", dict))


def collect_random_observations(spec, n_traj: int = 50, seed: int = 0) -> Corpus:
    """Roll a uniform-random policy to build a VAE pre-training corpus.

    Grid observations repeat (four-rooms: 104 distinct in 5,371 rows), so
    the corpus holds each distinct one once, with the id of every row."""
    from . import envs  # deferred: envs has no need to exist for pure-VAE use

    if not n_traj >= 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj!r}")
    distinct, order = RowTable(), []
    for i in range(n_traj):
        state, obs = envs.reset(spec, seed=spawn_seed(seed, "vae-corpus", i))
        rng = spawn_rng(seed, "vae-corpus-actions", i)
        order.append(distinct.add(obs))
        while not state.done:
            res = envs.step(spec, state, int(rng.integers(spec.action_count)))
            order.append(distinct.add(res.observation))
    return Corpus(distinct.rows, np.array(order, dtype=np.int64))
