"""Exact latent similarity search over the demo store.

Search is exact and exhaustive.  A demo store repeats its states many times
(room-nav: 1,557 rows holding 63 distinct latents), so the index keeps its
distinct latents and a row-to-distinct map, and a query measures its distance
to each distinct latent once, in the direct form sum((u - q)^2).  Rows that
share a latent therefore share one distance, distances are never negative,
and each query's result depends on that query alone, not on the rest of its
batch.  Every row takes its latent's distance, and one stable sort of the rows
by distance gives the k nearest in ascending distance, ties to the lowest row.
agents builds the adversarial estimate on the neighbours
(AdversarialKickstartLearner.z_for_batch) and kl-penalty's search policy on
their stored actions (neighbor_action_counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .demos import DemoStore
from .encoders import Encoder
from .errors import ShapeError
from .nets import RowTable


@dataclass
class LatentIndex:
    latents: np.ndarray  # (N, d)
    actions: np.ndarray  # (N,)
    rewards: np.ndarray  # (N,) diagnostics only
    provenance: list[tuple[int, int]]  # (trajectory, t) per row
    encoder_id: str
    env_id: str
    action_count: int
    _distinct: np.ndarray = field(init=False, repr=False)  # (M, d) distinct latents
    _row_distinct: np.ndarray = field(init=False, repr=False)  # (N,) row -> distinct latent

    def __post_init__(self) -> None:
        self.latents = np.asarray(self.latents, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.int64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        n = self.latents.shape[0]
        if self.latents.ndim != 2:
            raise ShapeError("latents must be a 2-D matrix")
        if not (len(self.actions) == len(self.rewards) == len(self.provenance) == n):
            raise ShapeError("index arrays are not aligned")
        if n and not np.all(np.isfinite(self.latents)):
            raise ValueError("latents contain non-finite values")
        table = RowTable()
        self._row_distinct = table.add_all(self.latents)
        self._distinct = table.rows

    def __len__(self) -> int:
        return self.latents.shape[0]

    @property
    def dim(self) -> int:
        return self.latents.shape[1]


def build_index(store: DemoStore, encoder: Encoder) -> LatentIndex:
    """Encode every stored transition, preserving store order."""
    rows, actions, rewards, provenance = [], [], [], []
    for ti, traj in enumerate(store.trajectories):
        for tr in traj.transitions:
            rows.append(tr.obs)
            actions.append(tr.action)
            rewards.append(tr.reward)
            provenance.append((ti, tr.t))
    if rows:
        obs = np.asarray(rows, dtype=np.float64)
        latents = encoder.encode_batch(obs)
    else:
        latents = np.zeros((0, getattr(encoder, "latent_dim", store.obs_dim)))
    return LatentIndex(
        latents=latents,
        actions=np.asarray(actions, dtype=np.int64),
        rewards=np.asarray(rewards, dtype=np.float64),
        provenance=provenance,
        encoder_id=encoder.encoder_id,
        env_id=store.env_id,
        action_count=store.action_count,
    )


# Bound on the queries x distinct latents x dim (and queries x rows) elements
# one pass of knn_batch holds, so its temporaries do not grow with the batch.
_CHUNK_ELEMENTS = 1 << 16


def _distinct_distances(index: LatentIndex, queries: np.ndarray) -> np.ndarray:
    """(B, M) squared distances from each query to each distinct latent, direct form."""
    diff = index._distinct[None, :, :] - queries[:, None, :]
    return np.square(diff, out=diff).sum(axis=2)


def knn_batch(index: LatentIndex, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k-nearest rows for each query: (B, k) indices and distances.

    Distances are squared L2 in the direct form, the order is a stable sort
    of the rows by distance (ties to the lowest row), and row i of the result
    equals the result of querying queries[i] alone, bit for bit.  Queries go
    through in chunks of bounded size.
    """
    if len(index) == 0:
        raise RuntimeError("cannot query an empty index")
    if k < 1:
        raise ValueError("k must be >= 1")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != index.dim:
        raise ShapeError(f"query shape {queries.shape} incompatible with index dim {index.dim}")
    k = min(k, len(index))
    indices = np.empty((len(queries), k), dtype=np.int64)
    distances = np.empty((len(queries), k))
    per_query = max(index._distinct.size, len(index))
    chunk = max(1, _CHUNK_ELEMENTS // per_query)
    for lo in range(0, len(queries), chunk):
        dist = _distinct_distances(index, queries[lo:lo + chunk])[:, index._row_distinct]
        rows = np.argsort(dist, axis=1, kind="stable")[:, :k]
        indices[lo:lo + chunk] = rows
        distances[lo:lo + chunk] = np.take_along_axis(dist, rows, axis=1)
    return indices, distances


def neighbor_action_counts(index: LatentIndex, neighbor_idx: np.ndarray) -> np.ndarray:
    """(B, K) counts of each stored action among each row's (B, k) neighbours."""
    b, n_actions = neighbor_idx.shape[0], index.action_count
    flat = (np.arange(b)[:, None] * n_actions + index.actions[neighbor_idx]).ravel()
    return np.bincount(flat, minlength=b * n_actions).reshape(b, n_actions)


@dataclass
class DirichletBelief:
    alpha: np.ndarray

    def __post_init__(self) -> None:
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.alpha.ndim != 1:
            raise ShapeError("alpha must be a vector")
        if np.any(self.alpha <= 0.0):
            raise ValueError("all concentration parameters must be > 0")

    @property
    def action_count(self) -> int:
        return self.alpha.shape[0]

    def mean(self) -> np.ndarray:
        return self.alpha / self.alpha.sum()


def posterior_update(belief: DirichletBelief, counts: np.ndarray) -> DirichletBelief:
    """Add observed action counts to the concentration vector."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != belief.alpha.shape:
        raise ShapeError(f"counts shape {counts.shape} != alpha shape {belief.alpha.shape}")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    return DirichletBelief(belief.alpha + counts)
