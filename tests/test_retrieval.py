from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kickrl import retrieval
from kickrl.encoders import IdentityEncoder, StandardizeEncoder, fit_standardizer
from kickrl.errors import ShapeError


def random_index(seed: int, n: int = 200, dim: int = 8, actions: int = 4) -> retrieval.LatentIndex:
    rng = np.random.default_rng(seed)
    return retrieval.LatentIndex(
        latents=rng.standard_normal((n, dim)),
        actions=rng.integers(0, actions, size=n),
        rewards=rng.random(n),
        provenance=[(0, i) for i in range(n)],
        encoder_id="identity:test",
        env_id="test-env",
        action_count=actions,
    )


def knn_one(index: retrieval.LatentIndex, query: np.ndarray, k: int):
    """(indices, distances) of one query: row 0 of knn_batch."""
    indices, distances = retrieval.knn_batch(index, np.asarray(query)[None, :], k)
    return indices[0], distances[0]


def brute_force(latents: np.ndarray, query: np.ndarray, k: int):
    d2 = np.sum((latents - query) ** 2, axis=1)
    order = sorted(range(len(latents)), key=lambda i: (d2[i], i))[:k]
    return order, d2[order]


# -- index construction ------------------------------------------------------------


def test_identity_encoder_index_reproduces_observations(room_store) -> None:
    index = retrieval.build_index(room_store, IdentityEncoder(room_store.obs_dim))
    stacked = np.stack([tr.obs for tr in room_store.transitions()])
    assert np.array_equal(index.latents, stacked)
    assert len(index) == room_store.total_transitions
    assert index.env_id == room_store.env_id


def test_index_rebuild_is_bitwise_identical(room_store) -> None:
    enc = IdentityEncoder(room_store.obs_dim)
    a = retrieval.build_index(room_store, enc)
    b = retrieval.build_index(room_store, enc)
    assert np.array_equal(a.latents, b.latents)
    assert np.array_equal(a.actions, b.actions)
    assert a.provenance == b.provenance


def test_index_records_encoder_identity(room_store) -> None:
    enc = StandardizeEncoder(np.zeros(room_store.obs_dim), np.ones(room_store.obs_dim))
    index = retrieval.build_index(room_store, enc)
    assert index.encoder_id == enc.encoder_id


def test_index_rejects_mismatched_encoder(room_store) -> None:
    with pytest.raises(ShapeError):
        retrieval.build_index(room_store, IdentityEncoder(room_store.obs_dim + 1))


def test_misaligned_index_arrays_are_rejected() -> None:
    with pytest.raises(ShapeError):
        retrieval.LatentIndex(np.zeros((3, 2)), np.zeros(2), np.zeros(3),
                              [(0, 0)] * 3, "e", "env", 4)


# -- knn ------------------------------------------------------------------------------


def test_knn_hand_geometry() -> None:
    index = retrieval.LatentIndex(
        np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]]),
        np.array([0, 1, 2]), np.zeros(3), [(0, i) for i in range(3)],
        "e", "env", 3)
    idx, dist = knn_one(index, np.array([0.9, 0.0]), 2)
    assert list(idx) == [1, 0]
    assert dist[0] == pytest.approx(0.01)


def test_knn_exact_match_returns_distance_zero() -> None:
    index = random_index(0)
    idx, dist = knn_one(index, index.latents[17], 1)
    assert idx[0] == 17
    assert dist[0] == 0.0


@pytest.mark.parametrize("k", [1, 4, 8, 32])
def test_knn_equals_brute_force_sort(k: int) -> None:
    for seed in range(10):
        index = random_index(seed, n=500, dim=6)
        query = np.random.default_rng(1000 + seed).standard_normal(6)
        idx, dist = knn_one(index, query, k)
        exp_idx, exp_d = brute_force(index.latents, query, k)
        assert list(idx) == exp_idx
        assert np.array_equal(dist, exp_d)


def test_knn_ties_break_toward_lowest_row_index() -> None:
    latents = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])  # rows 0 and 2 tie
    index = retrieval.LatentIndex(latents, np.array([0, 1, 2]), np.zeros(3),
                                  [(0, i) for i in range(3)], "e", "env", 3)
    idx, _ = knn_one(index, np.array([1.0, 0.0]), 3)
    assert list(idx) == [0, 2, 1]


def test_knn_clamps_k_to_index_size() -> None:
    index = random_index(3, n=5)
    idx, _ = knn_one(index, np.zeros(8), 32)
    assert len(idx) == 5


def test_knn_distances_non_decreasing_and_dominate_excluded() -> None:
    for seed in range(5):
        index = random_index(seed, n=100, dim=4)
        query = np.random.default_rng(seed).standard_normal(4)
        idx, dist = knn_one(index, query, 10)
        assert all(b >= a for a, b in zip(dist, dist[1:]))
        d2 = np.sum((index.latents - query) ** 2, axis=1)
        excluded = np.delete(d2, idx)
        assert dist[-1] <= excluded.min()


def test_knn_empty_index_is_an_error(room_store) -> None:
    import kickrl.demos as demos_mod

    empty_store = demos_mod.DemoStore(env_id="e", encoder_id="raw", obs_dim=4,
                                      action_count=2, trajectories=[])
    index = retrieval.build_index(empty_store, IdentityEncoder(4))
    with pytest.raises(RuntimeError, match="empty"):
        knn_one(index, np.zeros(4), 1)


def test_knn_batch_matches_single_queries_on_grid_latents(room_store) -> None:
    # grid observations are 0/1 vectors: every distance is an exact integer
    index = retrieval.build_index(room_store, IdentityEncoder(room_store.obs_dim))
    assert_batch_equals_brute_force(index, index.latents[::7][:20], 8)


# -- knn_batch on float latents -----------------------------------------------------------


def assert_batch_equals_brute_force(index: retrieval.LatentIndex, queries: np.ndarray,
                                    k: int) -> None:
    """Indices and distances exactly as a direct-form brute force, none negative."""
    got_idx, got_d = retrieval.knn_batch(index, queries, k)
    for row, query in enumerate(queries):
        exp_idx, exp_d = brute_force(index.latents, query, k)
        assert list(got_idx[row]) == exp_idx, f"query {row}"
        assert np.array_equal(got_d[row], exp_d), f"query {row}"
    assert np.all(got_d >= 0.0)


def store_queries(index: retrieval.LatentIndex, seed: int, n: int = 200) -> np.ndarray:
    """Stored latents (exact duplicates of index rows) plus perturbed ones."""
    rng = np.random.default_rng(seed)
    rows = index.latents[rng.integers(0, len(index), n)]
    nudged = rows[: n // 4] + 1e-3 * rng.standard_normal((n // 4, index.dim))
    return np.concatenate([rows, nudged])


def test_knn_batch_equals_brute_force_on_vae_latents(four_rooms_store, four_rooms_vae) -> None:
    index = retrieval.build_index(four_rooms_store, four_rooms_vae)
    assert len(index._distinct) < len(index)  # duplicated float rows
    assert_batch_equals_brute_force(index, store_queries(index, 0), 8)


@pytest.mark.parametrize("store_name", ["room_store", "four_rooms_store"])
def test_knn_batch_equals_brute_force_on_standardize_latents(store_name, request) -> None:
    store = request.getfixturevalue(store_name)
    observations = np.stack([tr.obs for tr in store.transitions()])
    index = retrieval.build_index(store, fit_standardizer(observations))
    assert_batch_equals_brute_force(index, store_queries(index, 1), 8)


@pytest.mark.parametrize("k", [1, 8, 32, 200])
def test_knn_batch_equals_brute_force_on_duplicated_float_rows(k: int) -> None:
    rng = np.random.default_rng(2)
    distinct = rng.standard_normal((10, 5)) * 3.7
    latents = distinct[rng.integers(0, 10, 200)]
    index = retrieval.LatentIndex(latents, rng.integers(0, 4, 200), np.zeros(200),
                                  [(0, i) for i in range(200)], "e", "env", 4)
    queries = np.concatenate([distinct, rng.standard_normal((20, 5))])
    assert_batch_equals_brute_force(index, queries, k)


def test_knn_batch_row_equals_the_query_alone_bitwise(four_rooms_store, four_rooms_vae) -> None:
    index = retrieval.build_index(four_rooms_store, four_rooms_vae)
    queries = np.random.default_rng(3).permutation(store_queries(index, 3))
    bi, bd = retrieval.knn_batch(index, queries, 8)
    for i in range(len(queries)):
        si, sd = retrieval.knn_batch(index, queries[i:i + 1], 8)
        assert np.array_equal(bi[i], si[0])
        assert np.array_equal(bd[i], sd[0])


def _direct_distance(u: np.ndarray, q: np.ndarray) -> float:
    """One row's squared distance in the direct form, as knn_batch computes it."""
    return float(np.square(u - q).sum())


_coords = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]) | st.floats(-4.0, 4.0)


@st.composite
def _small_indexes(draw) -> tuple[list, list]:
    """Up to 8 rows over up to 4 distinct latents of width 1-3, whose small
    coordinates put distinct latents at equal distances, and queries that
    include every distinct latent."""
    dim = draw(st.integers(1, 3))
    vectors = st.lists(_coords, min_size=dim, max_size=dim)
    distinct = draw(st.lists(vectors, min_size=1, max_size=4))
    which = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=8))
    return [distinct[i] for i in which], draw(st.lists(vectors, max_size=3)) + distinct


@settings(max_examples=150, deadline=None)
@example(case=([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]],  # A, B, B, A: equal
               [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0]]))               # distances interleave
@example(case=([[0.0], [-0.0], [0.0], [-0.0], [-0.0]], [[0.0], [-0.0], [1.0], [-2.0]]))
@given(case=_small_indexes())
def test_knn_batch_is_a_sort_by_distance_then_row(case) -> None:
    """For every k, knn_batch is the first k of a plain sorted((distance,
    row)), in indices and distance bits, and row i of a batch is the result of
    querying queries[i] alone."""
    latents, queries = np.array(case[0]), np.array(case[1])
    n = len(latents)
    index = retrieval.LatentIndex(latents, np.zeros(n, dtype=int), np.zeros(n),
                                  [(0, i) for i in range(n)], "e", "env", 1)
    expected = [sorted((_direct_distance(u, q), row) for row, u in enumerate(latents))
                for q in queries]
    for k in range(1, n + 1):
        got_idx, got_d = retrieval.knn_batch(index, queries, k)
        for i, query in enumerate(queries):
            assert got_idx[i].tolist() == [row for _, row in expected[i][:k]]
            assert got_d[i].tobytes() == np.array([d for d, _ in expected[i][:k]]).tobytes()
            alone_idx, alone_d = retrieval.knn_batch(index, query[None, :], k)
            assert np.array_equal(alone_idx[0], got_idx[i])
            assert alone_d[0].tobytes() == got_d[i].tobytes()


# -- posterior update --------------------------------------------------------------------


def test_posterior_update_adds_counts_exactly() -> None:
    belief = retrieval.DirichletBelief(np.array([1.0, 1.0, 1.0]))
    updated = retrieval.posterior_update(belief, np.array([2, 0, 1]))
    assert updated.alpha.tolist() == [3.0, 1.0, 2.0]


def test_posterior_mean_normalizes() -> None:
    belief = retrieval.DirichletBelief(np.array([3.0, 1.0, 2.0]))
    mean = belief.mean()
    assert mean.tolist() == [0.5, 1 / 6, 1 / 3]
    assert mean.sum() == pytest.approx(1.0, abs=1e-12)


def test_zero_counts_leave_belief_unchanged() -> None:
    belief = retrieval.DirichletBelief(np.array([0.4, 0.6]))
    assert retrieval.posterior_update(belief, np.zeros(2)).alpha.tolist() == [0.4, 0.6]


def test_negative_counts_are_rejected() -> None:
    with pytest.raises(ValueError):
        retrieval.posterior_update(retrieval.DirichletBelief(np.ones(2)),
                                   np.array([1, -1]))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30)
def test_posterior_update_commutes_with_count_addition(seed: int) -> None:
    rng = np.random.default_rng(seed)
    belief = retrieval.DirichletBelief(rng.random(4) + 0.1)
    c1 = rng.integers(0, 5, size=4)
    c2 = rng.integers(0, 5, size=4)
    sequential = retrieval.posterior_update(
        retrieval.posterior_update(belief, c1), c2)
    combined = retrieval.posterior_update(belief, c1 + c2)
    assert np.allclose(sequential.alpha, combined.alpha, atol=1e-12)


def test_non_positive_concentration_rejected() -> None:
    with pytest.raises(ValueError):
        retrieval.DirichletBelief(np.array([1.0, 0.0]))


# -- search policy: neighbour action counts over knn results ------------------------------
# kl-penalty's search policy is neighbor_action_counts over a row's k neighbours, / k.


def test_search_policy_counts_neighbor_actions() -> None:
    latents = np.array([[0.0], [0.01], [0.02], [0.03], [9.0]])
    index = retrieval.LatentIndex(latents, np.array([2, 2, 3, 2, 0]),
                                  np.zeros(5), [(0, i) for i in range(5)],
                                  "e", "env", 4)
    idx, _ = knn_one(index, np.array([0.0]), 4)
    counts = retrieval.neighbor_action_counts(index, idx[None, :])
    assert counts.tolist() == [[0, 0, 3, 1]]
    assert (counts / 4).tolist() == [[0.0, 0.0, 0.75, 0.25]]


def test_search_policy_unanimous_neighbors_are_one_hot() -> None:
    index = retrieval.LatentIndex(np.zeros((6, 2)), np.full(6, 1),
                                  np.zeros(6), [(0, i) for i in range(6)],
                                  "e", "env", 3)
    idx, _ = knn_one(index, np.zeros(2), 4)
    counts = retrieval.neighbor_action_counts(index, idx[None, :])
    assert (counts / 4).tolist() == [[0.0, 1.0, 0.0]]


def test_search_policy_sums_to_one_for_random_queries() -> None:
    index = random_index(8)
    queries = np.random.default_rng(0).standard_normal((20, 8))
    idx, _ = retrieval.knn_batch(index, queries, 8)
    counts = retrieval.neighbor_action_counts(index, idx)
    assert counts.shape == (20, 4)
    assert ((counts / 8).sum(axis=1) == 1.0).all()
    for row, neighbors in zip(counts, idx):  # row by row against a plain bincount
        assert row.tolist() == np.bincount(index.actions[neighbors], minlength=4).tolist()


def test_search_policy_with_k_equal_n_is_the_store_marginal() -> None:
    index = random_index(9, n=50)
    idx, _ = knn_one(index, np.zeros(8), 50)
    counts = retrieval.neighbor_action_counts(index, idx[None, :])
    assert counts[0].tolist() == np.bincount(index.actions, minlength=4).tolist()
