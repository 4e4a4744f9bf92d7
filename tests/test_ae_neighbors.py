"""cdql-ae's memoised neighbour search against a fresh search on every batch,
and whole runs against an oracle learner that searches the way the batched
path first did: gemm-expanded distances over every row, then a stable sort."""

from __future__ import annotations

import os

import numpy as np
import pytest

from kickrl import agents, demos, encoders, harness, retrieval


class GemmArgsortLearner(agents.AdversarialKickstartLearner):
    """Oracle: no memo; |q|^2 - 2 q.x + |x|^2 to every row, then a stable argsort."""

    calls = 0

    def _neighbors(self, batch: agents.ArrayBatch) -> np.ndarray:
        type(self).calls += 1
        rows, queries = self.index.latents, batch.latents
        d2 = (np.einsum("ij,ij->i", queries, queries)[:, None] - 2.0 * (queries @ rows.T)
              + np.einsum("ij,ij->i", rows, rows)[None, :])
        return np.argsort(d2, axis=1, kind="stable")[:, :self.hp.k_neighbors]


def ae_config(tmp_path, name: str, env_name: str, demo_path: str, ae_mode: str,
              encoder_spec: str = "identity") -> harness.RunConfig:
    hp = agents.scale_step_budgets(agents.defaults_for("cdql-ae"), 1500)
    hp.ae_mode = ae_mode
    return harness.RunConfig(
        env_name=env_name, agent="cdql-ae", total_steps=1500, seed=5,
        out_dir=str(tmp_path / name), hp=hp, demo_path=demo_path,
        encoder_spec=encoder_spec, eval_cadence=500, eval_episodes=2)


def metrics_bytes(record: harness.RunRecord) -> bytes:
    with open(os.path.join(record.config["out_dir"], "metrics.csv"), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("ae_mode", agents.AE_MODES)
def test_runs_match_the_gemm_argsort_oracle_bitwise(ae_mode, tmp_path, monkeypatch,
                                                    room_store_path) -> None:
    real = harness.train_run(ae_config(tmp_path, "real", "room-nav", room_store_path, ae_mode))
    monkeypatch.setitem(agents.LEARNERS, "cdql-ae", GemmArgsortLearner)
    monkeypatch.setattr(GemmArgsortLearner, "calls", 0)
    oracle = harness.train_run(ae_config(tmp_path, "oracle", "room-nav", room_store_path, ae_mode))
    assert real.grad_steps > 0
    assert GemmArgsortLearner.calls > 0  # the oracle, not the memoised search, ran
    assert metrics_bytes(real) == metrics_bytes(oracle)


def test_memoised_neighbors_equal_a_fresh_search_on_vae_latents(
        tmp_path, monkeypatch, four_rooms_store, four_rooms_vae) -> None:
    demo_path = str(tmp_path / "four-rooms.demos.jsonl")
    vae_path = str(tmp_path / "vae.jsonl")
    demos.save_demos(four_rooms_store, demo_path)
    encoders.save_encoder(four_rooms_vae, vae_path)
    memoised = agents.AdversarialKickstartLearner._neighbors
    learners, batches = set(), []

    def checked(self, batch):
        got = memoised(self, batch)
        fresh, _ = retrieval.knn_batch(self.index, batch.latents, self.hp.k_neighbors)
        assert np.array_equal(got, fresh)
        learners.add(self)
        batches.append(len(batch))
        return got

    monkeypatch.setattr(agents.AdversarialKickstartLearner, "_neighbors", checked)
    harness.train_run(ae_config(tmp_path, "vae", "four-rooms-nav", demo_path,
                                "target-shaping", encoder_spec=f"vae:{vae_path}"))
    [learner] = learners
    assert len(batches) > 50
    # far fewer observations searched than rows queried: the memo is in use
    assert 0 < np.count_nonzero(learner._neighbor_rows[:, 0] >= 0) < sum(batches) // 4
