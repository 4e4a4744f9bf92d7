"""The array replay against the list replay it replaced.

``ListReplayBuffer``, ``list_replay_sample`` and ``list_her_augment`` are the
earlier list-of-Transition implementation, kept here as the reference: with
the same RNG states, ``harness.replay_batch`` must give the bytes of
``ArrayBatch.from_transitions(list_her_augment(list_replay_sample(...)))``
over it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from kickrl import envs, harness, retrieval
from kickrl.agents import AdversarialKickstartLearner, ArrayBatch, Hyperparams
from kickrl.demos import Transition
from kickrl.encoders import IdentityEncoder, new_vae
from kickrl.nets import forward_values
from kickrl.seeding import spawn_rng, spawn_seed


class ListReplayBuffer:
    """Fixed-capacity ring of transitions; oldest entries evicted first."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.transitions: list[Transition] = []
        self._cursor = 0

    def push(self, tr: Transition) -> None:
        if len(self.transitions) < self.capacity:
            self.transitions.append(tr)
        else:
            self.transitions[self._cursor] = tr
            self._cursor = (self._cursor + 1) % self.capacity

    def __len__(self) -> int:
        return len(self.transitions)


def list_replay_sample(buffer, batch_size, rng):
    idx = rng.integers(0, len(buffer), size=batch_size)
    return [buffer.transitions[int(i)] for i in idx]


def list_her_augment(batch, buffer, n_extra, rng):
    out = list(batch)
    for _ in range(n_extra):
        src = buffer.transitions[int(rng.integers(len(buffer)))]
        out.append(replace(src, reward=1.0, terminated=True, truncated=False))
    return out


def grid_transitions(spec, n: int, seed: int) -> list[Transition]:
    """n random-policy steps, as the training loop records them."""
    rng = np.random.default_rng(seed)
    out, state, obs, episode = [], None, None, 0
    for _ in range(n):
        if obs is None or state.done:
            state, obs = envs.reset(spec, spawn_seed(seed, "episode", episode))
            episode += 1
        action = int(rng.integers(spec.action_count))
        res = envs.step(spec, state, action)
        out.append(Transition(obs=obs, action=action, reward=res.reward,
                              next_obs=res.observation, terminated=res.terminated,
                              truncated=res.truncated, t=state.t - 1))
        obs = res.observation
    return out


def continuous_transitions(n: int, seed: int, dim: int = 5) -> list[Transition]:
    """Observations that never repeat; next_obs chains into the next obs."""
    rng = np.random.default_rng(seed)
    obs = rng.standard_normal(dim)
    out = []
    for i in range(n):
        nxt = rng.standard_normal(dim)
        out.append(Transition(obs=obs, action=int(rng.integers(4)),
                              reward=float(rng.standard_normal()), next_obs=nxt,
                              terminated=bool(i % 11 == 10), truncated=bool(i % 13 == 12),
                              t=i))
        obs = nxt
    return out


def push(buffer: harness.ReplayBuffer, tr: Transition) -> None:
    buffer.push(tr.obs, tr.action, tr.reward, tr.next_obs, tr.terminated, tr.truncated)


def assert_batch_holds(batch: ArrayBatch, transitions: list[Transition], encoder,
                       buffer: harness.ReplayBuffer) -> None:
    """``batch`` equals ``ArrayBatch.from_transitions(transitions, encoder)``
    bitwise, and its observation ids name the transitions' observations in
    ``buffer``'s table under its current numbering."""
    expected = ArrayBatch.from_transitions(transitions, encoder)
    for name, values in vars(expected).items():
        if values is None:  # the ids, which a batch from transitions lacks
            continue
        other = getattr(batch, name)
        assert values.dtype == other.dtype, name
        assert np.array_equal(values, other), name
    rows = buffer.observations.rows
    assert batch.generation is buffer.observations.generation
    assert np.array_equal(rows[batch.obs_ids], np.stack([tr.obs for tr in transitions]))
    assert np.array_equal(rows[batch.next_obs_ids], np.stack([tr.next_obs for tr in transitions]))


def assert_buffer_holds(buffer: harness.ReplayBuffer, transitions: list[Transition]) -> None:
    """Slot i of ``buffer`` holds ``transitions[i]``, and there are no more slots."""
    assert len(buffer) == len(transitions)
    encoder = IdentityEncoder(len(transitions[0].obs))
    assert_batch_holds(buffer.take(np.arange(len(buffer)), encoder), transitions, encoder,
                       buffer)


CASES = {
    "grid": lambda spec: (grid_transitions(spec, 180, seed=5), IdentityEncoder(spec.obs_dim)),
    "grid-vae": lambda spec: (grid_transitions(spec, 180, seed=6),
                              new_vae(spec.obs_dim, 4, hidden=(16,), seed=2)),
    "continuous": lambda spec: (continuous_transitions(180, seed=7), IdentityEncoder(5)),
}


@pytest.mark.parametrize("her_extra", [0, 16])
@pytest.mark.parametrize("capacity", [50, 500])  # 180 pushes overflow 50
@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_batch_equals_the_list_replay_bitwise(case, capacity, her_extra,
                                                     room_spec) -> None:
    transitions, encoder = CASES[case](room_spec)
    arrays, listed = harness.ReplayBuffer(capacity), ListReplayBuffer(capacity)
    rngs = [spawn_rng(capacity, "replay"), spawn_rng(capacity, "her")]
    ref_rngs = [spawn_rng(capacity, "replay"), spawn_rng(capacity, "her")]
    for i, tr in enumerate(transitions):
        push(arrays, tr)
        listed.push(tr)
        if i % 9 == 8:  # sample between pushes, as the loop does
            batch = harness.replay_batch(arrays, 32, rngs[0], encoder, her_extra, rngs[1])
            expected = list_her_augment(list_replay_sample(listed, 32, ref_rngs[0]), listed,
                                        her_extra, ref_rngs[1])
            assert_batch_holds(batch, expected, encoder, arrays)
            assert len(batch) == 32 + her_extra
    assert_buffer_holds(arrays, listed.transitions)
    for rng, ref in zip(rngs, ref_rngs):
        assert rng.bit_generator.state == ref.bit_generator.state


def test_observation_table_stays_within_its_bound() -> None:
    capacity = 20
    bound = harness.TABLE_ROWS_PER_SLOT * capacity
    arrays, listed = harness.ReplayBuffer(capacity), ListReplayBuffer(capacity)
    for tr in continuous_transitions(5 * capacity, seed=10):
        push(arrays, tr)
        listed.push(tr)
        table = arrays.observations
        assert len(table) == len(table.rows) <= len(table._buf) <= bound
        assert arrays._obs_ids[:len(arrays)].max() < len(table)
    assert len(arrays.observations) < 5 * capacity  # compaction dropped dead rows
    assert_buffer_holds(arrays, listed.transitions)
    encoder = IdentityEncoder(5)
    assert_batch_holds(
        harness.replay_batch(arrays, 32, spawn_rng(3, "s"), encoder, 8, spawn_rng(3, "h")),
        list_her_augment(list_replay_sample(listed, 32, spawn_rng(3, "s")), listed, 8,
                         spawn_rng(3, "h")), encoder, arrays)


def test_grid_observations_are_stored_once(room_spec) -> None:
    buffer = harness.ReplayBuffer(1000)
    transitions = grid_transitions(room_spec, 1000, seed=11)
    for tr in transitions:
        push(buffer, tr)
    distinct = {tr.obs.tobytes() for tr in transitions} | {
        tr.next_obs.tobytes() for tr in transitions}
    assert len(buffer.observations) == len(buffer.observations.rows) == len(distinct)


def test_a_capacity_one_buffer_keeps_the_last_transition() -> None:
    buffer = harness.ReplayBuffer(1)
    transitions = continuous_transitions(9, seed=12)
    for tr in transitions:
        push(buffer, tr)
    assert_buffer_holds(buffer, transitions[-1:])
    assert len(buffer.observations._buf) <= harness.TABLE_ROWS_PER_SLOT


@pytest.mark.parametrize("encoder", [IdentityEncoder(5), new_vae(5, 3, hidden=(8,), seed=4)],
                         ids=["identity", "vae"])
def test_ids_across_compactions_match_the_byte_keyed_and_fresh_oracles(encoder) -> None:
    """Observations that never repeat compact the table between batches, and
    compaction renumbers the ids under the memos.  Every batch still equals
    its list oracle; the id-keyed target values and neighbour rows equal a
    fresh forward and a fresh search; and a learner fed the batches trains bit
    for bit as a twin fed them without ids (byte keys, fresh searches)."""
    capacity, batch_size = 16, 8
    demo_obs = np.stack([tr.obs for tr in continuous_transitions(40, seed=14)])
    index = retrieval.LatentIndex(
        latents=encoder.encode_batch(demo_obs), actions=np.arange(40) % 4, rewards=np.zeros(40),
        provenance=[(0, i) for i in range(40)], encoder_id="test", env_id="toy", action_count=4)
    hp = Hyperparams(lam=1.0, k_neighbors=3, hidden=(8,), batch_size=batch_size)
    by_id, by_bytes = (AdversarialKickstartLearner(encoder.latent_dim, 4, hp, 0, index)
                       for _ in range(2))
    arrays, listed = harness.ReplayBuffer(capacity), ListReplayBuffer(capacity)
    rng, ref_rng = spawn_rng(1, "replay"), spawn_rng(1, "replay")
    generations = []  # kept alive, so that their ids stay distinct
    for i, tr in enumerate(continuous_transitions(12 * capacity, seed=13)):
        push(arrays, tr)
        listed.push(tr)
        for _ in range(3 if i % 5 == 4 else 0):  # repeated draws, so the memos hit too
            batch = harness.replay_batch(arrays, batch_size, rng, encoder)
            assert_batch_holds(batch, list_replay_sample(listed, batch_size, ref_rng), encoder,
                               arrays)
            generations.append(batch.generation)
            assert np.array_equal(by_id._neighbors(batch),
                                  retrieval.knn_batch(index, batch.latents, 3)[0])
            assert np.array_equal(
                by_id.target_values(batch.next_latents, batch.next_obs_ids, batch.generation),
                forward_values(by_id.q_target, batch.next_latents))
            bare = replace(batch, obs_ids=None, next_obs_ids=None, generation=None)
            assert by_id.train_batch(batch) == by_bytes.train_batch(bare)
        if i % 40 == 39:
            by_id.update_targets()
            by_bytes.update_targets()
    assert len({id(g) for g in generations}) > 3  # the table was compacted between batches
    for p, q in zip(by_id.q.param_arrays(), by_bytes.q.param_arrays()):
        assert np.array_equal(p, q)
