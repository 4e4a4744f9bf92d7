"""The array replay against the list replay it replaced.

``ListReplayBuffer``, ``list_replay_sample`` and ``list_her_augment`` are the
earlier list-of-Transition implementation, kept here as the reference: with
the same RNG states, ``harness.replay_batch`` must give the bytes of
``ArrayBatch.from_transitions(her_augment(replay_sample(...)))`` over it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from kickrl import agents, envs, harness
from kickrl.agents import ArrayBatch
from kickrl.demos import Transition
from kickrl.encoders import IdentityEncoder, new_vae
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


def assert_batches_equal(a: ArrayBatch, b: ArrayBatch) -> None:
    for name, values in vars(a).items():
        other = getattr(b, name)
        assert values.dtype == other.dtype, name
        assert np.array_equal(values, other), name


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
        arrays.push(tr)
        listed.push(tr)
        if i % 9 == 8:  # sample between pushes, as the loop does
            batch = harness.replay_batch(arrays, 32, rngs[0], encoder, her_extra, rngs[1])
            expected = ArrayBatch.from_transitions(
                list_her_augment(list_replay_sample(listed, 32, ref_rngs[0]), listed,
                                 her_extra, ref_rngs[1]), encoder)
            assert_batches_equal(batch, expected)
            assert len(batch) == 32 + her_extra
    assert list(arrays) == listed.transitions
    for rng, ref in zip(rngs, ref_rngs):
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("her_extra", [0, 16])
def test_list_functions_over_the_array_replay_match_the_list_replay(her_extra,
                                                                   room_spec) -> None:
    arrays, listed = harness.ReplayBuffer(40), ListReplayBuffer(40)
    for tr in grid_transitions(room_spec, 130, seed=8):
        arrays.push(tr)
        listed.push(tr)
    got = agents.her_augment(harness.replay_sample(arrays, 32, spawn_rng(1, "s")),
                             arrays, her_extra, spawn_rng(1, "h"))
    expected = list_her_augment(list_replay_sample(listed, 32, spawn_rng(1, "s")),
                                listed, her_extra, spawn_rng(1, "h"))
    assert got == expected
    assert [arrays[i] for i in range(len(arrays))] == listed.transitions
    assert arrays[-1] == listed.transitions[-1]
    with pytest.raises(IndexError):
        arrays[len(arrays)]


def test_her_augment_reads_single_rows(room_spec) -> None:
    class NoView(harness.ReplayBuffer):
        def __iter__(self):
            raise AssertionError("her_augment read the whole buffer")

    buffer = NoView(30)
    for tr in grid_transitions(room_spec, 30, seed=9):
        buffer.push(tr)
    assert len(agents.her_augment([], buffer, 16, spawn_rng(2, "h"))) == 16


def test_observation_table_stays_within_its_bound() -> None:
    capacity = 20
    bound = harness.TABLE_ROWS_PER_SLOT * capacity
    arrays, listed = harness.ReplayBuffer(capacity), ListReplayBuffer(capacity)
    for tr in continuous_transitions(5 * capacity, seed=10):
        arrays.push(tr)
        listed.push(tr)
        table = arrays.observations
        assert len(table) == len(table.rows) <= len(table._buf) <= bound
        assert arrays._obs_ids[:len(arrays)].max() < len(table)
    assert len(arrays.observations) < 5 * capacity  # compaction dropped dead rows
    assert list(arrays) == listed.transitions
    encoder = IdentityEncoder(5)
    assert_batches_equal(
        harness.replay_batch(arrays, 32, spawn_rng(3, "s"), encoder, 8, spawn_rng(3, "h")),
        ArrayBatch.from_transitions(
            list_her_augment(list_replay_sample(listed, 32, spawn_rng(3, "s")), listed, 8,
                             spawn_rng(3, "h")), encoder))


def test_grid_observations_are_stored_once(room_spec) -> None:
    buffer = harness.ReplayBuffer(1000)
    transitions = grid_transitions(room_spec, 1000, seed=11)
    for tr in transitions:
        buffer.push(tr)
    distinct = {tr.obs.tobytes() for tr in transitions} | {
        tr.next_obs.tobytes() for tr in transitions}
    assert len(buffer.observations) == len(buffer.observations.rows) == len(distinct)


def test_a_capacity_one_buffer_keeps_the_last_transition() -> None:
    buffer = harness.ReplayBuffer(1)
    transitions = continuous_transitions(9, seed=12)
    for tr in transitions:
        buffer.push(tr)
    assert list(buffer) == [transitions[-1]]
    assert len(buffer.observations._buf) <= harness.TABLE_ROWS_PER_SLOT
