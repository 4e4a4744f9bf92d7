from __future__ import annotations

import numpy as np
import pytest
import scipy.stats

from kickrl import envs
from kickrl.errors import ContractError
from kickrl.seeding import spawn_rng


# -- construction and validation -------------------------------------------------


def test_goal_on_wall_is_rejected() -> None:
    with pytest.raises(ValueError, match="wall"):
        envs.GridWorldSpec(
            kind="room-nav", width=4, height=4,
            walls=frozenset({(1, 1)}), goals=frozenset({(1, 1)}),
        )


def test_unreachable_goal_is_rejected() -> None:
    # wall off the goal column entirely
    walls = frozenset({(2, y) for y in range(3)})
    with pytest.raises(ValueError, match="cannot reach"):
        envs.GridWorldSpec(kind="room-nav", width=4, height=3,
                           walls=walls, goals=frozenset({(3, 1)}))


def test_four_rooms_partitions_into_four_rooms() -> None:
    spec = envs.make_four_rooms(doorway_seed=5)
    closed = {c for c in spec.free_cells()} - spec.doorways
    assert len(envs._components(closed)) == 4


def test_four_rooms_doorway_seeds_differ() -> None:
    assert envs.make_four_rooms(doorway_seed=0).doorways != \
        envs.make_four_rooms(doorway_seed=1).doorways


def test_collect_requires_items() -> None:
    with pytest.raises(ValueError, match="item"):
        envs.GridWorldSpec(kind="collect-grid", width=4, height=4)


def test_reward_mode_follows_the_kind() -> None:
    assert envs.make_collect().reward_mode == "collect"
    assert {make().reward_mode for make in (envs.make_room_nav, envs.make_four_rooms,
                                            envs.make_corridor)} == {"sparse-success"}
    with pytest.raises(TypeError, match="reward_mode"):
        envs.GridWorldSpec(kind="room-nav", width=4, height=4, goals=frozenset({(3, 3)}),
                           reward_mode="collect")


# -- reset ------------------------------------------------------------------------


def test_reset_is_deterministic(room_spec) -> None:
    s1, o1 = envs.reset(room_spec, 42)
    s2, o2 = envs.reset(room_spec, 42)
    assert s1.position == s2.position
    assert np.array_equal(o1, o2)


def test_reset_never_starts_on_wall_or_goal() -> None:
    spec = envs.make_four_rooms()
    for seed in range(200):
        state, _ = envs.reset(spec, seed)
        assert state.position not in spec.walls
        assert state.position not in spec.goals


def test_reset_restocks_items() -> None:
    spec = envs.make_collect()
    state, _ = envs.reset(spec, 0)
    state.items.clear()
    state, _ = envs.reset(spec, 0)
    assert state.items == set(spec.items)


def test_observation_length_matches_declared_dimension(room_spec) -> None:
    _, obs = envs.reset(room_spec, 3)
    assert obs.shape == (room_spec.obs_dim,)


def test_partial_view_observation_dimension() -> None:
    spec = envs.make_room_nav(view_radius=2)
    _, obs = envs.reset(spec, 0)
    assert obs.shape == (4 * 5 * 5,)
    assert spec.obs_dim == 100


# -- stepping ----------------------------------------------------------------------


def test_entering_goal_at_step_zero_pays_full_reward(room_spec) -> None:
    state, _ = envs.reset(room_spec, 0)
    state.position = (6, 7)  # goal sits at (7, 7)
    res = envs.step(room_spec, state, envs.RIGHT)
    assert res.reward == 1.0
    assert res.terminated and not res.truncated


def test_success_reward_decays_with_time(room_spec) -> None:
    state, _ = envs.reset(room_spec, 0)
    state.position = (6, 7)
    state.t = 30
    res = envs.step(room_spec, state, envs.RIGHT)
    assert res.reward == pytest.approx(1.0 - 0.2 * (30 / 60), abs=1e-15)


def test_sparse_episode_without_success_pays_zero(room_spec) -> None:
    state, _ = envs.reset(room_spec, 1)
    state.position = (0, 0)  # far corner; bounce against the wall
    total = 0.0
    steps = 0
    while not state.done:
        res = envs.step(room_spec, state, envs.UP)  # wall bounce forever
        total += res.reward
        steps += 1
    assert total == 0.0
    assert steps == room_spec.max_steps
    assert res.truncated and not res.terminated


def test_wall_bounce_keeps_position(room_spec) -> None:
    state, _ = envs.reset(room_spec, 2)
    state.position = (0, 0)
    envs.step(room_spec, state, envs.LEFT)
    assert state.position == (0, 0)


def test_step_after_done_is_a_contract_violation(room_spec) -> None:
    state, _ = envs.reset(room_spec, 3)
    state.done = True
    with pytest.raises(ContractError):
        envs.step(room_spec, state, envs.UP)


def test_hazard_cell_terminates_with_zero_reward() -> None:
    spec = envs.make_corridor()
    state, _ = envs.reset(spec, 5)
    state.position = (4, 1)
    res = envs.step(spec, state, envs.UP)  # row 0 is hazard
    assert res.terminated
    assert res.reward == 0.0


def test_corridor_reset_never_starts_on_hazard() -> None:
    spec = envs.make_corridor()
    for seed in range(50):
        state, _ = envs.reset(spec, seed)
        assert state.position not in spec.hazards


def test_collect_do_nothing_scores_minus_two() -> None:
    spec = envs.make_collect()
    state, _ = envs.reset(spec, 0)
    total = 0.0
    while not state.done:
        # wall bounce in a corner so nothing is ever picked up
        state.position = (0, 0) if (0, 0) not in state.items else (1, 0)
        res = envs.step(spec, state, envs.LEFT)
        total += res.reward
    assert total == pytest.approx(-2.0, abs=1e-12)
    assert res.truncated


def test_pickup_collects_item_and_pays() -> None:
    spec = envs.make_collect()
    state, _ = envs.reset(spec, 1)
    item = sorted(state.items)[0]
    state.position = item
    res = envs.step(spec, state, envs.PICKUP)
    assert res.reward == pytest.approx(1.0 - 2.0 / spec.max_steps, abs=1e-15)
    assert item not in state.items


def test_pickup_rejected_outside_collect_mode(room_spec) -> None:
    state, _ = envs.reset(room_spec, 0)
    with pytest.raises(ValueError):
        envs.step(room_spec, state, envs.PICKUP)


def test_success_at_final_step_terminates_not_truncates() -> None:
    spec = envs.make_room_nav()
    state, _ = envs.reset(spec, 0)
    state.position = (6, 7)
    state.t = spec.max_steps - 1
    res = envs.step(spec, state, envs.RIGHT)
    assert res.terminated and not res.truncated


def test_transitions_are_deterministic_given_state_and_action(room_spec) -> None:
    s1, _ = envs.reset(room_spec, 7)
    s2, _ = envs.reset(room_spec, 7)
    for action in (envs.UP, envs.LEFT, envs.DOWN, envs.RIGHT):
        r1 = envs.step(room_spec, s1, action)
        r2 = envs.step(room_spec, s2, action)
        assert s1.position == s2.position
        assert r1.reward == r2.reward
        assert np.array_equal(r1.observation, r2.observation)


def test_sparse_reward_only_on_terminal_success(room_spec) -> None:
    # random rollouts: every nonzero reward is the final transition of a
    # successful episode
    for seed in range(30):
        state, _ = envs.reset(room_spec, seed)
        rng = spawn_rng(seed, "walk")
        rewards = []
        last = None
        while not state.done:
            last = envs.step(room_spec, state, int(rng.integers(4)))
            rewards.append(last.reward)
        assert all(r == 0.0 for r in rewards[:-1])
        if rewards[-1] != 0.0:
            assert last.terminated


def test_full_observation_encodes_agent_and_goal_one_hot(room_spec) -> None:
    state, obs = envs.reset(room_spec, 6)
    cells = room_spec.width * room_spec.height
    agent_block, goal_block = obs[:cells], obs[cells:]
    assert agent_block.sum() == 1.0
    assert agent_block[room_spec.cell_index(state.position)] == 1.0
    goal = next(iter(room_spec.goals))
    assert goal_block.sum() == 1.0
    assert goal_block[room_spec.cell_index(goal)] == 1.0


def test_collect_observation_tracks_remaining_items() -> None:
    spec = envs.make_collect()
    state, obs = envs.reset(spec, 3)
    cells = spec.width * spec.height
    assert obs[2 * cells:].sum() == len(spec.items)
    item = sorted(state.items)[0]
    state.position = item
    res = envs.step(spec, state, envs.PICKUP)
    assert res.observation[2 * cells:].sum() == len(spec.items) - 1
    assert res.observation[2 * cells + spec.cell_index(item)] == 0.0


# -- scripted expert -----------------------------------------------------------------


def test_noiseless_expert_walks_shortest_paths(room_spec) -> None:
    goal = next(iter(room_spec.goals))
    for seed in range(8):
        state, _ = envs.reset(room_spec, seed)
        manhattan = abs(state.position[0] - goal[0]) + abs(state.position[1] - goal[1])
        rng = spawn_rng(seed, "expert")
        steps = 0
        while not state.done:
            envs.step(room_spec, state,
                      envs.expert_action(room_spec, state, 0.0, rng))
            steps += 1
        assert steps == manhattan  # breadth-first oracle: empty room = Manhattan


def test_fully_noisy_expert_is_uniform(room_spec) -> None:
    state, _ = envs.reset(room_spec, 0)
    rng = spawn_rng(0, "uniform")
    draws = [envs.expert_action(room_spec, state, 1.0, rng) for _ in range(10_000)]
    counts = np.bincount(draws, minlength=room_spec.action_count)
    assert scipy.stats.chisquare(counts).pvalue > 0.01


def test_expert_picks_up_when_standing_on_item() -> None:
    spec = envs.make_collect()
    state, _ = envs.reset(spec, 2)
    state.position = sorted(state.items)[0]
    action = envs.expert_action(spec, state, 0.0, spawn_rng(0, "e"))
    assert action == envs.PICKUP


def test_expert_avoids_hazards_in_the_corridor() -> None:
    spec = envs.make_corridor()
    for seed in range(10):
        state, _ = envs.reset(spec, seed)
        rng = spawn_rng(seed, "c")
        last = None
        while not state.done:
            last = envs.step(spec, state, envs.expert_action(spec, state, 0.0, rng))
        assert last.terminated and last.reward > 0.0


def test_expert_collects_every_item() -> None:
    spec = envs.make_collect()
    state, _ = envs.reset(spec, 4)
    rng = spawn_rng(4, "collect")
    total = 0.0
    while not state.done:
        total += envs.step(spec, state,
                           envs.expert_action(spec, state, 0.0, rng)).reward
    assert not state.items
    assert total == pytest.approx(len(spec.items) - 2.0, abs=1e-9)


# -- success convention ----------------------------------------------------------------


def test_success_requires_positive_terminal_reward() -> None:
    spec = envs.make_corridor()
    assert envs.episode_success(spec, terminated=True, last_reward=0.9,
                                episode_return=0.9)
    assert not envs.episode_success(spec, terminated=True, last_reward=0.0,
                                    episode_return=0.0)  # hazard death
    assert not envs.episode_success(spec, terminated=False, last_reward=0.0,
                                    episode_return=0.0)


def test_collect_success_is_positive_return() -> None:
    spec = envs.make_collect()
    assert envs.episode_success(spec, False, -0.025, 0.95)
    assert not envs.episode_success(spec, False, -0.025, -2.0)
