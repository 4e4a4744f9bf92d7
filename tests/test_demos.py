from __future__ import annotations

import hashlib
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kickrl import demos, envs
from kickrl.demos import DemoStore, Trajectory, Transition
from kickrl.errors import FormatError


def _quiet_generate(spec, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", demos.DemoBudgetWarning)
        return demos.generate_demos(spec, **kwargs)


# -- generation ---------------------------------------------------------------


def test_exact_trajectory_count(room_spec) -> None:
    store = _quiet_generate(room_spec, expert_noise=0.1, n_traj=3, seed=0)
    assert len(store.trajectories) == 3


def test_generation_is_bitwise_deterministic(room_spec) -> None:
    a = _quiet_generate(room_spec, expert_noise=0.1, n_traj=5, seed=9)
    b = _quiet_generate(room_spec, expert_noise=0.1, n_traj=5, seed=9)
    assert a == b


def test_twenty_trajectories_of_seventyfive_steps_hit_the_budget() -> None:
    # collect episodes always run to the step limit, so 20 x 75 = 1500 exactly
    spec = envs.make_collect(max_steps=75)
    store = demos.generate_demos(spec, expert_noise=0.1, n_traj=20, seed=1)
    assert store.total_transitions == 1500


def test_budget_warning_fires_outside_half_to_double(room_spec) -> None:
    with pytest.warns(demos.DemoBudgetWarning):
        demos.generate_demos(room_spec, expert_noise=0.1, n_traj=2, seed=0)


def test_trajectory_time_indices_and_terminal_flags(room_spec) -> None:
    store = _quiet_generate(room_spec, expert_noise=0.2, n_traj=4, seed=2)
    for traj in store.trajectories:
        assert [tr.t for tr in traj.transitions] == list(range(len(traj)))
        for tr in traj.transitions[:-1]:
            assert not tr.terminated and not tr.truncated
        last = traj.transitions[-1]
        assert last.terminated or last.truncated


def test_store_records_env_and_dims(room_spec) -> None:
    store = _quiet_generate(room_spec, n_traj=2, seed=0)
    assert store.env_id == room_spec.env_id
    assert store.obs_dim == room_spec.obs_dim
    assert store.action_count == room_spec.action_count
    assert store.encoder_id == "raw"


# -- persistence -----------------------------------------------------------------


@pytest.mark.formats
def test_save_load_round_trip(room_store, tmp_path) -> None:
    path = str(tmp_path / "a.demos.jsonl")
    demos.save_demos(room_store, path)
    assert demos.load_demos(path) == room_store


def test_loaded_store_is_self_describing(room_store_path) -> None:
    store = demos.load_demos(room_store_path)
    assert store.obs_dim > 0
    assert store.action_count == 4
    assert store.total_transitions == sum(len(t) for t in store.trajectories)


@pytest.mark.formats
def test_empty_store_round_trips(tmp_path) -> None:
    empty = demos.DemoStore(env_id="none", encoder_id="raw", obs_dim=4,
                            action_count=2, trajectories=[])
    path = str(tmp_path / "empty.demos.jsonl")
    demos.save_demos(empty, path)
    with open(path, encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == 1  # header only
    assert demos.load_demos(path) == empty


@pytest.mark.formats
def test_truncated_file_is_a_format_error(room_store, tmp_path) -> None:
    path = str(tmp_path / "cut.demos.jsonl")
    demos.save_demos(room_store, path)
    lines = open(path, encoding="utf-8").read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[: len(lines) // 2]) + "\n")
    with pytest.raises(FormatError, match="claims"):
        demos.load_demos(path)


@pytest.mark.formats
def test_missing_field_error_names_the_line(room_store, tmp_path) -> None:
    path = str(tmp_path / "broken.demos.jsonl")
    demos.save_demos(room_store, path)
    lines = open(path, encoding="utf-8").read().splitlines()
    row = json.loads(lines[3])
    del row["reward"]
    lines[3] = json.dumps(row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="line 4"):
        demos.load_demos(path)


@pytest.mark.formats
def test_extra_field_is_a_format_error(room_store, tmp_path) -> None:
    path = str(tmp_path / "extra.demos.jsonl")
    demos.save_demos(room_store, path)
    lines = open(path, encoding="utf-8").read().splitlines()
    row = json.loads(lines[1])
    row["mystery"] = 1
    lines[1] = json.dumps(row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="line 2"):
        demos.load_demos(path)


@pytest.mark.formats
def test_version_mismatch_is_rejected(room_store, tmp_path) -> None:
    path = str(tmp_path / "version.demos.jsonl")
    demos.save_demos(room_store, path)
    lines = open(path, encoding="utf-8").read().splitlines()
    header = json.loads(lines[0])
    header["format_version"] = 99
    lines[0] = json.dumps(header)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="format_version"):
        demos.load_demos(path)


@pytest.mark.formats
def test_dimension_inconsistency_is_rejected(room_store, tmp_path) -> None:
    path = str(tmp_path / "dims.demos.jsonl")
    demos.save_demos(room_store, path)
    lines = open(path, encoding="utf-8").read().splitlines()
    row = json.loads(lines[2])
    row["obs"] = row["obs"][:-1]
    lines[2] = json.dumps(row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="line 3"):
        demos.load_demos(path)


def _traj_as_string(row):
    row["traj"] = "x"


def _string_in_obs(row):
    row["obs"][1] = "a"


def _nested_list_in_obs(row):
    row["obs"][1] = [0.0, 1.0]


def _nan_in_obs(row):
    row["obs"][1] = float("nan")


def _infinity_in_next_obs(row):
    row["next_obs"][0] = float("inf")


def _nan_reward(row):
    row["reward"] = float("nan")


def _negative_infinity_reward(row):
    row["reward"] = -float("inf")


@pytest.mark.formats
@pytest.mark.parametrize("corrupt", [_traj_as_string, _string_in_obs, _nested_list_in_obs,
                                     _nan_in_obs, _infinity_in_next_obs, _nan_reward,
                                     _negative_infinity_reward])
def test_bad_field_value_is_a_format_error_naming_the_line(room_store, tmp_path,
                                                           corrupt) -> None:
    path = str(tmp_path / "value.demos.jsonl")
    demos.save_demos(room_store, path)
    lines = open(path, encoding="utf-8").read().splitlines()
    row = json.loads(lines[4])
    corrupt(row)
    lines[4] = json.dumps(row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="^line 5: "):
        demos.load_demos(path)


@pytest.mark.formats
def test_action_out_of_bounds_is_rejected(room_store, tmp_path) -> None:
    path = str(tmp_path / "act.demos.jsonl")
    demos.save_demos(room_store, path)
    lines = open(path, encoding="utf-8").read().splitlines()
    row = json.loads(lines[1])
    row["action"] = 99
    lines[1] = json.dumps(row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="action"):
        demos.load_demos(path)


def _rewrite_line(room_store, tmp_path, index: int, field: str, value) -> str:
    path = str(tmp_path / "mutated.demos.jsonl")
    demos.save_demos(room_store, path)
    lines = open(path, encoding="utf-8").read().splitlines()
    row = json.loads(lines[index])
    row[field] = value
    lines[index] = json.dumps(row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


@pytest.mark.formats
@pytest.mark.parametrize("field, value, message", [
    ("t", 7, "^line 4: trajectory 0 has 5 transitions, so t 7 is outside 0..4$"),
    ("t", -1, "^line 4: trajectory 0 has 5 transitions, so t -1 is outside 0..4$"),
    ("t", 3, "^line 5: trajectory 0 repeats t 3 of line 4$"),
    ("terminated", True, "^line 4: trajectory 0: non-final transition flagged terminal$"),
    ("truncated", True, "^line 4: trajectory 0: non-final transition flagged terminal$"),
])
def test_trajectory_order_errors_name_the_line(room_store, tmp_path, field, value,
                                               message) -> None:
    assert len(room_store.trajectories[0]) == 5  # lines 2-6
    with pytest.raises(FormatError, match=message):
        demos.load_demos(_rewrite_line(room_store, tmp_path, 3, field, value))


@pytest.mark.formats
def test_a_reward_beyond_the_float_range_is_a_format_error(room_store, tmp_path) -> None:
    with pytest.raises(FormatError, match="^line 4: reward "):
        demos.load_demos(_rewrite_line(room_store, tmp_path, 3, "reward", 10**400))


# -- properties: round trips and single-field mutations ---------------------------

EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, float(2**60), -float(2**60)]
_finite = st.sampled_from(EDGE_VALUES) | st.floats(allow_nan=False, allow_infinity=False)
_property_settings = settings(max_examples=300, deadline=None,
                              suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def _stores(draw) -> DemoStore:
    """Up to three trajectories of up to four transitions over observations
    of width 1-4, with edge values in the observations and rewards."""
    dim = draw(st.integers(1, 4))
    rows = st.lists(_finite, min_size=dim, max_size=dim).map(np.array)
    trajectories = []
    for length in draw(st.lists(st.integers(1, 4), max_size=3)):
        observations = draw(st.lists(rows, min_size=length + 1, max_size=length + 1))
        last = draw(st.tuples(st.booleans(), st.booleans()))
        transitions = [Transition(
            obs=observations[t], action=draw(st.integers(0, 2)), reward=draw(_finite),
            next_obs=observations[t + 1], terminated=t == length - 1 and last[0],
            truncated=t == length - 1 and last[1], t=t) for t in range(length)]
        trajectories.append(Trajectory(transitions, sum(tr.reward for tr in transitions)))
    return DemoStore(env_id="edges", encoder_id="raw", obs_dim=dim, action_count=3,
                     trajectories=trajectories)


@pytest.mark.formats
@_property_settings
@given(store=_stores())
def test_stores_with_edge_values_load_back_bit_exactly(tmp_path, store) -> None:
    path = str(tmp_path / "edges.demos.jsonl")
    demos.save_demos(store, path)
    loaded = demos.load_demos(path)
    assert loaded == store
    pairs = list(zip(store.transitions(), loaded.transitions(), strict=True))
    for saved, back in pairs:
        assert back.obs.tobytes() == saved.obs.tobytes()
        assert back.next_obs.tobytes() == saved.next_obs.tobytes()
        assert np.float64(back.reward).tobytes() == np.float64(saved.reward).tobytes()


_numbers = st.sampled_from([-1, 7, 2**60, 10**400, -(10**400)]) | st.integers() | st.floats()
_any_value = st.one_of(_numbers, st.none(), st.booleans(), st.text(max_size=3),
                       st.lists(_numbers, max_size=5),
                       st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@pytest.mark.formats
@_property_settings
@given(data=st.data())
def test_a_single_field_mutation_loads_or_is_a_format_error_naming_a_line(tmp_path,
                                                                         data) -> None:
    """One field of one line of a saved store is replaced, deleted, added or,
    in a list, has one element replaced.  Loading either succeeds or raises a
    FormatError whose message starts with the line it names."""
    path = tmp_path / "mutated.demos.jsonl"
    demos.save_demos(_edge_store(), str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    index = data.draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[index])
    key = data.draw(st.sampled_from(sorted(record)) | st.text(max_size=3))
    how = data.draw(st.sampled_from(["replace", "delete", "element"]))
    if how == "delete":
        record.pop(key, None)
    elif how == "element" and isinstance(record.get(key), list):
        record[key][data.draw(st.integers(0, len(record[key]) - 1))] = data.draw(_any_value)
    else:
        record[key] = data.draw(_any_value)
    lines[index] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        demos.load_demos(str(path))
    except FormatError as exc:
        assert re.match(r"line \d+: ", str(exc)), str(exc)


@pytest.mark.formats
def test_rewards_preserved_exactly_through_round_trip(tmp_path) -> None:
    # collect-grid rewards are not exactly representable decimals; the JSON
    # round trip must still be bit-exact
    spec = envs.make_collect(max_steps=75)
    store = demos.generate_demos(spec, n_traj=20, seed=5)
    path = str(tmp_path / "r.demos.jsonl")
    demos.save_demos(store, path)
    loaded = demos.load_demos(path)
    for a, b in zip(store.transitions(), loaded.transitions()):
        assert a.reward == b.reward
        assert np.array_equal(a.obs, b.obs)


# -- the writer's bytes and the loader's shared observations -----------------------


def _reference_save_demos(store: DemoStore, path: str) -> None:
    """save_demos and write_records as they were before array texts were
    memoised: every float of every row formatted, one json.dumps per line."""
    header = {
        "format_version": demos.FORMAT_VERSION,
        "env_id": store.env_id,
        "encoder_id": store.encoder_id,
        "obs_dim": store.obs_dim,
        "action_count": store.action_count,
        "n_transitions": store.total_transitions,
    }
    records = (
        {
            "traj": ti,
            "t": tr.t,
            "obs": [float(v) for v in tr.obs],
            "action": int(tr.action),
            "reward": float(tr.reward),
            "next_obs": [float(v) for v in tr.next_obs],
            "terminated": bool(tr.terminated),
            "truncated": bool(tr.truncated),
        }
        for ti, traj in enumerate(store.trajectories) for tr in traj.transitions)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for record in records:
            fh.write(json.dumps(record) + "\n")


def _bench_store(make_spec):
    """The benchmark's store: 200 trajectories, noise 0.1, seed 11."""
    return _quiet_generate(make_spec(), expert_noise=0.1, n_traj=200, seed=11)


def _empty_store():
    return DemoStore(env_id="none", encoder_id="raw", obs_dim=4, action_count=2)


def _edge_store():
    """Zeros of both signs side by side, values with long or subnormal
    decimal forms, an int-dtype observation equal to a float one, repeats by
    value and by object, and numpy-scalar actions, rewards and flags."""
    rows = [np.array([0.0, -0.0, 0.1, 1e-300]), np.array([-0.0, 0.0, 0.1, 1e-300]),
            np.array([5e-324, -5e-324, 1 / 3, 2.0**60]), np.array([1, 2, 3, 4]),
            np.array([1.0, 2.0, 3.0, 4.0])]
    trajectories = []
    for ti, order in enumerate([(0, 1, 2, 3), (4, 3, 3, 0, 1)]):
        steps = len(order) - 1
        transitions = [Transition(
            obs=rows[order[t]], action=np.int64(t % 3), reward=np.float64(0.1 * t - 0.2),
            next_obs=rows[order[t + 1]].copy(), terminated=np.bool_(t == steps - 1),
            truncated=np.False_, t=t) for t in range(steps)]
        trajectories.append(Trajectory(transitions, sum(tr.reward for tr in transitions)))
    return DemoStore(env_id="edges", encoder_id="raw", obs_dim=4, action_count=3,
                     trajectories=trajectories)


@pytest.mark.formats
@pytest.mark.parametrize("make_store", [
    lambda: _bench_store(envs.make_room_nav), lambda: _bench_store(envs.make_four_rooms),
    _empty_store, _edge_store,
], ids=["room-nav", "four-rooms", "empty", "edges"])
def test_save_demos_writes_the_reference_bytes(make_store, tmp_path) -> None:
    store = make_store()
    demos.save_demos(store, str(tmp_path / "new.demos.jsonl"))
    _reference_save_demos(store, str(tmp_path / "reference.demos.jsonl"))
    assert ((tmp_path / "new.demos.jsonl").read_bytes()
            == (tmp_path / "reference.demos.jsonl").read_bytes())


@pytest.mark.formats
def test_loaded_store_shares_one_read_only_array_per_distinct_observation(tmp_path) -> None:
    path = str(tmp_path / "room.demos.jsonl")
    demos.save_demos(_bench_store(envs.make_room_nav), path)
    store = demos.load_demos(path)
    arrays = {id(arr): arr for tr in store.transitions() for arr in (tr.obs, tr.next_obs)}
    assert store.total_transitions == 1557
    assert len(arrays) == len({arr.tobytes() for arr in arrays.values()}) == 64
    with pytest.raises(ValueError, match="read-only"):
        next(store.transitions()).obs[0] = 1.0


@pytest.mark.formats
def test_zeros_of_either_sign_load_as_different_arrays(tmp_path) -> None:
    path = str(tmp_path / "edges.demos.jsonl")
    demos.save_demos(_edge_store(), path)
    first, second = demos.load_demos(path).trajectories[0].transitions[:2]
    assert first.next_obs is second.obs
    assert first.obs is not second.obs
    assert np.array_equal(first.obs, second.obs)  # equal as numbers, apart as bytes
    assert np.signbit(first.obs).tolist() == [False, True, False, False]
    assert np.signbit(second.obs).tolist() == [True, False, False, False]


@pytest.mark.parametrize("make_spec, distinct, sha256", [
    (envs.make_room_nav, 64, "d5c10f0221a689692ca9af6aafebdd35ba6c2d4758cf3aaeca55f189cfb9aa7e"),
    (envs.make_four_rooms, 102, "a478d78a630c73d88c0641568aa0f411a8e7c8218f604271928baf6cbf2ccb36"),
], ids=["room-nav", "four-rooms"])
def test_generated_store_shares_one_read_only_array_per_distinct_observation(
        make_spec, distinct, sha256, tmp_path) -> None:
    """The benchmark's stores; the hashes are those of the files save_demos
    wrote before generation shared arrays between transitions."""
    store = _bench_store(make_spec)
    arrays = {id(arr): arr for tr in store.transitions() for arr in (tr.obs, tr.next_obs)}
    assert len(arrays) == len({arr.tobytes() for arr in arrays.values()}) == distinct
    for trajectory in store.trajectories:
        for tr, following in zip(trajectory.transitions, trajectory.transitions[1:]):
            assert following.obs is tr.next_obs
    with pytest.raises(ValueError, match="read-only"):
        next(store.transitions()).obs[0] = 1.0
    path = tmp_path / "bench.demos.jsonl"
    demos.save_demos(store, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
