"""Recording, persisting, and loading expert trajectories.

Stores hold raw observations (never latents) so one store serves any
encoder; encoding happens when a retrieval index is built.  The on-disk
format is the JSON-lines record file of snapshots.py: one header object,
then one object per transition.  Files are self-describing -- loading never needs the
originating environment.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import envs
from .envs import GridWorldSpec
from .errors import FormatError
from .seeding import spawn_rng, spawn_seed
from .snapshots import field_float_bytes, field_int, field_number, read_records, write_records

FORMAT_VERSION = 1
TRANSITION_BUDGET = 1500
DEFAULT_EXPERT_NOISE = 0.1

_HEADER_FIELDS = {"format_version", "env_id", "encoder_id", "obs_dim",
                  "action_count", "n_transitions"}
_ROW_FIELDS = {"traj", "t", "obs", "action", "reward", "next_obs",
               "terminated", "truncated"}


class DemoBudgetWarning(UserWarning):
    """Store size is far from the protocol's transition budget."""


@dataclass
class Transition:
    obs: np.ndarray
    action: int
    reward: float
    next_obs: np.ndarray
    terminated: bool
    truncated: bool
    t: int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transition):
            return NotImplemented
        return (
            self.action == other.action
            and self.reward == other.reward
            and self.terminated == other.terminated
            and self.truncated == other.truncated
            and self.t == other.t
            and np.array_equal(self.obs, other.obs)
            and np.array_equal(self.next_obs, other.next_obs)
        )


@dataclass
class Trajectory:
    transitions: list[Transition]
    episode_return: float

    def __len__(self) -> int:
        return len(self.transitions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            self.transitions == other.transitions
            and self.episode_return == other.episode_return
        )


@dataclass
class DemoStore:
    env_id: str
    encoder_id: str
    obs_dim: int
    action_count: int
    trajectories: list[Trajectory] = field(default_factory=list)

    @property
    def total_transitions(self) -> int:
        return sum(len(t) for t in self.trajectories)

    def transitions(self):
        for traj in self.trajectories:
            yield from traj.transitions

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DemoStore):
            return NotImplemented
        return (
            self.env_id == other.env_id
            and self.encoder_id == other.encoder_id
            and self.obs_dim == other.obs_dim
            and self.action_count == other.action_count
            and self.trajectories == other.trajectories
        )


def check_budget(store: DemoStore) -> None:
    """Warn (never error) when the store strays far from the budget target."""
    n = store.total_transitions
    if not TRANSITION_BUDGET / 2 <= n <= TRANSITION_BUDGET * 2:
        warnings.warn(
            f"store holds {n} transitions; protocol budget is "
            f"~{TRANSITION_BUDGET} (warning only)",
            DemoBudgetWarning,
            stacklevel=2,
        )


def generate_demos(
    spec: GridWorldSpec,
    expert_noise: float = DEFAULT_EXPERT_NOISE,
    n_traj: int = 20,
    seed: int = 0,
) -> DemoStore:
    """Roll out the scripted expert for n_traj episodes with derived seeds.
    The transitions share one read-only array per distinct observation, as
    a loaded store's do."""
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    trajectories = []
    shared: dict[bytes, np.ndarray] = {}
    for i in range(n_traj):
        expert_rng = spawn_rng(seed, "demo-expert", i)
        state, obs = envs.reset(spec, spawn_seed(seed, "demo-episode", i))
        obs = _shared(obs.tobytes(), shared)
        transitions: list[Transition] = []
        t = 0
        while not state.done:
            action = envs.expert_action(spec, state, expert_noise, expert_rng)
            res = envs.step(spec, state, action)
            next_obs = _shared(res.observation.tobytes(), shared)
            transitions.append(Transition(
                obs=obs, action=action, reward=res.reward,
                next_obs=next_obs, terminated=res.terminated,
                truncated=res.truncated, t=t,
            ))
            obs = next_obs
            t += 1
        trajectories.append(Trajectory(
            transitions=transitions,
            episode_return=sum(tr.reward for tr in transitions),
        ))
    store = DemoStore(
        env_id=spec.env_id,
        encoder_id="raw",
        obs_dim=spec.obs_dim,
        action_count=spec.action_count,
        trajectories=trajectories,
    )
    check_budget(store)
    return store


def save_demos(store: DemoStore, path: str) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "env_id": store.env_id,
        "encoder_id": store.encoder_id,
        "obs_dim": store.obs_dim,
        "action_count": store.action_count,
        "n_transitions": store.total_transitions,
    }
    write_records(path, header, (
        {
            "traj": ti,
            "t": tr.t,
            "obs": tr.obs,
            "action": int(tr.action),
            "reward": float(tr.reward),
            "next_obs": tr.next_obs,
            "terminated": bool(tr.terminated),
            "truncated": bool(tr.truncated),
        }
        for ti, traj in enumerate(store.trajectories) for tr in traj.transitions))


def _shared(key: bytes, shared: dict[bytes, np.ndarray], lineno: int = 0,
            name: str = "obs") -> np.ndarray:
    """The store's one array over these float64 bytes (so 0.0 and -0.0 stay
    apart).  It views the immutable ``key``, so it is read-only.  A new one
    that is not finite is a FormatError naming ``lineno``, the line read."""
    found = shared.get(key)
    if found is None:
        found = np.frombuffer(key, dtype=np.float64)
        if not np.isfinite(found).all():
            raise FormatError(f"line {lineno}: {name} holds a non-finite value")
        shared[key] = found
    return found


def load_demos(path: str) -> DemoStore:
    """The store in ``path``.  Its transitions share one read-only array per
    distinct observation: copy one before writing into it."""
    records = read_records(path)
    _, header = next(records)
    if set(header) != _HEADER_FIELDS:
        missing = _HEADER_FIELDS - set(header)
        extra = set(header) - _HEADER_FIELDS
        raise FormatError(
            f"line 1: header fields wrong (missing={sorted(missing)}, "
            f"extra={sorted(extra)})"
        )
    if header["format_version"] != FORMAT_VERSION:
        raise FormatError(
            f"line 1: format_version {header['format_version']} unsupported "
            f"(expected {FORMAT_VERSION})"
        )
    obs_dim = field_int(header["obs_dim"], 1, "obs_dim")
    action_count = field_int(header["action_count"], 1, "action_count")
    claimed = field_int(header["n_transitions"], 1, "n_transitions")

    by_traj: dict[int, list[tuple[int, Transition]]] = {}  # (line, transition)
    shared: dict[bytes, np.ndarray] = {}
    count = 0
    for lineno, row in records:
        if set(row) != _ROW_FIELDS:
            missing = _ROW_FIELDS - set(row)
            extra = set(row) - _ROW_FIELDS
            raise FormatError(
                f"line {lineno}: transition fields wrong "
                f"(missing={sorted(missing)}, extra={sorted(extra)})"
            )
        obs = _shared(field_float_bytes(row["obs"], lineno, "obs"), shared, lineno)
        next_obs = _shared(field_float_bytes(row["next_obs"], lineno, "next_obs"), shared,
                           lineno, "next_obs")
        if obs.shape != (obs_dim,) or next_obs.shape != (obs_dim,):
            raise FormatError(
                f"line {lineno}: observation length != header obs_dim {obs_dim}"
            )
        action = field_int(row["action"], lineno, "action")
        if not 0 <= action < action_count:
            raise FormatError(
                f"line {lineno}: action {action} outside [0, {action_count})"
            )
        reward = field_number(row["reward"], lineno, "reward")
        if not math.isfinite(reward):
            raise FormatError(f"line {lineno}: reward {reward!r} is not finite")
        terminated, truncated = row["terminated"], row["truncated"]
        if type(terminated) is not bool or type(truncated) is not bool:
            raise FormatError(f"line {lineno}: terminated or truncated is not a boolean")
        by_traj.setdefault(field_int(row["traj"], lineno, "traj"), []).append((lineno, Transition(
            obs=obs, action=action, reward=reward, next_obs=next_obs, terminated=terminated,
            truncated=truncated, t=field_int(row["t"], lineno, "t"),
        )))
        count += 1
    if count != claimed:
        raise FormatError(
            f"line {count + 1}: file holds {count} transitions but the "
            f"header claims {claimed}"
        )

    trajectories = []
    for ti in sorted(by_traj):
        n = len(by_traj[ti])
        ordered: list[tuple[int, Transition] | None] = [None] * n  # (line, transition) by t
        for lineno, tr in by_traj[ti]:
            if not 0 <= tr.t < n:
                raise FormatError(f"line {lineno}: trajectory {ti} has {n} transitions, "
                                  f"so t {tr.t} is outside 0..{n - 1}")
            if ordered[tr.t] is not None:
                raise FormatError(f"line {lineno}: trajectory {ti} repeats t {tr.t} "
                                  f"of line {ordered[tr.t][0]}")
            ordered[tr.t] = (lineno, tr)
        for lineno, tr in ordered[:-1]:
            if tr.terminated or tr.truncated:
                raise FormatError(
                    f"line {lineno}: trajectory {ti}: non-final transition flagged terminal"
                )
        transitions = [tr for _, tr in ordered]
        trajectories.append(Trajectory(
            transitions=transitions,
            episode_return=sum(tr.reward for tr in transitions),
        ))
    return DemoStore(
        env_id=str(header["env_id"]),
        encoder_id=str(header["encoder_id"]),
        obs_dim=obs_dim,
        action_count=action_count,
        trajectories=trajectories,
    )
