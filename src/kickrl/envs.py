"""Grid-world task family with sparse, delayed, success-only rewards.

Four kinds share one engine:

* ``room-nav`` / ``four-rooms-nav`` -- reach a goal cell.  Reward is emitted
  only on the transition that enters a goal: ``1 - 0.2 * (t / T)``, so faster
  policies score higher while the signal stays success-only.
* ``corridor-nav`` -- reach the far end of a narrow path; stepping onto an
  off-path hazard cell terminates the episode with reward 0.
* ``collect-grid`` -- pick up items with a dedicated action.  Every step
  costs ``-2/T`` and each pickup pays ``+1``, so a do-nothing policy finishes
  at exactly -2.  Episodes always run to the step limit.

Transitions are deterministic given (state, action); all randomness lives in
reset (start cell) and in the scripted expert's noise draws.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ContractError

UP, DOWN, LEFT, RIGHT, PICKUP = 0, 1, 2, 3, 4
MOVE_DELTAS = ((0, -1), (0, 1), (-1, 0), (1, 0))

Cell = tuple[int, int]

KINDS = ("room-nav", "four-rooms-nav", "corridor-nav", "collect-grid")


@dataclass(frozen=True)
class GridWorldSpec:
    kind: str
    width: int
    height: int
    walls: frozenset[Cell] = frozenset()
    goals: frozenset[Cell] = frozenset()
    items: frozenset[Cell] = frozenset()
    hazards: frozenset[Cell] = frozenset()
    max_steps: int = 60
    view_radius: int | None = None  # None = full observability
    doorways: frozenset[Cell] = frozenset()  # four-rooms validation only
    # set from kind, not passed: a field, not a property, as env steps read it
    reward_mode: str = field(init=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "reward_mode",
                           "collect" if self.kind == "collect-grid" else "sparse-success")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        # past the grid's larger side a wider window adds only wall cells
        side = max(self.width, self.height)
        if self.view_radius is not None and not 0 <= self.view_radius <= side:
            raise ValueError(f"view_radius must be in [0, {side}], got {self.view_radius}")
        for name, cells in (("goal", self.goals), ("item", self.items),
                            ("hazard", self.hazards)):
            for c in cells:
                if not self.in_grid(c):
                    raise ValueError(f"{name} cell {c} outside the grid")
                if c in self.walls:
                    raise ValueError(f"{name} cell {c} lies on a wall")
        if self.reward_mode == "collect":
            if not self.items:
                raise ValueError("collect mode needs at least one item")
        elif not self.goals:
            raise ValueError("sparse-success mode needs at least one goal")
        self._check_reachability()
        if self.kind == "four-rooms-nav":
            self._check_four_rooms()

    # -- structural checks -------------------------------------------------

    def in_grid(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def traversable(self, cell: Cell) -> bool:
        """Cells the expert may path through: in-grid, no wall, no hazard."""
        return self.in_grid(cell) and cell not in self.walls and cell not in self.hazards

    def free_cells(self) -> list[Cell]:
        return [
            (x, y)
            for y in range(self.height)
            for x in range(self.width)
            if (x, y) not in self.walls
        ]

    def start_cells(self) -> list[Cell]:
        cells = [
            c for c in self.free_cells()
            if c not in self.goals and c not in self.hazards
        ]
        if not cells:
            raise ValueError("no legal start cell")
        return cells

    def _targets(self) -> frozenset[Cell]:
        return self.items if self.reward_mode == "collect" else self.goals

    def _check_reachability(self) -> None:
        reached = distance_field(self, self._targets())
        for cell in self.start_cells():
            if cell not in reached:
                raise ValueError(f"start cell {cell} cannot reach any target")

    def _check_four_rooms(self) -> None:
        if len(self.doorways) != 4:
            raise ValueError("four-rooms needs exactly 4 doorway cells")
        open_free = {c for c in self.free_cells() if c not in self.hazards}
        if len(_components(open_free)) != 1:
            raise ValueError("four-rooms free cells are not connected")
        closed = open_free - self.doorways
        if len(_components(closed)) != 4:
            raise ValueError("closing the doorways must leave exactly 4 rooms")

    # -- observation layout -------------------------------------------------

    @property
    def action_count(self) -> int:
        return 5 if self.reward_mode == "collect" else 4

    @property
    def obs_dim(self) -> int:
        if self.view_radius is not None:
            side = 2 * self.view_radius + 1
            return 4 * side * side
        cells = self.width * self.height
        blocks = 2 + (1 if self.reward_mode == "collect" else 0)
        return blocks * cells

    def cell_index(self, cell: Cell) -> int:
        x, y = cell
        return y * self.width + x

    @property
    def env_id(self) -> str:
        layout = repr((sorted(self.walls), sorted(self.goals), sorted(self.items),
                       sorted(self.hazards), self.view_radius))
        tag = zlib.crc32(layout.encode()) & 0xFFFFFFFF
        return (f"{self.kind}:{self.width}x{self.height}:T{self.max_steps}"
                f":a{self.action_count}:{tag:08x}")


def _components(cells: set[Cell]) -> list[set[Cell]]:
    remaining = set(cells)
    comps = []
    while remaining:
        start = remaining.pop()
        comp = {start}
        frontier = [start]
        while frontier:
            x, y = frontier.pop()
            for dx, dy in MOVE_DELTAS:
                n = (x + dx, y + dy)
                if n in remaining:
                    remaining.remove(n)
                    comp.add(n)
                    frontier.append(n)
        comps.append(comp)
    return comps


@lru_cache(maxsize=4096)
def distance_field(spec: GridWorldSpec, targets: frozenset[Cell]) -> dict[Cell, int]:
    """Breadth-first distances to the nearest target over traversable cells."""
    dist = {c: 0 for c in targets if spec.traversable(c)}
    frontier = list(dist)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for (x, y) in frontier:
            for dx, dy in MOVE_DELTAS:
                n = (x + dx, y + dy)
                if n not in dist and spec.traversable(n):
                    dist[n] = d
                    nxt.append(n)
        frontier = nxt
    return dist


# -- state and stepping ----------------------------------------------------


@dataclass
class EnvState:
    position: Cell
    items: set[Cell]
    t: int
    done: bool = False


@dataclass
class StepResult:
    observation: np.ndarray
    reward: float
    terminated: bool
    truncated: bool


def reset(spec: GridWorldSpec, seed: int) -> tuple[EnvState, np.ndarray]:
    """Place the agent on a seeded-random free non-goal cell, restock items."""
    rng = np.random.default_rng(seed)
    cells = spec.start_cells()
    pos = cells[int(rng.integers(len(cells)))]
    state = EnvState(position=pos, items=set(spec.items), t=0)
    return state, observation(spec, state)


def step(spec: GridWorldSpec, state: EnvState, action: int) -> StepResult:
    """Advance one timestep, mutating the state in place."""
    if state.done:
        raise ContractError("step() called on a finished episode")
    if not 0 <= action < spec.action_count:
        raise ValueError(
            f"action {action} invalid for {spec.kind} (valid: 0..{spec.action_count - 1})"
        )
    t = state.t  # transition index used by the reward formulas
    reward = 0.0
    terminated = False

    if action == PICKUP:
        reward = -2.0 / spec.max_steps
        if state.position in state.items:
            state.items.discard(state.position)
            reward += 1.0
    else:
        dx, dy = MOVE_DELTAS[action]
        target = (state.position[0] + dx, state.position[1] + dy)
        if spec.in_grid(target) and target not in spec.walls:
            state.position = target
        if spec.reward_mode == "collect":
            reward = -2.0 / spec.max_steps
        elif state.position in spec.goals:
            terminated = True
            reward = 1.0 - 0.2 * (t / spec.max_steps)
        elif state.position in spec.hazards:
            terminated = True
            reward = 0.0

    state.t = t + 1
    truncated = (not terminated) and state.t >= spec.max_steps
    state.done = terminated or truncated
    return StepResult(
        observation=observation(spec, state),
        reward=reward,
        terminated=terminated,
        truncated=truncated,
    )


def observation(spec: GridWorldSpec, state: EnvState) -> np.ndarray:
    if spec.view_radius is not None:
        return _window_observation(spec, state)
    cells = spec.width * spec.height
    obs = np.zeros(spec.obs_dim)
    obs[spec.cell_index(state.position)] = 1.0
    for g in spec.goals:
        obs[cells + spec.cell_index(g)] = 1.0
    if spec.reward_mode == "collect":
        for it in state.items:
            obs[2 * cells + spec.cell_index(it)] = 1.0
    return obs


def _window_observation(spec: GridWorldSpec, state: EnvState) -> np.ndarray:
    """Egocentric (2v+1)^2 window, channels: wall, goal, item, hazard."""
    v = spec.view_radius
    side = 2 * v + 1
    channels = np.zeros((4, side, side))
    px, py = state.position
    for wy in range(side):
        for wx in range(side):
            cell = (px + wx - v, py + wy - v)
            if not spec.in_grid(cell) or cell in spec.walls:
                channels[0, wy, wx] = 1.0
                continue
            if cell in spec.goals:
                channels[1, wy, wx] = 1.0
            if cell in state.items:
                channels[2, wy, wx] = 1.0
            if cell in spec.hazards:
                channels[3, wy, wx] = 1.0
    return channels.reshape(-1)


# -- scripted expert ---------------------------------------------------------


def expert_action(
    spec: GridWorldSpec, state: EnvState, noise: float, rng: np.random.Generator
) -> int:
    """Noisy shortest-path expert.

    With probability 1-noise: pickup when standing on an item, otherwise the
    first move of a breadth-first shortest path to the nearest goal/item
    (ties resolved in fixed action order).  With probability noise: a uniform
    random action.  With no targets left (collect mode, all items taken) the
    expert has nothing to path to and acts uniformly.
    """
    if not 0.0 <= noise <= 1.0:
        raise ValueError("noise must lie in [0, 1]")
    if rng.random() < noise:
        return int(rng.integers(spec.action_count))
    if spec.reward_mode == "collect":
        if state.position in state.items:
            return PICKUP
        targets = frozenset(state.items)
        if not targets:
            return int(rng.integers(spec.action_count))
    else:
        targets = spec.goals
    dist = distance_field(spec, targets)
    here = dist.get(state.position)
    if here is None:
        raise RuntimeError(f"no path from {state.position} to any target")
    for action, (dx, dy) in enumerate(MOVE_DELTAS):
        nxt = (state.position[0] + dx, state.position[1] + dy)
        if dist.get(nxt) == here - 1:
            return action
    raise RuntimeError("distance field has no descending neighbor")  # unreachable


def episode_success(spec: GridWorldSpec, terminated: bool, last_reward: float,
                    episode_return: float) -> bool:
    """Success convention: goal entry for navigation, positive return for collect."""
    if spec.reward_mode == "collect":
        return episode_return > 0.0
    return terminated and last_reward > 0.0


# -- desk-scale presets ------------------------------------------------------


def make_room_nav(width: int = 8, height: int = 8, max_steps: int = 60,
                  goal: Cell | None = None, view_radius: int | None = None) -> GridWorldSpec:
    goal = goal if goal is not None else (width - 1, height - 1)
    return GridWorldSpec(
        kind="room-nav", width=width, height=height,
        goals=frozenset({goal}), max_steps=max_steps, view_radius=view_radius,
    )


def make_four_rooms(size: int = 11, max_steps: int = 120, doorway_seed: int = 0,
                    goal: Cell | None = None, view_radius: int | None = None) -> GridWorldSpec:
    """Plus-shaped wall with one seeded doorway per arm (4 rooms)."""
    mid = size // 2
    rng = np.random.default_rng(doorway_seed)
    arms = [
        [(mid, y) for y in range(0, mid)],
        [(mid, y) for y in range(mid + 1, size)],
        [(x, mid) for x in range(0, mid)],
        [(x, mid) for x in range(mid + 1, size)],
    ]
    doorways = {arm[int(rng.integers(len(arm)))] for arm in arms}
    walls = {(mid, y) for y in range(size)} | {(x, mid) for x in range(size)}
    walls -= doorways
    goal = goal if goal is not None else (size - 1, size - 1)
    return GridWorldSpec(
        kind="four-rooms-nav", width=size, height=size,
        walls=frozenset(walls), goals=frozenset({goal}),
        doorways=frozenset(doorways), max_steps=max_steps, view_radius=view_radius,
    )


def make_corridor(length: int = 12, max_steps: int = 50,
                  view_radius: int | None = None) -> GridWorldSpec:
    """3-row strip: the middle row is the path, both side rows are hazards."""
    hazards = {(x, 0) for x in range(length)} | {(x, 2) for x in range(length)}
    return GridWorldSpec(
        kind="corridor-nav", width=length, height=3,
        goals=frozenset({(length - 1, 1)}), hazards=frozenset(hazards),
        max_steps=max_steps, view_radius=view_radius,
    )


def make_collect(width: int = 8, height: int = 8, n_items: int = 5,
                 max_steps: int = 80, item_seed: int = 0,
                 view_radius: int | None = None) -> GridWorldSpec:
    rng = np.random.default_rng(item_seed)
    cells = [(x, y) for y in range(height) for x in range(width)]
    picked = rng.choice(len(cells), size=n_items, replace=False)
    items = frozenset(cells[int(i)] for i in picked)
    return GridWorldSpec(
        kind="collect-grid", width=width, height=height,
        items=items, max_steps=max_steps, view_radius=view_radius,
    )


PRESETS = {
    "room-nav": make_room_nav,
    "four-rooms-nav": make_four_rooms,
    "corridor-nav": make_corridor,
    "collect-grid": make_collect,
}
