"""Output checks for the benchmark, each against a computation made apart
from the training code: an exact BFS optimum, the closed-form exploration
schedule, the step counts implied by each agent kind's phase schedule, a
fresh rollout of the saved snapshot, byte equality of repeated runs, and a
direct-form brute-force nearest-neighbour search.

Every check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from collections import deque

import numpy as np

from kickrl import envs
from kickrl.harness import load_policy_snapshot
from kickrl.seeding import spawn_seed

MOVES = ((0, -1), (0, 1), (-1, 0), (1, 0))
TOL = 1e-12


def read_rows(run_dir: str) -> list[dict]:
    with open(os.path.join(run_dir, "metrics.csv"), encoding="utf-8") as fh:
        return list(csv.DictReader(io.StringIO(fh.read())))


def read_summary(run_dir: str) -> dict:
    with open(os.path.join(run_dir, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- eval rows against the exact optimum ----------------------------------------


def goal_distances(spec) -> dict:
    """Fewest moves from each cell to a goal: BFS over in-grid, non-wall,
    non-hazard cells (a blocked move leaves the agent in place)."""
    dist = {g: 0 for g in spec.goals}
    queue = deque(dist)
    while queue:
        x, y = queue.popleft()
        for dx, dy in MOVES:
            cell = (x + dx, y + dy)
            if (cell in dist or not (0 <= cell[0] < spec.width and 0 <= cell[1] < spec.height)
                    or cell in spec.walls or cell in spec.hazards):
                continue
            dist[cell] = dist[(x, y)] + 1
            queue.append(cell)
    return dist


def optimal_return(spec, dist: dict, start) -> float:
    """Entering the goal on move d pays 1 - 0.2 * (d - 1) / T."""
    d = dist.get(start)
    if d is None or d > spec.max_steps:
        return 0.0
    return 1.0 - 0.2 * (d - 1) / spec.max_steps


def check_optimum(spec, run_seed: int, episodes: int, rows: list[dict]) -> list[str]:
    dist = goal_distances(spec)
    problems = []
    for row in rows:
        eval_seed = spawn_seed(run_seed, "eval", int(row["step"]))
        starts = [envs.reset(spec, spawn_seed(eval_seed, "eval-episode", i))[0].position
                  for i in range(episodes)]
        best = float(np.mean([optimal_return(spec, dist, c) for c in starts]))
        value = float(row["mean_return"])
        if not -TOL <= value <= best + TOL:
            problems.append(f"step {row['step']}: mean_return {value} outside [0, optimum {best}]")
    return problems


def check_success(episodes: int, rows: list[dict]) -> list[str]:
    problems = []
    for row in rows:
        rate = float(row["success_rate"])
        if not 0.0 <= rate <= 1.0 or abs(rate * episodes - round(rate * episodes)) > 1e-9:
            problems.append(f"step {row['step']}: success_rate {rate} over {episodes} episodes")
    return problems


# -- schedules and step counts ---------------------------------------------------


EPSILON_KINDS = ("cdql", "cdql-ae", "qdagger", "her")


def check_epsilon(kind: str, hp, total_steps: int, rows: list[dict]) -> list[str]:
    """Linear decay from eps_start to eps_end over exploration_fraction of the
    run, then constant; kinds that do not explore leave the field empty."""
    window = hp.exploration_fraction * total_steps
    problems = []
    for row in rows:
        t = int(row["step"])
        if kind not in EPSILON_KINDS:
            if row["epsilon"] != "":
                problems.append(f"step {t}: {kind} logs epsilon {row['epsilon']}")
            continue
        want = hp.eps_end if t >= window else hp.eps_start + (hp.eps_end - hp.eps_start) * (t / window)
        if row["epsilon"] == "" or abs(float(row["epsilon"]) - want) > TOL:
            problems.append(f"step {t}: epsilon {row['epsilon']!r}, schedule gives {want!r}")
    return problems


def _online_grad_steps(online: int, buffer_before: int, hp) -> int:
    """Gradient steps in an online phase of `online` env steps that starts with
    `buffer_before` transitions stored: training waits until a push leaves at
    least batch_size rows, then runs every train_frequency steps."""
    warmup = max(0, hp.batch_size - min(buffer_before, hp.buffer_capacity - 1))
    return max(0, online - warmup) // hp.train_frequency


def expected_counts(kind: str, hp, total_steps: int, n_demo: int) -> tuple[int, int]:
    """(grad_steps, interaction_steps) for one run, from the phase schedule:
    qdagger collects teacher_steps with the teacher, distils for offline_steps,
    then runs online; awac trains offline_steps on demo batches with the demos
    preloaded in replay, then runs online; bc trains on every tick and never
    acts; the rest run online throughout."""
    if kind == "bc":
        return total_steps, 0
    if kind == "qdagger":
        teacher = min(hp.teacher_steps, total_steps)
        offline = min(hp.offline_steps, total_steps - teacher)
        online = total_steps - teacher - offline
        return offline + _online_grad_steps(online, teacher, hp), teacher + online
    if kind == "awac":
        offline = min(hp.offline_steps, total_steps)
        online = total_steps - offline
        return offline + _online_grad_steps(online, n_demo, hp), online
    return _online_grad_steps(total_steps, 0, hp), total_steps


def check_counts(kind: str, hp, total_steps: int, n_demo: int, summary: dict) -> list[str]:
    grad, inter = expected_counts(kind, hp, total_steps, n_demo)
    got = (summary["grad_steps"], summary["interaction_steps"])
    if got != (grad, inter):
        return [f"{kind}: (grad_steps, interaction_steps) = {got}, schedule gives {(grad, inter)}"]
    return []


# -- the saved snapshot -------------------------------------------------------------


def rollout_mean_return(action_fn, spec, eval_seed: int, episodes: int) -> float:
    returns = []
    for i in range(episodes):
        state, obs = envs.reset(spec, spawn_seed(eval_seed, "eval-episode", i))
        total = 0.0
        while not state.done:
            res = envs.step(spec, state, action_fn(obs))
            total += res.reward
            obs = res.observation
        returns.append(total)
    return float(np.mean(returns))


def check_snapshot(kind: str, spec, run_seed: int, episodes: int, run_dir: str,
                   rows: list[dict]) -> list[str]:
    """The snapshot must replay the last row's mean_return; bc keeps its best
    row (the first one with the highest mean_return)."""
    action_fn, _ = load_policy_snapshot(os.path.join(run_dir, "params.snapshot.jsonl"))
    row = rows[-1]
    if kind == "bc":
        row = max(rows, key=lambda r: float(r["mean_return"]))
    eval_seed = spawn_seed(run_seed, "eval", int(row["step"]))
    got = rollout_mean_return(action_fn, spec, eval_seed, episodes)
    if got != float(row["mean_return"]):
        return [f"{kind}: snapshot replays {got!r} at step {row['step']}, csv has {row['mean_return']}"]
    return []


def check_same_bytes(reference: bytes, path: str) -> list[str]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data != reference:
        return [f"{path} differs from the first round's file"]
    return []


# -- nearest neighbours ---------------------------------------------------------------


def knn_truth(latents: np.ndarray, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Direct-form squared L2 to every row; ties go to the lowest row index."""
    idx = np.empty((len(queries), k), dtype=np.int64)
    dist = np.empty((len(queries), k))
    for i, q in enumerate(queries):
        d = np.sum(np.square(latents - q), axis=1)
        order = np.argsort(d, kind="stable")[:k]
        idx[i], dist[i] = order, d[order]
    return idx, dist


def knn_mismatches(truth: tuple[np.ndarray, np.ndarray], got_idx: np.ndarray,
                   got_dist: np.ndarray) -> tuple[int, list[str]]:
    """(queries whose neighbour list differs from the truth, other problems).

    A differing list is a failed query.  Distances are compared only where the
    lists agree, to a tolerance that admits the rounding of the gemm form."""
    want_idx, want_dist = truth
    if got_idx.shape != want_idx.shape:
        return len(want_idx), [f"knn_batch returned shape {got_idx.shape}, expected {want_idx.shape}"]
    bad = np.any(got_idx != want_idx, axis=1)
    ok = ~bad
    scale = np.maximum(1.0, np.abs(want_dist[ok]))
    problems = []
    if np.any(np.abs(got_dist[ok] - want_dist[ok]) > 1e-9 * scale):
        problems.append("knn_batch distances disagree with the direct form")
    return int(bad.sum()), problems
