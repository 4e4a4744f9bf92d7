"""Replay buffer, training loop, evaluation, multi-seed orchestration,
and the report/compare machinery.

A run is a pure function of its config: every random stream is derived from
the run seed plus a purpose tag, and the metrics CSV it writes is bitwise
reproducible.  Wall-clock time is recorded in the run summary JSON only; the
CSV keeps its `wall_secs` column but leaves the field empty so the
deterministic contract holds.
"""

from __future__ import annotations

import json
import logging
import math
import multiprocessing
import os
import statistics
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import envs
from .agents import (
    LEARNERS,
    ArrayBatch,
    BCLearner,
    Hyperparams,
    LossBreakdown,
    eps_at,
    greedy_action,
    her_augment,
)
from .demos import load_demos
from .encoders import (
    Encoder,
    IdentityEncoder,
    encoder_from_arrays,
    encoder_to_arrays,
    load_encoder,
)
from .envs import GridWorldSpec, PRESETS, episode_success
from .errors import ConfigError, FormatError
from .nets import DenseNet, RowMemo, RowTable, net_from_arrays
from .retrieval import build_index
from .seeding import spawn_rng, spawn_seed
from .snapshots import load_arrays, meta_field, save_arrays

METRICS_HEADER = ("step,mean_return,std_return,success_rate,epsilon,"
                  "loss_td,loss_ae,loss_distill,loss_actor,wall_secs")

TEACHER_BC_LEARNING_RATE = 3e-4

log = logging.getLogger("kickrl")

TABLE_ROWS_PER_SLOT = 4  # replay table rows per slot before compacting, which frees half or more


class ReplayBuffer:
    """Fixed-capacity ring of transitions; oldest entries evicted first.

    A slot is one row of the columns obs_ids (the ids of obs and next_obs),
    action, reward, terminated and truncated.  Observations are interned in
    the RowTable ``observations``.  Grid-world observations repeat (room-nav
    has 63 distinct ones), so it stays small.  Observations that never repeat
    grow it to at most ``TABLE_ROWS_PER_SLOT * capacity`` rows; it is then
    compacted to the rows that live slots name.  ``take`` memoises the
    latents of the encoder it was last given by id, so that encoder must not
    change while the buffer serves it."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._obs_ids = np.empty((capacity, 2), dtype=np.int64)
        self._action = np.empty(capacity, dtype=np.int64)
        self._reward = np.empty(capacity, dtype=np.float64)
        self._terminated = np.empty(capacity, dtype=bool)
        self._truncated = np.empty(capacity, dtype=bool)
        self.observations = RowTable(max_rows=TABLE_ROWS_PER_SLOT * capacity)
        self._size = 0
        self._cursor = 0
        self._encoder = self._latents = None  # take's latent memo and its encoder

    def push(self, obs: np.ndarray, action: int, reward: float, next_obs: np.ndarray,
             terminated: bool, truncated: bool) -> None:
        n = self._size
        if len(self.observations) + 2 > self.observations.max_rows:
            self._obs_ids[:n] = self.observations.compact(self._obs_ids[:n])[self._obs_ids[:n]]
        slot = self._cursor
        self._obs_ids[slot, 0] = self.observations.add(obs)
        self._obs_ids[slot, 1] = self.observations.add(next_obs)
        self._action[slot] = action
        self._reward[slot] = reward
        self._terminated[slot] = terminated
        self._truncated[slot] = truncated
        self._cursor = (slot + 1) % self.capacity
        self._size = min(n + 1, self.capacity)

    def __len__(self) -> int:
        return self._size

    def take(self, slots: np.ndarray, encoder: Encoder) -> ArrayBatch:
        """The transitions in ``slots`` as a new batch, bitwise equal to
        ``ArrayBatch.from_transitions`` over the transitions pushed there,
        with their observation ids; rows are encoded only on a memo miss."""
        if encoder is not self._encoder:  # the memo closes over locals: one on self is a cycle
            observations, self._encoder = self.observations, encoder
            self._latents = RowMemo(lambda ids: encoder.encode_batch(observations.rows[ids]))
        ids, generation = self._obs_ids[slots], self.observations.generation
        return ArrayBatch(
            latents=self._latents(ids[:, 0], ids[:, 0], generation),
            actions=self._action[slots],
            rewards=self._reward[slots],
            next_latents=self._latents(ids[:, 1], ids[:, 1], generation),
            terminated=self._terminated[slots].astype(np.float64),
            truncated=self._truncated[slots].astype(np.float64),
            obs_ids=ids[:, 0], next_obs_ids=ids[:, 1], generation=generation,
        )


def replay_sample(buffer: ReplayBuffer, batch_size: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Uniform slots of ``buffer``, drawn with replacement."""
    if len(buffer) == 0:
        raise ValueError("cannot sample from an empty buffer")
    return rng.integers(0, len(buffer), size=batch_size)


def replay_batch(buffer: ReplayBuffer, batch_size: int, rng: np.random.Generator,
                 encoder: Encoder, her_extra: int = 0,
                 her_rng: np.random.Generator | None = None) -> ArrayBatch:
    """``batch_size`` uniform transitions, then ``her_extra`` more relabeled
    as successes: reward 1 and terminated (truncated cleared, so the flags
    stay exclusive).  One ``take`` gathers and encodes every row; split in
    two, a 1-row encode would be a gemv and round differently."""
    slots = her_augment(replay_sample(buffer, batch_size, rng), len(buffer), her_extra,
                        her_rng)
    batch = buffer.take(slots, encoder)
    batch.rewards[batch_size:] = 1.0
    batch.terminated[batch_size:] = 1.0
    batch.truncated[batch_size:] = 0.0
    return batch


# -- run configuration ---------------------------------------------------------


@dataclass
class RunConfig:
    env_name: str
    agent: str
    total_steps: int
    seed: int
    out_dir: str
    hp: Hyperparams
    env_options: dict = field(default_factory=dict)
    encoder_spec: str = "identity"
    demo_path: str | None = None
    eval_cadence: int | None = None  # None -> total_steps // 100
    eval_episodes: int = 10

    @property
    def resolved_cadence(self) -> int:
        if self.eval_cadence is not None:
            return self.eval_cadence
        return max(1, self.total_steps // 100)

    def build_spec(self) -> GridWorldSpec:
        return build_spec(self.env_name, self.env_options)

    def validate(self) -> None:
        try:
            self.hp.__post_init__()  # fields may have been set after construction
        except ValueError as exc:
            raise ConfigError(f"[hyperparams]: {exc}") from None
        if self.agent not in LEARNERS:
            raise ConfigError(f"unknown agent kind {self.agent!r}")
        self.build_spec()  # the env options are checked by building the env
        if self.total_steps < 1:
            raise ConfigError("total_steps must be >= 1")
        if self.eval_cadence is not None and self.eval_cadence < 1:
            raise ConfigError("eval_cadence must be >= 1")
        if self.eval_episodes < 1:
            raise ConfigError("eval_episodes must be >= 1")
        if LEARNERS[self.agent].needs_demos:
            if not self.demo_path:
                raise ConfigError(f"agent {self.agent!r} requires a demo store")
            if not os.path.exists(self.demo_path):
                raise ConfigError(f"demo store {self.demo_path!r} does not exist")
        for prefix in ("standardize:", "vae:"):
            if self.encoder_spec.startswith(prefix):
                path = self.encoder_spec.split(":", 1)[1]
                if not os.path.exists(path):
                    raise ConfigError(f"encoder snapshot {path!r} does not exist")

    def echo(self) -> dict:
        out = asdict(self)
        out["hp"]["hidden"] = list(out["hp"]["hidden"])
        return out


# Building a spec lists and searches its cells in Python, so a side of 2**60
# cells ran the process out of memory instead of failing; 256 builds in 0.4 s.
# The spec itself bounds a view radius by the grid's larger side.
MAX_GRID_SIDE = 256


def build_spec(name: str, options: dict) -> GridWorldSpec:
    if name not in PRESETS:
        raise ConfigError(f"unknown env {name!r} (choose from {sorted(PRESETS)})")
    for key in ("width", "height", "size", "length"):
        if options.get(key) is not None and not options[key] <= MAX_GRID_SIDE:
            raise ConfigError(f"bad env option: {key} = {options[key]} is over "
                              f"{MAX_GRID_SIDE} cells")
    try:
        return PRESETS[name](**options)
    except (TypeError, ValueError, OverflowError) as exc:  # an unknown option, or a bad value
        raise ConfigError(f"bad env option: {exc}") from None


def build_encoder(spec: GridWorldSpec, encoder_spec: str) -> Encoder:
    if encoder_spec == "identity":
        return IdentityEncoder(spec.obs_dim)
    if encoder_spec.startswith(("standardize:", "vae:")):
        kind, path = encoder_spec.split(":", 1)
        enc = load_encoder(path)
        declared = {"standardize": "StandardizeEncoder", "vae": "DenseVaeEncoder"}[kind]
        if type(enc).__name__ != declared:
            raise ConfigError(f"{path!r} holds a {type(enc).__name__}, not {declared}")
        if getattr(enc, "dim") != spec.obs_dim:
            raise ConfigError(
                f"encoder input dim {enc.dim} != observation dim {spec.obs_dim}")
        return enc
    raise ConfigError(f"unknown encoder spec {encoder_spec!r}")


# -- metrics -------------------------------------------------------------------


@dataclass
class EvalResult:
    mean_return: float
    std_return: float
    success_rate: float


@dataclass
class MetricRow:
    step: int
    mean_return: float
    std_return: float
    success_rate: float
    epsilon: float | None
    losses: LossBreakdown | None
    wall_secs: float


@dataclass
class RunRecord:
    config: dict
    env_id: str
    agent: str
    seed: int
    rows: list[MetricRow]
    snapshot_path: str
    wall_secs: float
    grad_steps: int
    interaction_steps: int  # every env step, teacher rollouts included
    online_steps: int  # env steps taken by the trained agent itself
    online_warmup: int  # fresh steps needed before the buffer could serve a batch


def _fmt(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def metrics_csv_lines(rows: list[MetricRow]) -> list[str]:
    lines = [METRICS_HEADER]
    for r in rows:
        losses = r.losses or LossBreakdown(td=None, ae=None, distill=None, actor=None)
        lines.append(",".join([
            str(r.step),
            _fmt(r.mean_return),
            _fmt(r.std_return),
            _fmt(r.success_rate),
            _fmt(r.epsilon),
            _fmt(losses.td),
            _fmt(losses.ae),
            _fmt(losses.distill),
            _fmt(losses.actor),
            "",  # wall time lives in summary.json; kept out of the bitwise record
        ]))
    return lines


def write_metrics_csv(rows: list[MetricRow], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(metrics_csv_lines(rows)) + "\n")


def evaluate(action_fn, spec: GridWorldSpec, n_episodes: int, seed: int) -> EvalResult:
    """Greedy rollout statistics over fresh, seeded episodes.

    Returns the mean undiscounted return, sample standard deviation
    (n-1 denominator; 0.0 for a single episode), and success rate.
    ``action_fn`` must be a pure function of the observation: it is called
    once per distinct observation (by bytes) and its action reused.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    seen, actions = RowTable(), []  # the action of each distinct observation, by id
    returns = []
    successes = 0
    for i in range(n_episodes):
        state, obs = envs.reset(spec, spawn_seed(seed, "eval-episode", i))
        ep_return = 0.0
        last_reward = 0.0
        last_terminated = False
        while not state.done:
            row = seen.add(obs)
            if row == len(actions):
                actions.append(action_fn(obs))
            res = envs.step(spec, state, actions[row])
            ep_return += res.reward
            last_reward = res.reward
            last_terminated = res.terminated
            obs = res.observation
        returns.append(ep_return)
        if episode_success(spec, last_terminated, last_reward, ep_return):
            successes += 1
    mean = float(np.mean(returns))
    std = float(np.std(returns, ddof=1)) if n_episodes > 1 else 0.0
    return EvalResult(mean, std, successes / n_episodes)


# -- BC teacher -----------------------------------------------------------------


def train_bc_policy(store, spec: GridWorldSpec, encoder: Encoder, hp: Hyperparams,
                    seed: int, steps: int = 2000, eval_every: int = 250,
                    eval_episodes: int = 10) -> DenseNet:
    """Clone the demonstrations, evaluating every ``eval_every`` steps and at
    the last, and return the policy of the best evaluation.  Uses its own
    learning rate (3e-4); cloning is supervised and converges faster than TD."""
    demo = ArrayBatch.from_transitions(list(store.transitions()), encoder)
    learner = BCLearner(encoder.latent_dim, store.action_count,
                        replace(hp, learning_rate=TEACHER_BC_LEARNING_RATE), seed,
                        init_tag="teacher")
    batch_rng = spawn_rng(seed, "teacher-bc")
    for step_i in range(1, steps + 1):
        learner.train_batch(demo.take(batch_rng.integers(0, len(demo), size=hp.batch_size)))
        if step_i % eval_every == 0 or step_i == steps:
            result = evaluate(lambda obs: learner.greedy(encoder.encode(obs)),
                              spec, eval_episodes, spawn_seed(seed, "teacher-eval", step_i))
            learner.evaluated(result.mean_return)
    learner.restore_best()
    return learner.policy


# -- the training loop -----------------------------------------------------------


def train_run(cfg: RunConfig) -> RunRecord:
    """Execute one seeded training run and write its artifacts.

    Writes ``metrics.csv`` (bitwise-deterministic), ``summary.json``
    (includes wall-clock times), and a parameter snapshot into cfg.out_dir,
    and logs each evaluation at INFO on the ``kickrl`` logger.
    The loop is the same for every agent kind: the learner's attributes
    (see agents.Learner) say what to load, how each tick trains, and which
    parameters to keep.
    """
    t_start = time.perf_counter()
    cfg.validate()
    spec = cfg.build_spec()
    hp = cfg.hp
    encoder = build_encoder(spec, cfg.encoder_spec)  # shared by agent, index, eval

    learner_cls = LEARNERS[cfg.agent]
    store = None
    resources = {}
    if learner_cls.needs_demos:
        store = load_demos(cfg.demo_path)
        if store.total_transitions == 0:
            raise ConfigError(f"demo store {cfg.demo_path!r} holds no transitions")
        if store.obs_dim != spec.obs_dim:
            raise ConfigError(
                f"demo obs_dim {store.obs_dim} != env obs_dim {spec.obs_dim}")
        if store.action_count != spec.action_count:
            raise ConfigError(
                f"demo action_count {store.action_count} != env {spec.action_count}")
    if learner_cls.needs_index:
        resources["index"] = build_index(store, encoder)
    if learner_cls.needs_teacher:
        resources["teacher"] = train_bc_policy(store, spec, encoder, hp, cfg.seed,
                                               eval_episodes=cfg.eval_episodes)
    learner = learner_cls(encoder.latent_dim, spec.action_count, hp, cfg.seed, **resources)
    buffer = ReplayBuffer(hp.buffer_capacity)
    if learner.preloads_demos:
        for tr in store.transitions():  # replay mixes demos and fresh data
            buffer.push(tr.obs, tr.action, tr.reward, tr.next_obs, tr.terminated, tr.truncated)
    demo: ArrayBatch | None = None  # the demo store as one batch, built when first needed

    act_rng = spawn_rng(cfg.seed, "act")
    replay_rng = spawn_rng(cfg.seed, "replay")
    her_rng = spawn_rng(cfg.seed, "her")
    offline_rng = spawn_rng(cfg.seed, "offline")
    her_extra = hp.her_extra if learner.relabels else 0

    state = None
    episode_idx = 0
    obs = None
    interaction_steps = 0

    def env_step(action_of) -> None:
        """One env step by action_of(latent), pushed to replay."""
        nonlocal state, episode_idx, obs, interaction_steps
        if obs is None or state.done:
            state, obs = envs.reset(spec, spawn_seed(cfg.seed, "episode", episode_idx))
            episode_idx += 1
        action = action_of(encoder.encode(obs))
        res = envs.step(spec, state, action)
        buffer.push(obs, action, res.reward, res.observation, res.terminated, res.truncated)
        obs = res.observation
        interaction_steps += 1

    cadence = cfg.resolved_cadence
    rows: list[MetricRow] = []
    last_losses: LossBreakdown | None = None
    grad_steps = 0
    online_steps = 0
    online_warmup: int | None = None
    prev_phase: str | None = None

    total = cfg.total_steps
    for tick in range(total + 1):
        if tick % cadence == 0:
            result = evaluate(
                lambda o: learner.greedy(encoder.encode(o)),
                spec, cfg.eval_episodes, spawn_seed(cfg.seed, "eval", tick),
            )
            rows.append(MetricRow(
                step=tick,
                mean_return=result.mean_return,
                std_return=result.std_return,
                success_rate=result.success_rate,
                epsilon=eps_at(tick, total, hp) if learner.explores else None,
                losses=last_losses,
                wall_secs=time.perf_counter() - t_start,
            ))
            log.info("[%s seed=%s] step %d: mean_return=%.3f success=%.2f", cfg.agent,
                     cfg.seed, tick, result.mean_return, result.success_rate)
            if learner.keeps_best:
                learner.evaluated(result.mean_return)
        if tick == total:
            break

        phase = learner.phase(tick)
        if phase == "online" and prev_phase not in (None, "online"):
            obs = None  # the student starts on a fresh episode, not mid-rollout
        prev_phase = phase
        batch = None
        if phase == "teacher-collect":
            env_step(learner.teacher_action)
        elif phase == "offline-distill":
            batch = replay_batch(buffer, hp.batch_size, replay_rng, encoder, her_extra, her_rng)
        elif phase == "offline":
            if demo is None:
                demo = ArrayBatch.from_transitions(list(store.transitions()), encoder)
            batch = demo.take(offline_rng.integers(0, len(demo), size=hp.batch_size))
        else:  # online interaction
            eps = eps_at(tick, total, hp) if learner.explores else 0.0
            env_step(lambda latent: learner.act(latent, eps, act_rng))
            online_steps += 1
            if online_warmup is None:
                online_warmup = max(0, hp.batch_size - (len(buffer) - 1))
            if (online_steps > online_warmup
                    and (online_steps - online_warmup) % hp.train_frequency == 0):
                batch = replay_batch(buffer, hp.batch_size, replay_rng, encoder,
                                     her_extra, her_rng)
        if batch is not None:
            last_losses = learner.train_batch(batch)
            grad_steps += 1
        if (tick + 1) % hp.target_update_period == 0:
            learner.update_targets()

    if learner.keeps_best:
        learner.restore_best()  # final snapshot = best-evaluation parameters

    os.makedirs(cfg.out_dir, exist_ok=True)
    snapshot_path = os.path.join(cfg.out_dir, "params.snapshot.jsonl")
    save_policy_snapshot(snapshot_path, learner, encoder, spec)
    write_metrics_csv(rows, os.path.join(cfg.out_dir, "metrics.csv"))

    record = RunRecord(
        config=cfg.echo(),
        env_id=spec.env_id,
        agent=cfg.agent,
        seed=cfg.seed,
        rows=rows,
        snapshot_path=snapshot_path,
        wall_secs=time.perf_counter() - t_start,
        grad_steps=grad_steps,
        interaction_steps=interaction_steps,
        online_steps=online_steps,
        online_warmup=online_warmup or 0,
    )
    _write_summary(record, os.path.join(cfg.out_dir, "summary.json"))
    return record


def _write_summary(record: RunRecord, path: str) -> None:
    payload = asdict(record)
    payload["snapshot"] = payload.pop("snapshot_path")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


# -- snapshots --------------------------------------------------------------------


def save_policy_snapshot(path: str, learner, encoder: Encoder,
                         spec: GridWorldSpec) -> None:
    enc_arrays, enc_meta = encoder_to_arrays(encoder)
    arrays = {**learner.param_snapshot(),
              **{f"encoder.{name}": arr for name, arr in enc_arrays.items()}}
    meta = {
        "agent": learner.kind,
        "env_id": spec.env_id,
        "head": learner.head,
        "head_activations": [l.activation for l in learner.head_net.layers],
        "encoder": enc_meta,
    }
    save_arrays(path, arrays, meta=meta)


def load_policy_snapshot(path: str):
    """Rebuild (greedy action_fn, meta) from a snapshot file."""
    arrays, meta = load_arrays(path)
    net = net_from_arrays(arrays, meta_field(meta, "head", str),
                          meta_field(meta, "head_activations", list))
    enc_arrays = {name[len("encoder."):]: arr for name, arr in arrays.items()
                  if name.startswith("encoder.")}
    encoder = encoder_from_arrays(enc_arrays, meta_field(meta, "encoder", dict))

    def action_fn(obs: np.ndarray) -> int:
        return greedy_action(net, encoder.encode(obs))

    return action_fn, meta


# -- multi-seed orchestration -------------------------------------------------------


def run_seeds(cfg: RunConfig, seeds: list[int], parallelism: int = 1) -> list[RunRecord]:
    """Launch one run per seed; workers share only read-only inputs and
    write to disjoint per-seed directories, so a seed may not repeat."""
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ConfigError(f"seeds repeat {repeated}: each seed writes its own seed_<n> directory")
    configs = [
        replace(cfg, seed=s, out_dir=os.path.join(cfg.out_dir, f"seed_{s}"))
        for s in seeds
    ]
    if parallelism <= 1 or len(configs) == 1:
        return [train_run(c) for c in configs]
    with multiprocessing.get_context("fork").Pool(min(parallelism, len(configs))) as pool:
        return pool.map(train_run, configs)


# -- reporting ---------------------------------------------------------------------


@dataclass
class RunSummary:
    env_id: str
    agent: str
    seed: int
    steps: list[int]
    mean_returns: list[float]


def load_run(run_dir: str) -> RunSummary:
    """The summary.json in run_dir.  Text that is not a JSON object, or a
    field report/compare read that is missing or of the wrong type, is a
    FormatError naming the file and the field."""
    path = os.path.join(run_dir, "summary.json")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise FormatError(f"{path}: not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: not a JSON object")

    def field(record, name: str, kinds, rule: str, where: str = ""):
        value = record.get(name) if isinstance(record, dict) else None
        if (not isinstance(value, kinds) or isinstance(value, bool)
                or (isinstance(value, float) and not math.isfinite(value))):
            raise FormatError(f"{path}: {where}{name} is {value!r}, not {rule}")
        return value

    env_id = field(payload, "env_id", str, "a string")
    agent = field(payload, "agent", str, "a string")
    seed = field(payload, "seed", int, "an int")
    rows = field(payload, "rows", list, "a list")
    if not rows:
        raise FormatError(f"{path}: rows is empty")
    steps = [field(r, "step", int, "an int", f"rows[{i}].") for i, r in enumerate(rows)]
    for i in range(1, len(steps)):  # report and compare read the rows in step order
        if steps[i] <= steps[i - 1]:
            raise FormatError(f"{path}: rows[{i}].step is {steps[i]}, "
                              f"not above rows[{i - 1}].step {steps[i - 1]}")
    return RunSummary(
        env_id=env_id, agent=agent, seed=seed, steps=steps,
        mean_returns=[field(r, "mean_return", (int, float), "a finite number", f"rows[{i}].")
                      for i, r in enumerate(rows)],
    )


def discover_runs(root: str) -> list[RunSummary]:
    """Load every run summary at root or one level below (seed_* layout)."""
    found = []
    if os.path.exists(os.path.join(root, "summary.json")):
        found.append(load_run(root))
    if os.path.isdir(root):
        for name in sorted(os.listdir(root)):
            sub = os.path.join(root, name)
            if os.path.exists(os.path.join(sub, "summary.json")):
                found.append(load_run(sub))
    if not found:
        raise ConfigError(f"no run summaries found under {root!r}")
    return found


def _value_at_checkpoint(summary: RunSummary, checkpoint: int) -> float:
    best = None
    for step, value in zip(summary.steps, summary.mean_returns):
        if step <= checkpoint:
            best = value
        else:
            break
    if best is None:
        raise ValueError(
            f"checkpoint {checkpoint} precedes the first metric row "
            f"(first row at step {summary.steps[0]})")
    return best


@dataclass
class ReportTable:
    headers: list[str]
    rows: list[list[str]]

    def as_csv(self) -> str:
        lines = [",".join(self.headers)]
        lines += [",".join(row) for row in self.rows]
        return "\n".join(lines) + "\n"

    def as_text(self) -> str:
        widths = [max(len(str(cell)) for cell in col)
                  for col in zip(self.headers, *self.rows)]
        def fmt(row):
            return "  ".join(str(c).ljust(w) for c, w in zip(row, widths))
        lines = [fmt(self.headers), fmt(["-" * w for w in widths])]
        lines += [fmt(row) for row in self.rows]
        return "\n".join(lines) + "\n"


def report_table(summaries: list[RunSummary], checkpoints: list[int]) -> ReportTable:
    """Per-(env, agent) mean +/- std of eval returns at each checkpoint."""
    if not summaries:
        raise ValueError("no run summaries to report")
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    groups: dict[tuple[str, str], list[RunSummary]] = {}
    for s in summaries:
        groups.setdefault((s.env_id, s.agent), []).append(s)
    headers = ["env", "agent"] + [f"reward@{c}" for c in checkpoints]
    rows = []
    for (env_id, agent) in sorted(groups):
        group = groups[(env_id, agent)]
        cells = [env_id, agent]
        for c in checkpoints:
            values = [_value_at_checkpoint(s, c) for s in group]
            m = float(np.mean(values))
            s_dev = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
            cells.append(f"{m:.3f} ± {s_dev:.3f}")
        rows.append(cells)
    return ReportTable(headers=headers, rows=rows)


@dataclass
class SpeedupReport:
    threshold: float
    baseline_steps: float | None  # median first crossing; None = not reached
    treatment_steps: float | None
    speedup: float | None

    def formatted(self) -> str:
        def steps(x):
            return "not reached" if x is None else f"{x:g}"
        head = (f"threshold {self.threshold:g}: baseline {steps(self.baseline_steps)}, "
                f"treatment {steps(self.treatment_steps)}")
        if self.speedup is None and None in (self.baseline_steps, self.treatment_steps):
            return head + " -> speedup not reached"
        if self.speedup is None:  # both crossed, the baseline at step 0 (or before)
            return head + (f" -> no speedup ratio: the baseline crosses at step "
                           f"{self.baseline_steps:g}")
        return head + f" -> speedup {self.speedup * 100:.1f}%"


def _median_first_crossing(group: list[RunSummary], threshold: float) -> float | None:
    firsts = []
    for s in group:
        hit = math.inf
        for step, value in zip(s.steps, s.mean_returns):
            if value >= threshold:
                hit = step
                break
        firsts.append(hit)
    med = statistics.median(firsts)
    return None if math.isinf(med) else float(med)


def compare_runs(baseline: list[RunSummary], treatment: list[RunSummary],
                 threshold: float) -> SpeedupReport:
    """Median steps-to-threshold speedup of treatment over baseline."""
    if not 0.0 < threshold < math.inf:  # written so that NaN fails it
        raise ValueError(f"threshold must be finite and > 0, got {threshold!r}")
    if not baseline or not treatment:
        raise ValueError("both groups need at least one run")
    envs_seen = {s.env_id for s in baseline} | {s.env_id for s in treatment}
    if len(envs_seen) != 1:
        raise ValueError(f"groups span different envs: {sorted(envs_seen)}")
    b = _median_first_crossing(baseline, threshold)
    t = _median_first_crossing(treatment, threshold)
    speedup = None
    if b is not None and t is not None:
        if t == b:
            speedup = 0.0
        elif b > 0:
            speedup = 1.0 - t / b
    return SpeedupReport(threshold=threshold, baseline_steps=b,
                         treatment_steps=t, speedup=speedup)
