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
    Hyperparams,
    LossBreakdown,
    bc_update,
    eps_at,
    greedy_action,
    her_augment,
)
from .demos import Transition, load_demos
from .encoders import (
    Encoder,
    IdentityEncoder,
    encoder_from_arrays,
    encoder_to_arrays,
    load_encoder,
)
from .envs import GridEnv, GridWorldSpec, PRESETS, episode_success
from .errors import ConfigError
from .nets import AdamState, DenseNet, Layer, mlp
from .retrieval import build_index
from .seeding import spawn_rng, spawn_seed
from .snapshots import load_arrays, save_arrays

METRICS_HEADER = ("step,mean_return,std_return,success_rate,epsilon,"
                  "loss_td,loss_ae,loss_distill,loss_actor,wall_secs")

TEACHER_BC_LEARNING_RATE = 3e-4


class ReplayBuffer:
    """Fixed-capacity ring of transitions; oldest entries evicted first."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
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


def replay_sample(buffer: ReplayBuffer, batch_size: int,
                  rng: np.random.Generator) -> list[Transition]:
    """Uniform sampling with replacement."""
    if len(buffer) == 0:
        raise ValueError("cannot sample from an empty buffer")
    idx = rng.integers(0, len(buffer), size=batch_size)
    return [buffer.transitions[int(i)] for i in idx]


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
        if self.agent not in LEARNERS:
            raise ConfigError(f"unknown agent kind {self.agent!r}")
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


def build_spec(name: str, options: dict) -> GridWorldSpec:
    if name not in PRESETS:
        raise ConfigError(f"unknown env {name!r} (choose from {sorted(PRESETS)})")
    try:
        return PRESETS[name](**options)
    except TypeError as exc:
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
    actions: dict[bytes, int] = {}
    returns = []
    successes = 0
    for i in range(n_episodes):
        state, obs = envs.reset(spec, spawn_seed(seed, "eval-episode", i))
        ep_return = 0.0
        last_reward = 0.0
        last_terminated = False
        while not state.done:
            key = obs.tobytes()
            if key not in actions:
                actions[key] = action_fn(obs)
            res = envs.step(spec, state, actions[key])
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
    """Clone the demonstrations, evaluating periodically and keeping the
    snapshot with the highest mean reward.  Uses its own learning rate (3e-4);
    the cloning problem is supervised and converges faster than TD."""
    demo = ArrayBatch.from_transitions(list(store.transitions()), encoder)
    policy = mlp(demo.latents.shape[1], store.action_count, hp.hidden,
                 spawn_rng(seed, "init", "teacher"))
    opt = AdamState.for_params(policy.param_arrays(), TEACHER_BC_LEARNING_RATE)
    batch_rng = spawn_rng(seed, "teacher-bc")
    best_score = -math.inf
    best_params = [p.copy() for p in policy.param_arrays()]
    for step_i in range(1, steps + 1):
        bc_update(demo.take(batch_rng.integers(0, len(demo), size=hp.batch_size)),
                  policy, opt)
        if step_i % eval_every == 0 or step_i == steps:
            result = evaluate(
                lambda obs: greedy_action(policy, encoder.encode(obs)),
                spec, eval_episodes, spawn_seed(seed, "teacher-eval", step_i),
            )
            if result.mean_return > best_score:
                best_score = result.mean_return
                best_params = [p.copy() for p in policy.param_arrays()]
    for p, best in zip(policy.param_arrays(), best_params):
        p[...] = best
    return policy


# -- the training loop -----------------------------------------------------------


def train_run(cfg: RunConfig, verbose: bool = False) -> RunRecord:
    """Execute one seeded training run and write its artifacts.

    Writes ``metrics.csv`` (bitwise-deterministic), ``summary.json``
    (includes wall-clock times), and a parameter snapshot into cfg.out_dir.
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
            buffer.push(tr)
    demo: ArrayBatch | None = None  # the demo store as one batch, built when first needed

    act_rng = spawn_rng(cfg.seed, "act")
    replay_rng = spawn_rng(cfg.seed, "replay")
    her_rng = spawn_rng(cfg.seed, "her")
    offline_rng = spawn_rng(cfg.seed, "offline")

    env = GridEnv(spec)
    episode_idx = 0
    obs = None
    interaction_steps = 0

    def env_step(action_of) -> None:
        """One env step by action_of(latent), pushed to replay."""
        nonlocal episode_idx, obs, interaction_steps
        if obs is None or env.state.done:
            _, obs = env.reset(spawn_seed(cfg.seed, "episode", episode_idx))
            episode_idx += 1
        action = action_of(encoder.encode(obs))
        res = env.step(action)
        buffer.push(Transition(
            obs=obs, action=action, reward=res.reward,
            next_obs=res.observation, terminated=res.terminated,
            truncated=res.truncated, t=env.state.t - 1,
        ))
        obs = res.observation
        interaction_steps += 1

    def replay_batch() -> ArrayBatch:
        sampled = replay_sample(buffer, hp.batch_size, replay_rng)
        if learner.relabels:
            sampled = her_augment(sampled, buffer, hp.her_extra, her_rng)
        return ArrayBatch.from_transitions(sampled, encoder)

    cadence = cfg.resolved_cadence
    rows: list[MetricRow] = []
    last_losses: LossBreakdown | None = None
    grad_steps = 0
    online_steps = 0
    online_warmup: int | None = None
    prev_phase: str | None = None
    best: tuple[float, list[np.ndarray]] | None = None

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
            if verbose:
                print(f"[{cfg.agent} seed={cfg.seed}] step {tick}: "
                      f"mean_return={result.mean_return:.3f} "
                      f"success={result.success_rate:.2f}")
            if learner.keeps_best and (best is None or result.mean_return > best[0]):
                best = (result.mean_return,
                        [p.copy() for p in learner.head_net.param_arrays()])
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
            batch = replay_batch()
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
                batch = replay_batch()
        if batch is not None:
            last_losses = learner.train_batch(batch)
            grad_steps += 1
        if (tick + 1) % hp.target_update_period == 0:
            learner.update_targets()

    if best is not None:
        for p, kept in zip(learner.head_net.param_arrays(), best[1]):
            p[...] = kept  # final snapshot = best-evaluation parameters

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
    payload = {
        "config": record.config,
        "env_id": record.env_id,
        "agent": record.agent,
        "seed": record.seed,
        "snapshot": record.snapshot_path,
        "wall_secs": record.wall_secs,
        "grad_steps": record.grad_steps,
        "interaction_steps": record.interaction_steps,
        "online_steps": record.online_steps,
        "online_warmup": record.online_warmup,
        "rows": [
            {
                "step": r.step,
                "mean_return": r.mean_return,
                "std_return": r.std_return,
                "success_rate": r.success_rate,
                "epsilon": r.epsilon,
                "losses": None if r.losses is None else asdict(r.losses),
                "wall_secs": r.wall_secs,
            }
            for r in record.rows
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


# -- snapshots --------------------------------------------------------------------


def save_policy_snapshot(path: str, learner, encoder: Encoder,
                         spec: GridWorldSpec) -> None:
    arrays = dict(learner.param_snapshot())
    enc_arrays, enc_meta = encoder_to_arrays(encoder)
    for name, arr in enc_arrays.items():
        arrays[f"encoder.{name}"] = arr
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
    head = meta["head"]
    layers = []
    for i, act in enumerate(meta["head_activations"]):
        layers.append(Layer(
            arrays[f"{head}.layer{i}.weights"],
            arrays[f"{head}.layer{i}.biases"],
            act,
        ))
    net = DenseNet(layers)
    enc_arrays = {name[len("encoder."):]: arr for name, arr in arrays.items()
                  if name.startswith("encoder.")}
    encoder = encoder_from_arrays(enc_arrays, meta["encoder"])

    def action_fn(obs: np.ndarray) -> int:
        return greedy_action(net, encoder.encode(obs))

    return action_fn, meta


# -- multi-seed orchestration -------------------------------------------------------


def run_seeds(cfg: RunConfig, seeds: list[int], parallelism: int = 1,
              verbose: bool = False) -> list[RunRecord]:
    """Launch one run per seed; workers share only read-only inputs and
    write to disjoint per-seed directories."""
    configs = [
        replace(cfg, seed=s, out_dir=os.path.join(cfg.out_dir, f"seed_{s}"))
        for s in seeds
    ]
    if parallelism <= 1 or len(configs) == 1:
        return [train_run(c, verbose=verbose) for c in configs]
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
    path = os.path.join(run_dir, "summary.json")
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return RunSummary(
        env_id=payload["env_id"],
        agent=payload["agent"],
        seed=payload["seed"],
        steps=[r["step"] for r in payload["rows"]],
        mean_returns=[r["mean_return"] for r in payload["rows"]],
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
            f"(first row at step {summary.steps[0] if summary.steps else '?'})")
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
        if self.speedup is None:
            return head + " -> speedup not reached"
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
    if threshold <= 0:
        raise ValueError("threshold must be > 0")
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
