"""Algorithm variants: clipped double Q-learning, its retrieval-kickstarted
form, teacher distillation, advantage-weighted actor-critic, hindsight
relabeling, and behavioral cloning.

Loss conventions (LossBreakdown.total):

* ``cdql`` / ``her``        total = td
* ``cdql-ae`` target-shaping  total = td on shaped targets; ``ae`` logs the
  batch-mean adversarial estimate as a diagnostic
* ``cdql-ae`` q-regression / kl-penalty  total = td + penalty (the penalty
  value already carries its scaling factor)
* ``qdagger``               total = td + lam * distill
* ``awac``                  total = td + actor
* ``bc``                    total = actor (cross-entropy)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .demos import Transition
from .nets import (Activations, AdamState, DenseNet, RowMemo, RowTable, adam_step, backward,
                   forward, forward_values, grown, mlp, net_to_arrays, soft_update)
from .retrieval import LatentIndex, knn_batch, neighbor_action_counts
from .seeding import spawn_rng

AE_MODES = ("target-shaping", "q-regression", "kl-penalty")

REFERENCE_TOTAL_STEPS = 2_500_000  # step scale the published budgets assume
WEIGHT_CAP = float(np.exp(20.0))
PROB_FLOOR = 1e-12


@dataclass
class Hyperparams:
    gamma: float = 0.99
    lam: float = 0.0
    tau: float = 1.0
    buffer_capacity: int = 250_000
    batch_size: int = 32
    eps_start: float = 1.0
    eps_end: float = 0.05
    exploration_fraction: float = 0.1
    target_update_period: int = 1000
    train_frequency: int = 4
    k_neighbors: int = 8
    ae_mode: str = "target-shaping"
    learning_rate: float = 1e-4
    hidden: tuple[int, ...] = (256, 256)
    teacher_steps: int = 125_000
    offline_steps: int = 0
    her_extra: int = 16
    distill_temperature: float = 1.0

    def __post_init__(self) -> None:
        # every check below is written so that NaN fails it
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not self.lam >= 0.0:
            raise ValueError("lam must be >= 0")
        if not (0.0 <= self.eps_start <= 1.0 and 0.0 <= self.eps_end <= 1.0):
            raise ValueError("epsilon endpoints must lie in [0, 1]")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        if self.ae_mode not in AE_MODES:
            raise ValueError(f"unknown ae_mode {self.ae_mode!r}")
        for name in ("her_extra", "offline_steps", "exploration_fraction"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("learning_rate", "distill_temperature"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        for name in ("buffer_capacity", "batch_size", "target_update_period",
                     "train_frequency", "k_neighbors", "teacher_steps"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1")
        self.hidden = tuple(int(h) for h in self.hidden)
        if not all(h >= 1 for h in self.hidden):
            raise ValueError(f"hidden layer widths must be >= 1, got {self.hidden}")


def defaults_for(kind: str) -> Hyperparams:
    """Published hyperparameters with the kind's own lam and offline budget."""
    try:
        cls = LEARNERS[kind]
    except KeyError:
        raise ValueError(f"unknown agent kind {kind!r}") from None
    return Hyperparams(lam=cls.default_lam, offline_steps=cls.default_offline_steps)


def scale_step_budgets(hp: Hyperparams, total_steps: int) -> Hyperparams:
    """Co-scale step-denominated budgets with the training horizon.

    Buffer capacity and the teacher/offline budgets shrink by the same factor
    as total steps relative to the published horizon; the target-update period
    stays fixed at its published value.
    """
    factor = total_steps / REFERENCE_TOTAL_STEPS
    return replace(
        hp,
        buffer_capacity=max(hp.batch_size, int(round(hp.buffer_capacity * factor))),
        teacher_steps=max(1, int(round(hp.teacher_steps * factor))),
        offline_steps=(0 if hp.offline_steps == 0
                       else max(1, int(round(hp.offline_steps * factor)))),
    )


@dataclass
class LossBreakdown:
    td: float | None = None
    ae: float | None = None
    distill: float | None = None
    actor: float | None = None
    total: float = 0.0


# -- schedules and action selection ------------------------------------------


def eps_at(t: int, total_steps: int, hp: Hyperparams) -> float:
    """Linear decay over exploration_fraction * total_steps, then constant."""
    if t < 0:
        raise ValueError("t must be >= 0")
    window = hp.exploration_fraction * total_steps
    if window <= 0 or t >= window:
        return hp.eps_end
    return hp.eps_start + (hp.eps_end - hp.eps_start) * (t / window)


def greedy_action(qnet: DenseNet, latent: np.ndarray) -> int:
    """Argmax over Q-values; ties resolve to the lowest action index."""
    return int(np.argmax(forward_values(qnet, latent[None, :])[0]))


def act_eps_greedy(qnet: DenseNet, latent: np.ndarray, eps: float,
                   rng: np.random.Generator) -> int:
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    if rng.random() < eps:
        return int(rng.integers(qnet.output_dim))
    return greedy_action(qnet, latent)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


# -- batches ------------------------------------------------------------------


@dataclass
class ArrayBatch:
    latents: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_latents: np.ndarray
    terminated: np.ndarray  # 0/1 floats; truncation bootstraps normally
    truncated: np.ndarray
    # the observations' ids in the RowTable numbering ``generation``, if known
    obs_ids: np.ndarray | None = None
    next_obs_ids: np.ndarray | None = None
    generation: object = None

    def __len__(self) -> int:
        return len(self.actions)

    @classmethod
    def from_transitions(cls, transitions: list[Transition], encoder) -> "ArrayBatch":
        """The transitions as a batch, their observations numbered in a fresh RowTable."""
        obs = np.stack([tr.obs for tr in transitions])
        next_obs = np.stack([tr.next_obs for tr in transitions])
        table = RowTable()
        return cls(
            latents=encoder.encode_batch(obs),
            actions=np.asarray([tr.action for tr in transitions], dtype=np.int64),
            rewards=np.asarray([tr.reward for tr in transitions], dtype=np.float64),
            next_latents=encoder.encode_batch(next_obs),
            terminated=np.asarray([float(tr.terminated) for tr in transitions]),
            truncated=np.asarray([float(tr.truncated) for tr in transitions]),
            obs_ids=table.add_all(obs), next_obs_ids=table.add_all(next_obs),
            generation=table.generation,
        )

    def take(self, idx: np.ndarray) -> "ArrayBatch":
        """The rows idx of this batch, as a new batch."""
        return replace(self, **{name: values[idx] for name, values in vars(self).items()
                                if isinstance(values, np.ndarray)})


# -- temporal-difference core -------------------------------------------------


def online_forward(net: DenseNet, opt: AdamState, batch: ArrayBatch) -> Activations:
    """The training forward of ``net`` over the batch's latents, into
    ``opt``'s buffers, with its ``values`` over the next latents: the hidden
    layers run once per distinct observation id (see nets.forward)."""
    ids = None if batch.obs_ids is None else np.concatenate([batch.obs_ids, batch.next_obs_ids])
    return forward(net, batch.latents, work=opt, values_of=batch.next_latents, ids=ids)


def _min_bootstrap(batch: ArrayBatch, q_online, q_target, gamma: float) -> np.ndarray:
    """gamma * min(online, target) at the online argmax, masked on termination."""
    next_online = (q_online if isinstance(q_online, np.ndarray)
                   else forward_values(q_online, batch.next_latents))
    a_star = np.argmax(next_online, axis=1)
    next_target = (q_target(batch.next_latents, batch.next_obs_ids, batch.generation)
                   if isinstance(q_target, RowMemo)
                   else forward_values(q_target, batch.next_latents))
    rows = np.arange(len(batch))
    boot = np.minimum(next_online[rows, a_star], next_target[rows, a_star])
    return gamma * boot * (1.0 - batch.terminated)


def clipped_target(batch: ArrayBatch, q_online, q_target,
                   gamma: float) -> np.ndarray:
    """Bootstrap on the smaller of the online and target estimates.

    ``q_online`` is the online net, or its values over the next latents
    (online_forward's ``values``).  ``q_target`` is the target net, or a
    learner's RowMemo over its Q-values, which keys on the batch's
    next_obs_ids when it has them.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    return batch.rewards + _min_bootstrap(batch, q_online, q_target, gamma)


def td_loss_and_grad_rows(q_values: np.ndarray, actions: np.ndarray,
                          targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared error on the taken actions; targets are treated as constants."""
    rows = np.arange(len(actions))
    resid = q_values[rows, actions] - targets
    grad_rows = np.zeros_like(q_values)
    grad_rows[rows, actions] = 2.0 * resid
    return float(np.mean(np.square(resid))), grad_rows


def descend(net: DenseNet, opt: AdamState, acts: Activations, loss: float,
            grad_rows: np.ndarray) -> float:
    """One Adam step on ``net`` from its forward ``acts`` and the loss's
    per-row output gradient; a non-finite loss is rejected before any change.
    Returns the loss.  ``acts`` may live in ``opt``'s buffers (forward with
    ``work=opt``); the gradients go there too."""
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss {loss}: step rejected")
    backward(net, acts, grad_rows, input_gradient=False, work=opt)
    adam_step(net.flat, opt.grad, opt)
    return loss


def td_step(batch: ArrayBatch, targets: np.ndarray, q_online: DenseNet,
            opt: AdamState, acts: Activations | None = None) -> float:
    """One TD regression step toward fixed targets.

    ``acts`` may carry the forward of ``q_online`` over ``batch.latents``
    when the caller already ran it with the current parameters.
    """
    if len(targets) != len(batch):
        raise ValueError("targets not aligned with batch")
    if acts is None:
        acts = forward(q_online, batch.latents, work=opt)
    loss, grad_rows = td_loss_and_grad_rows(acts.final, batch.actions, targets)
    return descend(q_online, opt, acts, loss, grad_rows)


# -- adversarial estimates ------------------------------------------------------
# z, a transition's adversarial estimate, is the mean target-net value of its k
# nearest demo latents minus its reward (AdversarialKickstartLearner.z_for_batch).
# Each rule below applies z in one ae_mode.


def shaped_target(batch: ArrayBatch, z: np.ndarray, lam: float, q_online,
                  q_target, gamma: float) -> np.ndarray:
    """target-shaping: the clipped bootstrap on the shaped reward r - lam*z,
    so at lam=0 the targets are bit-for-bit clipped_target's."""
    return (batch.rewards - lam * z) + _min_bootstrap(batch, q_online, q_target, gamma)


def q_regression_penalty(q_values: np.ndarray, actions: np.ndarray, estimates: np.ndarray,
                         lam: float) -> tuple[float, np.ndarray]:
    """q-regression: lam * the squared error of the taken actions' values to
    the expert estimates (z + r), and its per-row gradient."""
    rows = np.arange(len(actions))
    resid = q_values[rows, actions] - estimates
    grad_rows = np.zeros_like(q_values)
    grad_rows[rows, actions] = lam * 2.0 * resid
    return float(lam * np.mean(np.square(resid))), grad_rows


def kl_penalty(q_values: np.ndarray, search_probs: np.ndarray,
               lam: float) -> tuple[float, np.ndarray]:
    """kl-penalty: lam * the batch-mean KL(softmax(q) || search policy),
    forward direction, and its per-row gradient."""
    p = softmax(q_values)
    log_p = np.log(np.maximum(p, 1e-300))
    log_q = np.log(np.maximum(search_probs, PROB_FLOOR))
    per_sample = np.sum(p * (log_p - log_q), axis=1)
    grad_rows = lam * p * ((log_p - log_q) - per_sample[:, None])
    return float(lam * per_sample.mean()), grad_rows


# -- distillation ---------------------------------------------------------------


def distill_loss_and_grad(teacher_probs: np.ndarray, student_logits: np.ndarray,
                          temperature: float) -> tuple[float, np.ndarray]:
    """Batch-mean KL(teacher || tempered student) and its per-row logit gradient."""
    if temperature <= 0.0:
        raise ValueError("temperature must be > 0")
    log_s = log_softmax(student_logits / temperature)
    s = np.exp(log_s)
    log_s_floored = np.log(np.maximum(s, PROB_FLOOR))
    p_safe = np.maximum(teacher_probs, 1e-300)
    per_sample = np.sum(teacher_probs * (np.log(p_safe) - log_s_floored), axis=1)
    grad_rows = (s - teacher_probs) / temperature
    return float(per_sample.mean()), grad_rows


def qdagger_schedule(step: int, hp: Hyperparams) -> str:
    """Phase for a unified tick counter: collect, then distill, then online."""
    if step < 0:
        raise ValueError("step must be >= 0")
    if step < hp.teacher_steps:
        return "teacher-collect"
    if step < hp.teacher_steps + hp.offline_steps:
        return "offline-distill"
    return "online"


# -- advantage weighting ----------------------------------------------------------


def awac_weights(advantages: np.ndarray, lam: float,
                 cap: float = WEIGHT_CAP) -> np.ndarray:
    """exp(A/lam), capped; never returns a non-finite weight."""
    with np.errstate(over="ignore"):  # overflow saturates into the cap
        w = np.minimum(np.exp(np.asarray(advantages, dtype=np.float64) / lam), cap)
    return np.where(np.isnan(w), cap, w)


def awac_update(batch: ArrayBatch, actor: DenseNet, critic: DenseNet,
                critic_target, lam: float, actor_opt: AdamState,
                critic_opt: AdamState, gamma: float) -> LossBreakdown:
    """Critic TD step on clipped targets, then advantage-weighted actor step.

    Advantages are read from the pre-update critic and treated as constants
    in the actor gradient.  ``critic_target`` is a net or a RowMemo over its
    Q-values, as in clipped_target.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    rows = np.arange(len(batch))
    critic_acts = online_forward(critic, critic_opt, batch)
    q_values = critic_acts.final
    actor_acts = forward(actor, batch.latents, work=actor_opt)
    log_probs = log_softmax(actor_acts.final)
    probs = np.exp(log_probs)
    value = np.sum(probs * q_values, axis=1)
    advantage = q_values[rows, batch.actions] - value
    weights = awac_weights(advantage, lam)

    y = clipped_target(batch, critic_acts.values, critic_target, gamma)
    td = td_step(batch, y, critic, critic_opt, critic_acts)

    actor_loss = float(-np.mean(weights * log_probs[rows, batch.actions]))
    onehot = np.zeros_like(probs)
    onehot[rows, batch.actions] = 1.0
    descend(actor, actor_opt, actor_acts, actor_loss, weights[:, None] * (probs - onehot))
    return LossBreakdown(td=td, actor=actor_loss, total=td + actor_loss)


# -- hindsight relabeling -----------------------------------------------------------


def her_augment(slots: np.ndarray, buffer_len: int, n_extra: int,
                rng: np.random.Generator | None) -> np.ndarray:
    """``slots`` followed by n_extra uniform replay slots, which the batch
    relabels as successes.  One ``integers(buffer_len, size=n_extra)`` draw,
    whose values and RNG state equal n_extra single draws in order; none when
    n_extra is 0.  Sampling is with replacement, so small buffers are fine."""
    if n_extra == 0:
        return slots
    return np.concatenate([slots, rng.integers(buffer_len, size=n_extra)])


# -- behavioral cloning ---------------------------------------------------------------


def bc_update(batch: ArrayBatch, policy: DenseNet, opt: AdamState) -> float:
    """Cross-entropy between demo actions and the policy softmax; one step."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    rows = np.arange(len(batch))
    acts = forward(policy, batch.latents, work=opt)
    log_p = log_softmax(acts.final)
    grad_rows = np.exp(log_p)
    grad_rows[rows, batch.actions] -= 1.0
    return descend(policy, opt, acts, float(-np.mean(log_p[rows, batch.actions])), grad_rows)


# -- learners -----------------------------------------------------------------------


class Learner:
    """What the training loop asks of an agent kind; the loop never branches
    on the kind itself.

    * ``phase(tick)``: ``"teacher-collect"`` (a teacher acts, nothing trains),
      ``"offline-distill"`` (train on replay), ``"offline"`` (train on the
      demo store) or ``"online"`` (act, then train on replay);
    * ``head``: the attribute holding the net that acts greedily and heads
      the snapshot; ``saved`` names every net the snapshot stores;
    * ``explores``: acts on the epsilon schedule, which the CSV then logs;
    * ``needs_demos`` / ``needs_index`` / ``needs_teacher``: the run loads the
      demo store / builds a retrieval index over it / clones a teacher from it;
    * ``preloads_demos``: the demo store fills replay before the first step;
    * ``relabels``: replay batches gain hindsight-relabeled successes;
    * ``keeps_best``: the run ends on the parameters of its best evaluation;
    * ``default_lam`` / ``default_offline_steps``: the kind's published
      ``lam`` and ``offline_steps`` (see defaults_for).
    """

    kind: str
    head: str
    saved: tuple[str, ...]
    explores = False
    needs_demos = needs_index = needs_teacher = False
    preloads_demos = relabels = keeps_best = False
    default_lam = 0.0
    default_offline_steps = 0

    def phase(self, tick: int) -> str:
        return "online"

    @property
    def head_net(self) -> DenseNet:
        return getattr(self, self.head)

    def greedy(self, latent: np.ndarray) -> int:
        return greedy_action(self.head_net, latent)

    def update_targets(self) -> None:  # no target net
        pass

    def param_snapshot(self) -> dict[str, np.ndarray]:
        return {key: arr for name in self.saved
                for key, arr in net_to_arrays(getattr(self, name), name).items()}


class QLearner(Learner):
    """Value learner: one online net plus a target net.

    The target net changes only in update_targets, so its values are
    memoised per next-observation id (a batch without ids is computed
    afresh) in ``target_values``, cleared there.  A learner's batches come
    through one encoder, so equal ids mean equal latents.
    """

    kind = "cdql"
    head = "q"
    saved = ("q",)
    explores = True

    def __init__(self, latent_dim: int, n_actions: int, hp: Hyperparams, seed: int):
        self.hp = hp
        self.q = mlp(latent_dim, n_actions, hp.hidden, spawn_rng(seed, "init", "q1"))
        self.q_target = q_target = self.q.copy()  # closed over: a closure on self is a cycle
        self.target_values = RowMemo(lambda latents: forward_values(q_target, latents))
        self.opt = AdamState.for_params(self.q.param_arrays(), hp.learning_rate)

    def act(self, latent: np.ndarray, eps: float, rng: np.random.Generator) -> int:
        return act_eps_greedy(self.q, latent, eps, rng)

    def train_batch(self, batch: ArrayBatch) -> LossBreakdown:
        acts = online_forward(self.q, self.opt, batch)
        targets = clipped_target(batch, acts.values, self.target_values, self.hp.gamma)
        td = td_step(batch, targets, self.q, self.opt, acts)
        return LossBreakdown(td=td, total=td)

    def update_targets(self) -> None:
        soft_update(self.q_target, self.q, self.hp.tau)
        self.target_values.clear()


class HerLearner(QLearner):
    """cdql on replay batches extended with hindsight-relabeled successes."""

    kind = "her"
    relabels = True


class AdversarialKickstartLearner(QLearner):
    """cdql plus the retrieval-based penalty.

    The target net is constant between target updates, so its values over
    every index row (at the stored actions) are cached and refreshed exactly
    when the targets move; tests pin z_for_batch to an oracle that searches by
    a plain sort and runs the target net one row at a time.  Neighbour rows
    are memoised per observation id (see _neighbors).  train_batch is the one place
    that branches on ae_mode.  With lam == 0 the penalty machinery is skipped
    entirely and training steps are bit-for-bit vanilla.
    """

    kind = "cdql-ae"
    needs_demos = needs_index = True
    default_lam = 1.0

    def __init__(self, latent_dim: int, n_actions: int, hp: Hyperparams,
                 seed: int, index: LatentIndex):
        super().__init__(latent_dim, n_actions, hp, seed)
        if len(index) == 0:
            raise ValueError("cdql-ae needs a non-empty retrieval index")
        self.index = index
        self._neighbor_rows = np.full((0, min(hp.k_neighbors, len(index))), -1)
        self._generation = None
        self._demo_q: np.ndarray | None = None
        self._refresh_demo_cache()

    def _refresh_demo_cache(self) -> None:
        # The hidden layers run once per distinct latent (63 of 1,557 rows on
        # room-nav) and the output layer over every row, whose count its
        # rounding depends on: forward_values over every row, bit for bit.
        latents = self.index.latents
        values = forward(self.q_target, latents[:0], values_of=latents,
                         ids=self.index._row_distinct).values
        self._demo_q = values[np.arange(len(self.index)), self.index.actions]

    def update_targets(self) -> None:
        super().update_targets()
        self._refresh_demo_cache()

    def _neighbors(self, batch: ArrayBatch) -> np.ndarray:
        """(B, k) neighbour rows of each batch latent.

        They depend only on the fixed index and the latent, so row i of
        ``_neighbor_rows`` holds those of replay observation i (-1: not yet
        searched), in the numbering ``_generation``, and only new ids go to
        knn_batch, each once.  A batch without ids is searched afresh."""
        ids = batch.obs_ids
        if ids is None:
            return knn_batch(self.index, batch.latents, self.hp.k_neighbors)[0]
        if batch.generation is not self._generation:
            self._neighbor_rows, self._generation = self._neighbor_rows[:0], batch.generation
        self._neighbor_rows = grown(self._neighbor_rows, ids.max() + 1, -1)
        missing = np.flatnonzero(self._neighbor_rows[ids, 0] < 0)
        if len(missing):
            fresh, first = np.unique(ids[missing], return_index=True)
            self._neighbor_rows[fresh] = knn_batch(self.index, batch.latents[missing[first]],
                                                   self.hp.k_neighbors)[0]
        return self._neighbor_rows[ids]

    def z_for_batch(self, batch: ArrayBatch, neighbor_idx: np.ndarray) -> np.ndarray:
        return self._demo_q[neighbor_idx].mean(axis=1) - batch.rewards

    def train_batch(self, batch: ArrayBatch) -> LossBreakdown:
        if self.hp.lam == 0.0:
            return super().train_batch(batch)  # disabled penalty
        neighbor_idx = self._neighbors(batch)
        z = self.z_for_batch(batch, neighbor_idx)
        acts = online_forward(self.q, self.opt, batch)
        if self.hp.ae_mode == "target-shaping":
            targets = shaped_target(batch, z, self.hp.lam, acts.values, self.target_values,
                                    self.hp.gamma)
            td = td_step(batch, targets, self.q, self.opt, acts)
            return LossBreakdown(td=td, ae=float(z.mean()), total=td)

        targets = clipped_target(batch, acts.values, self.target_values, self.hp.gamma)
        td_loss, td_rows = td_loss_and_grad_rows(acts.final, batch.actions, targets)
        if self.hp.ae_mode == "q-regression":
            penalty, penalty_rows = q_regression_penalty(
                acts.final, batch.actions, z + batch.rewards, self.hp.lam)
        else:  # kl-penalty
            counts = neighbor_action_counts(self.index, neighbor_idx)
            penalty, penalty_rows = kl_penalty(acts.final, counts / neighbor_idx.shape[1],
                                               self.hp.lam)
        total = descend(self.q, self.opt, acts, td_loss + penalty, td_rows + penalty_rows)
        return LossBreakdown(td=td_loss, ae=float(z.mean()), total=total)


class QDaggerLearner(QLearner):
    """Value learner with a distillation pull toward a cloned teacher.

    The teacher is frozen once cloned, so its probabilities are memoised
    per observation id for the whole run.
    """

    kind = "qdagger"
    needs_demos = needs_teacher = True
    default_lam = 1.0
    default_offline_steps = 125_000

    def __init__(self, latent_dim: int, n_actions: int, hp: Hyperparams,
                 seed: int, teacher: DenseNet):
        super().__init__(latent_dim, n_actions, hp, seed)
        self.teacher = teacher
        self.teacher_probs = RowMemo(lambda latents: softmax(forward_values(teacher, latents)))

    def phase(self, tick: int) -> str:
        return qdagger_schedule(tick, self.hp)

    def teacher_action(self, latent: np.ndarray) -> int:
        return greedy_action(self.teacher, latent)

    def train_batch(self, batch: ArrayBatch) -> LossBreakdown:
        acts = online_forward(self.q, self.opt, batch)
        targets = clipped_target(batch, acts.values, self.target_values, self.hp.gamma)
        td_loss, td_rows = td_loss_and_grad_rows(acts.final, batch.actions, targets)
        p = self.teacher_probs(batch.latents, batch.obs_ids, batch.generation)
        d_value, d_rows = distill_loss_and_grad(p, acts.final,
                                                self.hp.distill_temperature)
        total = descend(self.q, self.opt, acts, td_loss + self.hp.lam * d_value,
                        td_rows + self.hp.lam * d_rows)
        return LossBreakdown(td=td_loss, distill=d_value, total=total)


class AwacLearner(Learner):
    """Discrete actor-critic with advantage-weighted policy regression."""

    kind = "awac"
    head = "actor"
    saved = ("actor", "critic")
    needs_demos = preloads_demos = True
    default_lam = 0.3
    default_offline_steps = 100_000

    def __init__(self, latent_dim: int, n_actions: int, hp: Hyperparams, seed: int):
        self.hp = hp
        self.actor = mlp(latent_dim, n_actions, hp.hidden, spawn_rng(seed, "init", "actor"))
        self.critic = mlp(latent_dim, n_actions, hp.hidden, spawn_rng(seed, "init", "critic"))
        self.critic_target = critic_target = self.critic.copy()
        self.target_values = RowMemo(lambda latents: forward_values(critic_target, latents))
        self.actor_opt = AdamState.for_params(self.actor.param_arrays(), hp.learning_rate)
        self.critic_opt = AdamState.for_params(self.critic.param_arrays(), hp.learning_rate)

    def phase(self, tick: int) -> str:
        return "offline" if tick < self.hp.offline_steps else "online"

    def act(self, latent: np.ndarray, eps: float, rng: np.random.Generator) -> int:
        # policy-head sampling; the eps argument is ignored by design
        probs = softmax(forward_values(self.actor, latent[None, :]))[0]
        return int(rng.choice(len(probs), p=probs))

    def train_batch(self, batch: ArrayBatch) -> LossBreakdown:
        return awac_update(batch, self.actor, self.critic, self.target_values,
                           self.hp.lam, self.actor_opt, self.critic_opt,
                           self.hp.gamma)

    def update_targets(self) -> None:
        soft_update(self.critic_target, self.critic, self.hp.tau)
        self.target_values.clear()


class BCLearner(Learner):
    """Supervised action prediction on demonstration batches; also clones
    qdagger's teacher (harness.train_bc_policy, init stream ``"teacher"``)."""

    kind = "bc"
    head = "policy"
    saved = ("policy",)
    needs_demos = keeps_best = True

    def __init__(self, latent_dim: int, n_actions: int, hp: Hyperparams, seed: int,
                 init_tag: str = "policy"):
        self.hp = hp
        self.policy = mlp(latent_dim, n_actions, hp.hidden, spawn_rng(seed, "init", init_tag))
        self.opt = AdamState.for_params(self.policy.param_arrays(), hp.learning_rate)
        self._best: tuple[float, np.ndarray] | None = None

    def evaluated(self, mean_return: float) -> None:
        """Keep the parameters if no earlier evaluation scored as high."""
        if self._best is None or mean_return > self._best[0]:
            self._best = (mean_return, self.policy.flat.copy())

    def restore_best(self) -> None:
        """Put back the kept parameters (none kept: no change)."""
        if self._best is not None:
            self.policy.flat[...] = self._best[1]

    def phase(self, tick: int) -> str:
        return "offline"

    def act(self, latent: np.ndarray, eps: float, rng: np.random.Generator) -> int:
        return greedy_action(self.policy, latent)  # argmax; no exploration head

    def train_batch(self, batch: ArrayBatch) -> LossBreakdown:
        loss = bc_update(batch, self.policy, self.opt)
        return LossBreakdown(actor=loss, total=loss)


LEARNERS: dict[str, type[Learner]] = {
    cls.kind: cls for cls in (QLearner, AdversarialKickstartLearner, QDaggerLearner,
                              AwacLearner, HerLearner, BCLearner)
}
AGENT_KINDS = tuple(LEARNERS)
