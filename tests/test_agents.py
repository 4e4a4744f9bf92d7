from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.stats

from kickrl import agents, demos, envs, harness, nets, retrieval
from kickrl.encoders import IdentityEncoder
from kickrl.nets import forward, forward_values, mlp
from kickrl.seeding import spawn_rng

from gradcheck import grad_check


def constant_qnet(biases) -> nets.DenseNet:
    biases = np.asarray(biases, dtype=np.float64)
    return nets.DenseNet([nets.Layer(np.zeros((2, len(biases))), biases, "linear")])


def make_batch(rng, n=8, dim=2, actions=3) -> agents.ArrayBatch:
    return agents.ArrayBatch(
        latents=rng.standard_normal((n, dim)),
        actions=rng.integers(0, actions, size=n),
        rewards=rng.standard_normal(n),
        next_latents=rng.standard_normal((n, dim)),
        terminated=(rng.random(n) < 0.3).astype(float),
        truncated=np.zeros(n),
    )


# -- hyperparameters ----------------------------------------------------------------


def test_per_kind_scaling_term_defaults() -> None:
    assert agents.defaults_for("cdql-ae").lam == 1.0
    assert agents.defaults_for("awac").lam == 0.3
    assert agents.defaults_for("qdagger").lam == 1.0
    assert agents.defaults_for("cdql").lam == 0.0


def test_published_step_budgets() -> None:
    hp = agents.defaults_for("qdagger")
    assert hp.buffer_capacity == 250_000
    assert hp.teacher_steps == 125_000
    assert hp.offline_steps == 125_000
    assert agents.defaults_for("awac").offline_steps == 100_000


def test_budget_co_scaling_follows_total_steps() -> None:
    hp = agents.scale_step_budgets(agents.defaults_for("qdagger"), 250_000)
    assert hp.teacher_steps == 12_500
    assert hp.offline_steps == 12_500
    assert hp.buffer_capacity == 25_000
    assert hp.target_update_period == 1000  # kept fixed


def test_scaling_never_shrinks_buffer_below_batch() -> None:
    hp = agents.scale_step_budgets(agents.defaults_for("cdql"), 100)
    assert hp.buffer_capacity >= hp.batch_size


def test_hyperparams_validation() -> None:
    with pytest.raises(ValueError):
        agents.Hyperparams(gamma=1.0)
    with pytest.raises(ValueError):
        agents.Hyperparams(lam=-0.1)
    with pytest.raises(ValueError):
        agents.Hyperparams(her_extra=-1)
    with pytest.raises(ValueError):
        agents.Hyperparams(learning_rate=0.0)
    for field, value in [("distill_temperature", 0.0), ("hidden", (16, 0)),
                         ("teacher_steps", -5), ("offline_steps", -3),
                         ("exploration_fraction", -1.0)]:
        with pytest.raises(ValueError, match=field):
            agents.Hyperparams(**{field: value})


FLOAT_HYPERPARAMS = ["gamma", "lam", "tau", "eps_start", "eps_end", "exploration_fraction",
                     "learning_rate", "distill_temperature"]


def test_the_float_hyperparams_are_the_listed_ones() -> None:
    assert FLOAT_HYPERPARAMS == [f.name for f in dataclasses.fields(agents.Hyperparams)
                                 if f.type == "float"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", FLOAT_HYPERPARAMS)
def test_non_finite_float_hyperparams_are_rejected_by_name(field, value) -> None:
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        agents.Hyperparams(**{field: value})


# -- schedules -------------------------------------------------------------------------


def test_eps_schedule_endpoints_and_midpoint() -> None:
    hp = agents.defaults_for("cdql")
    assert agents.eps_at(0, 100_000, hp) == 1.0
    assert agents.eps_at(5_000, 100_000, hp) == pytest.approx(0.525, abs=1e-12)
    assert agents.eps_at(10_000, 100_000, hp) == 0.05
    assert agents.eps_at(99_999, 100_000, hp) == 0.05


def test_eps_matches_closed_form_everywhere() -> None:
    hp = agents.defaults_for("cdql")
    total = 77_000
    window = hp.exploration_fraction * total
    for t in range(0, total, 613):
        expected = 0.05 if t >= window else 1.0 + (0.05 - 1.0) * t / window
        assert agents.eps_at(t, total, hp) == pytest.approx(expected, abs=1e-12)


def test_qdagger_schedule_phases() -> None:
    hp = agents.defaults_for("qdagger")
    hp.teacher_steps, hp.offline_steps = 100, 50
    assert agents.qdagger_schedule(0, hp) == "teacher-collect"
    assert agents.qdagger_schedule(99, hp) == "teacher-collect"
    assert agents.qdagger_schedule(100, hp) == "offline-distill"
    assert agents.qdagger_schedule(149, hp) == "offline-distill"
    assert agents.qdagger_schedule(150, hp) == "online"


# -- action selection -------------------------------------------------------------------


def test_greedy_action_takes_argmax() -> None:
    qnet = constant_qnet([0.1, 0.9, 0.3])
    assert agents.act_eps_greedy(qnet, np.zeros(2), 0.0, spawn_rng(0, "a")) == 1


def test_greedy_tie_breaks_to_lowest_index() -> None:
    qnet = constant_qnet([0.5, 0.5])
    assert agents.act_eps_greedy(qnet, np.zeros(2), 0.0, spawn_rng(0, "b")) == 0


def test_full_epsilon_is_uniform() -> None:
    qnet = constant_qnet([0.0, 1.0, 2.0, 3.0])
    rng = spawn_rng(0, "chi")
    draws = [agents.act_eps_greedy(qnet, np.zeros(2), 1.0, rng)
             for _ in range(10_000)]
    counts = np.bincount(draws, minlength=4)
    assert scipy.stats.chisquare(counts).pvalue > 0.01


# -- clipped targets -----------------------------------------------------------------------


def test_terminal_transitions_use_raw_reward() -> None:
    batch = agents.ArrayBatch(
        latents=np.zeros((1, 2)), actions=np.array([0]),
        rewards=np.array([1.0]), next_latents=np.zeros((1, 2)),
        terminated=np.array([1.0]), truncated=np.zeros(1))
    y = agents.clipped_target(batch, constant_qnet([2.0, 0.0]),
                              constant_qnet([3.0, 0.0]), 0.99)
    assert y[0] == 1.0


def test_min_then_discount() -> None:
    batch = agents.ArrayBatch(
        latents=np.zeros((1, 2)), actions=np.array([0]),
        rewards=np.array([0.0]), next_latents=np.zeros((1, 2)),
        terminated=np.zeros(1), truncated=np.zeros(1))
    y = agents.clipped_target(batch, constant_qnet([2.0, 0.0]),
                              constant_qnet([3.0, 0.0]), 0.99)
    assert y[0] == pytest.approx(1.98, abs=1e-12)


def test_identical_networks_reduce_to_single_network_target() -> None:
    rng = np.random.default_rng(0)
    qnet = mlp(2, 3, (8,), spawn_rng(2, "q"))
    batch = make_batch(rng)
    y = agents.clipped_target(batch, qnet, qnet, 0.99)
    next_q = forward(qnet, batch.next_latents).final
    vanilla = batch.rewards + 0.99 * next_q.max(axis=1) * (1 - batch.terminated)
    assert np.array_equal(y, vanilla)


def test_truncated_only_transitions_bootstrap_normally() -> None:
    batch = agents.ArrayBatch(
        latents=np.zeros((1, 2)), actions=np.array([0]),
        rewards=np.array([0.5]), next_latents=np.zeros((1, 2)),
        terminated=np.zeros(1), truncated=np.array([1.0]))
    y = agents.clipped_target(batch, constant_qnet([1.0, 0.0]),
                              constant_qnet([1.0, 0.0]), 0.9)
    assert y[0] == pytest.approx(0.5 + 0.9, abs=1e-12)


def test_clipped_target_dominated_by_both_single_network_targets() -> None:
    rng = np.random.default_rng(3)
    q1 = mlp(2, 3, (8,), spawn_rng(4, "a"))
    q2 = mlp(2, 3, (8,), spawn_rng(5, "b"))
    for _ in range(50):
        batch = make_batch(rng, n=16)
        y = agents.clipped_target(batch, q1, q2, 0.99)
        rows = np.arange(len(batch))
        nq1 = forward(q1, batch.next_latents).final
        a_star = np.argmax(nq1, axis=1)
        mask = 1 - batch.terminated
        t1 = batch.rewards + 0.99 * nq1[rows, a_star] * mask
        t2 = batch.rewards + 0.99 * forward(q2, batch.next_latents).final[rows, a_star] * mask
        assert np.all(y <= t1 + 1e-15)
        assert np.all(y <= t2 + 1e-15)


# -- td step ------------------------------------------------------------------------------


def test_td_loss_zero_when_predictions_match_targets() -> None:
    qnet = constant_qnet([0.7, 0.2])
    batch = agents.ArrayBatch(
        latents=np.zeros((4, 2)), actions=np.zeros(4, dtype=int),
        rewards=np.zeros(4), next_latents=np.zeros((4, 2)),
        terminated=np.zeros(4), truncated=np.zeros(4))
    before = [p.copy() for p in qnet.param_arrays()]
    opt = nets.AdamState.for_params(qnet.param_arrays())
    loss = agents.td_step(batch, np.full(4, 0.7), qnet, opt)
    assert loss == 0.0
    for p, b in zip(qnet.param_arrays(), before):
        assert np.array_equal(p, b)  # zero gradient, no movement


def test_td_loss_mean_of_squares() -> None:
    q_vals = np.array([[1.0, 0.0], [0.0, 2.0]])
    loss, _ = agents.td_loss_and_grad_rows(q_vals, np.array([0, 1]),
                                           np.array([0.0, 3.0]))
    assert loss == 1.0  # residuals [1, -1]


def test_td_gradients_match_finite_differences() -> None:
    rng = np.random.default_rng(6)
    qnet = mlp(3, 4, (6,), spawn_rng(7, "q"))
    latents = rng.standard_normal((5, 3))
    actions = rng.integers(0, 4, 5)
    targets = rng.standard_normal(5)

    def proc(net):
        acts = forward(net, latents)
        loss, grad_rows = agents.td_loss_and_grad_rows(acts.final, actions, targets)
        grads, _ = nets.backward(net, acts, grad_rows)
        return loss, grads

    assert grad_check(qnet, proc, tolerance=1e-4).passed


def test_td_step_rejects_non_finite_targets() -> None:
    qnet = constant_qnet([0.0, 0.0])
    batch = agents.ArrayBatch(
        latents=np.zeros((1, 2)), actions=np.array([0]), rewards=np.zeros(1),
        next_latents=np.zeros((1, 2)), terminated=np.zeros(1), truncated=np.zeros(1))
    opt = nets.AdamState.for_params(qnet.param_arrays())
    with pytest.raises(FloatingPointError):
        agents.td_step(batch, np.array([np.inf]), qnet, opt)


# -- adversarial estimates ----------------------------------------------------------------


def z_oracle(learner: agents.AdversarialKickstartLearner, batch: agents.ArrayBatch) -> np.ndarray:
    """z_for_batch row by row: neighbours by a plain sort of direct-form squared
    distances, values by a one-row forward of the target net."""
    index = learner.index
    k = min(learner.hp.k_neighbors, len(index))
    z = []
    for latent, reward in zip(batch.latents, batch.rewards):
        d2 = np.sum((index.latents - latent) ** 2, axis=1)
        rows = sorted(range(len(index)), key=lambda i: (d2[i], i))[:k]
        values = [forward(learner.q_target, index.latents[i][None, :]).final[0][index.actions[i]]
                  for i in rows]
        z.append(sum(values) / len(values) - reward)
    return np.array(z)


def _ae_learner(latents: np.ndarray, actions: np.ndarray, k: int,
                seed: int = 0) -> agents.AdversarialKickstartLearner:
    n, dim = latents.shape
    index = retrieval.LatentIndex(
        latents=latents, actions=actions, rewards=np.zeros(n),
        provenance=[(0, i) for i in range(n)], encoder_id=f"identity:{dim}",
        env_id="toy", action_count=4)
    hp = agents.Hyperparams(lam=1.0, k_neighbors=k, hidden=(8,))
    return agents.AdversarialKickstartLearner(dim, 4, hp, seed, index)


def _query_batch(latents: np.ndarray, rewards: np.ndarray) -> agents.ArrayBatch:
    n = len(latents)
    return agents.ArrayBatch(latents=latents, actions=np.zeros(n, dtype=np.int64),
                             rewards=np.asarray(rewards, dtype=np.float64),
                             next_latents=latents, terminated=np.zeros(n),
                             truncated=np.zeros(n))


def test_estimate_is_zero_when_reward_matches_neighbor_mean() -> None:
    learner = _ae_learner(np.arange(3, dtype=float)[:, None] * 0.001, np.array([0, 2, 1]), k=3)
    query = np.zeros((1, 1))
    mean = z_oracle(learner, _query_batch(query, [0.0]))[0]
    batch = _query_batch(query, [mean])
    z = learner.z_for_batch(batch, learner._neighbors(batch))
    assert z[0] == pytest.approx(0.0, abs=1e-12)


def test_single_neighbor_estimate_is_direct_difference() -> None:
    learner = _ae_learner(np.array([[0.3]]), np.array([2]), k=1)
    batch = _query_batch(np.array([[5.0]]), [0.25])
    z = learner.z_for_batch(batch, learner._neighbors(batch))
    assert z[0] == forward(learner.q_target, np.array([[0.3]])).final[0][2] - 0.25


def test_estimate_matches_direct_neighbor_loop() -> None:
    rng = np.random.default_rng(8)
    learner = _ae_learner(rng.standard_normal((60, 3)), rng.integers(0, 4, 60), k=8, seed=9)
    batch = _query_batch(rng.standard_normal((20, 3)), rng.standard_normal(20))
    z = learner.z_for_batch(batch, learner._neighbors(batch))
    assert np.allclose(z, z_oracle(learner, batch), rtol=0.0, atol=1e-12)


# -- applying the estimate ------------------------------------------------------------------


def _shaping_setup():
    rng = np.random.default_rng(10)
    q_online = mlp(2, 3, (8,), spawn_rng(11, "a"))
    q_target = mlp(2, 3, (8,), spawn_rng(12, "b"))
    batch = make_batch(rng)
    return batch, q_online, q_target


def test_lambda_zero_shaping_is_bitwise_vanilla() -> None:
    batch, q_online, q_target = _shaping_setup()
    z = np.random.default_rng(13).standard_normal(len(batch))
    shaped = agents.shaped_target(batch, z, 0.0, q_online, q_target, 0.99)
    vanilla = agents.clipped_target(batch, q_online, q_target, 0.99)
    assert np.array_equal(shaped, vanilla)


def test_zero_estimates_leave_targets_vanilla() -> None:
    batch, q_online, q_target = _shaping_setup()
    shaped = agents.shaped_target(batch, np.zeros(len(batch)), 1.0, q_online, q_target, 0.99)
    vanilla = agents.clipped_target(batch, q_online, q_target, 0.99)
    assert np.array_equal(shaped, vanilla)


def test_shaped_target_direct_formula() -> None:
    q_online = constant_qnet([0.5, 0.3])
    q_target = constant_qnet([0.6, 0.2])
    batch = agents.ArrayBatch(
        latents=np.zeros((1, 2)), actions=np.array([0]), rewards=np.array([0.0]),
        next_latents=np.zeros((1, 2)), terminated=np.zeros(1), truncated=np.zeros(1))
    shaped = agents.shaped_target(batch, np.array([0.4]), 1.0, q_online, q_target, 0.99)
    # bootstrap: argmax under online -> action 0; min(0.5, 0.6) = 0.5
    expected = (0.0 - 1.0 * 0.4) + 0.99 * 0.5
    assert shaped[0] == expected
    assert shaped[0] == pytest.approx(0.095, abs=1e-12)


def test_q_regression_penalty_value_and_gradient() -> None:
    batch, q_online, q_target = _shaping_setup()
    estimates = np.random.default_rng(14).standard_normal(len(batch)) + batch.rewards
    q_vals = forward(q_online, batch.latents).final
    penalty, _ = agents.q_regression_penalty(q_vals, batch.actions, estimates, 0.5)
    rows = np.arange(len(batch))
    expected = 0.5 * np.mean((q_vals[rows, batch.actions] - estimates) ** 2)
    assert penalty == pytest.approx(expected, abs=1e-12)

    targets = agents.clipped_target(batch, q_online, q_target, 0.99)

    def proc(net):
        acts = forward(net, batch.latents)
        td_loss, td_rows = agents.td_loss_and_grad_rows(acts.final, batch.actions, targets)
        loss, grad_rows = agents.q_regression_penalty(acts.final, batch.actions, estimates, 0.5)
        grads, _ = nets.backward(net, acts, td_rows + grad_rows)
        return td_loss + loss, grads

    assert grad_check(q_online, proc, tolerance=1e-4).passed


def test_kl_penalty_value_and_gradient() -> None:
    batch, q_online, q_target = _shaping_setup()
    rng = np.random.default_rng(15)
    search = rng.dirichlet(np.ones(3), size=len(batch))
    q_vals = forward(q_online, batch.latents).final
    penalty, _ = agents.kl_penalty(q_vals, search, 0.7)
    p = agents.softmax(q_vals)
    oracle = 0.7 * np.mean([scipy.stats.entropy(p[i], np.maximum(search[i], 1e-12))
                            for i in range(len(batch))])
    assert penalty == pytest.approx(oracle, rel=1e-9)

    targets = agents.clipped_target(batch, q_online, q_target, 0.99)

    def proc(net):
        acts = forward(net, batch.latents)
        td_loss, td_rows = agents.td_loss_and_grad_rows(acts.final, batch.actions, targets)
        loss, grad_rows = agents.kl_penalty(acts.final, search, 0.7)
        grads, _ = nets.backward(net, acts, td_rows + grad_rows)
        return td_loss + loss, grads

    assert grad_check(q_online, proc, tolerance=1e-4).passed


def test_unknown_mode_rejected() -> None:
    # the mode is checked once, when the hyperparameters are built
    for mode in ("bogus", "", "Target-Shaping", "kl_penalty"):
        with pytest.raises(ValueError, match="ae_mode"):
            agents.Hyperparams(ae_mode=mode)


def test_fixed_point_preserves_the_vanilla_td_value_in_every_mode() -> None:
    # rewards equal to the expert estimate make every z exactly zero; the
    # TD component must then be the untouched vanilla value in all modes
    batch, q_online, q_target = _shaping_setup()
    z = np.zeros(len(batch))
    vanilla_targets = agents.clipped_target(batch, q_online, q_target, 0.99)
    q_vals = forward(q_online, batch.latents).final
    vanilla_td, _ = agents.td_loss_and_grad_rows(q_vals, batch.actions,
                                                 vanilla_targets)

    shaped = agents.shaped_target(batch, z, 1.0, q_online, q_target, 0.99)
    shaped_td, _ = agents.td_loss_and_grad_rows(q_vals, batch.actions, shaped)
    assert shaped_td == vanilla_td  # bitwise: shaping collapses entirely

    # the penalties are additive; the vanilla TD term itself is untouched
    for penalty, _ in (agents.q_regression_penalty(q_vals, batch.actions, z + batch.rewards, 1.0),
                       agents.kl_penalty(q_vals, np.full((len(batch), 3), 1 / 3), 1.0)):
        td, _ = agents.td_loss_and_grad_rows(q_vals, batch.actions, vanilla_targets)
        assert td == vanilla_td
        assert np.isfinite(penalty)


# -- distillation -------------------------------------------------------------------------


def test_distill_zero_when_student_matches_teacher() -> None:
    logits = np.array([[0.3, -0.1, 2.0]])
    p = agents.softmax(logits)
    assert agents.distill_loss_and_grad(p, logits, 1.0)[0] == pytest.approx(0.0, abs=1e-12)


def test_distill_one_hot_against_uniform_is_log4() -> None:
    p = np.array([[1.0, 0.0, 0.0, 0.0]])
    assert agents.distill_loss_and_grad(p, np.zeros((1, 4)), 1.0)[0] == pytest.approx(
        np.log(4.0), abs=1e-12)


def test_distill_non_negative_on_random_pairs() -> None:
    rng = np.random.default_rng(16)
    for _ in range(50):
        p = rng.dirichlet(np.ones(5), size=4)
        logits = rng.standard_normal((4, 5)) * 3
        assert agents.distill_loss_and_grad(p, logits, 1.0)[0] >= -1e-9


def test_distill_matches_definition_oracle() -> None:
    rng = np.random.default_rng(17)
    p = rng.dirichlet(np.ones(4), size=6)
    logits = rng.standard_normal((6, 4))
    value = agents.distill_loss_and_grad(p, logits, 2.0)[0]
    s = agents.softmax(logits / 2.0)
    oracle = np.mean([scipy.stats.entropy(p[i], s[i]) for i in range(6)])
    assert value == pytest.approx(oracle, rel=1e-9)


def test_distill_gradient_matches_finite_differences() -> None:
    rng = np.random.default_rng(18)
    student = mlp(3, 4, (6,), spawn_rng(19, "s"))
    latents = rng.standard_normal((5, 3))
    p = rng.dirichlet(np.ones(4), size=5)

    def proc(net):
        acts = forward(net, latents)
        value, g_rows = agents.distill_loss_and_grad(p, acts.final, 1.0)
        grads, _ = nets.backward(net, acts, g_rows)
        return value, grads

    assert grad_check(student, proc, tolerance=1e-4).passed


# -- awac ---------------------------------------------------------------------------------


def test_weight_at_zero_advantage_is_exactly_one() -> None:
    assert agents.awac_weights(np.zeros(3), 0.3).tolist() == [1.0, 1.0, 1.0]


def test_weights_monotone_in_advantage() -> None:
    rng = np.random.default_rng(20)
    adv = np.sort(rng.standard_normal(100) * 10)
    w = agents.awac_weights(adv, 0.3)
    assert np.all(np.diff(w) >= 0)
    direct = np.minimum(np.exp(adv / 0.3), agents.WEIGHT_CAP)
    assert np.allclose(w, direct, rtol=1e-12)


def test_weights_capped_and_finite() -> None:
    w = agents.awac_weights(np.array([1e6, np.inf]), 0.3)
    assert np.all(w == agents.WEIGHT_CAP)
    assert np.all(np.isfinite(w))


def test_table_scaling_example() -> None:
    w = agents.awac_weights(np.array([0.3]), 0.3)
    assert w[0] == pytest.approx(np.e, abs=1e-12)


def test_actor_gradient_at_zero_advantage_is_plain_nll() -> None:
    rng = np.random.default_rng(21)
    batch = make_batch(rng, n=6, dim=2, actions=3)
    actor = mlp(2, 3, (8,), spawn_rng(22, "actor"))
    probs = agents.softmax(forward(actor, batch.latents).final)
    rows = np.arange(len(batch))
    w = agents.awac_weights(np.zeros(len(batch)), 0.3)
    assert np.all(w == 1.0)  # exp(0) exactly
    onehot = np.zeros_like(probs)
    onehot[rows, batch.actions] = 1.0
    weighted = w[:, None] * (probs - onehot)
    assert np.array_equal(weighted, probs - onehot)  # plain NLL gradient rows


def test_awac_update_runs_and_reports_losses() -> None:
    rng = np.random.default_rng(23)
    batch = make_batch(rng, n=8, dim=2, actions=3)
    actor = mlp(2, 3, (8,), spawn_rng(24, "a"))
    critic = mlp(2, 3, (8,), spawn_rng(25, "c"))
    target = critic.copy()
    a_opt = nets.AdamState.for_params(actor.param_arrays())
    c_opt = nets.AdamState.for_params(critic.param_arrays())
    breakdown = agents.awac_update(batch, actor, critic, target, 0.3, a_opt, c_opt, 0.99)
    assert breakdown.td is not None and breakdown.actor is not None
    assert breakdown.total == pytest.approx(breakdown.td + breakdown.actor)


def test_awac_actor_gradient_matches_finite_differences() -> None:
    rng = np.random.default_rng(26)
    batch = make_batch(rng, n=6, dim=2, actions=3)
    actor = mlp(2, 3, (6,), spawn_rng(27, "a"))
    weights = np.abs(rng.standard_normal(len(batch))) + 0.1  # frozen

    def proc(net):
        acts = forward(net, batch.latents)
        log_p = agents.log_softmax(acts.final)
        rows = np.arange(len(batch))
        loss = float(-np.mean(weights * log_p[rows, batch.actions]))
        probs = np.exp(log_p)
        onehot = np.zeros_like(probs)
        onehot[rows, batch.actions] = 1.0
        grads, _ = nets.backward(net, acts, weights[:, None] * (probs - onehot))
        return loss, grads

    assert grad_check(actor, proc, tolerance=1e-4).passed


# -- hindsight relabeling -----------------------------------------------------------------


def _filled_buffer(rng, n=50) -> harness.ReplayBuffer:
    buffer = harness.ReplayBuffer(capacity=100)
    for i in range(n):
        buffer.push(obs=rng.standard_normal(3), action=int(rng.integers(0, 4)),
                    reward=float(rng.standard_normal()), next_obs=rng.standard_normal(3),
                    terminated=False, truncated=bool(i % 7 == 0))
    return buffer


def test_her_appends_sixteen_relabeled_successes() -> None:
    rng = np.random.default_rng(28)
    buffer = _filled_buffer(rng)
    slots = np.arange(32)
    out = agents.her_augment(slots, len(buffer), 16, spawn_rng(1, "her"))
    assert out.shape == (48,) and out.dtype == np.int64
    assert np.array_equal(out[:32], slots)  # originals untouched, prefix equality
    batch = harness.replay_batch(buffer, 32, spawn_rng(1, "s"), IdentityEncoder(3), 16,
                                 spawn_rng(1, "her"))
    assert np.all(batch.rewards[32:] == 1.0)
    assert np.all(batch.terminated[32:] == 1.0) and np.all(batch.truncated[32:] == 0.0)


def test_her_zero_extra_is_identity() -> None:
    slots = np.arange(5)
    rng = spawn_rng(2, "her")
    before = rng.bit_generator.state
    assert agents.her_augment(slots, 50, 0, rng) is slots
    assert rng.bit_generator.state == before  # no draw


def test_her_relabels_regardless_of_original_reward() -> None:
    rng = np.random.default_rng(30)
    buffer = _filled_buffer(rng)
    encoder = IdentityEncoder(3)
    out = harness.replay_batch(buffer, 0, spawn_rng(3, "s"), encoder, 16, spawn_rng(3, "her"))
    originals = buffer.take(agents.her_augment(np.arange(0), len(buffer), 16,
                                               spawn_rng(3, "her")), encoder)
    assert np.all(originals.rewards != 1.0)
    assert np.all(out.rewards == 1.0)
    assert np.array_equal(out.actions, originals.actions)


def test_her_samples_with_replacement_from_small_buffers() -> None:
    out = agents.her_augment(np.arange(0), 3, 16, spawn_rng(4, "her"))
    assert len(out) == 16
    assert set(out.tolist()) <= {0, 1, 2}


def test_her_does_not_mutate_buffer_contents() -> None:
    rng = np.random.default_rng(32)
    buffer = _filled_buffer(rng)
    every = np.arange(len(buffer))
    rewards_before = buffer.take(every, IdentityEncoder(3)).rewards
    harness.replay_batch(buffer, 32, spawn_rng(5, "s"), IdentityEncoder(3), 16,
                         spawn_rng(5, "her"))
    assert np.array_equal(buffer.take(every, IdentityEncoder(3)).rewards, rewards_before)


# -- behavioral cloning -------------------------------------------------------------------


def test_bc_perfect_match_drives_loss_to_zero() -> None:
    # logits with margin >= 20 on the demo action
    logits = np.full((4, 3), -10.0)
    actions = np.array([0, 1, 2, 0])
    logits[np.arange(4), actions] = 10.0
    net = nets.DenseNet([nets.Layer(np.zeros((2, 3)), np.zeros(3), "linear")])
    # evaluate the loss directly at the crafted logits
    log_p = agents.log_softmax(logits)
    loss = float(-np.mean(log_p[np.arange(4), actions]))
    assert loss <= 1e-6


def test_bc_uniform_policy_pays_log4() -> None:
    policy = constant_qnet([0.0, 0.0, 0.0, 0.0])
    batch = agents.ArrayBatch(
        latents=np.zeros((5, 2)), actions=np.array([0, 1, 2, 3, 0]),
        rewards=np.zeros(5), next_latents=np.zeros((5, 2)),
        terminated=np.zeros(5), truncated=np.zeros(5))
    opt = nets.AdamState.for_params(policy.param_arrays())
    loss = agents.bc_update(batch, policy, opt)
    assert loss == pytest.approx(np.log(4.0), abs=1e-12)


def test_bc_gradient_matches_finite_differences() -> None:
    rng = np.random.default_rng(33)
    policy = mlp(3, 4, (6,), spawn_rng(34, "p"))
    latents = rng.standard_normal((5, 3))
    actions = rng.integers(0, 4, 5)

    def proc(net):
        acts = forward(net, latents)
        log_p = agents.log_softmax(acts.final)
        rows = np.arange(5)
        loss = float(-np.mean(log_p[rows, actions]))
        grad_rows = np.exp(log_p)
        grad_rows[rows, actions] -= 1.0
        grads, _ = nets.backward(net, acts, grad_rows)
        return loss, grads

    assert grad_check(policy, proc, tolerance=1e-4).passed


# -- learners --------------------------------------------------------------------------------


def test_ae_learner_cached_estimates_match_contract_path(room_store) -> None:
    encoder = IdentityEncoder(room_store.obs_dim)
    index = retrieval.build_index(room_store, encoder)
    learner = agents.AdversarialKickstartLearner(room_store.obs_dim, 4,
                                                 agents.defaults_for("cdql-ae"), 0, index)
    batch = agents.ArrayBatch.from_transitions(list(room_store.transitions())[:16], encoder)
    z = learner.z_for_batch(batch, learner._neighbors(batch))
    assert np.allclose(z, z_oracle(learner, batch), rtol=0.0, atol=1e-12)


def _demo_index(case: str, four_rooms_vae) -> retrieval.LatentIndex:
    """The benchmark's stores (room-nav: 63 distinct latents in 1,557 rows;
    four-rooms: 2,338 rows), or one latent repeated over 40 rows."""
    if case == "one-latent":
        latents = np.repeat(np.random.default_rng(95).standard_normal((1, 16)), 40, axis=0)
        return retrieval.LatentIndex(latents=latents, actions=np.arange(40) % 4,
                                     rewards=np.zeros(40), provenance=[(0, t) for t in range(40)],
                                     encoder_id="test", env_id="toy", action_count=4)
    spec = envs.make_room_nav() if case == "room-identity" else envs.make_four_rooms()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", demos.DemoBudgetWarning)
        store = demos.generate_demos(spec, 0.1, 200, 11)
    encoder = IdentityEncoder(spec.obs_dim) if case == "room-identity" else four_rooms_vae
    return retrieval.build_index(store, encoder)


@pytest.mark.parametrize("case", ["room-identity", "four-rooms-vae", "one-latent"])
def test_demo_q_table_is_a_forward_over_every_index_row(case, four_rooms_vae) -> None:
    """The refresh runs the hidden layers once per distinct latent; the table
    equals the target net's values over every row at the stored actions, bit
    for bit, after set-up and after each target update."""
    index = _demo_index(case, four_rooms_vae)
    hp = agents.defaults_for("cdql-ae")
    hp.learning_rate = 1e-2
    learner = agents.AdversarialKickstartLearner(index.dim, 4, hp, 3, index)
    batch = _query_batch(index.latents[:32], np.ones(min(32, len(index))))
    previous = None
    for update in range(3):
        if update:
            learner.train_batch(batch)
            learner.update_targets()
            assert not np.array_equal(learner._demo_q, previous)
        values = forward_values(learner.q_target, index.latents)
        assert np.array_equal(learner._demo_q, values[np.arange(len(index)), index.actions]), (
            case, update)
        previous = learner._demo_q


def test_ae_learner_lambda_zero_steps_are_bitwise_vanilla(room_store) -> None:
    encoder = IdentityEncoder(room_store.obs_dim)
    index = retrieval.build_index(room_store, encoder)
    hp0 = agents.defaults_for("cdql-ae")
    hp0.lam = 0.0
    ae = agents.AdversarialKickstartLearner(room_store.obs_dim, 4, hp0, 7, index)
    vanilla = agents.QLearner(room_store.obs_dim, 4, agents.defaults_for("cdql"), 7)
    transitions = list(room_store.transitions())[:32]
    batch = agents.ArrayBatch.from_transitions(transitions, encoder)
    for _ in range(5):
        ae.train_batch(batch)
        vanilla.train_batch(batch)
    for a, b in zip(ae.q.param_arrays(), vanilla.q.param_arrays()):
        assert np.array_equal(a, b)


def test_qdagger_learner_combines_td_and_distill(room_store) -> None:
    encoder = IdentityEncoder(room_store.obs_dim)
    hp = agents.defaults_for("qdagger")
    teacher = mlp(room_store.obs_dim, 4, (16,), spawn_rng(40, "t"))
    learner = agents.QDaggerLearner(room_store.obs_dim, 4, hp, 0, teacher)
    batch = agents.ArrayBatch.from_transitions(
        list(room_store.transitions())[:8], encoder)
    breakdown = learner.train_batch(batch)
    assert breakdown.distill is not None
    assert breakdown.total == pytest.approx(
        breakdown.td + hp.lam * breakdown.distill, abs=1e-12)


def test_qdagger_combined_gradient_matches_finite_differences() -> None:
    rng = np.random.default_rng(41)
    student = mlp(3, 4, (6,), spawn_rng(42, "s"))
    teacher_probs = rng.dirichlet(np.ones(4), size=5)
    latents = rng.standard_normal((5, 3))
    actions = rng.integers(0, 4, 5)
    targets = rng.standard_normal(5)
    lam = 1.0

    def proc(net):
        acts = forward(net, latents)
        td_loss, td_rows = agents.td_loss_and_grad_rows(acts.final, actions, targets)
        d_val, d_rows = agents.distill_loss_and_grad(teacher_probs, acts.final, 1.0)
        grads, _ = nets.backward(net, acts, td_rows + lam * d_rows)
        return td_loss + lam * d_val, grads

    assert grad_check(student, proc, tolerance=1e-4).passed


# -- memoised frozen nets -----------------------------------------------------------------


def _replay_like_batch(rng, n_distinct=5, n=32, dim=6, actions=4) -> agents.ArrayBatch:
    """A batch whose latents repeat, as grid-world latents do."""
    pool = rng.integers(0, 2, size=(n_distinct, dim)).astype(np.float64)
    return agents.ArrayBatch(
        latents=pool[rng.integers(0, n_distinct, n)],
        actions=rng.integers(0, actions, n),
        rewards=rng.standard_normal(n),
        next_latents=pool[rng.integers(0, n_distinct, n)],
        terminated=np.zeros(n),
        truncated=np.zeros(n),
    )


@pytest.mark.parametrize("tau", [1.0, 0.3])
@pytest.mark.parametrize("kind", ["cdql", "awac"])
def test_target_values_equal_a_fresh_forward_after_update_targets(kind, tau) -> None:
    rng = np.random.default_rng(90)
    hp = agents.defaults_for(kind)
    hp.tau, hp.hidden, hp.learning_rate = tau, (16,), 1e-2
    learner = agents.LEARNERS[kind](6, 4, hp, 0)
    target = learner.critic_target if kind == "awac" else learner.q_target
    batch = _replay_like_batch(rng)
    for _ in range(3):
        for _ in range(4):
            learner.train_batch(batch)  # fills the memo and moves the online net
        learner.update_targets()
        fresh = forward(target, batch.next_latents).final
        assert np.array_equal(learner.target_values(batch.next_latents), fresh)
        online = learner.critic if kind == "awac" else learner.q
        assert np.array_equal(
            agents.clipped_target(batch, online, learner.target_values, hp.gamma),
            agents.clipped_target(batch, online, target, hp.gamma))


def test_qdagger_teacher_probs_equal_a_fresh_forward(room_store) -> None:
    encoder = IdentityEncoder(room_store.obs_dim)
    teacher = mlp(room_store.obs_dim, 4, (16,), spawn_rng(91, "t"))
    learner = agents.QDaggerLearner(room_store.obs_dim, 4, agents.defaults_for("qdagger"),
                                    0, teacher)
    transitions = list(room_store.transitions())
    for start in range(0, 96, 32):
        batch = agents.ArrayBatch.from_transitions(transitions[start:start + 32], encoder)
        for _ in range(2):
            assert np.array_equal(learner.teacher_probs(batch.latents),
                                  agents.softmax(forward(teacher, batch.latents).final))
            learner.train_batch(batch)


def test_from_transitions_numbers_observations_by_their_bytes() -> None:
    """obs and next_obs share one numbering: equal ids exactly when the rows
    have equal bytes (0.0 and -0.0 apart), and take keeps the ids."""
    rng = np.random.default_rng(96)
    pool = np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, 3.0], [0.0, 1.0]])
    transitions = [demos.Transition(pool[rng.integers(4)], t % 4, 0.0, pool[rng.integers(4)],
                                    False, False, t) for t in range(24)]
    batch = agents.ArrayBatch.from_transitions(transitions, IdentityEncoder(2))
    rows = [tr.obs for tr in transitions] + [tr.next_obs for tr in transitions]
    ids = np.concatenate([batch.obs_ids, batch.next_obs_ids])
    assert sorted(set(ids)) == [0, 1, 2]
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            assert (ids[i] == ids[j]) == (a.tobytes() == b.tobytes())
    idx = rng.integers(0, len(batch), 10)
    taken = batch.take(idx)
    assert np.array_equal(taken.obs_ids, batch.obs_ids[idx])
    assert np.array_equal(taken.next_obs_ids, batch.next_obs_ids[idx])
    assert taken.generation is batch.generation is not None


def test_awac_on_demo_batches_with_ids_trains_bitwise_like_without(room_store) -> None:
    """The offline phase's batches carry ids, which key the target memo and
    the shared online forward; a twin fed the same batches without ids, and
    so with fresh forwards, ends with the same bytes."""
    encoder = IdentityEncoder(room_store.obs_dim)
    demo = agents.ArrayBatch.from_transitions(list(room_store.transitions()), encoder)
    hp = dataclasses.replace(agents.defaults_for("awac"), hidden=(32, 32))
    by_id, bare = (agents.AwacLearner(room_store.obs_dim, 4, hp, 5) for _ in range(2))
    rng = np.random.default_rng(97)
    for step in range(1, 41):
        batch = demo.take(rng.integers(0, len(demo), 16))
        assert by_id.train_batch(batch) == bare.train_batch(
            dataclasses.replace(batch, obs_ids=None, next_obs_ids=None, generation=None))
        if step % 8 == 0:
            by_id.update_targets()
            bare.update_targets()
    for net in ("actor", "critic", "critic_target"):
        assert getattr(by_id, net).flat.tobytes() == getattr(bare, net).flat.tobytes(), net


def test_awac_forwards_the_critic_over_the_batch_once(monkeypatch) -> None:
    rng = np.random.default_rng(92)
    batch = _replay_like_batch(rng, n=8)
    actor = mlp(6, 4, (8,), spawn_rng(93, "a"))
    critic = mlp(6, 4, (8,), spawn_rng(94, "c"))
    seen = []
    real_forward = agents.forward

    def spy(net, x, **kwargs):
        seen.append((net is critic, x is batch.latents))
        return real_forward(net, x, **kwargs)

    monkeypatch.setattr(agents, "forward", spy)
    agents.awac_update(batch, actor, critic, critic.copy(), 0.3,
                       nets.AdamState.for_params(actor.param_arrays()),
                       nets.AdamState.for_params(critic.param_arrays()), 0.99)
    assert seen.count((True, True)) == 1
