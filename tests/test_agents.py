from __future__ import annotations

import numpy as np
import pytest
import scipy.stats

from kickrl import agents, nets, retrieval
from kickrl.demos import Transition
from kickrl.encoders import IdentityEncoder
from kickrl.harness import ReplayBuffer
from kickrl.nets import forward, grad_check, mlp
from kickrl.seeding import spawn_rng


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
        agents.Hyperparams(ae_mode="bogus")
    with pytest.raises(ValueError):
        agents.Hyperparams(knn_metric="l1")
    with pytest.raises(ValueError):
        agents.Hyperparams(her_extra=-1)
    with pytest.raises(ValueError):
        agents.Hyperparams(learning_rate=0.0)


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


def _toy_index(values=(0.5, 0.7, 0.9)) -> retrieval.LatentIndex:
    n = len(values)
    return retrieval.LatentIndex(
        latents=np.arange(n, dtype=float)[:, None] * 0.001,
        actions=np.zeros(n, dtype=int), rewards=np.zeros(n),
        provenance=[(0, i) for i in range(n)], encoder_id="identity:1",
        env_id="toy", action_count=2)


def test_estimate_is_zero_when_reward_matches_neighbor_mean() -> None:
    index = _toy_index()
    values = {i: v for i, v in enumerate((0.5, 0.7, 0.9))}
    tr = Transition(obs=np.array([0.0]), action=0, reward=0.7,
                    next_obs=np.array([0.0]), terminated=False, truncated=False, t=0)
    z = agents.adversarial_estimate(
        tr, index, lambda latent, a: values[round(float(latent[0]) / 0.001)],
        IdentityEncoder(1), k=3)
    assert z == pytest.approx(0.0, abs=1e-12)


def test_single_neighbor_estimate_is_direct_difference() -> None:
    index = _toy_index(values=(1.0,))
    tr = Transition(obs=np.array([0.0]), action=0, reward=0.0,
                    next_obs=np.array([0.0]), terminated=False, truncated=False, t=0)
    z = agents.adversarial_estimate(tr, index, lambda latent, a: 1.0,
                                    IdentityEncoder(1), k=1)
    assert z == 1.0


def test_estimate_matches_direct_neighbor_loop() -> None:
    rng = np.random.default_rng(8)
    index = retrieval.LatentIndex(
        latents=rng.standard_normal((60, 3)),
        actions=rng.integers(0, 4, 60), rewards=np.zeros(60),
        provenance=[(0, i) for i in range(60)], encoder_id="identity:3",
        env_id="toy", action_count=4)
    qnet = mlp(3, 4, (8,), spawn_rng(9, "q"))

    def q_eval(latent, action):
        return float(forward(qnet, latent[None, :]).final[0][action])

    for seed in range(20):
        obs = np.random.default_rng(seed).standard_normal(3)
        reward = float(np.random.default_rng(seed + 999).standard_normal())
        tr = Transition(obs=obs, action=0, reward=reward, next_obs=obs,
                        terminated=False, truncated=False, t=0)
        z = agents.adversarial_estimate(tr, index, q_eval, IdentityEncoder(3), k=8)
        res = retrieval.knn(index, obs, 8)
        direct = np.mean([q_eval(index.latents[i], int(index.actions[i]))
                          for i in res.indices]) - reward
        assert z == pytest.approx(direct, abs=1e-12)


# -- ae_apply ----------------------------------------------------------------------------


def _shaping_setup():
    rng = np.random.default_rng(10)
    q_online = mlp(2, 3, (8,), spawn_rng(11, "a"))
    q_target = mlp(2, 3, (8,), spawn_rng(12, "b"))
    batch = make_batch(rng)
    return batch, q_online, q_target


def test_lambda_zero_shaping_is_bitwise_vanilla() -> None:
    batch, q_online, q_target = _shaping_setup()
    z = np.random.default_rng(13).standard_normal(len(batch))
    app = agents.ae_apply(batch, z, 0.0, "target-shaping", q_online, q_target, 0.99)
    vanilla = agents.clipped_target(batch, q_online, q_target, 0.99)
    assert np.array_equal(app.targets, vanilla)


def test_zero_estimates_leave_targets_vanilla() -> None:
    batch, q_online, q_target = _shaping_setup()
    app = agents.ae_apply(batch, np.zeros(len(batch)), 1.0, "target-shaping",
                          q_online, q_target, 0.99)
    vanilla = agents.clipped_target(batch, q_online, q_target, 0.99)
    assert np.array_equal(app.targets, vanilla)


def test_shaped_target_direct_formula() -> None:
    q_online = constant_qnet([0.5, 0.3])
    q_target = constant_qnet([0.6, 0.2])
    batch = agents.ArrayBatch(
        latents=np.zeros((1, 2)), actions=np.array([0]), rewards=np.array([0.0]),
        next_latents=np.zeros((1, 2)), terminated=np.zeros(1), truncated=np.zeros(1))
    app = agents.ae_apply(batch, np.array([0.4]), 1.0, "target-shaping",
                          q_online, q_target, 0.99)
    # bootstrap: argmax under online -> action 0; min(0.5, 0.6) = 0.5
    expected = (0.0 - 1.0 * 0.4) + 0.99 * 0.5
    assert app.targets[0] == expected
    assert app.targets[0] == pytest.approx(0.095, abs=1e-12)


def test_q_regression_penalty_value_and_gradient() -> None:
    batch, q_online, q_target = _shaping_setup()
    z = np.random.default_rng(14).standard_normal(len(batch))
    q_vals = forward(q_online, batch.latents).final
    app = agents.ae_apply(batch, z, 0.5, "q-regression", q_online, q_target,
                          0.99, q_values=q_vals)
    rows = np.arange(len(batch))
    estimates = z + batch.rewards
    expected = 0.5 * np.mean((q_vals[rows, batch.actions] - estimates) ** 2)
    assert app.penalty_loss == pytest.approx(expected, abs=1e-12)

    targets = agents.clipped_target(batch, q_online, q_target, 0.99)

    def proc(net):
        acts = forward(net, batch.latents)
        td_loss, td_rows = agents.td_loss_and_grad_rows(acts.final, batch.actions, targets)
        a = agents.ae_apply(batch, z, 0.5, "q-regression", net, q_target, 0.99,
                            q_values=acts.final)
        grads, _ = nets.backward(net, acts, td_rows + a.penalty_grad_rows)
        return td_loss + a.penalty_loss, grads

    assert grad_check(q_online, proc, tolerance=1e-4).passed


def test_kl_penalty_value_and_gradient() -> None:
    batch, q_online, q_target = _shaping_setup()
    z = np.zeros(len(batch))
    rng = np.random.default_rng(15)
    search = rng.dirichlet(np.ones(3), size=len(batch))
    q_vals = forward(q_online, batch.latents).final
    app = agents.ae_apply(batch, z, 0.7, "kl-penalty", q_online, q_target, 0.99,
                          q_values=q_vals, search_probs=search)
    p = agents.softmax(q_vals)
    oracle = 0.7 * np.mean([scipy.stats.entropy(p[i], np.maximum(search[i], 1e-12))
                            for i in range(len(batch))])
    assert app.penalty_loss == pytest.approx(oracle, rel=1e-9)

    targets = agents.clipped_target(batch, q_online, q_target, 0.99)

    def proc(net):
        acts = forward(net, batch.latents)
        td_loss, td_rows = agents.td_loss_and_grad_rows(acts.final, batch.actions, targets)
        a = agents.ae_apply(batch, z, 0.7, "kl-penalty", net, q_target, 0.99,
                            q_values=acts.final, search_probs=search)
        grads, _ = nets.backward(net, acts, td_rows + a.penalty_grad_rows)
        return td_loss + a.penalty_loss, grads

    assert grad_check(q_online, proc, tolerance=1e-4).passed


def test_unknown_mode_rejected() -> None:
    batch, q_online, q_target = _shaping_setup()
    with pytest.raises(ValueError):
        agents.ae_apply(batch, np.zeros(len(batch)), 1.0, "bogus",
                        q_online, q_target, 0.99)


def test_fixed_point_preserves_the_vanilla_td_value_in_every_mode() -> None:
    # rewards equal to the expert estimate make every z exactly zero; the
    # TD component must then be the untouched vanilla value in all modes
    batch, q_online, q_target = _shaping_setup()
    z = np.zeros(len(batch))
    vanilla_targets = agents.clipped_target(batch, q_online, q_target, 0.99)
    q_vals = forward(q_online, batch.latents).final
    vanilla_td, _ = agents.td_loss_and_grad_rows(q_vals, batch.actions,
                                                 vanilla_targets)

    shaped = agents.ae_apply(batch, z, 1.0, "target-shaping",
                             q_online, q_target, 0.99)
    shaped_td, _ = agents.td_loss_and_grad_rows(q_vals, batch.actions,
                                                shaped.targets)
    assert shaped_td == vanilla_td  # bitwise: shaping collapses entirely

    for mode, extra in (("q-regression", {}),
                        ("kl-penalty", {"search_probs": np.full((len(batch), 3), 1 / 3)})):
        app = agents.ae_apply(batch, z, 1.0, mode, q_online, q_target, 0.99,
                              q_values=q_vals, **extra)
        # the penalty is additive; the vanilla TD term itself is untouched
        td, _ = agents.td_loss_and_grad_rows(q_vals, batch.actions, vanilla_targets)
        assert td == vanilla_td
        assert np.isfinite(app.penalty_loss)


# -- distillation -------------------------------------------------------------------------


def test_distill_zero_when_student_matches_teacher() -> None:
    logits = np.array([[0.3, -0.1, 2.0]])
    p = agents.softmax(logits)
    assert agents.distill_loss(p, logits, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_distill_one_hot_against_uniform_is_log4() -> None:
    p = np.array([[1.0, 0.0, 0.0, 0.0]])
    assert agents.distill_loss(p, np.zeros((1, 4)), 1.0) == pytest.approx(
        np.log(4.0), abs=1e-12)


def test_distill_non_negative_on_random_pairs() -> None:
    rng = np.random.default_rng(16)
    for _ in range(50):
        p = rng.dirichlet(np.ones(5), size=4)
        logits = rng.standard_normal((4, 5)) * 3
        assert agents.distill_loss(p, logits, 1.0) >= -1e-9


def test_distill_matches_definition_oracle() -> None:
    rng = np.random.default_rng(17)
    p = rng.dirichlet(np.ones(4), size=6)
    logits = rng.standard_normal((6, 4))
    value = agents.distill_loss(p, logits, 2.0)
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


def _filled_buffer(rng, n=50) -> ReplayBuffer:
    buffer = ReplayBuffer(capacity=100)
    for i in range(n):
        buffer.push(Transition(
            obs=rng.standard_normal(3), action=int(rng.integers(0, 4)),
            reward=float(rng.standard_normal()), next_obs=rng.standard_normal(3),
            terminated=False, truncated=bool(i % 7 == 0), t=i))
    return buffer


def test_her_appends_sixteen_relabeled_successes() -> None:
    rng = np.random.default_rng(28)
    buffer = _filled_buffer(rng)
    batch = [buffer.transitions[i] for i in range(32)]
    out = agents.her_augment(batch, buffer, 16, spawn_rng(1, "her"))
    assert len(out) == 48
    assert out[:32] == batch  # originals untouched, prefix equality
    for tr in out[32:]:
        assert tr.reward == 1.0
        assert tr.terminated and not tr.truncated


def test_her_zero_extra_is_identity() -> None:
    rng = np.random.default_rng(29)
    buffer = _filled_buffer(rng)
    batch = [buffer.transitions[0]]
    assert agents.her_augment(batch, buffer, 0, spawn_rng(2, "her")) == batch


def test_her_relabels_regardless_of_original_reward() -> None:
    rng = np.random.default_rng(30)
    buffer = _filled_buffer(rng)
    out = agents.her_augment([], buffer, 16, spawn_rng(3, "her"))
    assert all(tr.reward == 1.0 for tr in out)


def test_her_samples_with_replacement_from_small_buffers() -> None:
    rng = np.random.default_rng(31)
    buffer = _filled_buffer(rng, n=3)
    out = agents.her_augment([], buffer, 16, spawn_rng(4, "her"))
    assert len(out) == 16


def test_her_does_not_mutate_buffer_contents() -> None:
    rng = np.random.default_rng(32)
    buffer = _filled_buffer(rng)
    rewards_before = [tr.reward for tr in buffer.transitions]
    agents.her_augment([], buffer, 16, spawn_rng(5, "her"))
    assert [tr.reward for tr in buffer.transitions] == rewards_before


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


# -- discounted return ----------------------------------------------------------------------


def test_discounted_return_direct_sum() -> None:
    assert agents.discounted_return([0, 0, 1], 0.99) == 0.99 * 0.99


def test_discount_zero_keeps_first_reward_only() -> None:
    assert agents.discounted_return([0.3, 5.0, 5.0], 0.0) == 0.3


def test_discounted_return_matches_term_by_term_oracle() -> None:
    rng = np.random.default_rng(35)
    for _ in range(20):
        rewards = rng.standard_normal(rng.integers(1, 30))
        gamma = float(rng.random())
        oracle = float(np.sum(rewards * gamma ** np.arange(len(rewards))))
        assert agents.discounted_return(rewards, gamma) == pytest.approx(oracle, abs=1e-12)


# -- learners --------------------------------------------------------------------------------


def test_ae_learner_cached_estimates_match_contract_path(room_store) -> None:
    encoder = IdentityEncoder(room_store.obs_dim)
    index = retrieval.build_index(room_store, encoder)
    hp = agents.defaults_for("cdql-ae")
    learner = agents.AdversarialKickstartLearner(room_store.obs_dim, 4, hp, 0, index)
    transitions = list(room_store.transitions())[:16]
    batch = agents.ArrayBatch.from_transitions(transitions, encoder)
    neighbor_idx = learner._neighbors(batch)
    z_fast = learner.z_for_batch(batch, neighbor_idx)

    def q_eval(latent, action):
        return float(forward(learner.q_target, latent[None, :]).final[0][action])

    for i, tr in enumerate(transitions):
        z_slow = agents.adversarial_estimate(tr, index, q_eval, encoder,
                                             hp.k_neighbors)
        assert z_fast[i] == pytest.approx(z_slow, abs=1e-12)


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


def test_awac_forwards_the_critic_over_the_batch_once(monkeypatch) -> None:
    rng = np.random.default_rng(92)
    batch = _replay_like_batch(rng, n=8)
    actor = mlp(6, 4, (8,), spawn_rng(93, "a"))
    critic = mlp(6, 4, (8,), spawn_rng(94, "c"))
    seen = []
    real_forward = agents.forward

    def spy(net, x):
        seen.append((net is critic, x is batch.latents))
        return real_forward(net, x)

    monkeypatch.setattr(agents, "forward", spy)
    agents.awac_update(batch, actor, critic, critic.copy(), 0.3,
                       nets.AdamState.for_params(actor.param_arrays()),
                       nets.AdamState.for_params(critic.param_arrays()), 0.99)
    assert seen.count((True, True)) == 1
