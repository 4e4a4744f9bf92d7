from __future__ import annotations

import math
import os
import signal
import threading

import numpy as np
import pytest

from kickrl import agents, demos, envs, harness, nets
from kickrl.encoders import IdentityEncoder
from kickrl.errors import ConfigError
from kickrl.seeding import spawn_rng, spawn_seed


def _tr(i: int) -> tuple:
    """The fields ReplayBuffer.push takes: obs, action, reward (i), next_obs,
    terminated, truncated."""
    return np.array([float(i)]), 0, float(i), np.array([float(i + 1)]), False, False


def tiny_cfg(tmp_path, agent="cdql", total=1200, seed=1, demo_path=None,
             **overrides) -> harness.RunConfig:
    hp = agents.scale_step_budgets(agents.defaults_for(agent), total)
    for key, value in overrides.items():
        setattr(hp, key, value)
    return harness.RunConfig(
        env_name="room-nav", agent=agent, total_steps=total, seed=seed,
        out_dir=str(tmp_path / f"{agent}-{seed}"), hp=hp, demo_path=demo_path,
        eval_cadence=400, eval_episodes=2,
    )


# -- replay buffer -----------------------------------------------------------------


def _rewards(buffer: harness.ReplayBuffer) -> list[float]:
    """The reward of every filled slot; ``_tr(i)`` has reward i."""
    return list(buffer.take(np.arange(len(buffer)), IdentityEncoder(1)).rewards)


def test_buffer_evicts_oldest_first() -> None:
    buffer = harness.ReplayBuffer(capacity=3)
    for i in range(4):
        buffer.push(*_tr(i))
    assert sorted(_rewards(buffer)) == [1.0, 2.0, 3.0]
    assert len(buffer) == 3


def test_buffer_holds_exactly_last_capacity_after_overflow() -> None:
    buffer = harness.ReplayBuffer(capacity=5)
    for i in range(12):
        buffer.push(*_tr(i))
    assert sorted(_rewards(buffer)) == [float(i) for i in range(7, 12)]


def test_sample_returns_requested_batch_size() -> None:
    buffer = harness.ReplayBuffer(capacity=10)
    for i in range(4):
        buffer.push(*_tr(i))
    slots = harness.replay_sample(buffer, 32, spawn_rng(0, "s"))
    assert slots.shape == (32,) and slots.dtype == np.int64  # with replacement
    assert set(slots.tolist()) <= {0, 1, 2, 3}


def test_sample_is_deterministic_given_rng_state() -> None:
    buffer = harness.ReplayBuffer(capacity=10)
    for i in range(10):
        buffer.push(*_tr(i))
    a = harness.replay_sample(buffer, 8, spawn_rng(1, "s"))
    b = harness.replay_sample(buffer, 8, spawn_rng(1, "s"))
    assert np.array_equal(a, b)


def test_sampling_empty_buffer_is_an_error() -> None:
    with pytest.raises(ValueError, match="empty buffer"):
        harness.replay_sample(harness.ReplayBuffer(3), 4, spawn_rng(0, "s"))


# -- evaluation --------------------------------------------------------------------


def test_evaluate_matches_an_independent_rollout_oracle(room_spec) -> None:
    calls = []

    def qnet_action(obs):
        calls.append(obs.tobytes())
        return 3  # always RIGHT

    result = harness.evaluate(qnet_action, room_spec, n_episodes=6, seed=5)

    returns, successes, observations = [], 0, set()
    for i in range(6):
        state, obs = envs.reset(room_spec, harness.spawn_seed(5, "eval-episode", i))
        total, last = 0.0, None
        while not state.done:
            observations.add(obs.tobytes())
            last = envs.step(room_spec, state, 3)
            obs = last.observation
            total += last.reward
        returns.append(total)
        if envs.episode_success(room_spec, last.terminated, last.reward, total):
            successes += 1
    assert result.mean_return == float(np.mean(returns))
    assert result.std_return == float(np.std(returns, ddof=1))
    assert result.success_rate == successes / 6
    # a pure action_fn is asked once per distinct observation
    assert sorted(calls) == sorted(observations)


def test_evaluate_single_episode_has_zero_std(room_spec) -> None:
    result = harness.evaluate(lambda obs: 0, room_spec, n_episodes=1, seed=0)
    assert result.std_return == 0.0


def test_evaluate_is_deterministic(room_spec) -> None:
    a = harness.evaluate(lambda obs: 1, room_spec, n_episodes=4, seed=9)
    b = harness.evaluate(lambda obs: 1, room_spec, n_episodes=4, seed=9)
    assert a == b


def test_sample_std_convention_matches_hand_arithmetic() -> None:
    # the documented convention on [1,0,1,1,0]: mean 0.6, sample std 0.5477
    values = [1.0, 0.0, 1.0, 1.0, 0.0]
    assert float(np.mean(values)) == pytest.approx(0.6)
    assert float(np.std(values, ddof=1)) == pytest.approx(0.5477, abs=5e-5)


# -- training runs ------------------------------------------------------------------


def test_run_is_bitwise_reproducible(tmp_path) -> None:
    rec1 = harness.train_run(tiny_cfg(tmp_path / "a", total=800))
    rec2 = harness.train_run(tiny_cfg(tmp_path / "b", total=800))
    csv1 = open(os.path.join(rec1.config["out_dir"], "metrics.csv"), "rb").read()
    csv2 = open(os.path.join(rec2.config["out_dir"], "metrics.csv"), "rb").read()
    assert csv1 == csv2


def test_lambda_zero_reduction_produces_identical_metrics(tmp_path, room_store_path) -> None:
    base = harness.train_run(tiny_cfg(tmp_path / "cdql", "cdql", total=800))
    ae = harness.train_run(tiny_cfg(tmp_path / "ae", "cdql-ae", total=800,
                                    demo_path=room_store_path, lam=0.0))
    b = open(os.path.join(base.config["out_dir"], "metrics.csv"), "rb").read()
    a = open(os.path.join(ae.config["out_dir"], "metrics.csv"), "rb").read()
    assert a == b


def test_rows_are_emitted_on_the_cadence_grid(tmp_path) -> None:
    rec = harness.train_run(tiny_cfg(tmp_path, total=1200))
    assert [r.step for r in rec.rows] == [0, 400, 800, 1200]


def test_metrics_header_and_empty_wall_column(tmp_path) -> None:
    rec = harness.train_run(tiny_cfg(tmp_path, total=800))
    lines = open(os.path.join(rec.config["out_dir"], "metrics.csv")).read().splitlines()
    assert lines[0] == ("step,mean_return,std_return,success_rate,epsilon,"
                       "loss_td,loss_ae,loss_distill,loss_actor,wall_secs")
    for line in lines[1:]:
        assert line.endswith(",")  # wall_secs stays out of the bitwise record


def test_gradient_step_accounting_for_value_agents(tmp_path) -> None:
    rec = harness.train_run(tiny_cfg(tmp_path, total=1200))
    assert rec.online_warmup == 32
    assert rec.grad_steps == (1200 - 32) // 4
    assert rec.interaction_steps == 1200


def test_gradient_step_accounting_for_qdagger(tmp_path, room_store_path) -> None:
    cfg = tiny_cfg(tmp_path, "qdagger", total=1000, demo_path=room_store_path)
    cfg.hp.teacher_steps = 200
    cfg.hp.offline_steps = 100
    rec = harness.train_run(cfg)
    online_ticks = 1000 - 200 - 100
    assert rec.grad_steps == 100 + online_ticks // 4
    assert rec.interaction_steps == 200 + online_ticks
    assert rec.online_steps == online_ticks
    assert rec.online_warmup == 0  # buffer prefilled by the teacher


def test_gradient_step_accounting_for_awac(tmp_path, room_store_path) -> None:
    cfg = tiny_cfg(tmp_path, "awac", total=600, demo_path=room_store_path)
    cfg.hp.offline_steps = 120
    rec = harness.train_run(cfg)
    online_ticks = 600 - 120
    assert rec.grad_steps == 120 + online_ticks // 4
    assert rec.online_warmup == 0  # demos preloaded into the buffer


def test_bc_run_is_pure_offline(tmp_path, room_store_path) -> None:
    rec = harness.train_run(tiny_cfg(tmp_path, "bc", total=300,
                                     demo_path=room_store_path))
    assert rec.grad_steps == 300
    assert rec.interaction_steps == 0


def test_epsilon_column_empty_for_policy_agents(tmp_path, room_store_path) -> None:
    rec = harness.train_run(tiny_cfg(tmp_path, "bc", total=300,
                                     demo_path=room_store_path))
    assert all(r.epsilon is None for r in rec.rows)
    rec2 = harness.train_run(tiny_cfg(tmp_path, "cdql", total=300))
    assert all(r.epsilon is not None for r in rec2.rows)


@pytest.mark.parametrize("cadence", [0, -50])
def test_eval_cadence_below_one_is_a_config_error(tmp_path, cadence) -> None:
    cfg = tiny_cfg(tmp_path, total=300)
    cfg.eval_cadence = cadence
    with pytest.raises(ConfigError, match="eval_cadence"):
        harness.train_run(cfg)


@pytest.mark.parametrize("field, value", [("her_extra", -5), ("learning_rate", -1e-3)])
def test_hyperparams_set_after_construction_are_config_errors(tmp_path, field, value) -> None:
    cfg = tiny_cfg(tmp_path, "her", total=200, **{field: value})
    with pytest.raises(ConfigError, match=rf"\[hyperparams\]: {field}"):
        harness.train_run(cfg)
    assert not os.path.exists(cfg.out_dir)  # rejected before any training


def test_missing_demos_is_a_config_error(tmp_path) -> None:
    cfg = tiny_cfg(tmp_path, "cdql-ae", total=300)
    with pytest.raises(ConfigError, match="demo"):
        harness.train_run(cfg)


def test_her_runs_and_matches_cdql_step_accounting(tmp_path) -> None:
    rec = harness.train_run(tiny_cfg(tmp_path, "her", total=800))
    assert rec.grad_steps == (800 - 32) // 4


def test_run_seeds_parallel_matches_sequential(tmp_path, room_store_path) -> None:
    cfg = tiny_cfg(tmp_path / "par", total=600)
    cfg.out_dir = str(tmp_path / "par")
    recs_par = harness.run_seeds(cfg, [1, 2], parallelism=2)
    cfg2 = tiny_cfg(tmp_path / "seq", total=600)
    cfg2.out_dir = str(tmp_path / "seq")
    recs_seq = harness.run_seeds(cfg2, [1, 2], parallelism=1)
    for a, b in zip(recs_par, recs_seq):
        csv_a = open(os.path.join(a.config["out_dir"], "metrics.csv"), "rb").read()
        csv_b = open(os.path.join(b.config["out_dir"], "metrics.csv"), "rb").read()
        assert csv_a == csv_b


def test_forked_runs_after_a_serial_run_match_their_serial_bytes(tmp_path) -> None:
    """A serial run starts this process's Adam worker thread (on a host that
    lets it use two CPUs); pool children forked after it inherit a worker
    object whose thread is not running in them, and must start their own."""
    serial_cfg, forked_cfg = tiny_cfg(tmp_path, total=600), tiny_cfg(tmp_path, total=600)
    serial_cfg.out_dir, forked_cfg.out_dir = str(tmp_path / "serial"), str(tmp_path / "forked")
    serial = harness.run_seeds(serial_cfg, [1, 2])
    if len(os.sched_getaffinity(0)) >= 2:
        assert nets.WORKER_NAME in [t.name for t in threading.enumerate()]

    def hung(*_):
        raise TimeoutError("the forked runs did not finish: a child waits on a dead worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    try:
        forked = harness.run_seeds(forked_cfg, [1, 2], parallelism=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    for a, b in zip(serial, forked):
        for path in ("metrics.csv", os.path.basename(a.snapshot_path)):
            with open(os.path.join(a.config["out_dir"], path), "rb") as fa, \
                    open(os.path.join(b.config["out_dir"], path), "rb") as fb:
                assert fa.read() == fb.read(), (a.config["seed"], path)


@pytest.mark.parametrize("kind", agents.AGENT_KINDS)
def test_snapshot_round_trip_preserves_greedy_policy(kind, tmp_path, room_store_path) -> None:
    demo_path = room_store_path if agents.LEARNERS[kind].needs_demos else None
    cfg = tiny_cfg(tmp_path, kind, total=800, demo_path=demo_path)
    rec = harness.train_run(cfg)
    action_fn, meta = harness.load_policy_snapshot(rec.snapshot_path)
    assert meta["agent"] == kind
    assert meta["head"] == {"awac": "actor", "bc": "policy"}.get(kind, "q")
    # the snapshot holds the last row's parameters; bc keeps its first best row
    row = rec.rows[-1]
    if kind == "bc":
        row = max(rec.rows, key=lambda r: r.mean_return)
    replayed = harness.evaluate(action_fn, envs.make_room_nav(), cfg.eval_episodes,
                                spawn_seed(cfg.seed, "eval", row.step))
    assert replayed.mean_return == row.mean_return


def test_one_encoder_instance_flows_through_a_run(tmp_path, room_store_path, room_spec) -> None:
    # the snapshot embeds the run's encoder: same parameters in means the
    # agent, index, and evaluation all shared one instance
    from kickrl.encoders import fit_standardizer, save_encoder

    obs = np.stack([tr.obs for tr in demos.load_demos(room_store_path).transitions()])
    enc = fit_standardizer(obs)
    enc_path = str(tmp_path / "enc.jsonl")
    save_encoder(enc, enc_path)
    cfg = tiny_cfg(tmp_path, "cdql-ae", total=400, demo_path=room_store_path)
    cfg.encoder_spec = f"standardize:{enc_path}"
    rec = harness.train_run(cfg)
    assert rec.config["encoder_spec"] == f"standardize:{enc_path}"
    action_fn, meta = harness.load_policy_snapshot(rec.snapshot_path)
    assert meta["encoder"]["kind"] == "standardize"
    _, obs0 = envs.reset(room_spec, 0)
    assert isinstance(action_fn(obs0), int)


def test_encoder_dimension_mismatch_is_a_config_error(tmp_path, room_store_path) -> None:
    from kickrl.encoders import StandardizeEncoder, save_encoder

    enc_path = str(tmp_path / "bad-enc.jsonl")
    save_encoder(StandardizeEncoder(np.zeros(5), np.ones(5)), enc_path)
    cfg = tiny_cfg(tmp_path, "cdql", total=300)
    cfg.encoder_spec = f"standardize:{enc_path}"
    with pytest.raises(ConfigError, match="dim"):
        harness.train_run(cfg)


def reference_teacher(store, spec, encoder, hp, seed, steps, eval_every, eval_episodes):
    """The teacher clone as a BC loop of its own, independent of BCLearner."""
    demo = agents.ArrayBatch.from_transitions(list(store.transitions()), encoder)
    policy = nets.mlp(demo.latents.shape[1], store.action_count, hp.hidden,
                      spawn_rng(seed, "init", "teacher"))
    opt = nets.AdamState.for_params(policy.param_arrays(), harness.TEACHER_BC_LEARNING_RATE)
    batch_rng = spawn_rng(seed, "teacher-bc")
    best_score = -math.inf
    best_params = [p.copy() for p in policy.param_arrays()]
    for step_i in range(1, steps + 1):
        agents.bc_update(demo.take(batch_rng.integers(0, len(demo), size=hp.batch_size)),
                         policy, opt)
        if step_i % eval_every == 0 or step_i == steps:
            result = harness.evaluate(
                lambda obs: agents.greedy_action(policy, encoder.encode(obs)),
                spec, eval_episodes, spawn_seed(seed, "teacher-eval", step_i),
            )
            if result.mean_return > best_score:
                best_score = result.mean_return
                best_params = [p.copy() for p in policy.param_arrays()]
    for p, best in zip(policy.param_arrays(), best_params):
        p[...] = best
    return policy


def _same_params(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a.param_arrays(), b.param_arrays()))


# of the four evaluations, seed 0 keeps the first and seed 5 the second
@pytest.mark.parametrize("seed, ties", [(0, False), (5, False), (3, True)],
                         ids=["seed0", "seed5", "every-eval-ties"])
def test_teacher_clone_matches_reference_loop(seed, ties, room_store, room_spec,
                                              monkeypatch) -> None:
    if ties:
        monkeypatch.setattr(harness, "evaluate",
                            lambda *args: harness.EvalResult(0.5, 0.0, 0.5))
    encoder = IdentityEncoder(room_spec.obs_dim)
    hp = agents.defaults_for("qdagger")
    args = (room_store, room_spec, encoder, hp, seed)
    kwargs = dict(eval_every=100, eval_episodes=3)
    got = harness.train_bc_policy(*args, steps=330, **kwargs)  # evals at 100, 200, 300, 330
    assert _same_params(got, reference_teacher(*args, steps=330, **kwargs))
    if ties:  # the first evaluation's parameters are kept, not the init's
        assert _same_params(got, reference_teacher(*args, steps=100, **kwargs))
        init = nets.mlp(room_spec.obs_dim, room_store.action_count, hp.hidden,
                        spawn_rng(seed, "init", "teacher"))
        assert not _same_params(got, init)


def test_bc_teacher_reaches_competence(room_store, room_spec) -> None:
    encoder = IdentityEncoder(room_spec.obs_dim)
    hp = agents.defaults_for("bc")
    teacher = harness.train_bc_policy(room_store, room_spec, encoder, hp, seed=0,
                                      steps=1500, eval_every=300)
    result = harness.evaluate(
        lambda obs: agents.greedy_action(teacher, encoder.encode(obs)),
        room_spec, n_episodes=10, seed=123)
    assert result.mean_return >= 0.5


def test_trained_bc_agrees_with_expert_on_held_out_states(room_spec) -> None:
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", demos.DemoBudgetWarning)
        store = demos.generate_demos(room_spec, expert_noise=0.1, n_traj=60, seed=21)
    train = demos.DemoStore(env_id=store.env_id, encoder_id="raw",
                            obs_dim=store.obs_dim, action_count=store.action_count,
                            trajectories=store.trajectories[:50])
    held_out = store.trajectories[50:]
    encoder = IdentityEncoder(store.obs_dim)
    hp = agents.defaults_for("bc")
    policy = harness.train_bc_policy(train, room_spec, encoder, hp, seed=2,
                                     steps=2000, eval_every=500)
    cells = room_spec.width * room_spec.height
    agree = 0
    total = 0
    for traj in held_out:
        for tr in traj.transitions:
            position = divmod(int(np.argmax(tr.obs[:cells])), room_spec.width)[::-1]
            state = envs.EnvState(position=position, items=set(), t=0)
            expert = envs.expert_action(room_spec, state, 0.0, spawn_rng(0, "x"))
            predicted = agents.greedy_action(policy, encoder.encode(tr.obs))
            agree += int(expert == predicted)
            total += 1
    assert agree / total >= 0.85


# -- reporting ----------------------------------------------------------------------


def _summary(env_id, agent, seed, steps, values) -> harness.RunSummary:
    return harness.RunSummary(env_id=env_id, agent=agent, seed=seed,
                              steps=list(steps), mean_returns=list(values))


def test_report_cell_matches_hand_computed_mean_and_std() -> None:
    # five seed values engineered for the target formatting "0.876 +/- 0.018"
    delta = 0.018 * math.sqrt(2.0)
    finals = [0.876 - delta, 0.876 + delta, 0.876, 0.876, 0.876]
    summaries = [_summary("env-a", "cdql-ae", s, [0, 500_000], [0.0, v])
                 for s, v in enumerate(finals)]
    table = harness.report_table(summaries, checkpoints=[500_000])
    assert table.rows[0][-1] == "0.876 ± 0.018"


def test_report_uses_last_row_at_or_before_checkpoint() -> None:
    s = _summary("env-a", "cdql", 0, [0, 100, 200, 300], [0.0, 0.1, 0.2, 0.3])
    table = harness.report_table([s], checkpoints=[250])
    assert table.rows[0][-1] == "0.200 ± 0.000"


def test_single_seed_reports_zero_std() -> None:
    s = _summary("env-a", "cdql", 0, [0, 100], [0.0, 0.42])
    table = harness.report_table([s], checkpoints=[100])
    assert table.rows[0][-1] == "0.420 ± 0.000"


def test_checkpoint_before_first_row_is_an_error() -> None:
    s = _summary("env-a", "cdql", 0, [1000, 2000], [0.1, 0.2])
    with pytest.raises(ValueError, match="999"):
        harness.report_table([s], checkpoints=[999])


def test_report_groups_by_env_and_agent() -> None:
    summaries = [
        _summary("env-a", "cdql", 0, [0], [0.1]),
        _summary("env-a", "cdql-ae", 0, [0], [0.2]),
        _summary("env-b", "cdql", 0, [0], [0.3]),
    ]
    table = harness.report_table(summaries, checkpoints=[0])
    assert len(table.rows) == 3
    assert table.as_csv().startswith("env,agent,reward@0")
    assert "---" not in table.as_csv()
    assert table.as_text().count("\n") >= 5


def test_compare_reproduces_worked_speedup_example() -> None:
    baseline = [_summary("env-a", "cdql", s,
                         [0, 750_000, 1_200_000], [0.0, 0.5, 0.85])
                for s in range(3)]
    treatment = [_summary("env-a", "cdql-ae", s,
                          [0, 750_000, 1_200_000], [0.0, 0.83, 0.9])
                 for s in range(3)]
    report = harness.compare_runs(baseline, treatment, threshold=0.8)
    assert report.baseline_steps == 1_200_000
    assert report.treatment_steps == 750_000
    assert report.speedup == pytest.approx(0.375, abs=1e-12)
    assert report.formatted().endswith("37.5%")


def test_compare_identical_groups_is_zero_speedup() -> None:
    group = [_summary("env-a", "cdql", s, [0, 10], [0.0, 0.9]) for s in range(2)]
    report = harness.compare_runs(group, group, threshold=0.8)
    assert report.speedup == 0.0


def test_compare_never_crossing_reports_not_reached() -> None:
    baseline = [_summary("env-a", "cdql", 0, [0, 10], [0.0, 0.9])]
    treatment = [_summary("env-a", "cdql-ae", 0, [0, 10], [0.0, 0.1])]
    report = harness.compare_runs(baseline, treatment, threshold=0.8)
    assert report.treatment_steps is None
    assert report.speedup is None
    assert "not reached" in report.formatted()


@pytest.mark.parametrize("baseline, treatment, line", [
    ([0.0, 0.9], [0.0, 0.1], "baseline 10, treatment not reached -> speedup not reached"),
    ([0.0, 0.1], [0.0, 0.9], "baseline not reached, treatment 10 -> speedup not reached"),
    ([0.9, 0.9], [0.0, 0.1], "baseline 0, treatment not reached -> speedup not reached"),
    ([0.9, 0.9], [0.9, 0.9], "baseline 0, treatment 0 -> speedup 0.0%"),
    ([0.0, 0.9], [0.9, 0.9], "baseline 10, treatment 0 -> speedup 100.0%"),
    ([0.9, 0.9], [0.0, 0.9],
     "baseline 0, treatment 10 -> no speedup ratio: the baseline crosses at step 0"),
])
def test_compare_prints_one_exact_line_per_outcome(baseline, treatment, line) -> None:
    report = harness.compare_runs([_summary("env-a", "cdql", 0, [0, 10], baseline)],
                                  [_summary("env-a", "cdql-ae", 0, [0, 10], treatment)],
                                  threshold=0.8)
    assert report.formatted() == "threshold 0.8: " + line


def test_compare_rejects_non_positive_threshold() -> None:
    group = [_summary("env-a", "cdql", 0, [0], [1.0])]
    for threshold in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="threshold must be finite and > 0"):
            harness.compare_runs(group, group, threshold=threshold)


def test_compare_rejects_mixed_environments() -> None:
    a = [_summary("env-a", "cdql", 0, [0], [1.0])]
    b = [_summary("env-b", "cdql", 0, [0], [1.0])]
    with pytest.raises(ValueError, match="different envs"):
        harness.compare_runs(a, b, threshold=0.5)


def test_discover_runs_loads_seed_layout(tmp_path) -> None:
    cfg = tiny_cfg(tmp_path / "group", total=400)
    cfg.out_dir = str(tmp_path / "group")
    harness.run_seeds(cfg, [1, 2], parallelism=1)
    found = harness.discover_runs(str(tmp_path / "group"))
    assert sorted(s.seed for s in found) == [1, 2]
    with pytest.raises(ConfigError):
        harness.discover_runs(str(tmp_path / "nothing-here"))
