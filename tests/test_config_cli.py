from __future__ import annotations

import json
import os

import pytest

from kickrl import cli, demos, envs
from kickrl.config import config_from_text, load_config
from kickrl.errors import ConfigError

GOOD = """
[run]
agent = cdql
env = room-nav
total_steps = 20000
seed = 3
out_dir = runs/demo
eval_cadence = 1000

[hyperparams]
learning_rate = 3e-4
lambda = 0.0
"""


# -- config parsing -----------------------------------------------------------------


def test_minimal_config_parses() -> None:
    cfg = config_from_text(GOOD)
    assert cfg.agent == "cdql"
    assert cfg.total_steps == 20000
    assert cfg.seed == 3
    assert cfg.hp.learning_rate == 3e-4
    assert cfg.resolved_cadence == 1000


def test_step_budgets_scale_with_total_steps() -> None:
    cfg = config_from_text(GOOD)
    # published 250k buffer at the 2.5M reference scales to 2k at 20k steps
    assert cfg.hp.buffer_capacity == 2000


def test_explicit_budget_overrides_win_over_scaling() -> None:
    text = GOOD + "buffer_capacity = 777\n"
    assert config_from_text(text).hp.buffer_capacity == 777


def test_unknown_run_key_is_rejected() -> None:
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_text(GOOD.replace("eval_cadence", "eval_cadnce"))


def test_unknown_hyperparam_is_rejected() -> None:
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_text(GOOD + "learning_rte = 1e-3\n")


def test_twin_critic_is_an_unknown_hyperparam() -> None:
    with pytest.raises(ConfigError, match="twin_critic"):
        config_from_text(GOOD + "twin_critic = true\n")


def test_unknown_section_is_rejected() -> None:
    with pytest.raises(ConfigError, match="unknown section"):
        config_from_text(GOOD + "\n[extras]\nx = 1\n")


def test_unknown_env_option_is_rejected() -> None:
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_text(GOOD + "\n[env]\nwdith = 9\n")


def test_env_section_feeds_the_preset() -> None:
    cfg = config_from_text(GOOD + "\n[env]\nwidth = 9\nheight = 9\nmax_steps = 70\n")
    spec = cfg.build_spec()
    assert (spec.width, spec.height, spec.max_steps) == (9, 9, 70)


def test_missing_required_key_is_rejected() -> None:
    with pytest.raises(ConfigError, match="seed"):
        config_from_text(GOOD.replace("seed = 3\n", ""))


def test_lambda_alias_maps_to_the_scaling_term() -> None:
    cfg = config_from_text(GOOD.replace("lambda = 0.0", "lambda = 0.7"))
    assert cfg.hp.lam == 0.7


def test_hidden_layers_parse_as_tuple() -> None:
    cfg = config_from_text(GOOD + "hidden = 64,64\n")
    assert cfg.hp.hidden == (64, 64)


def test_duplicate_key_is_rejected() -> None:
    with pytest.raises(ConfigError, match="duplicate"):
        config_from_text(GOOD + "learning_rate = 1e-3\n")


def test_comments_and_blank_lines_are_ignored() -> None:
    cfg = config_from_text("# top\n" + GOOD + "\n# trailing comment\n")
    assert cfg.agent == "cdql"


def test_missing_file_is_a_config_error(tmp_path) -> None:
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "nope.cfg"))


def test_invalid_override_value_reports_the_key() -> None:
    with pytest.raises(ConfigError, match="gamma"):
        config_from_text(GOOD + "gamma = fast\n")


# -- CLI ----------------------------------------------------------------------------


def test_collect_demos_roundtrip(tmp_path, capsys) -> None:
    out = str(tmp_path / "demos.demos.jsonl")
    code = cli.main(["collect-demos", "--env", "collect-grid",
                     "--env-opt", "max_steps=75", "--n-traj", "20",
                     "--noise", "0.1", "--seed", "5", "--out", out])
    assert code == 0
    assert "1500 transitions" in capsys.readouterr().out
    assert demos.load_demos(out).total_transitions == 1500


def test_train_encoder_standardize(tmp_path, capsys) -> None:
    out = str(tmp_path / "enc.jsonl")
    code = cli.main(["train-encoder", "--env", "room-nav", "--kind", "standardize",
                     "--n-traj", "3", "--seed", "1", "--out", out])
    assert code == 0
    assert os.path.exists(out)


def test_train_encoder_vae_smoke(tmp_path) -> None:
    out = str(tmp_path / "vae.jsonl")
    code = cli.main(["train-encoder", "--env", "room-nav", "--kind", "vae",
                     "--latent-dim", "8", "--epochs", "2", "--n-traj", "3",
                     "--seed", "1", "--out", out])
    assert code == 0
    assert os.path.exists(out)


@pytest.mark.filterwarnings("ignore::kickrl.demos.DemoBudgetWarning")
def test_full_cli_workflow(tmp_path, capsys) -> None:
    demos_path = str(tmp_path / "room.demos.jsonl")
    assert cli.main(["collect-demos", "--env", "room-nav", "--n-traj", "40",
                     "--noise", "0.1", "--seed", "3", "--out", demos_path]) == 0

    config_path = str(tmp_path / "run.cfg")
    base_dir = str(tmp_path / "runs" / "cdql")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(f"""
[run]
agent = cdql
env = room-nav
total_steps = 800
seed = 1
out_dir = {base_dir}
eval_cadence = 400
eval_episodes = 2
""")
    assert cli.main(["train", "--config", config_path, "--seeds", "1,2",
                     "--parallel", "1", "--quiet"]) == 0
    assert os.path.exists(os.path.join(base_dir, "seed_1", "metrics.csv"))

    capsys.readouterr()
    assert cli.main(["report", "--runs", base_dir, "--checkpoints", "0,800"]) == 0
    out = capsys.readouterr().out
    assert "reward@800" in out

    assert cli.main(["compare", "--baseline", base_dir, "--treatment", base_dir,
                     "--threshold", "0.5"]) == 0

    snapshot = os.path.join(base_dir, "seed_1", "params.snapshot.jsonl")
    assert cli.main(["evaluate", "--snapshot", snapshot, "--env", "room-nav",
                     "--episodes", "2", "--seed", "0"]) == 0
    assert "mean_return" in capsys.readouterr().out


def test_config_errors_exit_code_one(tmp_path, capsys) -> None:
    config_path = str(tmp_path / "bad.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write("[run]\nagent = nonsense\nenv = room-nav\n"
                 "total_steps = 10\nseed = 1\nout_dir = x\n")
    assert cli.main(["train", "--config", config_path]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("cadence", ["0", "-50"])
def test_eval_cadence_below_one_exits_with_a_config_error(tmp_path, capsys, cadence) -> None:
    config_path = str(tmp_path / "run.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(GOOD.replace("runs/demo", str(tmp_path / "out"))
                 .replace("eval_cadence = 1000", f"eval_cadence = {cadence}"))
    assert cli.main(["train", "--config", config_path, "--quiet"]) == 1
    assert "eval_cadence" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("override, key", [
    ("knn_metric = l1", "knn_metric"),
    ("her_extra = -5", "her_extra"),
    ("learning_rate = -1e-3", "learning_rate"),
    ("learning_rate = 0.0", "learning_rate"),
    ("distill_temperature = 0", "distill_temperature"),
    ("hidden = 16,0", "hidden"),
    ("teacher_steps = -5", "teacher_steps"),
    ("offline_steps = -3", "offline_steps"),
    ("exploration_fraction = -1", "exploration_fraction"),
    ("learning_rate = inf", "learning_rate"),
    ("exploration_fraction = nan", "exploration_fraction"),
])
def test_out_of_range_hyperparams_exit_with_a_config_error(tmp_path, capsys, override,
                                                           key) -> None:
    config_path = str(tmp_path / "run.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(GOOD.replace("runs/demo", str(tmp_path / "out"))
                 .replace("learning_rate = 3e-4", override))
    assert cli.main(["train", "--config", config_path, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("env", ["width = 0", "height = -3", "max_steps = 0"])
def test_a_value_the_env_rejects_exits_with_a_config_error(tmp_path, capsys, env) -> None:
    config_path = str(tmp_path / "run.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(GOOD.replace("runs/demo", str(tmp_path / "out")) + f"\n[env]\n{env}\n")
    with pytest.raises(ConfigError, match="bad env option"):
        load_config(config_path).validate()
    assert cli.main(["train", "--config", config_path, "--quiet"]) == 1
    assert "config error: bad env option" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_runtime_errors_exit_code_two(tmp_path, capsys) -> None:
    assert cli.main(["evaluate", "--snapshot", str(tmp_path / "missing.jsonl"),
                     "--env", "room-nav", "--episodes", "1", "--seed", "0"]) == 2


@pytest.mark.filterwarnings("ignore::kickrl.demos.DemoBudgetWarning")
def test_a_malformed_demo_store_exits_with_a_format_error(tmp_path, capsys) -> None:
    store_path = str(tmp_path / "bad.jsonl")
    demos.save_demos(demos.generate_demos(envs.make_room_nav(), 0.1, 2, 0), store_path)
    with open(store_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = json.loads(lines[3])
    row["reward"] = "x"
    lines[3] = json.dumps(row)
    with open(store_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    config_path = str(tmp_path / "run.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(GOOD.replace("runs/demo", str(tmp_path / "out"))
                 .replace("agent = cdql", "agent = bc")
                 .replace("[hyperparams]", f"demos = {store_path}\n\n[hyperparams]"))
    assert cli.main(["train", "--config", config_path, "--quiet"]) == 1
    assert "format error: line 4: reward 'x' is not a number" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("agent", ["bc", "awac", "qdagger", "cdql-ae"])
def test_an_empty_demo_store_exits_with_a_config_error(tmp_path, capsys, agent) -> None:
    store_path = str(tmp_path / "empty.demos.jsonl")
    spec = envs.make_room_nav()
    demos.save_demos(demos.DemoStore(env_id=spec.env_id, encoder_id="raw",
                                     obs_dim=spec.obs_dim, action_count=spec.action_count),
                     store_path)
    config_path = str(tmp_path / "run.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(GOOD.replace("runs/demo", str(tmp_path / "out"))
                 .replace("agent = cdql", f"agent = {agent}")
                 .replace("[hyperparams]", f"demos = {store_path}\n\n[hyperparams]"))
    assert cli.main(["train", "--config", config_path, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"config error: demo store {store_path!r} holds no transitions" in err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("argv, flag", [
    (["train-encoder", "--epochs", "0"], "--epochs"),
    (["train-encoder", "--epochs", "-3"], "--epochs"),
    (["train-encoder", "--batch-size", "0"], "--batch-size"),
    (["train-encoder", "--latent-dim", "0"], "--latent-dim"),
    (["train-encoder", "--n-traj", "0"], "--n-traj"),
    (["train-encoder", "--kind", "standardize", "--n-traj", "0"], "--n-traj"),
    (["train-encoder", "--learning-rate", "-1"], "--learning-rate"),
    (["train-encoder", "--learning-rate", "nan"], "--learning-rate"),
    (["train-encoder", "--learning-rate", "inf"], "--learning-rate"),
    (["train-encoder", "--beta-max", "nan"], "--beta-max"),
    (["train-encoder", "--beta-max=-1e-9"], "--beta-max"),
    (["collect-demos", "--n-traj", "0"], "--n-traj"),
    (["collect-demos", "--noise", "1.5"], "--noise"),
    (["collect-demos", "--noise", "-0.1"], "--noise"),
    (["collect-demos", "--noise", "nan"], "--noise"),
])
def test_a_bad_encoder_or_demo_flag_exits_with_a_config_error(tmp_path, capsys, argv,
                                                              flag) -> None:
    out = tmp_path / "out.jsonl"
    assert cli.main(argv + ["--env", "room-nav", "--seed", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {flag} must be ")
    assert captured.out == ""
    assert not out.exists()


BAD_RUN_FLAGS = {
    **{f"threshold={v}": (["compare", "--baseline", "missing-a", "--treatment", "missing-b",
                           "--threshold", v], "--threshold") for v in ("0", "-1", "nan", "inf")},
    "episodes=0": (["evaluate", "--snapshot", "missing.jsonl", "--env", "room-nav",
                    "--seed", "0", "--episodes", "0"], "--episodes"),
    **{f"parallel={v}": (["train", "--config", "missing.cfg", "--parallel", v], "--parallel")
       for v in ("0", "-3")},
}


@pytest.mark.parametrize("argv, flag", BAD_RUN_FLAGS.values(), ids=BAD_RUN_FLAGS)
def test_a_bad_run_flag_exits_with_a_config_error_before_reading_anything(capsys, argv,
                                                                          flag) -> None:
    """Each named file or directory is missing, so reading it before the
    flag check would fail with another message."""
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {flag} must be ")
    assert captured.out == ""


def test_a_malformed_snapshot_exits_with_a_format_error(tmp_path, capsys) -> None:
    path = str(tmp_path / "bad.snapshot.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format_version": 1, "kind": "named-arrays", "names": ["w"],
                             "meta": {}}) + "\n")
        fh.write(json.dumps({"name": "w", "shape": [1], "data": ["x"]}) + "\n")
    assert cli.main(["evaluate", "--snapshot", path, "--env", "room-nav",
                     "--episodes", "1", "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert "format error: line 2: data is not a list of numbers" in captured.err
    assert captured.out == ""


def test_unknown_env_is_a_config_error(capsys) -> None:
    assert cli.main(["collect-demos", "--env", "volcano", "--seed", "0",
                     "--out", "x"]) == 1


def test_report_summary_json_carries_wall_clock(tmp_path) -> None:
    from kickrl import harness
    from kickrl import agents

    hp = agents.scale_step_budgets(agents.defaults_for("cdql"), 400)
    cfg = harness.RunConfig(env_name="room-nav", agent="cdql", total_steps=400,
                            seed=1, out_dir=str(tmp_path / "w"), hp=hp,
                            eval_cadence=200, eval_episodes=2)
    harness.train_run(cfg)
    payload = json.load(open(tmp_path / "w" / "summary.json"))
    assert payload["wall_secs"] > 0
    assert all(r["wall_secs"] >= 0 for r in payload["rows"])


def _short_config(tmp_path) -> str:
    config_path = str(tmp_path / "run.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(GOOD.replace("runs/demo", str(tmp_path / "out"))
                 .replace("total_steps = 20000", "total_steps = 200")
                 .replace("eval_cadence = 1000", "eval_cadence = 100"))
    return config_path


@pytest.mark.parametrize("seeds", ["1,,2", "1,x", "3,", "1;2", ""])
def test_malformed_seed_lists_exit_with_a_config_error(tmp_path, capsys, seeds) -> None:
    assert cli.main(["train", "--config", _short_config(tmp_path), "--seeds", seeds,
                     "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "--seeds" in err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("checkpoints", ["1,,2", "1,x", "3,", ""])
def test_malformed_checkpoint_lists_exit_with_a_config_error(tmp_path, capsys,
                                                            checkpoints) -> None:
    assert cli.main(["report", "--runs", str(tmp_path), "--checkpoints", checkpoints]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "--checkpoints" in err


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_repeated_seeds_exit_with_a_config_error_before_any_run(tmp_path, capsys,
                                                                parallel) -> None:
    assert cli.main(["train", "--config", _short_config(tmp_path), "--seeds", "3,3",
                     "--parallel", parallel, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "[3]" in err
    assert not os.path.exists(tmp_path / "out")


def test_run_seeds_rejects_repeated_seeds(tmp_path) -> None:
    from kickrl import harness

    cfg = load_config(_short_config(tmp_path))
    with pytest.raises(ConfigError, match="repeat"):
        harness.run_seeds(cfg, [4, 5, 4])
    assert not os.path.exists(tmp_path / "out")
