from __future__ import annotations

import dataclasses
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kickrl import agents, cli, demos, envs, harness
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


# -- config properties --------------------------------------------------------------


def config_text(cfg: harness.RunConfig) -> str:
    """A config file that names every field of ``cfg``: a float as its str,
    which is its repr and reads back to the same bits, and ``lam`` by its
    ``lambda`` alias."""
    run = {"agent": cfg.agent, "env": cfg.env_name, "total_steps": cfg.total_steps,
           "seed": cfg.seed, "out_dir": cfg.out_dir, "encoder": cfg.encoder_spec,
           "demos": cfg.demo_path, "eval_cadence": cfg.eval_cadence,
           "eval_episodes": cfg.eval_episodes}
    lines = ["[run]", *(f"{k} = {v}" for k, v in run.items() if v is not None), "[env]",
             *(f"{k} = {v}" for k, v in cfg.env_options.items()), "[hyperparams]"]
    for f in dataclasses.fields(cfg.hp):
        value = getattr(cfg.hp, f.name)
        text = ",".join(map(str, value)) if f.name == "hidden" else str(value)
        lines.append(f"{'lambda' if f.name == 'lam' else f.name} = {text}")
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e-300, 2.0**60]
WORDS = st.text("abcxyz0189/._-", min_size=1, max_size=12)


def _floats(lo: float, hi: float, hi_open: bool = False):
    edges = [x for x in EDGE_FLOATS if lo <= x < hi or (x == hi and not hi_open)]
    return st.one_of(st.sampled_from(edges),
                     st.floats(lo, hi, exclude_max=hi_open, allow_nan=False))


@st.composite
def run_configs(draw) -> harness.RunConfig:
    """Well-formed configs: every hyperparameter in its range, with the
    edge values a float or int field must read back exactly."""
    ints = st.one_of(st.sampled_from([1, 2, 2**60]), st.integers(1, 10**6))
    hp = agents.Hyperparams(
        gamma=draw(_floats(0.0, 1.0, hi_open=True)), lam=draw(_floats(0.0, 2.0**60)),
        tau=draw(_floats(0.0, 1.0)), buffer_capacity=draw(ints), batch_size=draw(ints),
        eps_start=draw(_floats(0.0, 1.0)), eps_end=draw(_floats(0.0, 1.0)),
        exploration_fraction=draw(_floats(0.0, 2.0**60)),
        target_update_period=draw(ints), train_frequency=draw(ints),
        k_neighbors=draw(ints), ae_mode=draw(st.sampled_from(agents.AE_MODES)),
        learning_rate=draw(_floats(5e-324, 2.0**60)),
        hidden=tuple(draw(st.lists(ints, max_size=3))), teacher_steps=draw(ints),
        offline_steps=draw(st.one_of(st.just(0), ints)), her_extra=draw(st.integers(0, 64)),
        distill_temperature=draw(_floats(5e-324, 2.0**60)))
    return harness.RunConfig(
        env_name=draw(st.sampled_from(sorted(envs.PRESETS))),
        agent=draw(st.sampled_from(agents.AGENT_KINDS)), total_steps=draw(ints),
        seed=draw(st.integers(-2**63, 2**63)), out_dir=draw(WORDS), hp=hp,
        env_options=draw(st.dictionaries(st.sampled_from(["width", "height", "max_steps"]),
                                         st.integers(1, 64))),
        encoder_spec=draw(st.one_of(st.just("identity"), WORDS.map("vae:{}".format))),
        demo_path=draw(st.none() | WORDS), eval_cadence=draw(st.none() | ints),
        eval_episodes=draw(ints))


@pytest.mark.formats
@given(cfg=run_configs())
@settings(max_examples=150, deadline=None)
def test_a_config_reads_back_from_its_text(cfg) -> None:
    assert repr(config_from_text(config_text(cfg)).echo()) == repr(cfg.echo())


# Every key a config may name, and values that are wrong in as many ways as
# possible: empty, non-numeric, non-finite, negative, zero, fractional, too
# large for a float or for the grid builder, and lists.
CONFIG_KEYS = ([("run", key) for key in ("agent", "env", "total_steps", "seed", "out_dir",
                                         "demos", "encoder", "eval_cadence", "eval_episodes")]
               + [("env", key) for key in ("width", "height", "size", "length", "max_steps",
                                           "n_items", "item_seed", "doorway_seed",
                                           "view_radius")]
               + [("hyperparams", "lambda" if f.name == "lam" else f.name)
                  for f in dataclasses.fields(agents.Hyperparams)])
BAD_VALUES = ["", "0", "-1", "1", "3", "-0.0", "0.5", "1e-300", "5e-324", "nan", "inf",
              "-inf", str(2**60), "1" + "0" * 400, "1e400", "fast", "16,0", "2,2",
              "vae:", "cdql-ae", "collect-grid"]
# Values of BAD_VALUES that a key must refuse on every preset, not load.  A
# view radius of -1 loaded and failed at run time; one of 2**60 loaded.
REFUSED = {name: ("-1", str(2**60))
           for name in ("width", "height", "size", "length", "view_radius")}


def mutated(agent: str, env: str, key: tuple[str, str], value: str, demo_path: str) -> str:
    """A well-formed config with one key set to ``value``."""
    section, name = key
    text = (f"[run]\nagent = {agent}\nenv = {env}\ntotal_steps = 1000\nseed = 1\n"
            f"out_dir = runs/x\ndemos = {demo_path}\n[env]\n[hyperparams]\n")
    text = text.replace(f"[{section}]\n", f"[{section}]\n{name} = {value}\n")
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith(f"{name} = ") or line == f"{name} = {value}")


def load_or_config_error(text: str) -> None:
    try:
        config_from_text(text).validate()
    except ConfigError:
        pass


@pytest.mark.formats
@pytest.mark.parametrize("key", CONFIG_KEYS, ids=[name for _, name in CONFIG_KEYS])
def test_a_listed_bad_value_loads_or_is_a_config_error(room_store_path, key) -> None:
    """Each value of BAD_VALUES for one key, on each preset and a kind with
    and without demos: the config loads and validates, or raises ConfigError;
    never anything else.  It found total_steps = 10**400 raising
    OverflowError in the budget scaling, n_items = 10**400 raising it in the
    item draw, and a grid side of 2**60 running the process out of memory.
    The values REFUSED lists for the key must raise ConfigError."""
    for agent in ("cdql", "cdql-ae"):
        for env in sorted(envs.PRESETS):
            for value in BAD_VALUES:
                text = mutated(agent, env, key, value, room_store_path)
                if value in REFUSED.get(key[1], ()):
                    with pytest.raises(ConfigError):
                        config_from_text(text).validate()
                else:
                    load_or_config_error(text)


@pytest.mark.formats
@given(agent=st.sampled_from(agents.AGENT_KINDS), env=st.sampled_from(sorted(envs.PRESETS)),
       key=st.sampled_from(CONFIG_KEYS),
       value=st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=10))
@settings(max_examples=300, deadline=None)
def test_a_one_value_mutation_loads_or_is_a_config_error(room_store_path, agent, env, key,
                                                          value) -> None:
    load_or_config_error(mutated(agent, env, key, value, room_store_path))


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


@pytest.mark.parametrize("env", ["width = 0", "height = -3", "max_steps = 0",
                                 f"width = {2**60}", "view_radius = -1", "view_radius = 9",
                                 "view_radius = 256", "view_radius = 300",
                                 f"view_radius = {2**60}"])
def test_a_value_the_env_rejects_exits_with_a_config_error(tmp_path, capsys, env) -> None:
    config_path = str(tmp_path / "run.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(GOOD.replace("runs/demo", str(tmp_path / "out")) + f"\n[env]\n{env}\n")
    with pytest.raises(ConfigError, match="bad env option"):
        load_config(config_path).validate()
    assert cli.main(["train", "--config", config_path, "--quiet"]) == 1
    assert "config error: bad env option" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_a_view_radius_of_the_grids_side_loads(tmp_path) -> None:
    """room-nav is 8 x 8: a radius of 8 is the widest one a config may ask
    for; 9 and more add only wall cells, and are refused above."""
    config_path = str(tmp_path / "run.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(GOOD + "\n[env]\nview_radius = 8\n")
    cfg = load_config(config_path)
    cfg.validate()
    assert cfg.build_spec().obs_dim == 4 * 17 * 17


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


@pytest.mark.parametrize("checkpoints", ["1,,2", "1,x", "3,", "", "-5", "0,-1"])
def test_malformed_checkpoint_lists_exit_with_a_config_error(tmp_path, capsys,
                                                            checkpoints) -> None:
    """tmp_path holds no run, so reading runs before the check would fail
    with a message that does not name the flag."""
    assert cli.main(["report", "--runs", str(tmp_path), f"--checkpoints={checkpoints}"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "--checkpoints" in err


SUMMARY = {"env_id": "room-nav-8x8", "agent": "cdql", "seed": 1,
           "rows": [{"step": 0, "mean_return": 0.0}, {"step": 500, "mean_return": 1}]}
_MISSING = object()


def _summary_with(field: str, value, row: int | None = None) -> str:
    payload = json.loads(json.dumps(SUMMARY))
    record = payload if row is None else payload["rows"][row]
    if value is _MISSING:
        del record[field]
    else:
        record[field] = value
    return json.dumps(payload)


BAD_SUMMARIES = {
    "not-json": ("{\"env_id\": ", "not JSON"),
    "not-an-object": ("[1, 2]", "not a JSON object"),
    "no-env_id": (_summary_with("env_id", _MISSING), "env_id is None"),
    "int-agent": (_summary_with("agent", 3), "agent is 3"),
    "float-seed": (_summary_with("seed", 1.0), "seed is 1.0"),
    "no-rows": (_summary_with("rows", _MISSING), "rows is None"),
    "empty-rows": (_summary_with("rows", []), "rows is empty"),
    "row-not-an-object": (_summary_with("rows", [5]), "rows[0].step is None"),
    "bool-step": (_summary_with("step", True, row=1), "rows[1].step is True"),
    "unordered-steps": (_summary_with("step", 0, row=1),
                        "rows[1].step is 0, not above rows[0].step 0"),
    "null-mean_return": (_summary_with("mean_return", None, row=1), "rows[1].mean_return is None"),
    "nan-mean_return": (_summary_with("mean_return", float("nan"), row=0),
                        "rows[0].mean_return is nan"),
    "text-mean_return": (_summary_with("mean_return", "0.5", row=0),
                         "rows[0].mean_return is '0.5'"),
}


@pytest.mark.formats
def test_a_well_formed_run_summary_loads(tmp_path) -> None:
    from kickrl import harness

    (tmp_path / "summary.json").write_text(json.dumps(SUMMARY), encoding="utf-8")
    summary = harness.load_run(str(tmp_path))
    assert (summary.env_id, summary.agent, summary.seed) == ("room-nav-8x8", "cdql", 1)
    assert (summary.steps, summary.mean_returns) == ([0, 500], [0.0, 1])


@pytest.mark.formats
@pytest.mark.parametrize("command", ["report", "compare"])
@pytest.mark.parametrize("text, message", BAD_SUMMARIES.values(), ids=BAD_SUMMARIES)
def test_a_malformed_run_summary_exits_with_a_format_error(tmp_path, capsys, command, text,
                                                          message) -> None:
    (tmp_path / "summary.json").write_text(text, encoding="utf-8")
    argv = {"report": ["report", "--runs", str(tmp_path), "--checkpoints", "500"],
            "compare": ["compare", "--baseline", str(tmp_path), "--treatment", str(tmp_path),
                        "--threshold", "0.5"]}[command]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"format error: {tmp_path / 'summary.json'}: {message}")
    assert captured.out == ""


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
