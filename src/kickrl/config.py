"""Strict `key = value` run-configuration files.

Three sections are recognized: ``[run]``, ``[env]``, and ``[hyperparams]``.
Unknown sections or keys are errors -- there are no silent defaults for a
typo.  Step-denominated budgets (buffer, teacher/offline steps) are co-scaled
with total_steps unless the file pins them explicitly.
"""

from __future__ import annotations

import dataclasses

from .agents import AGENT_KINDS, Hyperparams, defaults_for, scale_step_budgets
from .envs import PRESETS
from .errors import ConfigError
from .harness import RunConfig

_RUN_KEYS = {
    "agent": str,
    "env": str,
    "total_steps": int,
    "seed": int,
    "out_dir": str,
    "demos": str,
    "encoder": str,
    "eval_cadence": int,
    "eval_episodes": int,
}

_ENV_KEY_TYPES = {
    "width": int, "height": int, "size": int, "length": int,
    "max_steps": int, "n_items": int, "item_seed": int,
    "doorway_seed": int, "view_radius": int,
}

_HP_ALIASES = {"lambda": "lam"}  # `lambda` is the natural config spelling


def _coerce(raw: str, target_type, key: str):
    try:
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        if target_type is str:
            return raw
        if target_type is tuple:  # e.g. hidden = 256,256
            return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None
    raise ConfigError(f"key {key!r}: unsupported type {target_type}")


def parse_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{current}]")
            sections[current] = {}
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        sections[current][key] = value
    return sections


def config_from_text(text: str) -> RunConfig:
    sections = parse_sections(text)
    unknown_sections = set(sections) - {"run", "env", "hyperparams"}
    if unknown_sections:
        raise ConfigError(f"unknown sections: {sorted(unknown_sections)}")
    run = sections.get("run", {})
    unknown = set(run) - set(_RUN_KEYS)
    if unknown:
        raise ConfigError(f"[run]: unknown keys {sorted(unknown)}")
    for required in ("agent", "env", "total_steps", "seed", "out_dir"):
        if required not in run:
            raise ConfigError(f"[run]: missing required key {required!r}")
    runvals = {k: _coerce(v, _RUN_KEYS[k], k) for k, v in run.items()}
    agent = runvals["agent"]
    if agent not in AGENT_KINDS:
        raise ConfigError(f"[run]: unknown agent {agent!r}")
    if runvals["env"] not in PRESETS:
        raise ConfigError(f"[run]: unknown env {runvals['env']!r}")

    env_options = {}
    for key, value in sections.get("env", {}).items():
        if key not in _ENV_KEY_TYPES:
            raise ConfigError(f"[env]: unknown key {key!r}")
        env_options[key] = _coerce(value, _ENV_KEY_TYPES[key], key)

    hp = defaults_for(agent)
    total_steps = runvals["total_steps"]
    hp = scale_step_budgets(hp, total_steps)
    hp_fields = {f.name: f.type for f in dataclasses.fields(Hyperparams)}
    for key, value in sections.get("hyperparams", {}).items():
        field_name = _HP_ALIASES.get(key, key)
        if field_name not in hp_fields:
            raise ConfigError(f"[hyperparams]: unknown key {key!r}")
        target = tuple if field_name == "hidden" else type(getattr(hp, field_name))
        setattr(hp, field_name, _coerce(value, target, key))
    try:
        hp.__post_init__()  # re-validate after overrides
    except ValueError as exc:
        raise ConfigError(f"[hyperparams]: {exc}") from None

    return RunConfig(
        env_name=runvals["env"],
        agent=agent,
        total_steps=total_steps,
        seed=runvals["seed"],
        out_dir=runvals["out_dir"],
        hp=hp,
        env_options=env_options,
        encoder_spec=runvals.get("encoder", "identity"),
        demo_path=runvals.get("demos"),
        eval_cadence=runvals.get("eval_cadence"),
        eval_episodes=runvals.get("eval_episodes", 10),
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return config_from_text(text)
