"""Command-line entry points.

Exit codes: 0 success, 1 configuration error or malformed input file,
2 runtime error (a missing file among them).
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

from .config import load_config
from .demos import generate_demos, save_demos
from .encoders import (
    VaeTrainConfig,
    collect_random_observations,
    fit_standardizer,
    save_encoder,
    train_vae,
)
from .errors import ConfigError, FormatError
from .harness import (
    build_spec,
    compare_runs,
    discover_runs,
    evaluate,
    load_policy_snapshot,
    report_table,
    run_seeds,
)


def _env_options(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--env-opt expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            out[key.strip()] = int(value)
        except ValueError:
            raise ConfigError(f"--env-opt {key!r} must be an integer") from None
    return out


def _check_flag(args, flag: str, ok, rule: str) -> None:
    """A ConfigError naming ``flag`` unless its value passes ``ok``; each
    check below is written so that NaN fails it."""
    value = getattr(args, flag[2:].replace("-", "_"))
    if not ok(value):
        raise ConfigError(f"{flag} must be {rule}, got {value!r}")


def _at_least_one(value) -> bool:
    return value >= 1


def _finite_positive(value) -> bool:
    return 0.0 < value < math.inf


def _cmd_collect_demos(args) -> int:
    _check_flag(args, "--n-traj", _at_least_one, ">= 1")
    _check_flag(args, "--noise", lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
    spec = build_spec(args.env, _env_options(args.env_opt))
    store = generate_demos(spec, expert_noise=args.noise, n_traj=args.n_traj,
                           seed=args.seed)
    save_demos(store, args.out)
    print(f"wrote {store.total_transitions} transitions "
          f"({len(store.trajectories)} trajectories) to {args.out}")
    return 0


def _cmd_train_encoder(args) -> int:
    _check_flag(args, "--n-traj", _at_least_one, ">= 1")
    if args.kind == "vae":
        for flag in ("--latent-dim", "--epochs", "--batch-size"):
            _check_flag(args, flag, _at_least_one, ">= 1")
        _check_flag(args, "--learning-rate", _finite_positive, "finite and > 0")
        _check_flag(args, "--beta-max", lambda v: 0.0 <= v < math.inf, "finite and >= 0")
    spec = build_spec(args.env, _env_options(args.env_opt))
    corpus = collect_random_observations(spec, n_traj=args.n_traj, seed=args.seed)
    if args.kind == "standardize":
        enc = fit_standardizer(corpus)
    else:
        cfg = VaeTrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                             learning_rate=args.learning_rate,
                             beta_max=args.beta_max)
        enc, history = train_vae(corpus, latent_dim=args.latent_dim, cfg=cfg,
                                 seed=args.seed)
        if history:
            last = history[-1]
            print(f"final epoch: reconstruction={last.reconstruction:.6f} "
                  f"kl={last.kl:.6f}")
    save_encoder(enc, args.out)
    print(f"wrote {enc.encoder_id} (corpus of {len(corpus)} observations) to {args.out}")
    return 0


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _cmd_train(args) -> int:
    _check_flag(args, "--parallel", _at_least_one, ">= 1")
    cfg = load_config(args.config)
    if args.out_dir:
        cfg.out_dir = args.out_dir
    seeds = _int_list(args.seeds, "--seeds") if args.seeds is not None else [cfg.seed]
    if not args.quiet:  # train_run logs each evaluation
        logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stdout)
    records = run_seeds(cfg, seeds, parallelism=args.parallel)
    for rec in records:
        final = rec.rows[-1]
        print(f"seed {rec.seed}: final mean_return={final.mean_return:.3f} "
              f"success={final.success_rate:.2f} "
              f"({rec.grad_steps} gradient steps, {rec.wall_secs:.1f}s) "
              f"-> {os.path.dirname(rec.snapshot_path)}")
    return 0


def _cmd_evaluate(args) -> int:
    _check_flag(args, "--episodes", _at_least_one, ">= 1")
    spec = build_spec(args.env, _env_options(args.env_opt))
    action_fn, meta = load_policy_snapshot(args.snapshot, spec)
    if meta.get("env_id") != spec.env_id:
        print(f"note: snapshot was trained on {meta.get('env_id')}, "
              f"evaluating on {spec.env_id}", file=sys.stderr)
    result = evaluate(action_fn, spec, n_episodes=args.episodes, seed=args.seed)
    print(f"mean_return={result.mean_return:.3f} std={result.std_return:.3f} "
          f"success_rate={result.success_rate:.2f} over {args.episodes} episodes")
    return 0


def _cmd_report(args) -> int:
    checkpoints = _int_list(args.checkpoints, "--checkpoints")
    if min(checkpoints) < 0:
        raise ConfigError(f"--checkpoints must be >= 0, got {args.checkpoints!r}")
    summaries = []
    for root in args.runs:
        summaries.extend(discover_runs(root))
    table = report_table(summaries, checkpoints)
    print(table.as_text(), end="")
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8") as fh:
            fh.write(table.as_csv())
        print(f"csv written to {args.csv_out}")
    return 0


def _cmd_compare(args) -> int:
    _check_flag(args, "--threshold", _finite_positive, "finite and > 0")
    baseline = discover_runs(args.baseline)
    treatment = discover_runs(args.treatment)
    report = compare_runs(baseline, treatment, args.threshold)
    print(report.formatted())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kickrl",
        description="Demonstration-kickstarted Q-learning on sparse-reward grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect-demos", help="record scripted-expert trajectories")
    p.add_argument("--env", required=True)
    p.add_argument("--env-opt", action="append", metavar="KEY=VALUE")
    p.add_argument("--n-traj", type=int, default=20)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_collect_demos)

    p = sub.add_parser("train-encoder", help="fit a feature extractor on random rollouts")
    p.add_argument("--env", required=True)
    p.add_argument("--env-opt", action="append", metavar="KEY=VALUE")
    p.add_argument("--kind", choices=("standardize", "vae"), default="vae")
    p.add_argument("--latent-dim", type=int, default=16)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--learning-rate", type=float, default=3e-4)
    p.add_argument("--beta-max", type=float, default=5e-8)
    p.add_argument("--n-traj", type=int, default=50)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train_encoder)

    p = sub.add_parser("train", help="run training from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", help="comma-separated; defaults to the config seed")
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--out-dir", help="override the config's output directory")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("evaluate", help="greedy evaluation of a saved snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--env", required=True)
    p.add_argument("--env-opt", action="append", metavar="KEY=VALUE")
    p.add_argument("--episodes", type=int, default=10)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("report", help="checkpoint table over finished runs")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--checkpoints", required=True, help="comma-separated steps")
    p.add_argument("--csv-out")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("compare", help="steps-to-threshold speedup of two groups")
    p.add_argument("--baseline", required=True)
    p.add_argument("--treatment", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.set_defaults(fn=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
