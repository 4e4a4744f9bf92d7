"""Benchmark: fixed kickrl training workloads, timed end to end, with an
optional traced run that times the calls into every layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/``.  A run repeats whole rounds of the workload's training runs until
about S seconds have passed, and sets its inputs up once before the first
training call and again after each.  Every round is checked (see
checks.py).  The last line of standard output is one JSON object: correct,
attempted, failed and metrics.  With --trace 0 the metrics are end to end
(medians over set-ups and rounds); with --trace 1 the rounds alternate
untraced and traced, and the metrics are per layer.  See README.md for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads
os.environ.setdefault("OMP_NUM_THREADS", "1")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")

DEMO_TRAJECTORIES = 200
DEMO_NOISE = 0.1
# The stores, the VAE and the kNN queries are fixed: the index then has the
# same size on every seed, and the kNN queries that knn_batch gets wrong today
# fail on every run, so `failed` is the same share of `attempted` on every run.
DEMO_SEED = 11  # the acceptance experiment's store
VAE_SEED = 0
VAE_LATENT_DIM = 16
VAE_CORPUS_TRAJECTORIES = 50
KNN_QUERIES = 2000
KNN_QUERY_SEED = 7
EVAL_EPISODES = 10
KICKSTART_LEARNING_RATE = 3e-5
KICKSTART_BUDGET_STEPS = 100_000


@dataclass(frozen=True)
class Workload:
    env: str
    kinds: tuple[str, ...]
    total_steps: int
    seeds_per_round: int
    eval_cadence: int
    vae: bool = False
    # The acceptance experiment's settings: lr 3e-5 and budgets co-scaled to
    # its 100k-step horizon.  Otherwise budgets co-scale to total_steps, as
    # `kickrl train` does.
    kickstart: bool = False


WORKLOADS = {
    "kickstart-room": Workload("room-nav", ("cdql-ae",), 3000, 2, 500, kickstart=True),
    "kickstart-vae-4rooms": Workload("four-rooms-nav", ("cdql-ae",), 3000, 1, 500,
                                     vae=True, kickstart=True),
    "baselines-room": Workload("room-nav", ("cdql", "her", "qdagger", "awac", "bc"),
                               1000, 1, 250),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def gemm_slowdown() -> float:
    """The acceptance tests' CPU probe: 64x256 @ 256x256 float64 against a
    105 us desktop-core reference; 1.0 means at least desktop speed."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((64, 256))
    b = np.random.default_rng(1).standard_normal((256, 256))
    for _ in range(50):
        a @ b
    t0 = time.perf_counter()
    for _ in range(400):
        a @ b
    return max(1.0, (time.perf_counter() - t0) / 400 / 105e-6)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kickrl", "__init__.py")):
        print(f"error: no kickrl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import numpy as np

    import checks
    import spans
    from kickrl import agents, demos, encoders, envs, harness, retrieval

    wl = WORKLOADS[args.workload]
    spec = envs.PRESETS[wl.env]()
    seeds = [int(s) for s in np.random.default_rng(args.seed).integers(1, 2**31 - 1, wl.seeds_per_round)]
    out = os.path.join(BENCH_DIR, "out", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(out, ignore_errors=True)
    tracer = spans.Tracer()
    if args.trace:
        spans.instrument(tracer)

    def set_up(directory: str) -> tuple[str, str]:
        os.makedirs(directory)
        store = demos.generate_demos(spec, DEMO_NOISE, DEMO_TRAJECTORIES, DEMO_SEED)
        demo_path = os.path.join(directory, "demos.jsonl")
        demos.save_demos(store, demo_path)
        if not wl.vae:
            return demo_path, "identity"
        corpus = encoders.collect_random_observations(spec, VAE_CORPUS_TRAJECTORIES, VAE_SEED)
        vae, _ = encoders.train_vae(corpus, VAE_LATENT_DIM, seed=VAE_SEED)
        vae_path = os.path.join(directory, "vae.jsonl")
        encoders.save_encoder(vae, vae_path)
        return demo_path, f"vae:{vae_path}"

    def run_config(kind: str, round_dir: str):
        budget = KICKSTART_BUDGET_STEPS if wl.kickstart else wl.total_steps
        hp = agents.scale_step_budgets(agents.defaults_for(kind), budget)
        if wl.kickstart:
            hp.learning_rate = KICKSTART_LEARNING_RATE
        return harness.RunConfig(
            env_name=wl.env, agent=kind, total_steps=wl.total_steps, seed=0,
            out_dir=os.path.join(round_dir, kind), hp=hp, demo_path=demo_path,
            encoder_spec=encoder_spec, eval_cadence=wl.eval_cadence,
            eval_episodes=EVAL_EPISODES)

    setup_s, setup_spans, train_spans = [], [], []

    def timed(fn, traced: bool, spans_out: list):
        """(fn(), its wall seconds); its spans go to spans_out when traced."""
        tracer.enabled = traced
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            seconds = time.perf_counter() - t0
            tracer.enabled = False
        if traced:
            spans_out.append(tracer.take())
        return result, seconds

    def sample_setup() -> tuple[tuple[str, str], str]:
        directory = os.path.join(out, f"setup{len(setup_s)}")
        inputs, seconds = timed(lambda: set_up(directory), args.trace == 1, setup_spans)
        setup_s.append(seconds)
        return inputs, directory

    try:
        (demo_path, encoder_spec), _ = sample_setup()
        n_demo = demos.load_demos(demo_path).total_transitions
        problems: list[str] = []
        knn = None
        if "cdql-ae" in wl.kinds:
            k = run_config("cdql-ae", out).hp.k_neighbors
            index = retrieval.build_index(demos.load_demos(demo_path),
                                          harness.build_encoder(spec, encoder_spec))
            rows = np.random.default_rng(KNN_QUERY_SEED).integers(0, len(index), KNN_QUERIES)
            queries = index.latents[rows]
            knn = (index, queries, k, checks.knn_truth(index.latents, queries, k))

        attempted = failed = 0
        reference_csv: dict = {}
        rounds = []  # (seconds of each training call, traced)
        steps = (0, 0)  # (interaction, gradient) steps of one round
        snapshot_bytes = 0
        start = time.perf_counter()
        round_walls = []
        while True:
            round_start = time.perf_counter()
            round_dir = os.path.join(out, f"round{len(rounds)}")
            traced = args.trace == 1 and len(rounds) % 2 == 1
            calls, records = [], []
            for kind in wl.kinds:
                cfg = run_config(kind, round_dir)
                for seed in seeds:
                    [rec], seconds = timed(lambda: harness.run_seeds(cfg, [seed], parallelism=1),
                                           traced, train_spans)
                    calls.append(seconds)
                    records.append((cfg, rec))
                    # Set-up is sampled between training calls, so that its
                    # median spans the whole run rather than its first seconds.
                    shutil.rmtree(sample_setup()[1])
            rounds.append((calls, traced))
            steps = (sum(rec.interaction_steps for _, rec in records),
                     sum(rec.grad_steps for _, rec in records))

            for cfg, rec in records:
                run_dir = os.path.dirname(rec.snapshot_path)
                csv_path = os.path.join(run_dir, "metrics.csv")
                rows = checks.read_rows(run_dir)
                if (rec.agent, rec.seed) not in reference_csv:
                    with open(csv_path, "rb") as fh:
                        reference_csv[rec.agent, rec.seed] = fh.read()
                results = [
                    checks.check_optimum(spec, rec.seed, cfg.eval_episodes, rows),
                    checks.check_success(cfg.eval_episodes, rows),
                    checks.check_epsilon(rec.agent, cfg.hp, cfg.total_steps, rows),
                    checks.check_counts(rec.agent, cfg.hp, cfg.total_steps, n_demo,
                                        checks.read_summary(run_dir)),
                    checks.check_snapshot(rec.agent, spec, rec.seed, cfg.eval_episodes,
                                          run_dir, rows),
                    checks.check_same_bytes(reference_csv[rec.agent, rec.seed], csv_path),
                ]
                attempted += 1 + len(results)  # the training run and its checks
                for found in results:
                    problems += found
                if traced:
                    snapshot_bytes += os.path.getsize(rec.snapshot_path)
            if knn:
                index, queries, k, truth = knn
                bad, found = checks.knn_mismatches(truth, *retrieval.knn_batch(index, queries, k))
                attempted += len(queries)
                failed += bad
                problems += found
            shutil.rmtree(round_dir)
            round_walls.append(time.perf_counter() - round_start)
            enough = len(rounds) >= (2 if args.trace else 1)
            if enough and time.perf_counter() - start + statistics.median(round_walls) > args.seconds:
                break

        def train_s(traced: bool) -> float:
            """Each training call's median over the rounds, summed."""
            calls = [c for c, t in rounds if t == traced]
            return sum(statistics.median(column) for column in zip(*calls))

        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        print(f"# workload {args.workload}: seeds {seeds}, {n_demo} demo rows, "
              f"{len(rounds)} rounds, seconds per training call "
              f"{[[round(c, 3) for c in calls] for calls, _ in rounds]}, "
              f"setup_s {[round(s, 3) for s in setup_s]}")
        print(f"# machine: {os.cpu_count()} cores, OPENBLAS_NUM_THREADS="
              f"{os.environ.get('OPENBLAS_NUM_THREADS')}, numpy {np.__version__}, "
              f"gemm slowdown {gemm_slowdown():.2f}")
        if knn:
            print(f"# knn: {failed // len(rounds)} of {KNN_QUERIES} queries differ from brute force")

        if args.trace:
            n_traced = sum(t for _, t in rounds)
            print(f"# tracing overhead: traced train_s {train_s(True):.3f} s, "
                  f"untraced {train_s(False):.3f} s")
            layers = spans.layer_metrics(setup_spans, train_spans, n_traced,
                                         tracer.rows["retrieval.knn_batch"], snapshot_bytes / n_traced)
            spans.write_spans(os.path.join(BENCH_DIR, "out", f"spans-{args.workload}-s{args.seed}.csv"),
                              [(f"setup{i}", s) for i, s in enumerate(setup_spans)]
                              + [(f"train{i}", s) for i, s in enumerate(train_spans)])
            metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
        else:
            seconds = train_s(False)
            metrics = {
                "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                "train_s": {"value": seconds, "unit": "s"},
                "env_steps_per_s": {"value": steps[0] / seconds, "unit": "1/s"},
                "grad_steps_per_s": {"value": steps[1] / seconds, "unit": "1/s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "unit": "MB"},
            }
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
