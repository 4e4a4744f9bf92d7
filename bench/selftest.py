"""Self-test for the benchmark's output checks: each must pass a real run's
output and reject the same output with one planted fault.

    python3 bench/selftest.py

Exits 0 when every check behaves, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from kickrl import agents, envs, harness, retrieval  # noqa: E402
from kickrl.seeding import spawn_seed  # noqa: E402

FAILURES: list[str] = []


def expect(passes: bool, problems: list[str], what: str) -> None:
    if passes != (not problems):
        FAILURES.append(f"{what}: expected {'pass' if passes else 'rejection'}, got {problems or 'pass'}")


def test_knn() -> None:
    # Rows 0, 3 and 5 share a latent, so a query there has a three-way tie
    # at distance 0 that must resolve to rows 0, 3, 5 in that order.
    latents = np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                        [3.0, 3.0], [0.0, 1.0], [1.0, 0.0]])
    index = retrieval.LatentIndex(latents=latents, actions=np.arange(7) % 4,
                                  rewards=np.zeros(7), provenance=[(0, i) for i in range(7)],
                                  encoder_id="test", env_id="test", action_count=4)
    queries = latents[[0, 2, 5]]
    truth = checks.knn_truth(latents, queries, 4)
    if truth[0][0].tolist() != [0, 3, 5, 2]:
        FAILURES.append(f"knn_truth breaks ties wrongly: {truth[0][0].tolist()}")
    bad, problems = checks.knn_mismatches(truth, *retrieval.knn_batch(index, queries, 4))
    expect(True, problems + ["mismatch"] * bad, "knn_batch on integer latents")
    swapped = truth[0].copy()
    swapped[0, [0, 1]] = swapped[0, [1, 0]]  # a tie reordered, distances unchanged
    bad, problems = checks.knn_mismatches(truth, swapped, truth[1])
    expect(False, problems + ["mismatch"] * bad, "swapped tie in a kNN result")


def test_run_checks(out: str) -> None:
    spec = envs.make_room_nav()
    dist = checks.goal_distances(spec)
    if checks.optimal_return(spec, dist, (0, 0)) != 1.0 - 0.2 * 13 / 60:
        FAILURES.append("BFS optimum from (0, 0) is not 14 moves")
    hp = agents.scale_step_budgets(agents.defaults_for("cdql"), 300)
    cfg = harness.RunConfig(env_name="room-nav", agent="cdql", total_steps=300, seed=5,
                            out_dir=out, hp=hp, eval_cadence=100, eval_episodes=10)
    rec = harness.train_run(cfg)
    rows = checks.read_rows(out)
    summary = checks.read_summary(out)

    def with_row(field: str, value: str, at: int = -1) -> list[dict]:
        planted = copy.deepcopy(rows)
        planted[at][field] = value
        return planted

    starts = [envs.reset(spec, spawn_seed(spawn_seed(5, "eval", 300), "eval-episode", i))[0].position
              for i in range(10)]
    optimum = float(np.mean([checks.optimal_return(spec, dist, c) for c in starts]))
    expect(True, checks.check_optimum(spec, 5, 10, rows), "eval rows of a real run")
    expect(True, checks.check_optimum(spec, 5, 10, with_row("mean_return", repr(optimum))),
           "eval row at the BFS optimum")
    expect(False, checks.check_optimum(spec, 5, 10, with_row("mean_return", repr(optimum + 1e-9))),
           "eval row above the BFS optimum")
    expect(True, checks.check_success(10, rows), "success rates of a real run")
    expect(False, checks.check_success(10, with_row("success_rate", "0.55")), "success rate off the 1/10 grid")
    expect(True, checks.check_epsilon("cdql", hp, 300, rows), "epsilon of a real run")
    expect(False, checks.check_epsilon("cdql", hp, 300, with_row("epsilon", "0.06", at=1)),
           "epsilon off the schedule")
    expect(True, checks.check_counts("cdql", hp, 300, 0, summary), "step counts of a real run")
    expect(False, checks.check_counts("cdql", hp, 300, 0, dict(summary, grad_steps=rec.grad_steps + 1)),
           "one gradient step too many")
    expect(True, checks.check_snapshot("cdql", spec, 5, 10, out, rows), "snapshot of a real run")
    last = float(rows[-1]["mean_return"])
    expect(False, checks.check_snapshot("cdql", spec, 5, 10, out,
                                        with_row("mean_return", repr(last + 0.01))),
           "snapshot against a changed last row")

    csv_path = os.path.join(out, "metrics.csv")
    with open(csv_path, "rb") as fh:
        reference = fh.read()
    expect(True, checks.check_same_bytes(reference, csv_path), "unchanged metrics.csv")
    planted = bytearray(reference)
    planted[len(planted) // 2] ^= 1
    expect(False, checks.check_same_bytes(bytes(planted), csv_path), "one byte changed in a CSV")


def main() -> int:
    out = os.path.join(BENCH_DIR, "out", f"selftest-p{os.getpid()}")
    try:
        test_knn()
        test_run_checks(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for failure in FAILURES:
        print(f"FAIL {failure}")
    print("selftest:", "failed" if FAILURES else "every check passed its run and rejected its fault")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
