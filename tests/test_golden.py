"""Golden hashes: the `metrics.csv` and `params.snapshot.jsonl` bytes every
agent kind writes on a small fixed config, and the bytes of the saved VAE
encoder those runs load, pinned across changes to the code.

A refactor of the training loop, the learners or the parameter file format
must leave these hashes unchanged; `test_run_is_bitwise_reproducible` only
shows a run agrees with itself.  The hashes assume single-thread
numpy/OpenBLAS (the package pins it at import) on x86-64; another BLAS build
may round the gemms differently, which the first test here reports by name.

Each pinned `metrics.csv` is also kept as a file under `tests/golden/`, so a
run that moves a hash is reported by its first differing row and column, and
by whether its snapshot moved too.  `pytest -m golden` runs this module.
"""

from __future__ import annotations

import hashlib
import os
from itertools import zip_longest

import numpy as np
import pytest

from kickrl import agents, demos, encoders, harness
from kickrl.nets import DenseNet, forward_values, mlp
from kickrl.seeding import spawn_rng

STEPS = 600

ROOM_NAV = {
    "cdql": "4ed46b3260120c49acd4f2c557f1e20f1ca355c7ffd6fb270a446dfd99eaa9ec",
    "her": "eeb4eba3eee75a88b975831195cbd65de82a4e7cf97a5e3bc9b0a36ed864d72c",
    "qdagger": "c4f69fb60eb0c97e278404ff8b1b1f0e4ebe00c6db5f88bccd489b05fdd14614",
    "awac": "393966884dad788e24fb5ab5eed0826fcf01cd54edbd960918f0de218b29f053",
    "bc": "c4f8d967055a64f237d08aee1095e07841824c0b7ea4b307a6a1612847e1414e",
    "cdql-ae:target-shaping": "ce9cd8bae517a661ed9b530fda8183d1538505a2646a64fe6b848f07a11c7479",
    "cdql-ae:q-regression": "7abe1b0fd0540e2dc3869cc84782660031cd0378c360ac986a876260049806c9",
    "cdql-ae:kl-penalty": "e6c40e3fa86acaa028ccaf5665a5b7077680d2bac8eb55729bb5da2c61fbe31f",
}

FOUR_ROOMS_VAE = {
    "cdql-ae": "b7fba445c16f6add57cbe3074350fe0316ff16080298d6610dfdced22a1debc5",
    "awac": "a56a41705e52561dbc4a2d30b01ef83cc71c60d709c2faabe8be16df75fee7bc",
    "bc": "f806788fc086788c993c3392fec6dbc0ae05f9c0a5374617a2c396f111a0176d",
}


# params.snapshot.jsonl of the same runs
ROOM_NAV_SNAPSHOT = {
    "awac": "7c836140bdb2a81c5a24e077fc716b192ccb27d3650fb8533e5c03492a385000",
    "bc": "ded7e4ed7d6e930c05e07b3c2e618bed525a714b58fe0fe1da18193ff6ec7d75",
    "cdql": "3a7137a2383bc7ae8f574601812f82ca8a592127741e3cdfa37b61c54e205914",
    "cdql-ae:kl-penalty": "0b42c6612065253976c82c2a232567f16ff9b0787386683f45be60be94cea237",
    "cdql-ae:q-regression": "04f4546fa2b7035182f82b7aeeb2307ecfa222a866c8b94260ad2f867ae43c01",
    "cdql-ae:target-shaping": "6d6a5d076656bb4225d3e80f2f566f37bab3af2b82a8d1ea7a16b68a21014080",
    "her": "187b381eec91d4ca669993e287c8ab005959a57734a3cffb829db909ae57259b",
    "qdagger": "11cdcdc1f61f2690f9e017581eec414ea14a3b35c03ff283ec1ebe33008eb145",
}

FOUR_ROOMS_VAE_SNAPSHOT = {
    "awac": "160237356fe15c2b1da9f525256fcf88a9edfef197b71a8543aee4e0ff5451c7",
    "bc": "1d8f86bb27391cd5dcbfcbe3247dcb13cf8d7d14f36d12f56944e459cc4599d8",
    "cdql-ae": "9132ca57363f02447457db49a8e9ad7f503257fefcb7f8ec3e7c46f3e384157c",
}

# the encoder file four_rooms_inputs saves
VAE_FILE = "fa3bcc98f77fdb12eae59ecfd6eac6d40b20767279130e3ad930aa60af61e067"

# The smallest row count of the third row-count class of forward_values on a
# 128->256->256->4 net (see test_forward_row_count_classes_are_the_recorded_ones).
ROW_CLASS_BOUNDARY = 977


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def golden_csv(group: str, case: str) -> str:
    """The kept metrics.csv of a case: ``golden/room-nav/cdql-ae.kl-penalty.metrics.csv``."""
    return os.path.join(GOLDEN_DIR, group, f"{case.replace(':', '.')}.metrics.csv")


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def first_difference(golden: str, actual: str) -> str:
    """Where two metrics.csv texts part: the first differing data row (1 is
    the first row under the header) and the column's header name."""
    golden_rows, actual_rows = golden.splitlines(), actual.splitlines()
    header = golden_rows[0].split(",")
    for row, (want, got) in enumerate(zip_longest(golden_rows, actual_rows)):
        if want == got:
            continue
        if want is None or got is None:
            return f"row {row}: {'an extra row' if want is None else 'a missing row'}"
        for col, (w, g) in enumerate(zip_longest(want.split(","), got.split(","))):
            if w != g:
                name = header[col] if col < len(header) else f"#{col}"
                return f"row {row}, column {name!r}: golden {w!r}, this run {g!r}"
    return "its line endings (no row differs)"


def check_run(metrics_path: str, snapshot_path: str, group: str, case: str,
              metrics_hash: str, snapshot_hash: str) -> None:
    """Assert a run's hashes; a moved metrics.csv names where it parts from
    its golden file and whether the snapshot moved with it."""
    snapshot_moved = sha256_of(snapshot_path) != snapshot_hash
    if sha256_of(metrics_path) != metrics_hash:
        with open(golden_csv(group, case), encoding="utf-8") as fh:
            golden = fh.read()
        with open(metrics_path, encoding="utf-8") as fh:
            where = first_difference(golden, fh.read())
        pytest.fail(f"{group} {case}: metrics.csv moved at {where}; "
                    f"the snapshot hash {'moved too' if snapshot_moved else 'held'}")
    assert not snapshot_moved, f"{group} {case}: metrics.csv held but the snapshot moved"


def run_files(tmp_path, kind: str, env_name: str, demo_path: str | None,
              encoder_spec: str = "identity", ae_mode: str | None = None) -> tuple[str, str]:
    """The paths of the run's (metrics.csv, params.snapshot.jsonl)."""
    hp = agents.scale_step_budgets(agents.defaults_for(kind), STEPS)
    if ae_mode is not None:
        hp.ae_mode = ae_mode
    cfg = harness.RunConfig(
        env_name=env_name, agent=kind, total_steps=STEPS, seed=1,
        out_dir=str(tmp_path / kind), hp=hp, encoder_spec=encoder_spec,
        demo_path=demo_path, eval_cadence=200, eval_episodes=3)
    harness.train_run(cfg)
    return (os.path.join(cfg.out_dir, "metrics.csv"),
            os.path.join(cfg.out_dir, "params.snapshot.jsonl"))


def test_forward_row_count_classes_are_the_recorded_ones() -> None:
    """How this BLAS build rounds forward_values depends on the batch's row
    count, in three classes: 1 row (a gemv); 2 rows up to ROW_CLASS_BOUNDARY,
    where each row's bits equal its bits in any other forward of that class;
    and ROW_CLASS_BOUNDARY rows and more, likewise.  The hashes below and
    RowMemo rest on these classes, so this test runs first and names a moved
    class before the hash tests fail."""
    net = mlp(128, 4, (256, 256), spawn_rng(0, "row-classes"))
    x = np.random.default_rng(0).standard_normal((2400, 128))

    def rows(n: int) -> np.ndarray:
        return forward_values(net, x[:n])

    def second_class(n: int) -> bool:  # its first 32 rows round as a 32-row forward does
        return np.array_equal(rows(n)[:32], rows(32))

    lo, hi = 32, len(x)  # bisect for the first row count out of the second class
    assert second_class(lo) and not second_class(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if second_class(mid) else (lo, mid)
    moved = [] if hi == ROW_CLASS_BOUNDARY else [
        f"the third class starts at {hi} rows, not {ROW_CLASS_BOUNDARY}"]
    if np.array_equal(rows(1), rows(2)[:1]):
        moved.append("1 row rounds as 2 rows do")
    for last, counts in ((hi - 1, (2, 3, 33, 101, hi - 2)), (len(x), (hi, hi + 1, 1557, 2338))):
        whole = rows(last)
        moved += [f"{n} rows round unlike {last} rows" for n in counts
                  if not np.array_equal(rows(n), whole[:n])]
    assert not moved, ("forward_values row-count classes moved on this BLAS build: "
                       + "; ".join(moved) + ". The golden hashes assume the recorded ones.")


def blas_build() -> str:
    """The BLAS numpy was built against, as its name and version."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def test_hidden_layer_rows_round_alike_at_every_row_count_above_one() -> None:
    """The premise of nets.forward_values_gathered, which runs the demo-Q
    refresh's hidden layers over the index's distinct latents (63 on room-nav,
    101 on four-rooms) and gathers them to every row (1,557 and 2,338): the
    256-wide hidden layers give a row the same bits at every row count from 2
    up, on both sides of ROW_CLASS_BOUNDARY, and a 1-row forward (a gemv)
    other bits."""
    counts = (2, 63, 101, ROW_CLASS_BOUNDARY - 1, ROW_CLASS_BOUNDARY, 1557)
    moved = []
    for dim in (128, 16):
        hidden = DenseNet(mlp(dim, 4, (256, 256), spawn_rng(0, "hidden-rows", dim)).layers[:-1])
        x = np.random.default_rng(dim).standard_normal((2338, dim))
        whole = forward_values(hidden, x)
        moved += [f"{dim}->256->256 at {n} rows rounds unlike 2338 rows" for n in counts
                  if not np.array_equal(forward_values(hidden, x[:n]), whole[:n])]
        if np.array_equal(forward_values(hidden, x[:1]), whole[:1]):
            moved.append(f"{dim}->256->256 at 1 row rounds as 2338 rows do")
    assert not moved, (f"hidden-layer rounding moved on this BLAS build ({blas_build()}): "
                       + "; ".join(moved) + ". forward_values_gathered and the golden "
                       "hashes assume every count from 2 up rounds alike.")


@pytest.fixture(scope="module")
def four_rooms_inputs(four_rooms_spec, four_rooms_store, tmp_path_factory):
    """The shared 40-trajectory four-rooms store and a 16-dim, 3-epoch VAE."""
    root = tmp_path_factory.mktemp("golden")
    demo_path = str(root / "four-rooms.demos.jsonl")
    demos.save_demos(four_rooms_store, demo_path)
    corpus = encoders.collect_random_observations(four_rooms_spec, 10, seed=0)
    vae, _ = encoders.train_vae(corpus, 16, encoders.VaeTrainConfig(epochs=3), seed=0)
    vae_path = str(root / "vae.jsonl")
    encoders.save_encoder(vae, vae_path)
    return demo_path, f"vae:{vae_path}"


@pytest.mark.parametrize("case", sorted(ROOM_NAV))
def test_room_nav_metrics_match_golden_hash(case, tmp_path, room_store_path) -> None:
    kind, _, ae_mode = case.partition(":")
    needs_demos = agents.LEARNERS[kind].needs_demos
    paths = run_files(tmp_path, kind, "room-nav", room_store_path if needs_demos else None,
                      ae_mode=ae_mode or None)
    check_run(*paths, "room-nav", case, ROOM_NAV[case], ROOM_NAV_SNAPSHOT[case])


@pytest.mark.parametrize("kind", sorted(FOUR_ROOMS_VAE))
def test_four_rooms_vae_metrics_match_golden_hash(kind, tmp_path, four_rooms_inputs) -> None:
    demo_path, encoder_spec = four_rooms_inputs
    paths = run_files(tmp_path, kind, "four-rooms-nav", demo_path, encoder_spec)
    check_run(*paths, "four-rooms-vae", kind, FOUR_ROOMS_VAE[kind],
              FOUR_ROOMS_VAE_SNAPSHOT[kind])


def test_saved_vae_file_matches_golden_hash(four_rooms_inputs) -> None:
    _, encoder_spec = four_rooms_inputs
    assert sha256_of(encoder_spec.split(":", 1)[1]) == VAE_FILE


GOLDEN_FILES = [("room-nav", case, ROOM_NAV[case]) for case in sorted(ROOM_NAV)] + [
    ("four-rooms-vae", kind, FOUR_ROOMS_VAE[kind]) for kind in sorted(FOUR_ROOMS_VAE)]


@pytest.mark.parametrize("group, case, digest", GOLDEN_FILES,
                         ids=[f"{group}-{case}" for group, case, _ in GOLDEN_FILES])
def test_each_golden_metrics_file_has_its_recorded_hash(group, case, digest) -> None:
    assert sha256_of(golden_csv(group, case)) == digest


def test_a_moved_run_names_its_first_differing_row_and_column(tmp_path) -> None:
    with open(golden_csv("room-nav", "cdql"), encoding="utf-8") as fh:
        golden = fh.read()
    rows = golden.splitlines(keepends=True)
    cells = rows[2].split(",")
    was, cells[5] = cells[5], "0.5"  # loss_td at step 200
    moved = "".join([*rows[:2], ",".join(cells), *rows[3:]])
    assert first_difference(golden, moved) == (
        f"row 2, column 'loss_td': golden {was!r}, this run '0.5'")
    assert first_difference(golden, golden + "1,2\n") == "row 5: an extra row"
    (tmp_path / "metrics.csv").write_text(moved, encoding="utf-8")
    (tmp_path / "snapshot.jsonl").write_text("{}\n", encoding="utf-8")
    with pytest.raises(pytest.fail.Exception,
                       match=r"^room-nav cdql: metrics.csv moved at row 2, column 'loss_td'"
                             r".*; the snapshot hash moved too$"):
        check_run(str(tmp_path / "metrics.csv"), str(tmp_path / "snapshot.jsonl"),
                  "room-nav", "cdql", ROOM_NAV["cdql"], ROOM_NAV_SNAPSHOT["cdql"])
