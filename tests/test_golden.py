"""Golden hashes: the `metrics.csv` and `params.snapshot.jsonl` bytes every
agent kind writes on a small fixed config, and the bytes of the saved VAE
encoder those runs load, pinned across changes to the code.

A refactor of the training loop, the learners or the parameter file format
must leave these hashes unchanged; `test_run_is_bitwise_reproducible` only
shows a run agrees with itself.  The hashes assume single-thread
numpy/OpenBLAS (the package pins it at import) on x86-64; another BLAS build
may round the gemms differently.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from kickrl import agents, demos, encoders, harness

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


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_hashes(tmp_path, kind: str, env_name: str, demo_path: str | None,
               encoder_spec: str = "identity", ae_mode: str | None = None) -> tuple[str, str]:
    """sha256 of the run's (metrics.csv, params.snapshot.jsonl)."""
    hp = agents.scale_step_budgets(agents.defaults_for(kind), STEPS)
    if ae_mode is not None:
        hp.ae_mode = ae_mode
    cfg = harness.RunConfig(
        env_name=env_name, agent=kind, total_steps=STEPS, seed=1,
        out_dir=str(tmp_path / kind), hp=hp, encoder_spec=encoder_spec,
        demo_path=demo_path, eval_cadence=200, eval_episodes=3)
    harness.train_run(cfg)
    return (sha256_of(os.path.join(cfg.out_dir, "metrics.csv")),
            sha256_of(os.path.join(cfg.out_dir, "params.snapshot.jsonl")))


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
    needs_demos = kind in agents.KINDS_NEEDING_DEMOS
    metrics, snapshot = run_hashes(tmp_path, kind, "room-nav",
                                   room_store_path if needs_demos else None,
                                   ae_mode=ae_mode or None)
    assert metrics == ROOM_NAV[case]
    assert snapshot == ROOM_NAV_SNAPSHOT[case]


@pytest.mark.parametrize("kind", sorted(FOUR_ROOMS_VAE))
def test_four_rooms_vae_metrics_match_golden_hash(kind, tmp_path, four_rooms_inputs) -> None:
    demo_path, encoder_spec = four_rooms_inputs
    metrics, snapshot = run_hashes(tmp_path, kind, "four-rooms-nav", demo_path, encoder_spec)
    assert metrics == FOUR_ROOMS_VAE[kind]
    assert snapshot == FOUR_ROOMS_VAE_SNAPSHOT[kind]


def test_saved_vae_file_matches_golden_hash(four_rooms_inputs) -> None:
    _, encoder_spec = four_rooms_inputs
    assert sha256_of(encoder_spec.split(":", 1)[1]) == VAE_FILE
