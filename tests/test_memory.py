"""Memory held by the largest structures of a run, and the transient memory
of a gradient step, measured with tracemalloc (deterministic, unlike the
resident set size)."""

from __future__ import annotations

import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kickrl import agents, demos, encoders, envs, harness, nets, snapshots
from kickrl.retrieval import LatentIndex
from kickrl.seeding import spawn_seed


def _refresh_peak(latents: np.ndarray, hidden: int) -> int:
    """Peak bytes of one demo-Q refresh on an index of these latents, under
    two hidden layers of ``hidden``."""
    rows = len(latents)
    rng = np.random.default_rng(0)
    index = LatentIndex(latents=latents, actions=rng.integers(0, 4, rows), rewards=np.zeros(rows),
                        provenance=[(0, t) for t in range(rows)], encoder_id="test",
                        env_id="four-rooms", action_count=4)
    hp = replace(agents.defaults_for("cdql-ae"), hidden=(hidden, hidden))
    learner = agents.AdversarialKickstartLearner(latents.shape[1], 4, hp, 1, index=index)
    tracemalloc.start()
    try:
        learner._refresh_demo_cache()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_demo_q_refresh_holds_two_hidden_layers_at_a_time() -> None:
    """The benchmark's four-rooms index size, 2,338 rows of 16-dim latents,
    with no latent repeated, under two hidden layers of 256: two (rows, 256)
    arrays at a time (the second hidden layer and its gather).
    Out-of-place bias adds and activations, with every layer's output kept,
    peaked near four layers' worth of rows.  Measured: 2.03x."""
    rows, hidden = 2338, 256
    latents = np.random.default_rng(0).standard_normal((rows, 16))
    assert _refresh_peak(latents, hidden) <= 2.5 * rows * hidden * 8


def test_demo_q_refresh_holds_one_hidden_layer_of_rows_when_latents_repeat() -> None:
    """101 distinct latents in 2,338 rows, as in the benchmark's four-rooms
    index: the hidden layers run on 101 rows, and only their gather to every
    row is (rows, 256).  A forward over every row peaked at 2.01x.
    Measured: 1.07x."""
    rows, hidden = 2338, 256
    rng = np.random.default_rng(1)
    latents = rng.standard_normal((101, 16))[rng.integers(0, 101, rows)]
    assert _refresh_peak(latents, hidden) <= 1.25 * rows * hidden * 8


def test_forward_values_holds_one_layer_output_at_a_time() -> None:
    """Three hidden layers: ``forward`` keeps all three outputs for backward,
    the values-only forward only the layer it reads and the one it writes."""
    rows, hidden = 2338, 256
    net = nets.mlp(16, 4, (hidden, hidden, hidden), np.random.default_rng(2))
    x = np.random.default_rng(3).standard_normal((rows, 16))
    peaks = {}
    for fn in (nets.forward_values, lambda n, b: nets.forward(n, b).final):
        tracemalloc.start()
        try:
            fn(net, x)
            peaks[fn] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    values_peak, forward_peak = peaks.values()
    assert values_peak <= 2.5 * rows * hidden * 8 < forward_peak


@pytest.mark.parametrize("make_spec", [envs.make_room_nav, envs.make_four_rooms])
def test_replay_holds_under_one_and_a_half_mb_after_3000_pushes(make_spec) -> None:
    """3,000 random-policy steps pushed as the training loop pushes them: each
    step's observation arrays are new."""
    spec = make_spec()
    rng = np.random.default_rng(1)
    actions = rng.integers(0, spec.action_count, 3000)
    tracemalloc.start()
    try:
        buffer = harness.ReplayBuffer(10_000)
        state, obs, episode = None, None, 0
        for action in actions.tolist():
            if obs is None or state.done:
                state, obs = envs.reset(spec, spawn_seed(1, "episode", episode))
                episode += 1
            res = envs.step(spec, state, action)
            buffer.push(obs, action, res.reward, res.observation, res.terminated,
                        res.truncated)
            obs = res.observation
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(buffer) == 3000
    assert held < 1.5e6


def _traced(fn) -> tuple[int, int]:
    """(bytes still held, peak bytes) of the allocations ``fn`` makes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_loaded_bench_room_nav_store_holds_under_one_mb(tmp_path) -> None:
    """The benchmark's store: 1,557 transitions over 64 distinct observations
    of 128 floats.  One array per row held 3.67 MB."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", demos.DemoBudgetWarning)
        store = demos.generate_demos(envs.make_room_nav(), 0.1, 200, 11)
    path = str(tmp_path / "room.demos.jsonl")
    demos.save_demos(store, path)
    loaded = []
    held, _ = _traced(lambda: loaded.append(demos.load_demos(path)))
    assert loaded[0].total_transitions == 1557
    assert held < 1e6


def _reference_save_arrays(path: str, arrays: dict[str, np.ndarray]) -> None:
    """save_arrays as it was before write_records memoised array texts."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format_version": 1, "kind": "named-arrays",
                             "names": list(arrays), "meta": {}}) + "\n")
        for name, arr in arrays.items():
            fh.write(json.dumps({"name": name, "shape": list(arr.shape),
                                 "data": [float(v) for v in arr.reshape(-1)]}) + "\n")


def test_writing_a_snapshot_peaks_no_higher_than_formatting_each_float(tmp_path) -> None:
    """A Q-net of 99,844 parameters: its arrays never repeat, so the writer
    keeps no text of one array while it writes the next."""
    arrays = nets.net_to_arrays(nets.mlp(128, 4, (256, 256), np.random.default_rng(0)), "q")
    path = str(tmp_path / "q.snapshot.jsonl")
    _, peak = _traced(lambda: snapshots.save_arrays(path, arrays))
    _, reference_peak = _traced(lambda: _reference_save_arrays(str(tmp_path / "ref.jsonl"),
                                                               arrays))
    assert sum(arr.size for arr in arrays.values()) == 99_844
    assert peak <= reference_peak


def test_saving_a_snapshot_peaks_under_one_mib(tmp_path) -> None:
    """The same Q-net, whose 256 x 256 weights are 65,536 values.  Writing
    each array whole held its Python floats and its JSON text at once and
    peaked at 7.12 MiB; the writer holds one piece of them at a time.
    Measured: 0.56 MiB."""
    arrays = nets.net_to_arrays(nets.mlp(128, 4, (256, 256), np.random.default_rng(0)), "q")
    path = str(tmp_path / "q.snapshot.jsonl")
    _, peak = _traced(lambda: snapshots.save_arrays(path, arrays))
    assert sum(arr.size for arr in arrays.values()) == 99_844
    assert peak <= 2**20


def _step_peak(step, steps: int = 4) -> int:
    """Peak bytes that ``steps`` calls of ``step`` allocate on top of what is
    held after one warm-up call (which sizes every buffer)."""
    tracemalloc.start()
    try:
        step()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        for _ in range(steps):
            step()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def _batch(rng: np.random.Generator, rows: int, dim: int) -> agents.ArrayBatch:
    return agents.ArrayBatch(latents=rng.standard_normal((rows, dim)),
                             actions=rng.integers(0, 4, rows),
                             rewards=rng.standard_normal(rows),
                             next_latents=rng.standard_normal((rows, dim)),
                             terminated=np.zeros(rows), truncated=np.zeros(rows))


# A gradient step whose arrays of a parameter's or a batch's size live in its
# optimiser allocates only small temporaries, so its speed cannot depend on how
# the allocator's heap was left.  One new 256 x 256 gradient is 512 KiB.


def test_a_cdql_td_step_allocates_under_128_kib() -> None:
    """Room-nav: 128-wide latents, two hidden layers of 256, batch 32.  The
    step's largest temporaries are 64 KiB (a 32 x 256 layer output); with new
    gradient arrays it peaked at 1,000,218 B.  Measured: 76,952 B."""
    rng = np.random.default_rng(20)
    learner = agents.QLearner(128, 4, agents.defaults_for("cdql"), 1)
    batch, targets = _batch(rng, 32, 128), rng.standard_normal(32)
    peak = _step_peak(lambda: agents.td_step(batch, targets, learner.q, learner.opt))
    assert peak < 128 * 1024


def test_a_teacher_bc_step_allocates_under_128_kib() -> None:
    """The BCLearner that clones qdagger's teacher, on a room-nav batch of
    32.  With new gradient arrays it peaked at 1,001,786 B.  Measured: 78,416 B."""
    learner = agents.BCLearner(128, 4, agents.defaults_for("bc"), 1, init_tag="teacher")
    batch = _batch(np.random.default_rng(21), 32, 128)
    assert _step_peak(lambda: learner.train_batch(batch)) < 128 * 1024


@pytest.mark.parametrize("rows", [128, 123])  # a full batch and the bench corpus's tail
def test_a_vae_train_step_allocates_under_256_kib(rows) -> None:
    """The bench's four-rooms VAE: 242 inputs, hidden (64, 64), 16 latents.
    A (128, 242) array is 242 KiB; the step's largest temporaries left are
    (rows, 16) and (rows, 32) arrays of the loss.  With new arrays it peaked
    at 1,459,312 B (128 rows) and 1,420,504 B (123 rows).  Measured: 195,064 B
    and 187,432 B."""
    vae = encoders.new_vae(242, 16, seed=0)
    enc_opt = nets.AdamState.for_params(vae.enc_net.param_arrays(), 3e-4)
    dec_opt = nets.AdamState.for_params(vae.dec_net.param_arrays(), 3e-4)
    rng = np.random.default_rng(22)
    full, batch = rng.random((128, 242)), rng.random((rows, 242))
    encoders.vae_train_step(vae, full, 0.0, enc_opt, dec_opt)  # sizes the buffers to 128 rows
    peak = _step_peak(lambda: encoders.vae_train_step(vae, batch, 5e-8, enc_opt, dec_opt))
    assert peak < 256 * 1024


def test_the_bench_vae_corpus_and_an_epoch_of_training_peak_under_5_mib() -> None:
    """The benchmark's four-rooms corpus, 5,371 rows of 242 floats over 104
    distinct observations, and one epoch of its VAE's training.  Expanding
    the corpus to one row per step (10.4 MB) peaked at 13.2 MiB.  Measured:
    3.56 MiB, and 4.29 MiB on a process's first call, which also imports."""
    def collect_and_train():
        corpus = encoders.collect_random_observations(envs.make_four_rooms(), 50, seed=0)
        encoders.train_vae(corpus, 16, encoders.VaeTrainConfig(epochs=1), seed=0)

    _, peak = _traced(collect_and_train)
    assert peak < 5 * 2**20
