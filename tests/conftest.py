import os

# Pin BLAS threads before numpy loads anywhere in the session; the dense
# kernels here are too small to benefit from threading.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import threading
import warnings

import pytest

from kickrl import demos, encoders, envs, nets


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """A test may leave no new thread running but the one nets worker, which
    lives for the process (tests/test_memory.py checks that it holds no net)."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate()
            if t not in before and t.name != nets.WORKER_NAME]
    assert not left, f"threads still running after the test: {left}"


@pytest.fixture(scope="session")
def room_spec():
    return envs.make_room_nav()


@pytest.fixture(scope="session")
def room_store(room_spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", demos.DemoBudgetWarning)
        return demos.generate_demos(room_spec, expert_noise=0.1, n_traj=40, seed=3)


@pytest.fixture(scope="session")
def room_store_path(room_store, tmp_path_factory):
    path = tmp_path_factory.mktemp("demos") / "room.demos.jsonl"
    demos.save_demos(room_store, str(path))
    return str(path)


@pytest.fixture(scope="session")
def four_rooms_spec():
    return envs.make_four_rooms()


@pytest.fixture(scope="session")
def four_rooms_store(four_rooms_spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", demos.DemoBudgetWarning)
        return demos.generate_demos(four_rooms_spec, expert_noise=0.1, n_traj=40, seed=3)


@pytest.fixture(scope="session")
def four_rooms_vae(four_rooms_spec):
    """A small VAE trained briefly: its latents are floats, not grid integers."""
    corpus = encoders.collect_random_observations(four_rooms_spec, 10, seed=0)
    vae, _ = encoders.train_vae(corpus, 8, encoders.VaeTrainConfig(epochs=3), seed=0)
    return vae


MARKED_FILES = {"test_acceptance.py": pytest.mark.acceptance, "test_golden.py": pytest.mark.golden,
                "test_memory.py": pytest.mark.memory, "test_snapshots.py": pytest.mark.formats}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.name in MARKED_FILES:
            item.add_marker(MARKED_FILES[item.path.name])
