"""kickrl: demonstration-kickstarted off-policy Q-learning on grid worlds."""

import os as _os

# The dense nets here are small (batch 32, 256-unit layers); multithreaded
# BLAS loses 3-4x to thread-pool overhead on the backward gemms.  Only takes
# effect when numpy has not been imported yet and the user has not chosen.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
_os.environ.setdefault("OMP_NUM_THREADS", "1")

from .agents import (
    AGENT_KINDS,
    Hyperparams,
    LossBreakdown,
    defaults_for,
    eps_at,
    scale_step_budgets,
)
from .demos import DemoStore, Trajectory, Transition, generate_demos, load_demos, save_demos
from .encoders import (
    DenseVaeEncoder,
    IdentityEncoder,
    StandardizeEncoder,
    VaeTrainConfig,
    beta_schedule,
    train_vae,
)
from .envs import GridWorldSpec, make_collect, make_corridor, make_four_rooms, make_room_nav
from .harness import (
    ReplayBuffer,
    RunConfig,
    compare_runs,
    evaluate,
    report_table,
    run_seeds,
    train_run,
)
from .retrieval import DirichletBelief, LatentIndex, build_index, posterior_update

__version__ = "0.1.0"

__all__ = [
    "AGENT_KINDS",
    "DemoStore",
    "DenseVaeEncoder",
    "DirichletBelief",
    "GridWorldSpec",
    "Hyperparams",
    "IdentityEncoder",
    "LatentIndex",
    "LossBreakdown",
    "ReplayBuffer",
    "RunConfig",
    "StandardizeEncoder",
    "Trajectory",
    "Transition",
    "VaeTrainConfig",
    "beta_schedule",
    "build_index",
    "compare_runs",
    "defaults_for",
    "eps_at",
    "evaluate",
    "generate_demos",
    "load_demos",
    "make_collect",
    "make_corridor",
    "make_four_rooms",
    "make_room_nav",
    "posterior_update",
    "report_table",
    "run_seeds",
    "save_demos",
    "scale_step_budgets",
    "train_run",
    "train_vae",
]
