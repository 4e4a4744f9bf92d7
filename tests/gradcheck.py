"""Finite-difference gradient checks for the tests: central differences of a
deterministic loss against its analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from kickrl.errors import ShapeError


@dataclass
class GradCheckReport:
    per_param: dict[str, float]
    max_relative_error: float
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        self.passed = self.max_relative_error <= self.tolerance


FD_PERTURBATION = 1e-5


def grad_check(net, loss_procedure, tolerance: float) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    `loss_procedure(net)` must return (loss, grads) with grads aligned with
    ``net.param_arrays()`` and must be deterministic; any stochastic node has
    to run on frozen noise.  Perturbation is 1e-5, central differences.
    """
    loss_a, grads = loss_procedure(net)
    loss_b, _ = loss_procedure(net)
    if loss_a != loss_b:
        raise RuntimeError(
            "loss_procedure is not deterministic: two evaluations differ "
            f"({loss_a!r} vs {loss_b!r})"
        )
    params = net.param_arrays()
    names = net.param_names()
    if len(grads) != len(params):
        raise ShapeError("loss_procedure returned misaligned gradients")
    h = FD_PERTURBATION
    per_param: dict[str, float] = {}
    for name, p, g in zip(names, params, grads):
        worst = 0.0
        flat = p.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up, _ = loss_procedure(net)
            flat[j] = orig - h
            down, _ = loss_procedure(net)
            flat[j] = orig
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(numeric), abs(gflat[j]), 1e-8)
            worst = max(worst, abs(numeric - gflat[j]) / denom)
        per_param[name] = worst
    return GradCheckReport(
        per_param=per_param,
        max_relative_error=max(per_param.values()) if per_param else 0.0,
        tolerance=tolerance,
    )
