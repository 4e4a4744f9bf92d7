"""Minimal dense-network engine: forward/backward, Adam, target updates.

All arithmetic is float64.  Gradients over a batch are means, so the
learning rate is batch-size invariant.  Only the activations needed by the
fixed loss forms in this package are supported: relu, linear, and softmax
(output layer only).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

ACTIVATIONS = ("relu", "linear", "softmax")


@dataclass
class Layer:
    weights: np.ndarray  # (fan_in, fan_out)
    biases: np.ndarray  # (fan_out,)
    activation: str

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2 or self.biases.ndim != 1:
            raise ShapeError("layer expects 2-D weights and 1-D biases")
        if self.weights.shape[1] != self.biases.shape[0]:
            raise ShapeError(
                f"bias length {self.biases.shape[0]} != fan_out {self.weights.shape[1]}"
            )
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.biases))):
            raise ValueError("layer parameters must be finite")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class DenseNet:
    layers: list[Layer]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ShapeError("network needs at least one layer")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if prev.weights.shape[1] != cur.weights.shape[0]:
                raise ShapeError(
                    f"layer dims do not chain: {prev.weights.shape} -> {cur.weights.shape}"
                )
        for layer in self.layers[:-1]:
            if layer.activation == "softmax":
                raise ValueError("softmax is only allowed on the output layer")

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[1]

    def param_arrays(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.biases)
        return out

    def param_names(self) -> list[str]:
        out: list[str] = []
        for i in range(len(self.layers)):
            out.append(f"layer{i}.weights")
            out.append(f"layer{i}.biases")
        return out

    def copy(self) -> "DenseNet":
        return DenseNet(
            [Layer(l.weights.copy(), l.biases.copy(), l.activation) for l in self.layers]
        )


def init_net(dims: list[int], activations: list[str], rng: np.random.Generator) -> DenseNet:
    """Build a net with uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] weights."""
    if len(activations) != len(dims) - 1:
        raise ShapeError("need one activation per layer")
    layers = []
    for fan_in, fan_out, act in zip(dims, dims[1:], activations):
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        b = rng.uniform(-bound, bound, size=fan_out)
        layers.append(Layer(w, b, act))
    return DenseNet(layers)


def mlp(input_dim: int, output_dim: int, hidden: tuple[int, ...],
        rng: np.random.Generator, output_activation: str = "linear") -> DenseNet:
    dims = [input_dim, *hidden, output_dim]
    activations = ["relu"] * len(hidden) + [output_activation]
    return init_net(dims, activations, rng)


@dataclass
class Activations:
    """Per-layer outputs of one forward pass, kept for backward."""

    inputs: np.ndarray
    outputs: list[np.ndarray]

    @property
    def final(self) -> np.ndarray:
        return self.outputs[-1]


def _as_batch(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ShapeError(f"expected a batch matrix, got ndim={x.ndim}")
    return x


def forward(net: DenseNet, batch: np.ndarray) -> Activations:
    """Run the net on a batch of rows, retaining every layer output."""
    x = _as_batch(batch)
    if x.shape[1] != net.input_dim:
        raise ShapeError(f"batch has {x.shape[1]} columns, net expects {net.input_dim}")
    outputs: list[np.ndarray] = []
    h = x
    for layer in net.layers:
        z = h @ layer.weights + layer.biases
        if layer.activation == "relu":
            h = np.maximum(z, 0.0)
        elif layer.activation == "softmax":
            z = z - z.max(axis=1, keepdims=True)
            e = np.exp(z)
            h = e / e.sum(axis=1, keepdims=True)
        else:
            h = z
        outputs.append(h)
    return Activations(inputs=x, outputs=outputs)


class RowMemo:
    """The output rows of a function that does not change while the memo
    lives, keyed by the bytes of each input row.

    A batch whose rows are all known is answered from the memo; otherwise the
    whole batch goes to ``fn``, exactly the call an unmemoised caller makes,
    and every new row is recorded.  Entries are kept per batch row count: a
    dense forward's rounding depends on the batch's row count (a 1-row forward
    is a gemv, and OpenBLAS picks another gemm kernel for a 256->4 layer above
    about 900 rows), but not on the batch's other rows.  ``clear`` must be
    called whenever ``fn`` changes.  There is no size cap: callers feed grid
    worlds, whose inputs repeat.
    """

    def __init__(self, fn):
        self.fn = fn
        self._rows: dict[int, dict[bytes, np.ndarray]] = {}

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(batch, dtype=np.float64)
        if x.ndim != 2:
            raise ShapeError(f"expected a batch matrix, got ndim={x.ndim}")
        known = self._rows.setdefault(len(x), {})
        rows = []
        for row in x:
            value = known.get(row.tobytes())
            if value is None:
                break
            rows.append(value)
        else:
            if rows:
                return np.array(rows)  # a new array: callers may write to it
        out = self.fn(x)
        for row, value in zip(x, out):
            key = row.tobytes()  # made one at a time, so a large batch keeps only new rows' keys
            if key not in known:
                known[key] = value.copy()
        return out

    def clear(self) -> None:
        self._rows.clear()


def backward(
    net: DenseNet, acts: Activations, output_gradient: np.ndarray,
    input_gradient: bool = True,
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Backpropagate per-sample output gradients through the net.

    `output_gradient` rows hold the gradient of each sample's loss term with
    respect to the final output.  Parameter gradients come back as means over
    the batch (aligned with param_arrays()); the returned input gradient stays
    per-sample so nets can be chained.  With ``input_gradient=False`` it is
    not computed and comes back as None.
    """
    g = _as_batch(output_gradient)
    if len(acts.outputs) != len(net.layers):
        raise ShapeError("activations do not match this net")
    if g.shape != acts.final.shape:
        raise ShapeError(
            f"output gradient shape {g.shape} != activations shape {acts.final.shape}"
        )
    batch = g.shape[0]
    grads: list[np.ndarray] = [None] * (2 * len(net.layers))  # type: ignore[list-item]
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        out = acts.outputs[i]
        if layer.activation == "relu":
            g = g * (out > 0.0)
        elif layer.activation == "softmax":
            g = out * (g - (g * out).sum(axis=1, keepdims=True))
        prev = acts.inputs if i == 0 else acts.outputs[i - 1]
        if prev.shape[1] != layer.weights.shape[0]:
            raise ShapeError("stale activations: layer input width changed")
        grads[2 * i] = prev.T @ g / batch
        grads[2 * i + 1] = g.mean(axis=0)
        if i == 0 and not input_gradient:
            return grads, None
        g = g @ layer.weights.T
    return grads, g


@dataclass
class AdamState:
    """First/second-moment accumulators for one parameter list."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    _scratch: list[np.ndarray] = field(default_factory=list, repr=False)

    @classmethod
    def for_params(cls, params: list[np.ndarray], learning_rate: float = 1e-4) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            learning_rate=learning_rate,
            _scratch=[np.zeros_like(p) for p in params],
        )


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> None:
    """Apply one bias-corrected Adam update in place.

    Non-finite gradients reject the whole update before any mutation.
    An all-zero gradient is a complete no-op regardless of accumulated
    state (momentum does not coast).  Updates run through preallocated
    scratch buffers; this sits on the training hot path and temporary
    allocations dominate otherwise.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("params, grads and Adam state are misaligned")
    all_zero = True
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient: update rejected")
        if all_zero and np.any(g):
            all_zero = False
    if all_zero:
        return
    if len(state._scratch) != len(params):  # states built before scratch existed
        state._scratch = [np.zeros_like(p) for p in params]
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for p, g, m, v, scratch in zip(params, grads, state.m, state.v, state._scratch):
        m *= b1
        np.multiply(g, 1.0 - b1, out=scratch)
        m += scratch
        v *= b2
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - b2
        v += scratch
        # p -= lr * (m / bias1) / (sqrt(v / bias2) + eps), fused in place
        np.divide(v, bias2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += state.epsilon
        np.divide(m, scratch, out=scratch)
        scratch *= state.learning_rate / bias1
        p -= scratch


def soft_update(target: DenseNet, online: DenseNet, tau: float) -> None:
    """Blend online parameters into the target: tau*online + (1-tau)*target."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    tps, ops = target.param_arrays(), online.param_arrays()
    if len(tps) != len(ops) or any(t.shape != o.shape for t, o in zip(tps, ops)):
        raise ShapeError("target and online architectures differ")
    for t, o in zip(tps, ops):
        t *= 1.0 - tau
        t += tau * o


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
