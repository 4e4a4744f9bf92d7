"""Minimal dense-network engine: forward/backward, Adam, target updates.

All arithmetic is float64.  Gradients over a batch are means, so the
learning rate is batch-size invariant.  A layer is relu or linear: every net
in the package is relu hidden layers under a linear output, and the agents
take softmax over those outputs themselves.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ShapeError

ACTIVATIONS = ("relu", "linear")


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


def net_to_arrays(net: DenseNet, prefix: str) -> dict[str, np.ndarray]:
    """``{prefix}.layer{i}.weights|biases``: the layout of snapshot and encoder files."""
    return {f"{prefix}.{name}": arr for name, arr in zip(net.param_names(), net.param_arrays())}


def net_from_arrays(arrays: dict[str, np.ndarray], prefix: str,
                    activations: list[str]) -> DenseNet:
    """Rebuild the net that net_to_arrays(net, prefix) flattened.  Arrays that
    do not make such a net with one layer per activation are a FormatError
    naming line 1, the header of the file that lists them."""
    try:
        net = DenseNet([Layer(arrays[f"{prefix}.layer{i}.weights"],
                              arrays[f"{prefix}.layer{i}.biases"], act)
                        for i, act in enumerate(activations)])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"line 1: no {prefix!r} net in the arrays ({exc})") from None
    if sum(name.startswith(f"{prefix}.") for name in arrays) != 2 * len(activations):
        raise FormatError(f"line 1: the {prefix!r} arrays are not {len(activations)} layers")
    return net


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
        rng: np.random.Generator) -> DenseNet:
    dims = [input_dim, *hidden, output_dim]
    activations = ["relu"] * len(hidden) + ["linear"]
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


def _net_input(net: DenseNet, batch: np.ndarray) -> np.ndarray:
    x = _as_batch(batch)
    if x.shape[1] != net.input_dim:
        raise ShapeError(f"batch has {x.shape[1]} columns, net expects {net.input_dim}")
    return x


def _layer_output(layer: Layer, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One layer on a batch, as a new array or in ``out``.  The bias add and
    activation run in place on the gemm's result; each is the same elementwise
    operation as its out-of-place form, so the bytes equal ``act(h @ W + b)``."""
    z = np.matmul(h, layer.weights, out=out)
    z += layer.biases
    if layer.activation == "relu":
        np.maximum(z, 0.0, out=z)
    return z


def forward(net: DenseNet, batch: np.ndarray, work: AdamState | None = None) -> Activations:
    """Run the net on a batch of rows, retaining every layer output.

    With ``work`` (the net's AdamState) the outputs are written into its
    ``rows`` instead of new arrays, so they hold until the next forward with
    the same ``work``: for the forward a training step backpropagates.
    """
    x = _net_input(net, batch)
    outputs: list[np.ndarray] = []
    h = x
    for i, layer in enumerate(net.layers):
        out = None if work is None else work.rows(f"out{i}", len(x), layer.weights.shape[1])
        h = _layer_output(layer, h, out)
        outputs.append(h)
    return Activations(inputs=x, outputs=outputs)


def forward_values(net: DenseNet, batch: np.ndarray) -> np.ndarray:
    """``forward(net, batch).final``, bitwise, holding one layer's output at a
    time: for callers that never backpropagate, such as frozen nets."""
    h = _net_input(net, batch)
    for layer in net.layers:
        h = _layer_output(layer, h)
    return h


def forward_values_gathered(net: DenseNet, rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``forward_values(net, rows[ids])``, bitwise, running the hidden layers
    once per row of ``rows``: their outputs are gathered by ``ids`` into one
    (len(ids), width) array, and the output layer runs on that.

    The premise is the BLAS build's: a hidden layer's gemm rounds each row the
    same at every row count from 2 up, so a row's hidden outputs at len(rows)
    rows equal its outputs at len(ids) rows.  A 1-row forward is a gemv and
    rounds otherwise, so a lone id runs as a 1-row forward and a lone row of
    several ids as 2 rows.  The output layer keeps the len(ids)-row call,
    because its rounding can change with the row count (a 256->4 gemm changes
    kernel at 977 rows on the recorded build).  On that build the premise holds
    for hidden widths that are multiples of 8, such as the default 256
    (``tests/test_golden.py`` gates it); a net of other widths gets the same
    values up to rounding."""
    h = _net_input(net, rows)
    ids = np.asarray(ids, dtype=np.int64)
    if len(ids) == 1:
        h, ids = h[ids], np.zeros(1, dtype=np.int64)
    elif len(h) == 1:
        h = np.repeat(h, 2, axis=0)
    for layer in net.layers[:-1]:
        h = _layer_output(layer, h)
    return _layer_output(net.layers[-1], h[ids])


class RowMemo:
    """The output rows of a function that does not change while the memo
    lives, keyed by the bytes of each input row, or by ids.

    A batch whose rows are all known is answered from the memo; otherwise the
    whole batch goes to ``fn``, exactly the call an unmemoised caller makes,
    and every new row is recorded.  Entries are kept per batch row count: a
    dense forward's rounding depends on the batch's row count (a 1-row forward
    is a gemv, and OpenBLAS picks another gemm kernel for a 256->4 layer from
    977 rows on), but not on the batch's other rows.  On the package's nets
    only the output layer's rounding moves between counts above 1, which
    forward_values_gathered relies on; the memo keys by the whole count, which
    is safe on any build.  ``clear`` must be called whenever ``fn`` changes.
    There is no size cap: callers feed grid worlds, whose inputs repeat.

    With ``ids`` (the rows' ids in the RowTable numbering ``generation``)
    the memo keys on them, and a known batch is one gather: equal ids must
    mean equal rows, and ``batch`` only goes to ``fn``.  A new generation
    starts the id entries over, so no stale id is read.
    """

    def __init__(self, fn):
        self.fn = fn
        self._rows: dict[int, dict[bytes, np.ndarray]] = {}
        self._ids: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # (known, rows), by id
        self._generation = None

    def __call__(self, batch, ids: np.ndarray | None = None, generation=None) -> np.ndarray:
        if ids is not None:
            return self._by_id(batch, ids, generation)
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

    def _by_id(self, batch, ids: np.ndarray, generation) -> np.ndarray:
        if generation is not self._generation:
            self._ids.clear()
            self._generation = generation
        known, rows = self._ids.get(len(ids), (None, None))
        if known is not None and len(ids) and ids.max() < len(known) and known[ids].all():
            return rows[ids]  # a new array: callers may write to it
        out = self.fn(batch)
        fresh, first = np.unique(ids, return_index=True)  # each id's first row, as by bytes
        if known is None:
            known, rows = np.zeros(0, dtype=bool), np.empty((0,) + out.shape[1:], out.dtype)
        known = grown(known, len(fresh) and fresh[-1] + 1, False)
        rows = grown(rows, len(known), 0)
        new = ~known[fresh]
        rows[fresh[new]], known[fresh[new]] = out[first[new]], True
        self._ids[len(ids)] = known, rows
        return out

    def clear(self) -> None:
        self._rows.clear()
        self._ids.clear()


def grown(table: np.ndarray, n: int, fill) -> np.ndarray:
    """``table`` if it has ``n`` rows, else a copy with at least 64 and twice
    as many (as RowTable grows), the new ones set to ``fill``."""
    if len(table) >= n:
        return table
    out = np.full((max(n, 2 * len(table), 64),) + table.shape[1:], fill, dtype=table.dtype)
    out[:len(table)] = table
    return out


class RowTable:
    """Distinct float64 rows of one width, numbered 0, 1, ... as they first
    appear, in a growable (n, d) buffer of at most ``max_rows`` rows (a new row
    past it is an OverflowError: compact first).  Rows are told apart by their
    bytes, so 0.0 and -0.0 are two rows; np.unique(axis=0) is ~30x slower on
    128-wide grid rows.  An add equal to the previous one reuses its key, whose
    hash is cached: a transition's obs is the previous one's next_obs.
    ``compact`` renumbers the rows and makes a new ``generation``."""

    def __init__(self, max_rows: int = sys.maxsize):
        self.max_rows = max_rows
        self._buf: np.ndarray | None = None
        self._ids: dict[bytes, int] = {}
        self._last = b""
        self.generation = object()

    def add(self, row) -> int:
        """The id of a row, added if it is new."""
        return self._id(self._checked(row, 1))

    def add_all(self, rows) -> np.ndarray:
        """The ids of a (B, d) batch's rows, each added if it is new."""
        return np.fromiter(map(self._id, self._checked(rows, 2)), dtype=np.int64)

    def _checked(self, rows, ndim: int) -> np.ndarray:
        x = np.ascontiguousarray(rows, dtype=np.float64)
        if x.ndim == ndim and self._buf is None:
            self._buf = np.empty((0, x.shape[-1]))
        if x.ndim != ndim or x.shape[-1] != self._buf.shape[1]:
            raise ShapeError(f"shape {x.shape} is not {ndim}-D rows of the table's width")
        return x

    def _id(self, row: np.ndarray) -> int:
        key = row.tobytes()
        if key != self._last:  # else keep the last key, whose hash is cached
            self._last = key
        row_id = self._ids.get(self._last)
        if row_id is None:
            row_id = n = len(self._ids)
            if n == len(self._buf):
                size = min(max(64, 2 * n), self.max_rows)
                if size == n:
                    raise OverflowError(f"the table is full at {n} rows: compact it")
                self._buf = np.concatenate([self._buf, np.empty((size - n, row.size))])
            self._buf[n] = row
            self._ids[self._last] = n
        return row_id

    @property
    def rows(self) -> np.ndarray:
        """The (len, d) rows by id, as a view that a later add or compact may
        leave stale."""
        return np.empty((0, 0)) if self._buf is None else self._buf[:len(self._ids)]

    def __len__(self) -> int:
        return len(self._ids)

    def compact(self, live: np.ndarray) -> np.ndarray:
        """Keep the rows whose ids are in ``live``, renumbered in id order, and
        return the map from old ids to new ones, -1 for a dropped row."""
        kept = np.unique(np.asarray(live, dtype=np.int64))
        renumber = np.full(len(self._ids), -1, dtype=np.int64)
        renumber[kept] = np.arange(len(kept))
        self.rows[:len(kept)] = self.rows[kept]
        self._ids = {key: int(renumber[i]) for key, i in self._ids.items() if renumber[i] >= 0}
        self.generation = object()
        return renumber


def backward(
    net: DenseNet, acts: Activations, output_gradient: np.ndarray,
    input_gradient: bool = True, work: AdamState | None = None,
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Backpropagate per-sample output gradients through the net.

    `output_gradient` rows hold the gradient of each sample's loss term with
    respect to the final output.  Parameter gradients come back as means over
    the batch (aligned with param_arrays()); the returned input gradient stays
    per-sample so nets can be chained.  With ``input_gradient=False`` it is
    not computed and comes back as None.

    Without ``work`` every returned array is new.  With ``work`` (the net's
    AdamState) the parameter gradients are its ``grads`` and the per-sample
    gradients live in its ``rows``, overwritten by the next backward with the
    same ``work``; the bytes are the same either way.
    """
    g = _as_batch(output_gradient)
    if len(acts.outputs) != len(net.layers):
        raise ShapeError("activations do not match this net")
    if g.shape != acts.final.shape:
        raise ShapeError(
            f"output gradient shape {g.shape} != activations shape {acts.final.shape}"
        )
    if work is not None and len(work.grads) != 2 * len(net.layers):
        raise ShapeError("work buffers do not match this net")
    batch = g.shape[0]
    grads: list[np.ndarray] = [None] * (2 * len(net.layers))  # type: ignore[list-item]
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if layer.activation == "relu":
            # below the top layer g is backward's own array, so it is masked in place
            g = np.multiply(g, acts.outputs[i] > 0.0, out=g if i < len(net.layers) - 1 else None)
        prev = acts.inputs if i == 0 else acts.outputs[i - 1]
        if prev.shape[1] != layer.weights.shape[0]:
            raise ShapeError("stale activations: layer input width changed")
        # prev.T @ g / batch and g.mean(axis=0), which is add.reduce, then a division
        grads[2 * i] = np.matmul(prev.T, g, out=None if work is None else work.grads[2 * i])
        grads[2 * i] /= batch
        grads[2 * i + 1] = np.add.reduce(g, axis=0,
                                         out=None if work is None else work.grads[2 * i + 1])
        grads[2 * i + 1] /= batch
        if i == 0 and not input_gradient:
            return grads, None
        g = np.matmul(g, layer.weights.T, out=None if work is None
                      else work.rows(f"dx{i}", batch, layer.weights.shape[0]))
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
    # adam_step's work buffer: it updates one parameter at a time, so the
    # largest parameter's size serves them all.
    _scratch: np.ndarray = field(init=False, repr=False)
    # forward(work=) and backward(work=) write a training step's arrays into
    # grads and rows(), so that a step allocates nothing of a parameter's or
    # a batch's size and its speed does not depend on the heap's history.
    grads: list[np.ndarray] = field(init=False, repr=False)
    _rows: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._scratch = np.zeros(max((m.size for m in self.m), default=0))
        self.grads = [np.zeros_like(m) for m in self.m]
        self._rows = {}

    def rows(self, name: str, n: int, width: int) -> np.ndarray:
        """The first ``n`` rows of the float64 work array kept under ``name``
        for as long as this state: a training step's batch-sized arrays.  It
        is reallocated only for a larger ``n`` or another width, so a shorter
        last batch is a slice.  Its contents are whatever was last written."""
        buf = self._rows.get(name)
        if buf is None or len(buf) < n or buf.shape[1] != width:
            buf = self._rows[name] = np.empty((n, width))
        return buf[:n]

    @classmethod
    def for_params(cls, params: list[np.ndarray], learning_rate: float = 1e-4) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            learning_rate=learning_rate,
        )


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> None:
    """Apply one bias-corrected Adam update in place.

    Non-finite gradients reject the whole update before any mutation.
    An all-zero gradient is a complete no-op regardless of accumulated
    state (momentum does not coast).  Updates run through the state's
    preallocated scratch buffer; this sits on the training hot path and
    temporary allocations dominate otherwise.
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
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        scratch = state._scratch[:p.size].reshape(p.shape)
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
