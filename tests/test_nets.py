from __future__ import annotations

import numpy as np
import pytest

from kickrl import nets
from kickrl.errors import ShapeError
from kickrl.seeding import spawn_rng


def small_net(seed: int, dims=None, activations=None) -> nets.DenseNet:
    rng = np.random.default_rng(seed)
    dims = dims or [4, 6, 3]
    activations = activations or ["relu", "linear"]
    return nets.init_net(dims, activations, rng)


# -- forward -------------------------------------------------------------------


def test_forward_zero_weights_outputs_bias() -> None:
    bias = np.array([0.5, -1.0])
    net = nets.DenseNet([nets.Layer(np.zeros((3, 2)), bias, "linear")])
    out = nets.forward(net, np.random.default_rng(0).standard_normal((4, 3))).final
    assert np.array_equal(out, np.tile(bias, (4, 1)))


def test_forward_relu_clamps_negative_preactivations() -> None:
    net = nets.DenseNet([nets.Layer(np.eye(2), np.zeros(2), "relu")])
    out = nets.forward(net, np.array([[-3.0, 2.0]])).final
    assert out.tolist() == [[0.0, 2.0]]


def test_forward_batch_shape_contract() -> None:
    net = small_net(0)
    out = nets.forward(net, np.random.default_rng(1).standard_normal((7, 4))).final
    assert out.shape == (7, 3)


def test_forward_rejects_wrong_width() -> None:
    with pytest.raises(ShapeError):
        nets.forward(small_net(0), np.zeros((2, 5)))


def test_forward_is_deterministic_bitwise() -> None:
    net = small_net(3)
    x = np.random.default_rng(2).standard_normal((5, 4))
    a = nets.forward(net, x).final
    b = nets.forward(net, x).final
    assert np.array_equal(a, b)


def test_softmax_output_rows_are_distributions() -> None:
    net = nets.init_net([3, 4], ["softmax"], np.random.default_rng(5))
    out = nets.forward(net, np.random.default_rng(6).standard_normal((9, 3))).final
    assert np.all(out > 0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_only_allowed_on_output_layer() -> None:
    with pytest.raises(ValueError):
        nets.init_net([3, 4, 2], ["softmax", "linear"], np.random.default_rng(0))


# -- backward ------------------------------------------------------------------


def test_backward_zero_output_gradient_gives_zero_grads() -> None:
    net = small_net(1)
    x = np.random.default_rng(3).standard_normal((5, 4))
    acts = nets.forward(net, x)
    grads, input_grad = nets.backward(net, acts, np.zeros((5, 3)))
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)
    assert np.array_equal(input_grad, np.zeros((5, 4)))


def test_backward_single_linear_layer_matches_closed_form() -> None:
    # per-sample loss 0.5*||yhat - y||^2 averaged over the batch has
    # dL/dW = X^T (yhat - y) / B
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 3))
    y = rng.standard_normal((6, 2))
    net = nets.init_net([3, 2], ["linear"], rng)
    acts = nets.forward(net, x)
    resid = acts.final - y
    grads, _ = nets.backward(net, acts, resid)
    assert np.allclose(grads[0], x.T @ resid / 6, atol=1e-14)
    assert np.allclose(grads[1], resid.mean(axis=0), atol=1e-14)


@pytest.mark.parametrize("seed", range(20))
def test_backward_matches_finite_differences_on_random_nets(seed: int) -> None:
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(1, 4))
    dims = [int(rng.integers(2, 6)) for _ in range(depth + 1)]
    activations = [str(rng.choice(["relu", "linear"])) for _ in range(depth - 1)]
    activations.append("linear")
    net = nets.init_net(dims, activations, rng)
    x = rng.standard_normal((4, dims[0]))
    y = rng.standard_normal((4, dims[-1]))

    def loss_proc(n):
        acts = nets.forward(n, x)
        per_sample = acts.final - y
        loss = float(np.mean(np.sum(per_sample**2, axis=1)))
        grads, _ = nets.backward(n, acts, 2.0 * per_sample)
        return loss, grads

    report = nets.grad_check(net, loss_proc, tolerance=1e-4)
    assert report.passed, report.per_param


def test_backward_rejects_mismatched_activations() -> None:
    net = small_net(6)
    other = small_net(7, dims=[5, 6, 3], activations=["relu", "linear"])
    acts = nets.forward(other, np.zeros((2, 5)))
    with pytest.raises(ShapeError):
        nets.backward(net, acts, np.zeros((2, 3)))


# -- adam ----------------------------------------------------------------------


def test_adam_zero_gradient_is_noop_for_any_state() -> None:
    net = small_net(8)
    params = net.param_arrays()
    state = nets.AdamState.for_params(params, learning_rate=1e-3)
    # put the state mid-flight: moments and counter nonzero
    rng = np.random.default_rng(9)
    for m, v in zip(state.m, state.v):
        m += rng.standard_normal(m.shape)
        v += np.abs(rng.standard_normal(v.shape))
    state.step = 17
    before = [p.copy() for p in params]
    nets.adam_step(params, [np.zeros_like(p) for p in params], state)
    assert all(np.array_equal(p, b) for p, b in zip(params, before))
    assert state.step == 17  # a no-op does not advance the state either


def test_adam_first_step_is_signed_learning_rate() -> None:
    net = small_net(10)
    params = net.param_arrays()
    state = nets.AdamState.for_params(params, learning_rate=1e-3)
    grads = [np.full_like(p, 0.7) for p in params]
    before = [p.copy() for p in params]
    nets.adam_step(params, grads, state)
    for p, b in zip(params, before):
        assert np.allclose(p - b, -1e-3, rtol=1e-6)


def test_adam_descends_a_quadratic_bowl_monotonically() -> None:
    theta = np.array([5.0, -4.0, 3.0])
    params = [theta]
    state = nets.AdamState.for_params(params, learning_rate=1e-2)
    losses = []
    for _ in range(100):
        losses.append(0.5 * float(np.sum(theta**2)))
        nets.adam_step(params, [theta.copy()], state)
    losses.append(0.5 * float(np.sum(theta**2)))
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_adam_rejects_non_finite_gradients_without_mutation() -> None:
    net = small_net(11)
    params = net.param_arrays()
    state = nets.AdamState.for_params(params)
    grads = [np.zeros_like(p) for p in params]
    grads[0][0, 0] = np.nan
    before = [p.copy() for p in params]
    with pytest.raises(FloatingPointError):
        nets.adam_step(params, grads, state)
    assert all(np.array_equal(p, b) for p, b in zip(params, before))
    assert state.step == 0


# -- soft updates ----------------------------------------------------------------


def test_soft_update_tau_one_copies_online() -> None:
    target, online = small_net(12), small_net(13)
    nets.soft_update(target, online, 1.0)
    for t, o in zip(target.param_arrays(), online.param_arrays()):
        assert np.array_equal(t, o)
    # idempotent: a second application changes nothing
    snapshot = [t.copy() for t in target.param_arrays()]
    nets.soft_update(target, online, 1.0)
    for t, s in zip(target.param_arrays(), snapshot):
        assert np.array_equal(t, s)


def test_soft_update_tau_zero_is_identity() -> None:
    target, online = small_net(14), small_net(15)
    before = [t.copy() for t in target.param_arrays()]
    nets.soft_update(target, online, 0.0)
    for t, b in zip(target.param_arrays(), before):
        assert np.array_equal(t, b)


def test_soft_update_tau_half_is_elementwise_mean() -> None:
    target, online = small_net(16), small_net(17)
    expected = [0.5 * t + 0.5 * o
                for t, o in zip(target.param_arrays(), online.param_arrays())]
    nets.soft_update(target, online, 0.5)
    for t, e in zip(target.param_arrays(), expected):
        assert np.allclose(t, e, atol=1e-15)


def test_soft_update_rejects_architecture_mismatch() -> None:
    with pytest.raises(ShapeError):
        nets.soft_update(small_net(18), small_net(19, dims=[4, 5, 3]), 0.5)


# -- grad_check ------------------------------------------------------------------


def _td_like_loss(x: np.ndarray, actions: np.ndarray, targets: np.ndarray):
    def proc(net):
        acts = nets.forward(net, x)
        rows = np.arange(len(actions))
        resid = acts.final[rows, actions] - targets
        loss = float(np.mean(resid**2))
        grad_rows = np.zeros_like(acts.final)
        grad_rows[rows, actions] = 2.0 * resid
        grads, _ = nets.backward(net, acts, grad_rows)
        return loss, grads
    return proc


def test_grad_check_passes_on_correct_td_gradients() -> None:
    rng = np.random.default_rng(20)
    net = small_net(21)
    proc = _td_like_loss(rng.standard_normal((6, 4)),
                         rng.integers(0, 3, size=6),
                         rng.standard_normal(6))
    report = nets.grad_check(net, proc, tolerance=1e-4)
    assert report.passed
    assert report.max_relative_error <= 1e-4


def test_grad_check_fails_on_corrupted_gradient() -> None:
    rng = np.random.default_rng(22)
    net = small_net(23)
    proc = _td_like_loss(rng.standard_normal((6, 4)),
                         rng.integers(0, 3, size=6),
                         rng.standard_normal(6))

    def corrupted(n):
        loss, grads = proc(n)
        grads = [g.copy() for g in grads]
        grads[0][0, 0] *= 2.0
        return loss, grads

    assert not nets.grad_check(net, corrupted, tolerance=1e-4).passed


def test_grad_check_detects_nondeterministic_loss() -> None:
    net = small_net(24)
    rng = np.random.default_rng(25)

    def noisy(n):
        acts = nets.forward(n, rng.standard_normal((2, 4)))
        loss = float(np.sum(acts.final**2))
        grads, _ = nets.backward(net, acts, 2.0 * acts.final)
        return loss, grads

    with pytest.raises(RuntimeError, match="not deterministic"):
        nets.grad_check(net, noisy, tolerance=1e-4)


def test_grad_check_report_pass_flag_tracks_tolerance() -> None:
    report = nets.GradCheckReport(per_param={"w": 5e-4}, max_relative_error=5e-4,
                                  tolerance=1e-4)
    assert not report.passed
    report2 = nets.GradCheckReport(per_param={"w": 5e-5}, max_relative_error=5e-5,
                                   tolerance=1e-4)
    assert report2.passed


# -- initialization ----------------------------------------------------------------


def test_init_net_respects_fan_in_bound() -> None:
    net = nets.mlp(64, 4, (32,), spawn_rng(0, "t"))
    first = net.layers[0]
    bound = 1.0 / np.sqrt(64)
    assert np.all(np.abs(first.weights) <= bound)
    assert np.all(np.abs(first.biases) <= bound)


def test_dense_net_rejects_nonchaining_layers() -> None:
    with pytest.raises(ShapeError):
        nets.DenseNet([
            nets.Layer(np.zeros((3, 4)), np.zeros(4), "relu"),
            nets.Layer(np.zeros((5, 2)), np.zeros(2), "linear"),
        ])


def test_layer_rejects_non_finite_parameters() -> None:
    weights = np.zeros((2, 2))
    weights[0, 0] = np.inf
    with pytest.raises(ValueError):
        nets.Layer(weights, np.zeros(2), "linear")


# -- the frozen-function memo ---------------------------------------------------------


PREMISE_SHAPES = {  # (dims, activations) of the nets the package memoises
    "q-net identity latents": ([128, 256, 256, 4], ["relu", "relu", "linear"]),
    "q-net vae latents": ([16, 256, 256, 4], ["relu", "relu", "linear"]),
    "vae encoder": ([242, 64, 64, 32], ["relu", "relu", "linear"]),
}


@pytest.mark.parametrize("shape", sorted(PREMISE_SHAPES))
def test_a_rows_output_depends_only_on_the_row_and_the_row_count(shape) -> None:
    """The premise of RowMemo: in forwards of the same row count, rows with
    equal bytes give bitwise-equal outputs wherever they sit in the batch."""
    dims, activations = PREMISE_SHAPES[shape]
    rng = np.random.default_rng(70)
    net = nets.init_net(dims, activations, rng)
    pool = rng.integers(0, 2, size=(24, dims[0])).astype(np.float64)
    if dims[0] == 16:  # VAE latents are floats, not grid integers
        pool = rng.standard_normal((24, dims[0]))
    for n in [*range(1, 97), 1557, 2338]:
        seen: dict[int, np.ndarray] = {}
        for _ in range(2):
            picks = rng.integers(0, len(pool), n)
            out = nets.forward(net, pool[picks]).final
            for pick, row in zip(picks, out):
                first = seen.setdefault(int(pick), row)
                assert np.array_equal(first, row), (shape, n, int(pick))


def counted(net):
    calls = []

    def fn(x):
        calls.append(len(x))
        return nets.forward(net, x).final

    return fn, calls


def test_row_memo_answers_bitwise_like_a_fresh_forward() -> None:
    net = small_net(71)
    fn, calls = counted(net)
    memo = nets.RowMemo(fn)
    rng = np.random.default_rng(72)
    pool = rng.standard_normal((6, 4))
    for _ in range(40):
        batch = pool[rng.integers(0, len(pool), rng.integers(1, 9))]
        assert np.array_equal(memo(batch), nets.forward(net, batch).final)
    assert len(calls) < 40  # repeated batches were answered from the memo


def test_row_memo_forwards_the_whole_batch_on_a_miss() -> None:
    net = small_net(73)
    fn, calls = counted(net)
    memo = nets.RowMemo(fn)
    pool = np.random.default_rng(74).standard_normal((3, 4))
    memo(pool[[0, 1]])
    memo(pool[[1, 0]])
    assert calls == [2]
    memo(pool[[0, 2]])
    assert calls == [2, 2]


def test_row_memo_keeps_row_counts_apart() -> None:
    """A 1-row forward is a gemv and may round differently from the same row
    inside a larger batch, so the memo never answers one from the other."""
    net = small_net(75)
    fn, calls = counted(net)
    memo = nets.RowMemo(fn)
    row = np.random.default_rng(76).standard_normal((1, 4))
    memo(np.vstack([row, row]))
    assert np.array_equal(memo(row), nets.forward(net, row).final)
    assert calls == [2, 1]


def test_row_memo_results_can_be_mutated_by_the_caller() -> None:
    net = small_net(77)
    memo = nets.RowMemo(lambda x: nets.forward(net, x).final)
    batch = np.random.default_rng(78).standard_normal((3, 4))
    expected = nets.forward(net, batch).final
    memo(batch)[:] = 99.0  # the miss path's result
    memo(batch)[:] = -99.0  # the hit path's result
    assert np.array_equal(memo(batch), expected)


def test_row_memo_clear_drops_every_row() -> None:
    net = small_net(79)
    memo = nets.RowMemo(lambda x: nets.forward(net, x).final)
    batch = np.random.default_rng(80).standard_normal((3, 4))
    memo(batch)
    net.layers[0].weights += 1.0
    memo.clear()
    assert np.array_equal(memo(batch), nets.forward(net, batch).final)


def test_backward_can_skip_the_input_gradient() -> None:
    net = small_net(81)
    x = np.random.default_rng(82).standard_normal((5, 4))
    acts = nets.forward(net, x)
    g = np.random.default_rng(83).standard_normal((5, 3))
    grads, input_grad = nets.backward(net, acts, g)
    skipped, none = nets.backward(net, acts, g, input_gradient=False)
    assert none is None and input_grad.shape == (5, 4)
    assert all(np.array_equal(a, b) for a, b in zip(grads, skipped))
