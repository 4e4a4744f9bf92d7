from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kickrl import nets
from kickrl.errors import ShapeError
from kickrl.seeding import spawn_rng

from gradcheck import GradCheckReport, grad_check


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


@pytest.mark.parametrize("activations", [["softmax", "linear"], ["relu", "softmax"]],
                         ids=["hidden", "output"])
def test_a_layer_is_relu_or_linear(activations) -> None:
    with pytest.raises(ValueError, match="unknown activation 'softmax'"):
        nets.init_net([3, 4, 2], activations, np.random.default_rng(0))


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

    report = grad_check(net, loss_proc, tolerance=1e-4)
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


def test_adam_state_built_directly_steps_like_for_params() -> None:
    # every constructor path gets its scratch buffers; there is no lazy fallback
    a, b = small_net(12), small_net(12)
    direct = nets.AdamState(m=[np.zeros_like(p) for p in a.param_arrays()],
                            v=[np.zeros_like(p) for p in a.param_arrays()],
                            learning_rate=1e-3)
    built = nets.AdamState.for_params(b.param_arrays(), learning_rate=1e-3)
    rng = np.random.default_rng(12)
    for _ in range(3):
        grads = [rng.standard_normal(p.shape) for p in a.param_arrays()]
        nets.adam_step(a.param_arrays(), grads, direct)
        nets.adam_step(b.param_arrays(), grads, built)
    assert all(np.array_equal(x, y) for x, y in zip(a.param_arrays(), b.param_arrays()))


def test_net_arrays_round_trip_under_a_prefix() -> None:
    net = small_net(13)
    arrays = nets.net_to_arrays(net, "q")
    assert list(arrays) == [f"q.layer{i}.{kind}" for i in range(len(net.layers))
                            for kind in ("weights", "biases")]
    back = nets.net_from_arrays(arrays, "q", [l.activation for l in net.layers])
    assert all(np.array_equal(x, y) for x, y in zip(back.param_arrays(), net.param_arrays()))
    assert [l.activation for l in back.layers] == [l.activation for l in net.layers]


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
    report = grad_check(net, proc, tolerance=1e-4)
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

    assert not grad_check(net, corrupted, tolerance=1e-4).passed


def test_grad_check_detects_nondeterministic_loss() -> None:
    net = small_net(24)
    rng = np.random.default_rng(25)

    def noisy(n):
        acts = nets.forward(n, rng.standard_normal((2, 4)))
        loss = float(np.sum(acts.final**2))
        grads, _ = nets.backward(net, acts, 2.0 * acts.final)
        return loss, grads

    with pytest.raises(RuntimeError, match="not deterministic"):
        grad_check(net, noisy, tolerance=1e-4)


def test_grad_check_report_pass_flag_tracks_tolerance() -> None:
    report = GradCheckReport(per_param={"w": 5e-4}, max_relative_error=5e-4,
                                  tolerance=1e-4)
    assert not report.passed
    report2 = GradCheckReport(per_param={"w": 5e-5}, max_relative_error=5e-5,
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


def reference_final(net: nets.DenseNet, x: np.ndarray) -> np.ndarray:
    """The output layer by the out-of-place formulas: act(h @ W + b)."""
    h = x
    for layer in net.layers:
        z = h @ layer.weights + layer.biases
        h = np.maximum(z, 0.0) if layer.activation == "relu" else z
    return h


@pytest.mark.parametrize("head", ["relu", "linear"])
@pytest.mark.parametrize("shape", sorted(PREMISE_SHAPES))
def test_forward_values_equals_forward_final_bitwise(shape, head) -> None:
    dims, activations = PREMISE_SHAPES[shape]
    rng = np.random.default_rng(84)
    net = nets.init_net(dims, [*activations[:-1], head], rng)
    for n in (1, 32, 48, 1557, 2338):
        x = rng.standard_normal((n, dims[0]))
        values = nets.forward_values(net, x)
        assert np.array_equal(values, nets.forward(net, x).final), (shape, head, n)
        assert np.array_equal(values, reference_final(net, x)), (shape, head, n)


def test_forward_values_leaves_its_input_alone() -> None:
    net = small_net(85)
    x = np.random.default_rng(86).standard_normal((5, 4))
    before = x.copy()
    nets.forward_values(net, x)
    assert np.array_equal(x, before)


def test_forward_values_checks_the_batch_width() -> None:
    with pytest.raises(ShapeError):
        nets.forward_values(small_net(87), np.zeros((2, 5)))


@given(input_dim=st.integers(1, 40),
       hidden=st.lists(st.integers(1, 8).map(lambda w: 8 * w), min_size=1, max_size=3),
       output_dim=st.integers(1, 6), distinct=st.integers(1, 120), rows=st.integers(1, 2400),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_forward_values_gathered_equals_a_forward_over_the_gathered_rows(
        input_dim, hidden, output_dim, distinct, rows, seed) -> None:
    """Bitwise, for any count of distinct rows and of ids, on both sides of
    the output layer's 977-row class.  Hidden widths are multiples of 8, the
    widths whose gemm rounds a row alike at every row count above 1 on the
    recorded BLAS build (a 35->11 layer, for one, does not)."""
    rng = np.random.default_rng(seed)
    net = nets.mlp(input_dim, output_dim, tuple(hidden), rng)
    x = rng.standard_normal((distinct, input_dim))
    ids = rng.integers(0, distinct, rows)
    assert np.array_equal(nets.forward_values_gathered(net, x, ids),
                          nets.forward_values(net, x[ids]))


@pytest.mark.parametrize("distinct, rows", [(1, 1), (1, 2), (1, 1557), (2, 1), (63, 1557),
                                            (101, 2338)])
@pytest.mark.parametrize("shape", sorted(PREMISE_SHAPES))
def test_forward_values_gathered_on_the_package_nets(shape, distinct, rows) -> None:
    """The demo-Q refresh's index shapes, and a lone row or id, which a
    gathered forward runs as a 2-row gemm or a 1-row gemv like the plain one."""
    dims, activations = PREMISE_SHAPES[shape]
    rng = np.random.default_rng(88)
    net = nets.init_net(dims, activations, rng)
    x = rng.standard_normal((distinct, dims[0]))
    ids = np.concatenate([np.arange(min(distinct, rows)),
                          rng.integers(0, distinct, max(0, rows - distinct))])
    assert np.array_equal(nets.forward_values_gathered(net, x, ids),
                          nets.forward_values(net, x[ids]))


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


def test_row_memo_by_id_gathers_known_ids_and_starts_over_on_a_new_generation() -> None:
    """Keyed by ids, a batch whose ids are all known is a gather with no call
    to fn; a new generation renumbers the rows, so the old entries go."""
    net = small_net(81)
    fn, calls = counted(net)
    memo = nets.RowMemo(fn)
    rows = np.random.default_rng(82).standard_normal((4, 4))
    first, second = object(), object()
    ids = np.array([2, 0, 2])
    assert np.array_equal(memo(rows[ids], ids, first), nets.forward(net, rows[ids]).final)
    assert np.array_equal(memo(rows[[0, 2, 0]], np.array([0, 2, 0]), first),
                          nets.forward(net, rows[[0, 2, 0]]).final)
    assert calls == [3]
    renumbered = rows[[3, 1, 0, 2]]  # what was row 2 is now row 3
    assert np.array_equal(memo(renumbered[ids], ids, second),
                          nets.forward(net, renumbered[ids]).final)
    assert calls == [3, 3]


# -- RowTable -----------------------------------------------------------------------

ROWS = st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5]), min_size=3, max_size=3)


@given(ops=st.lists(st.one_of(st.tuples(st.just("add"), ROWS),
                              st.tuples(st.just("add_all"), st.lists(ROWS, max_size=6)),
                              st.tuples(st.just("compact"),
                                        st.lists(st.integers(0, 40), max_size=8))),
                    max_size=60),
       max_rows=st.one_of(st.none(), st.integers(1, 12)))
@settings(max_examples=200, deadline=None)
def test_row_table_numbers_rows_like_a_dict_and_a_list(ops, max_rows) -> None:
    table = nets.RowTable() if max_rows is None else nets.RowTable(max_rows)
    ids: dict[bytes, int] = {}  # the reference: float64 bytes -> id, and rows by id
    rows: list[list[float]] = []

    def expected_ids(batch):
        out = []
        for row in batch:
            key = np.array(row).tobytes()
            if key not in ids:
                if len(rows) == max_rows:
                    return out, True
                ids[key] = len(rows)
                rows.append(row)
            out.append(ids[key])
        return out, False

    for op, arg in ops:
        if op == "compact":
            live = [i for i in arg if i < len(rows)]
            kept = sorted(set(live))
            renumber = [kept.index(i) if i in kept else -1 for i in range(len(rows))]
            assert table.compact(np.array(live, dtype=np.int64)).tolist() == renumber
            rows = [rows[i] for i in kept]
            ids = {np.array(row).tobytes(): i for i, row in enumerate(rows)}
        elif op == "add":
            expected, full = expected_ids([arg])
            if full:
                with pytest.raises(OverflowError):
                    table.add(np.array(arg))
            else:
                assert table.add(np.array(arg)) == expected[0]
        else:
            expected, full = expected_ids(arg)
            if full:
                with pytest.raises(OverflowError):
                    table.add_all(np.array(arg))
            else:
                assert table.add_all(np.array(arg).reshape(-1, 3)).tolist() == expected
        assert len(table) == len(rows)
        assert table.rows.tobytes() == np.array(rows).tobytes()  # -0.0 and 0.0 apart
        if max_rows is not None and table._buf is not None:
            assert len(table._buf) <= max_rows


def test_row_table_keeps_zero_and_negative_zero_apart() -> None:
    table = nets.RowTable()
    assert table.add_all(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])).tolist() == [0, 1, 0]
    assert np.signbit(table.rows[:, 0]).tolist() == [False, True]


def test_row_table_rejects_a_change_of_shape() -> None:
    table = nets.RowTable()
    with pytest.raises(ShapeError):
        table.add(np.zeros((2, 3)))  # a batch is not a row
    table.add(np.zeros(3))
    for bad in (lambda: table.add(np.zeros(4)), lambda: table.add_all(np.zeros((2, 4))),
                lambda: table.add_all(np.zeros(3))):
        with pytest.raises(ShapeError):
            bad()
    assert len(table) == 1


def test_row_table_adds_go_on_after_a_compact() -> None:
    table = nets.RowTable(max_rows=3)
    rows = np.eye(4)
    assert table.add_all(rows[:3]).tolist() == [0, 1, 2]
    with pytest.raises(OverflowError):
        table.add(rows[3])
    assert table.compact(np.array([2, 0, 2])).tolist() == [0, -1, 1]
    assert table.add(rows[3]) == 2
    assert table.add(rows[2]) == 1
    with pytest.raises(OverflowError):
        table.add(rows[1])
    assert np.array_equal(table.rows, rows[[0, 2, 3]])


def test_backward_can_skip_the_input_gradient() -> None:
    net = small_net(81)
    x = np.random.default_rng(82).standard_normal((5, 4))
    acts = nets.forward(net, x)
    g = np.random.default_rng(83).standard_normal((5, 3))
    grads, input_grad = nets.backward(net, acts, g)
    skipped, none = nets.backward(net, acts, g, input_gradient=False)
    assert none is None and input_grad.shape == (5, 4)
    assert all(np.array_equal(a, b) for a, b in zip(grads, skipped))


# -- work buffers ----------------------------------------------------------------


def _relu_net(seed: int) -> nets.DenseNet:
    return small_net(seed, dims=[4, 8, 8, 3], activations=["relu", "relu", "linear"])


def test_backward_without_work_returns_new_arrays_on_every_call() -> None:
    """Callers such as grad_check keep earlier results while they call again."""
    net = _relu_net(84)
    x = np.random.default_rng(85).standard_normal((5, 4))
    acts = nets.forward(net, x)
    g = np.random.default_rng(86).standard_normal((5, 3))
    g_before = g.copy()
    first, first_input = nets.backward(net, acts, g)
    second, second_input = nets.backward(net, acts, g)
    results = [*first, first_input, *second, second_input]
    for i, a in enumerate(results):
        for b in results[i + 1:]:
            assert not np.shares_memory(a, b)
    assert not any(np.shares_memory(r, g) or np.shares_memory(r, x) for r in results)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    assert np.array_equal(g, g_before)  # the caller's output gradient is not written


def test_forward_and_backward_with_work_give_the_new_arrays_bytes() -> None:
    net = _relu_net(87)
    opt = nets.AdamState.for_params(net.param_arrays())
    rng = np.random.default_rng(88)
    for rows in (6, 6, 4):  # a shorter batch reads a slice of the same buffers
        x = rng.standard_normal((rows, 4))
        g = rng.standard_normal((rows, 3))
        fresh = nets.forward(net, x)
        fresh_grads, fresh_input = nets.backward(net, fresh, g)
        acts = nets.forward(net, x, work=opt)
        grads, input_grad = nets.backward(net, acts, g, work=opt)
        assert grads is not fresh_grads
        assert all(a is b for a, b in zip(grads, opt.grads))
        for a, b in zip([*acts.outputs, *grads, input_grad],
                        [*fresh.outputs, *fresh_grads, fresh_input]):
            assert a.tobytes() == b.tobytes()
        nets.adam_step(net.param_arrays(), grads, opt)


def test_grad_check_passes_after_a_buffered_step_on_the_same_net() -> None:
    rng = np.random.default_rng(89)
    net = _relu_net(90)
    opt = nets.AdamState.for_params(net.param_arrays(), learning_rate=1e-2)
    x, actions, targets = (rng.standard_normal((6, 4)), rng.integers(0, 3, size=6),
                           rng.standard_normal(6))
    acts = nets.forward(net, x, work=opt)
    grads, _ = nets.backward(net, acts, rng.standard_normal((6, 3)), work=opt)
    nets.adam_step(net.param_arrays(), grads, opt)
    assert grad_check(net, _td_like_loss(x, actions, targets), tolerance=1e-4).passed


def test_rows_grow_for_a_larger_batch_and_slice_for_a_smaller_one() -> None:
    opt = nets.AdamState.for_params(small_net(91).param_arrays())
    big = opt.rows("a", 8, 3)
    assert opt.rows("a", 5, 3).base is big.base
    assert opt.rows("a", 5, 3).flags.c_contiguous
    assert opt.rows("a", 9, 3).shape == (9, 3)
    assert opt.rows("a", 9, 2).shape == (9, 2)
    assert opt.rows("b", 9, 2).base is not opt.rows("a", 9, 2).base


def test_backward_rejects_work_of_another_net() -> None:
    net = _relu_net(92)
    acts = nets.forward(net, np.zeros((2, 4)))
    with pytest.raises(ShapeError):
        nets.backward(net, acts, np.zeros((2, 3)),
                      work=nets.AdamState.for_params(small_net(93).param_arrays()))
