import warnings

import numpy as np
import pytest

from gradcheck import grad_check
from smile_lab import model, tensor as T


def _fd_check(build, point, step=1e-5, tol=1e-4):
    """Finite-difference check of a scalar graph builder via grad_check."""

    def f(x):
        leaf = T.Tensor(x)
        out = build(leaf)
        T.backward(out)
        return float(out.values), leaf.grad

    report = grad_check(f, point, step=step, tolerance=tol)
    assert report["passed"], report["max_rel_error"]


def test_relu_forward():
    out = T.relu(T.Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.values, [0.0, 0.0, 2.0])


def test_matmul_identity():
    m = T.Tensor([[3.0, 4.0], [5.0, 6.0]])
    out = T.matmul(T.Tensor(np.eye(2)), m)
    assert np.array_equal(out.values, m.values)


def test_conv2d_identity_kernel():
    x = np.arange(9.0).reshape(1, 3, 3, 1)
    kernel = np.ones((1, 1, 1, 1))
    out = T.conv2d(T.Tensor(x), T.Tensor(kernel))
    assert np.array_equal(out.values, x)


def test_conv2d_identity_kernel_backward_passthrough():
    x = T.Tensor(np.arange(9.0).reshape(1, 3, 3, 1))
    out = T.mean(T.conv2d(x, T.Tensor(np.ones((1, 1, 1, 1)))))
    T.backward(out)
    assert np.allclose(x.grad, np.full((1, 3, 3, 1), 1.0 / 9))


def test_softmax_cross_entropy_uniform_logits():
    logits = T.Tensor(np.zeros((1, 4)))
    target = T.Tensor([[1.0, 0.0, 0.0, 0.0]])
    out = T.softmax_cross_entropy(logits, target)
    assert out.values == pytest.approx(np.log(4.0), abs=1e-12)


def test_softmax_cross_entropy_saturated():
    out = T.softmax_cross_entropy(T.Tensor([[30.0, -30.0]]),
                                  T.Tensor([[1.0, 0.0]]))
    assert float(out.values) == pytest.approx(0.0, abs=1e-12)


def test_softmax_cross_entropy_linear_in_target():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(1, 5))
    e1 = np.eye(5)[[0]]
    e2 = np.eye(5)[[1]]
    mixed = 0.3 * e1 + 0.7 * e2
    ce = lambda t: float(
        T.softmax_cross_entropy(T.Tensor(logits), T.Tensor(t)).values)
    assert ce(mixed) == pytest.approx(0.3 * ce(e1) + 0.7 * ce(e2), abs=1e-10)


def test_softmax_cross_entropy_sends_no_gradient_to_its_targets():
    rng = np.random.default_rng(3)
    logits_values = rng.normal(size=(4, 3))
    targets_values = np.eye(3)[[0, 2, 1, 1]]
    grads = []
    for targets in (T.constant(targets_values), T.Tensor(targets_values)):
        logits = T.Tensor(logits_values)
        T.backward(T.softmax_cross_entropy(logits, targets))
        assert targets.grad is None
        grads.append(logits.grad)
    assert np.array_equal(grads[0], grads[1])
    shifted = np.exp(logits_values - logits_values.max(axis=1, keepdims=True))
    softmax = shifted / shifted.sum(axis=1, keepdims=True)
    assert np.allclose(grads[1], (softmax - targets_values) / 4, atol=1e-15)


def test_softmax_cross_entropy_rejects_non_distribution():
    with pytest.raises(ValueError):
        T.softmax_cross_entropy(T.Tensor([[0.0, 0.0]]),
                                T.Tensor([[0.5, 0.6]]))


def test_backward_sum_of_squares():
    x = T.Tensor([3.0])
    T.backward(T.sum_of_squares(x))
    assert np.array_equal(x.grad, [6.0])


def test_backward_mean_relu():
    x = T.Tensor([-1.0, 2.0])
    T.backward(T.mean(T.relu(x)))
    assert np.array_equal(x.grad, [0.0, 0.5])


def test_backward_runs_a_graph_once():
    rng = np.random.default_rng(16)
    leaves = (T.Tensor(rng.normal(size=(2, 5, 5, 3))),
              T.Tensor(rng.normal(size=(3, 3, 3, 4))),
              T.Tensor(rng.normal(size=4)))
    x, kernel, bias = leaves
    loss = T.sum_of_squares(T.conv2d(x, kernel, bias_relu=bias))
    T.backward(loss)
    grads = [t.grad.copy() for t in leaves]
    assert loss.grad is None            # only leaves keep .grad
    # conv2d freed its im2col matrix: a second pass is refused up front
    for root in (loss, T.add(T.sum_of_squares(x), loss)):
        with pytest.raises(ValueError, match="already backpropagated"):
            T.backward(root)
    # a parentless root holding a graph's value adds nothing
    T.backward(T.Tensor(loss.values))
    for t, g in zip(leaves, grads):
        assert np.array_equal(t.grad, g)


def test_backward_requires_scalar_root():
    with pytest.raises(ValueError):
        T.backward(T.Tensor([1.0, 2.0]))


def test_matmul_chain_matches_finite_differences():
    rng = np.random.default_rng(1)
    b = rng.normal(size=(3, 2))

    _fd_check(lambda a: T.sum_of_squares(T.matmul(a, T.constant(b))),
              rng.normal(size=(2, 3)))


@pytest.mark.parametrize("builder,shape", [
    (lambda x: T.mean(T.add(x, T.constant(np.ones((2, 3))))), (2, 3)),
    (lambda x: T.mean(T.subtract(x, T.constant(np.ones((2, 3))))), (2, 3)),
    (lambda x: T.sum_of_squares(T.multiply(x, x)), (4,)),
    (lambda x: T.sum_of_squares(T.relu(x)), (5,)),
    (lambda x: T.mean(x), (3, 4)),
    (lambda x: T.sum_of_squares(x), (6,)),
    (lambda x: T.sum_of_squares(
        T.conv2d(x, T.constant(np.random.default_rng(7).normal(size=(3, 3, 1, 2))))),
     (1, 4, 4, 1)),
    (lambda x: T.softmax_cross_entropy(
        x, T.constant(np.full((2, 3), 1.0 / 3))), (2, 3)),
    (lambda x: T.sum_of_squares(T.softmax(x)), (2, 4)),
    (lambda x: T.sum_of_squares(T.global_mean_pool(x)), (2, 3, 4, 2)),
])
def test_primitive_gradients_random_points(builder, shape):
    rng = np.random.default_rng(42)
    for _ in range(10):
        point = rng.normal(size=shape) + 0.01  # keep away from relu kinks
        _fd_check(builder, point)


def test_conv2d_kernel_gradient():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 4, 4, 2))

    _fd_check(lambda k: T.sum_of_squares(T.conv2d(T.constant(x), k)),
              rng.normal(size=(3, 3, 2, 2)))


def _reference_im2col(x, k):
    n, h, w, cin = x.shape
    p = k // 2
    padded = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (k, k), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)
    return windows.reshape(n * h * w, k * k * cin)


def _reference_conv2d(x, kernel, g):
    """Plain im2col conv and its k x k scatter backward, channel-last:
    (out, dx, dkernel) for upstream gradient g."""
    n, h, w, cin = x.shape
    k, cout = kernel.shape[0], kernel.shape[3]
    p = k // 2
    cols = _reference_im2col(x, k)
    kmat = kernel.reshape(k * k * cin, cout)
    out = (cols @ kmat).reshape(n, h, w, cout)
    gmat = g.reshape(n * h * w, cout)
    dkernel = (cols.T @ gmat).reshape(kernel.shape)
    dcols = (gmat @ kmat.T).reshape(n, h, w, k, k, cin)
    dpad = np.zeros((n, h + 2 * p, w + 2 * p, cin))
    for i in range(k):
        for j in range(k):
            dpad[:, i:i + h, j:j + w, :] += dcols[:, :, :, i, j, :]
    return out, dpad[:, p:p + h, p:p + w, :], dkernel


@pytest.mark.parametrize("x_shape,k,cout", [
    ((3, 5, 5, 3), 3, 4),
    ((2, 7, 7, 2), 5, 3),
    ((4, 6, 6, 1), 3, 8),
    ((32, 16, 16, 8), 3, 16),   # the model's second layer: 2 image blocks
    ((33, 16, 16, 8), 3, 16),   # blocks of 17 and 16 images
    ((1, 16, 16, 8), 3, 16),    # one block
])
def test_conv2d_bit_identical_to_reference(x_shape, k, cout):
    rng = np.random.default_rng(11)
    x_vals = rng.normal(size=x_shape)
    k_vals = rng.normal(size=(k, k, x_shape[3], cout))
    x, kernel = T.Tensor(x_vals), T.Tensor(k_vals)
    out = T.conv2d(x, kernel)
    T.backward(T.sum_of_squares(out))
    # sum_of_squares hands 2 * out to the conv as its upstream gradient
    ref_out, ref_dx, ref_dk = _reference_conv2d(x_vals, k_vals,
                                                2.0 * out.values)
    assert np.array_equal(out.values, ref_out)
    assert np.array_equal(x.grad, ref_dx)
    assert np.array_equal(kernel.grad, ref_dk)


# Batch sizes the lab runs a convolution at: training batches up to 40
# rows (the IL's 6-row calls among them) and the evaluation sets of 64, 75
# and 125 rows.
LAB_BATCHES = [*range(1, 41), 64, 75, 125]


@pytest.mark.parametrize("size", [8, 12, 16])
@pytest.mark.parametrize("cin,cout", [(1, 8), (3, 8), (8, 16)])
def test_conv2d_bits_equal_whole_gemms_at_lab_shapes(size, cin, cout):
    """conv2d runs its forward GEMM in blocks of 2 images and its input
    gradient in blocks of 4. At the shapes the lab runs (conv1 on 1 or 3
    channels, conv2; images of 8, 12 and 16 pixels) its output and its
    input, kernel and bias gradients have the bits of the whole-batch
    GEMMs of _reference_conv2d."""
    rng = np.random.default_rng(size * cin)
    for n in LAB_BATCHES:
        x_vals = rng.normal(size=(n, size, size, cin))
        k_vals = rng.normal(size=(3, 3, cin, cout))
        b_vals = rng.normal(size=cout)
        x, kernel, b = T.Tensor(x_vals), T.Tensor(k_vals), T.Tensor(b_vals)
        out = T.conv2d(x, kernel, bias_relu=b)
        T.backward(T.sum_of_squares(out))
        pre = _reference_im2col(x_vals, 3) @ k_vals.reshape(-1, cout)
        ref_out = np.maximum(pre.reshape(out.values.shape) + b_vals, 0.0)
        g = 2.0 * ref_out * (ref_out > 0.0)
        _, ref_dx, ref_dk = _reference_conv2d(x_vals, k_vals, g)
        ref_db = g.sum(axis=0).sum(axis=0).sum(axis=0)   # as _unbroadcast
        assert np.array_equal(out.values, ref_out), n
        assert np.array_equal(x.grad, ref_dx), n
        assert np.array_equal(kernel.grad, ref_dk), n
        assert np.array_equal(b.grad, ref_db), n


@pytest.mark.parametrize("x_shape,k", [
    ((2, 5, 5, 3), 3), ((1, 7, 6, 2), 5), ((3, 4, 4, 1), 1)])
def test_im2col_matches_sliding_window_view(x_shape, k):
    x = np.random.default_rng(2).normal(size=x_shape)
    assert np.array_equal(T.im2col(x, k), _reference_im2col(x, k))


def test_feature_extract_matches_tensor_path():
    arch = model.Architecture(image_size=8, conv1_filters=4,
                              conv2_filters=6, feature_dim=5)
    weights = model.init_weights(arch, seed=4, with_target_head=True)
    x = np.random.default_rng(4).normal(size=(5, 8, 8, 1))
    graph_free = model.feature_extract(x, weights)
    traced = model.feature_extract_t(x, model.as_tensors(weights))
    assert np.array_equal(graph_free, traced.values)


def test_conv2d_constant_input_gets_no_gradient():
    rng = np.random.default_rng(6)
    x_vals = rng.normal(size=(2, 5, 5, 3))
    k_vals = rng.normal(size=(3, 3, 3, 4))
    grads = []
    for make_input in (T.Tensor, T.constant):
        x, kernel = make_input(x_vals), T.Tensor(k_vals)
        out = T.conv2d(x, kernel)
        assert out.requires_grad
        T.backward(T.sum_of_squares(out))
        grads.append((x.grad, kernel.grad))
    assert grads[0][0] is not None and grads[1][0] is None
    assert np.array_equal(grads[0][1], grads[1][1])
    assert not T.conv2d(T.constant(x_vals), T.constant(k_vals)).requires_grad


@pytest.mark.parametrize("x_shape,k,cout", [
    ((2, 4, 4, 3), 3, 2), ((1, 5, 5, 2), 5, 3)])
def test_conv2d_input_gradient_multichannel(x_shape, k, cout):
    rng = np.random.default_rng(9)
    kernel = T.constant(rng.normal(size=(k, k, x_shape[3], cout)))

    _fd_check(lambda x: T.sum_of_squares(T.conv2d(x, kernel)),
              rng.normal(size=x_shape))


def _conv_layer(x_vals, k_vals, b_vals, weights, make_input, fused):
    """Output and (x, kernel, bias) gradients of a conv layer under the loss
    mean(out * weights), built as one fused node or as conv, add and relu."""
    x, kernel, b = make_input(x_vals), T.Tensor(k_vals), T.Tensor(b_vals)
    if fused:
        out = T.conv2d(x, kernel, bias_relu=b)
    else:
        out = T.relu(T.add(T.conv2d(x, kernel), b))
    T.backward(T.mean(T.multiply(out, T.constant(weights))))
    return out.values, x.grad, kernel.grad, b.grad


@pytest.mark.parametrize("x_shape,k,cout,make_input", [
    ((3, 5, 5, 3), 3, 4, T.Tensor),
    ((2, 7, 7, 2), 5, 3, T.Tensor),
    ((1, 4, 6, 2), 1, 5, T.Tensor),
    ((4, 16, 16, 1), 3, 8, T.constant),     # the model's first layer
    ((32, 16, 16, 8), 3, 16, T.Tensor),     # its second: 2 image blocks
    ((33, 16, 16, 8), 3, 16, T.Tensor),     # blocks of 17 and 16 images
    ((1, 16, 16, 8), 3, 16, T.Tensor),      # one block
])
def test_fused_conv2d_matches_unfused_graph(x_shape, k, cout, make_input):
    rng = np.random.default_rng(13)
    x_vals = rng.normal(size=x_shape)
    k_vals = rng.normal(size=(k, k, x_shape[3], cout))
    b_vals = rng.normal(size=cout)          # clamps a share of every channel
    weights = rng.normal(size=x_shape[:3] + (cout,))
    unfused, fused = (_conv_layer(x_vals, k_vals, b_vals, weights,
                                  make_input, f)
                      for f in (False, True))
    assert 0 < np.count_nonzero(fused[0] == 0.0) < fused[0].size
    for ref, got in zip(unfused, fused):
        assert (ref is None) == (got is None)
        if ref is not None:
            assert np.array_equal(ref, got)
    assert (fused[1] is None) == (make_input is T.constant)
    assert fused[3] is not None


def test_conv2d_without_bias_or_relu_keeps_its_results():
    rng = np.random.default_rng(14)
    x_vals = rng.normal(size=(3, 5, 5, 3))
    k_vals = rng.normal(size=(3, 3, 3, 4))
    results = []
    for kwargs in ({}, {"bias_relu": None}):
        x, kernel = T.Tensor(x_vals), T.Tensor(k_vals)
        out = T.conv2d(x, kernel, **kwargs)
        T.backward(T.sum_of_squares(out))
        results.append((out, x.grad, kernel.grad))
    ref_out, ref_dx, ref_dk = _reference_conv2d(
        x_vals, k_vals, 2.0 * results[0][0].values)
    for out, dx, dk in results:
        assert np.array_equal(out.values, ref_out)
        assert np.array_equal(dx, ref_dx)
        assert np.array_equal(dk, ref_dk)
    with pytest.raises(TypeError):
        T.conv2d(T.Tensor(x_vals), T.Tensor(k_vals), None)


def test_fused_conv2d_bias_gradient():
    rng = np.random.default_rng(15)
    x = T.constant(rng.normal(size=(2, 4, 4, 2)))
    kernel = T.constant(rng.normal(size=(3, 3, 2, 3)))
    weights = T.constant(rng.normal(size=(2, 4, 4, 3)))
    _fd_check(lambda b: T.mean(T.multiply(
        T.conv2d(x, kernel, bias_relu=b), weights)),
        rng.normal(size=3))


def test_fused_conv2d_rejects_a_bias_of_another_shape():
    with pytest.raises(ValueError):
        T.conv2d(T.Tensor(np.ones((1, 3, 3, 1))),
                 T.Tensor(np.ones((1, 1, 1, 2))),
                 bias_relu=T.Tensor(np.ones(3)))


@pytest.mark.parametrize("x_val,k_val,b_val", [
    (1e200, -1e200, 0.0),           # the GEMM overflows to -inf
    (1e200, 1e200, 0.0),            # ... and to +inf
    (1.0, -1.5e308, -1.5e308),      # the bias add overflows to -inf
])
def test_fused_conv2d_checks_the_pre_activation(x_val, k_val, b_val):
    # one pixel and one channel: the one pre-activation value overflows
    x = T.constant(np.full((1, 1, 1, 1), x_val))
    kernel = T.Tensor(np.full((1, 1, 1, 1), k_val))
    bias = T.Tensor(np.full(1, b_val))
    with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError):
        T.conv2d(x, kernel, bias_relu=bias)


def test_non_finite_raises():
    with pytest.raises(T.NonFiniteError):
        T.Tensor([np.inf])
    with pytest.raises(T.NonFiniteError):
        T.multiply(T.Tensor([1e308]), T.Tensor([1e308]))
    # finite values whose sum overflows are finite
    big = T.Tensor(np.full(2, -1.5e308))
    assert np.array_equal(big.values, np.full(2, -1.5e308))


def test_finite_check_does_not_warn():
    # outside any np.errstate: finite values whose sum overflows, and inf
    # with -inf, whose sum is nan; neither may surface as a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        T.Tensor(np.full(2, -1.5e308))
        with pytest.raises(T.NonFiniteError):
            T.Tensor(np.array([np.inf, -np.inf]))


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))


def test_determinism_bit_identical():
    rng = np.random.default_rng(5)
    x_vals = rng.normal(size=(2, 4))
    results = []
    for _ in range(2):
        x = T.Tensor(x_vals)
        out = T.sum_of_squares(T.relu(T.matmul(x, T.constant(np.eye(4)))))
        T.backward(out)
        results.append((out.values.copy(), x.grad.copy()))
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])


def test_sgd_step_plain():
    params = {"w": np.array([1.0])}
    T.sgd_step(params, {"w": np.array([0.5])}, {}, lr=0.1)
    assert params["w"] == pytest.approx([0.95])


def test_sgd_step_decay_only():
    params = {"w": np.array([1.0])}
    T.sgd_step(params, {"w": np.array([0.0])}, {}, lr=0.1, weight_decay=0.1)
    assert params["w"] == pytest.approx([0.99])


def test_sgd_step_momentum_two_steps():
    # v1 = 1, p = -0.1; v2 = 0.9 + 1 = 1.9, p = -0.1 - 0.19 = -0.29
    params = {"w": np.array([0.0])}
    state = {}
    for _ in range(2):
        T.sgd_step(params, {"w": np.array([1.0])}, state, lr=0.1, momentum=0.9)
    assert params["w"] == pytest.approx([-0.29])


def test_sgd_rejects_non_finite_gradient():
    with pytest.raises(T.NonFiniteError):
        T.sgd_step({"w": np.array([1.0])}, {"w": np.array([np.nan])}, {},
                   lr=0.1)
