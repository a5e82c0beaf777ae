"""Minimal reverse-mode autodiff on numpy arrays, plus SGD and a gradient checker.

The graph is built define-by-run: every primitive returns a new Tensor that
holds a closure propagating adjoints to its parents. A fresh graph is built
for every forward pass; nothing is retained between training iterations.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Dict, Sequence

import numpy as np


def _keep_freed_heap() -> None:
    """Make glibc keep a freed training graph for the next step's graph.

    Each training step allocates tens of MiB of activations, gradients and
    im2col matrices and frees them all when it returns. With glibc's
    defaults, blocks of a few MiB are mmapped and unmapped, and a free top
    of the heap is given back to the kernel, so every step faults the same
    pages in again (over 2000 minor faults and about 5 ms of system time
    per pretraining step on a 2-vCPU x86 host). Blocks below 32 MiB (the
    largest mmap threshold glibc accepts on 64-bit) now come from the
    heap, and the heap is trimmed only when 128 MiB at its top are free.
    Other C libraries are left as they are.
    """
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return
    if not hasattr(libc, "gnu_get_libc_version"):
        return
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3     # from <malloc.h>
    for param, value in ((m_mmap_threshold, 32 << 20),
                         (m_trim_threshold, 128 << 20)):
        if mallopt(param, value) != 1:
            raise OSError(f"glibc mallopt({param}, {value}) failed")


_keep_freed_heap()


class NonFiniteError(FloatingPointError):
    """A primitive produced (or was fed) NaN or Inf."""


def check_finite(values: np.ndarray, context: str) -> None:
    # a NaN or Inf element makes sum() non-finite (inf+inf stays inf,
    # inf-inf -> nan), so a finite sum clears the array; a non-finite sum
    # can also be an overflow of finite values, so the elements decide
    with np.errstate(over="ignore", invalid="ignore"):   # no warning
        total = values.sum()
    if not np.isfinite(total) and not np.isfinite(values).all():
        raise NonFiniteError(f"non-finite values in {context}")


class Tensor:
    """N-d float64 array node on the computation graph.

    ``grad`` stays None until a backward pass from a scalar root reaches
    this node, and after the pass only leaves (nodes that no primitive
    built) keep it: an interior node hands its gradient to its closure.
    ``requires_grad`` is True for a leaf unless it is built by
    ``constant()``; a primitive's output requires a gradient when any of its
    parents does.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, parents: Sequence["Tensor"] = (),
                 backward: Callable[[np.ndarray], None] | None = None,
                 requires_grad: bool = True):
        self.values = np.asarray(values, dtype=np.float64)
        check_finite(self.values, "primitive output" if parents
                     else "tensor construction")
        self.grad: np.ndarray | None = None
        self._parents = tuple(parents)
        self._backward = backward
        self.requires_grad = (any(p.requires_grad for p in self._parents)
                              if self._parents else requires_grad)

    @property
    def shape(self):
        return self.values.shape

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.values.shape})"


def constant(values) -> Tensor:
    """Leaf that needs no gradient; primitives may skip computing one."""
    return Tensor(values, requires_grad=False)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out_vals = a.values + b.values

    def backward(g):
        a._accumulate(_unbroadcast(g, a.values.shape))
        b._accumulate(_unbroadcast(g, b.values.shape))

    return Tensor(out_vals, (a, b), backward)


def subtract(a: Tensor, b: Tensor) -> Tensor:
    out_vals = a.values - b.values

    def backward(g):
        a._accumulate(_unbroadcast(g, a.values.shape))
        b._accumulate(-_unbroadcast(g, b.values.shape))

    return Tensor(out_vals, (a, b), backward)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out_vals = a.values * b.values

    def backward(g):
        a._accumulate(_unbroadcast(g * b.values, a.values.shape))
        b._accumulate(_unbroadcast(g * a.values, b.values.shape))

    return Tensor(out_vals, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python constant (no gradient for c)."""
    out_vals = a.values * c

    def backward(g):
        a._accumulate(g * c)

    return Tensor(out_vals, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    if a.values.shape[1] != b.values.shape[0]:
        raise ValueError(
            f"matmul shape mismatch: {a.values.shape} @ {b.values.shape}")
    out_vals = a.values @ b.values

    def backward(g):
        a._accumulate(g @ b.values.T)
        b._accumulate(a.values.T @ g)

    return Tensor(out_vals, (a, b), backward)


def relu(a: Tensor) -> Tensor:
    out_vals = np.maximum(a.values, 0.0)

    def backward(g):
        a._accumulate(g * (a.values > 0.0))

    return Tensor(out_vals, (a,), backward)


def mean(a: Tensor) -> Tensor:
    out_vals = np.asarray(a.values.mean())
    n = a.values.size

    def backward(g):
        a._accumulate(np.full_like(a.values, float(g) / n))

    return Tensor(out_vals, (a,), backward)


def sum_of_squares(a: Tensor) -> Tensor:
    out_vals = np.asarray(np.sum(a.values * a.values))

    def backward(g):
        a._accumulate(2.0 * float(g) * a.values)

    return Tensor(out_vals, (a,), backward)


def global_mean_pool(x: Tensor) -> Tensor:
    """(N, H, W, C) -> (N, C): the mean over each image's H x W positions."""
    n, h, w, c = x.values.shape
    vals = x.values.mean(axis=(1, 2))

    def backward(g):
        x._accumulate(np.broadcast_to(
            g[:, None, None, :] / (h * w), x.values.shape))

    return Tensor(vals, (x,), backward)


def im2col(x: np.ndarray, k: int) -> np.ndarray:
    """(N, H, W, Cin) -> (N*H*W, k*k*Cin) patch matrix for a 'same' k x k
    convolution, columns ordered (row tap, column tap, channel).

    The padded image is C-contiguous, so the k column taps of one row tap
    are k*Cin consecutive values; the view over them is copied in runs of
    that length.
    """
    n, h, w, cin = x.shape
    p = k // 2
    padded = np.zeros((n, h + 2 * p, w + 2 * p, cin))
    padded[:, p:p + h, p:p + w, :] = x
    s_n, s_h, s_w, s_c = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded, shape=(n, h, w, k, k * cin),
        strides=(s_n, s_h, s_w, s_h, s_c), writeable=False)
    return windows.reshape(n * h * w, k * k * cin)


def conv2d(x: Tensor, kernel: Tensor, *,
           bias_relu: Tensor | None = None) -> Tensor:
    """2-D convolution, stride 1, zero 'same' padding, square odd kernel,
    optionally followed by a bias add and a ReLU in the same node.

    x: (N, H, W, Cin); kernel: (k, k, Cin, Cout); bias_relu: (Cout,)
    -> (N, H, W, Cout). ``conv2d(x, k, bias_relu=b)`` computes the bits of
    ``relu(add(conv2d(x, k), b))`` and their gradients, without the two
    intermediate nodes, their activations and their zero-filled gradients.
    """
    if x.values.ndim != 4 or kernel.values.ndim != 4:
        raise ValueError("conv2d expects 4-D input and kernel")
    k = kernel.values.shape[0]
    if kernel.values.shape[1] != k or k % 2 == 0:
        raise ValueError("conv2d kernel must be square with odd side")
    n, h, w, cin = x.values.shape
    if kernel.values.shape[2] != cin:
        raise ValueError("conv2d channel mismatch")
    cout = kernel.values.shape[3]
    p = k // 2
    parents = (x, kernel)
    if bias_relu is not None:
        if bias_relu.values.shape != (cout,):
            raise ValueError(f"conv2d bias_relu must have shape ({cout},)")
        parents += (bias_relu,)

    cols = im2col(x.values, k)
    kmat = kernel.values.reshape(k * k * cin, cout)
    out_vals = (cols @ kmat).reshape(n, h, w, cout)
    if bias_relu is not None:
        out_vals += bias_relu.values

    def backward(g):
        nonlocal cols
        if bias_relu is not None:
            # out_vals > 0 exactly where the pre-activation is. g is this
            # node's own gradient, which nothing reads after this closure,
            # so the mask is applied in place. Multiplying by the mask took
            # 0.23 ms at conv2's size (batch 32) on a 2-vCPU x86 host,
            # np.where(mask, g, 0.0) 0.80 ms.
            g *= out_vals > 0.0
            bias_relu._accumulate(_unbroadcast(g, bias_relu.values.shape))
        gmat = g.reshape(n * h * w, cout)
        kernel._accumulate((cols.T @ gmat).reshape(kernel.values.shape))
        cols = None             # its last reader has run: free it for dcols
        if not x.requires_grad:
            return
        # col2im, channel-major. g is zero-padded to (H+2p, W+2p) planes
        # first, so that dcols has the layout of the padded input gradient
        # and each tap adds one contiguous run at a fixed offset. The taps
        # go in (i, j) order into zeros, as in a per-tap scatter into
        # (N, H+2p, W+2p, Cin); the padding only adds zeros, and a zero of
        # either sign added to a sum that started at +0.0 leaves its bits
        # unchanged.
        #
        # dcols for all N images is (H+2p)(W+2p)/(HW) times the size of
        # cols, so the dcols GEMM and its scatter run over that many blocks
        # of images (rounded up; 2 at 16x16), each of which fits in the
        # space cols freed. A tap's run leaves its image only through the
        # zero rows of the padding, so a block needs nothing from the
        # others. The bit argument covers the scatter only: each block's
        # dcols comes from kmat @ gpad.T rather than g @ kmat.T, and BLAS
        # need not round the two orders, or GEMMs of other widths, alike.
        # test_conv2d_bit_identical_to_reference (against g @ kmat.T) and
        # test_fused_conv2d_matches_unfused_graph in tests/test_tensor.py
        # check the bits at the model's conv2 shape at batch 32, at batch
        # 33 (blocks of 17 and 16 images) and at batch 1; other shapes can
        # differ in the last bit.
        hp, wp = h + 2 * p, w + 2 * p
        blocks = -(-(hp * wp) // (h * w))
        step = -(-n // blocks)
        dx = np.empty_like(x.values)
        for lo in range(0, n, step):
            gblock = g[lo:lo + step]
            gpad = np.zeros((len(gblock), hp, wp, cout))
            gpad[:, :h, :w, :] = gblock
            dcols = (kmat @ gpad.reshape(-1, cout).T).reshape(k, k, -1)
            del gpad
            size = dcols.shape[2]
            dpad = np.zeros(size)
            for i in range(k):
                for j in range(k):
                    shift = i * wp + j
                    dpad[shift:] += dcols[i, j, :size - shift]
            del dcols
            dpad = dpad.reshape(cin, -1, hp, wp)[:, :, p:p + h, p:p + w]
            dx[lo:lo + step] = dpad.transpose(1, 2, 3, 0)
        x._accumulate(dx)

    # The node's finite check sees the pre-activation, so a -inf that the
    # ReLU would clamp to 0 still raises; out.values is out_vals itself.
    out = Tensor(out_vals, parents, backward)
    if bias_relu is not None:
        np.maximum(out_vals, 0.0, out=out_vals)
    return out


def softmax_cross_entropy(logits: Tensor, targets: Tensor) -> Tensor:
    """Mean over the batch of -sum(target * log softmax(logits)).

    Targets must be rows of probability distributions (sum 1 within 1e-9).
    Stabilized by max subtraction; targets are typically constants but the
    gradient with respect to them is propagated too.
    """
    if logits.values.shape != targets.values.shape:
        raise ValueError("logits/targets shape mismatch")
    if logits.values.ndim != 2:
        raise ValueError("softmax_cross_entropy expects (batch, classes)")
    row_sums = targets.values.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-9):
        raise ValueError("target rows must sum to 1")
    n = logits.values.shape[0]
    shifted = logits.values - logits.values.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    out_vals = np.asarray(-(targets.values * log_probs).sum() / n)

    def backward(g):
        softmax = np.exp(log_probs)
        logits._accumulate(float(g) * (softmax - targets.values) / n)
        targets._accumulate(float(g) * (-log_probs) / n)

    return Tensor(out_vals, (logits, targets), backward)


def softmax(logits: Tensor) -> Tensor:
    """Row-wise softmax on a (batch, classes) tensor."""
    if logits.values.ndim != 2:
        raise ValueError("softmax expects (batch, classes)")
    shifted = logits.values - logits.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        dot = (g * probs).sum(axis=1, keepdims=True)
        logits._accumulate(probs * (g - dot))

    return Tensor(probs, (logits,), backward)


_SPENT = "graph was already backpropagated"


def _spent(g: np.ndarray) -> None:
    """Closure of a node whose gradient has gone to its parents."""
    raise ValueError(_SPENT)


def backward(root: Tensor) -> None:
    """Backpropagate from a scalar root into the .grad of every leaf.

    Each interior node's gradient goes to its closure and the node keeps
    neither, so both are freed once the closure has run; only leaves keep
    .grad. A graph can therefore be backpropagated once: a second pass over
    any of its interior nodes raises ValueError before any gradient moves.
    """
    if root.values.size != 1:
        raise ValueError("backward root must be scalar")

    topo: list[Tensor] = []
    visited: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if node in visited:
            continue
        if node._backward is _spent:
            raise ValueError(_SPENT)
        visited.add(node)
        stack.append((node, True))
        for parent in node._parents:
            if parent not in visited:
                stack.append((parent, False))

    root.grad = np.ones_like(root.values)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            run, node._backward = node._backward, _spent
            g, node.grad = node.grad, None
            run(g)


def sgd_step(params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray],
             state: Dict[str, np.ndarray], lr: float,
             momentum: float = 0.0, weight_decay: float = 0.0) -> None:
    """In-place SGD with momentum and decoupled-into-gradient weight decay.

    v <- momentum*v + (grad + wd*param); param <- param - lr*v.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    for name, param in params.items():
        g = grads[name]
        check_finite(g, f"gradient of {name}")
        v = state.get(name)
        if v is None:
            v = np.zeros_like(param)
        v = momentum * v + (g + weight_decay * param)
        state[name] = v
        param -= lr * v


def grad_check(f: Callable[[np.ndarray], tuple], point: np.ndarray,
               step: float = 1e-5, tolerance: float = 1e-4) -> dict:
    """Compare analytic against central-difference gradients, coordinatewise.

    ``f(x)`` must return ``(value, analytic_gradient)`` with value scalar.
    Returns a report dict; never raises on mismatch.
    """
    point = np.asarray(point, dtype=np.float64)
    _, analytic = f(point)
    analytic = np.asarray(analytic, dtype=np.float64)
    fd = np.zeros_like(point)
    flat = point.reshape(-1)
    fd_flat = fd.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi, _ = f(point)
        flat[i] = orig - step
        lo, _ = f(point)
        flat[i] = orig
        fd_flat[i] = (float(hi) - float(lo)) / (2.0 * step)
    denom = np.maximum(np.abs(fd), 1.0)
    rel_err = np.abs(analytic - fd) / denom
    max_err = float(rel_err.max()) if rel_err.size else 0.0
    return {
        "max_rel_error": max_err,
        "passed": max_err <= tolerance,
        "analytic": analytic,
        "finite_difference": fd,
        "tolerance": tolerance,
        "step": step,
    }
