"""Minimal reverse-mode autodiff on numpy arrays, plus SGD and a gradient checker.

The graph is built define-by-run: every primitive returns a new Tensor that
holds a closure propagating adjoints to its parents. A fresh graph is built
for every forward pass; nothing is retained between training iterations.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Sequence

import numpy as np

_node_counter = itertools.count()


class NonFiniteError(FloatingPointError):
    """A primitive produced (or was fed) NaN or Inf."""


def check_finite(values: np.ndarray, context: str) -> None:
    # sum() is finite iff every element is (inf+inf stays inf, inf-inf -> nan)
    if not np.isfinite(values.sum()):
        raise NonFiniteError(f"non-finite values in {context}")


class Tensor:
    """N-d float64 array node on the computation graph.

    ``grad`` stays None until a backward pass from a scalar root reaches
    this node. ``requires_grad`` is True for a leaf unless it is built by
    ``constant()``; a primitive's output requires a gradient when any of its
    parents does.
    """

    __slots__ = ("values", "grad", "node_id", "requires_grad", "_parents",
                 "_backward")

    def __init__(self, values, parents: Sequence["Tensor"] = (),
                 backward: Callable[[np.ndarray], None] | None = None,
                 requires_grad: bool = True):
        self.values = np.asarray(values, dtype=np.float64)
        check_finite(self.values, "primitive output" if parents
                     else "tensor construction")
        self.grad: np.ndarray | None = None
        self.node_id = next(_node_counter)
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
        return f"Tensor(shape={self.values.shape}, id={self.node_id})"


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


def conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """2-D convolution, stride 1, zero 'same' padding, square odd kernel.

    x: (N, H, W, Cin); kernel: (k, k, Cin, Cout) -> (N, H, W, Cout).
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

    cols = im2col(x.values, k)
    kmat = kernel.values.reshape(k * k * cin, cout)
    out_vals = (cols @ kmat).reshape(n, h, w, cout)

    def backward(g):
        gmat = g.reshape(n * h * w, cout)
        kernel._accumulate((cols.T @ gmat).reshape(kernel.values.shape))
        if not x.requires_grad:
            return
        # col2im, channel-major. g is zero-padded to (H+2p, W+2p) planes
        # first, so that dcols has the layout of the padded input gradient
        # and each tap adds one contiguous run at a fixed offset. The taps
        # go in (i, j) order into zeros, as in a per-tap scatter into
        # (N, H+2p, W+2p, Cin); the padding only adds zeros, and a zero of
        # either sign added to a sum that started at +0.0 leaves its bits
        # unchanged. That argument covers the scatter only: dcols comes from
        # kmat @ gpad.T rather than g @ kmat.T, and BLAS need not round the
        # two orders alike. They agree on the shapes checked in CHANGES.md
        # (16x16 images among them); other shapes can differ in the last bit.
        hp, wp = h + 2 * p, w + 2 * p
        gpad = np.zeros((n, hp, wp, cout))
        gpad[:, :h, :w, :] = g
        dcols = (kmat @ gpad.reshape(-1, cout).T).reshape(k, k, -1)
        size = dcols.shape[2]
        dpad = np.zeros(size)
        for i in range(k):
            for j in range(k):
                shift = i * wp + j
                dpad[shift:] += dcols[i, j, :size - shift]
        dpad = dpad.reshape(cin, n, hp, wp)
        x._accumulate(dpad[:, :, p:p + h, p:p + w].transpose(1, 2, 3, 0))

    return Tensor(out_vals, (x, kernel), backward)


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


def backward(root: Tensor) -> None:
    """Populate .grad of every node reachable from a scalar root."""
    if root.values.size != 1:
        raise ValueError("backward root must be scalar")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if node.node_id in visited:
            continue
        visited.add(node.node_id)
        stack.append((node, True))
        for parent in node._parents:
            if parent.node_id not in visited:
                stack.append((parent, False))

    root.grad = np.ones_like(root.values)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


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
