"""Small CNN feature extractor with target and source classifier heads.

Weights live as plain numpy arrays; forward passes wrap them in autodiff
Tensors when gradients are needed.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields
from typing import Dict

import numpy as np

from . import tensor as T
from .data import load_arrays, save_arrays

_CKPT_MAGIC = b"SMWT"
_CKPT_VERSION = 1


class CheckpointError(ValueError):
    """A malformed checkpoint file (see data.load_arrays), or parameters
    that do not match its architecture or do not form a model."""


@dataclass
class Architecture:
    image_size: int = 16
    channels: int = 1
    conv1_filters: int = 8
    conv2_filters: int = 16
    kernel_size: int = 3
    feature_dim: int = 32
    n_source_classes: int = 20
    n_target_classes: int = 5

    def __post_init__(self):
        if min(astuple(self)) < 1:
            raise ValueError("architecture sizes must be >= 1")
        if self.kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd")

    def param_shapes(self) -> Dict[str, tuple]:
        """Shape of every parameter, the target head included."""
        k, c1, c2, d = (self.kernel_size, self.conv1_filters,
                        self.conv2_filters, self.feature_dim)
        return {"conv1_k": (k, k, self.channels, c1), "conv1_b": (c1,),
                "conv2_k": (k, k, c1, c2), "conv2_b": (c2,),
                "proj_w": (c2, d), "proj_b": (d,),
                "src_w": (d, self.n_source_classes),
                "src_b": (self.n_source_classes,),
                "tgt_w": (d, self.n_target_classes),
                "tgt_b": (self.n_target_classes,)}


# Parameter names of the shared feature extractor.
FE_PARAMS = ("conv1_k", "conv1_b", "conv2_k", "conv2_b", "proj_w", "proj_b")
SRC_HEAD_PARAMS = ("src_w", "src_b")


@dataclass
class ModelWeights:
    arch: Architecture
    params: Dict[str, np.ndarray] = field(default_factory=dict)

    def copy(self) -> "ModelWeights":
        return ModelWeights(self.arch,
                            {k: v.copy() for k, v in self.params.items()})

    @property
    def has_target_head(self) -> bool:
        return "tgt_w" in self.params


def _init_param(rng: np.random.Generator, name: str, shape: tuple,
                feature_dim: int) -> np.ndarray:
    """Head parameters uniform in [-1/sqrt(d), 1/sqrt(d)], other biases
    zero, kernels and proj_w He-normal with fan-in prod(shape[:-1])."""
    if name.startswith(("src_", "tgt_")):
        bound = 1.0 / np.sqrt(feature_dim)
        return rng.uniform(-bound, bound, size=shape)
    if name.endswith("_b"):
        return np.zeros(shape)
    return rng.normal(0.0, np.sqrt(2.0 / math.prod(shape[:-1])), size=shape)


def init_weights(arch: Architecture, seed: int,
                 with_target_head: bool = False) -> ModelWeights:
    """Every parameter of arch.param_shapes(), drawn in its order."""
    rng = np.random.default_rng(seed)
    return ModelWeights(arch, {
        name: _init_param(rng, name, shape, arch.feature_dim)
        for name, shape in arch.param_shapes().items()
        if with_target_head or not name.startswith("tgt_")})


def as_tensors(weights: ModelWeights) -> Dict[str, T.Tensor]:
    """Fresh leaf Tensors for one forward/backward pass."""
    return {k: T.Tensor(v) for k, v in weights.params.items()}


def feature_extract_t(x: np.ndarray, wt: Dict[str, T.Tensor]) -> T.Tensor:
    """conv-relu-conv-relu-pool-dense-relu on a batch (N, H, W, C)."""
    if x.ndim != 4:
        raise ValueError("expected a batch of shape (N, H, W, C)")
    h = T.conv2d(T.constant(x), wt["conv1_k"], bias_relu=wt["conv1_b"])
    h = T.conv2d(h, wt["conv2_k"], bias_relu=wt["conv2_b"])
    pooled = T.global_mean_pool(h)
    return T.relu(T.add(T.matmul(pooled, wt["proj_w"]), wt["proj_b"]))


def head_logits_t(feats: T.Tensor, wt: Dict[str, T.Tensor],
                  head: str) -> T.Tensor:
    """Logits of the "tgt" or "src" head on features of feature_extract_t."""
    return T.add(T.matmul(feats, wt[f"{head}_w"]), wt[f"{head}_b"])


def feature_extract(x: np.ndarray, weights: ModelWeights) -> np.ndarray:
    """Gradient-free feature extraction (teacher / evaluation path): the
    arithmetic of feature_extract_t without the graph.

    Both convolutions and the pool run per block of tensor.BLOCK_IMAGES
    images, the forward GEMM block of tensor.conv_layer, so that only one
    block's im2col matrices and activations are alive at a time and they
    stay in cache; the projection is one GEMM over all rows. A row's
    features therefore do not depend on the other rows of x, except that
    one row alone goes through GEMV in the projection and can differ in the
    last bit.
    """
    if x.ndim != 4:
        raise ValueError("expected a batch of shape (N, H, W, C)")
    p = weights.params
    pooled = np.empty((len(x), p["proj_w"].shape[0]))
    for a in range(0, len(x), T.BLOCK_IMAGES):
        h = x[a:a + T.BLOCK_IMAGES]
        for layer in ("conv1", "conv2"):
            # only the pre-activation is kept: the im2col matrix is freed now
            h = T.conv_layer(h, p[f"{layer}_k"], p[f"{layer}_b"])[1]
            np.maximum(h, 0.0, out=h)
        np.add.reduce(h, axis=(1, 2), out=pooled[a:a + T.BLOCK_IMAGES])
    # the mean of global_mean_pool: ndarray.mean is this sum divided by the
    # count, which is done once here rather than once per block
    pooled /= x.shape[1] * x.shape[2]
    return np.maximum(pooled @ p["proj_w"] + p["proj_b"], 0.0)


def head_logits(feats: np.ndarray, weights: ModelWeights) -> np.ndarray:
    """Logits of the target head, or of the source head when there is none
    (a pretrained model or a teacher)."""
    prefix = "tgt" if weights.has_target_head else "src"
    return feats @ weights.params[f"{prefix}_w"] + weights.params[f"{prefix}_b"]


def init_from_pretrained(pretrained: ModelWeights, seed: int):
    """Student copies the pretrained FE and source head and gets a fresh
    target head; teacher is the same copy without a target head."""
    teacher = ModelWeights(
        pretrained.arch,
        {k: pretrained.params[k].copy()
         for k in FE_PARAMS + SRC_HEAD_PARAMS})
    student = teacher.copy()
    rng = np.random.default_rng(seed)
    shapes = pretrained.arch.param_shapes()
    for name in ("tgt_w", "tgt_b"):
        student.params[name] = _init_param(rng, name, shapes[name],
                                           pretrained.arch.feature_dim)
    return student, teacher


def save_checkpoint(weights: ModelWeights, path) -> None:
    """data.save_arrays of the architecture and the float64 parameters."""
    save_arrays(path, _CKPT_MAGIC, _CKPT_VERSION, astuple(weights.arch),
                {name: value.astype("<f8", copy=False)
                 for name, value in weights.params.items()})


def load_checkpoint(path) -> ModelWeights:
    """Read a checkpoint written by save_checkpoint; any malformed file
    raises CheckpointError."""
    # no architecture size changes the rank of a parameter
    layout = {name: (len(shape), "<f8")
              for name, shape in Architecture().param_shapes().items()}
    arch_values, params = load_arrays(
        path, _CKPT_MAGIC, _CKPT_VERSION, len(fields(Architecture)), layout,
        CheckpointError)
    try:
        arch = Architecture(*arch_values)
    except ValueError as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    # the parameters of the architecture, with or without the target head
    shapes = arch.param_shapes()
    found = {name: value.shape for name, value in params.items()}
    if found not in (shapes, {name: shapes[name]
                              for name in FE_PARAMS + SRC_HEAD_PARAMS}):
        raise CheckpointError(f"parameters {found} do not fit {arch}")
    return ModelWeights(arch, params)
