"""Small CNN feature extractor with target and source classifier heads.

Weights live as plain numpy arrays; forward passes wrap them in autodiff
Tensors when gradients are needed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict

import numpy as np

from . import tensor as T
from .data import atomic_write

_CKPT_MAGIC = b"SMWT"
_CKPT_VERSION = 1


class CheckpointError(ValueError):
    """A malformed checkpoint: bad magic or version, a truncated or
    oversized file, parameters that do not match its architecture, or a NaN
    or Inf parameter."""


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
        if min(self.as_tuple()) < 1:
            raise ValueError("architecture sizes must be >= 1")
        if self.kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd")

    def as_tuple(self):
        return (self.image_size, self.channels, self.conv1_filters,
                self.conv2_filters, self.kernel_size, self.feature_dim,
                self.n_source_classes, self.n_target_classes)

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
TGT_HEAD_PARAMS = ("tgt_w", "tgt_b")


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


def _head_init(rng: np.random.Generator, d: int, n_classes: int):
    bound = 1.0 / np.sqrt(d)
    w = rng.uniform(-bound, bound, size=(d, n_classes))
    b = rng.uniform(-bound, bound, size=(n_classes,))
    return w, b


def init_weights(arch: Architecture, seed: int,
                 with_target_head: bool = False) -> ModelWeights:
    """He-style init for conv/dense, uniform [-1/sqrt(d), 1/sqrt(d)] heads."""
    rng = np.random.default_rng(seed)
    k = arch.kernel_size
    params: Dict[str, np.ndarray] = {}
    fan1 = k * k * arch.channels
    params["conv1_k"] = rng.normal(
        0.0, np.sqrt(2.0 / fan1), size=(k, k, arch.channels, arch.conv1_filters))
    params["conv1_b"] = np.zeros(arch.conv1_filters)
    fan2 = k * k * arch.conv1_filters
    params["conv2_k"] = rng.normal(
        0.0, np.sqrt(2.0 / fan2), size=(k, k, arch.conv1_filters, arch.conv2_filters))
    params["conv2_b"] = np.zeros(arch.conv2_filters)
    params["proj_w"] = rng.normal(
        0.0, np.sqrt(2.0 / arch.conv2_filters),
        size=(arch.conv2_filters, arch.feature_dim))
    params["proj_b"] = np.zeros(arch.feature_dim)
    params["src_w"], params["src_b"] = _head_init(
        rng, arch.feature_dim, arch.n_source_classes)
    if with_target_head:
        params["tgt_w"], params["tgt_b"] = _head_init(
            rng, arch.feature_dim, arch.n_target_classes)
    return ModelWeights(arch, params)


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
    arithmetic of feature_extract_t without the graph."""
    if x.ndim != 4:
        raise ValueError("expected a batch of shape (N, H, W, C)")
    p = weights.params
    h = x
    for layer in ("conv1", "conv2"):
        # only the pre-activation is kept: the im2col matrix is freed now
        h = T.conv_layer(h, p[f"{layer}_k"], p[f"{layer}_b"])[1]
        np.maximum(h, 0.0, out=h)
    pooled = h.mean(axis=(1, 2))
    return np.maximum(pooled @ p["proj_w"] + p["proj_b"], 0.0)


def head_logits(feats: np.ndarray, weights: ModelWeights) -> np.ndarray:
    """Logits of the target head, or of the source head when there is none
    (a pretrained model or a teacher)."""
    prefix = "tgt" if weights.has_target_head else "src"
    return feats @ weights.params[f"{prefix}_w"] + weights.params[f"{prefix}_b"]


def init_from_pretrained(pretrained: ModelWeights, seed: int):
    """Student copies the pretrained FE and source head and gets a fresh
    target head; teacher is the same copy without a target head."""
    for name in FE_PARAMS + SRC_HEAD_PARAMS:
        if name not in pretrained.params:
            raise CheckpointError(f"pretrained weights missing {name}")
    teacher = ModelWeights(
        pretrained.arch,
        {k: pretrained.params[k].copy()
         for k in FE_PARAMS + SRC_HEAD_PARAMS})
    student = teacher.copy()
    rng = np.random.default_rng(seed)
    student.params["tgt_w"], student.params["tgt_b"] = _head_init(
        rng, pretrained.arch.feature_dim, pretrained.arch.n_target_classes)
    return student, teacher


def save_checkpoint(weights: ModelWeights, path) -> None:
    arch_vals = weights.arch.as_tuple()
    names = sorted(weights.params)
    with atomic_write(path, "wb") as fh:
        fh.write(struct.pack("<4sI", _CKPT_MAGIC, _CKPT_VERSION))
        fh.write(struct.pack(f"<{len(arch_vals)}I", *arch_vals))
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            raw_name = name.encode()
            arr = weights.params[name]
            fh.write(struct.pack("<I", len(raw_name)))
            fh.write(raw_name)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f8").tobytes())


def load_checkpoint(path) -> ModelWeights:
    """Read a checkpoint written by save_checkpoint; any malformed file
    raises CheckpointError."""
    raw = Path(path).read_bytes()
    try:
        off = struct.calcsize("<4sI")
        magic, version = struct.unpack_from("<4sI", raw)
        if magic != _CKPT_MAGIC:
            raise CheckpointError("bad checkpoint magic")
        if version != _CKPT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        n_arch = len(Architecture().as_tuple())
        arch = Architecture(*struct.unpack_from(f"<{n_arch}I", raw, off))
        off += 4 * n_arch
        shapes = arch.param_shapes()
        (n_params,) = struct.unpack_from("<I", raw, off)
        off += 4
        params: Dict[str, np.ndarray] = {}
        for _ in range(n_params):
            (name_len,) = struct.unpack_from("<I", raw, off)
            off += 4
            name = raw[off:off + name_len].decode()
            off += name_len
            if name not in shapes or name in params:
                raise CheckpointError(f"unexpected parameter {name!r}")
            (ndim,) = struct.unpack_from("<I", raw, off)
            off += 4
            if ndim != len(shapes[name]):
                raise CheckpointError(f"{name} has {ndim} dimensions")
            shape = struct.unpack_from(f"<{ndim}I", raw, off)
            off += 4 * ndim
            if shape != shapes[name]:
                raise CheckpointError(
                    f"{name} has shape {shape}, not {shapes[name]}")
            count = math.prod(shape)
            if off + 8 * count > len(raw):
                raise CheckpointError(f"truncated checkpoint at {name}")
            params[name] = np.frombuffer(raw, dtype="<f8", count=count,
                                         offset=off).reshape(shape).copy()
            if not np.isfinite(params[name]).all():
                raise CheckpointError(f"{name} holds a non-finite value")
            off += 8 * count
    except CheckpointError:
        raise
    except (struct.error, ValueError) as exc:  # a cut or a bad name or size
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    if off != len(raw):
        raise CheckpointError(f"{len(raw) - off} trailing bytes")
    expected = set(FE_PARAMS + SRC_HEAD_PARAMS)
    if set(params) not in (expected, expected | set(TGT_HEAD_PARAMS)):
        raise CheckpointError(
            f"parameters {sorted(params)} do not form a model")
    return ModelWeights(arch, params)
