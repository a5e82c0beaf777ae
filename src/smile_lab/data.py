"""Synthetic source/target classification tasks and dataset persistence.

Classes are random image templates; samples are the template plus Gaussian
pixel noise, clipped to [0, 1]. The target task is a distorted subset of the
source classes, so the two domains are related but not identical.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

_MAGIC = b"SMDS"
_VERSION = 1
_DOMAINS = ("source", "target")


class DatasetFormatError(ValueError):
    """Bad magic, version, or truncated dataset file."""


@dataclass
class TaskSpec:
    image_size: int = 16
    channels: int = 1
    n_source_classes: int = 20
    n_target_classes: int = 5
    samples_per_class: int = 50
    noise_sigma: float = 0.25
    rotation_degrees: float = 45.0
    contrast_shift: float = 0.25
    patch_size: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.n_target_classes > self.n_source_classes:
            raise ValueError("target class count must not exceed source")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")
        if self.image_size < 1 or self.patch_size < 1:
            raise ValueError("image size and patch size must be >= 1")
        if self.image_size % self.patch_size != 0:
            raise ValueError("patch size must divide image size")


@dataclass
class Dataset:
    inputs: np.ndarray      # (N, H, W, C), values in [0, 1]
    labels: np.ndarray      # (N,) int64
    n_classes: int
    domain: str

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.domain not in _DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        if len(self.inputs) != len(self.labels):
            raise ValueError("inputs/labels length mismatch")
        if len(self.labels) and (self.labels.min() < 0
                                 or self.labels.max() >= self.n_classes):
            raise ValueError("label out of range")

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return (isinstance(other, Dataset)
                and self.domain == other.domain
                and self.n_classes == other.n_classes
                and self.inputs.shape == other.inputs.shape
                and np.array_equal(self.inputs, other.inputs)
                and np.array_equal(self.labels, other.labels))


def _sample_from_templates(templates: np.ndarray, labels_per_class: int,
                           sigma: float, domain: str,
                           rng: np.random.Generator) -> Dataset:
    n_classes = templates.shape[0]
    inputs, labels = [], []
    for c in range(n_classes):
        noise = rng.normal(0.0, sigma, size=(labels_per_class,) + templates[c].shape) \
            if sigma > 0 else np.zeros((labels_per_class,) + templates[c].shape)
        inputs.append(np.clip(templates[c] + noise, 0.0, 1.0))
        labels.append(np.full(labels_per_class, c, dtype=np.int64))
    inputs = np.concatenate(inputs)
    labels = np.concatenate(labels)
    order = rng.permutation(len(labels))
    return Dataset(inputs[order], labels[order], n_classes, domain)


def source_templates(spec: TaskSpec) -> np.ndarray:
    """The fixed per-class templates, (C_src, H, W, C), drawn from the seed.

    Each class is a tiling of its own random patch. Class identity then
    lives in local texture statistics, which a small conv net with global
    mean pooling can separate; globally-random templates would collapse to
    near-identical pooled features.
    """
    rng = np.random.default_rng(spec.seed)
    patches = rng.uniform(0.0, 1.0, size=(
        spec.n_source_classes, spec.patch_size, spec.patch_size,
        spec.channels))
    reps = spec.image_size // spec.patch_size
    return np.tile(patches, (1, reps, reps, 1))


def generate_source(spec: TaskSpec) -> Dataset:
    templates = source_templates(spec)
    rng = np.random.default_rng((spec.seed, 1))
    return _sample_from_templates(templates, spec.samples_per_class,
                                  spec.noise_sigma, "source", rng)


def _rotate(image: np.ndarray, degrees: float) -> np.ndarray:
    """Bilinear rotation about the image center; exact identity at 0 degrees."""
    if degrees == 0.0:
        return image
    from scipy import ndimage
    rotated = np.empty_like(image)
    for c in range(image.shape[-1]):
        rotated[..., c] = ndimage.rotate(image[..., c], degrees,
                                         reshape=False, order=1,
                                         mode="nearest")
    return rotated


def _distort(template: np.ndarray, degrees: float, contrast: float) -> np.ndarray:
    out = _rotate(template, degrees)
    if contrast != 0.0:
        out = (out - 0.5) * (1.0 + contrast) + 0.5
    return np.clip(out, 0.0, 1.0)


def target_class_selection(spec: TaskSpec) -> np.ndarray:
    rng = np.random.default_rng((spec.seed, 2))
    return rng.permutation(spec.n_source_classes)[:spec.n_target_classes]


def derive_target(spec: TaskSpec, templates: np.ndarray | None = None) -> Dataset:
    """Target task: distorted subset of source templates, relabeled 0..C_tgt-1."""
    if templates is None:
        templates = source_templates(spec)
    selected = target_class_selection(spec)
    distorted = np.stack([
        _distort(templates[c], spec.rotation_degrees, spec.contrast_shift)
        for c in selected
    ])
    rng = np.random.default_rng((spec.seed, 3))
    return _sample_from_templates(distorted, spec.samples_per_class,
                                  spec.noise_sigma, "target", rng)


def test_split(spec: TaskSpec, domain: str = "target",
               samples_per_class: int | None = None) -> Dataset:
    """Held-out set: same templates, independent noise stream."""
    per_class = samples_per_class or max(spec.samples_per_class // 2, 1)
    eval_spec = replace(spec, samples_per_class=per_class)
    if domain == "source":
        rng = np.random.default_rng((spec.seed, 4))
        return _sample_from_templates(source_templates(eval_spec), per_class,
                                      spec.noise_sigma, "source", rng)
    selected = target_class_selection(eval_spec)
    templates = source_templates(eval_spec)
    distorted = np.stack([
        _distort(templates[c], spec.rotation_degrees, spec.contrast_shift)
        for c in selected
    ])
    rng = np.random.default_rng((spec.seed, 5))
    return _sample_from_templates(distorted, per_class, spec.noise_sigma,
                                  "target", rng)


def stratified_subsample(dataset: Dataset, rate: float, seed: int) -> Dataset:
    """Keep ceil(rate * n_c) samples per class, never dropping a class."""
    if not 0 < rate <= 1:
        raise ValueError("rate must be in (0, 1]")
    if len(dataset) == 0:
        raise ValueError("cannot subsample an empty dataset")
    rng = np.random.default_rng(seed)
    keep = []
    for c in range(dataset.n_classes):
        idx = np.flatnonzero(dataset.labels == c)
        if len(idx) == 0:
            continue
        n_keep = max(int(math.ceil(rate * len(idx))), 1)
        keep.append(rng.choice(idx, size=n_keep, replace=False))
    keep = np.concatenate(keep)
    keep = keep[rng.permutation(len(keep))]
    return Dataset(dataset.inputs[keep], dataset.labels[keep],
                   dataset.n_classes, dataset.domain)


def save(dataset: Dataset, path) -> None:
    """Little-endian binary: header, then raw float64 pixels, then int64 labels."""
    n, h, w, c = dataset.inputs.shape if len(dataset) else (0, 0, 0, 0)
    header = struct.pack(
        "<4sIIIIIIB", _MAGIC, _VERSION, h, w, c, n, dataset.n_classes,
        _DOMAINS.index(dataset.domain))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(dataset.inputs.astype("<f8").tobytes())
        fh.write(dataset.labels.astype("<i8").tobytes())


def load(path) -> Dataset:
    header_size = struct.calcsize("<4sIIIIIIB")
    raw = Path(path).read_bytes()
    if len(raw) < header_size:
        raise DatasetFormatError("truncated header")
    magic, version, h, w, c, n, n_classes, domain_idx = struct.unpack(
        "<4sIIIIIIB", raw[:header_size])
    if magic != _MAGIC:
        raise DatasetFormatError("bad magic")
    if version != _VERSION:
        raise DatasetFormatError(f"unsupported version {version}")
    pixel_bytes = n * h * w * c * 8
    label_bytes = n * 8
    if len(raw) != header_size + pixel_bytes + label_bytes:
        raise DatasetFormatError("truncated or oversized payload")
    inputs = np.frombuffer(
        raw, dtype="<f8", count=n * h * w * c, offset=header_size
    ).reshape(n, h, w, c).copy()
    labels = np.frombuffer(
        raw, dtype="<i8", count=n, offset=header_size + pixel_bytes).copy()
    return Dataset(inputs, labels, n_classes, _DOMAINS[domain_idx])


def export_csv(dataset: Dataset, path) -> None:
    """Debug export: one row per sample, flattened pixels then the label.

    The bytes are those of ``csv.writer`` over the numpy scalars (float
    repr, no quoting, CRLF line ends), written a row at a time so that no
    whole-matrix list of Python floats is built.
    """
    with open(path, "w", newline="") as fh:
        n_pixels = int(np.prod(dataset.inputs.shape[1:])) if len(dataset) else 0
        fh.write(",".join([f"p{i}" for i in range(n_pixels)] + ["label"])
                 + "\r\n")
        for x, y in zip(dataset.inputs.reshape(len(dataset), n_pixels),
                        dataset.labels.tolist()):
            fh.write(f"{','.join(map(repr, x.tolist()))},{y}\r\n")
