"""Synthetic classification tasks, and the binary format of the lab's files.

Classes are random image templates; samples are the template plus Gaussian
pixel noise, clipped to [0, 1]. The target task is a distorted subset of the
source classes, so the two domains are related but not identical.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_MAGIC = b"SMDS"
_VERSION = 2
_LAYOUT = {"inputs": (4, "<f8"), "labels": (1, "<i8")}  # Dataset fields

_MEMINFO = "/proc/meminfo"
_CGROUP = "/proc/self/cgroup"
_CGROUP_ROOT = "/sys/fs/cgroup"
# limit and usage files by controllers field, also the directory ("" = v2)
_CGROUP_FILES = {"": ("memory.max", "memory.current"),
                 "memory": ("memory.limit_in_bytes", "memory.usage_in_bytes")}
_V1_NO_LIMIT = 9223372036854771712     # the largest page-aligned int64


class DatasetFormatError(ValueError):
    """A malformed dataset file (see load_arrays), a label outside its
    classes, or inputs and labels of different lengths."""


class TaskTooLarge(ValueError):
    """Generating a task's datasets would need more memory than is
    available."""


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a temporary file beside ``path`` for writing; it replaces
    ``path`` only when the block completes.

    A writer that raises leaves the old file as it was and no temporary file
    behind; a killed process can leave a hidden ``.<name>.<pid>.tmp`` but
    never a truncated ``path``. Nothing is fsynced: this guards against a
    failed or interrupted writer, not against a power cut.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, rows) -> None:
    """Write ``rows``, the header first, through csv.writer: str() of each
    value (a Python float's repr), minimal quoting, CRLF line ends."""
    with atomic_write(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


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
        if min(self.channels, self.samples_per_class,
               self.n_target_classes) < 1:
            raise ValueError("channels, samples_per_class and "
                             "n_target_classes must be >= 1")
        if self.n_target_classes > self.n_source_classes:
            raise ValueError("target class count must not exceed source")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")
        if self.image_size < 1 or self.patch_size < 1:
            raise ValueError("image size and patch size must be >= 1")
        if self.image_size % self.patch_size != 0:
            raise ValueError("patch size must divide image size")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(eq=False)
class Dataset:
    inputs: np.ndarray      # (N, H, W, C), values in [0, 1]
    labels: np.ndarray      # (N,) int64
    n_classes: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.inputs) != len(self.labels):
            raise ValueError("inputs/labels length mismatch")
        if len(self.labels) and (self.labels.min() < 0
                                 or self.labels.max() >= self.n_classes):
            raise ValueError("label out of range")

    def __len__(self):
        return len(self.labels)


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


def _rotate(image: np.ndarray, degrees: float) -> np.ndarray:
    """Bilinear rotation about the image center; exact identity at 0 degrees."""
    if degrees == 0.0:
        return image
    from scipy import ndimage
    return ndimage.rotate(image, degrees, axes=(1, 0), reshape=False,
                          order=1, mode="nearest")


def _distort(template: np.ndarray, degrees: float, contrast: float) -> np.ndarray:
    out = _rotate(template, degrees)
    if contrast != 0.0:
        out = (out - 0.5) * (1.0 + contrast) + 0.5
    return np.clip(out, 0.0, 1.0)


def target_class_selection(spec: TaskSpec) -> np.ndarray:
    rng = np.random.default_rng((spec.seed, 2))
    return rng.permutation(spec.n_source_classes)[:spec.n_target_classes]


def _draw(spec: TaskSpec, domain: str, per_class: int,
          stream: int) -> Dataset:
    """per_class noisy samples of every class of a domain, shuffled, from
    the RNG stream (spec.seed, stream). The target classes are distorted
    copies of the selected source templates, relabeled 0..C_tgt-1."""
    templates = source_templates(spec)
    if domain == "target":
        templates = np.stack([
            _distort(templates[c], spec.rotation_degrees, spec.contrast_shift)
            for c in target_class_selection(spec)])
    rng = np.random.default_rng((spec.seed, stream))
    shape = (len(templates), per_class) + templates.shape[1:]
    noise = rng.normal(0.0, spec.noise_sigma, size=shape) \
        if spec.noise_sigma > 0 else np.zeros(shape)
    inputs = np.clip(templates[:, None] + noise, 0.0, 1.0).reshape(
        (-1,) + templates.shape[1:])
    labels = np.repeat(np.arange(len(templates)), per_class)
    order = rng.permutation(len(labels))
    return Dataset(inputs[order], labels[order], len(templates))


def generate_source(spec: TaskSpec) -> Dataset:
    return _draw(spec, "source", spec.samples_per_class, 1)


def derive_target(spec: TaskSpec) -> Dataset:
    """Target task: distorted subset of source templates, relabeled 0..C_tgt-1."""
    return _draw(spec, "target", spec.samples_per_class, 3)


def test_split(spec: TaskSpec, domain: str = "target") -> Dataset:
    """Held-out set: same templates, independent noise stream, half the
    samples per class."""
    return _draw(spec, domain, max(spec.samples_per_class // 2, 1),
                 4 if domain == "source" else 5)


def _read(path) -> str:
    """The text of a file; empty where it cannot be read."""
    try:
        return Path(path).read_text(encoding="ascii")
    except OSError:
        return ""


def available_memory() -> int | None:
    """The smallest of MemAvailable of /proc/meminfo and the limit minus the
    usage of the process's memory cgroup (v2 or v1) and of each cgroup
    above it up to the controller's root, in bytes; None where none is
    known. A limit of "max" (v2) or _V1_NO_LIMIT is none."""
    known = [int(line.split()[1]) * 1024 for line in
             _read(_MEMINFO).splitlines() if line.startswith("MemAvailable:")]
    for line in _read(_CGROUP).splitlines():
        _, controllers, path = line.split(":", 2)
        if controllers in _CGROUP_FILES:
            own = Path(path.lstrip("/"))
            for level in (own, *own.parents):
                limit, usage = (_read(Path(_CGROUP_ROOT, controllers, level,
                                           name)).strip()
                                for name in _CGROUP_FILES[controllers])
                if limit.isdigit() and usage.isdigit() \
                        and int(limit) < _V1_NO_LIMIT:
                    known.append(max(int(limit) - int(usage), 0))
    return min(known, default=None)


def generation_bytes(spec: TaskSpec, rate: float) -> int:
    """A bound on the memory that generating and saving the four datasets
    of a task at a subsample rate takes at its peak: their images, two more
    copies of the largest (a draw's noise, and save's little-endian copy)
    and two of the source templates (the patches and their tiling)."""
    per_class = spec.samples_per_class
    counts = [spec.n_source_classes * per_class,
              spec.n_target_classes * per_class,
              spec.n_target_classes * max(math.ceil(rate * per_class), 1),
              spec.n_target_classes * max(per_class // 2, 1)]
    images = sum(counts) + 2 * max(counts) + 2 * spec.n_source_classes
    return images * 8 * (spec.image_size ** 2 * spec.channels + 1)


def check_fits(need: int, what: str, error: type) -> None:
    """Raise ``error`` when ``need`` bytes exceed the available memory."""
    have = available_memory()
    if have is not None and need > have:
        raise error(f"{what} need about {need / 2**30:.3g} GiB, "
                    f"{have / 2**30:.3g} GiB are available")


def stratified_subsample(dataset: Dataset, rate: float, seed: int) -> Dataset:
    """Keep ceil(rate * n_c) samples per class, never dropping a class."""
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
                   dataset.n_classes)


def save_arrays(path, magic: bytes, version: int, header, arrays) -> None:
    """Write the one binary format: ``magic``; uint32 ``version``, ``header``
    values and array count; then per array, in name order, its name (length
    and UTF-8), rank and shape (uint32) and its values, all little-endian."""
    with atomic_write(path, "wb") as fh:
        fh.write(magic + struct.pack(f"<{len(header) + 2}I", version,
                                     *header, len(arrays)))
        for name in sorted(arrays):
            raw_name, arr = name.encode(), arrays[name]
            fh.write(struct.pack(f"<I{len(raw_name)}sI{arr.ndim}I",
                                 len(raw_name), raw_name, arr.ndim,
                                 *arr.shape))
            fh.write(np.asarray(arr, arr.dtype.newbyteorder("<")).tobytes())


def load_arrays(path, magic: bytes, version: int, n_header: int, layout,
                error: type):
    """(header values, {name: array}) of a save_arrays file. ``layout``
    maps each name the file may hold to its (rank, dtype). A bad magic or
    version, a cut at any byte, trailing bytes, an unknown or repeated
    name, a wrong rank and a NaN or Inf float each raise ``error``."""
    raw = Path(path).read_bytes()
    off = 0

    def take(fmt: str) -> tuple:
        nonlocal off
        values = struct.unpack_from("<" + fmt, raw, off)
        off += struct.calcsize("<" + fmt)
        return values

    arrays = {}
    try:
        found_magic, found_version, *header, n_arrays = take(
            f"{len(magic)}s{n_header + 2}I")
        if (found_magic, found_version) != (magic, version):
            raise error(f"{found_magic!r} version {found_version}, not "
                        f"{magic!r} version {version}")
        for _ in range(n_arrays):
            (name_len,) = take("I")
            name = take(f"{name_len}s")[0].decode()
            if name not in layout or name in arrays:
                raise error(f"unexpected array {name!r}")
            rank, dtype = layout[name]
            if take("I") != (rank,):
                raise error(f"{name} does not have {rank} dimensions")
            shape = take(f"{rank}I")
            if off + math.prod(shape) * np.dtype(dtype).itemsize > len(raw):
                raise error(f"file cut in {name}")
            arr = np.frombuffer(raw, dtype, math.prod(shape), off).copy()
            off += arr.nbytes
            if not np.isfinite(arr).all():
                raise error(f"{name} holds a NaN or Inf")
            arrays[name] = arr.reshape(shape)
    except (struct.error, UnicodeDecodeError) as exc:  # a cut or a bad name
        raise error(f"malformed file: {exc}") from exc
    if off != len(raw):
        raise error(f"{len(raw) - off} trailing bytes")
    return header, arrays


def save(dataset: Dataset, path) -> None:
    """save_arrays of the class count, the images and the labels."""
    save_arrays(path, _MAGIC, _VERSION, (dataset.n_classes,),
                {"inputs": dataset.inputs, "labels": dataset.labels})


def load(path) -> Dataset:
    (n_classes,), arrays = load_arrays(path, _MAGIC, _VERSION, 1, _LAYOUT,
                                       DatasetFormatError)
    try:  # an array missing, a label outside [0, n_classes), lengths apart
        return Dataset(n_classes=n_classes, **arrays)
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(str(exc)) from exc


def export_csv(dataset: Dataset, path) -> None:
    """Debug export: one row per sample, flattened pixels then the label.

    The bytes are those of ``csv.writer`` over the numpy scalars (float
    repr, no quoting, CRLF line ends). orjson writes repr's shortest
    round-trip digits about ten times faster, in repr's notation for every
    value that is zero or has a magnitude in [1e-4, 1e16). A row holding
    any other value (NaN, Inf, or a nonzero magnitude below 1e-4 or from
    1e16 up, which orjson writes as null or in another notation) is joined
    through repr instead.
    """
    import orjson
    n_pixels = math.prod(dataset.inputs.shape[1:])
    with atomic_write(path, "wb") as fh:
        fh.write(",".join([f"p{i}" for i in range(n_pixels)] + ["label"])
                 .encode() + b"\r\n")
        for x, y in zip(dataset.inputs.reshape(len(dataset), n_pixels),
                        dataset.labels.tolist()):
            size = np.abs(x)
            if (((size < 1e-4) & (size > 0)) | ~(size < 1e16)).any():
                row = ",".join(map(repr, x.tolist())).encode()
            else:   # orjson refuses a strided row
                row = orjson.dumps(np.ascontiguousarray(x),
                                   option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
            fh.write(b"%s,%d\r\n" % (row, y))
