"""Outside-in tracing of smile_lab: spans around the package's public functions.

The package is not edited. ``Tracer.install`` replaces each target function
with a timing wrapper wherever a smile_lab module holds it as a global, so
``from ... import`` aliases (``train.total_objective``, ``losses.mix``) are
wrapped too. Tensor primitives also get their returned node's ``_backward``
closure wrapped, which times the backward pass per primitive.
``Tracer.uninstall`` puts every original object back.

A span is (name, start, end, parent). Spans nest strictly because the package
is single-threaded and synchronous, so a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass
from typing import Callable, List

MODULES = ("tensor", "model", "losses", "mixup", "train", "interpolation",
           "data", "config", "cli")

PRIMITIVES = ("add", "subtract", "multiply", "scale", "matmul", "relu",
              "mean", "sum_of_squares", "conv2d", "softmax_cross_entropy",
              "softmax")


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name: str, start: int, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None

    @property
    def duration(self) -> int:
        return self.end - self.start


def _rows(span, args, kwargs, result):
    span.info = len(args[0])


def _file_bytes(span, args, kwargs, result):
    span.info = os.path.getsize(args[1])


def _teacher_refreshed(span, args, kwargs, result):
    span.info = result is not None and result is not args[0]


def _exit_code(span, args, kwargs, result):
    span.info = result


def _conv2d_flops(x, kernel) -> int:
    n, h, w, cin = x.values.shape
    k, _, _, cout = kernel.values.shape
    return 2 * n * h * w * k * k * cin * cout


def _cli_span_name(args) -> str:
    argv = list(args[0])
    command = next(a for i, a in enumerate(argv)
                   if not a.startswith("-") and (i == 0 or argv[i - 1] != "-c"))
    if "--affine-stub" in argv:
        command += "-affine-stub"
    return "cli." + command


class Tracer:
    """Records spans around smile_lab's public functions while installed."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"smile_lab.{name}")
                        for name in MODULES}
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn: Callable, hook: Callable | None = None):
        """Return fn timed as span ``name`` (a string, or a function of the
        call's positional arguments); ``hook(span, args, kwargs, result)``
        may attach a value to the finished span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = Span(name if isinstance(name, str) else name(args),
                        clock(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _primitive_hook(self, prim: str):
        bwd_name = f"tensor.{prim}.bwd"

        def hook(span, args, kwargs, out):
            if prim == "conv2d":
                span.info = _conv2d_flops(*args)
            if out._backward is not None:
                out._backward = self.wrap(bwd_name, out._backward)

        return hook

    def targets(self):
        """(module, function, span name, hook) for every wrapped function."""
        out = [("tensor", p, f"tensor.{p}", self._primitive_hook(p))
               for p in PRIMITIVES]
        out += [
            ("tensor", "backward", "tensor.backward", None),
            ("tensor", "sgd_step", "tensor.sgd_step", None),
            ("model", "feature_extract_t", "model.feature_extract_t", None),
            ("model", "feature_extract", "model.feature_extract", _rows),
            ("model", "save_checkpoint", "model.save_checkpoint",
             _file_bytes),
            ("model", "load_checkpoint", "model.load_checkpoint", None),
            ("losses", "total_objective", "losses.total_objective", None),
            ("mixup", "mix", "mixup.mix", None),
            ("train", "train", "train.train", None),
            ("train", "update_teacher", "train.update_teacher",
             _teacher_refreshed),
            ("train", "accuracy", "train.accuracy", None),
            ("train", "pretrain_source", "train.pretrain_source", None),
            ("interpolation", "estimate_IL", "interpolation.estimate_IL",
             None),
            ("interpolation", "pca_2d", "interpolation.pca_2d", None),
            ("data", "generate_source", "data.generate", None),
            ("data", "derive_target", "data.generate", None),
            ("data", "test_split", "data.generate", None),
            ("data", "save", "data.save", _file_bytes),
            ("data", "load", "data.load", None),
            ("data", "export_csv", "data.export_csv", None),
            ("config", "load_config", "config.load_config", None),
            ("config", "apply_overrides", "config.apply_overrides", None),
            ("cli", "main", _cli_span_name, _exit_code),
        ]
        return out

    def _traced_model_output_fn(self):
        # model_output_fn returns a closure that estimate_IL calls; the
        # closure is what gets timed, as interpolation.model_fn
        original = self.modules["interpolation"].model_output_fn

        def model_output_fn(weights, layer):
            return self.wrap("interpolation.model_fn",
                             original(weights, layer), _rows)

        return original, model_output_fn

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for mod, fname, name, hook in self.targets():
            original = getattr(self.modules[mod], fname)
            replacements[id(original)] = (original,
                                          self.wrap(name, original, hook))
        original, output_fn = self._traced_model_output_fn()
        replacements[id(original)] = (original, output_fn)
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


@dataclass
class LayerStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    value_sum: float = 0


def self_times(spans: List[Span]) -> List[int]:
    """Each span's duration minus the durations of its direct children."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child_ns)]


class Stats(dict):
    """LayerStats by span name; a name never recorded reads as zero."""

    def __missing__(self, key):
        return LayerStats()


def aggregate(spans: List[Span]) -> Stats:
    """Calls, total and self time, and summed span values per span name."""
    stats = Stats()
    for span, self_ns in zip(spans, self_times(spans)):
        s = stats.setdefault(span.name, LayerStats())
        s.calls += 1
        s.total_ns += span.duration
        s.self_ns += self_ns
        if span.info is not None:
            s.value_sum += span.info
    return stats


def ancestors(spans: List[Span], index: int):
    """Names of the spans enclosing spans[index], innermost first."""
    parent = spans[index].parent
    while parent >= 0:
        yield spans[parent].name
        parent = spans[parent].parent
