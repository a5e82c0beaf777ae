"""Tests for the benchmark's tracer, self-checks and spec."""

import json

import pytest

import spec
import workloads
from spans import MODULES, Span, Tracer, aggregate, ancestors, self_times


def _globals(tracer):
    return {(m, attr): value for m, module in tracer.modules.items()
            for attr, value in vars(module).items()}


def _traced_pass(monkeypatch, cls, root=spec.ROOT, **constants):
    for name, value in constants.items():
        monkeypatch.setattr(workloads, name, value)
    workload = cls(0, root)
    workload.setup()
    tracer = Tracer()
    with tracer:
        workload.run_pass()
    return workload, tracer


@pytest.fixture(scope="module")
def finetune_trace():
    with pytest.MonkeyPatch.context() as mp:
        yield _traced_pass(mp, workloads.Finetune,
                           SETUP_PRETRAIN_ITERATIONS=2, FINETUNE_ITERATIONS=12)


def test_uninstall_restores_every_global():
    tracer = Tracer()
    before = _globals(tracer)
    tracer.install()
    try:
        train, losses = tracer.modules["train"], tracer.modules["losses"]
        # names bound with `from ... import` are wrapped where they are used
        assert train.total_objective is not before["losses", "total_objective"]
        assert losses.mix is not before["mixup", "mix"]
        assert train.mix is not before["mixup", "mix"]
    finally:
        tracer.uninstall()
    after = _globals(tracer)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_is_within_duration(finetune_trace):
    _, tracer = finetune_trace
    spans = tracer.spans
    assert spans
    for span, own in zip(spans, self_times(spans)):
        assert 0 <= own <= span.duration, span.name


def test_spans_nest_under_the_right_parent(finetune_trace):
    _, tracer = finetune_trace
    spans = tracer.spans
    for i, span in enumerate(spans):
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
        if span.name == "tensor.conv2d":
            assert spans[span.parent].name == "model.feature_extract_t"
        if span.name.endswith(".bwd"):
            assert spans[span.parent].name == "tensor.backward"
        if span.name in ("model.feature_extract_t", "mixup.mix",
                         "tensor.backward", "train.update_teacher"):
            assert "train.train" in ancestors(spans, i)
        if span.name == "model.feature_extract_t":
            assert "losses.total_objective" in ancestors(spans, i)
    assert spans[0].name == "train.train" and spans[0].parent == -1


def test_finetune_self_checks_pass(finetune_trace):
    workload, tracer = finetune_trace
    stats = aggregate(tracer.spans)
    assert workload.self_checks(tracer.spans, stats, 1) == []
    assert stats["train.update_teacher"].value_sum == 1   # 12 // period 10
    assert stats["tensor.conv2d.bwd"].calls == (2 + 4 + 6) * 12


def test_self_check_flags_a_teacher_call_outside_smile(finetune_trace):
    workload, tracer = finetune_trace
    spans = list(tracer.spans)
    # an FT call (the first train.train) that used the graph-free path
    stray = Span("model.feature_extract", spans[0].start, 0)
    problems = workload.self_checks(spans + [stray], aggregate(spans), 1)
    assert problems == ["1 model.feature_extract calls outside "
                        "train.accuracy in FT"]


def test_self_check_fails_when_a_call_site_is_missed(monkeypatch):
    workload = workloads.Finetune(0, spec.ROOT)
    monkeypatch.setattr(workloads, "SETUP_PRETRAIN_ITERATIONS", 2)
    monkeypatch.setattr(workloads, "FINETUNE_ITERATIONS", 3)
    workload.setup()
    tracer = Tracer()
    with tracer:
        # as if the wrapper had missed the alias the model module calls
        tensor = tracer.modules["tensor"]
        monkeypatch.setattr(tensor, "conv2d", tensor.conv2d.__wrapped__)
        workload.run_pass()
    problems = workload.self_checks(tracer.spans, aggregate(tracer.spans), 1)
    assert any("tensor.conv2d.calls 0" in p for p in problems)


def test_pipeline_self_checks_and_cli_spans(monkeypatch, tmp_path):
    workload, tracer = _traced_pass(
        monkeypatch, workloads.PipelineCli, tmp_path,
        PIPELINE_PRETRAIN_ITERATIONS=2, PIPELINE_TRAIN_ITERATIONS=2)
    stats = aggregate(tracer.spans)
    assert workload.self_checks(tracer.spans, stats, 1) == []
    for name, _ in workload.steps():
        assert stats[f"cli.{name}"].calls == 1
        assert stats[f"cli.{name}"].value_sum == 0      # exit codes
    metrics = spec.layer_metrics(stats, 1, 0.0)
    assert metrics["interpolation.model_fn.calls"][0] == 801
    assert metrics["data.save.bytes"][0] > 0
    assert not list(tmp_path.glob(".perfbench-*"))


def test_layer_metrics_cover_the_spec(finetune_trace):
    _, tracer = finetune_trace
    metrics = spec.layer_metrics(aggregate(tracer.spans), 1, 1.5)
    names = [m["name"] for m in spec.benchmark_json()["per_layer"]]
    assert sorted(metrics) == sorted(names)
    assert metrics["tensor.conv2d.gflops_per_s"][0] > 0
    assert metrics["interpolation.estimate_IL.calls"][0] == 0


def test_benchmark_json_is_generated_from_spec():
    written = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
    assert written == spec.benchmark_json()


def test_every_module_is_traced():
    tracer = Tracer()
    assert {m for m, *_ in tracer.targets()} == set(MODULES)
