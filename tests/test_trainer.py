import ctypes
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import smile_lab
from smile_lab import data, losses, model, train
from smile_lab import tensor as T
from smile_lab.mixup import mix, pair_batch, sample_lambda


SPEC = data.TaskSpec(samples_per_class=8, seed=0)


def _hash_weights(weights: model.ModelWeights) -> str:
    h = hashlib.sha256()
    for name in sorted(weights.params):
        h.update(name.encode())
        h.update(weights.params[name].tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def datasets():
    src = data.generate_source(SPEC)
    tgt = data.derive_target(SPEC)
    tst = data.test_split(SPEC)
    return src, tgt, tst


@pytest.fixture(scope="module")
def pretrained(datasets):
    src, _, _ = datasets
    return train.pretrain_source(
        src, train.PretrainConfig(iterations=60, seed=0))


def _cfg(**kw):
    base = dict(iterations=8, batch_size=8, eval_every=0, seed=0)
    base.update(kw)
    return train.TrainConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        train.TrainConfig(iterations=0)
    with pytest.raises(ValueError):
        train.TrainConfig(teacher_period=0)
    with pytest.raises(ValueError):
        train.TrainConfig(mode="bogus")
    with pytest.raises(ValueError):
        train.TrainConfig(teacher_update="sometimes")


def test_learning_rate_drop_boundary():
    cfg = train.TrainConfig(lr=0.3, iterations=100, lr_drop_fraction=2 / 3,
                            lr_drop_factor=10.0)
    # ceil(100 * 2/3) = 67
    assert train.learning_rate_at(66, cfg) == 0.3
    assert train.learning_rate_at(67, cfg) == pytest.approx(0.03)
    assert train.learning_rate_at(100, cfg) == pytest.approx(0.03)


def test_learning_rate_drop_odd_iterations():
    cfg = train.TrainConfig(lr=1.0, iterations=7, lr_drop_fraction=2 / 3)
    # ceil(14/3) = 5
    assert train.learning_rate_at(4, cfg) == 1.0
    assert train.learning_rate_at(5, cfg) == 0.1


def test_periodic_teacher_schedule_exact(pretrained):
    """The teacher must equal the student snapshot from the most recent
    multiple of the period, checked exactly for 100 iterations."""
    student, teacher = model.init_from_pretrained(pretrained, seed=0)
    cfg = train.TrainConfig(iterations=100, teacher_period=10)
    rng = np.random.default_rng(0)
    snapshots = {}
    for k in range(1, 101):
        teacher = train.update_teacher(teacher, student, k, cfg, "periodic")
        if k % 10 == 0:
            # refresh iteration: teacher equals the current student exactly
            for name in teacher.params:
                assert np.array_equal(teacher.params[name],
                                      student.params[name])
        snapshots[k] = _hash_weights(teacher)
        # mutate the student as a stand-in for a gradient step
        for name in student.params:
            student.params[name] = student.params[name] + rng.normal(
                0.0, 1e-3, size=student.params[name].shape)
    # the teacher changed at exactly the multiples of the period
    changes = [k for k in range(2, 101) if snapshots[k] != snapshots[k - 1]]
    assert changes == [k for k in range(2, 101) if k % 10 == 0]


def test_ema_teacher_decay_zero_tracks_student(pretrained):
    student, teacher = model.init_from_pretrained(pretrained, seed=0)
    cfg = train.TrainConfig(iterations=10, teacher_update="ema", ema_decay=0.0)
    student.params["proj_w"] = student.params["proj_w"] + 1.0
    teacher = train.update_teacher(teacher, student, 1, cfg, "periodic")
    for name in teacher.params:
        assert np.array_equal(teacher.params[name], student.params[name])


def test_fixed_teacher_never_changes(pretrained, weights_equal):
    student, teacher = model.init_from_pretrained(pretrained, seed=0)
    before = teacher.copy()
    cfg = train.TrainConfig(iterations=10)
    student.params["proj_w"] = student.params["proj_w"] + 1.0
    teacher = train.update_teacher(teacher, student, 10, cfg, "fixed")
    assert weights_equal(teacher, before)


def test_latest_teacher_always_current(pretrained):
    student, teacher = model.init_from_pretrained(pretrained, seed=0)
    cfg = train.TrainConfig(iterations=10)
    student.params["proj_w"] = student.params["proj_w"] + 1.0
    teacher = train.update_teacher(teacher, student, 3, cfg, "latest")
    assert np.array_equal(teacher.params["proj_w"], student.params["proj_w"])


@pytest.mark.parametrize("kind, update, k, copied", [
    ("periodic", "periodic-copy", 10, True),
    ("periodic", "periodic-copy", 7, False),
    ("periodic", "ema", 10, False),
    ("latest", "periodic-copy", 7, True),
    ("latest", "ema", 7, True),
    ("fixed", "periodic-copy", 10, False),
])
def test_update_teacher_returns_a_new_object_exactly_on_a_copy(
        pretrained, kind, update, k, copied):
    # a copy refresh is a new snapshot; an ema update works in place
    student, teacher = model.init_from_pretrained(pretrained, seed=0)
    student.params["proj_w"] = student.params["proj_w"] + 1.0
    cfg = train.TrainConfig(iterations=10, teacher_update=update)
    result = train.update_teacher(teacher, student, k, cfg, kind)
    assert (result is not teacher) == copied
    assert set(result.params) == set(model.FE_PARAMS + model.SRC_HEAD_PARAMS)
    if copied:
        assert all(result.params[n] is not student.params[n]
                   and np.array_equal(result.params[n], student.params[n])
                   for n in result.params)
    assert train.update_teacher(None, student, k, cfg, kind) is None


def test_train_returns_metrics(pretrained, datasets):
    _, tgt, tst = datasets
    student, metrics = train.train(pretrained, tgt, None,
                                   _cfg(mode="FT", eval_every=4), tst)
    assert len(metrics.loss_rows) == 8
    assert student.has_target_head
    assert metrics.eval_rows[-1]["iteration"] == 8
    assert 0.0 <= metrics.eval_rows[-1]["test_acc"] <= 1.0


def test_train_deterministic(pretrained, datasets):
    src, tgt, _ = datasets
    a, _ = train.train(pretrained, tgt, src, _cfg(mode="SMILE"))
    b, _ = train.train(pretrained, tgt, src, _cfg(mode="SMILE"))
    assert _hash_weights(a) == _hash_weights(b)


def test_seed_changes_trajectory(pretrained, datasets):
    src, tgt, _ = datasets
    a, _ = train.train(pretrained, tgt, src, _cfg(mode="SMILE", seed=0))
    b, _ = train.train(pretrained, tgt, src, _cfg(mode="SMILE", seed=1))
    assert _hash_weights(a) != _hash_weights(b)


def test_smile_zero_gammas_matches_dsmile_bitwise(pretrained, datasets):
    """With both regularizer weights at zero the full mode must reproduce the
    plain-mixup trainer exactly, including the rng stream."""
    src, tgt, _ = datasets
    a, ma = train.train(pretrained, tgt, src,
                        _cfg(mode="SMILE", gamma_fe=0.0, gamma_fc=0.0))
    b, mb = train.train(pretrained, tgt, None, _cfg(mode="D-SMILE"))
    assert _hash_weights(a) == _hash_weights(b)
    for ra, rb in zip(ma.loss_rows, mb.loss_rows):
        assert ra["total"] == rb["total"]


def test_mfe_has_no_fc_term(pretrained, datasets):
    src, tgt, _ = datasets
    _, metrics = train.train(pretrained, tgt, src, _cfg(mode="M-FE"))
    assert all(row["fc"] == 0.0 for row in metrics.loss_rows)
    assert any(row["fe"] != 0.0 for row in metrics.loss_rows)


def test_mfc_has_no_fe_term(pretrained, datasets):
    src, tgt, _ = datasets
    _, metrics = train.train(pretrained, tgt, src, _cfg(mode="M-FC"))
    assert all(row["fe"] == 0.0 for row in metrics.loss_rows)
    assert any(row["fc"] != 0.0 for row in metrics.loss_rows)


def test_ft_mode_logs_task_only(pretrained, datasets):
    _, tgt, _ = datasets
    _, metrics = train.train(pretrained, tgt, None, _cfg(mode="FT"))
    for row in metrics.loss_rows:
        assert row["mxp"] == 0.0 and row["fe"] == 0.0 and row["fc"] == 0.0
        assert row["total"] == row["task"]


def test_smile_not_constant_teacher(pretrained, datasets):
    src, tgt, _ = datasets
    # SMILE-noT keeps the pretrained teacher; its fc trace differs from SMILE
    _, m_fixed = train.train(pretrained, tgt, src,
                             _cfg(mode="SMILE-noT", iterations=30))
    _, m_per = train.train(pretrained, tgt, src,
                           _cfg(mode="SMILE", iterations=30))
    fc_fixed = [r["fc"] for r in m_fixed.loss_rows]
    fc_per = [r["fc"] for r in m_per.loss_rows]
    assert fc_fixed != fc_per


def test_separate_lambda_changes_result(pretrained, datasets):
    src, tgt, _ = datasets
    a, _ = train.train(pretrained, tgt, src,
                       _cfg(mode="SMILE", shared_lambda=True))
    b, _ = train.train(pretrained, tgt, src,
                       _cfg(mode="SMILE", shared_lambda=False))
    assert _hash_weights(a) != _hash_weights(b)


def test_train_rejects_empty_target(pretrained):
    empty = data.Dataset(np.zeros((0, 16, 16, 1)), np.zeros(0, dtype=int),
                         5, "target")
    with pytest.raises(ValueError):
        train.train(pretrained, empty, None, _cfg(mode="FT"))


def test_train_requires_source_for_fc(pretrained, datasets):
    _, tgt, _ = datasets
    with pytest.raises(ValueError):
        train.train(pretrained, tgt, None, _cfg(mode="SMILE"))


def test_pretrain_rejects_empty():
    empty = data.Dataset(np.zeros((0, 16, 16, 1)), np.zeros(0, dtype=int),
                         20, "source")
    with pytest.raises(ValueError):
        train.pretrain_source(empty, train.PretrainConfig(iterations=5))


def _pretrain_source_reference(dataset, config):
    """pretrain_source as it was before it called losses.mixed_ce, with the
    mixup cross-entropy written out inline; also returns each step's
    gradients."""
    h, w, c = dataset.inputs.shape[1:]
    arch = model.Architecture(image_size=h, channels=c,
                              n_source_classes=dataset.n_classes)
    weights = model.init_weights(arch, config.seed)
    state, steps = {}, []
    rng = np.random.default_rng(config.seed)
    for _ in range(config.iterations):
        x, y = train._sample_batch(dataset, config.batch_size, rng)
        wt = model.as_tensors(weights)
        if config.use_mixup:
            lam = sample_lambda(config.alpha, rng)
            pairing = pair_batch(len(x), rng)
            feats = model.feature_extract_t(mix(x, x[pairing], lam), wt)
            logits = model.head_logits_t(feats, wt, "src")
            loss = T.add(
                T.scale(T.softmax_cross_entropy(
                    logits, T.constant(losses.one_hot(y, dataset.n_classes))),
                    1.0 - lam),
                T.scale(T.softmax_cross_entropy(
                    logits,
                    T.constant(losses.one_hot(y[pairing], dataset.n_classes))),
                    lam))
        else:
            logits = model.head_logits_t(model.feature_extract_t(x, wt), wt,
                                         "src")
            loss = T.softmax_cross_entropy(
                logits, T.constant(losses.one_hot(y, dataset.n_classes)))
        T.backward(loss)
        grads = train._collect_grads(wt)
        steps.append(grads)
        T.sgd_step(weights.params, grads, state, config.lr,
                   config.momentum, config.weight_decay)
    return weights, steps


@pytest.mark.parametrize("use_mixup", [True, False])
def test_pretrain_matches_inline_loss_reference(monkeypatch, use_mixup,
                                                weights_equal):
    src = data.generate_source(data.TaskSpec(samples_per_class=2, seed=0))
    cfg = train.PretrainConfig(iterations=4, batch_size=8,
                               use_mixup=use_mixup)
    steps = []
    sgd_step = T.sgd_step

    def recording_sgd_step(params, grads, *args):
        steps.append(grads)
        sgd_step(params, grads, *args)

    monkeypatch.setattr(T, "sgd_step", recording_sgd_step)
    weights = train.pretrain_source(src, cfg)
    monkeypatch.undo()
    ref_weights, ref_steps = _pretrain_source_reference(src, cfg)
    assert len(steps) == len(ref_steps) == cfg.iterations
    for grads, ref in zip(steps, ref_steps):
        assert grads.keys() == ref.keys()
        for name in ref:
            assert np.array_equal(grads[name], ref[name]), name
    assert weights_equal(weights, ref_weights)


def _traced_peak(pretrained, datasets, mode, iterations):
    """tracemalloc's peak over a train() call at batch 32, in bytes."""
    src, tgt, _ = datasets
    cfg = _cfg(mode=mode, iterations=iterations, batch_size=32)
    tracemalloc.start()
    try:
        train.train(pretrained, tgt, src, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_training_step_peaks_under_10_mib(pretrained, datasets):
    """conv2d's backward frees its im2col matrix before it builds the
    input gradient, and each pass's teacher runs before the student's
    forward, so no step holds two im2col matrices of conv2 at once."""
    src, _, _ = datasets
    tracemalloc.start()
    try:
        train.pretrain_source(
            src, train.PretrainConfig(iterations=1, batch_size=32))
        pretraining = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    smile = _traced_peak(pretrained, datasets, "SMILE", 1)
    assert max(pretraining, smile) <= 10 * 2**20, (pretraining, smile)


def test_a_training_step_frees_its_graph(pretrained, datasets):
    """A SMILE step's graph dies when the step returns, so three steps peak
    where one does instead of holding two graphs at once."""
    one, three = (_traced_peak(pretrained, datasets, "SMILE", n)
                  for n in (1, 3))
    assert three <= 1.05 * one, (one, three)


def test_one_student_pass_is_alive_at_a_time(pretrained, datasets):
    """Each student pass is backpropagated and freed before the next one
    runs, so the three passes of a SMILE step and the two of a D-SMILE step
    peak where FT's single pass does."""
    ft, d_smile, smile = (_traced_peak(pretrained, datasets, mode, 1)
                          for mode in ("FT", "D-SMILE", "SMILE"))
    assert d_smile <= 1.10 * ft, (ft, d_smile)
    assert smile <= 1.10 * ft, (ft, smile)


# Minor page faults per pretraining step in a fresh interpreter, over 50
# steps after 20 warm-up steps; each mark is taken at a step's SGD update.
_FAULTS_PER_STEP = """
import resource
from smile_lab import data, tensor as T, train
marks, sgd_step = [], T.sgd_step
def marking_sgd_step(*args):
    marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    sgd_step(*args)
T.sgd_step = marking_sgd_step
src = data.generate_source(data.TaskSpec(samples_per_class=8, seed=0))
train.pretrain_source(src, train.PretrainConfig(iterations=71, seed=0))
print((marks[70] - marks[20]) / 50)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or not hasattr(ctypes.CDLL(None), "gnu_get_libc_version"),
    reason="the heap policy is set through glibc's mallopt")
def test_pretraining_steps_reuse_the_heap():
    src = str(Path(smile_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert float(proc.stdout) < 20


def test_pretrain_noise_free_source_is_learnable():
    spec = data.TaskSpec(samples_per_class=4, noise_sigma=0.0, seed=0)
    src = data.generate_source(spec)
    weights = train.pretrain_source(
        src, train.PretrainConfig(iterations=500, seed=0))
    assert train.accuracy(weights, src) >= 0.99


def test_accuracy_rejects_empty(pretrained):
    empty = data.Dataset(np.zeros((0, 16, 16, 1)), np.zeros(0, dtype=int),
                         5, "target")
    with pytest.raises(ValueError):
        train.accuracy(pretrained, empty)


def test_eval_logits_do_not_depend_on_batch_rows(pretrained, datasets):
    src, _, _ = datasets

    def logits(x):
        return model.head_logits(model.feature_extract(x, pretrained),
                                 pretrained)

    whole = logits(src.inputs)       # 160 rows
    # chunks of >= 2 rows; a 1-row chunk goes through GEMV
    for size in (2, 7, 32):
        chunked = np.concatenate([logits(src.inputs[s:s + size])
                                  for s in range(0, len(src), size)])
        assert np.array_equal(whole, chunked), size
    assert train.accuracy(pretrained, src) == \
        np.mean(whole.argmax(axis=1) == src.labels)


def test_eval_chunks_match_whole_set_logits(pretrained, datasets):
    src, _, _ = datasets

    def logits(x):
        return model.head_logits(model.feature_extract(x, pretrained),
                                 pretrained)

    # 33 and 65 rows would end in a 1-row chunk, which goes through GEMV
    for n in range(2, 71):
        chunks = train._eval_chunks(n)
        assert [c.start for c in chunks[1:]] == [c.stop for c in chunks[:-1]]
        assert chunks[0].start == 0 and chunks[-1].stop == n
        chunked = np.concatenate([logits(src.inputs[c]) for c in chunks])
        assert np.array_equal(logits(src.inputs[:n]), chunked), n


def test_ablation_suite_shape(pretrained, datasets):
    src, tgt, tst = datasets
    rows, summary = train.run_ablation_suite(
        pretrained, tgt, tst, src, _cfg(mode="FT", iterations=4),
        modes=["FT", "D-SMILE"], seeds=[0, 1])
    assert len(rows) == 4
    assert set(summary) == {"FT", "D-SMILE"}
    for mean, std in summary.values():
        assert 0.0 <= mean <= 1.0 and std >= 0.0


def test_ablation_suite_needs_two_seeds(pretrained, datasets):
    src, tgt, tst = datasets
    with pytest.raises(ValueError):
        train.run_ablation_suite(pretrained, tgt, tst, src, _cfg(),
                                 modes=["FT"], seeds=[0])


def test_metrics_csv_round_trip(tmp_path, pretrained, datasets):
    _, tgt, tst = datasets
    _, metrics = train.train(pretrained, tgt, None,
                             _cfg(mode="FT", eval_every=4), tst)
    path = tmp_path / "m.csv"
    metrics.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 9
    header = lines[0].split(",")
    assert header[0] == "iteration" and "test_acc" in header
    # full-precision floats survive the round trip
    total_col = header.index("total")
    assert float(lines[1].split(",")[total_col]) == metrics.loss_rows[0]["total"]
