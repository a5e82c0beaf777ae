import numpy as np
import pytest

from smile_lab import losses, model
from smile_lab import tensor as T
from smile_lab.mixup import mix


ARCH = model.Architecture()
RNG = np.random.default_rng(0)
X = RNG.uniform(0.0, 1.0, size=(6, 16, 16, 1))
Y = np.array([0, 1, 2, 3, 4, 0])
X_SRC = RNG.uniform(0.0, 1.0, size=(6, 16, 16, 1))
PAIR = np.array([3, 4, 5, 0, 1, 2])


@pytest.fixture()
def student():
    return model.init_weights(ARCH, seed=1, with_target_head=True)


def test_one_hot():
    out = losses.one_hot(np.array([2, 0]), 3)
    assert np.array_equal(out, [[0, 0, 1], [1, 0, 0]])
    with pytest.raises(ValueError):
        losses.one_hot(np.array([3]), 3)


def test_task_loss_uniform_logits(student):
    # zero input and a zeroed head give zero logits: CE is ln(n_classes)
    student = student.copy()
    student.params["tgt_w"][:] = 0.0
    student.params["tgt_b"][:] = 0.0
    wt = model.as_tensors(student)
    out = losses.task_loss(np.zeros((4, 16, 16, 1)), np.array([0, 1, 2, 3]),
                           wt, ARCH.n_target_classes)
    assert float(out.values) == pytest.approx(np.log(5.0), abs=1e-12)


def _mixup_loss(wt, x, y, lam, pairing):
    """The mixed-pass loss alone: mixup cross-entropy on the target head,
    no teacher and no feature term."""
    return losses.mixed_loss(wt, "tgt", None, x, y, 5, lam, pairing, 0.0,
                             losses.LossBreakdown())


def test_mixup_loss_lambda_zero_is_task_loss(student):
    wt = model.as_tensors(student)
    plain = losses.task_loss(X, Y, wt, 5)
    mixed = _mixup_loss(wt, X, Y, 0.0, PAIR)
    assert float(mixed.values) == float(plain.values)


def test_mixup_loss_lambda_one_is_paired_task_loss(student):
    wt = model.as_tensors(student)
    plain = losses.task_loss(X[PAIR], Y[PAIR], wt, 5)
    mixed = _mixup_loss(wt, X, Y, 1.0, PAIR)
    assert float(mixed.values) == float(plain.values)


def test_mixup_loss_identity_pairing_collapses(student):
    # pairing each sample with itself makes the mixed input the input
    wt = model.as_tensors(student)
    ident = np.arange(6)
    mixed = _mixup_loss(wt, X, Y, 0.5, ident)
    plain = losses.task_loss(X, Y, wt, 5)
    assert float(mixed.values) == pytest.approx(float(plain.values), abs=1e-12)


def _weighted_ce_oracle(logits, y_i, y_j, lam):
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(len(logits))
    return ((1.0 - lam) * -logp[rows, y_i].mean()
            + lam * -logp[rows, y_j].mean())


def test_mixup_loss_matches_weighted_ce_oracle(student):
    lam = 0.25
    x_mixed = mix(X, X[PAIR], lam)
    logits = model.head_logits(model.feature_extract(x_mixed, student),
                               student)
    expected = _weighted_ce_oracle(logits, Y, Y[PAIR], lam)

    wt = model.as_tensors(student)
    out = _mixup_loss(wt, X, Y, lam, PAIR)
    assert float(out.values) == pytest.approx(expected, abs=1e-10)


def test_mixup_loss_on_the_source_head_matches_oracle(student):
    # pretraining's use: source labels on the source head's logits
    lam = 0.25
    y_src = np.array([0, 7, 19, 3, 12, 7])
    x_mixed = mix(X_SRC, X_SRC[PAIR], lam)
    logits = (model.feature_extract(x_mixed, student) @ student.params["src_w"]
              + student.params["src_b"])
    expected = _weighted_ce_oracle(logits, y_src, y_src[PAIR], lam)

    wt = model.as_tensors(student)
    breakdown = losses.LossBreakdown()
    out = losses.mixed_loss(wt, "src", None, X_SRC, y_src,
                            ARCH.n_source_classes, lam, PAIR, 0.0, breakdown)
    assert float(out.values) == pytest.approx(expected, abs=1e-10)
    assert breakdown.mxp == float(out.values)


def _feature_term_oracle(student, teacher, lam):
    s_feats = model.feature_extract(mix(X, X[PAIR], lam), student)
    t_feats = model.feature_extract(X, teacher)
    target = mix(t_feats, t_feats[PAIR], lam)
    return float(np.mean(np.sum((s_feats - target) ** 2, axis=1)))


def test_feature_mixup_loss_zero_when_teacher_matches(student):
    # lam 0 keeps inputs unmixed, so identical weights give a zero residual
    wt = model.as_tensors(student)
    bd = losses.total_objective(wt, student, X, Y, None, 5, 0.0, PAIR, None,
                                losses.LossWeights(fe=1.0, fc=0.0))
    assert bd.fe == 0.0


def test_feature_mixup_loss_numpy_oracle(student):
    teacher = model.init_weights(ARCH, seed=2)
    lam = 0.5
    expected = _feature_term_oracle(student, teacher, lam)

    wt = model.as_tensors(student)
    bd = losses.total_objective(wt, teacher, X, Y, None, 5, lam, PAIR, None,
                                losses.LossWeights(fe=1.0, fc=0.0))
    assert bd.fe == pytest.approx(expected, rel=1e-12)


def test_source_label_mixup_loss_numpy_oracle(student):
    teacher = model.init_weights(ARCH, seed=2)
    lam = 0.25
    x_mixed = mix(X_SRC, X_SRC[PAIR], lam)
    s_out = (model.feature_extract(x_mixed, student) @ student.params["src_w"]
             + student.params["src_b"])
    t_out = model.head_logits(model.feature_extract(X_SRC, teacher), teacher)
    target = mix(t_out, t_out[PAIR], lam)
    expected = float(np.mean(np.sum((s_out - target) ** 2, axis=1)))

    wt = model.as_tensors(student)
    out = losses.source_label_mixup_loss(X_SRC, wt, teacher, lam=lam,
                                         pairing=PAIR)
    assert float(out.values) == pytest.approx(expected, rel=1e-12)


def test_triplet_loss_weight_scaling(student):
    teacher = model.init_weights(ARCH, seed=2)
    lam = 0.5
    wt = model.as_tensors(student)
    task = float(losses.task_loss(X, Y, wt, 5).values)
    mxp = float(_mixup_loss(wt, X, Y, lam, PAIR).values)
    fe = _feature_term_oracle(student, teacher, lam)
    fc = float(losses.source_label_mixup_loss(X_SRC, wt, teacher, lam,
                                              PAIR).values)
    for w in (losses.LossWeights(fe=0.01, fc=0.1),
              losses.LossWeights(fe=1.0, fc=0.0),
              losses.LossWeights(fe=0.0, fc=2.5)):
        bd = losses.total_objective(model.as_tensors(student), teacher, X, Y,
                                    X_SRC, 5, lam, PAIR, PAIR, w)
        expected = task + mxp + w.fe * fe + w.fc * fc
        assert bd.total == pytest.approx(expected, rel=1e-12)
        assert bd.mxp == mxp
        assert bd.fe == (pytest.approx(fe, rel=1e-12) if w.fe else 0.0)
        assert bd.fc == (fc if w.fc else 0.0)


def test_triplet_loss_zero_weights_reduces_to_mixup(student):
    teacher = model.init_weights(ARCH, seed=2)
    wt = model.as_tensors(student)
    bd = losses.total_objective(wt, teacher, X, Y, None, 5, 0.5, PAIR, None,
                                losses.LossWeights(fe=0.0, fc=0.0))
    plain = _mixup_loss(wt, X, Y, 0.5, PAIR)
    assert bd.mxp == float(plain.values)
    assert bd.total == bd.task + bd.mxp
    assert bd.fe == 0.0 and bd.fc == 0.0


def test_teacher_receives_no_gradient(student, weights_equal):
    teacher = model.init_weights(ARCH, seed=2)
    before = teacher.copy()
    wt = model.as_tensors(student)
    losses.total_objective(wt, teacher, X, Y, X_SRC, 5, 0.5, PAIR, PAIR,
                           losses.LossWeights())
    assert wt["conv1_k"].grad is not None
    assert weights_equal(teacher, before)


def test_total_objective_breakdown(student):
    teacher = model.init_weights(ARCH, seed=2)
    wt = model.as_tensors(student)
    w = losses.LossWeights(fe=0.01, fc=0.1)
    bd = losses.total_objective(wt, teacher, X, Y, X_SRC, 5, 0.5, PAIR, PAIR,
                                w)
    expected = bd.task + bd.mxp + w.fe * bd.fe + w.fc * bd.fc
    assert bd.total == pytest.approx(expected, rel=1e-12)


def test_total_objective_without_mixup(student):
    wt = model.as_tensors(student)
    bd = losses.total_objective(wt, None, X, Y, None, 5, None, None, None,
                                losses.LossWeights())
    plain = losses.task_loss(X, Y, wt, 5)
    assert bd.total == float(plain.values)
    assert bd.mxp == 0.0 and bd.fe == 0.0 and bd.fc == 0.0


def _grads(wt):
    return {n: t.grad for n, t in wt.items()}


def _single_graph_reference(wt, teacher, weights, lam, src_pairing):
    """The objective as one graph, its terms added in total_objective's
    order and backpropagated from their sum; returns the sum's value."""
    feats = model.feature_extract_t(mix(X, X[PAIR], lam), wt)
    triplet = losses.mixed_ce(model.head_logits_t(feats, wt, "tgt"),
                              Y, Y[PAIR], 5, lam)
    if weights.fe > 0:
        fe = losses.distillation_loss(feats, model.feature_extract(X, teacher),
                                      PAIR, lam)
        triplet = T.add(triplet, T.scale(fe, weights.fe))
    if weights.fc > 0:
        fc = losses.source_label_mixup_loss(X_SRC, wt, teacher, lam,
                                            src_pairing)
        triplet = T.add(triplet, T.scale(fc, weights.fc))
    total = T.add(losses.task_loss(X, Y, wt, 5), triplet)
    T.backward(total)
    return float(total.values)


@pytest.mark.parametrize("fe, fc", [(0.01, 0.1), (1.0, 0.0), (0.0, 2.5)])
def test_per_pass_backward_matches_one_graph(student, fe, fc):
    teacher = model.init_weights(ARCH, seed=2)
    weights = losses.LossWeights(fe=fe, fc=fc)
    src_pair = np.array([5, 0, 1, 2, 3, 4])
    wt_ref = model.as_tensors(student)
    ref_total = _single_graph_reference(wt_ref, teacher, weights, 0.3,
                                        src_pair)
    wt = model.as_tensors(student)
    bd = losses.total_objective(wt, teacher, X, Y, X_SRC, 5, 0.3, PAIR,
                                src_pair, weights)
    for name, ref in _grads(wt_ref).items():
        assert np.array_equal(wt[name].grad, ref), name
    assert bd.total == ref_total


@pytest.mark.parametrize("fe, fc, passes", [
    (0.0, 0.0, ["student", "student"]),                             # D-SMILE
    (0.01, 0.0, ["student", "teacher", "student"]),                 # M-FE
    (0.0, 0.1, ["student", "student", "teacher", "student"]),       # M-FC
    (0.01, 0.1, ["student", "teacher", "student", "teacher", "student"]),
])
def test_teacher_calls_precede_their_student_pass(student, monkeypatch, fe,
                                                  fc, passes):
    """One teacher call per weighted distillation term, each made before
    the forward of the student pass it serves, so that its im2col matrices
    are gone before that pass's graph is built."""
    calls = []
    for name, kind in (("feature_extract", "teacher"),
                       ("feature_extract_t", "student")):
        def record(*args, _run=getattr(model, name), _kind=kind):
            calls.append(_kind)
            return _run(*args)
        monkeypatch.setattr(model, name, record)
    teacher = model.init_weights(ARCH, seed=2)
    losses.total_objective(model.as_tensors(student), teacher, X, Y, X_SRC, 5,
                           0.3, PAIR, PAIR, losses.LossWeights(fe=fe, fc=fc))
    assert calls == passes
