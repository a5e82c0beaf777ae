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


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        losses.LossWeights(fe=-0.1)


def test_task_loss_uniform_logits(student):
    # zero input and a zeroed head give zero logits: CE is ln(n_classes)
    student = student.copy()
    student.params["tgt_w"][:] = 0.0
    student.params["tgt_b"][:] = 0.0
    wt = model.as_tensors(student)
    out = losses.task_loss(np.zeros((4, 16, 16, 1)), np.array([0, 1, 2, 3]),
                           wt, ARCH.n_target_classes)
    assert float(out.values) == pytest.approx(np.log(5.0), abs=1e-12)


def test_mixup_loss_lambda_zero_is_task_loss(student):
    wt = model.as_tensors(student)
    plain = losses.task_loss(X, Y, wt, 5)
    mixed = losses.mixup_loss(X, Y, wt, 5, lam=0.0, pairing=PAIR)
    assert float(mixed.values) == float(plain.values)


def test_mixup_loss_lambda_one_is_paired_task_loss(student):
    wt = model.as_tensors(student)
    plain = losses.task_loss(X[PAIR], Y[PAIR], wt, 5)
    mixed = losses.mixup_loss(X, Y, wt, 5, lam=1.0, pairing=PAIR)
    assert float(mixed.values) == float(plain.values)


def test_mixup_loss_identity_pairing_collapses(student):
    # pairing each sample with itself makes the mixed input the input
    wt = model.as_tensors(student)
    ident = np.arange(6)
    mixed = losses.mixup_loss(X, Y, wt, 5, lam=0.5, pairing=ident)
    plain = losses.task_loss(X, Y, wt, 5)
    assert float(mixed.values) == pytest.approx(float(plain.values), abs=1e-12)


def test_mixup_loss_matches_weighted_ce_oracle(student):
    lam = 0.25
    x_mixed = mix(X, X[PAIR], lam)
    logits = model.head_logits(model.feature_extract(x_mixed, student),
                               student)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    ce_i = -logp[np.arange(6), Y].mean()
    ce_j = -logp[np.arange(6), Y[PAIR]].mean()
    expected = (1.0 - lam) * ce_i + lam * ce_j

    wt = model.as_tensors(student)
    out = losses.mixup_loss(X, Y, wt, 5, lam=lam, pairing=PAIR)
    assert float(out.values) == pytest.approx(expected, abs=1e-10)


def _feature_term_oracle(student, teacher, lam):
    s_feats = model.feature_extract(mix(X, X[PAIR], lam), student)
    t_feats = model.feature_extract(X, teacher)
    target = mix(t_feats, t_feats[PAIR], lam)
    return float(np.mean(np.sum((s_feats - target) ** 2, axis=1)))


def test_feature_mixup_loss_zero_when_teacher_matches(student):
    # lam 0 keeps inputs unmixed, so identical weights give a zero residual
    wt = model.as_tensors(student)
    _, bd = losses.total_objective(wt, student, X, Y, None, 5, 0.0, PAIR,
                                   None, losses.LossWeights(fe=1.0, fc=0.0),
                                   True)
    assert bd.fe == 0.0


def test_feature_mixup_loss_numpy_oracle(student):
    teacher = model.init_weights(ARCH, seed=2)
    lam = 0.5
    expected = _feature_term_oracle(student, teacher, lam)

    wt = model.as_tensors(student)
    _, bd = losses.total_objective(wt, teacher, X, Y, None, 5, lam, PAIR,
                                   None, losses.LossWeights(fe=1.0, fc=0.0),
                                   True)
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


def test_source_label_mixup_probs_space(student):
    teacher = model.init_weights(ARCH, seed=2)
    wt = model.as_tensors(student)
    logit_val = losses.source_label_mixup_loss(
        X_SRC, wt, teacher, lam=0.5, pairing=PAIR, compare_space="logits")
    prob_val = losses.source_label_mixup_loss(
        X_SRC, wt, teacher, lam=0.5, pairing=PAIR, compare_space="probs")
    assert float(logit_val.values) != float(prob_val.values)
    # probability rows have norm at most sqrt(2), so the mean sumsq of a
    # difference of two distributions is bounded by 2 per row
    assert 0.0 <= float(prob_val.values) <= 2.0


def test_triplet_loss_weight_scaling(student):
    teacher = model.init_weights(ARCH, seed=2)
    lam = 0.5
    wt = model.as_tensors(student)
    task = float(losses.task_loss(X, Y, wt, 5).values)
    mxp = float(losses.mixup_loss(X, Y, wt, 5, lam, PAIR).values)
    fe = _feature_term_oracle(student, teacher, lam)
    fc = float(losses.source_label_mixup_loss(X_SRC, wt, teacher, lam,
                                              PAIR).values)
    for w in (losses.LossWeights(fe=0.01, fc=0.1),
              losses.LossWeights(fe=1.0, fc=0.0),
              losses.LossWeights(fe=0.0, fc=2.5)):
        total, bd = losses.total_objective(model.as_tensors(student), teacher,
                                           X, Y, X_SRC, 5, lam, PAIR, PAIR, w,
                                           True)
        expected = task + mxp + w.fe * fe + w.fc * fc
        assert float(total.values) == pytest.approx(expected, rel=1e-12)
        assert bd.mxp == mxp
        assert bd.fe == (pytest.approx(fe, rel=1e-12) if w.fe else 0.0)
        assert bd.fc == (fc if w.fc else 0.0)


def test_triplet_loss_zero_weights_reduces_to_mixup(student):
    teacher = model.init_weights(ARCH, seed=2)
    wt = model.as_tensors(student)
    total, bd = losses.total_objective(wt, teacher, X, Y, None, 5, 0.5, PAIR,
                                       None, losses.LossWeights(fe=0.0, fc=0.0),
                                       True)
    plain = losses.mixup_loss(X, Y, wt, 5, 0.5, PAIR)
    assert bd.mxp == float(plain.values)
    assert float(total.values) == bd.task + bd.mxp
    assert bd.fe == 0.0 and bd.fc == 0.0


def test_triplet_loss_requires_source_batch(student):
    teacher = model.init_weights(ARCH, seed=2)
    wt = model.as_tensors(student)
    with pytest.raises(ValueError):
        losses.total_objective(wt, teacher, X, Y, None, 5, 0.5, PAIR, None,
                               losses.LossWeights(fe=0.0, fc=0.1), True)


def test_teacher_receives_no_gradient(student, weights_equal):
    teacher = model.init_weights(ARCH, seed=2)
    before = teacher.copy()
    wt = model.as_tensors(student)
    total, _ = losses.total_objective(wt, teacher, X, Y, X_SRC, 5, 0.5, PAIR,
                                      PAIR, losses.LossWeights(), True)
    T.backward(total)
    assert wt["conv1_k"].grad is not None
    assert weights_equal(teacher, before)


def test_total_objective_breakdown(student):
    teacher = model.init_weights(ARCH, seed=2)
    wt = model.as_tensors(student)
    w = losses.LossWeights(fe=0.01, fc=0.1)
    total, bd = losses.total_objective(wt, teacher, X, Y, X_SRC, 5, 0.5, PAIR,
                                       PAIR, w, True)
    expected = bd.task + bd.mxp + w.fe * bd.fe + w.fc * bd.fc
    assert bd.total == pytest.approx(expected, rel=1e-12)
    assert float(total.values) == bd.total


def test_total_objective_without_mixup(student):
    wt = model.as_tensors(student)
    total, bd = losses.total_objective(wt, None, X, Y, None, 5, 0.0,
                                       np.arange(6), None,
                                       losses.LossWeights(), False)
    plain = losses.task_loss(X, Y, wt, 5)
    assert float(total.values) == float(plain.values)
    assert bd.mxp == 0.0 and bd.fe == 0.0 and bd.fc == 0.0


def _objective_two_lambdas_reference(wt, teacher, x, y, x_src, n_classes,
                                     lams, tgt_pairing, src_pairing, weights,
                                     compare_space):
    """The composition the trainer used for separate target and source
    lambdas before total_objective took lam_src: the target terms first,
    then the source term added on top."""
    total, breakdown = losses.total_objective(
        wt, teacher, x, y, None, n_classes, lams["tgt"], tgt_pairing, None,
        losses.LossWeights(fe=weights.fe, fc=0.0), True, compare_space)
    fc = losses.source_label_mixup_loss(x_src, wt, teacher, lams["src"],
                                        src_pairing, compare_space)
    breakdown.fc = float(fc.values)
    total = T.add(total, T.scale(fc, weights.fc))
    breakdown.total = float(total.values)
    return total, breakdown


def _grads(wt):
    return {n: t.grad for n, t in wt.items()}


@pytest.mark.parametrize("compare_space", ["logits", "probs"])
@pytest.mark.parametrize("fe", [0.01, 0.0])
def test_lam_src_matches_two_lambda_composition(student, compare_space, fe):
    teacher = model.init_weights(ARCH, seed=2)
    weights = losses.LossWeights(fe=fe, fc=0.1)
    src_pair = np.array([5, 0, 1, 2, 3, 4])
    wt_ref = model.as_tensors(student)
    ref_total, ref = _objective_two_lambdas_reference(
        wt_ref, teacher, X, Y, X_SRC, 5, {"tgt": 0.3, "src": 0.8}, PAIR,
        src_pair, weights, compare_space)
    T.backward(ref_total)
    wt = model.as_tensors(student)
    total, bd = losses.total_objective(wt, teacher, X, Y, X_SRC, 5, 0.3, PAIR,
                                       src_pair, weights, True, compare_space,
                                       lam_src=0.8)
    T.backward(total)

    ref_grads, grads = _grads(wt_ref), _grads(wt)
    assert ref_grads.keys() == grads.keys()
    for name in grads:
        assert np.array_equal(grads[name], ref_grads[name]), name
    assert (bd.task, bd.mxp, bd.fe, bd.fc) == (ref.task, ref.mxp, ref.fe,
                                               ref.fc)
    # task + (triplet + fc) against (task + triplet) + fc: each grouping
    # rounds twice, so they differ by at most a few ulp of the term sum
    terms = abs(bd.task) + abs(bd.mxp) + weights.fe * bd.fe + weights.fc * bd.fc
    assert abs(bd.total - ref.total) <= 2 * np.finfo(float).eps * terms
    assert float(total.values) == bd.total


def test_lam_src_defaults_to_lam(student):
    teacher = model.init_weights(ARCH, seed=2)
    runs = []
    for lam_src in (None, 0.3):
        wt = model.as_tensors(student)
        total, bd = losses.total_objective(wt, teacher, X, Y, X_SRC, 5, 0.3,
                                           PAIR, PAIR, losses.LossWeights(),
                                           True, lam_src=lam_src)
        T.backward(total)
        runs.append((bd, _grads(wt)))
    (bd_a, grads_a), (bd_b, grads_b) = runs
    assert bd_a == bd_b
    for name in grads_a:
        assert np.array_equal(grads_a[name], grads_b[name])


def _single_graph_reference(wt, teacher, weights, compare_space, lam,
                            lam_src, src_pairing):
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
        fc = losses.source_label_mixup_loss(
            X_SRC, wt, teacher, lam if lam_src is None else lam_src,
            src_pairing, compare_space)
        triplet = T.add(triplet, T.scale(fc, weights.fc))
    total = T.add(losses.task_loss(X, Y, wt, 5), triplet)
    T.backward(total)
    return float(total.values)


@pytest.mark.parametrize("lam_src", [None, 0.8])
@pytest.mark.parametrize("compare_space", ["logits", "probs"])
@pytest.mark.parametrize("fe, fc", [(0.01, 0.1), (1.0, 0.0), (0.0, 2.5)])
def test_per_pass_backward_matches_one_graph(student, fe, fc, compare_space,
                                             lam_src):
    teacher = model.init_weights(ARCH, seed=2)
    weights = losses.LossWeights(fe=fe, fc=fc)
    src_pair = np.array([5, 0, 1, 2, 3, 4])
    wt_ref = model.as_tensors(student)
    ref_total = _single_graph_reference(wt_ref, teacher, weights,
                                        compare_space, 0.3, lam_src, src_pair)
    wt = model.as_tensors(student)
    total, bd = losses.total_objective(wt, teacher, X, Y, X_SRC, 5, 0.3, PAIR,
                                       src_pair, weights, True, compare_space,
                                       lam_src)

    def assert_reference_grads():
        for name, ref in _grads(wt_ref).items():
            assert np.array_equal(wt[name].grad, ref), name

    assert_reference_grads()
    T.backward(total)       # total has no parents: this adds nothing
    assert_reference_grads()
    assert bd.total == ref_total == float(total.values)


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
                           0.3, PAIR, PAIR, losses.LossWeights(fe=fe, fc=fc),
                           True)
    assert calls == passes
