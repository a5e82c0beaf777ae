import tracemalloc

import numpy as np
import pytest

from smile_lab import data, interpolation as interp, model


def _affine_fn(seed=0, in_dim=16 * 16, out_dim=8):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(in_dim, out_dim))
    b = rng.normal(size=out_dim)
    return lambda x: x.reshape(x.shape[0], -1) @ w + b


@pytest.fixture(scope="module")
def dataset():
    return data.derive_target(data.TaskSpec(samples_per_class=6, seed=0))


def test_config_validation():
    with pytest.raises(ValueError):
        interp.ILConfig(delta_low=0.8, delta_high=0.5)
    with pytest.raises(ValueError):
        interp.ILConfig(n_pairs=0)


class _DegeneratePair(Exception):
    pass


def _interp_distance(y_it, y1, y2, lam):
    """The reference distance rule: ||y_it - (lam*y1 + (1-lam)*y2)||
    over ||y1 - y2||; equal anchors have no ratio."""
    denom = float(np.linalg.norm(y1 - y2))
    if denom == 0.0:
        raise _DegeneratePair
    return float(np.linalg.norm(y_it - (lam * y1 + (1.0 - lam) * y2))) / denom


def test_distance_zero_on_the_line():
    y1 = np.array([1.0, 0.0])
    y2 = np.array([0.0, 1.0])
    lam = 0.3
    y_it = lam * y1 + (1.0 - lam) * y2
    assert _interp_distance(y_it, y1, y2, lam) == 0.0


def test_distance_half():
    # anchors 2 apart, interpolant 1 off the midpoint: ratio is 1/2
    y1 = np.array([0.0, 0.0])
    y2 = np.array([2.0, 0.0])
    y_it = np.array([1.0, 1.0])
    assert _interp_distance(y_it, y1, y2, 0.5) == pytest.approx(0.5)


def test_distance_degenerate_raises():
    y = np.array([1.0, 2.0])
    with pytest.raises(_DegeneratePair):
        _interp_distance(y, y, y.copy(), 0.5)
    # anchors apart by any nonzero distance have a ratio
    assert _interp_distance(y, y, y + 2.0 ** -40, 0.5) == pytest.approx(0.5)


def test_affine_model_has_zero_il(dataset):
    report = interp.estimate_IL(_affine_fn(), dataset,
                                interp.ILConfig(n_pairs=20, seed=0))
    assert report.mean <= 1e-6
    assert report.n_effective > 0


class _ScriptedRng:
    """Deterministic stand-in for a Generator: replays scripted draws."""

    def __init__(self, ints, floats):
        self._ints = list(ints)
        self._floats = list(floats)

    def integers(self, low, high):
        return self._ints.pop(0)

    def uniform(self, low, high):
        raw = self._floats.pop(0)
        return low + raw * (high - low)


def test_estimate_matches_enumeration_oracle(dataset):
    """Replay a fixed draw script and compare against a hand-rolled loop."""
    ints = [0, 3, 1, 4]
    floats = [0.2, 0.9, 0.5, 0.25, 0.8, 0.1, 0.6, 0.7]
    cfg = interp.ILConfig(n_pairs=2, n_delta_draws=1, n_lambda_draws=2, seed=0)
    fn = _affine_fn(seed=1)

    # independent reimplementation of the sampling loop
    lo, hi = cfg.delta_low, cfg.delta_high
    script_i, script_f = list(ints), list(floats)
    expected = []
    for _ in range(2):
        a = dataset.inputs[script_i.pop(0)]
        b = dataset.inputs[script_i.pop(0)]
        d1 = lo + script_f.pop(0) * (hi - lo)
        d2 = lo + script_f.pop(0) * (hi - lo)
        lams = [script_f.pop(0), script_f.pop(0)]
        y1 = fn(((1 - d1) * a + d1 * b)[None])[0]
        y2 = fn(((1 - d2) * a + d2 * b)[None])[0]
        for lam in lams:
            m = lam * d1 + (1 - lam) * d2
            y_it = fn(((1 - m) * a + m * b)[None])[0]
            line = lam * y1 + (1 - lam) * y2
            expected.append(np.linalg.norm(y_it - line)
                            / np.linalg.norm(y1 - y2))

    report = interp.estimate_IL(fn, dataset, cfg,
                                rng=_ScriptedRng(ints, floats))
    assert report.n_effective == 4
    assert report.mean == pytest.approx(float(np.mean(expected)), abs=1e-12)
    assert report.std == pytest.approx(float(np.std(expected)), abs=1e-12)


def test_estimate_scale_invariance(dataset):
    base = _affine_fn(seed=2)
    nonlinear = lambda x: np.tanh(base(x))
    cfg = interp.ILConfig(n_pairs=25, seed=3)
    ref = interp.estimate_IL(nonlinear, dataset, cfg)
    # IL is a ratio of output distances: no output scale, however small or
    # large, makes a draw degenerate or moves a ratio past rounding
    for scale in (37.5, 1e-9, 1e-6, 1e6):
        report = interp.estimate_IL(lambda x: scale * nonlinear(x), dataset,
                                    cfg)
        assert abs(report.mean - ref.mean) <= 1e-12, scale
        assert (report.n_effective, report.n_degenerate) == \
            (ref.n_effective, ref.n_degenerate)


def test_draws_of_equal_images_are_degenerate(dataset):
    # the first pair mixes image 0 with itself: its anchors differ by
    # rounding alone, which a large output scale does not make a ratio
    ints = [0, 0, 1, 4]
    floats = [0.2, 0.9, 0.5, 0.25, 0.8, 0.1, 0.6, 0.7]
    cfg = interp.ILConfig(n_pairs=2, n_delta_draws=1, n_lambda_draws=2)
    fn = lambda x: 1e12 * _affine_fn(seed=1)(x)
    report = interp.estimate_IL(fn, dataset, cfg,
                                rng=_ScriptedRng(ints, floats))
    assert (report.n_effective, report.n_degenerate) == (2, 2)
    assert report.mean <= 1e-6


def test_estimate_deterministic(dataset):
    fn = lambda x: np.tanh(_affine_fn(seed=4)(x))
    cfg = interp.ILConfig(n_pairs=10, seed=7)
    a = interp.estimate_IL(fn, dataset, cfg)
    b = interp.estimate_IL(fn, dataset, cfg)
    assert a.mean == b.mean and a.std == b.std


def test_estimate_counts_degenerate_draws(dataset):
    constant = lambda x: np.ones((x.shape[0], 4))
    with pytest.raises(interp.AllDrawsDegenerate):
        interp.estimate_IL(constant, dataset,
                           interp.ILConfig(n_pairs=3, seed=0))


def test_estimate_needs_two_samples():
    tiny = data.Dataset(np.zeros((1, 16, 16, 1)), np.array([0]), 5)
    with pytest.raises(ValueError):
        interp.estimate_IL(_affine_fn(), tiny, interp.ILConfig())


def _label_fn(weights):
    # logits as diagnose takes them: the head of the feature closure
    features = interp.model_output_fn(weights, "feature")
    return lambda x: model.head_logits(features(x), weights)


def test_model_output_fn_layers(dataset):
    weights = model.init_weights(model.Architecture(), seed=0,
                                 with_target_head=True)
    x = dataset.inputs[:3]
    assert interp.model_output_fn(weights, "feature")(x).shape == (3, 32)
    assert _label_fn(weights)(x).shape == (3, 5)
    _, teacher = model.init_from_pretrained(weights, seed=0)
    assert _label_fn(teacher)(x).shape == (3, 20)
    # logits are the head of the features, not a layer of their own
    with pytest.raises(ValueError, match="label"):
        interp.model_output_fn(weights, "label")


def test_pca_oracle_known_points():
    # points along the x-axis in 2-D: the first component holds them all
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    proj = interp.pca_2d(pts)
    assert np.allclose(proj[:, 0], [-1.5, -0.5, 0.5, 1.5], atol=1e-9)
    assert np.allclose(proj[:, 1], 0.0, atol=1e-12)


def test_pca_variance_preserved():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 2))
    proj = interp.pca_2d(pts)
    # 2-d data projected to 2-d keeps all variance
    assert proj.var(axis=0, ddof=1).sum() == pytest.approx(
        pts.var(axis=0, ddof=1).sum(), rel=1e-9)


def test_pca_sign_convention_stable():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(30, 10))
    p1 = interp.pca_2d(pts)
    p2 = interp.pca_2d(pts * 1.0)
    assert np.array_equal(p1, p2)


def test_pca_rejects_degenerate_input():
    with pytest.raises(ValueError):
        interp.pca_2d(np.zeros((1, 5)))
    with pytest.raises(ValueError):
        interp.pca_2d(np.zeros((5, 1)))


def test_trajectory_rows_per_pair(dataset):
    pairs = [(dataset.inputs[0], dataset.inputs[1]),
             (dataset.inputs[2], dataset.inputs[3]),
             (dataset.inputs[4], dataset.inputs[5])]
    rows = interp.feature_interp_trajectory(_affine_fn(), pairs)
    assert len(rows) == 3 * len(interp.TRAJECTORY_COEFFICIENTS)
    for pair_id in range(3):
        lams = [r.lam for r in rows if r.pair_id == pair_id]
        assert lams == list(interp.TRAJECTORY_COEFFICIENTS)


def test_trajectory_affine_model_collinear(dataset):
    """An affine feature map sends each mixing segment to a straight line,
    and PCA preserves that."""
    pairs = [(dataset.inputs[0], dataset.inputs[1]),
             (dataset.inputs[2], dataset.inputs[3])]
    rows = interp.feature_interp_trajectory(_affine_fn(seed=8), pairs)
    for pair_id in range(2):
        pts = np.array([[r.x, r.y] for r in rows if r.pair_id == pair_id])
        v0 = pts[1] - pts[0]
        for k in range(2, len(pts)):
            cross = v0[0] * (pts[k] - pts[0])[1] - v0[1] * (pts[k] - pts[0])[0]
            assert abs(cross) / (np.linalg.norm(v0) + 1e-12) <= 1e-8


def test_trajectory_requires_pairs():
    with pytest.raises(ValueError):
        interp.feature_interp_trajectory(_affine_fn(), [])


def test_trajectory_csv(tmp_path, dataset):
    pairs = [(dataset.inputs[0], dataset.inputs[1])]
    rows = interp.feature_interp_trajectory(_affine_fn(), pairs)
    path = tmp_path / "traj.csv"
    interp.write_trajectory_csv(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "pair_id,lambda,x,y"
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert float(first[2]) == rows[0].x


def _estimate_il_per_row(model_fn, dataset, config, rng):
    """estimate_IL as one mix per row and one distance call per lambda."""
    from smile_lab.mixup import mix
    n = len(dataset)
    ratios, n_degenerate = [], 0
    for _ in range(config.n_pairs):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        x_a, x_b = dataset.inputs[i], dataset.inputs[j]
        for _ in range(config.n_delta_draws):
            d1 = float(rng.uniform(config.delta_low, config.delta_high))
            d2 = float(rng.uniform(config.delta_low, config.delta_high))
            lams = [float(rng.uniform(0.0, 1.0))
                    for _ in range(config.n_lambda_draws)]
            mids = [lam * d1 + (1.0 - lam) * d2 for lam in lams]
            batch = np.stack([mix(x_a, x_b, d1), mix(x_a, x_b, d2)]
                             + [mix(x_a, x_b, m) for m in mids])
            outs = model_fn(batch)
            for idx, lam in enumerate(lams):
                try:
                    if np.array_equal(x_a, x_b):
                        raise _DegeneratePair
                    ratios.append(_interp_distance(
                        outs[2 + idx], outs[0], outs[1], lam))
                except _DegeneratePair:
                    n_degenerate += 1
    if not ratios:
        raise interp.AllDrawsDegenerate("every sampled draw mixed equal "
                                        "images or gave equal anchor outputs")
    arr = np.array(ratios)
    return interp.ILReport(float(arr.mean()), float(arr.std()), len(arr),
                           n_degenerate, config)


def _step_fn(x):
    # piecewise constant: many anchor pairs coincide, some do not
    return (x.reshape(len(x), -1)[:, :6] > 0.5).astype(np.float64)


# anchors of equal images differ by rounding alone, which at this output
# scale is far more than any fixed floor on their distance; default_rng(9)
# draws i == j at the 109th pair
_large_tanh = lambda x: 1e9 * np.tanh(_affine_fn(seed=5)(x))

_WEIGHTS = model.init_weights(model.Architecture(), seed=3,
                              with_target_head=True)


@pytest.mark.parametrize("fn, cfg", [
    (_label_fn(_WEIGHTS),
     interp.ILConfig(n_pairs=15, seed=1)),
    (interp.model_output_fn(_WEIGHTS, "feature"),
     interp.ILConfig(n_pairs=15, seed=2)),
    (_step_fn, interp.ILConfig(n_pairs=30, seed=4)),
    (lambda x: np.tanh(_affine_fn(seed=5)(x)),
     interp.ILConfig(delta_low=0.0, delta_high=1.0, n_pairs=20,
                     n_lambda_draws=3, seed=6)),
    (_large_tanh, interp.ILConfig(n_pairs=110)),
], ids=["label", "feature", "partly-degenerate", "full-delta-support",
        "equal-images-at-a-large-scale"])
def test_estimate_matches_per_row_loop(dataset, fn, cfg):
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    expected = _estimate_il_per_row(fn, dataset, cfg, rng_a)
    assert interp.estimate_IL(fn, dataset, cfg, rng=rng_b) == expected
    assert rng_b.bit_generator.state == rng_a.bit_generator.state
    if fn in (_step_fn, _large_tanh):
        assert expected.n_degenerate > 0 and expected.n_effective > 0


def test_constant_model_matches_per_row_loop(dataset):
    constant = lambda x: np.ones((x.shape[0], 4))
    cfg = interp.ILConfig(n_pairs=3, seed=0)
    rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
    with pytest.raises(interp.AllDrawsDegenerate):
        _estimate_il_per_row(constant, dataset, cfg, rng_a)
    with pytest.raises(interp.AllDrawsDegenerate):
        interp.estimate_IL(constant, dataset, cfg, rng=rng_b)
    assert rng_b.bit_generator.state == rng_a.bit_generator.state


def test_draws_that_do_not_fit_are_refused_before_any_model_call(
        dataset, monkeypatch):
    calls = []
    fn = lambda x: calls.append(len(x)) or _affine_fn()(x)
    monkeypatch.setattr(data, "available_memory", lambda: 2**30)
    with pytest.raises(interp.ILTooLarge):
        interp.estimate_IL(fn, dataset, interp.ILConfig(n_pairs=10**9))
    assert calls == []
    interp.estimate_IL(fn, dataset, interp.ILConfig(n_pairs=3))
    assert calls == [6] * 12


@pytest.mark.parametrize("cfg", [
    interp.ILConfig(n_pairs=2, n_delta_draws=1, n_lambda_draws=3000),
    interp.ILConfig(n_pairs=400, n_lambda_draws=20)],
    ids=["batch", "ratios"])
def test_il_bytes_bound_what_estimate_IL_allocates(dataset, cfg):
    fn = _affine_fn()
    tracemalloc.start()
    try:
        interp.estimate_IL(fn, dataset, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= interp.il_bytes(cfg, dataset.inputs[0].size)


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_il_bytes_bound_what_the_feature_closure_keeps(dataset):
    # the label and then the feature estimate through one closure, as
    # diagnose runs them; il_bytes leaves out the model's own peak over a
    # batch, so that is measured apart and added
    cfg = interp.ILConfig(n_pairs=300)
    batch = dataset.inputs[:2 + cfg.n_lambda_draws]
    features = interp.model_output_fn(_WEIGHTS, "feature")
    logits = lambda x: model.head_logits(features(x), _WEIGHTS)

    def estimates():
        for fn in (logits, features):
            interp.estimate_IL(fn, dataset, cfg)

    one_batch = lambda: _label_fn(_WEIGHTS)(batch)
    one_batch()         # a first call allocates what later calls reuse
    model_peak, peak = _traced_peak(one_batch), _traced_peak(estimates)
    size = dataset.inputs[0].size
    assert interp.il_bytes(cfg, size) + model_peak < peak
    assert peak <= interp.il_bytes(cfg, size, _WEIGHTS.arch.feature_dim) \
        + model_peak


def test_feature_fn_extracts_each_batch_once(dataset, monkeypatch):
    calls = []
    extract = model.feature_extract
    monkeypatch.setattr(model, "feature_extract",
                        lambda x, w: calls.append(len(x)) or extract(x, w))
    fn = interp.model_output_fn(_WEIGHTS, "feature")
    a, b = dataset.inputs[:6], dataset.inputs[6:12]
    first = fn(a)
    assert np.array_equal(first, extract(a, _WEIGHTS))
    assert fn(a.copy()) is first
    assert not first.flags.writeable
    fn(b)
    fn(a[:5])
    assert calls == [6, 6, 5]
    # a fresh closure keeps nothing from this one
    interp.model_output_fn(_WEIGHTS, "feature")(a)
    assert calls == [6, 6, 5, 6]


def test_head_logits_match_model_logits(dataset):
    x = dataset.inputs[:4]
    feats = model.feature_extract(x, _WEIGHTS)
    p = _WEIGHTS.params
    assert np.array_equal(model.head_logits(feats, _WEIGHTS),
                          feats @ p["tgt_w"] + p["tgt_b"])
    # a teacher has no target head: its source head answers
    _, teacher = model.init_from_pretrained(_WEIGHTS, seed=0)
    assert np.array_equal(model.head_logits(feats, teacher),
                          feats @ p["src_w"] + p["src_b"])
