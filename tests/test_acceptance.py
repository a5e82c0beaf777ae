"""End-to-end acceptance checks, one criterion per test.

Each test prints a single PASS/FAIL line. The experiment-backed criteria
share one training campaign through a session fixture so the whole file
stays inside the per-criterion runtime budgets.
"""

import csv
import hashlib
import os
import time

import numpy as np
import pytest

from gradcheck import grad_check
from smile_lab import cli, data, interpolation as interp, losses, model, train
from smile_lab import tensor as T
from smile_lab.mixup import mix


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} {name}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: finite-difference gradient suite


_TINY_ARCH = model.Architecture(image_size=8, channels=1, conv1_filters=2,
                                conv2_filters=3, kernel_size=3, feature_dim=4,
                                n_source_classes=3, n_target_classes=2)


def _pack(params, names):
    return np.concatenate([params[n].ravel() for n in names])


def _unpack(vec, template, names):
    out, pos = {}, 0
    for n in names:
        size = template[n].size
        out[n] = vec[pos:pos + size].reshape(template[n].shape)
        pos += size
    return out


def _objective_closure():
    """Full training objective as a function of the packed parameter vector."""
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, size=(4, 8, 8, 1))
    y = np.array([0, 1, 0, 1])
    x_src = rng.uniform(0.0, 1.0, size=(4, 8, 8, 1))
    pairing = np.array([2, 3, 0, 1])
    teacher = model.init_weights(_TINY_ARCH, seed=5)
    template = model.init_weights(_TINY_ARCH, seed=0,
                                  with_target_head=True).params
    names = sorted(template)

    def f(vec):
        wt = {n: T.Tensor(v) for n, v in
              _unpack(vec, template, names).items()}
        breakdown = losses.total_objective(wt, teacher, x, y, x_src, 0.4,
                                           pairing, pairing, 0.01, 0.1)
        grads = {n: (wt[n].grad if wt[n].grad is not None
                     else np.zeros_like(wt[n].values)) for n in names}
        return breakdown.total, _pack(grads, names)

    return f, template, names


_PRIMITIVE_CASES = [
    ("add", lambda x: T.mean(T.add(x, T.constant(np.ones((2, 3))))), (2, 3)),
    ("subtract", lambda x: T.mean(T.subtract(x, T.constant(np.ones((2, 3))))),
     (2, 3)),
    ("multiply", lambda x: T.sum_of_squares(T.multiply(x, x)), (4,)),
    ("scale", lambda x: T.scale(T.sum_of_squares(x), 0.7), (4,)),
    ("matmul", lambda x: T.sum_of_squares(
        T.matmul(x, T.constant(np.random.default_rng(1).normal(size=(3, 2))))),
     (2, 3)),
    ("relu", lambda x: T.sum_of_squares(T.relu(x)), (5,)),
    ("mean", lambda x: T.mean(x), (3, 4)),
    ("sum_of_squares", lambda x: T.sum_of_squares(x), (6,)),
    ("conv2d", lambda x: T.sum_of_squares(T.conv2d(
        x, T.constant(np.random.default_rng(2).normal(size=(3, 3, 1, 2))))),
     (1, 4, 4, 1)),
    ("softmax_cross_entropy", lambda x: T.softmax_cross_entropy(
        x, T.constant(np.full((2, 3), 1.0 / 3))), (2, 3)),
    ("softmax", lambda x: T.sum_of_squares(T.softmax(x)), (2, 4)),
]


def _is_kink(f, point, idx, step, tolerance):
    """One-sided slopes disagree only when a kink sits inside the stencil."""
    hi = point.copy()
    lo = point.copy()
    hi[idx] += step
    lo[idx] -= step
    f_hi, _ = f(hi)
    f_lo, _ = f(lo)
    f_mid, _ = f(point)
    forward = (f_hi - f_mid) / step
    backward = (f_mid - f_lo) / step
    scale = max(abs(forward), abs(backward), 1.0)
    return abs(forward - backward) / scale > tolerance


def _checked_at_smooth_point(f, draw_point, step=1e-5, tolerance=1e-4):
    """Finite-difference check at a random point, redrawing points where the
    function is locally non-smooth (a relu kink inside the difference
    stencil, where central differences are meaningless). Kink detection uses
    only function values, never the analytic gradient, so a wrong gradient
    rule still fails.
    """
    for _ in range(20):
        point = draw_point()
        report = grad_check(f, point, step=step, tolerance=tolerance)
        if report["passed"]:
            return report
        errors = (np.abs(report["analytic"] - report["finite_difference"])
                  / np.maximum(np.abs(report["finite_difference"]), 1.0))
        bad = np.flatnonzero(errors > tolerance)
        if not all(_is_kink(f, point, i, step, tolerance) for i in bad):
            return report  # smooth disagreement: genuine mismatch
    return report


def test_criterion_1_gradient_suite():
    t0 = time.time()
    worst = 0.0
    ok = True
    rng = np.random.default_rng(2024)
    for name, builder, shape in _PRIMITIVE_CASES:
        def f(vec, builder=builder, shape=shape):
            leaf = T.Tensor(vec.reshape(shape))
            out = builder(leaf)
            T.backward(out)
            return float(out.values), leaf.grad.ravel()

        for _ in range(10):
            report = _checked_at_smooth_point(
                f, lambda: (rng.normal(size=shape) + 0.01).ravel())
            worst = max(worst, report["max_rel_error"])
            ok = ok and report["passed"]

    obj_f, template, names = _objective_closure()
    seed_counter = iter(range(100, 1000))

    def draw_weights():
        return _pack(model.init_weights(
            _TINY_ARCH, seed=next(seed_counter),
            with_target_head=True).params, names)

    for _ in range(10):
        report = _checked_at_smooth_point(obj_f, draw_weights)
        worst = max(worst, report["max_rel_error"])
        ok = ok and report["passed"]

    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    _report(1, "gradient suite", ok,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 2, 3, 6: interpolation-loss estimator properties


@pytest.fixture(scope="module")
def il_dataset():
    return data.test_split(data.TaskSpec(samples_per_class=10, seed=0))


def _affine_fn(seed=0, out_dim=8):
    rng = np.random.default_rng(seed)
    state = {}

    def fn(x):
        flat = x.reshape(len(x), -1)
        if "w" not in state:
            state["w"] = rng.normal(size=(flat.shape[1], out_dim))
            state["b"] = rng.normal(size=out_dim)
        return flat @ state["w"] + state["b"]

    return fn


def test_criterion_2_affine_zero_il(il_dataset):
    t0 = time.time()
    worst = 0.0
    for layer in ("label", "feature"):
        report = interp.estimate_IL(
            _affine_fn(seed=1), il_dataset,
            interp.ILConfig(delta_low=0.5, delta_high=1.0,
                            n_pairs=50, seed=0))
        worst = max(worst, report.mean)
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(2, "affine zero-IL", ok, f"max IL {worst:.2e}, {elapsed:.1f}s")


class _ScriptedRng:
    def __init__(self, ints, floats):
        self._ints = list(ints)
        self._floats = list(floats)

    def integers(self, low, high):
        return self._ints.pop(0)

    def uniform(self, low, high):
        return low + self._floats.pop(0) * (high - low)


def test_criterion_3_estimator_oracle(il_dataset):
    fn = lambda x: np.tanh(_affine_fn(seed=2)(x))
    ints = [0, 5, 2, 9]
    floats = [0.3, 0.8, 0.45, 0.7, 0.15, 0.9, 0.55, 0.2]
    cfg = interp.ILConfig(n_pairs=2, n_delta_draws=1, n_lambda_draws=2,
                          seed=0)

    lo, hi = cfg.delta_low, cfg.delta_high
    si, sf = list(ints), list(floats)
    ratios = []
    for _ in range(2):
        a, b = il_dataset.inputs[si.pop(0)], il_dataset.inputs[si.pop(0)]
        d1 = lo + sf.pop(0) * (hi - lo)
        d2 = lo + sf.pop(0) * (hi - lo)
        lams = [sf.pop(0), sf.pop(0)]
        y1 = fn(mix(a, b, d1)[None])[0]
        y2 = fn(mix(a, b, d2)[None])[0]
        for lam in lams:
            y_it = fn(mix(a, b, lam * d1 + (1 - lam) * d2)[None])[0]
            ratios.append(np.linalg.norm(y_it - (lam * y1 + (1 - lam) * y2))
                          / np.linalg.norm(y1 - y2))

    report = interp.estimate_IL(fn, il_dataset, cfg,
                                rng=_ScriptedRng(ints, floats))
    gap = abs(report.mean - float(np.mean(ratios)))
    ok = gap <= 1e-12 and report.n_effective == len(ratios) == 4
    _report(3, "estimator-oracle equivalence", ok, f"gap {gap:.2e}")


def test_criterion_6_scale_invariance(il_dataset):
    base = _affine_fn(seed=3)
    fn = lambda x: np.tanh(base(x))
    fn10 = lambda x: 10.0 * np.tanh(base(x))
    cfg = interp.ILConfig(n_pairs=30, seed=4)
    gap = abs(interp.estimate_IL(fn, il_dataset, cfg).mean
              - interp.estimate_IL(fn10, il_dataset, cfg).mean)
    _report(6, "IL scale invariance", gap <= 1e-9, f"gap {gap:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: teacher refresh schedule


def test_criterion_4_teacher_schedule():
    pretrained = model.init_weights(model.Architecture(), seed=0)
    student, teacher = model.init_from_pretrained(pretrained, seed=0)
    cfg = train.TrainConfig(iterations=100, teacher_period=10)
    rng = np.random.default_rng(0)
    ok = True
    last_refresh = {n: teacher.params[n].copy() for n in teacher.params}
    for k in range(1, 101):
        teacher = train.update_teacher(teacher, student, k, cfg)
        if k % 10 == 0:
            last_refresh = {n: student.params[n].copy()
                            for n in teacher.params}
        ok = ok and all(np.array_equal(teacher.params[n], last_refresh[n])
                        for n in teacher.params)
        for name in student.params:
            student.params[name] = student.params[name] + rng.normal(
                0.0, 1e-3, size=student.params[name].shape)
    _report(4, "teacher schedule exactness", ok, "100 iterations")


# ---------------------------------------------------------------------------
# criteria 5, 7, 8, 9, 10: experiment-backed checks


SEEDS = (0, 1, 2, 3, 4)
ITERATIONS = 450


@pytest.fixture(scope="module")
def campaign():
    """One shared training campaign: pretrain once, then every
    (mode, seed) cell with per-leg wall-clock accounting."""
    spec = data.TaskSpec(seed=0)
    source = data.generate_source(spec)
    target_full = data.derive_target(spec)
    target_test = data.test_split(spec)
    target_train = data.stratified_subsample(target_full, rate=0.3, seed=0)

    t0 = time.time()
    pretrained = train.pretrain_source(
        source, train.PretrainConfig(iterations=800, seed=0))
    pretrain_time = time.time() - t0

    acc = {}
    feature_il = {}
    leg_time = {}
    students = {}
    for mode in ("FT", "D-SMILE", "SMILE"):
        t0 = time.time()
        accs, ils = [], []
        for seed in SEEDS:
            cfg = train.TrainConfig(iterations=ITERATIONS, mode=mode,
                                    seed=seed, eval_every=0)
            student, metrics = train.train(pretrained, target_train, source,
                                           cfg, target_test)
            accs.append(metrics.eval_rows[-1]["test_acc"])
            report = interp.estimate_IL(
                interp.model_output_fn(student, "feature"), target_test,
                interp.ILConfig(seed=seed))
            ils.append(report.mean)
            if seed == 0:
                students[mode] = student
        acc[mode] = accs
        feature_il[mode] = ils
        leg_time[mode] = time.time() - t0

    return {
        "pretrained": pretrained,
        "target_train": target_train,
        "target_test": target_test,
        "source": source,
        "acc": acc,
        "feature_il": feature_il,
        "pretrain_time": pretrain_time,
        "leg_time": leg_time,
        "students": students,
    }


def test_criterion_5_reduction_identities(campaign):
    source = campaign["source"]
    target = campaign["target_train"]
    pretrained = campaign["pretrained"]

    cfg = train.TrainConfig(iterations=40, batch_size=16, eval_every=0,
                            seed=0)
    _, m_smile = train.train(pretrained, target, source,
                             train.TrainConfig(iterations=40, batch_size=16,
                                               eval_every=0, seed=0,
                                               mode="SMILE", gamma_fe=0.0,
                                               gamma_fc=0.0))
    _, m_dsmile = train.train(pretrained, target, None,
                              train.TrainConfig(iterations=40, batch_size=16,
                                                eval_every=0, seed=0,
                                                mode="D-SMILE"))
    trace_a = [r["total"] for r in m_smile.loss_rows]
    trace_b = [r["total"] for r in m_dsmile.loss_rows]
    ok_trace = trace_a == trace_b

    student = model.init_weights(model.Architecture(), seed=1,
                                 with_target_head=True)
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(6, 16, 16, 1))
    y = np.array([0, 1, 2, 3, 4, 0])
    pairing = np.array([3, 4, 5, 0, 1, 2])
    breakdown = losses.total_objective(
        model.as_tensors(student), None, x, y, None, 0.0, pairing, None,
        0.0, 0.0)
    ok_lam0 = breakdown.mxp == breakdown.task

    u = rng.normal(size=(4, 7))
    v = rng.normal(size=(4, 7))
    ok_endpoints = (np.array_equal(mix(u, v, 0.0), u)
                    and np.array_equal(mix(u, v, 1.0), v))

    ok = ok_trace and ok_lam0 and ok_endpoints
    _report(5, "reduction identities", ok,
            f"trace={ok_trace} lam0={ok_lam0} endpoints={ok_endpoints}")


def test_criterion_7_feature_il_ordering(campaign):
    il_s = campaign["feature_il"]["SMILE"]
    il_d = campaign["feature_il"]["D-SMILE"]
    mean_ok = float(np.mean(il_s)) < float(np.mean(il_d))
    wins = sum(s < d for s, d in zip(il_s, il_d))
    elapsed = (campaign["pretrain_time"] + campaign["leg_time"]["D-SMILE"]
               + campaign["leg_time"]["SMILE"])
    ok = mean_ok and wins >= 4 and elapsed < 600.0
    _report(7, "feature-IL ordering", ok,
            f"mean {np.mean(il_s):.4f} vs {np.mean(il_d):.4f}, "
            f"wins {wins}/5, {elapsed:.0f}s")


def test_criterion_8_accuracy_direction(campaign):
    mean = {m: float(np.mean(campaign["acc"][m]))
            for m in ("FT", "D-SMILE", "SMILE")}
    elapsed = campaign["pretrain_time"] + sum(campaign["leg_time"].values())
    ok = (mean["SMILE"] >= mean["FT"] - 0.005
          and mean["SMILE"] >= mean["D-SMILE"] - 0.005
          and elapsed < 600.0)
    _report(8, "accuracy direction", ok,
            f"SMILE {mean['SMILE']:.4f} FT {mean['FT']:.4f} "
            f"D-SMILE {mean['D-SMILE']:.4f}, seeds {SEEDS}, {elapsed:.0f}s")


def test_criterion_9_trajectory(campaign, tmp_path):
    test_set = campaign["target_test"]
    pairs = [(test_set.inputs[2 * i], test_set.inputs[2 * i + 1])
             for i in range(4)]

    rows = interp.feature_interp_trajectory(_affine_fn(seed=5), pairs)
    worst = 0.0
    for pair_id in range(4):
        pts = np.array([[r.x, r.y] for r in rows if r.pair_id == pair_id])
        v0 = pts[1] - pts[0]
        for k in range(2, len(pts)):
            d = pts[k] - pts[0]
            worst = max(worst, abs(v0[0] * d[1] - v0[1] * d[0])
                        / (np.linalg.norm(v0) + 1e-300))
    ok_affine = worst <= 1e-8

    student = campaign["students"]["SMILE"]
    rows = interp.feature_interp_trajectory(
        interp.model_output_fn(student, "feature"), pairs)
    path = tmp_path / "pca_traj.csv"
    interp.write_trajectory_csv(rows, path)
    with open(path) as fh:
        parsed = list(csv.DictReader(fh))
    by_pair = {}
    for row in parsed:
        by_pair.setdefault(row["pair_id"], []).append(float(row["lambda"]))
    ok_rows = (len(by_pair) == 4
               and all(lams == [0.6, 0.7, 0.8, 0.9, 1.0]
                       for lams in by_pair.values()))

    ok = ok_affine and ok_rows
    _report(9, "trajectory diagnostics", ok,
            f"max residual {worst:.2e}, rows-per-pair ok {ok_rows}")


def test_criterion_10_determinism(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(
        "seed: 0\n"
        "task:\n  samples_per_class: 8\n"
        "pretrain:\n  iterations: 40\n"
        "train:\n  iterations: 30\n  batch_size: 16\n  mode: SMILE\n"
        "subsample_rate: 0.5\n")

    digests = []
    for run_id in (0, 1):
        out = tmp_path / f"run{run_id}"
        monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(out))
        for command in ("gen-data", "pretrain", "train"):
            code = cli.main(["-c", str(cfg_path), command])
            assert code == 0
        blobs = b"".join(
            (out / name).read_bytes()
            for name in ("student_SMILE.ckpt", "metrics_SMILE.csv"))
        digests.append(hashlib.sha256(blobs).hexdigest())
    capsys.readouterr()
    ok = digests[0] == digests[1]
    _report(10, "train determinism", ok, f"sha256 {digests[0][:16]}")
