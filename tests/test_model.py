import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from smile_lab import data, model
from smile_lab import tensor as T


ARCH = model.Architecture()


@pytest.fixture(scope="module")
def weights():
    return model.init_weights(ARCH, seed=0, with_target_head=True)


def test_init_shapes(weights):
    p = weights.params
    assert p["conv1_k"].shape == (3, 3, 1, 8)
    assert p["conv2_k"].shape == (3, 3, 8, 16)
    assert p["proj_w"].shape == (16, 32)
    assert p["src_w"].shape == (32, 20)
    assert p["tgt_w"].shape == (32, 5)
    assert weights.has_target_head


def test_init_deterministic(weights_equal):
    a = model.init_weights(ARCH, seed=3, with_target_head=True)
    b = model.init_weights(ARCH, seed=3, with_target_head=True)
    assert weights_equal(a, b)
    assert not weights_equal(
        a, model.init_weights(ARCH, seed=4, with_target_head=True))


def test_zero_input_zero_features(weights):
    # biases are zero at init, so a zero image produces zero features
    x = np.zeros((2, 16, 16, 1))
    feats = model.feature_extract(x, weights)
    assert np.array_equal(feats, np.zeros((2, 32)))


def test_feature_regression_lock(weights):
    """Pin the feature path against accidental changes."""
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, size=(1, 16, 16, 1))
    feats = model.feature_extract(x, weights)
    assert feats.shape == (1, 32)
    digest = float(np.sum(feats * np.arange(1, 33)))
    assert digest == pytest.approx(_FEATURE_DIGEST, rel=1e-12)


def test_feature_extract_memory_is_bounded_by_one_chunk(weights):
    """The 1000-row source set runs 2 images at a time: about 0.75 MiB
    traced, against 6.3 MiB in 32-row chunks and 187.6 MiB when the whole
    set ran in one piece."""
    x = data.generate_source(data.TaskSpec()).inputs
    assert len(x) == 1000
    tracemalloc.start()
    try:
        feats = model.feature_extract(x, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert feats.shape == (1000, 32)
    assert peak <= 10 * 2**20, peak
    assert model.feature_extract(x[:0], weights).shape == (0, 32)


def _chunked_whole_gemm_features(x, weights):
    """model.feature_extract as it ran before its 2-image blocks: 32-row
    chunks, a 1-row tail joining the chunk before it, each through one
    whole im2col GEMM per convolution and one projection GEMM."""
    p = weights.params
    starts = list(range(0, len(x), 32))
    if len(x) % 32 == 1 and len(starts) > 1:
        starts.pop()
    feats = []
    for a, b in zip(starts, starts[1:] + [len(x)]):
        h = x[a:b]
        for layer in ("conv1", "conv2"):
            kernel = p[f"{layer}_k"]
            padded = np.pad(h, ((0, 0), (1, 1), (1, 1), (0, 0)))
            cols = np.lib.stride_tricks.sliding_window_view(
                padded, (3, 3), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)
            pre = cols.reshape(-1, 9 * h.shape[3]) @ kernel.reshape(
                -1, kernel.shape[3])
            h = np.maximum(pre.reshape(h.shape[:3] + kernel.shape[3:])
                           + p[f"{layer}_b"], 0.0)
        feats.append(np.maximum(
            h.mean(axis=(1, 2)) @ p["proj_w"] + p["proj_b"], 0.0))
    return np.concatenate(feats)


@pytest.mark.parametrize("size", [8, 12, 16])
@pytest.mark.parametrize("channels", [1, 3])
def test_feature_extract_bits_equal_whole_gemms_at_lab_shapes(size,
                                                              channels):
    """The 2-image blocks and the one projection GEMM give the bits of
    whole GEMMs over 32-row chunks, at the lab's image sizes and channel
    counts, for every batch size the lab runs: training batches up to 40
    rows (the IL's 6 among them), the 64, 75 and 125-row evaluation sets
    and the 1000-row source set."""
    arch = model.Architecture(image_size=size, channels=channels)
    weights = model.init_weights(arch, seed=size + channels)
    x = np.random.default_rng(size).uniform(
        0.0, 1.0, size=(1000, size, size, channels))
    for n in [*range(1, 41), 64, 75, 125, 1000]:
        assert np.array_equal(model.feature_extract(x[:n], weights),
                              _chunked_whole_gemm_features(x[:n], weights)), n


def test_tensor_and_numpy_paths_agree(weights):
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 1.0, size=(3, 16, 16, 1))
    wt = model.as_tensors(weights)
    feats_t = model.feature_extract_t(x, wt)
    feats = model.feature_extract(x, weights)
    assert np.allclose(feats_t.values, feats, atol=1e-12)
    assert np.allclose(model.head_logits_t(feats_t, wt, "tgt").values,
                       model.head_logits(feats, weights), atol=1e-12)
    _, source_only = model.init_from_pretrained(weights, seed=0)
    assert np.allclose(model.head_logits_t(feats_t, wt, "src").values,
                       model.head_logits(feats, source_only), atol=1e-12)


def test_heads_are_affine_in_features(weights):
    rng = np.random.default_rng(4)
    xa = rng.uniform(size=(1, 16, 16, 1))
    xb = rng.uniform(size=(1, 16, 16, 1))
    fa = model.feature_extract(xa, weights)
    fb = model.feature_extract(xb, weights)
    za = model.head_logits(fa, weights)
    zb = model.head_logits(fb, weights)
    # affine map: logits(mix of features) equals mix of logits
    mixed_feats = 0.3 * fa + 0.7 * fb
    mixed_logits = mixed_feats @ weights.params["tgt_w"] + weights.params["tgt_b"]
    assert np.allclose(mixed_logits, 0.3 * za + 0.7 * zb, atol=1e-12)


def test_snapshot_is_independent(weights, weights_equal):
    snap = weights.copy()
    assert weights_equal(snap, weights)
    snap.params["proj_w"][0, 0] += 1.0
    assert not weights_equal(snap, weights)


def test_init_from_pretrained(weights):
    student, teacher = model.init_from_pretrained(weights, seed=9)
    for name in model.FE_PARAMS + model.SRC_HEAD_PARAMS:
        assert np.array_equal(student.params[name], weights.params[name])
        assert np.array_equal(teacher.params[name], weights.params[name])
    assert student.has_target_head
    assert not teacher.has_target_head
    # fresh target head, not copied
    s2, _ = model.init_from_pretrained(weights, seed=10)
    assert not np.array_equal(student.params["tgt_w"], s2.params["tgt_w"])


def test_checkpoint_round_trip(tmp_path, weights, weights_equal):
    path = tmp_path / "w.ckpt"
    model.save_checkpoint(weights, path)
    loaded = model.load_checkpoint(path)
    assert weights_equal(loaded, weights)
    assert loaded.arch == weights.arch


def test_checkpoint_without_target_head(tmp_path, weights,
                                        weights_equal):
    _, teacher = model.init_from_pretrained(weights, seed=0)
    path = tmp_path / "t.ckpt"
    model.save_checkpoint(teacher, path)
    loaded = model.load_checkpoint(path)
    assert weights_equal(loaded, teacher)
    assert not loaded.has_target_head


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(model.CheckpointError):
        model.load_checkpoint(path)


_TINY_ARCH = model.Architecture(image_size=4, conv1_filters=2,
                                conv2_filters=2, feature_dim=3,
                                n_source_classes=3, n_target_classes=2)


def _tiny_ckpt(tmp_path, drop=(), **replace):
    weights = model.init_weights(_TINY_ARCH, seed=0, with_target_head=True)
    for name in drop:
        del weights.params[name]
    weights.params.update(replace)
    path = tmp_path / "tiny.ckpt"
    model.save_checkpoint(weights, path)
    return path


def test_param_shapes_match_init(weights):
    assert {k: v.shape for k, v in weights.params.items()} == \
        ARCH.param_shapes()


def test_architecture_rejects_bad_sizes():
    with pytest.raises(ValueError):
        model.Architecture(image_size=0)
    with pytest.raises(ValueError):
        model.Architecture(kernel_size=2)


def test_checkpoint_rejects_every_truncation(tmp_path):
    blob = _tiny_ckpt(tmp_path).read_bytes()
    path = tmp_path / "cut.ckpt"
    for end in range(len(blob)):
        path.write_bytes(blob[:end])
        with pytest.raises(model.CheckpointError):
            model.load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = _tiny_ckpt(tmp_path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(model.CheckpointError, match="trailing"):
        model.load_checkpoint(path)


def test_checkpoint_rejects_bad_name(tmp_path):
    path = _tiny_ckpt(tmp_path)
    blob = bytearray(path.read_bytes())
    # the first name ("conv1_b") follows the header, the architecture and
    # the parameter count and name length
    blob[struct.calcsize("<4sI") + 4 * 8 + 4 + 4] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(model.CheckpointError):
        model.load_checkpoint(path)


@pytest.mark.parametrize("drop, replace", [
    (("src_b",), {}),
    (("tgt_b",), {}),
    ((), {"proj_w": np.zeros((3, 3))}),
    ((), {"conv1_b": np.zeros((2, 1))}),
    ((), {"extra": np.zeros(2)}),
])
def test_checkpoint_rejects_params_that_do_not_fit(tmp_path, drop, replace):
    path = _tiny_ckpt(tmp_path, drop, **replace)
    with pytest.raises(model.CheckpointError):
        model.load_checkpoint(path)


def test_checkpoint_rejects_bad_architecture(tmp_path):
    blob = bytearray(_tiny_ckpt(tmp_path).read_bytes())
    # image_size, the first architecture field, to 0
    blob[8:12] = struct.pack("<I", 0)
    path = tmp_path / "arch.ckpt"
    path.write_bytes(bytes(blob))
    with pytest.raises(model.CheckpointError):
        model.load_checkpoint(path)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), flip=st.integers(1, 255))
def test_checkpoint_byte_flip_loads_or_raises_checkpoint_error(
        tmp_path, data, flip):
    blob = bytearray(_tiny_ckpt(tmp_path).read_bytes())
    offset = data.draw(st.integers(0, len(blob) - 1))
    blob[offset] ^= flip
    path = tmp_path / "flipped.ckpt"
    path.write_bytes(bytes(blob))
    try:
        loaded = model.load_checkpoint(path)
    except model.CheckpointError:
        return
    # a flip in a value, or one that keeps the file consistent (say a
    # larger image size)
    assert {k: v.shape for k, v in loaded.params.items()} == \
        loaded.arch.param_shapes()


def test_feature_gradient_flows(weights):
    wt = model.as_tensors(weights)
    x = np.random.default_rng(1).uniform(size=(2, 16, 16, 1))
    out = T.sum_of_squares(model.feature_extract_t(x, wt))
    T.backward(out)
    assert wt["conv1_k"].grad is not None
    assert np.any(wt["conv1_k"].grad != 0.0)


_FEATURE_DIGEST = 122.64590242761211
