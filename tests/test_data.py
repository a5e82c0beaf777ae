import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from smile_lab import data, model, train


SMALL = data.TaskSpec(samples_per_class=6, seed=0)


def test_source_shapes_and_range():
    ds = data.generate_source(SMALL)
    n = SMALL.n_source_classes * SMALL.samples_per_class
    assert ds.inputs.shape == (n, 16, 16, 1)
    assert ds.labels.shape == (n,)
    assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
    assert ds.n_classes == SMALL.n_source_classes
    counts = np.bincount(ds.labels, minlength=SMALL.n_source_classes)
    assert np.all(counts == SMALL.samples_per_class)


def test_target_shapes_and_classes():
    ds = data.derive_target(SMALL)
    assert ds.n_classes == SMALL.n_target_classes
    assert set(np.unique(ds.labels)) == set(range(SMALL.n_target_classes))
    assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0


def test_generation_deterministic(datasets_equal):
    assert datasets_equal(data.generate_source(SMALL),
                          data.generate_source(SMALL))
    assert datasets_equal(data.derive_target(SMALL),
                          data.derive_target(SMALL))


def test_seed_changes_content():
    a = data.generate_source(SMALL)
    b = data.generate_source(data.TaskSpec(samples_per_class=6, seed=1))
    assert not np.array_equal(a.inputs, b.inputs)


def test_target_differs_from_source_templates():
    spec = data.TaskSpec(samples_per_class=4, noise_sigma=0.0, seed=0)
    src = data.generate_source(spec)
    tgt = data.derive_target(spec)
    assert not any(
        np.array_equal(tgt.inputs[0], img) for img in src.inputs[:20])


def test_held_out_split_independent_of_train_noise():
    train = data.derive_target(SMALL)
    test = data.test_split(SMALL, domain="target")
    assert test.n_classes == SMALL.n_target_classes
    assert np.all(np.bincount(test.labels, minlength=5) == 3)
    pool = {row.tobytes() for row in train.inputs}
    assert not any(row.tobytes() in pool for row in test.inputs)


def _draw_per_class_reference(spec, domain, per_class, stream):
    # the generator as a loop over classes, one noise draw per class
    templates = data.source_templates(spec)
    if domain == "target":
        templates = np.stack([
            data._distort(templates[c], spec.rotation_degrees,
                          spec.contrast_shift)
            for c in data.target_class_selection(spec)])
    rng = np.random.default_rng((spec.seed, stream))
    inputs, labels = [], []
    for c, template in enumerate(templates):
        shape = (per_class,) + template.shape
        noise = rng.normal(0.0, spec.noise_sigma, size=shape) \
            if spec.noise_sigma > 0 else np.zeros(shape)
        inputs.append(np.clip(template + noise, 0.0, 1.0))
        labels.append(np.full(per_class, c))
    order = rng.permutation(len(templates) * per_class)
    return data.Dataset(np.concatenate(inputs)[order],
                        np.concatenate(labels)[order], len(templates))


@pytest.mark.parametrize("sigma", [0.25, 0.0])
def test_generators_match_per_class_reference(sigma, datasets_equal):
    spec = data.TaskSpec(samples_per_class=4, noise_sigma=sigma, channels=2,
                         seed=3)
    for made, domain, per_class, stream in (
            (data.generate_source(spec), "source", 4, 1),
            (data.derive_target(spec), "target", 4, 3),
            (data.test_split(spec, "source"), "source", 2, 4),
            (data.test_split(spec), "target", 2, 5)):
        assert datasets_equal(made, _draw_per_class_reference(
            spec, domain, per_class, stream)), (domain, stream)


def test_held_out_split_source_domain():
    test = data.test_split(SMALL, domain="source")
    assert test.n_classes == SMALL.n_source_classes
    assert len(test) == SMALL.n_source_classes * 3


def test_stratified_subsample_counts():
    ds = data.derive_target(data.TaskSpec(samples_per_class=7, seed=0))
    sub = data.stratified_subsample(ds, rate=0.15, seed=0)
    # ceil(0.15 * 7) = 2 per class
    counts = np.bincount(sub.labels, minlength=5)
    assert np.all(counts == 2)


def test_stratified_subsample_min_one():
    ds = data.derive_target(data.TaskSpec(samples_per_class=3, seed=0))
    sub = data.stratified_subsample(ds, rate=0.01, seed=0)
    assert np.all(np.bincount(sub.labels, minlength=5) == 1)


def test_stratified_subsample_rate_one_is_whole_set():
    ds = data.derive_target(SMALL)
    sub = data.stratified_subsample(ds, rate=1.0, seed=3)
    assert sub.inputs.shape == ds.inputs.shape
    assert np.array_equal(np.sort(sub.labels), np.sort(ds.labels))


def test_save_load_round_trip(tmp_path, datasets_equal):
    ds = data.derive_target(SMALL)
    path = tmp_path / "t.bin"
    data.save(ds, path)
    assert datasets_equal(data.load(path), ds)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(data.DatasetFormatError):
        data.load(path)


# two 4x4 rows: a 336-byte file whose class count is at bytes 8 to 11
_TINY = data.Dataset(np.linspace(0.0, 1.0, 32).reshape(2, 4, 4, 1),
                     np.array([1, 0]), 2)


def _tiny_blob(tmp_path):
    data.save(_TINY, tmp_path / "tiny.bin")
    return (tmp_path / "tiny.bin").read_bytes()


def test_load_rejects_truncated_file(tmp_path):
    blob = _tiny_blob(tmp_path)
    path = tmp_path / "cut.bin"
    for end in range(len(blob)):
        path.write_bytes(blob[:end])
        with pytest.raises(data.DatasetFormatError):
            data.load(path)


def test_load_rejects_a_label_outside_its_classes(tmp_path):
    blob = bytearray(_tiny_blob(tmp_path))
    path = tmp_path / "bad.bin"
    for offset, byte in ((8, 1), (len(blob) - 16, 2), (len(blob) - 1, 0xFF)):
        bad = bytearray(blob)
        bad[offset] = byte   # 1 class, label 2 of 2 classes, label -1
        path.write_bytes(bytes(bad))
        with pytest.raises(data.DatasetFormatError):
            data.load(path)


def test_load_names_an_old_version(tmp_path):
    # the version-1 layout: a fixed header (magic, version, height, width,
    # channels, count, class count, domain byte), then pixels and labels
    path = tmp_path / "v1.bin"
    path.write_bytes(struct.pack("<4sIIIIIIB", b"SMDS", 1, 4, 4, 1, 2, 2, 1)
                     + _TINY.inputs.tobytes() + _TINY.labels.tobytes())
    with pytest.raises(data.DatasetFormatError, match="version 1"):
        data.load(path)


def test_empty_dataset_round_trips_with_its_shape(tmp_path, datasets_equal):
    empty = data.Dataset(np.zeros((0, 16, 16, 3)), np.zeros(0, dtype=int), 5)
    data.save(empty, tmp_path / "empty.bin")
    loaded = data.load(tmp_path / "empty.bin")
    assert loaded.inputs.shape == (0, 16, 16, 3)
    assert datasets_equal(loaded, empty)


class _Malformed(ValueError):
    pass


def test_load_arrays_rejects_a_repeated_name_and_a_wrong_rank(tmp_path):
    path = tmp_path / "arrays.bin"
    arrays = {"a": np.arange(2.0), "b": np.arange(3)}
    data.save_arrays(path, b"TEST", 7, (5, 6), arrays)
    layout = {"a": (1, "<f8"), "b": (1, "<i8")}
    header, loaded = data.load_arrays(path, b"TEST", 7, 2, layout, _Malformed)
    assert list(header) == [5, 6] and loaded.keys() == arrays.keys()
    assert all(np.array_equal(loaded[k], arrays[k]) for k in arrays)
    with pytest.raises(_Malformed, match="dimensions"):
        data.load_arrays(path, b"TEST", 7, 2, {**layout, "b": (2, "<i8")},
                         _Malformed)
    # the second name, "b", becomes "a"
    path.write_bytes(path.read_bytes().replace(b"\x01\x00\x00\x00b",
                                               b"\x01\x00\x00\x00a"))
    with pytest.raises(_Malformed, match="unexpected array 'a'"):
        data.load_arrays(path, b"TEST", 7, 2, layout, _Malformed)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data_=st.data(), flip=st.integers(1, 255))
def test_header_byte_flip_loads_or_raises_format_error(tmp_path, data_, flip):
    blob = bytearray(_tiny_blob(tmp_path))
    blob[data_.draw(st.integers(0, len(blob) - 1))] ^= flip
    path = tmp_path / "flipped.bin"
    path.write_bytes(bytes(blob))
    try:
        loaded = data.load(path)
    except data.DatasetFormatError:
        return
    # a flip in a value, or one that keeps the file consistent (say a
    # larger class count)
    assert loaded.inputs.shape == _TINY.inputs.shape
    assert loaded.labels.shape == _TINY.labels.shape


def test_export_csv(tmp_path):
    ds = data.derive_target(data.TaskSpec(samples_per_class=2, seed=0))
    path = tmp_path / "t.csv"
    data.export_csv(ds, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(ds) + 1
    assert lines[0].endswith(",label")
    first = lines[1].split(",")
    assert len(first) == 16 * 16 * 1 + 1


def test_atomic_write_keeps_the_old_file_when_the_writer_raises(tmp_path):
    path = tmp_path / "artifact.bin"
    path.write_bytes(b"old bytes")
    with pytest.raises(RuntimeError):
        with data.atomic_write(path, "wb") as fh:
            fh.write(b"new")
            raise RuntimeError("writer failed")
    assert path.read_bytes() == b"old bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]
    with data.atomic_write(path, "w", newline="") as fh:
        fh.write("a\r\nb\n")
    assert path.read_bytes() == b"a\r\nb\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]


def _write_checkpoint(path, broken):
    weights = model.init_weights(model.Architecture(image_size=4), seed=0)
    if broken:
        weights.params["zz"] = [1.0]    # written last; it has no .ndim
    model.save_checkpoint(weights, path)


def _write_dataset(path, broken):
    dataset = data.generate_source(SMALL)
    if broken:
        dataset.labels = list(dataset.labels)   # fails after the pixels
    data.save(dataset, path)


def _write_metrics(path, broken):
    row = {"iteration": 0, "lr": 0.1,
           **{f.name: 1.0 for f in dataclasses.fields(train.LossBreakdown)}}
    if broken:
        del row["total"]                # after the header line
    train.Metrics(loss_rows=[row]).write_csv(path)


@pytest.mark.parametrize("write", [_write_checkpoint, _write_dataset,
                                   _write_metrics])
def test_a_writer_that_raises_leaves_the_old_artifact(tmp_path, write):
    path = tmp_path / "artifact"
    write(path, broken=False)
    before = path.read_bytes()
    with pytest.raises((AttributeError, KeyError)):
        write(path, broken=True)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_dataset_validation():
    with pytest.raises(ValueError):
        data.Dataset(np.zeros((2, 4, 4, 1)), np.array([0]), 2)
    with pytest.raises(ValueError):
        data.Dataset(np.zeros((1, 4, 4, 1)), np.array([5]), 2)


@settings(max_examples=20, deadline=None)
@given(rate_a=st.floats(0.3, 1.0), rate_b=st.floats(0.3, 1.0),
       seed=st.integers(0, 100))
def test_subsample_is_subset(rate_a, rate_b, seed):
    ds = data.derive_target(data.TaskSpec(samples_per_class=8, seed=0))
    sub = data.stratified_subsample(ds, rate=rate_a, seed=seed)
    sub2 = data.stratified_subsample(sub, rate=rate_b, seed=seed + 1)
    pool = {img.tobytes() for img in ds.inputs}
    assert all(img.tobytes() in pool for img in sub.inputs)
    assert all(img.tobytes() in pool for img in sub2.inputs)


def _csv_writer_reference(dataset, path):
    # the export as csv.writer writes it, over numpy scalars
    import csv
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        n_pixels = int(np.prod(dataset.inputs.shape[1:]))
        writer.writerow([f"p{i}" for i in range(n_pixels)] + ["label"])
        for x, y in zip(dataset.inputs, dataset.labels):
            writer.writerow(list(x.reshape(-1)) + [int(y)])


def _export_matches_reference(dataset, tmp_path) -> bool:
    data.export_csv(dataset, tmp_path / "fast.csv")
    _csv_writer_reference(dataset, tmp_path / "reference.csv")
    return (tmp_path / "fast.csv").read_bytes() == \
        (tmp_path / "reference.csv").read_bytes()


# one value a row, so each value alone picks orjson or the repr fallback:
# repr's notation changes at magnitudes 1e-4 and 1e16, and orjson writes
# NaN and Inf as null
_EDGE_FLOATS = [0.0, 1.0, 1e-05, 5e-324, 0.30000000000000004, 0.1,
                2.5e-300, 0.9999999999999999, 9.999999999999998e-05, 1e-4,
                0.00010000000000000002, 9999999999999998.0, 1e16, -0.0,
                np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("dataset", [
    data.derive_target(data.TaskSpec(samples_per_class=2, seed=0)),
    data.Dataset(np.array(_EDGE_FLOATS).reshape(-1, 1, 1, 1),
                 np.arange(len(_EDGE_FLOATS)) % 4, 4),
    data.Dataset(np.zeros((0, 4, 4, 1)), np.zeros(0, dtype=np.int64), 2),
    # every second channel: each flattened row is a strided view
    data.Dataset(np.linspace(0.1, 0.9, 32).reshape(2, 2, 2, 4)[..., ::2],
                 np.array([0, 1]), 2),
], ids=["generated", "float-edge-cases", "empty", "strided-inputs"])
def test_export_csv_matches_csv_writer(tmp_path, dataset):
    assert _export_matches_reference(dataset, tmp_path)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                    max_side=4),
                       elements=st.floats()))
def test_export_csv_matches_csv_writer_on_any_floats(tmp_path, rows):
    dataset = data.Dataset(rows[:, None, :, None], np.zeros(len(rows)), 1)
    assert _export_matches_reference(dataset, tmp_path)


def _fake_proc(tmp_path, monkeypatch, meminfo, cgroup, files):
    """Point data's /proc and cgroup paths at files under tmp_path; a None
    file is missing."""
    for name, text in {"meminfo": meminfo, "cgroup": cgroup,
                       **{f"fs/{k}": v for k, v in files.items()}}.items():
        if text is not None:
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(text)
    monkeypatch.setattr(data, "_MEMINFO", str(tmp_path / "meminfo"))
    monkeypatch.setattr(data, "_CGROUP", str(tmp_path / "cgroup"))
    monkeypatch.setattr(data, "_CGROUP_ROOT", str(tmp_path / "fs"))


@pytest.mark.parametrize("cgroup, files, expected", [
    # v2: memory.max minus memory.current, below MemAvailable
    ("0::/box\n", {"box/memory.max": "1000000\n",
                   "box/memory.current": "400000\n"}, 600_000),
    ("0::/box\n", {"box/memory.max": "max\n",
                   "box/memory.current": "400000\n"}, 8192_000),
    # headroom above MemAvailable
    ("0::/\n", {"memory.max": "99999999999\n", "memory.current": "0\n"},
     8192_000),
    # v1 beside other controllers and an unlimited v2 root
    ("5:cpu:/\n4:memory:/job\n0::/\n",
     {"memory/job/memory.limit_in_bytes": "3000\n",
      "memory/job/memory.usage_in_bytes": "1000\n"}, 2000),
    ("4:memory:/job\n",
     {"memory/job/memory.limit_in_bytes": "9223372036854771712\n",
      "memory/job/memory.usage_in_bytes": "1000\n"}, 8192_000),
    # usage past the limit leaves nothing
    ("4:memory:/\n", {"memory/memory.limit_in_bytes": "3000\n",
                      "memory/memory.usage_in_bytes": "5000\n"}, 0),
    # a cgroup whose files cannot be read counts as no limit
    ("0::/gone\n", {}, 8192_000),
    # a parent cgroup's lower limit bounds its children (v2, then v1)
    ("0::/box/job\n", {"box/memory.max": "1000000\n",
                       "box/memory.current": "700000\n",
                       "box/job/memory.max": "max\n",
                       "box/job/memory.current": "200000\n"}, 300_000),
    ("4:memory:/box/job\n",
     {"memory/memory.limit_in_bytes": "5000\n",
      "memory/memory.usage_in_bytes": "4000\n",
      "memory/box/job/memory.limit_in_bytes": "3000\n",
      "memory/box/job/memory.usage_in_bytes": "1000\n"}, 1000),
])
def test_available_memory_honours_the_memory_cgroup(tmp_path, monkeypatch,
                                                    cgroup, files, expected):
    _fake_proc(tmp_path, monkeypatch,
               "MemTotal:       9000 kB\nMemAvailable:   8000 kB\n", cgroup,
               files)
    assert data.available_memory() == expected


@pytest.mark.parametrize("cgroup, files", [
    (None, {}),
    ("0::/\n", {"memory.max": "max\n", "memory.current": "5\n"}),
    ("4:memory:/\n",
     {"memory/memory.limit_in_bytes": "9223372036854771712\n",
      "memory/memory.usage_in_bytes": "5\n"}),
])
def test_available_memory_is_none_where_nothing_is_known(tmp_path,
                                                        monkeypatch, cgroup,
                                                        files):
    # no /proc/meminfo, and no cgroup file or a cgroup without a limit
    _fake_proc(tmp_path, monkeypatch, None, cgroup, files)
    assert data.available_memory() is None
