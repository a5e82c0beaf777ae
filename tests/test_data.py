import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smile_lab import data


SMALL = data.TaskSpec(samples_per_class=6, seed=0)


def test_source_shapes_and_range():
    ds = data.generate_source(SMALL)
    n = SMALL.n_source_classes * SMALL.samples_per_class
    assert ds.inputs.shape == (n, 16, 16, 1)
    assert ds.labels.shape == (n,)
    assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
    assert ds.domain == "source"
    counts = np.bincount(ds.labels, minlength=SMALL.n_source_classes)
    assert np.all(counts == SMALL.samples_per_class)


def test_target_shapes_and_classes():
    ds = data.derive_target(SMALL)
    assert ds.n_classes == SMALL.n_target_classes
    assert ds.domain == "target"
    assert set(np.unique(ds.labels)) == set(range(SMALL.n_target_classes))
    assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0


def test_generation_deterministic():
    assert data.generate_source(SMALL) == data.generate_source(SMALL)
    assert data.derive_target(SMALL) == data.derive_target(SMALL)


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


def test_held_out_split_source_domain():
    test = data.test_split(SMALL, domain="source", samples_per_class=2)
    assert test.domain == "source"
    assert len(test) == SMALL.n_source_classes * 2


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


def test_subsample_rejects_bad_rate():
    ds = data.derive_target(SMALL)
    for rate in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            data.stratified_subsample(ds, rate=rate, seed=0)


def test_save_load_round_trip(tmp_path):
    ds = data.derive_target(SMALL)
    path = tmp_path / "t.bin"
    data.save(ds, path)
    loaded = data.load(path)
    assert loaded == ds


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(data.DatasetFormatError):
        data.load(path)


def test_load_rejects_truncated_file(tmp_path):
    ds = data.derive_target(SMALL)
    path = tmp_path / "t.bin"
    data.save(ds, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(data.DatasetFormatError):
        data.load(path)


def test_export_csv(tmp_path):
    ds = data.derive_target(data.TaskSpec(samples_per_class=2, seed=0))
    path = tmp_path / "t.csv"
    data.export_csv(ds, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(ds) + 1
    assert lines[0].endswith(",label")
    first = lines[1].split(",")
    assert len(first) == 16 * 16 * 1 + 1


def test_dataset_validation():
    with pytest.raises(ValueError):
        data.Dataset(np.zeros((2, 4, 4, 1)), np.array([0]), 2, "target")
    with pytest.raises(ValueError):
        data.Dataset(np.zeros((1, 4, 4, 1)), np.array([5]), 2, "target")
    with pytest.raises(ValueError):
        data.Dataset(np.zeros((1, 4, 4, 1)), np.array([0]), 2, "elsewhere")


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
        n_pixels = int(np.prod(dataset.inputs.shape[1:])) if len(dataset) else 0
        writer.writerow([f"p{i}" for i in range(n_pixels)] + ["label"])
        for x, y in zip(dataset.inputs, dataset.labels):
            writer.writerow(list(x.reshape(-1)) + [int(y)])


@pytest.mark.parametrize("dataset", [
    data.derive_target(data.TaskSpec(samples_per_class=2, seed=0)),
    data.Dataset(np.array([0.0, 1.0, 1e-05, 5e-324, 0.30000000000000004,
                           0.1, 2.5e-300, 0.9999999999999999])
                 .reshape(2, 2, 2, 1), np.array([0, 3]), 4, "source"),
    data.Dataset(np.zeros((0, 4, 4, 1)), np.zeros(0, dtype=np.int64), 2,
                 "target"),
], ids=["generated", "float-edge-cases", "empty"])
def test_export_csv_matches_csv_writer(tmp_path, dataset):
    data.export_csv(dataset, tmp_path / "fast.csv")
    _csv_writer_reference(dataset, tmp_path / "reference.csv")
    assert (tmp_path / "fast.csv").read_bytes() == \
        (tmp_path / "reference.csv").read_bytes()
