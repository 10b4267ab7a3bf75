import os

import numpy as np
import pytest

from evomtl.dataset import (
    Split, load_image_dir, sample_iteration, split_fixed,
    synth_generate, write_split_manifest,
)
from evomtl.errors import ConfigError, DataError, StateError
from helpers import write_pgm


def make_tree(tmp_path, n_tasks=2, n_classes=3, n_images=20, side=105):
    rng = np.random.default_rng(0)
    for t in range(n_tasks):
        for c in range(n_classes):
            d = tmp_path / f"task{t}" / f"class{c}"
            d.mkdir(parents=True)
            for i in range(n_images):
                write_pgm(str(d / f"img{i:02d}.pgm"), rng.random((side, side)))
    return str(tmp_path)


def test_load_counts(tmp_path):
    root = make_tree(tmp_path)
    spec = load_image_dir(root, 28)
    assert len(spec.tasks) == 2
    for task in spec.tasks:
        assert task.class_count == 3
        assert len(task.examples) == 60
        assert task.examples[0][0].shape == (28, 28, 1)


def test_all_white_resize(tmp_path):
    p = tmp_path / "t" / "c"
    p.mkdir(parents=True)
    write_pgm(str(p / "white.pgm"), np.ones((105, 105)))
    spec = load_image_dir(str(tmp_path), 28)
    img, label = spec.tasks[0].examples[0]
    assert img.shape == (28, 28, 1)
    assert np.all(img == 1.0)
    assert label == 0


def test_truncated_pgm(tmp_path):
    p = tmp_path / "t" / "c"
    p.mkdir(parents=True)
    # a truncated header, then a width of 0 and a negative size
    for data in (b"P5\n10", b"P5\n0 4\n255\n", b"P5\n-2 -3\n255\n" + bytes(6)):
        (p / "bad.pgm").write_bytes(data)
        with pytest.raises(DataError) as err:
            load_image_dir(str(tmp_path), 28)
        assert "bad.pgm" in str(err.value)


def test_empty_class_dir(tmp_path):
    p = tmp_path / "t" / "c"
    p.mkdir(parents=True)
    with pytest.raises(DataError):
        load_image_dir(str(tmp_path), 28)


def test_loader_deterministic(tmp_path):
    root = make_tree(tmp_path, n_tasks=3, n_images=10, side=20)
    a = load_image_dir(root, 8, order_seed=5)
    b = load_image_dir(root, 8, order_seed=5)
    assert [t.task_id for t in a.tasks] == [t.task_id for t in b.tasks]
    for ta, tb in zip(a.tasks, b.tasks):
        for (ia, la), (ib, lb) in zip(ta.examples, tb.examples):
            assert la == lb and np.array_equal(ia, ib)


def test_split_50_20_30_per_class():
    spec = synth_generate(1, n_tasks=1, n_classes=3, image_side=8, noise=0.0,
                          examples_per_class=20)
    split_fixed(spec, 7)
    task = spec.tasks[0]
    # 20 per class -> 10/4/6 per class -> 30/12/18 overall
    assert (len(task.split.train), len(task.split.val), len(task.split.test)) \
        == (30, 12, 18)
    for split_name in ("train", "val", "test"):
        by_class = {}
        for i in task.split.indices(split_name):
            by_class.setdefault(task.examples[i][1], []).append(i)
        per = {10 if split_name == "train" else 4 if split_name == "val" else 6}
        assert {len(v) for v in by_class.values()} == per


def test_split_rounding_10_examples():
    spec = synth_generate(2, 1, 1, 8, 0.0, examples_per_class=10)
    split_fixed(spec, 3)
    s = spec.tasks[0].split
    assert (len(s.train), len(s.val), len(s.test)) == (5, 2, 3)


def test_split_determinism_and_disjointness():
    for seed in (0, 11):
        a = split_fixed(synth_generate(4, 2, 3, 8, 0.1), seed)
        b = split_fixed(synth_generate(4, 2, 3, 8, 0.1), seed)
        for ta, tb in zip(a.tasks, b.tasks):
            assert ta.split == tb.split
            ta.check()  # disjoint + covering


def test_split_too_few():
    # 9 examples in all; then 12, but no class has the 5 that give it a
    # validation example
    for n_classes, per_class in ((1, 9), (3, 4)):
        spec = synth_generate(3, 1, n_classes, 8, 0.0,
                              examples_per_class=per_class)
        with pytest.raises(DataError, match=spec.tasks[0].task_id):
            split_fixed(spec, 0)


def test_sample_iteration_shape_and_order():
    spec = split_fixed(synth_generate(5, 20, 2, 6, 0.1), 1)
    out = sample_iteration(spec, "train", np.random.default_rng(0))
    assert len(out) == 20
    assert [t for t, _, _ in out] == [t.task_id for t in spec.tasks]


def test_sample_singleton():
    spec = synth_generate(6, 1, 1, 6, 0.0, examples_per_class=10)
    split_fixed(spec, 1)
    task = spec.tasks[0]
    task.split = Split(train=[3], val=list(range(0, 3)) + list(range(4, 10)))
    rng = np.random.default_rng(2)
    for _ in range(5):
        (_, img, label), = sample_iteration(spec, "train", rng)
        assert np.array_equal(img, task.examples[3][0])


def test_sample_frequency_uniform():
    spec = synth_generate(7, 1, 1, 6, 0.0, examples_per_class=10)
    spec.tasks[0].split = Split(train=list(range(5)))
    rng = np.random.default_rng(3)
    counts = np.zeros(5)
    n = 10_000
    for _ in range(n):
        (_, img, _), = sample_iteration(spec, "train", rng)
        for i in range(5):
            if img is spec.tasks[0].examples[i][0]:
                counts[i] += 1
                break
    p = 1 / 5
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 3 * sigma)


def test_sample_empty_split():
    spec = synth_generate(8, 1, 2, 6, 0.0)
    spec.tasks[0].split = Split(train=list(range(60)))
    with pytest.raises(StateError):
        sample_iteration(spec, "val", np.random.default_rng(0))


def test_synth_zero_noise_identical():
    spec = synth_generate(9, 1, 2, 8, 0.0, examples_per_class=5)
    task = spec.tasks[0]
    for label in (0, 1):
        imgs = [img for img, lb in task.examples if lb == label]
        for img in imgs[1:]:
            assert np.array_equal(img, imgs[0])


def test_synth_deterministic():
    a = synth_generate(10, 2, 3, 8, 0.2)
    b = synth_generate(10, 2, 3, 8, 0.2)
    for ta, tb in zip(a.tasks, b.tasks):
        for (ia, la), (ib, lb) in zip(ta.examples, tb.examples):
            assert la == lb and np.array_equal(ia, ib)


def test_synth_nearest_prototype_oracle():
    spec = split_fixed(synth_generate(11, 3, 4, 8, 0.1), 5)
    correct = total = 0
    for task in spec.tasks:
        # recover prototypes by per-pixel majority over the train split
        protos = {}
        for label in range(task.class_count):
            imgs = [task.examples[i][0] for i in task.split.train
                    if task.examples[i][1] == label]
            protos[label] = (np.mean(imgs, axis=0) > 0.5).astype(float)
        for i in task.split.val:
            img, label = task.examples[i]
            dists = {lb: np.sum(np.abs(img - pr)) for lb, pr in protos.items()}
            if min(dists, key=dists.get) == label:
                correct += 1
            total += 1
    assert correct / total > 0.95


def test_synth_param_validation():
    with pytest.raises(ConfigError):
        synth_generate(0, 0, 2, 8, 0.1)
    with pytest.raises(ConfigError):
        synth_generate(0, 1, 2, 8, 0.5)


def test_test_split_guard():
    spec = split_fixed(synth_generate(12, 1, 2, 6, 0.0), 0)
    task = spec.tasks[0]
    with pytest.raises(StateError):
        spec.examples_for(task, "test")
    with pytest.raises(StateError):
        sample_iteration(spec, "test", np.random.default_rng(0))
    spec.unlock_test()
    assert len(spec.examples_for(task, "test")) == len(task.split.test)


def test_split_manifest(tmp_path):
    spec = split_fixed(synth_generate(13, 2, 2, 6, 0.0), 0)
    path = tmp_path / "manifest.txt"
    write_split_manifest(spec, str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 6  # 2 tasks x 3 splits
    assert lines[0].startswith("synth0\ttrain\t")


def test_split_manifest_is_replaced_whole_or_not_at_all(tmp_path,
                                                        monkeypatch):
    # a rewrite that fails at the rename leaves the previous manifest as
    # it was and no temporary file beside it
    path = tmp_path / "manifest.txt"
    write_split_manifest(split_fixed(synth_generate(13, 2, 2, 6, 0.0), 0),
                         str(path))
    before = path.read_text()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_split_manifest(split_fixed(synth_generate(14, 3, 2, 6, 0.0),
                                         1), str(path))
    assert path.read_text() == before
    assert os.listdir(tmp_path) == ["manifest.txt"]
