"""Multitask image-classification corpora.

Two sources: a directory tree of binary PGM files laid out as
root/<task>/<class>/<image>.pgm, and a synthetic generator (noisy binary
prototypes) so experiments never depend on shipping a real dataset.
Images are H x W x 1 float64 tensors in [0, 1]; every task in a spec
shares one image size.

Splits are per class: a seeded shuffle of each class's examples followed
by a 50/20/30 train/val/test partition (floor for val and test, remainder
to train). Test indices are locked behind an access guard until a caller
explicitly unlocks them for final evaluation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, StateError
from .serialize import atomic_write_text

SPLITS = ("train", "val", "test")
VAL_FRACTION = 0.2
TEST_FRACTION = 0.3


@dataclass
class Split:
    train: list[int] = field(default_factory=list)
    val: list[int] = field(default_factory=list)
    test: list[int] = field(default_factory=list)

    def indices(self, name: str) -> list[int]:
        if name not in SPLITS:
            raise ConfigError(f"unknown split {name!r}")
        return getattr(self, name)


@dataclass
class TaskDataset:
    """One classification task: images, integer labels, and a split."""

    task_id: str
    class_count: int
    examples: list[tuple[np.ndarray, int]]
    split: Split

    def check(self):
        n = len(self.examples)
        covered = sorted(self.split.train + self.split.val + self.split.test)
        if covered != list(range(n)):
            raise DataError(f"task {self.task_id}: split does not partition examples")
        for _, label in self.examples:
            if not 0 <= label < self.class_count:
                raise DataError(f"task {self.task_id}: label {label} out of range")


class MultitaskSpec:
    """Ordered collection of tasks with a shared image size.

    Immutable after construction apart from the test-access latch; safe
    for concurrent reads. `examples_for` is the only sanctioned way to
    read a split, so the guard cannot be bypassed accidentally. `ref` is
    the dataset reference `harness.build_dataset` sets on return, or None.
    """

    def __init__(self, tasks: list[TaskDataset], image_side: int):
        self.tasks = tasks
        self.image_side = image_side
        self.ref: DatasetRef | None = None
        self._test_unlocked = False

    def unlock_test(self) -> "MultitaskSpec":
        """Permit test-split reads; call only for final reporting."""
        self._test_unlocked = True
        return self

    def examples_for(self, task: TaskDataset, split: str):
        if split == "test" and not self._test_unlocked:
            raise StateError("test split is locked during evolution/validation")
        return [task.examples[i] for i in task.split.indices(split)]


# --- dataset references ------------------------------------------------------
# What a job or checkpoint names its data by: a synthetic corpus or a PGM
# tree, told apart by the "synth" or "dir" key, and the seed of the fixed
# split. Frozen, so a reference is its own `dataset_scope` key.


@dataclass(frozen=True)
class SynthParams:  # the arguments of `synth_generate`
    seed: int
    n_tasks: int
    n_classes: int
    image_side: int
    noise: float
    examples_per_class: int = 30


@dataclass(frozen=True)
class SynthRef:
    synth: SynthParams
    split_seed: int


@dataclass(frozen=True)
class DirRef:  # the arguments of `load_image_dir`
    dir: str
    image_side: int
    split_seed: int
    order_seed: int = 0


DatasetRef = SynthRef | DirRef


# --- PGM ingestion ------------------------------------------------------


def _read_pgm(path: str) -> np.ndarray:
    """Decode an 8-bit binary (P5) PGM into a float image in [0, 1]."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise DataError(f"unreadable image {path}: {e}") from e

    pos = 0

    def token():
        nonlocal pos
        while pos < len(data):
            if data[pos:pos + 1].isspace():
                pos += 1
            elif data[pos:pos + 1] == b"#":
                while pos < len(data) and data[pos] != 0x0A:
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError(f"truncated PGM header in {path}")
        return data[start:pos]

    if token() != b"P5":
        raise DataError(f"{path} is not a binary (P5) PGM")
    try:
        width, height, maxval = int(token()), int(token()), int(token())
    except (ValueError, DataError) as e:
        raise DataError(f"truncated or corrupt PGM header in {path}") from e
    if width <= 0 or height <= 0:
        raise DataError(f"{path}: PGM size {width}x{height} is not positive")
    if maxval <= 0 or maxval > 255:
        raise DataError(f"{path}: only 8-bit PGMs supported (maxval {maxval})")
    pos += 1  # single whitespace byte after maxval
    raster = data[pos:pos + width * height]
    if len(raster) != width * height:
        raise DataError(f"{path}: raster shorter than {width}x{height}")
    img = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return img.astype(np.float64) / maxval


def _resize_nearest(img: np.ndarray, side: int) -> np.ndarray:
    h, w = img.shape
    rows = (np.arange(side) * h) // side
    cols = (np.arange(side) * w) // side
    return img[np.ix_(rows, cols)]


def load_image_dir(root: str, image_side: int, order_seed: int = 0) -> MultitaskSpec:
    """Load a root/<task>/<class>/*.pgm tree.

    Images are nearest-neighbour resized to image_side x image_side. Task
    order is a seeded shuffle of the sorted task directory names; class
    labels follow sorted class directory names. The result has everything
    in the train split; apply `split_fixed` for the real partition.
    """
    if not os.path.isdir(root):
        raise DataError(f"dataset root {root!r} is not a directory")
    names = sorted(d for d in os.listdir(root)
                   if os.path.isdir(os.path.join(root, d)))
    if not names:
        raise DataError(f"dataset root {root!r} has no task directories")
    order = np.random.default_rng(order_seed).permutation(len(names))
    tasks = []
    for idx in order:
        tname = names[idx]
        tdir = os.path.join(root, tname)
        classes = sorted(d for d in os.listdir(tdir)
                         if os.path.isdir(os.path.join(tdir, d)))
        if not classes:
            raise DataError(f"task directory {tdir!r} has no class directories")
        examples = []
        for label, cname in enumerate(classes):
            cdir = os.path.join(tdir, cname)
            files = sorted(f for f in os.listdir(cdir) if f.endswith(".pgm"))
            if not files:
                raise DataError(f"class directory {cdir!r} is empty")
            for fname in files:
                img = _read_pgm(os.path.join(cdir, fname))
                img = _resize_nearest(img, image_side)[:, :, None]
                examples.append((img, label))
        td = TaskDataset(tname, len(classes), examples,
                         Split(train=list(range(len(examples)))))
        td.check()
        tasks.append(td)
    return MultitaskSpec(tasks, image_side)


# --- splitting and sampling ----------------------------------------------


def split_fixed(spec: MultitaskSpec, seed: int) -> MultitaskSpec:
    """Apply the per-class 50/20/30 partition to every task (in place).

    Per class: seeded shuffle, then floor(0.2 n) validation and
    floor(0.3 n) test examples, remainder to train. A task with under 10
    examples, or whose validation or test split comes out empty, raises.
    """
    rng = np.random.default_rng(seed)
    for task in spec.tasks:
        if len(task.examples) < 10:
            raise DataError(
                f"task {task.task_id} has {len(task.examples)} examples; need >= 10")
        split = Split()
        by_class: dict[int, list[int]] = {}
        for i, (_, label) in enumerate(task.examples):
            by_class.setdefault(label, []).append(i)
        for label in sorted(by_class):
            idx = list(by_class[label])
            rng.shuffle(idx)
            n = len(idx)
            n_val = int(n * VAL_FRACTION)
            n_test = int(n * TEST_FRACTION)
            n_train = n - n_val - n_test
            split.train.extend(idx[:n_train])
            split.val.extend(idx[n_train:n_train + n_val])
            split.test.extend(idx[n_train + n_val:])
        if not split.val or not split.test:
            raise DataError(
                f"task {task.task_id}: no class has enough examples for a "
                f"{'validation' if not split.val else 'test'} split")
        task.split = split
        task.check()
    return spec


def sample_iteration(spec: MultitaskSpec, split: str, rng: np.random.Generator):
    """One uniformly sampled (task_id, image, label) per task, in task order."""
    out = []
    for task in spec.tasks:
        pool = task.split.indices(split)
        if not pool:
            raise StateError(f"task {task.task_id}: split {split!r} is empty")
        if split == "test" and not spec._test_unlocked:
            raise StateError("test split is locked during evolution/validation")
        img, label = task.examples[pool[rng.integers(len(pool))]]
        out.append((task.task_id, img, label))
    return out


def synth_generate(seed: int, n_tasks: int, n_classes: int, image_side: int,
                   noise: float,
                   examples_per_class: int = 30) -> MultitaskSpec:
    """Noisy-prototype corpus: per task, n_classes random binary images;
    each example flips pixels independently with probability `noise`.

    Prototypes are sparse (a quarter of the pixels, stroke-like) so their
    geometry survives max-pooling, mirroring handwritten-character data.
    """
    if n_tasks < 1 or n_classes < 1:
        raise ConfigError("need at least one task and one class")
    if not 0.0 <= noise < 0.5:
        raise ConfigError(f"noise must be in [0, 0.5), got {noise}")
    rng = np.random.default_rng(seed)
    tasks = []
    for t in range(n_tasks):
        protos = rng.random((n_classes, image_side, image_side)) < 0.25
        examples = []
        for label in range(n_classes):
            for _ in range(examples_per_class):
                flips = rng.random((image_side, image_side)) < noise
                img = np.logical_xor(protos[label], flips).astype(np.float64)
                examples.append((img[:, :, None], label))
        td = TaskDataset(f"synth{t}", n_classes, examples,
                         Split(train=list(range(len(examples)))))
        tasks.append(td)
    return MultitaskSpec(tasks, image_side)


def write_split_manifest(spec: MultitaskSpec, path: str) -> None:
    """Audit file: one line per task and split with the index lists."""
    lines = []
    for task in spec.tasks:
        for split in SPLITS:
            idx = " ".join(str(i) for i in task.split.indices(split))
            lines.append(f"{task.task_id}\t{split}\t{idx}")
    atomic_write_text(path, "\n".join(lines) + "\n")
