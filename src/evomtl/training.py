"""Shared training loop and accuracy evaluation.

One iteration = one forward/backward pass per task with a single example
sampled uniformly from that task's split, followed by one Adam step over
all parameters (gradients from every task accumulate into shared
storage before the step).
"""

from __future__ import annotations

import numpy as np

from .dataset import MultitaskSpec, sample_iteration
from .diffcore import (
    BatchForward, CompGraph, ParamBlock, adam_step, backward, predicted_class,
    zero_grads,
)

# Input rows (examples x H x W) one scoring forward holds at a time. A
# batch's im2col matrices grow with it: on the benchmark's cm-pgm28 run
# (28x28 images, seed 1), scoring a whole split at once raised peak RSS
# from 50 to 73 MB, while at this size it stayed where per-example
# scoring left it (50 MB).
SCORE_CHUNK_ROWS = 1024


def epoch_iters(spec: MultitaskSpec) -> int:
    """Iterations in one epoch: the mean per-task train-split size."""
    total_train = sum(len(t.split.train) for t in spec.tasks)
    return max(1, total_train // max(1, len(spec.tasks)))


def train_network(net, spec: MultitaskSpec, iters: int, lr: float,
                  rng: np.random.Generator, *, lr_decay: bool = False,
                  snapshot_every: int | None = None):
    """Train `net` in place; returns (lr_trace, best_val_acc or None).

    With lr_decay, the rate drops by 10x after 10 and again after 20
    epochs (see `epoch_iters`). With snapshot_every, validation accuracy
    is scored after every `snapshot_every`-th iteration and after the
    last, and the weights of the first strictly best score are restored
    at the end (peak-validation snapshot); with no iterations nothing is
    scored and the second value is None.
    """
    block = ParamBlock(net.params())
    zero_grads(block)
    epoch_len = epoch_iters(spec)
    lr_points = []
    best_acc = None
    best_values = None

    def current_lr(it):
        if not lr_decay:
            return lr
        epoch = it / epoch_len
        if epoch >= 20:
            return lr / 100.0
        if epoch >= 10:
            return lr / 10.0
        return lr

    for it in range(iters):
        samples = sample_iteration(spec, "train", rng)
        for ti, (tid, img, label) in enumerate(samples):
            g = CompGraph("train", rng)
            logits = net.forward(g, ti, g.leaf(img))
            loss = g.cross_entropy(logits, label)
            backward(g, loss)
        step_lr = current_lr(it)
        if not lr_points or lr_points[-1] != step_lr:
            lr_points.append(step_lr)
        adam_step(block, step_lr)
        if snapshot_every and ((it + 1) % snapshot_every == 0
                               or it + 1 == iters):
            _, acc = evaluate_accuracy(net, spec, "val")
            if best_acc is None or acc > best_acc:
                best_acc = acc
                best_values = block.value.copy()

    if best_values is not None:
        block.value[...] = best_values
    return lr_points, best_acc


def batched_forward(forward, images) -> np.ndarray:
    """Outputs of `forward(g, x)` for every image, run tape-free on a
    `BatchForward` in chunks of at most SCORE_CHUNK_ROWS input rows."""
    h, w = images[0].shape[:2]
    step = max(1, SCORE_CHUNK_ROWS // (h * w))
    g = BatchForward()
    return np.concatenate([
        forward(g, g.leaf(np.stack(images[i:i + step]))).value
        for i in range(0, len(images), step)])


def accuracy(forward, examples) -> float:
    """Fraction of `examples` whose argmax class under `forward(g, x)` is
    the label; the one scoring loop."""
    if not examples:
        return 0.0
    logits = batched_forward(forward, [img for img, _ in examples])
    labels = np.array([label for _, label in examples])
    return int(np.count_nonzero(predicted_class(logits) == labels)) / len(examples)


def evaluate_accuracy(net, spec: MultitaskSpec, split: str):
    """Per-task and mean accuracy of argmax classification on a split."""
    per_task = {}
    for ti, task in enumerate(spec.tasks):
        per_task[task.task_id] = accuracy(
            lambda g, x: net.forward(g, ti, x), spec.examples_for(task, split))
    mean = float(np.mean(list(per_task.values()))) if per_task else 0.0
    return per_task, mean


def score_test(model, spec: MultitaskSpec):
    """Unlock and score the test split: the one place anything reads it.
    Returns per-task and mean accuracy."""
    spec.unlock_test()
    return evaluate_accuracy(model, spec, "test")


def final_report(model, spec: MultitaskSpec) -> dict:
    """Score val, then test."""
    val_per_task, val_mean = evaluate_accuracy(model, spec, "val")
    test_per_task, test_mean = score_test(model, spec)
    return {"val_per_task": val_per_task, "val_accuracy": val_mean,
            "test_per_task": test_per_task, "test_accuracy": test_mean}
