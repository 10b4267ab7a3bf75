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
    CompGraph, adam_step, backward, predicted_class, zero_grads,
)


def train_network(net, spec: MultitaskSpec, iters: int, lr: float,
                  rng: np.random.Generator, *, lr_decay: bool = False,
                  epoch_iters: int | None = None,
                  snapshot_every: int | None = None):
    """Train `net` in place; returns (lr_trace, best_val_acc or None).

    With lr_decay, the rate drops by 10x after 10 and again after 20
    epochs, where one epoch is `epoch_iters` iterations (default: mean
    per-task train-split size). With snapshot_every, validation accuracy
    is measured periodically and the best parameter values are restored
    at the end (peak-validation snapshot).
    """
    params = net.params()
    zero_grads(params)
    if epoch_iters is None:
        total_train = sum(len(t.split.train) for t in spec.tasks)
        epoch_iters = max(1, total_train // max(1, len(spec.tasks)))
    lr_points = []
    best_acc = None
    best_values = None

    def current_lr(it):
        if not lr_decay:
            return lr
        epoch = it / epoch_iters
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
        adam_step(params, step_lr)
        if snapshot_every and (it + 1) % snapshot_every == 0:
            _, acc = evaluate_accuracy(net, spec, "val")
            if best_acc is None or acc > best_acc:
                best_acc = acc
                best_values = [(p, p.value.copy()) for p in params]

    if snapshot_every:
        _, acc = evaluate_accuracy(net, spec, "val")
        if best_acc is None or acc > best_acc:
            best_acc = acc
            best_values = None  # final state is already the best
        if best_values is not None:
            for p, v in best_values:
                p.value[...] = v
    return lr_points, best_acc


def evaluate_accuracy(net, spec: MultitaskSpec, split: str):
    """Per-task and mean accuracy of argmax classification on a split."""
    per_task = {}
    for ti, task in enumerate(spec.tasks):
        correct = 0
        examples = spec.examples_for(task, split)
        for img, label in examples:
            g = CompGraph("eval")
            logits = net.forward(g, ti, g.leaf(img))
            if predicted_class(logits.value) == label:
                correct += 1
        per_task[task.task_id] = correct / len(examples) if examples else 0.0
    mean = float(np.mean(list(per_task.values()))) if per_task else 0.0
    return per_task, mean
