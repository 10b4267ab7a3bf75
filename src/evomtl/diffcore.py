"""Reverse-mode differentiable compute core.

Tensors are plain float64 numpy arrays (C-order); they carry no graph state
and are safe to copy or ship between processes. All bookkeeping lives in
`CompGraph`, a forward tape owned by exactly one training job at a time.
Its ops are the one op surface, over two node layouts: a tape node holds
one example, and a `BatchForward` node, which scoring uses, stacks
examples on axis 0. `BatchForward` is a `CompGraph` that records
nothing; it binds the ops the benchmark's tracer times by value, so the
tracer's per-example wrappers on `CompGraph` never see a batch. Each op
checks one example's shape (`node.shape`) and calls a kernel that takes
any leading batch shape.
`Param` is a trainable tensor with its gradient and Adam state attached;
aliased parameters are literally the same object, so one update reaches
every user of the storage. A training call packs its unique Params into
one `ParamBlock`: each Param's value, gradient and Adam moments become
views of four flat buffers, so zeroing gradients (`zero_grads`), an
Adam step (`adam_step`) or a weight snapshot is a few whole-buffer array
ops. While a training call runs, code writes Param arrays only in place
(`+=`, `[...] =`); rebinding one detaches that Param from the block.

Layer kinds, on (H, W, C) maps: dense (which reads any input as one
flat vector), conv2d (square kernel, stride 1, zero "same" padding),
maxpool2x2 (stride 2, odd trailing row/column truncated), the four
activations relu/elu/sigmoid/tanh, and inverted dropout. Merging is done
by `softmerge`, a learnable convex combination whose weights are the
softmax of a logit vector. A merge's scales are that logit vector itself:
a plain `Param` of shape (m,) for m inputs (`merge_scales` makes a
uniform one).

Seeded runs are reproducible byte for byte, so a faster kernel must
round exactly as the one it replaces. Three layout facts carry that:
  * at k=1 a conv's im2col matrix `cols` is its input reshaped to one
    row per pixel, a view of a C-contiguous input (the weight gradient
    reads it, so no op writes a node value in place);
  * a conv's kernel matrix is the view `w[:, :, :c].reshape(-1, cout)`,
    F-ordered for the vjp's flipped, channel-swapped kernel; a contiguous
    copy changes the matmul's rounding on 1x1 maps;
  * the max-pool vjp sends each window's gradient to its first position,
    (dy, dx) in C order, equal to the window's max: argmax routing, ties
    included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    ConfigError, DataError, DimensionError, NumericError, StateError,
)

# Exposed so callers can write shape/type contracts against it.
Tensor = np.ndarray

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def as_tensor(x) -> Tensor:
    """Coerce to a float64 array, rejecting non-finite entries."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError("tensor contains NaN or Inf")
    return arr


def softmax(v: Tensor) -> Tensor:
    """Stable softmax of a 1-D vector (max-subtraction)."""
    shifted = v - v.max()
    e = np.exp(shifted)
    return e / e.sum()


def predicted_class(logits: Tensor):
    """Index of the largest logit along the last axis, for one logit
    vector or a batch of them. NaN logits raise: argmax would return the
    first NaN's index and score it as a prediction."""
    if np.isnan(logits).any():
        raise NumericError("NaN logits")
    return np.argmax(logits, axis=-1)


@dataclass(init=False, eq=False, repr=False)
class Param:
    """Trainable tensor plus gradient and Adam state; its fields, not the
    gradient, are its saved form (older files' `shared_id` is ignored).

    Realizations that alias a parameter hold the same Param object, so
    sharing is object identity, not field equality. `l2_strength` is
    applied as an additive gradient term during backward.
    """

    __slots__ = ("name", "value", "grad", "adam_m", "adam_v", "step_count",
                 "l2_strength")
    retired_keys = ("shared_id",)
    name: str
    value: Tensor
    adam_m: Tensor
    adam_v: Tensor
    step_count: int
    l2_strength: float

    def __init__(self, name: str, value, l2_strength: float = 0.0,
                 adam_m: Tensor | None = None, adam_v: Tensor | None = None,
                 step_count: int = 0):
        self.name = name
        self.value = as_tensor(value)
        self.grad = np.zeros_like(self.value)
        self.adam_m = np.zeros_like(self.value) if adam_m is None else adam_m
        self.adam_v = np.zeros_like(self.value) if adam_v is None else adam_v
        self.step_count = step_count
        self.l2_strength = l2_strength

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.value.shape})"


def init_weight(rng: np.random.Generator, shape, fan_in: int, fan_out: int,
                method: str) -> Tensor:
    """Draw an initial weight tensor (glorot or he, normal flavour)."""
    if method == "glorot":
        std = math.sqrt(2.0 / (fan_in + fan_out))
    elif method == "he":
        std = math.sqrt(2.0 / fan_in)
    else:
        raise ConfigError(f"unknown weight init {method!r}")
    return rng.normal(0.0, std, size=shape)


def merge_scales(owner: str, m: int) -> Param:
    """Uniform scales for an m-input merge: the logit vector, all zeros,
    named `{owner}.scales`."""
    if m < 1:
        raise ConfigError("a merge needs at least one input")
    return Param(f"{owner}.scales", np.zeros(m))


class CGNode:
    """One op's output. `value` holds it, batch axes first on a batched
    forward; `shape` is one example's shape. On a tape, `vjp(g)` returns
    the gradients of the op's inputs (None at a leaf)."""

    __slots__ = ("value", "shape", "op", "vjp")

    def __init__(self, value: Tensor, shape: tuple, op: str, vjp=None):
        self.value = value
        self.shape = shape
        self.op = op
        self.vjp = vjp


class CompGraph:
    """Forward tape for one network evaluation.

    mode is fixed for the graph's lifetime: "train" enables dropout (which
    then needs `rng`), "eval" makes dropout the identity. Nodes are
    appended in execution order, which is also a topological order, so the
    reverse sweep in `backward` needs no sorting.

    An op reads its sizes and makes its checks on `node.shape` and keeps
    whatever batch axes lead its input's value, so `BatchForward` runs
    the same ops. It hands `_record` its output, the inputs its gradient
    needs (`saved`) and a module-level `vjp(*saved, g)`; only a recording
    graph binds the two, so a forward that records nothing builds no
    gradient state.
    """

    def __init__(self, mode: str = "train", rng: np.random.Generator | None = None):
        if mode not in ("train", "eval"):
            raise ConfigError(f"mode must be train or eval, got {mode!r}")
        self.mode = mode
        self.rng = rng
        self.nodes: list[CGNode] = []

    # -- plumbing ---------------------------------------------------------

    def _record(self, op: str, value: Tensor, saved: tuple, vjp) -> CGNode:
        node = CGNode(value, value.shape, op,
                      None if vjp is None else partial(vjp, *saved))
        self.nodes.append(node)
        return node

    def leaf(self, value) -> CGNode:
        """Constant input node (no gradient past it)."""
        return self._record("leaf", as_tensor(value), (), None)

    # -- layers -----------------------------------------------------------

    def dense(self, x: CGNode, w: Param, b: Param) -> CGNode:
        n = math.prod(x.shape)
        _check_dense(n, w, b)
        xf = x.value.reshape(*_batch_axes(x), n)
        return self._record("dense", xf @ w.value + b.value, (x, w, b, xf),
                            _dense_vjp)

    def conv2d(self, x: CGNode, w: Param, b: Param) -> CGNode:
        """Stride-1 zero-padded "same" convolution; x is (H, W, C <= Cin),
        w is (k, k, Cin, Cout), b is (Cout,); missing channels are zeros."""
        _check_conv(x.shape, w, b)
        out, cols = _conv_same(x.value, w.value)
        out += b.value
        return self._record("conv2d", out, (x, w, b, cols), _conv2d_vjp)

    def maxpool2x2(self, x: CGNode) -> CGNode:
        _check_pool(x.shape)
        out = _maxpool2x2(x.value)
        return self._record("maxpool2x2", out, (x, out), _maxpool2x2_vjp)

    def activation(self, x: CGNode, kind: str) -> CGNode:
        out = _activate(kind, x.value)
        return self._record(kind, out, (kind, x, out), _activation_vjp)

    def dropout(self, x: CGNode, rate: float) -> CGNode:
        """Inverted dropout: identity in eval mode, survivor scaling 1/(1-p)
        in train mode."""
        _check_rate(rate)
        if self.mode == "eval" or rate == 0.0:
            return x
        if self.rng is None:
            raise StateError("train-mode dropout needs a seeded rng")
        keep = (self.rng.random(x.value.shape) >= rate) / (1.0 - rate)
        return self._record("dropout", x.value * keep, (x, keep), _scale_vjp)

    def reshape(self, x: CGNode, shape) -> CGNode:
        out = x.value.reshape(*_batch_axes(x), *shape)
        return self._record("reshape", out, (x,), _reshape_vjp)

    def pad_channels(self, x: CGNode, channels: int) -> CGNode:
        """Zero-pad the channel axis of an (H, W, C) tensor up to `channels`."""
        if _check_pad(x.shape, channels) == channels:
            return x
        out = _pad_channels(x.value, channels)
        return self._record("pad_channels", out, (x,), _pad_channels_vjp)

    # -- merge and loss ----------------------------------------------------

    def softmerge(self, scales: Param, inputs: list[CGNode]) -> CGNode:
        _check_merge(scales, inputs)
        p = softmax(scales.value)
        out = _softmerge(p, [node.value for node in inputs])
        return self._record("softmerge", out, (scales, p, inputs),
                            _softmerge_vjp)

    def cross_entropy(self, logits: CGNode, label: int) -> CGNode:
        """Softmax cross-entropy against one class index; returns a scalar."""
        v = logits.value
        if v.ndim != 1 or v.size < 2:
            raise DimensionError("cross_entropy: logits must be a vector of >= 2")
        if not 0 <= label < v.size:
            raise DataError(f"label {label} out of range for {v.size} classes")
        shifted = v - v.max()
        e = np.exp(shifted)
        z = e.sum()
        loss = np.array(math.log(z) - shifted[label])
        p = e / z  # softmax(v), sharing the exp
        return self._record("cross_entropy", loss, (logits, p, label),
                            _cross_entropy_vjp)


class BatchForward(CompGraph):
    """Eval-mode forward over a batch of examples stacked on axis 0 that
    records nothing, so it cannot be differentiated. Scoring runs on it,
    and on a batch of no examples it makes every check and computes
    nothing, which is how networks are sized.

    Its ops are `CompGraph`'s own. The benchmark's tracer
    (`bench/tracing.py`) times the five below by replacing them on
    `CompGraph` with wrappers that read one example's (H, W, C) from a
    conv's input; binding the functions here by value keeps scoring out
    of those wrappers.
    """

    conv2d, dense = CompGraph.conv2d, CompGraph.dense
    maxpool2x2, activation = CompGraph.maxpool2x2, CompGraph.activation
    softmerge = CompGraph.softmerge

    def __init__(self):
        super().__init__("eval")

    def _record(self, op: str, value: Tensor, saved: tuple, vjp) -> CGNode:
        return CGNode(value, value.shape[1:], op)


def _batch_axes(x: CGNode) -> tuple:
    """The axes `x.value` has before one example's: () on a tape."""
    return x.value.shape[:x.value.ndim - len(x.shape)]


# --- vjps ---------------------------------------------------------------------
# `vjp(*saved, g)` of each op above, on one example's gradient `g`.


def _dense_vjp(x, w, b, xf, g):
    return ((x, (w.value @ g).reshape(x.shape)), (w, np.outer(xf, g)), (b, g))


def _conv2d_vjp(x, w, b, cols, g):
    h, wd, c = x.shape
    k, _, cin, cout = w.value.shape
    gm = g.reshape(h * wd, cout)
    dw = (cols.T @ gm).reshape(k, k, c, cout)
    if c < cin:  # missing channels' rows stay 0
        dw = np.concatenate((dw, np.zeros((k, k, cin - c, cout))), axis=2)
    grads = ((w, dw), (b, gm.sum(axis=0)))
    if x.vjp is None:  # a leaf, e.g. the image: no input gradient
        return grads
    # Input gradient is the same-padded convolution of g with the
    # spatially flipped, channel-swapped kernel.
    dx, _ = _conv_same(g, w.value[::-1, ::-1, :c].transpose(0, 1, 3, 2))
    return ((x, dx), *grads)


def _window_major(a: Tensor, ho: int, wo: int) -> Tensor:
    """(ho, wo, C, dy, dx) view of the pooled part of an (H, W, C) map."""
    return (a[:ho * 2, :wo * 2].reshape(ho, 2, wo, 2, a.shape[2])
            .transpose(0, 2, 4, 1, 3))


def _maxpool2x2_vjp(x: CGNode, out: Tensor, g: Tensor):
    """Input gradient of the pool of an (H, W, C) map `x`: each window's
    gradient goes to its first position, (dy, dx) in C order, that equals
    the window's max, as argmax would pick it (ties included); the rest,
    and a truncated row or column, get 0.

    The four equality flags of a window are the four bytes of one
    little-endian word, position (0, 0) lowest; `word & -word` keeps the
    lowest set byte, the first hit."""
    ho, wo, c = out.shape
    hit = np.equal(_window_major(x.value, ho, wo), out[..., None, None],
                   order="C")
    word = hit.reshape(ho, wo, c, 4).view("<u4")
    word &= -word
    dx = np.zeros(x.shape)
    np.copyto(_window_major(dx, ho, wo), g[..., None, None], where=hit)
    return ((x, dx),)


def _activation_vjp(kind, x, out, g):
    if kind == "relu":
        return ((x, g * (x.value > 0)),)
    if kind == "elu":
        return ((x, g * np.where(x.value > 0, 1.0, out + 1.0)),)
    if kind == "sigmoid":
        return ((x, g * out * (1.0 - out)),)
    return ((x, g * (1.0 - out * out)),)  # tanh


def _scale_vjp(x, keep, g):
    return ((x, g * keep),)


def _reshape_vjp(x, g):
    return ((x, g.reshape(x.shape)),)


def _pad_channels_vjp(x, g):
    return ((x, g[..., :x.shape[-1]]),)


def _softmerge_vjp(scales, p, inputs, g):
    dots = np.array([(g * node.value).sum() for node in inputs])
    dlogits = p * (dots - np.dot(p, dots))
    grads = [(node, pm * g) for pm, node in zip(p, inputs)]
    grads.append((scales, dlogits))
    return grads


def _cross_entropy_vjp(logits, p, label, g):
    d = p.copy()
    d[label] -= 1.0
    return ((logits, g * d),)


# --- checks -------------------------------------------------------------------
# Shapes passed here are one example's shape.


def _check_dense(features: int, w: Param, b: Param) -> None:
    if w.value.ndim != 2 or w.value.shape[0] != features:
        raise DimensionError(
            f"dense: input of {features} features vs weight {w.value.shape}")
    if b.value.shape != (w.value.shape[1],):
        raise DimensionError("dense: bias shape mismatch")


def _check_conv(shape, w: Param, b: Param) -> None:
    if len(shape) != 3:
        raise DimensionError(f"conv2d: expected (H, W, C) input, got {shape}")
    k, k2, cin, cout = w.value.shape
    if k != k2 or k % 2 != 1:
        raise DimensionError("conv2d: kernel must be square with odd size")
    if shape[2] > cin:
        raise DimensionError(
            f"conv2d: input has {shape[2]} channels, kernel takes at most {cin}")
    if b.value.shape != (cout,):
        raise DimensionError("conv2d: bias shape mismatch")


def _check_pool(shape) -> None:
    if len(shape) != 3:
        raise DimensionError(f"maxpool2x2: expected (H, W, C) input, got {shape}")
    if shape[0] < 2 or shape[1] < 2:
        raise DimensionError(
            f"maxpool2x2: input {shape[0]}x{shape[1]} smaller than the window")


def _check_rate(rate: float) -> None:
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")


def _check_pad(shape, channels: int) -> int:
    """Validate a channel pad; returns the input's channel count."""
    if len(shape) != 3:
        raise DimensionError("pad_channels: expected (H, W, C) input")
    if shape[2] > channels:
        raise DimensionError(f"pad_channels: cannot shrink {shape[2]} -> {channels}")
    return shape[2]


def _check_merge(scales: Param, inputs: list) -> None:
    m = len(inputs)
    if m == 0:
        raise ConfigError("softmerge of zero inputs")
    if scales.value.shape != (m,):
        raise ConfigError(
            f"softmerge: {m} inputs but scales of shape {scales.value.shape}")
    shape = inputs[0].shape
    for node in inputs[1:]:
        if node.shape != shape:
            raise DimensionError(
                f"softmerge: mismatched shapes {inputs[0].shape} vs {node.shape}")


# --- kernels -------------------------------------------------------------------
# Each takes any leading batch shape: maps are (..., H, W, C). The maps are
# small (4x4 to 28x28), so per-call overhead matters as much as arithmetic.


def _conv_same(x: Tensor, w: Tensor):
    """Same-padded stride-1 convolution of `x` (C <= Cin channels) with
    the kernel's leading C input channels; returns output and the im2col
    matrix (saved for the weight gradient).

    For k > 1 the padding is one zero buffer with `x` copied into its
    interior, and the (..., H, W, k, k, C) window view is built directly
    on that buffer's strides. `cols` rows are (dy, dx, c) in C order, one
    row per output pixel. At k=1 there is no window: `cols` is `x` itself
    as one row per pixel, so for a C-contiguous `x` it is a view of it,
    not a copy."""
    k, cout = w.shape[0], w.shape[3]
    *lead, h, wd, c = x.shape
    if k == 1:
        cols = np.ascontiguousarray(x).reshape(-1, c)
    else:
        pad = k // 2
        xp = np.zeros((*lead, h + 2 * pad, wd + 2 * pad, c))
        xp[..., pad:pad + h, pad:pad + wd, :] = x
        *sl, sh, sw, sc = xp.strides
        win = np.ndarray((*lead, h, wd, k, k, c), xp.dtype, buffer=xp,
                         strides=(*sl, sh, sw, sh, sw, sc))
        cols = win.reshape(-1, k * k * c)
    out = (cols @ w[:, :, :c].reshape(-1, cout)).reshape(*lead, h, wd, cout)
    return out, cols


def _maxpool2x2(x: Tensor) -> Tensor:
    """2x2 stride-2 max pool, odd trailing row/column truncated: the
    elementwise max of the four window positions' strided views."""
    h2, w2 = x.shape[-3] // 2 * 2, x.shape[-2] // 2 * 2
    top, bottom = x[..., 0:h2:2, :, :], x[..., 1:h2:2, :, :]
    return np.maximum(
        np.maximum(top[..., 0:w2:2, :], top[..., 1:w2:2, :]),
        np.maximum(bottom[..., 0:w2:2, :], bottom[..., 1:w2:2, :]))


def _activate(kind: str, v: Tensor) -> Tensor:
    if kind == "relu":
        return np.maximum(v, 0.0)
    if kind == "elu":
        return np.where(v > 0, v, np.expm1(v))
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-np.clip(v, -500, 500)))
    if kind == "tanh":
        return np.tanh(v)
    raise ConfigError(f"unknown activation {kind!r}")


def _pad_channels(x: Tensor, channels: int) -> Tensor:
    out = np.zeros((*x.shape[:-1], channels))
    out[..., :x.shape[-1]] = x
    return out


def _softmerge(p: Tensor, values: list) -> Tensor:
    out = np.zeros(values[0].shape)
    for pm, v in zip(p, values):
        out += pm * v
    return out


def backward(graph: CompGraph, loss: CGNode) -> list[Param]:
    """Accumulate d(loss)/d(param) into every reachable Param's .grad and
    return those Params.

    Params used at several sites (or aliased across modules) receive one
    combined contribution; the L2 term l2_strength * value is added once
    per reachable param. Unreachable params are left untouched.
    """
    if not graph.nodes:
        raise StateError("backward before any forward pass")
    if loss not in graph.nodes:  # CGNode has identity equality
        raise StateError("loss node does not belong to this graph")
    if loss.value.size != 1:
        raise StateError("loss must be scalar")

    # Both maps are keyed by the node or Param object itself (identity hash).
    node_grads: dict[CGNode, Tensor] = {loss: np.ones_like(loss.value)}
    param_grads: dict[Param, Tensor] = {}

    for node in reversed(graph.nodes):
        g = node_grads.pop(node, None)
        if g is None or node.vjp is None:
            continue
        for target, tg in node.vjp(g):
            grads = param_grads if type(target) is Param else node_grads
            prev = grads.get(target)
            grads[target] = tg if prev is None else prev + tg

    for p, g in param_grads.items():
        p.grad += g
        if p.l2_strength:
            p.grad += p.l2_strength * p.value
    return list(param_grads)


class ParamBlock:
    """The unique Params of one training call packed into four flat
    float64 buffers (`value`, `grad`, `adam_m`, `adam_v`).

    Packing copies each Param's arrays into the buffers, in list order,
    and rebinds the Param's attributes to shaped views of them, so the
    tape ops, `backward` and checkpoints see ordinary arrays while a
    whole-model operation is one array op. A Param stays in the block
    only while its arrays are written in place; rebinding one of its
    attributes detaches it.
    """

    __slots__ = ("params", "sizes", "value", "grad", "adam_m", "adam_v")

    def __init__(self, params):
        self.params = _unique_params(params)
        self.sizes = np.array([p.value.size for p in self.params], dtype=np.intp)
        total = int(self.sizes.sum())
        for field in ("value", "grad", "adam_m", "adam_v"):
            buf = np.empty(total)
            start = 0
            for p, n in zip(self.params, self.sizes.tolist()):
                view = buf[start:start + n].reshape(p.value.shape)
                view[...] = getattr(p, field)
                setattr(p, field, view)
                start += n
            setattr(self, field, buf)


def zero_grads(block: ParamBlock) -> None:
    """Clear the gradients of a ParamBlock."""
    block.grad.fill(0.0)


def _unique_params(params) -> list[Param]:
    seen: dict[int, Param] = {}
    for p in params:
        seen.setdefault(id(p), p)
    return list(seen.values())


def adam_step(block: ParamBlock, learning_rate: float) -> None:
    """One Adam update over a ParamBlock, which holds each aliased Param
    once, so aliases are updated exactly once.

    The step is atomic: a non-finite gradient anywhere raises before any
    value, moment or step count changes, naming the first bad Param in
    block order. Gradients are cleared afterwards.
    """
    if learning_rate <= 0:
        raise ConfigError(f"learning rate must be positive, got {learning_rate}")
    if not np.isfinite(block.grad).all():
        bad = next(p for p in block.params if not np.isfinite(p.grad).all())
        raise NumericError(f"NaN/Inf gradient in parameter {bad.name!r}")
    # Per-Param bias corrections, computed exactly as a per-Param loop
    # would and repeated over each Param's elements.
    c1, c2 = [], []
    for p in block.params:
        p.step_count += 1
        t = p.step_count
        c1.append(1 - ADAM_BETA1 ** t)
        c2.append(1 - ADAM_BETA2 ** t)
    # m, v and value change in place, each rounding step as in
    # m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * g ** 2
    m, v, g = block.adam_m, block.adam_v, block.grad
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * g ** 2
    m_hat = m / np.repeat(c1, block.sizes)
    v_hat = v / np.repeat(c2, block.sizes)
    block.value -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    g.fill(0.0)
