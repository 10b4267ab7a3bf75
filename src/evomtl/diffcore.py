"""Reverse-mode differentiable compute core.

Tensors are plain float64 numpy arrays (C-order); they carry no graph state
and are safe to copy or ship between processes. All bookkeeping lives in
`CompGraph`, a forward tape owned by exactly one training job at a time.
`Param` is a trainable tensor with its gradient and Adam state attached;
aliased parameters are literally the same object, so one update reaches
every user of the storage.

Layer kinds: dense, conv2d (square kernel, stride 1, zero "same" padding),
maxpool2x2 (stride 2, odd trailing row/column truncated), the four
activations relu/elu/sigmoid/tanh, and inverted dropout. Merging is done
by `softmerge`, a learnable convex combination whose weights are the
softmax of a logit vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, DimensionError, NumericError, StateError

# Exposed so callers can write shape/type contracts against it.
Tensor = np.ndarray

ACTIVATIONS = ("relu", "elu", "sigmoid", "tanh")

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
    shifted = v - np.max(v)
    e = np.exp(shifted)
    return e / e.sum()


def predicted_class(logits: Tensor) -> int:
    """Index of the largest logit. NaN logits raise: argmax would return
    the first NaN's index and score it as a prediction."""
    i = int(np.argmax(logits))
    if math.isnan(logits[i]):
        raise NumericError("NaN logits")
    return i


class Param:
    """Trainable tensor plus gradient and Adam state.

    `shared_id` names the underlying storage: realizations that alias a
    parameter hold the same Param object, and the id makes that visible to
    parameter counting and checkpoints. `l2_strength` is applied as an
    additive gradient term during backward.
    """

    __slots__ = ("name", "value", "grad", "adam_m", "adam_v", "step_count",
                 "l2_strength", "shared_id")

    def __init__(self, name: str, value, l2_strength: float = 0.0,
                 shared_id: str | None = None):
        self.name = name
        self.value = as_tensor(value)
        self.grad = np.zeros_like(self.value)
        self.adam_m = np.zeros_like(self.value)
        self.adam_v = np.zeros_like(self.value)
        self.step_count = 0
        self.l2_strength = float(l2_strength)
        self.shared_id = shared_id

    def copy(self, name: str | None = None) -> "Param":
        """Deep copy with fresh storage (training state included)."""
        p = Param(name or self.name, self.value.copy(),
                  l2_strength=self.l2_strength, shared_id=None)
        p.grad = self.grad.copy()
        p.adam_m = self.adam_m.copy()
        p.adam_v = self.adam_v.copy()
        p.step_count = self.step_count
        return p

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


class ScaleGroup:
    """Softmax-normalised merge scales for one merge point."""

    __slots__ = ("owner", "logits")

    def __init__(self, owner: str, logits: Param):
        if logits.value.ndim != 1 or logits.value.size < 1:
            raise ConfigError("scale logits must be a non-empty vector")
        self.owner = owner
        self.logits = logits

    @staticmethod
    def uniform(owner: str, m: int) -> "ScaleGroup":
        if m < 1:
            raise ConfigError("a merge needs at least one input")
        return ScaleGroup(owner, Param(f"{owner}.scales", np.zeros(m)))

    @property
    def size(self) -> int:
        return self.logits.value.size

    @property
    def weights(self) -> Tensor:
        return softmax(self.logits.value)

    def copy(self) -> "ScaleGroup":
        return ScaleGroup(self.owner, self.logits.copy())


class CGNode:
    """One tape entry: an output tensor and the vjp closure producing
    gradients for its inputs."""

    __slots__ = ("value", "op", "parents", "vjp")

    def __init__(self, value: Tensor, op: str, parents: tuple, vjp):
        self.value = value
        self.op = op
        self.parents = parents
        self.vjp = vjp

    @property
    def shape(self):
        return self.value.shape


class CompGraph:
    """Forward tape for one network evaluation.

    mode is fixed for the graph's lifetime: "train" enables dropout (which
    then needs `rng`), "eval" makes dropout the identity. Nodes are
    appended in execution order, which is also a topological order, so the
    reverse sweep in `backward` needs no sorting.
    """

    def __init__(self, mode: str = "train", rng: np.random.Generator | None = None):
        if mode not in ("train", "eval"):
            raise ConfigError(f"mode must be train or eval, got {mode!r}")
        self.mode = mode
        self.rng = rng
        self.nodes: list[CGNode] = []
        self.params: dict[int, Param] = {}  # insertion-ordered, keyed by id()

    # -- plumbing ---------------------------------------------------------

    def _record(self, op: str, value: Tensor, parents: tuple, vjp) -> CGNode:
        node = CGNode(value, op, parents, vjp)
        self.nodes.append(node)
        return node

    def _use(self, *params: Param):
        for p in params:
            self.params.setdefault(id(p), p)

    def leaf(self, value) -> CGNode:
        """Constant input node (no gradient past it)."""
        return self._record("leaf", as_tensor(value), (), None)

    # -- layers -----------------------------------------------------------

    def dense(self, x: CGNode, w: Param, b: Param) -> CGNode:
        xf = x.value.reshape(-1)
        if w.value.ndim != 2 or w.value.shape[0] != xf.size:
            raise DimensionError(
                f"dense: input of {xf.size} features vs weight {w.value.shape}")
        if b.value.shape != (w.value.shape[1],):
            raise DimensionError("dense: bias shape mismatch")
        self._use(w, b)
        out = xf @ w.value + b.value
        in_shape = x.value.shape

        def vjp(g):
            return ((x, (w.value @ g).reshape(in_shape)),
                    (w, np.outer(xf, g)),
                    (b, g))

        return self._record("dense", out, (x,), vjp)

    def conv2d(self, x: CGNode, w: Param, b: Param) -> CGNode:
        """Stride-1 zero-padded "same" convolution; x is (H, W, Cin),
        w is (k, k, Cin, Cout), b is (Cout,)."""
        if x.value.ndim != 3:
            raise DimensionError(f"conv2d: expected (H, W, C) input, got {x.shape}")
        k, k2, cin, cout = w.value.shape
        if k != k2 or k % 2 != 1:
            raise DimensionError("conv2d: kernel must be square with odd size")
        if x.value.shape[2] != cin:
            raise DimensionError(
                f"conv2d: input has {x.value.shape[2]} channels, kernel expects {cin}")
        if b.value.shape != (cout,):
            raise DimensionError("conv2d: bias shape mismatch")
        self._use(w, b)
        out, cols = _conv_same(x.value, w.value)
        out = out + b.value
        h, wd = x.value.shape[:2]

        def vjp(g):
            gm = g.reshape(h * wd, cout)
            dw = (cols.T @ gm).reshape(w.value.shape)
            db = gm.sum(axis=0)
            # Input gradient is the same-padded convolution of g with the
            # spatially flipped, channel-swapped kernel.
            flipped = np.flip(w.value, axis=(0, 1)).transpose(0, 1, 3, 2)
            dx, _ = _conv_same(g, flipped)
            return ((x, dx), (w, dw), (b, db))

        return self._record("conv2d", out, (x,), vjp)

    def maxpool2x2(self, x: CGNode) -> CGNode:
        squeeze = x.value.ndim == 2
        xv = x.value[..., None] if squeeze else x.value
        if xv.ndim != 3:
            raise DimensionError(f"maxpool2x2: expected 2-D or 3-D input, got {x.shape}")
        h, w, c = xv.shape
        if h < 2 or w < 2:
            raise DimensionError(f"maxpool2x2: input {h}x{w} smaller than the window")
        ho, wo = h // 2, w // 2
        blocks = xv[:ho * 2, :wo * 2, :].reshape(ho, 2, wo, 2, c)
        blocks = blocks.transpose(0, 2, 4, 1, 3).reshape(ho, wo, c, 4)
        arg = blocks.argmax(axis=3)
        out = np.take_along_axis(blocks, arg[..., None], axis=3)[..., 0]
        if squeeze:
            out = out[..., 0]

        def vjp(g):
            gv = g[..., None] if squeeze else g
            db = np.zeros((ho, wo, c, 4))
            np.put_along_axis(db, arg[..., None], gv[..., None], axis=3)
            dx = np.zeros_like(xv)
            dx[:ho * 2, :wo * 2, :] = (
                db.reshape(ho, wo, c, 2, 2).transpose(0, 3, 1, 4, 2)
                .reshape(ho * 2, wo * 2, c))
            return ((x, dx[..., 0] if squeeze else dx),)

        return self._record("maxpool2x2", out, (x,), vjp)

    def activation(self, x: CGNode, kind: str) -> CGNode:
        v = x.value
        if kind == "relu":
            out = np.maximum(v, 0.0)
            dfn = lambda g: g * (v > 0)
        elif kind == "elu":
            out = np.where(v > 0, v, np.expm1(v))
            dfn = lambda g: g * np.where(v > 0, 1.0, out + 1.0)
        elif kind == "sigmoid":
            out = 1.0 / (1.0 + np.exp(-np.clip(v, -500, 500)))
            dfn = lambda g: g * out * (1.0 - out)
        elif kind == "tanh":
            out = np.tanh(v)
            dfn = lambda g: g * (1.0 - out * out)
        else:
            raise ConfigError(f"unknown activation {kind!r}")
        return self._record(kind, out, (x,), lambda g: ((x, dfn(g)),))

    def dropout(self, x: CGNode, rate: float) -> CGNode:
        """Inverted dropout: identity in eval mode, survivor scaling 1/(1-p)
        in train mode."""
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
        if self.mode == "eval" or rate == 0.0:
            return x
        if self.rng is None:
            raise StateError("train-mode dropout needs a seeded rng")
        keep = (self.rng.random(x.value.shape) >= rate) / (1.0 - rate)
        out = x.value * keep
        return self._record("dropout", out, (x,), lambda g: ((x, g * keep),))

    def flatten(self, x: CGNode) -> CGNode:
        shape = x.value.shape
        out = x.value.reshape(-1)
        return self._record("flatten", out, (x,),
                            lambda g: ((x, g.reshape(shape)),))

    def reshape(self, x: CGNode, shape) -> CGNode:
        old = x.value.shape
        out = x.value.reshape(shape)
        return self._record("reshape", out, (x,),
                            lambda g: ((x, g.reshape(old)),))

    def pad_channels(self, x: CGNode, channels: int) -> CGNode:
        """Zero-pad the channel axis of an (H, W, C) tensor up to `channels`."""
        if x.value.ndim != 3:
            raise DimensionError("pad_channels: expected (H, W, C) input")
        c = x.value.shape[2]
        if c > channels:
            raise DimensionError(f"pad_channels: cannot shrink {c} -> {channels}")
        if c == channels:
            return x
        out = np.zeros(x.value.shape[:2] + (channels,))
        out[:, :, :c] = x.value
        return self._record("pad_channels", out, (x,),
                            lambda g: ((x, g[:, :, :c]),))

    # -- merge and loss ----------------------------------------------------

    def softmerge(self, scales: ScaleGroup, inputs: list[CGNode]) -> CGNode:
        m = len(inputs)
        if m == 0:
            raise ConfigError("softmerge of zero inputs")
        if scales.size != m:
            raise ConfigError(f"softmerge: {m} inputs but {scales.size} scales")
        shape = inputs[0].value.shape
        for node in inputs[1:]:
            if node.value.shape != shape:
                raise DimensionError(
                    f"softmerge: mismatched shapes {shape} vs {node.value.shape}")
        self._use(scales.logits)
        p = softmax(scales.logits.value)
        out = np.zeros(shape)
        for pm, node in zip(p, inputs):
            out += pm * node.value

        def vjp(g):
            dots = np.array([np.sum(g * node.value) for node in inputs])
            dlogits = p * (dots - np.dot(p, dots))
            grads = [(node, pm * g) for pm, node in zip(p, inputs)]
            grads.append((scales.logits, dlogits))
            return grads

        return self._record("softmerge", out, tuple(inputs), vjp)

    def cross_entropy(self, logits: CGNode, label: int) -> CGNode:
        """Softmax cross-entropy against one class index; returns a scalar."""
        v = logits.value
        if v.ndim != 1 or v.size < 2:
            raise DimensionError("cross_entropy: logits must be a vector of >= 2")
        from .errors import DataError
        if not 0 <= label < v.size:
            raise DataError(f"label {label} out of range for {v.size} classes")
        shifted = v - np.max(v)
        logz = math.log(np.exp(shifted).sum())
        loss = np.array(logz - shifted[label])
        p = softmax(v)

        def vjp(g):
            d = p.copy()
            d[label] -= 1.0
            return ((logits, g * d),)

        return self._record("cross_entropy", loss, (logits,), vjp)


def _conv_same(x: Tensor, w: Tensor):
    """Same-padded stride-1 convolution; returns output and the im2col
    matrix (saved for the weight gradient).

    The maps are small (4x4 to 28x28), so per-call overhead outweighs the
    arithmetic: the padding is one zero buffer with `x` copied into its
    interior, and the (H, W, k, k, Cin) window view is built directly on
    that buffer's strides. `cols` rows are (dy, dx, cin) in C order, the
    layout `w.reshape(k * k * cin, cout)` expects."""
    k = w.shape[0]
    cin, cout = w.shape[2], w.shape[3]
    h, wd = x.shape[:2]
    pad = k // 2
    xp = np.zeros((h + 2 * pad, wd + 2 * pad, cin), dtype=x.dtype)
    xp[pad:pad + h, pad:pad + wd] = x
    sh, sw, sc = xp.strides
    win = as_strided(xp, shape=(h, wd, k, k, cin),
                     strides=(sh, sw, sh, sw, sc), writeable=False)
    cols = win.reshape(h * wd, k * k * cin)
    out = (cols @ w.reshape(k * k * cin, cout)).reshape(h, wd, cout)
    return out, cols


def apply_layer(graph: CompGraph, kind: str, x: CGNode,
                params: dict | None = None, rate: float | None = None) -> CGNode:
    """Single dispatch surface over every layer kind.

    dense/conv2d read params["w"] and params["b"]; dropout reads `rate`;
    the remaining kinds take the input alone.
    """
    if kind == "dense":
        return graph.dense(x, params["w"], params["b"])
    if kind == "conv2d":
        return graph.conv2d(x, params["w"], params["b"])
    if kind == "maxpool2x2":
        return graph.maxpool2x2(x)
    if kind in ACTIVATIONS:
        return graph.activation(x, kind)
    if kind == "dropout":
        return graph.dropout(x, rate)
    raise ConfigError(f"unknown layer kind {kind!r}")


def backward(graph: CompGraph, loss: CGNode) -> None:
    """Accumulate d(loss)/d(param) into every reachable Param's .grad.

    Params used at several sites (or aliased across modules) receive one
    combined contribution; the L2 term l2_strength * value is added once
    per reachable param. Unreachable params are left untouched.
    """
    if not graph.nodes:
        raise StateError("backward before any forward pass")
    tape_ids = {id(n) for n in graph.nodes}
    if id(loss) not in tape_ids:
        raise StateError("loss node does not belong to this graph")
    if loss.value.size != 1:
        raise StateError("loss must be scalar")

    node_grads: dict[int, Tensor] = {id(loss): np.ones_like(loss.value)}
    param_grads: dict[int, Tensor] = {}
    params_seen: dict[int, Param] = {}

    for node in reversed(graph.nodes):
        g = node_grads.pop(id(node), None)
        if g is None or node.vjp is None:
            continue
        for target, tg in node.vjp(g):
            if isinstance(target, Param):
                key = id(target)
                params_seen[key] = target
                if key in param_grads:
                    param_grads[key] = param_grads[key] + tg
                else:
                    param_grads[key] = tg
            else:
                key = id(target)
                if key in node_grads:
                    node_grads[key] = node_grads[key] + tg
                else:
                    node_grads[key] = tg

    for key, g in param_grads.items():
        p = params_seen[key]
        p.grad += g
        if p.l2_strength:
            p.grad += p.l2_strength * p.value


def zero_grads(params) -> None:
    for p in _unique_params(params):
        p.grad[...] = 0.0


def _unique_params(params) -> list[Param]:
    seen: dict[int, Param] = {}
    for p in params:
        seen.setdefault(id(p), p)
    return list(seen.values())


def adam_step(params, learning_rate: float) -> None:
    """One Adam update over the unique storages in `params`.

    Aliased parameters (same object appearing several times) are updated
    exactly once. Gradients are cleared afterwards.
    """
    if learning_rate <= 0:
        raise ConfigError(f"learning rate must be positive, got {learning_rate}")
    for p in _unique_params(params):
        if not np.all(np.isfinite(p.grad)):
            raise NumericError(f"NaN/Inf gradient in parameter {p.name!r}")
        p.step_count += 1
        t = p.step_count
        p.adam_m = ADAM_BETA1 * p.adam_m + (1 - ADAM_BETA1) * p.grad
        p.adam_v = ADAM_BETA2 * p.adam_v + (1 - ADAM_BETA2) * p.grad ** 2
        m_hat = p.adam_m / (1 - ADAM_BETA1 ** t)
        v_hat = p.adam_v / (1 - ADAM_BETA2 ** t)
        p.value -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        p.grad[...] = 0.0


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    passed: bool
    worst_param: str


def grad_check(builder, tolerance: float, epsilon: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    `builder()` must construct the graph from scratch and return
    (graph, loss_node), closing over the Params it perturbs; it has to be
    deterministic (fixed dropout seed), which is verified by building
    twice.
    """
    g1, l1 = builder()
    g2, l2 = builder()
    if not np.array_equal(l1.value, l2.value):
        raise StateError("grad_check builder is non-deterministic")

    params = _unique_params(g1.params.values())
    zero_grads(params)
    backward(g1, l1)
    analytic = [p.grad.copy() for p in params]
    zero_grads(params)

    def objective():
        # The additive-gradient L2 term corresponds to a 0.5*l2*|v|^2
        # penalty, which the finite-difference objective must include.
        loss = float(builder()[1].value)
        penalty = sum(0.5 * p.l2_strength * float(np.sum(p.value ** 2))
                      for p in params if p.l2_strength)
        return loss + penalty

    max_err = 0.0
    worst = ""
    for p, a in zip(params, analytic):
        flat = p.value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = objective()
            flat[i] = orig - epsilon
            f_minus = objective()
            flat[i] = orig
            num = (f_plus - f_minus) / (2 * epsilon)
            ana = float(a.reshape(-1)[i])
            scale = max(abs(ana), abs(num))
            err = abs(ana - num) if scale < 1e-6 else abs(ana - num) / scale
            if err > max_err:
                max_err = err
                worst = p.name
    return GradCheckReport(max_err, tolerance, max_err <= tolerance, worst)
