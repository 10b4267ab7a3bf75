import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from evomtl.diffcore import (
    BatchForward, CompGraph, Param, ParamBlock, _conv_same, adam_step,
    backward, merge_scales, predicted_class, softmax, zero_grads,
)
from evomtl.errors import (
    ConfigError, DataError, DimensionError, NumericError, StateError,
)
from helpers import grad_check


def rng(seed=0):
    return np.random.default_rng(seed)


# --- forward behaviour ------------------------------------------------------

def test_dense_identity():
    g = CompGraph("eval")
    w = Param("w", np.eye(2))
    b = Param("b", np.zeros(2))
    out = g.dense(g.leaf([1.0, 2.0]), w, b)
    assert np.allclose(out.value, [1.0, 2.0])


def test_conv2d_same_padding_counts_overlap():
    g = CompGraph("eval")
    w = Param("w", np.ones((3, 3, 1, 1)))
    b = Param("b", np.zeros(1))
    out = g.conv2d(g.leaf(np.ones((3, 3, 1))), w, b)
    assert out.value[1, 1, 0] == 9.0
    assert out.value[0, 0, 0] == 4.0


def _conv_same_reference(x, w):
    """The np.pad + sliding_window_view im2col that `_conv_same` replaced."""
    k = w.shape[0]
    cin, cout = w.shape[2], w.shape[3]
    h, wd = x.shape[:2]
    pad = k // 2
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    win = sliding_window_view(xp, (k, k), axis=(0, 1))  # (H, W, Cin, k, k)
    cols = np.ascontiguousarray(win.transpose(0, 1, 3, 4, 2)).reshape(
        h * wd, k * k * cin)
    out = (cols @ w.reshape(k * k * cin, cout)).reshape(h, wd, cout)
    return out, cols


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("cin", [1, 16])
@pytest.mark.parametrize("hw", [(8, 8), (4, 4), (5, 7), (9, 3)])
@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_conv_same_bit_identical_to_reference(k, cin, hw, layout):
    r = rng(k * 100 + cin)
    h, wd = hw
    cout = 6
    if layout == "contiguous":
        x = r.normal(size=(h, wd, cin))
        w = r.normal(size=(k, k, cin, cout))
    else:
        # a channel slice, like the g a pad_channels vjp hands to the
        # conv vjp, and the flipped, channel-swapped kernel of the dx conv
        x = r.normal(size=(h, wd, cin + 3))[:, :, :cin]
        w = np.flip(r.normal(size=(k, k, cout, cin)),
                    axis=(0, 1)).transpose(0, 1, 3, 2)
        assert not x.flags.c_contiguous
    out, cols = _conv_same(x, w)
    ref_out, ref_cols = _conv_same_reference(x, w)
    assert cols.flags.c_contiguous
    assert np.array_equal(cols, ref_cols)
    assert np.array_equal(out, ref_out)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("c, cin", [(1, 8), (3, 8), (8, 8)])
@pytest.mark.parametrize("side", [4, 7, 12, 28])
def test_narrow_conv_matches_pad_then_conv(k, c, cin, side):
    r = rng(k * 1000 + c * 100 + side)
    cout = 5
    x = r.normal(size=(side, side, c))
    w = Param("w", r.normal(size=(k, k, cin, cout)))
    b = Param("b", r.normal(size=cout))
    xp = np.zeros((side, side, cin))
    xp[:, :, :c] = x
    ref_out, ref_cols = _conv_same_reference(xp, w.value)
    ref_out += b.value
    gout = r.normal(size=(side, side, cout))
    gm = gout.reshape(-1, cout)
    ref_dw = (ref_cols.T @ gm).reshape(w.value.shape)
    ref_dx, _ = _conv_same_reference(
        gout, w.value[::-1, ::-1].transpose(0, 1, 3, 2))

    g = CompGraph("train", r)
    # a non-leaf input, so the vjp computes an input gradient
    xn = g.reshape(g.leaf(x), x.shape)
    node = g.conv2d(xn, w, b)
    grads = {id(t): tg for t, tg in node.vjp(gout)}
    np.testing.assert_allclose(node.value, ref_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(grads[id(w)], ref_dw, rtol=0, atol=1e-12)
    assert not grads[id(w)][:, :, c:].any()
    np.testing.assert_allclose(grads[id(b)], gm.sum(axis=0), rtol=0, atol=1e-12)
    assert grads[id(xn)].shape == x.shape
    np.testing.assert_allclose(grads[id(xn)], ref_dx[:, :, :c], rtol=0,
                               atol=1e-12)

    f = BatchForward()
    batch = np.stack([x, -x])
    out = f.conv2d(f.leaf(batch), w, b).value
    np.testing.assert_allclose(out[0], ref_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out[1], 2 * b.value - ref_out, rtol=0,
                               atol=1e-12)


def test_grad_check_narrow_convs():
    # the image is 1 channel against a 2-channel kernel; the second conv
    # reads a 2-channel relu against a 4-channel kernel, so its input
    # gradient reaches w1
    r = rng(21)
    w1 = Param("w1", 0.5 * r.normal(size=(3, 3, 2, 2)))
    b1 = Param("b1", 0.1 * r.normal(size=2))
    w2 = Param("w2", 0.5 * r.normal(size=(3, 3, 4, 3)))
    b2 = Param("b2", 0.1 * r.normal(size=3))
    w3 = Param("w3", 0.5 * r.normal(size=(3 * 5 * 5, 3)), l2_strength=1e-3)
    b3 = Param("b3", np.zeros(3))
    x = r.normal(size=(5, 5, 1))

    def builder():
        g = CompGraph("train", rng(11))
        h = g.activation(g.conv2d(g.leaf(x), w1, b1), "relu")
        h = g.activation(g.conv2d(h, w2, b2), "tanh")
        return g, g.cross_entropy(g.dense(h, w3, b3), 1)

    report = grad_check(builder, [w1, b1, w2, b2, w3, b3], 1e-4)
    assert report.passed, report
    g, loss = builder()
    zero_grads(ParamBlock([w1, w2]))
    backward(g, loss)
    assert not w1.grad[:, :, 1:].any() and not w2.grad[:, :, 2:].any()


@pytest.mark.parametrize("lead", [(), (3,)])
def test_k1_conv_cols_alias_a_contiguous_input(lead):
    r = rng(4)
    x = r.normal(size=(*lead, 5, 6, 4))
    w = r.normal(size=(1, 1, 4, 3))
    out, cols = _conv_same(x, w)
    assert np.shares_memory(cols, x)
    if not lead:
        ref_out, ref_cols = _conv_same_reference(x, w)
        assert np.array_equal(cols, ref_cols)
        assert np.array_equal(out, ref_out)
    # a strided input is copied, and k=3 always builds its own buffer
    assert not np.shares_memory(_conv_same(x[..., :2], w)[1], x)
    assert not np.shares_memory(
        _conv_same(x, r.normal(size=(3, 3, 4, 3)))[1], x)


def test_no_tape_op_writes_a_node_value_in_place():
    # k=1 convs keep a view of their input for the weight gradient, so a
    # node value written after its op ran would corrupt that gradient
    r = rng(8)
    w1 = Param("w1", r.normal(size=(1, 1, 3, 3)))
    w3 = Param("w3", r.normal(size=(3, 3, 3, 3)))
    b = Param("b", r.normal(size=3))
    wd = Param("wd", r.normal(size=(12, 4)), l2_strength=1e-3)
    bd = Param("bd", r.normal(size=4))
    g = CompGraph("train", rng(1))
    x = g.leaf(r.normal(size=(4, 4, 2)))
    h = g.reshape(g.conv2d(x, w1, b), (4, 4, 3))
    a = g.activation(g.conv2d(h, w1, b), "relu")
    c = g.activation(g.conv2d(h, w3, b), "elu")
    p = g.activation(g.pad_channels(x, 3), "sigmoid")
    m = g.softmerge(Param("s", r.normal(size=3)), [a, c, p])
    h = g.dropout(g.maxpool2x2(g.activation(m, "tanh")), 0.25)
    loss = g.cross_entropy(g.dense(h, wd, bd), 2)
    before = [n.value.copy() for n in g.nodes]
    backward(g, loss)
    assert all(np.array_equal(n.value, v) for n, v in zip(g.nodes, before))


def test_conv_input_gradient_only_for_non_leaf_inputs(monkeypatch):
    import evomtl.diffcore as dc
    calls = []
    real = dc._conv_same

    def counting(x, w):
        calls.append(x.shape)
        return real(x, w)

    monkeypatch.setattr(dc, "_conv_same", counting)
    w = Param("w", np.ones((3, 3, 4, 2)))
    b = Param("b", np.zeros(2))
    g = CompGraph("train", rng())
    leaf = g.leaf(np.ones((4, 4, 1)))
    node = g.conv2d(leaf, w, b)
    assert len(calls) == 1
    grads = node.vjp(np.ones((4, 4, 2)))
    assert len(calls) == 1
    assert [t for t, _ in grads] == [w, b]
    calls.clear()
    inner = g.activation(leaf, "relu")
    node = g.conv2d(inner, w, b)
    assert len(calls) == 1
    grads = node.vjp(np.ones((4, 4, 2)))
    assert calls == [(4, 4, 1), (4, 4, 2)]
    assert grads[0][0] is inner and grads[0][1].shape == (4, 4, 1)


def test_predicted_class_raises_on_nan_logits():
    assert predicted_class(np.array([0.1, 2.0, -1.0])) == 1
    for logits in ([np.nan, 1.0, 0.0], [0.0, 1.0, np.nan]):
        with pytest.raises(NumericError):
            predicted_class(np.array(logits))


def test_maxpool_block_and_truncation():
    g = CompGraph("eval")
    out = g.maxpool2x2(g.leaf([[[1.0], [2.0]], [[3.0], [4.0]]]))
    assert out.value.tolist() == [[[4.0]]]
    # odd trailing row/column dropped
    x = np.arange(15.0).reshape(5, 3, 1)
    out = g.maxpool2x2(g.leaf(x))
    assert out.shape == (2, 1, 1)
    assert out.value[0, 0, 0] == 4.0  # max of rows 0-1, col 0-1


def _maxpool_reference(x, g):
    """The take_along_axis / put_along_axis max-pool the tape replaced:
    pooled x and the input gradient for output gradient g."""
    h, w, c = x.shape
    ho, wo = h // 2, w // 2
    blocks = x[:ho * 2, :wo * 2, :].reshape(ho, 2, wo, 2, c)
    blocks = blocks.transpose(0, 2, 4, 1, 3).reshape(ho, wo, c, 4)
    arg = blocks.argmax(axis=3)
    out = np.take_along_axis(blocks, arg[..., None], axis=3)[..., 0]
    db = np.zeros((ho, wo, c, 4))
    np.put_along_axis(db, arg[..., None], g[..., None], axis=3)
    dx = np.zeros_like(x)
    dx[:ho * 2, :wo * 2, :] = (
        db.reshape(ho, wo, c, 2, 2).transpose(0, 3, 1, 4, 2)
        .reshape(ho * 2, wo * 2, c))
    return out, dx


@pytest.mark.parametrize("shape", [(8, 8, 16), (5, 7, 3), (2, 3, 1), (6, 4, 1)])
def test_maxpool_bit_identical_to_reference(shape):
    r = rng(len(shape) * 10 + shape[0])
    x = np.maximum(r.normal(size=shape), 0.0)  # ties at 0 after a relu
    g = CompGraph("train", r)
    node = g.maxpool2x2(g.leaf(x))
    gout = r.normal(size=node.shape)
    ((_, dx),) = node.vjp(gout)
    ref_out, ref_dx = _maxpool_reference(x, gout)
    assert node.value.tobytes() == ref_out.tobytes()
    assert dx.tobytes() == ref_dx.tobytes()
    assert dx.shape == x.shape
    # the batched forward pools every example the same way
    batch = np.stack([x, x[::-1].copy()])
    pooled = BatchForward().maxpool2x2(BatchForward().leaf(batch)).value
    assert pooled[0].tobytes() == ref_out.tobytes()
    assert pooled[1].tobytes() == _maxpool_reference(x[::-1], gout)[0].tobytes()


# --- frozen references of the per-call kernels -------------------------------
# The tape conv and max-pool as they were before k=1 convs became a reshape
# and the max-pool forward stopped taking an argmax. The new kernels must
# match them byte for byte, signed zeros included.


def _conv_same_window_reference(x, w):
    """`_conv_same` with the window view built at every k, k=1 included
    (there on `x`'s own strides)."""
    k, cout = w.shape[0], w.shape[3]
    *lead, h, wd, c = x.shape
    pad = k // 2
    if pad:
        xp = np.zeros((*lead, h + 2 * pad, wd + 2 * pad, c))
        xp[..., pad:pad + h, pad:pad + wd, :] = x
    else:
        xp = np.ascontiguousarray(x)
    *sl, sh, sw, sc = xp.strides
    win = np.ndarray((*lead, h, wd, k, k, c), xp.dtype, buffer=xp,
                     strides=(*sl, sh, sw, sh, sw, sc))
    cols = win.reshape(-1, k * k * c)
    out = (cols @ w[:, :, :c].reshape(-1, cout)).reshape(*lead, h, wd, cout)
    return out, cols


def _tape_conv_reference(x, w, b, g, leaf):
    """out, dw, db and dx (None for a leaf input) of the tape conv2d."""
    out, cols = _conv_same_window_reference(x, w)
    out += b
    h, wd, c = x.shape
    k, _, cin, cout = w.shape
    gm = g.reshape(h * wd, cout)
    dw = (cols.T @ gm).reshape(k, k, c, cout)
    if c < cin:
        dw = np.concatenate((dw, np.zeros((k, k, cin - c, cout))), axis=2)
    dx = None if leaf else _conv_same_window_reference(
        g, w[::-1, ::-1, :c].transpose(0, 1, 3, 2))[0]
    return out, dw, gm.sum(axis=0), dx


@pytest.mark.parametrize("side", [1, 2, 4, 8, 28])
@pytest.mark.parametrize("c, cin", [(16, 16), (8, 16)],
                         ids=["c=cin", "c<cin"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("leaf", [True, False], ids=["leaf", "inner"])
@pytest.mark.parametrize("g_layout", ["contiguous", "sliced"])
def test_tape_conv_bit_identical_to_frozen_reference(side, c, cin, k, leaf,
                                                     g_layout):
    r = rng(side * 100 + c * 10 + k)
    cout = 8
    x = r.normal(size=(side, side, c))
    w = Param("w", r.normal(size=(k, k, cin, cout)))
    b = Param("b", r.normal(size=cout))
    gout = r.normal(size=(side, side, cout + 2))[:, :, :cout]
    if g_layout == "contiguous":
        gout = gout.copy()
    graph = CompGraph("train", r)
    xn = graph.leaf(x) if leaf else graph.reshape(graph.leaf(x), x.shape)
    node = graph.conv2d(xn, w, b)
    grads = {id(t): tg for t, tg in node.vjp(gout)}
    out, dw, db, dx = _tape_conv_reference(x, w.value, b.value, gout, leaf)
    assert node.value.tobytes() == out.tobytes()
    assert grads[id(w)].tobytes() == dw.tobytes()
    assert grads[id(b)].tobytes() == db.tobytes()
    if leaf:
        assert id(xn) not in grads
    else:
        assert grads[id(xn)].tobytes() == dx.tobytes()
    # the batched forward runs the same kernel over a leading batch axis
    batch = r.normal(size=(3, side, side, c))
    got, got_cols = _conv_same(batch, w.value)
    ref, ref_cols = _conv_same_window_reference(batch, w.value)
    assert got.tobytes() == ref.tobytes()
    assert got_cols.tobytes() == ref_cols.tobytes()


def _tape_maxpool_reference(x, g):
    """The tape maxpool2x2 whose forward took each window's argmax:
    pooled x and the input gradient for output gradient g."""
    h2, w2 = x.shape[0] // 2 * 2, x.shape[1] // 2 * 2
    top, bottom = x[0:h2:2], x[1:h2:2]
    out = np.maximum(np.maximum(top[:, 0:w2:2], top[:, 1:w2:2]),
                     np.maximum(bottom[:, 0:w2:2], bottom[:, 1:w2:2]))
    ho, wo, c = out.shape
    blocks = x[:ho * 2, :wo * 2, :].reshape(ho, 2, wo, 2, c)
    arg = blocks.transpose(0, 2, 4, 1, 3).reshape(ho, wo, c, 4).argmax(axis=3)
    db = np.where(np.arange(4) == arg[..., None], g[..., None], 0.0)
    dx = np.zeros_like(x)
    dx[:ho * 2, :wo * 2, :] = (db.reshape(ho, wo, c, 2, 2)
                               .transpose(0, 3, 1, 4, 2)
                               .reshape(ho * 2, wo * 2, c))
    return out, dx


def _every_window(values):
    """A (32, 32) map whose 256 2x2 windows hold every 4-tuple of the four
    `values`: 2-, 3- and 4-way ties at every position pattern, and
    all-negative windows when the values allow."""
    combos = np.array(np.meshgrid(*[values] * 4, indexing="ij"))
    combos = combos.reshape(4, -1).T
    return (combos.reshape(16, 16, 2, 2).transpose(0, 2, 1, 3)
            .reshape(32, 32))


@pytest.mark.parametrize("values", [
    (-2.0, -1.0, 0.0, 1.0),
    (-3.0, -2.0, -1.5, -1.0),  # every window all-negative
    (-0.0, 0.0, 0.5, 0.5),  # signed zeros compare equal
])
@pytest.mark.parametrize("shape", ["3-D", "2-D", "odd-sides", "channels"])
def test_tape_maxpool_bit_identical_to_frozen_reference(values, shape):
    r = rng(5)
    m = _every_window(values)
    if shape == "3-D":
        x = m[..., None]
    elif shape == "2-D":  # one channel, each window transposed
        x = m.T[..., None]
    elif shape == "odd-sides":  # a trailing row and column are dropped
        x = np.pad(m, ((0, 1), (0, 1)), constant_values=9.0)[..., None]
    else:  # each channel a different shuffle of the windows
        x = np.stack([m, m[::-1], m.T, m[:, ::-1]], axis=-1)
    graph = CompGraph("train", r)
    node = graph.maxpool2x2(graph.leaf(x))
    gout = r.normal(size=node.shape)
    ((_, dx),) = node.vjp(gout)
    out, ref_dx = _tape_maxpool_reference(x, gout)
    assert node.value.tobytes() == out.tobytes()
    assert dx.shape == x.shape
    assert dx.tobytes() == ref_dx.tobytes()
    # exactly one position of each window receives its gradient
    assert np.count_nonzero(dx) == gout.size


def test_predicted_class_of_a_batch():
    logits = np.array([[0.1, 2.0, -1.0], [3.0, 0.0, 3.0], [-1.0, -2.0, -0.5]])
    assert predicted_class(logits).tolist() == [1, 0, 2]
    logits[2, 1] = np.nan
    with pytest.raises(NumericError):
        predicted_class(logits)


def _one_example(forward, value):
    """Input node holding one example: as is on the tape, as a batch of
    one on the batched forward."""
    value = np.asarray(value, dtype=np.float64)
    if isinstance(forward, BatchForward):
        value = value[None]
    return forward.leaf(value)


@pytest.mark.parametrize("make", [lambda: CompGraph("eval"), BatchForward],
                         ids=["tape", "batched"])
def test_both_forwards_make_the_same_checks(make):
    f = make()
    x = _one_example(f, np.ones((4, 4, 2)))
    w3, b2 = Param("w", np.ones((3, 3, 2, 2))), Param("b", np.zeros(2))
    with pytest.raises(NumericError):
        _one_example(f, [[np.nan, 1.0]])
    with pytest.raises(DimensionError):
        f.conv2d(_one_example(f, np.ones((4, 4))), w3, b2)
    with pytest.raises(DimensionError):
        f.conv2d(x, Param("w", np.ones((2, 2, 2, 2))), b2)  # even kernel
    with pytest.raises(DimensionError):
        f.conv2d(x, Param("w", np.ones((3, 3, 1, 2))), b2)  # channels
    with pytest.raises(DimensionError):
        f.conv2d(x, w3, Param("b", np.zeros(3)))
    with pytest.raises(DimensionError):
        f.dense(x, Param("w", np.ones((31, 2))), b2)
    with pytest.raises(DimensionError):
        f.dense(x, Param("w", np.ones((32, 2))), Param("b", np.zeros(3)))
    with pytest.raises(DimensionError):
        f.maxpool2x2(_one_example(f, np.ones((1, 4, 2))))
    with pytest.raises(DimensionError):
        f.maxpool2x2(_one_example(f, np.ones((4, 4, 2, 1))))
    with pytest.raises(DimensionError):
        f.pad_channels(x, 1)
    with pytest.raises(DimensionError):
        f.pad_channels(_one_example(f, np.ones(4)), 3)
    with pytest.raises(ConfigError):
        f.dropout(x, 1.0)
    with pytest.raises(ConfigError):
        f.activation(x, "swish")
    y = _one_example(f, np.ones((4, 4, 3)))
    with pytest.raises(DimensionError):
        f.softmerge(merge_scales("s", 2), [x, y])
    with pytest.raises(ConfigError):
        f.softmerge(merge_scales("s", 3), [x, x])
    with pytest.raises(ConfigError):
        f.softmerge(merge_scales("s", 1), [])
    assert f.dropout(x, 0.5) is x
    assert f.pad_channels(x, 2) is x
    assert f.pad_channels(x, 5).shape == (4, 4, 5)
    assert f.reshape(x, (2, 16)).shape == (2, 16)
    assert f.dense(x, Param("w", np.ones((32, 3))), Param("b", np.zeros(3))
                   ).shape == (3,)


def test_batch_forward_runs_a_batch_of_no_examples():
    # networks are sized by their forward on an empty batch, which must
    # make the same checks as a real one
    f = BatchForward()
    x = f.leaf(np.zeros((0, 4, 4, 2)))
    assert f.reshape(x, (32,)).value.shape == (0, 32)
    out = f.dense(x, Param("w", np.ones((32, 3))), Param("b", np.zeros(3)))
    assert out.value.shape == (0, 3) and out.shape == (3,)
    with pytest.raises(DimensionError):
        f.dense(x, Param("w", np.ones((31, 3))), Param("b", np.zeros(3)))
    y = f.conv2d(f.maxpool2x2(x), Param("w", np.ones((3, 3, 2, 5))),
                 Param("b", np.zeros(5)))
    assert y.value.shape == (0, 2, 2, 5)
    z = f.softmerge(merge_scales("s", 2), [f.pad_channels(x, 5),
                                           f.activation(f.pad_channels(x, 5),
                                                        "elu")])
    assert f.reshape(f.maxpool2x2(z), (20,)).value.shape == (0, 20)


def test_dropout_eval_is_identity_and_train_scales():
    g = CompGraph("eval")
    x = g.leaf(np.ones(1000))
    assert g.dropout(x, 0.4) is x
    gt = CompGraph("train", rng(3))
    out = gt.dropout(gt.leaf(np.ones(1000)), 0.4)
    kept = out.value != 0
    assert np.allclose(out.value[kept], 1.0 / 0.6)
    assert 0.45 < kept.mean() < 0.75


def test_dropout_rate_validation():
    g = CompGraph("train", rng())
    with pytest.raises(ConfigError):
        g.dropout(g.leaf([1.0]), 1.0)
    with pytest.raises(ConfigError):
        g.dropout(g.leaf([1.0]), -0.1)


def test_softmerge_uniform_is_mean():
    g = CompGraph("eval")
    sg = merge_scales("m", 2)
    out = g.softmerge(sg, [g.leaf([1.0, 2.0]), g.leaf([3.0, 4.0])])
    assert np.allclose(out.value, [2.0, 3.0])


def test_softmerge_singleton_passthrough():
    g = CompGraph("eval")
    sg = Param("s", np.array([7.3]))
    t = np.array([1.5, -2.0, 0.25])
    out = g.softmerge(sg, [g.leaf(t)])
    assert np.allclose(out.value, t)


def test_softmerge_hand_weights():
    # softmax(ln 3, 0) = (0.75, 0.25) so merge of [4] and [0] gives [3]
    g = CompGraph("eval")
    sg = Param("s", np.array([math.log(3.0), 0.0]))
    out = g.softmerge(sg, [g.leaf([4.0]), g.leaf([0.0])])
    assert np.allclose(out.value, [3.0])


def test_softmerge_errors():
    g = CompGraph("eval")
    with pytest.raises(ConfigError):
        g.softmerge(merge_scales("m", 1), [])
    with pytest.raises(DimensionError):
        g.softmerge(merge_scales("m", 2),
                    [g.leaf([1.0]), g.leaf([1.0, 2.0])])
    with pytest.raises(ConfigError):
        merge_scales("m", 0)
    # two logits, but not shaped (2,)
    with pytest.raises(ConfigError):
        g.softmerge(Param("s", np.zeros((2, 1))), [g.leaf([1.0]), g.leaf([2.0])])


def test_cross_entropy_values():
    g = CompGraph("eval")
    loss = g.cross_entropy(g.leaf(np.zeros(4)), 0)
    assert abs(float(loss.value) - math.log(4)) < 1e-12
    loss = g.cross_entropy(g.leaf([10.0, -10.0]), 0)
    assert abs(float(loss.value) - 2.061e-9) < 1e-11
    with pytest.raises(DataError):
        g.cross_entropy(g.leaf([0.0, 0.0]), 2)


def test_cross_entropy_gradient_uniform():
    g = CompGraph("train", rng())
    x = g.leaf([0.0, 0.0])
    loss = g.cross_entropy(x, 0)
    backward(g, loss)
    # gradient wrt the logits node: softmax - onehot = (-0.5, +0.5)
    # recover it via a dense layer feeding the logits
    g2 = CompGraph("train", rng())
    w = Param("w", np.eye(2))
    b = Param("b", np.zeros(2))
    logits = g2.dense(g2.leaf([0.0, 0.0]), w, b)
    backward(g2, g2.cross_entropy(logits, 0))
    assert np.allclose(b.grad, [-0.5, 0.5])


# --- backward / gradients ---------------------------------------------------

def make_builder_dense(seed=1):
    r = rng(seed)
    w = Param("w", r.normal(size=(6, 3)), l2_strength=1e-3)
    b = Param("b", r.normal(size=3))
    x = r.normal(size=6)

    def builder():
        g = CompGraph("train", rng(seed + 100))
        h = g.dense(g.leaf(x), w, b)
        h = g.activation(h, "relu")
        return g, g.cross_entropy(h, 1)

    return builder, [w, b]


def test_backward_matches_finite_differences_dense():
    report = grad_check(*make_builder_dense(), 1e-4)
    assert report.passed, report


def test_backward_unreachable_param_zero():
    w = Param("w", np.eye(2))
    b = Param("b", np.zeros(2))
    unused = Param("u", np.ones(4))
    g = CompGraph("train", rng())
    out = g.dense(g.leaf([1.0, 2.0]), w, b)
    loss = g.cross_entropy(out, 0)
    zero_grads(ParamBlock([w, b, unused]))
    backward(g, loss)
    assert np.allclose(unused.grad, 0.0)
    assert not np.allclose(w.grad, 0.0)


def test_backward_l2_term():
    w = Param("w", np.full((2, 2), 2.0), l2_strength=0.5)
    b = Param("b", np.zeros(2))
    g = CompGraph("train", rng())
    # loss independent of w except through l2? no: l2 applies only if reachable
    out = g.dense(g.leaf([0.0, 0.0]), w, b)
    loss = g.cross_entropy(out, 0)
    backward(g, loss)
    # data gradient is zero (zero input), so grad == l2 * value
    assert np.allclose(w.grad, 0.5 * w.value)


def test_backward_before_forward_raises():
    g = CompGraph("train", rng())
    fake = CompGraph("train", rng()).leaf([1.0])
    with pytest.raises(StateError):
        backward(g, fake)


def test_backward_foreign_or_nonscalar_loss():
    g = CompGraph("train", rng())
    node = g.leaf([1.0, 2.0])
    with pytest.raises(StateError):
        backward(g, node)  # non-scalar


def test_softmerge_logits_gradient_finite_diff():
    r = rng(5)
    logits = Param("s", r.normal(size=3))
    xs = [r.normal(size=(4,)) for _ in range(3)]
    w = Param("w", r.normal(size=(4, 2)))
    b = Param("b", np.zeros(2))

    def builder():
        g = CompGraph("train", rng(9))
        merged = g.softmerge(logits, [g.leaf(x) for x in xs])
        return g, g.cross_entropy(g.dense(merged, w, b), 0)

    report = grad_check(builder, [logits, w, b], 1e-4)
    assert report.passed, report


def test_grad_check_catches_a_dropped_softmerge_gradient(monkeypatch):
    # softmerge that emits no (scales, dlogits) entry: the loss still
    # moves with the logits, but backward never reaches them
    r = rng(5)
    logits = Param("s", r.normal(size=3))
    xs = [r.normal(size=(4,)) for _ in range(3)]
    w = Param("w", r.normal(size=(4, 2)))
    b = Param("b", np.zeros(2))
    orig = CompGraph.softmerge

    def softmerge_without_logit_gradient(self, scales, inputs):
        node = orig(self, scales, inputs)
        real_vjp = node.vjp
        node.vjp = lambda g: [(t, tg) for t, tg in real_vjp(g)
                              if t is not scales]
        return node

    monkeypatch.setattr(CompGraph, "softmerge",
                        softmerge_without_logit_gradient)

    def builder():
        g = CompGraph("train", rng(9))
        merged = g.softmerge(logits, [g.leaf(x) for x in xs])
        return g, g.cross_entropy(g.dense(merged, w, b), 0)

    report = grad_check(builder, [logits, w, b], 1e-4)
    assert not report.passed
    assert report.unreached == ["s"] and report.worst_param == "s"


def test_grad_check_conv_pool_net():
    r = rng(7)
    w1 = Param("w1", 0.5 * r.normal(size=(3, 3, 1, 2)))
    b1 = Param("b1", np.zeros(2))
    w2 = Param("w2", 0.5 * r.normal(size=(8, 3)))
    b2 = Param("b2", np.zeros(3))
    x = r.normal(size=(4, 4, 1))

    def builder():
        g = CompGraph("train", rng(11))
        h = g.conv2d(g.leaf(x), w1, b1)
        h = g.activation(h, "elu")
        h = g.maxpool2x2(h)
        h = g.dense(h, w2, b2)
        return g, g.cross_entropy(h, 2)

    report = grad_check(builder, [w1, b1, w2, b2], 1e-4)
    assert report.passed, report


def test_grad_check_detects_corruption(monkeypatch):
    builder, params = make_builder_dense(2)
    orig = CompGraph.dense

    def corrupt_dense(self, x, w, b):
        node = orig(self, x, w, b)
        real_vjp = node.vjp
        node.vjp = lambda g: [(t, -tg if t is w else tg) for t, tg in real_vjp(g)]
        return node

    monkeypatch.setattr(CompGraph, "dense", corrupt_dense)
    report = grad_check(builder, params, 1e-4)
    assert not report.passed


def test_grad_check_rejects_nondeterministic_builder():
    state = {"n": 0}

    def builder():
        state["n"] += 1
        g = CompGraph("train", rng(state["n"]))
        w = Param("w", np.ones((2, 16)))
        b = Param("b", np.linspace(0, 1, 16))
        h = g.dropout(g.dense(g.leaf([1.0, 1.0]), w, b), 0.5)
        return g, g.cross_entropy(h, 0)

    with pytest.raises(StateError):
        grad_check(builder, [], 1e-4)


# --- adam -------------------------------------------------------------------

def test_adam_zero_grad_keeps_value():
    p = Param("p", np.array([1.0, -2.0]))
    adam_step(ParamBlock([p]), 0.1)
    assert np.allclose(p.value, [1.0, -2.0])
    assert p.step_count == 1


def test_adam_first_step_hand_value():
    p = Param("p", np.array([1.0]))
    p.grad[...] = 2.0
    adam_step(ParamBlock([p]), 0.1)
    # bias-corrected first step moves by ~lr * sign(grad)
    assert abs(p.value[0] - 0.9) < 1e-7
    assert np.allclose(p.grad, 0.0)  # cleared


def test_adam_shared_storage_updated_once():
    p = Param("p", np.array([1.0]))
    p.grad[...] = 2.0
    adam_step(ParamBlock([p, p, p]), 0.1)  # aliases: same object listed thrice
    assert p.step_count == 1
    assert abs(p.value[0] - 0.9) < 1e-7


def test_adam_nan_raises():
    p = Param("p", np.array([1.0]))
    p.grad[...] = np.nan
    with pytest.raises(NumericError) as err:
        adam_step(ParamBlock([p]), 0.1)
    assert "p" in str(err.value)


def test_adam_nan_leaves_every_param_untouched():
    r = rng(41)
    params = [Param(name, r.normal(size=shape))
              for name, shape in (("a", (2, 3)), ("b", (4,)), ("c", (3,)))]
    params[0].step_count = 2
    for p in params:
        p.grad[...] = r.normal(size=p.value.shape)
        p.adam_m[...] = r.normal(size=p.value.shape)
        p.adam_v[...] = r.random(p.value.shape)
    params[2].grad[1] = np.nan
    fields = ("value", "grad", "adam_m", "adam_v")
    before = [{f: getattr(p, f).tobytes() for f in fields} for p in params]
    with pytest.raises(NumericError) as err:
        adam_step(ParamBlock(params), 0.1)
    assert "'c'" in str(err.value)
    for p, saved in zip(params, before):
        assert {f: getattr(p, f).tobytes() for f in fields} == saved
    assert [p.step_count for p in params] == [2, 0, 0]
    params[1].grad[0] = np.inf  # the first bad Param in list order is named
    with pytest.raises(NumericError, match="'b'"):
        adam_step(ParamBlock(params), 0.1)


def test_param_block_packs_each_storage_once_as_views():
    r = rng(42)
    w = Param("w", r.normal(size=(3, 3, 2, 2)))
    b = Param("b", r.normal(size=2))
    for p in (w, b):
        p.grad[...] = r.normal(size=p.value.shape)
        p.adam_m[...] = r.normal(size=p.value.shape)
        p.adam_v[...] = r.random(p.value.shape)
    fields = ("value", "grad", "adam_m", "adam_v")
    before = {(p.name, f): getattr(p, f).copy() for p in (w, b) for f in fields}
    block = ParamBlock([w, b, w])  # w listed again as an alias
    assert block.params == [w, b]
    assert block.value.size == w.value.size + b.value.size == 38
    for p in (w, b):
        for f in fields:
            arr = getattr(p, f)
            assert arr.shape == before[(p.name, f)].shape
            assert np.shares_memory(arr, getattr(block, f))
            assert arr.tobytes() == before[(p.name, f)].tobytes()
    block.grad[...] = 1.0  # one buffer write reaches every Param
    assert np.all(w.grad == 1.0) and np.all(b.grad == 1.0)


def test_param_alias_bit_exact():
    p = Param("p", np.arange(4.0))
    users = [p, p]  # one storage seen by two realizations
    users[0].grad[...] = 1.0
    adam_step(ParamBlock(users), 0.05)
    assert users[0].value is users[1].value
    assert np.array_equal(users[0].value, users[1].value)


def _backward_reference(graph, loss):
    """The id-keyed backward sweep the identity-keyed one replaced."""
    tape_ids = {id(n) for n in graph.nodes}
    assert id(loss) in tape_ids
    node_grads = {id(loss): np.ones_like(loss.value)}
    param_grads = {}
    params_seen = {}
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


def _adam_step_reference(params, learning_rate):
    """The expression-form Adam update the in-place one replaced."""
    seen = {}
    for p in params:
        seen.setdefault(id(p), p)
    for p in seen.values():
        p.step_count += 1
        t = p.step_count
        p.adam_m = 0.9 * p.adam_m + (1 - 0.9) * p.grad
        p.adam_v = 0.999 * p.adam_v + (1 - 0.999) * p.grad ** 2
        m_hat = p.adam_m / (1 - 0.9 ** t)
        v_hat = p.adam_v / (1 - 0.999 ** t)
        p.value -= learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        p.grad[...] = 0.0


def _bit_identity_params():
    r = rng(31)
    w = Param("w", 0.5 * r.normal(size=(3, 3, 2, 2)))
    params = {
        "w": w,
        "w_alias": w,  # a second module's name for the same storage
        "b": Param("b", 0.1 * r.normal(size=2)),
        "s": Param("s", r.normal(size=3)),
        "wd": Param("wd", 0.3 * r.normal(size=(8, 3)), l2_strength=1e-2),
        "bd": Param("bd", np.zeros(3)),
    }
    params["b"].step_count = 4
    params["s"].step_count = 1
    return params


def _bit_identity_tape(params, x, label, head="wd"):
    g = CompGraph("train", rng(label))
    h = g.activation(g.conv2d(g.leaf(x), params["w"], params["b"]), "relu")
    # h has three consumers; w is used at three sites, once as its alias
    a = g.conv2d(h, params["w"], params["b"])
    c = g.activation(g.conv2d(h, params["w_alias"], params["b"]), "tanh")
    m = g.softmerge(params["s"], [a, c, h])
    m = g.maxpool2x2(m)
    return g, g.cross_entropy(g.dense(m, params[head],
                                      params["bd"]), label)


def test_backward_and_adam_bit_identical_to_reference():
    new, ref = _bit_identity_params(), _bit_identity_params()
    block = ParamBlock(new.values())
    r = rng(32)
    for step in range(6):
        if step == 3:
            # a second head joins, and the block is rebuilt around it, as
            # joint_train packs a new block once its challengers exist
            wd2 = 0.3 * rng(33).normal(size=(8, 3))
            new["wd2"], ref["wd2"] = Param("wd2", wd2), Param("wd2", wd2)
            block = ParamBlock(new.values())
        for i in range(2):  # two tapes per step, as joint_train records
            x, label = r.normal(size=(4, 4, 1)), int(r.integers(3))
            head = "wd2" if i and "wd2" in new else "wd"
            backward(*_bit_identity_tape(new, x, label, head))
            _backward_reference(*_bit_identity_tape(ref, x, label, head))
        for key in new:
            assert np.array_equal(new[key].grad, ref[key].grad), (step, key)
        adam_step(block, 0.05)
        _adam_step_reference(list(ref.values()), 0.05)
        for key in new:
            for field in ("value", "grad", "adam_m", "adam_v"):
                a, b = getattr(new[key], field), getattr(ref[key], field)
                assert a.tobytes() == b.tobytes(), (step, key, field)
            assert new[key].step_count == ref[key].step_count
    assert new["w"].step_count == 6 and new["b"].step_count == 10
    assert new["wd2"].step_count == 3
    assert np.shares_memory(new["wd2"].value, block.value)


def test_cross_entropy_gradient_is_softmax_minus_onehot_bitwise():
    v = rng(33).normal(size=5)
    g = CompGraph("train", rng())
    node = g.cross_entropy(g.leaf(v), 3)
    expect = softmax(v)
    expect[3] -= 1.0
    assert node.vjp(np.ones(()))[0][1].tobytes() == expect.tobytes()


# --- invariants -------------------------------------------------------------

def test_softmax_sums_to_one_property():
    r = rng(13)
    for _ in range(2000):
        v = r.normal(scale=r.uniform(0.1, 50), size=r.integers(1, 9))
        assert abs(softmax(v).sum() - 1.0) <= 1e-6


def test_softmerge_convex_combination_property():
    r = rng(17)
    for _ in range(2000):
        m = int(r.integers(1, 5))
        shape = (int(r.integers(1, 4)), int(r.integers(1, 4)))
        xs = [r.normal(size=shape) for _ in range(m)]
        g = CompGraph("eval")
        sg = Param("s", r.normal(scale=3, size=m))
        out = g.softmerge(sg, [g.leaf(x) for x in xs]).value
        lo = np.min(xs, axis=0)
        hi = np.max(xs, axis=0)
        assert np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9)


def test_forward_determinism_eval():
    r = rng(23)
    w = Param("w", r.normal(size=(3, 3, 1, 2)))
    b = Param("b", np.zeros(2))
    x = r.normal(size=(5, 5, 1))

    def run():
        g = CompGraph("eval")
        h = g.conv2d(g.leaf(x), w, b)
        h = g.activation(h, "tanh")
        return g.maxpool2x2(h).value

    assert np.array_equal(run(), run())


def test_random_networks_gradcheck_sweep():
    # small random nets mixing every op; keeps params well under 1e3
    for seed in range(5):
        r = rng(100 + seed)
        w1 = Param("w1", 0.4 * r.normal(size=(3, 3, 1, 2)), l2_strength=1e-4)
        b1 = Param("b1", 0.1 * r.normal(size=2))
        s = Param("s", r.normal(size=2))
        w2 = Param("w2", 0.4 * r.normal(size=(18, 3)))
        b2 = Param("b2", np.zeros(3))
        x = r.normal(size=(6, 6, 1))
        act = ["relu", "elu", "sigmoid", "tanh"][seed % 4]

        def builder():
            g = CompGraph("train", rng(seed))
            xn = g.leaf(x)
            h1 = g.activation(g.conv2d(xn, w1, b1), act)
            h2 = g.pad_channels(xn, 2)
            merged = g.softmerge(s, [h1, h2])
            h = g.maxpool2x2(merged)
            h = g.dropout(h, 0.25)
            h = g.dense(h, w2, b2)
            return g, g.cross_entropy(h, 1)

        report = grad_check(builder, [w1, b1, s, w2, b2], 1e-4)
        assert report.passed, (seed, report)
