import numpy as np
import pytest

from evomtl import training
from evomtl.assembly import CmGridNet, CmsrNet, SingleTaskNet, SoftOrderingNet
from evomtl.dataset import split_fixed, synth_generate
from evomtl.diffcore import CGNode, CompGraph
from evomtl.errors import NumericError
from evomtl.genome import (
    SINK, SOURCE, BlueprintGenome, BlueprintNode, GlobalHyper, LayerGene,
    ModuleGenome,
)
from evomtl.routing import default_ctr_modules, init_ctr, mutate_challenger
from evomtl.training import (
    SCORE_CHUNK_ROWS, accuracy, batched_forward, evaluate_accuracy,
)


def test_evaluate_accuracy_raises_on_nan_logits():
    spec = split_fixed(synth_generate(3, 2, 3, 8, 0.1), 3)
    gene = LayerGene(2, "conv2d", "relu", 3, 8, 0.0, 0.0)
    net = SoftOrderingNet([gene], [t.task_id for t in spec.tasks], [3, 3], 8,
                          GlobalHyper(final_layer_filters=8),
                          np.random.default_rng(5))
    _, mean = evaluate_accuracy(net, spec, "val")
    assert 0.0 <= mean <= 1.0
    for p in net.params():
        p.value[...] = np.nan
    with pytest.raises(NumericError):
        evaluate_accuracy(net, spec, "val")


# --- batched scoring against the per-example eval tape ---------------------


def _gene(innov, kind="conv2d", act="relu", kernel=3, dropout=0.0):
    return LayerGene(innov, kind, act, kernel, 8, 1e-6, dropout)


def _module(genome_id, nodes, edges, cmtr=False):
    tail = LayerGene(-1, "conv2d", "tanh", 1, 8, 1e-6, 0.2 if cmtr else 0.0)
    return ModuleGenome(genome_id=genome_id, nodes=nodes, edges=edges,
                        share_flag=True, final_layer=tail, cmtr_mode=cmtr)


def _modules():
    # a dropout conv; a conv branch merged with a dense branch, which
    # pools to 1x1; a kernel-5 conv under a cmtr tail with dropout
    chain = _module(1, {2: _gene(2, act="elu", dropout=0.3)},
                    {3: (SOURCE, 2), 4: (2, SINK)})
    branches = _module(2, {2: _gene(2, act="sigmoid"),
                           5: _gene(5, kind="dense", act="tanh")},
                       {3: (SOURCE, 2), 4: (2, SINK), 6: (SOURCE, 5),
                        7: (5, SINK)})
    cmtr = _module(3, {2: _gene(2, kernel=5)}, {3: (SOURCE, 2), 4: (2, SINK)},
                   cmtr=True)
    return [chain, branches, cmtr]


def _net(kind, spec, r):
    tids = [t.task_id for t in spec.tasks]
    cls = [t.class_count for t in spec.tasks]
    side = spec.image_side
    ghyper = GlobalHyper(final_layer_filters=8, k_modules=2, depth=2,
                         depth_flags=(True, False))
    chain, branches, cmtr = _modules()
    if kind in ("soft", "single"):
        genes = [_gene(2, dropout=0.25), _gene(3, act="elu", kernel=1)]
        cls_ = SoftOrderingNet if kind == "soft" else SingleTaskNet
        return cls_(genes, tids, cls, side, ghyper, r)
    if kind == "cm":
        return CmGridNet([chain, cmtr], ghyper, tids, cls, side, r)
    if kind == "cmsr":
        # a diamond whose merge node holds the dense module; nodes 0 and
        # 3 run one module with evolved sharing on
        diamond = BlueprintGenome(
            genome_id=50,
            nodes={0: BlueprintNode(1, True), 2: BlueprintNode(3, False),
                   3: BlueprintNode(1, True), 1: BlueprintNode(2, False)},
            edges={10: (0, 2), 11: (0, 3), 12: (2, 1), 13: (3, 1)})
        return CmsrNet(diamond, {1: chain, 2: branches, 3: cmtr}, ghyper,
                       tids, cls, side, r)
    state = init_ctr(default_ctr_modules(3, side, r), spec, r)
    for tid, champ in state.champions.items():
        state.champions[tid] = mutate_challenger(champ, state.modules, 0.3, r,
                                                 side)
    return state


@pytest.mark.parametrize("kind", ["soft", "single", "cm", "cmsr", "ctr"])
def test_batched_logits_match_the_per_example_tape(kind):
    r = np.random.default_rng(31)
    spec = split_fixed(synth_generate(4, 2, 3, 16, 0.2), 4)
    net = _net(kind, spec, r)
    for p in net.params():  # non-uniform merges and nonzero biases
        p.value[...] += r.normal(scale=0.3, size=p.value.shape)
    per_chunk = SCORE_CHUNK_ROWS // (16 * 16)
    for ti, task in enumerate(spec.tasks):
        images = [img for img, _ in spec.examples_for(task, "val")]
        # several chunks, the last one partial
        assert len(images) > per_chunk and len(images) % per_chunk
        batched = batched_forward(lambda g, x: net.forward(g, ti, x), images)
        reference = []
        for img in images:
            g = CompGraph("eval")
            reference.append(net.forward(g, ti, g.leaf(img)).value)
        reference = np.array(reference)
        assert batched.shape == reference.shape
        np.testing.assert_allclose(batched, reference, rtol=0, atol=1e-12)
        assert np.array_equal(batched.argmax(axis=1), reference.argmax(axis=1))


def _reference_accuracy(net, ti, examples):
    correct = 0
    for img, label in examples:
        g = CompGraph("eval")
        correct += int(np.argmax(net.forward(g, ti, g.leaf(img)).value)
                       == label)
    return correct / len(examples)


def test_accuracy_matches_per_example_scoring():
    r = np.random.default_rng(32)
    spec = split_fixed(synth_generate(6, 3, 4, 16, 0.3), 6)
    net = _net("cm", spec, r)
    for ti, task in enumerate(spec.tasks):
        examples = spec.examples_for(task, "val")
        assert accuracy(lambda g, x: net.forward(g, ti, x), examples) == \
            _reference_accuracy(net, ti, examples)


def test_one_nan_row_in_a_batch_raises():
    images = [np.full((4, 4, 1), 0.5) for _ in range(6)]
    examples = [(img, 0) for img in images]

    def nan_in_row(g, x):  # logits with NaN in the 4th example only
        logits = np.zeros((len(x.value), 3))
        logits[3, 1] = np.nan if len(x.value) > 3 else 0.0
        return CGNode(logits, logits.shape[1:], "dense")

    with pytest.raises(NumericError):
        accuracy(nan_in_row, examples)
    images[4] = images[4].copy()
    images[4][1, 2, 0] = np.nan  # a NaN input is refused at the leaf
    with pytest.raises(NumericError):
        accuracy(lambda g, x: CGNode(np.zeros((len(x.value), 3)), (3,),
                                     "dense"), list(zip(images, [0] * 6)))


@pytest.mark.parametrize("iters, snapshot_every", [
    (12, None),  # scored once, after the last iteration
    (30, 3),     # snapshots whose peak comes before the last
    (0, None),   # the untrained weights, scored once
])
def test_train_network_returns_the_score_of_the_weights_it_leaves(
        monkeypatch, iters, snapshot_every):
    spec = split_fixed(synth_generate(36, 2, 3, 6, 0.3, examples_per_class=10),
                       36)
    net = SoftOrderingNet([LayerGene(2, "conv2d", "relu", 3, 8, 0.0, 0.0)],
                          [t.task_id for t in spec.tasks], [3, 3], 6,
                          GlobalHyper(), np.random.default_rng(1))
    scores = []  # every mean validation score train_network takes
    real_eval = training.evaluate_accuracy

    def recording_eval(*args, **kwargs):
        per_task, mean = real_eval(*args, **kwargs)
        scores.append(mean)
        return per_task, mean

    monkeypatch.setattr(training, "evaluate_accuracy", recording_eval)
    per_task, mean = training.train_network(
        net, spec, iters, 0.05, np.random.default_rng(11),
        snapshot_every=snapshot_every)
    monkeypatch.undo()
    assert len(scores) == (iters // snapshot_every if snapshot_every else 1)
    if snapshot_every:
        assert scores[-1] < mean  # the weights left are an earlier peak's
    assert evaluate_accuracy(net, spec, "val") == (per_task, mean)
    assert set(per_task) == {t.task_id for t in spec.tasks}


def test_final_weights_are_scored_once(monkeypatch):
    spec = split_fixed(synth_generate(3, 2, 3, 8, 0.1), 3)
    net = SoftOrderingNet([_gene(2)], [t.task_id for t in spec.tasks], [3, 3],
                          8, GlobalHyper(final_layer_filters=8),
                          np.random.default_rng(5))
    calls = []
    real_eval = training.evaluate_accuracy

    def counting_eval(*args, **kwargs):
        calls.append(1)
        return real_eval(*args, **kwargs)

    monkeypatch.setattr(training, "evaluate_accuracy", counting_eval)
    training.train_network(net, spec, 6, 0.01, np.random.default_rng(1),
                           snapshot_every=3)
    assert len(calls) == 2  # after iterations 3 and 6, not again after 6
    calls.clear()
    training.train_network(net, spec, 7, 0.01, np.random.default_rng(1),
                           snapshot_every=3)
    assert len(calls) == 3  # after 3, after 6, and the final weights
