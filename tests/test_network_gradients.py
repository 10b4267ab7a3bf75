"""Whole-network gradient checks: every assembled network form, built
tiny (final width 2, 4x4 to 6x6 inputs), has each task's cross-entropy
gradient compared with central finite differences over every parameter
the loss depends on, including any that the backward pass fails to
reach. Activations are smooth (tanh, sigmoid) so no finite difference
straddles a kink."""

import numpy as np
import pytest

from evomtl.assembly import (
    CmGridNet, CmsrNet, SingleTaskNet, SoftOrderingNet, realize_module,
)
from evomtl.dataset import split_fixed, synth_generate
from evomtl.diffcore import CompGraph, Param
from evomtl.genome import (
    SINK, SOURCE, BlueprintGenome, BlueprintNode, GlobalHyper, LayerGene,
    ModuleGenome,
)
from evomtl.routing import init_ctr, mutate_challenger
from helpers import grad_check

TASKS, CLASSES = ["a", "b"], [3, 3]


def rng(seed):
    return np.random.default_rng(seed)


def gene(innov, kernel=3, filters=8, act="tanh", dropout=0.0):
    return LayerGene(innov, "conv2d", act, kernel, filters, 1e-4, dropout)


def chain_module(genome_id, act="tanh", share_flag=False):
    """SOURCE -> one 3x3 conv -> tail."""
    return ModuleGenome(genome_id, {2: gene(2, act=act)},
                        {3: (SOURCE, 2), 4: (2, SINK)}, share_flag,
                        gene(-1, kernel=1))


def fork_module(genome_id, share_flag=False, cmtr=False, dropout=0.0):
    """Two parallel convs soft-merged at the tail."""
    return ModuleGenome(
        genome_id,
        {2: gene(2, act="sigmoid", dropout=dropout),
         5: gene(5, kernel=1, dropout=dropout)},
        {3: (SOURCE, 2), 4: (2, SINK), 6: (SOURCE, 5), 7: (5, SINK)},
        share_flag, gene(-1, kernel=1, act="tanh", dropout=dropout),
        cmtr_mode=cmtr)


def hyper(**kw):
    return GlobalHyper(**{"final_layer_filters": 2, "k_modules": 2,
                          "depth": 2, **kw})


def assert_task_gradients(forward, params, side):
    """grad_check the loss of one random example per task over `params`,
    so a parameter the loss depends on but backward does not reach fails
    too (the report's `unreached`)."""
    r = rng(side)
    for t in range(len(TASKS)):
        x = r.normal(size=(side, side, 1))

        def builder():
            g = CompGraph("train", rng(99))
            return g, g.cross_entropy(forward(g, t, g.leaf(x)), t)

        report = grad_check(builder, params, 1e-4)
        assert report.passed, (t, report)
        assert not report.unreached, (t, report.unreached)


@pytest.mark.parametrize("form", [SoftOrderingNet, SingleTaskNet])
def test_baseline_network_gradients(form):
    genes = [gene(0, filters=2), gene(1, kernel=1, filters=2, act="sigmoid")]
    net = form(genes, TASKS, CLASSES, 4, hyper(), rng(1))
    assert_task_gradients(net.forward, net.params(), 4)


@pytest.mark.parametrize("mode, n_units", [
    ("enabled", 2), ("disabled", 4), ("evolved", 3)])
def test_cm_grid_network_gradients(mode, n_units):
    # evolved: only the first row's module carries the share flag
    modules = [chain_module(1, share_flag=True), fork_module(2)]
    net = CmGridNet(modules, hyper(sharing_mode=mode), TASKS, CLASSES, 6,
                    rng(2))
    assert len({id(unit) for unit in net.units()}) == n_units
    assert_task_gradients(net.forward, net.params(), 6)


def test_cmsr_network_gradients():
    # a diamond blueprint whose first and last nodes share one flagged
    # module
    blueprint = BlueprintGenome(
        1, {0: BlueprintNode(1, True), 1: BlueprintNode(2, False),
            2: BlueprintNode(3, False), 3: BlueprintNode(1, True)},
        {10: (0, 1), 11: (0, 2), 12: (1, 3), 13: (2, 3)})
    choice = {1: fork_module(1), 2: chain_module(2),
              3: chain_module(3, act="sigmoid")}
    net = CmsrNet(blueprint, choice, hyper(), TASKS, CLASSES, 6, rng(3))
    assert net.instances[0] is net.instances[3]
    assert_task_gradients(net.forward, net.params(), 6)


def test_ctr_routing_individual_gradients_after_a_splice():
    h = hyper(weight_init="he")
    modules = [realize_module(chain_module(1), h, rng(4), "m0"),
               realize_module(fork_module(2), h, rng(5), "m1")]
    spec = split_fixed(synth_generate(6, 2, 3, 6, 0.1), 6)
    state = init_ctr(modules, spec, rng(7))
    challengers = []
    for t, tid in enumerate(state.task_ids):
        chal = mutate_challenger(state.champions[tid], modules, 0.3,
                                 rng(10 + t), 6)
        assert not chal.mutation_failed
        assert chal.graph.scales  # the splice made a merge
        challengers.append(chal)
    params = [p for m in modules for p in m.all_params()]
    params += [p for chal in challengers for p in chal.params()]
    assert_task_gradients(
        lambda g, t, x: challengers[t].forward(g, modules, x), params, 6)


def test_cmtr_mode_module_with_dropout_gradients():
    module = realize_module(fork_module(1, cmtr=True, dropout=0.3), hyper(),
                            rng(9), "m")
    dec = [(Param(f"dec{t}.w", rng(10 + t).normal(size=(2 * 2 * 2, 3))),
            Param(f"dec{t}.b", np.zeros(3))) for t in range(len(TASKS))]

    def forward(g, t, x):
        return g.dense(module.apply(g, x), *dec[t])

    g = CompGraph("train", rng(99))
    forward(g, 0, g.leaf(np.ones((4, 4, 1))))
    assert any(node.op == "dropout" for node in g.nodes)
    params = module.all_params() + [p for pair in dec for p in pair]
    assert_task_gradients(forward, params, 4)
