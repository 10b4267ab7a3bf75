"""The forward is the one shape rule: the sizes read off it on an empty
batch (`out_side`, `node_sides`, decoder widths) equal the shapes of a
one-example forward, for mutated module genomes, blueprints and routing
graphs at every side below; and a unit that cannot run at a side raises
AssemblyError both ways."""

import math

import numpy as np
import pytest

from evomtl.assembly import (
    CmGridNet, CmsrNet, SingleTaskNet, SoftOrderingNet, out_side,
    realize_module,
)
from evomtl.dataset import split_fixed, synth_generate
from evomtl.diffcore import CompGraph
from evomtl.errors import AssemblyError
from evomtl.genome import (
    GlobalHyper, LayerGene, MutationRates, init_blueprint_population,
    init_module_population, mutate,
)
from evomtl.routing import (
    default_ctr_modules, init_ctr, mutate_challenger, node_sides, route,
)

SIDES = (4, 8, 12, 16, 28)
RATES = MutationRates(add_node=0.6, add_edge=0.5, perturb=0.9,
                      flip_flag=0.2)


def rng(seed):
    return np.random.default_rng(seed)


def one_example(side):
    g = CompGraph("train", rng(0))
    return g, g.leaf(rng(side).normal(size=(side, side, 1)))


def mutated_modules(seed, count, cmtr=False):
    pop = init_module_population(6, 2, rng(seed), cmtr_mode=cmtr)
    genomes = list(pop.all_members())
    r = rng(seed + 1)
    for _ in range(count):
        parent = genomes[r.integers(len(genomes))]
        genomes.append(mutate(parent, pop.tracker, r, RATES))
    return pop, genomes[6:]


def hyper(**kw):
    return GlobalHyper(**{"final_layer_filters": 4, "k_modules": 2,
                          "depth": 2, **kw})


def assert_decoders_fit(net, side):
    for t, tid in enumerate(net.task_ids):
        g, x = one_example(side)
        features = math.prod(net.trunk(g, t, x).shape)
        assert net.decoders[tid][0].value.shape[0] == features
        assert net.forward(g, t, x).shape == (net.class_counts[t],)


@pytest.mark.parametrize("cmtr", [False, True])
def test_module_out_side_is_the_forward_side_or_both_raise(cmtr):
    h = hyper()
    ran = raised = 0
    for i, genome in enumerate(mutated_modules(10 + cmtr, 40, cmtr)[1]):
        inst = realize_module(genome, h, rng(i), f"m{i}")
        for side in SIDES:
            g, x = one_example(side)
            try:
                s = out_side(inst, side)
            except AssemblyError:
                with pytest.raises(AssemblyError):
                    inst.apply(g, x)
                raised += 1
                continue
            assert inst.apply(g, x).shape == (s, s, h.final_layer_filters)
            ran += 1
    assert ran and raised  # both kinds of case were seen


def test_layer_out_side_is_the_forward_side_or_both_raise():
    h = hyper()
    for kind, kernel in [("conv2d", 1), ("conv2d", 5), ("dense", 1)]:
        net = SingleTaskNet([LayerGene(0, kind, "tanh", kernel, 4, 1e-4, 0.1)],
                            ["a"], [3], 8, h, rng(1))
        layer = net.chains[0][0]
        for side in SIDES:
            g, x = one_example(side)
            if side < kernel:
                with pytest.raises(AssemblyError):
                    out_side(layer, side)
                with pytest.raises(AssemblyError):
                    layer.apply(g, x)
                continue
            s = out_side(layer, side)
            assert layer.apply(g, x).shape == (s, s, 4)


@pytest.mark.parametrize("side", SIDES)
def test_network_decoders_fit_the_one_example_trunk(side):
    h = hyper()
    # a dense layer ends the spatial map; the grid applies every layer at
    # every depth, so only 1x1 convs may follow it there
    chain = [LayerGene(0, "conv2d", "relu", 3, 4, 1e-4, 0.0),
             LayerGene(1, "dense", "tanh", 1, 4, 1e-4, 0.0)]
    grid = [LayerGene(0, "conv2d", "relu", 1, 4, 1e-4, 0.0),
            LayerGene(1, "dense", "tanh", 1, 4, 1e-4, 0.0)]
    for form, genes in [(SoftOrderingNet, chain[:1]), (SoftOrderingNet, grid),
                        (SingleTaskNet, chain[:1]), (SingleTaskNet, chain)]:
        assert_decoders_fit(form(genes, ["a", "b"], [3, 2], side, h, rng(2)),
                            side)
    built = failed = 0
    pop, modules = mutated_modules(20, 12)
    for i in range(0, len(modules), 2):
        try:
            net = CmGridNet(modules[i:i + 2], h, ["a", "b"], [3, 2], side,
                            rng(i))
        except AssemblyError:
            failed += 1
            continue
        assert_decoders_fit(net, side)
        built += 1
    blueprints = init_blueprint_population(4, pop.species_ids(), rng(21))
    genomes = list(blueprints.all_members())
    r = rng(22)
    for i in range(8):
        parent = genomes[r.integers(len(genomes))]
        bp = mutate(parent, blueprints.tracker, r, RATES,
                    species_ids=pop.species_ids())
        genomes.append(bp)
        choice = {sid: modules[(i + k) % len(modules)]
                  for k, sid in enumerate(pop.species_ids())}
        try:
            net = CmsrNet(bp, choice, h, ["a", "b"], [3, 2], side, rng(i))
        except AssemblyError:
            failed += 1
            continue
        assert_decoders_fit(net, side)
        built += 1
    # at 4x4 none of these evolved networks can run (a 5x5 kernel, or a
    # 3x3 one after a pool or a dense gene); every larger side builds some
    assert built or side == 4, failed


@pytest.mark.parametrize("side", SIDES)
def test_node_sides_are_the_one_example_route_sides(side):
    spec = split_fixed(synth_generate(5, 1, 3, side, 0.1), 5)
    modules = default_ctr_modules(3, side, rng(30))
    state = init_ctr(modules, spec, rng(31))
    ind = state.champions[spec.tasks[0].task_id]
    r = rng(32)
    for _ in range(12):
        ind = mutate_challenger(ind, modules, 0.2, r, side)
        sides = node_sides(ind.graph, modules, side)
        g, x = one_example(side)
        vals = route(g, ind.graph, modules, x)
        assert sides == {n: v.shape[0] for n, v in vals.items()}
        assert ind.forward(g, modules, x).shape == (3,)


def test_an_infeasible_unit_raises_assembly_error_both_ways():
    # a 5x5 conv cannot read a 4x4 map: neither sizing nor the forward
    # runs, and a network that holds the module cannot be built
    genome = mutated_modules(40, 1)[1][0]
    genome.nodes = {n: LayerGene(n, "conv2d", "relu", 5, 8, 1e-4, 0.0)
                    for n in genome.nodes}
    inst = realize_module(genome, hyper(), rng(41), "m")
    assert out_side(inst, 8) == 4
    g, x = one_example(4)
    with pytest.raises(AssemblyError):
        out_side(inst, 4)
    with pytest.raises(AssemblyError):
        inst.apply(g, x)
    with pytest.raises(AssemblyError):
        CmGridNet([genome], hyper(), ["a"], [3], 4, rng(42))
