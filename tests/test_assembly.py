import itertools

import numpy as np
import pytest

from evomtl.assembly import (
    CmGridNet, CmsrNet, SingleTaskNet, SoftOrderingNet,
    count_parameters, out_side, realize_module,
)
from evomtl.diffcore import (
    CompGraph, ParamBlock, adam_step, backward, softmax, zero_grads,
)
from evomtl.errors import AssemblyError
from evomtl.genome import (
    SINK, SOURCE, BlueprintGenome, BlueprintNode, GlobalHyper, LayerGene,
    ModuleGenome, )


def rng(seed=0):
    return np.random.default_rng(seed)


def make_gene(innov=2, kind="conv2d", kernel=3, filters=8, act="relu",
              dropout=0.0, l2=1e-6):
    return LayerGene(innov, kind, act, kernel, filters, l2, dropout)


def make_module(gene=None, share_flag=False, cmtr=False):
    gene = gene or make_gene()
    tail = make_gene(-1, kind="conv2d", kernel=1, filters=8, dropout=0.0)
    return ModuleGenome(
        genome_id=1, nodes={2: gene},
        edges={3: (SOURCE, 2), 4: (2, SINK)},
        share_flag=share_flag, final_layer=tail, cmtr_mode=cmtr)


def ghyp(**kw):
    base = dict(learning_rate=3e-3, final_layer_filters=8, weight_init="glorot",
                k_modules=2, depth=2, depth_flags=(True, True),
                sharing_mode="evolved")
    base.update(kw)
    return GlobalHyper(**base)


def test_realize_shapes_and_tail_pool():
    inst = realize_module(make_module(), ghyp(), rng(1), "m")
    assert out_side(inst, 28) == 14  # tail pool applied
    assert out_side(inst, 3) == 3    # below 4x4: pool skipped
    g = CompGraph("eval")
    out = inst.apply(g, g.leaf(np.zeros((28, 28, 1))))
    assert out.shape == (14, 14, 8)
    out = inst.apply(g, g.leaf(np.zeros((3, 3, 1))))
    assert out.shape == (3, 3, 8)


def test_realize_shared_directive_aliases():
    shared = {}
    genome, h = make_module(), ghyp()
    a = realize_module(genome, h, rng(2), "a", shared=shared, share_key="k")
    b = realize_module(genome, h, rng(2), "b", shared=shared, share_key="k")
    assert a is b
    assert a.storage_id == b.storage_id
    c = realize_module(genome, h, rng(2), "c", shared=shared)
    assert c.storage_id != a.storage_id


def test_realize_kernel_too_large():
    genome = make_module(make_gene(kernel=5))
    inst = realize_module(genome, ghyp(), rng(3), "m")
    with pytest.raises(AssemblyError):
        out_side(inst, 3)
    g = CompGraph("eval")
    with pytest.raises(AssemblyError):
        inst.apply(g, g.leaf(np.zeros((3, 3, 1))))


def test_dense_gene_in_module_is_spatial_independent():
    genome = make_module(make_gene(kind="dense"))
    inst = realize_module(genome, ghyp(), rng(4), "m")
    g = CompGraph("eval")
    for side in (4, 8, 16):
        out = inst.apply(g, g.leaf(np.zeros((side, side, 1))))
        assert out.shape == (1, 1, 8)  # pooled to 1x1, below pool threshold


def make_tasks(n=2, classes=3):
    return [f"t{i}" for i in range(n)], [classes] * n


def test_soft_ordering_single_layer_single_task():
    genes = [make_gene()]
    tids, cls = make_tasks(1)
    net = SoftOrderingNet(genes, tids, cls, 8, ghyp(), rng(5))
    g = CompGraph("eval")
    out = net.forward(g, 0, g.leaf(np.ones((8, 8, 1))))
    assert out.shape == (3,)


def test_soft_ordering_scale_count():
    genes = [make_gene(innov=i) for i in (2, 3, 4)]
    tids, cls = make_tasks(4)
    net = SoftOrderingNet(genes, tids, cls, 8, ghyp(), rng(6))
    # tasks x depths groups, each holding one logit per layer
    assert len(net.scales) == 4 * 3
    assert all(p.value.shape == (3,) for p in net.scales.values())


def straight_line_depth_merge(x, layer_params, scale_logits, width):
    """Independent implementation of the depth-merged recurrence for conv
    layers with relu, used as the oracle."""
    def conv_same(img, w, b):
        k = w.shape[0]
        pad = k // 2
        xp = np.pad(img, ((pad, pad), (pad, pad), (0, 0)))
        h, wd, cin = img.shape
        cout = w.shape[3]
        out = np.zeros((h, wd, cout))
        for i in range(h):
            for j in range(wd):
                patch = xp[i:i + k, j:j + k, :]
                out[i, j, :] = np.tensordot(patch, w, axes=([0, 1, 2], [0, 1, 2])) + b
        return out

    y = np.zeros(x.shape[:2] + (width,))
    y[:, :, :x.shape[2]] = x
    depth = len(layer_params)
    for d in range(depth):
        outs = [np.maximum(conv_same(y, w, b), 0.0) for (w, b) in layer_params]
        s = softmax(scale_logits[d])
        y = sum(sm * o for sm, o in zip(s, outs))
    return y


def test_soft_ordering_matches_straight_line_recurrence():
    genes = [make_gene(innov=2), make_gene(innov=3)]
    tids, cls = make_tasks(2)
    r = rng(7)
    net = SoftOrderingNet(genes, tids, cls, 5, ghyp(), r)
    x = rng(8).random((5, 5, 1))
    for t in range(2):
        for d in range(2):
            net.scales[(t, d)].value[...] = rng(10 + t + d).normal(size=2)
        g = CompGraph("eval")
        got = net.forward(g, t, g.leaf(x))
        layer_params = [(l.w.value, l.b.value) for l in net.layers]
        logits = [net.scales[(t, d)].value for d in range(2)]
        y = straight_line_depth_merge(x, layer_params, logits, 8)
        w, b = net.decoders[tids[t]]
        expect = y.reshape(-1) @ w.value + b.value
        assert np.max(np.abs(got.value - expect)) <= 1e-6


def test_cm_insertion_rule_exhaustive():
    tids, cls = make_tasks(1)
    for k_rows, n_mods in itertools.product(range(1, 7), range(1, 5)):
        modules = [make_module(make_gene(filters=8 + i)) for i in range(n_mods)]
        for i, m in enumerate(modules):
            m.genome_id = 100 + i
        h = ghyp(k_modules=max(k_rows, 2), depth=2)
        h.k_modules = k_rows  # widen beyond the evolvable range for the check
        net = CmGridNet(modules, h, tids, cls, 8, rng(9))
        for k in range(k_rows):
            expected = modules[k % n_mods]
            for d in range(h.depth):
                assert net.slots[k][d].genome is expected


def brute_force_alias_groups(k_rows, depth, mode, row_flags, depth_flags):
    """Enumerate which slots must share storage under the stated rule."""
    groups = {}
    for k in range(k_rows):
        for d in range(depth):
            if mode == "enabled":
                eligible = True
            elif mode == "disabled":
                eligible = False
            else:
                eligible = row_flags[k] and depth_flags[d]
            groups[(k, d)] = ("row", k) if eligible else ("solo", k, d)
    return groups


@pytest.mark.parametrize("mode", ["enabled", "disabled", "evolved"])
def test_cm_sharing_matches_bruteforce(mode):
    tids, cls = make_tasks(1)
    r = rng(11)
    for trial in range(6):
        k_rows = int(r.integers(1, 5))
        depth = int(r.integers(2, 5))
        n_mods = int(r.integers(1, 4))
        modules = []
        row_flags = []
        for i in range(n_mods):
            m = make_module(make_gene(filters=8 + i),
                            share_flag=bool(r.random() < 0.5))
            m.genome_id = i
            modules.append(m)
        depth_flags = tuple(bool(r.random() < 0.5) for _ in range(depth))
        h = ghyp(depth=depth, depth_flags=depth_flags, sharing_mode=mode)
        h.k_modules = k_rows
        row_flags = [modules[k % n_mods].share_flag for k in range(k_rows)]
        net = CmGridNet(modules, h, tids, cls, 32, rng(100 + trial))
        want = brute_force_alias_groups(k_rows, depth, mode, row_flags,
                                        depth_flags)
        for (ka, da) in want:
            for (kb, db) in want:
                same_storage = (net.slots[ka][da].storage_id
                                == net.slots[kb][db].storage_id)
                assert same_storage == (want[(ka, da)] == want[(kb, db)]), \
                    (mode, ka, da, kb, db)


def test_cm_disabled_all_distinct():
    tids, cls = make_tasks(1)
    modules = [make_module()]
    h = ghyp(k_modules=3, depth=2, sharing_mode="disabled")
    net = CmGridNet(modules, h, tids, cls, 8, rng(12))
    ids = {net.slots[k][d].storage_id for k in range(3) for d in range(2)}
    assert len(ids) == 6


def make_blueprint(shape="chain", species=(1,)):
    if shape == "chain":
        nodes = {0: BlueprintNode(species[0], False),
                 2: BlueprintNode(species[0], False),
                 1: BlueprintNode(species[0], False)}
        edges = {10: (0, 2), 11: (2, 1)}
    else:  # diamond: 0 -> 2, 0 -> 3, 2 -> 1, 3 -> 1
        nodes = {0: BlueprintNode(species[0], False),
                 2: BlueprintNode(species[0], False),
                 3: BlueprintNode(species[-1], False),
                 1: BlueprintNode(species[0], False)}
        edges = {10: (0, 2), 11: (0, 3), 12: (2, 1), 13: (3, 1)}
    return BlueprintGenome(genome_id=50, nodes=nodes, edges=edges)


def test_cmsr_chain_no_merges():
    bp = make_blueprint("chain")
    choice = {1: make_module()}
    tids, cls = make_tasks(1)
    net = CmsrNet(bp, choice, ghyp(), tids, cls, 16, rng(13))
    assert len(net.scales) == 0
    g = CompGraph("eval")
    out = net.forward(g, 0, g.leaf(np.zeros((16, 16, 1))))
    assert out.shape == (3,)


def test_cmsr_diamond_soft_merges():
    bp = make_blueprint("diamond", species=(1, 2))
    choice = {1: make_module(), 2: make_module(make_gene(filters=16))}
    choice[2].genome_id = 2
    tids, cls = make_tasks(2)
    net = CmsrNet(bp, choice, ghyp(), tids, cls, 16, rng(14))
    # node 1 (sink) has two parents -> one merge group per task
    assert set(net.scales) == {(0, 1), (1, 1)}
    g = CompGraph("eval")
    out = net.forward(g, 1, g.leaf(np.zeros((16, 16, 1))))
    assert out.shape == (3,)


def test_cmsr_unresolvable_species():
    bp = make_blueprint("chain")
    with pytest.raises(AssemblyError):
        CmsrNet(bp, {}, ghyp(), ["t0"], [3], 16, rng(15))


def test_cmsr_sharing_conjunction():
    bp = make_blueprint("diamond", species=(1, 1))
    mod = make_module(share_flag=True)
    tids, cls = make_tasks(1)
    # same module at 4 nodes; flags on nodes decide aliasing under "evolved"
    for n in bp.nodes.values():
        n.share_flag = True
    bp.nodes[3].share_flag = False
    net = CmsrNet(bp, {1: mod}, ghyp(sharing_mode="evolved"),
                  tids, cls, 16, rng(16))
    sid = {n: net.instances[n].storage_id for n in (0, 2, 3, 1)}
    assert sid[0] == sid[2] == sid[1]
    assert sid[3] != sid[0]
    # disabled: nothing aliases
    net2 = CmsrNet(bp, {1: mod}, ghyp(sharing_mode="disabled"),
                   tids, cls, 16, rng(17))
    ids = {net2.instances[n].storage_id for n in bp.nodes}
    assert len(ids) == 4


def test_count_parameters_dense_case():
    tids, cls = make_tasks(1, classes=2)
    genes = [make_gene()]
    net = SoftOrderingNet(genes, tids, cls, 4, ghyp(), rng(18))
    # conv (3*3*8*8 + 8) + scales (1 group x 1 logit) + decoder (4*4*8*2 + 2)
    assert count_parameters(net) == (3 * 3 * 8 * 8 + 8) + 1 + (128 * 2 + 2)


def test_count_parameters_alias_counted_once():
    tids, cls = make_tasks(1)
    modules = [make_module(share_flag=True)]
    h = ghyp(k_modules=2, depth=2, depth_flags=(True, True),
             sharing_mode="enabled")
    net = CmGridNet(modules, h, tids, cls, 8, rng(19))
    h2 = ghyp(k_modules=2, depth=2, sharing_mode="disabled")
    net2 = CmGridNet(modules, h2, tids, cls, 8, rng(19))
    shared = count_parameters(net)
    distinct = count_parameters(net2)
    # a block over every unit's Params (aliased slots listed twice) packs
    # each storage once
    listed = [p for unit in net.units() for p in unit.all_params()]
    assert len(listed) > len(set(map(id, listed)))
    assert ParamBlock(listed + net.params()).value.size == shared
    assert distinct > shared
    # brute force for the shared case: one row-storage per row + scales + decs
    module_params = (3 * 3 * 8 * 8 + 8) + (1 * 1 * 8 * 8 + 8)
    scales = 2 * 2  # one group per (task=1, depth=2)? -> 2 groups x 2 logits
    decs = (2 * 2 * 8) * 3 + 3
    assert shared == 2 * module_params + scales + decs


def test_aliasing_gradient_moves_aliases_identically():
    tids, cls = make_tasks(2)
    modules = [make_module(share_flag=True)]
    h = ghyp(k_modules=2, depth=2, sharing_mode="enabled")
    net = CmGridNet(modules, h, tids, cls, 8, rng(20))
    # rows share within themselves; slots (0,0) and (0,1) alias
    assert net.slots[0][0] is net.slots[0][1]
    assert net.slots[0][0] is not net.slots[1][0]
    params = ParamBlock(net.params())
    zero_grads(params)
    r = rng(21)
    g = CompGraph("train", r)
    out = net.forward(g, 0, g.leaf(r.random((8, 8, 1))))
    backward(g, g.cross_entropy(out, 1))
    adam_step(params, 0.01)
    a = net.slots[0][0].params["n2.w"].value
    b = net.slots[0][1].params["n2.w"].value
    assert a is b  # same storage object


def test_forward_logit_width_matches_class_count():
    tids = ["a", "b", "c"]
    cls = [2, 5, 4]
    modules = [make_module()]
    net = CmGridNet(modules, ghyp(), tids, cls, 8, rng(22))
    for ti, n_cls in enumerate(cls):
        g = CompGraph("eval")
        out = net.forward(g, ti, g.leaf(np.zeros((8, 8, 1))))
        assert out.shape == (n_cls,)


def test_assembly_deterministic():
    tids, cls = make_tasks(2)
    modules = [make_module()]
    a = CmGridNet(modules, ghyp(), tids, cls, 8, rng(23))
    b = CmGridNet(modules, ghyp(), tids, cls, 8, rng(23))
    for pa, pb in zip(a.params(), b.params()):
        assert np.array_equal(pa.value, pb.value)


def test_single_task_net_independent_weights():
    genes = [make_gene()]
    tids, cls = make_tasks(2)
    net = SingleTaskNet(genes, tids, cls, 8, ghyp(), rng(24))
    assert net.chains[0][0].w is not net.chains[1][0].w
    g = CompGraph("eval")
    out = net.forward(g, 0, g.leaf(np.zeros((8, 8, 1))))
    assert out.shape == (3,)
