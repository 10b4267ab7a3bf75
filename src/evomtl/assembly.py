"""Genotype -> trainable network assembly.

Shape discipline that makes weight sharing work everywhere a module is
used: module weights are sized for `final_layer_filters` input channels
(a conv reads a thinner input, e.g. the raw 1-channel image, with its
kernel's leading channels; only merges and dense genes zero-pad), conv
genes keep spatial size (stride-1 "same"), dense genes first pool their
input down to 1x1 so the weight matrix is independent of spatial size,
and every module ends in the fixed-width tail conv. Parameters therefore
have the same shapes at every location, so aliased realizations are
always legal.

Spatial sizes only ever shrink by 2x2 max-pooling, so every size in a
network lies on the halving chain of the input side; merge points pool
larger inputs down the chain until they match the smallest, then zero-pad
channels, then soft-merge with per-merge learned scales.

Forward code reads sizes through `node.shape`, one example's shape, so it
runs unchanged on a training tape (`CompGraph`) and on a batched scoring
forward (`BatchForward`). The forward is also the only shape rule: every
size (a unit's output side, a decoder's width, a routing splice's shape)
comes from running it on a batch of no examples (`out_side`,
`empty_input`), which computes nothing and raises the `AssemblyError` a
real forward would.

Weight sharing: a builder keeps a dict from share key to the module
instance realized under it, and a later realization with the same key
returns that instance, so the same Param objects serve every location.
A merge's scales are its logit `Param`, one per merge point (per task
where merges are per task).

Network builders: the K x D grid `GridNet`, filled either by the
depth-merged baseline (`SoftOrderingNet`: row k is layer k at every
depth) or by CM's evolved modules (`CmGridNet`); the per-task
`SingleTaskNet` chains; and blueprint-shaped topologies (`CmsrNet`).
"""

from __future__ import annotations

import math

import numpy as np

from .diffcore import (
    BatchForward, CGNode, CompGraph, Param, _unique_params, init_weight,
    merge_scales,
)
from .errors import AssemblyError
from .genome import (
    SINK, SOURCE, BlueprintGenome, GlobalHyper, LayerGene, ModuleGenome,
    graph_maps, topo_order,
)


def _pool_to(g: CompGraph, x: CGNode, side: int) -> CGNode:
    while x.shape[0] > side:
        x = g.maxpool2x2(x)
    if x.shape[0] != side:
        raise AssemblyError(
            f"cannot align spatial size {x.shape[0]} to {side}")
    return x


def merge_aligned(g: CompGraph, scales: Param | None,
                  inputs: list[CGNode]) -> CGNode:
    """Soft-merge after pooling larger inputs to the smallest side and
    zero-padding channels to the widest input; a single input passes
    through (and needs no scales)."""
    if len(inputs) == 1:
        return inputs[0]
    side = min(x.shape[0] for x in inputs)
    aligned = [_pool_to(g, x, side) for x in inputs]
    chans = max(x.shape[2] for x in aligned)
    aligned = [g.pad_channels(x, chans) for x in aligned]
    return g.softmerge(scales, aligned)


def _gene_param_shapes(gene: LayerGene, cin: int):
    if gene.kind == "conv2d":
        k = gene.kernel_size
        return (k, k, cin, gene.filters), k * k * cin, k * k * gene.filters
    return (cin, gene.filters), cin, gene.filters


def _apply_gene(g: CompGraph, gene: LayerGene, x: CGNode, w: Param, b: Param,
                activate: bool = True) -> CGNode:
    """Run one realized layer gene. Conv keeps the spatial size and
    requires the map to be at least kernel-sized; dense pools to 1x1,
    zero-pads channels to its weight rows, and emits a (1, 1, filters)
    map. Without `activate` the gene is linear: no activation, no
    dropout."""
    if gene.kind == "conv2d":
        if min(x.shape[0], x.shape[1]) < gene.kernel_size:
            raise AssemblyError(
                f"feature map {x.shape[:2]} smaller than "
                f"kernel {gene.kernel_size}")
        out = g.conv2d(x, w, b)
    else:
        while x.shape[0] > 1:
            x = g.maxpool2x2(x)
        x = g.pad_channels(x, w.value.shape[0])
        out = g.dense(x, w, b)
        out = g.reshape(out, (1, 1, gene.filters))
    if activate:
        out = g.activation(out, gene.activation)
        if gene.dropout_rate > 0:
            out = g.dropout(out, gene.dropout_rate)
    return out


def empty_input(side: int) -> CGNode:
    """A batch of no side x side one-channel images. A forward run on it
    makes every shape check and does no arithmetic."""
    return BatchForward().leaf(np.zeros((0, side, side, 1)))


def out_side(unit, side: int) -> int:
    """Output side of a module or layer instance on a side x side input,
    from its own forward on an empty batch; raises the AssemblyError the
    real forward would."""
    return unit.apply(BatchForward(), empty_input(side)).shape[0]


def make_decoders(features: CGNode, task_ids, class_counts, init: str,
                  rng: np.random.Generator) -> dict:
    """One dense decoder (w, b) per task, drawn in task order, as wide as
    `features`, the decoded map's value on an empty batch."""
    n = math.prod(features.shape)
    return {tid: (Param(f"dec.{tid}.w", init_weight(rng, (n, k), n, k, init)),
                  Param(f"dec.{tid}.b", np.zeros(k)))
            for tid, k in zip(task_ids, class_counts)}


def _saved_param(saved: dict, key, shape) -> Param:
    p = saved.get(key)
    if p is None or p.value.shape != tuple(shape):
        raise AssemblyError(
            f"saved parameter {key!r} missing or not of shape {tuple(shape)}")
    return p


class ModuleInstance:
    """A realized module: its parameters, internal merge scales, and the
    forward recipe. The same instance object may occupy several network
    locations; that is what weight sharing means here.

    Weights are drawn from `rng`, or, with `saved` (a checkpoint's
    `routing.SavedModule`: `params` keyed as in `self.params`, `scales`
    by merge node), taken as they are, with no draw. Either way the forward
    recipe is resolved once, into `plan`: one (node, parent ids, merge
    scales Param or None, gene, w, b) row per non-source node in
    topological order."""

    def __init__(self, genome: ModuleGenome, ghyper: GlobalHyper,
                 rng: np.random.Generator | None, label: str,
                 saved=None):
        errs = genome.check()
        if errs:
            raise AssemblyError(f"invalid module genome: {errs[0]}")
        self.genome = genome
        self.ghyper = ghyper
        self.label = label
        width = ghyper.final_layer_filters

        out_width = {SOURCE: width}
        self.params: dict[str, Param] = {}
        self.scale_groups: dict[int, Param] = {}
        init = ghyper.weight_init
        plan = []
        _, node_parents = graph_maps(genome.node_ids(), genome.edges)

        for n in topo_order(genome.node_ids(), genome.edges):
            if n == SOURCE:
                continue
            parents = node_parents[n]
            cin = max(out_width[p] for p in parents)
            if len(parents) > 1:
                self.scale_groups[n] = (
                    merge_scales(f"{label}.merge{n}", len(parents))
                    if saved is None
                    else _saved_param(saved.scales, n, (len(parents),)))
            gene = genome.final_layer if n == SINK else genome.nodes[n]
            if n == SINK:
                shape = (gene.kernel_size, gene.kernel_size, cin, width)
                fan_in = gene.kernel_size ** 2 * cin
                fan_out = gene.kernel_size ** 2 * width
                wkey, bkey, filters = "tail.w", "tail.b", width
            else:
                shape, fan_in, fan_out = _gene_param_shapes(gene, cin)
                wkey, bkey, filters = f"n{n}.w", f"n{n}.b", gene.filters
                out_width[n] = filters
            if saved is None:
                w = Param(f"{label}.{wkey}",
                          init_weight(rng, shape, fan_in, fan_out, init),
                          l2_strength=gene.l2_strength)
                b = Param(f"{label}.{bkey}", np.zeros(filters))
            else:
                w = _saved_param(saved.params, wkey, shape)
                b = _saved_param(saved.params, bkey, (filters,))
            self.params[wkey], self.params[bkey] = w, b
            plan.append((n, tuple(parents), self.scale_groups.get(n), gene,
                         w, b))
        self.plan = tuple(plan)

    def all_params(self) -> list[Param]:
        out = list(self.params.values())
        out.extend(self.scale_groups.values())
        return out

    def apply(self, g: CompGraph, x: CGNode) -> CGNode:
        width = self.ghyper.final_layer_filters
        if len(x.shape) != 3:
            raise AssemblyError(f"module input must be (H, W, C), got {x.shape}")
        if x.shape[2] > width:
            raise AssemblyError(
                f"module input has {x.shape[2]} channels, contract is {width}")
        vals = {SOURCE: x}
        for n, parents, scales, gene, w, b in self.plan:
            if scales is None:
                v = vals[parents[0]]
            else:
                v = merge_aligned(g, scales, [vals[p] for p in parents])
            if n == SINK:
                # the tail conv is linear outside cmtr mode
                v = _apply_gene(g, gene, v, w, b, self.genome.cmtr_mode)
                return g.maxpool2x2(v) if min(v.shape[:2]) >= 4 else v
            vals[n] = _apply_gene(g, gene, v, w, b)
        raise AssemblyError("module graph has no sink")  # unreachable


def realize_module(genome: ModuleGenome, ghyper: GlobalHyper,
                   rng: np.random.Generator, label: str,
                   shared: dict | None = None,
                   share_key: str | None = None) -> ModuleInstance:
    """Create a module instance, honoring the storage directive: with a
    `shared` dict and a share_key, the first realization is stored under
    the key and later ones alias it (same Param objects)."""
    if shared is None or share_key is None:
        return ModuleInstance(genome, ghyper, rng, label)
    if share_key not in shared:
        shared[share_key] = ModuleInstance(genome, ghyper, rng, label)
    return shared[share_key]


class LayerInstance:
    """A single realized layer gene (the baseline's shared layers)."""

    def __init__(self, gene: LayerGene, width: int, ghyper: GlobalHyper,
                 rng: np.random.Generator, label: str):
        if gene.filters != width:
            raise AssemblyError(
                f"layer {label}: filters {gene.filters} != shared width {width}")
        self.gene = gene
        shape, fan_in, fan_out = _gene_param_shapes(gene, width)
        self.w = Param(f"{label}.w",
                       init_weight(rng, shape, fan_in, fan_out, ghyper.weight_init),
                       l2_strength=gene.l2_strength)
        self.b = Param(f"{label}.b", np.zeros(gene.filters))

    def apply(self, g: CompGraph, x: CGNode) -> CGNode:
        return _apply_gene(g, self.gene, x, self.w, self.b)

    def all_params(self):
        return [self.w, self.b]


class AssembledNetwork:
    """Base: task bookkeeping, decoders, and the parameter inventory.
    Subclasses compute a task's features in `trunk()`, which the task's
    dense decoder reads, and list their layer or module instances in
    `units()`."""

    def __init__(self, task_ids, class_counts, image_side):
        self.task_ids = list(task_ids)
        self.class_counts = list(class_counts)
        self.image_side = image_side
        self.scales = {}
        self.decoders = {}

    def _make_decoders(self, rng, ghyper) -> None:
        """Tasks differ only in merge weights, so one trunk pass on an
        empty batch sizes every decoder."""
        trunk = self.trunk(BatchForward(), 0, empty_input(self.image_side))
        self.decoders = make_decoders(trunk, self.task_ids, self.class_counts,
                                      ghyper.weight_init, rng)

    def trunk(self, g: CompGraph, task_index: int, x: CGNode) -> CGNode:
        raise NotImplementedError

    def forward(self, g: CompGraph, task_index: int, x: CGNode) -> CGNode:
        w, b = self.decoders[self.task_ids[task_index]]
        return g.dense(self.trunk(g, task_index, x), w, b)

    def units(self) -> list:
        raise NotImplementedError

    def params(self) -> list[Param]:
        """Every parameter once (aliased units count once): units, merge
        scales, decoders."""
        out = [p for unit in self.units() for p in unit.all_params()]
        out.extend(self.scales.values())
        out.extend(p for pair in self.decoders.values() for p in pair)
        return _unique_params(out)


class GridNet(AssembledNetwork):
    """K x D grid of units: at each depth every row's unit runs on the
    previous depth's output, and the K outputs are soft-merged by learned
    scales per (task, depth). Subclasses realize the units, filling
    `slots[k][d]`; one unit object in several slots shares its weights."""

    def __init__(self, slots, task_ids, class_counts, image_side, ghyper,
                 rng):
        super().__init__(task_ids, class_counts, image_side)
        self.slots = slots
        for t in range(len(self.task_ids)):
            for d in range(len(slots[0])):
                self.scales[(t, d)] = merge_scales(f"t{t}.d{d}", len(slots))
        self._make_decoders(rng, ghyper)

    def trunk(self, g, task_index, x):
        for d, column in enumerate(zip(*self.slots)):
            x = merge_aligned(g, self.scales[(task_index, d)],
                              [unit.apply(g, x) for unit in column])
        return x

    def units(self):
        return [unit for row in self.slots for unit in row]


class SoftOrderingNet(GridNet):
    """Depth-merged baseline: D shared layers, each applied at every
    depth (row k is layer k in every slot), combined per task and depth
    by learned scales."""

    def __init__(self, genes, task_ids, class_counts, image_side, ghyper, rng):
        if not genes:
            raise AssemblyError("need at least one layer")
        self.width = genes[0].filters
        self.layers = [LayerInstance(gene, self.width, ghyper, rng, f"layer{i}")
                       for i, gene in enumerate(genes)]
        super().__init__([[layer] * len(genes) for layer in self.layers],
                         task_ids, class_counts, image_side, ghyper, rng)


class SingleTaskNet(AssembledNetwork):
    """Per-task chains with fresh weights; no cross-task sharing."""

    def __init__(self, genes, task_ids, class_counts, image_side, ghyper, rng):
        super().__init__(task_ids, class_counts, image_side)
        self.width = genes[0].filters
        self.chains = [[LayerInstance(gene, self.width, ghyper, rng,
                                      f"task{t}.layer{i}")
                        for i, gene in enumerate(genes)]
                       for t in range(len(task_ids))]
        self._make_decoders(rng, ghyper)

    def trunk(self, g, task_index, x):
        for layer in self.chains[task_index]:
            x = layer.apply(g, x)
        return x

    def units(self):
        return [layer for chain in self.chains for layer in chain]


def _share_eligible(mode: str, row_flag: bool, depth_flag: bool) -> bool:
    return mode == "enabled" or mode == "evolved" and row_flag and depth_flag


class CmGridNet(GridNet):
    """K x D grid: row k repeats one module architecture at every depth.
    Row weights are shared exactly among the share-eligible slots of that
    row."""

    def __init__(self, module_set, ghyper, task_ids, class_counts,
                 image_side, rng):
        if not module_set:
            raise AssemblyError("need at least one module")
        shared: dict[str, ModuleInstance] = {}
        slots = []
        for k in range(ghyper.k_modules):
            genome = module_set[k % len(module_set)]
            row = []
            for d in range(ghyper.depth):
                eligible = _share_eligible(ghyper.sharing_mode,
                                           genome.share_flag,
                                           ghyper.depth_flags[d])
                row.append(realize_module(
                    genome, ghyper, rng, f"slot{k}x{d}", shared=shared,
                    share_key=f"row{k}" if eligible else None))
            slots.append(row)
        super().__init__(slots, task_ids, class_counts, image_side, ghyper,
                         rng)


class CmsrNet(AssembledNetwork):
    """Blueprint-shaped network: every blueprint node becomes the module
    chosen for its species; multi-input nodes soft-merge per task; two
    nodes with the same module alias weights per the sharing mode."""

    def __init__(self, blueprint: BlueprintGenome, module_choice,
                 ghyper, task_ids, class_counts, image_side, rng):
        super().__init__(task_ids, class_counts, image_side)
        errs = blueprint.check()
        if errs:
            raise AssemblyError(f"invalid blueprint: {errs[0]}")
        self.blueprint = blueprint
        self.order = topo_order(blueprint.node_ids(), blueprint.edges)
        self.src, self.snk = blueprint.source(), blueprint.sink()
        _, self.parents = graph_maps(blueprint.node_ids(), blueprint.edges)
        shared: dict[str, ModuleInstance] = {}
        self.instances: dict[int, ModuleInstance] = {}
        for n in self.order:
            node = blueprint.nodes[n]
            genome = module_choice.get(node.species_id)
            if genome is None:
                raise AssemblyError(
                    f"blueprint node {n} points at unresolvable species "
                    f"{node.species_id}")
            eligible = _share_eligible(ghyper.sharing_mode, node.share_flag,
                                       True)
            self.instances[n] = realize_module(
                genome, ghyper, rng, f"node{n}", shared=shared,
                share_key=f"g{genome.genome_id}" if eligible else None)
        for t in range(len(task_ids)):
            for n in self.order:
                if len(self.parents[n]) > 1:
                    self.scales[(t, n)] = merge_scales(
                        f"t{t}.n{n}", len(self.parents[n]))
        self._make_decoders(rng, ghyper)

    def trunk(self, g, task_index, x):
        vals = {}
        for n in self.order:
            vin = x if n == self.src else merge_aligned(
                g, self.scales.get((task_index, n)),
                [vals[p] for p in self.parents[n]])
            vals[n] = self.instances[n].apply(g, vin)
        return vals[self.snk]

    def units(self):
        return list(self.instances.values())


def count_parameters(net) -> int:
    """Number of scalar parameters over distinct storages (aliases once);
    `net.params()` lists each storage once."""
    return sum(p.value.size for p in net.params())
