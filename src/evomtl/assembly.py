"""Genotype -> trainable network assembly.

Shape discipline that makes weight sharing work everywhere a module is
used: a module always sees `final_layer_filters` channels (thinner inputs,
e.g. the raw 1-channel image, are zero-padded on entry), conv genes keep
spatial size (stride-1 "same"), dense genes first pool their input down
to 1x1 so the weight matrix is independent of spatial size, and every
module ends in the fixed-width tail conv. Parameters therefore have the
same shapes at every location, so aliased realizations are always legal.

Spatial sizes only ever shrink by 2x2 max-pooling, so every size in a
network lies on the halving chain of the input side; merge points pool
larger inputs down the chain until they match the smallest, then zero-pad
channels, then soft-merge with per-merge learned scales.

Four network builders: the depth-merged baseline (`SoftOrderingNet` and
its per-task `SingleTaskNet` variant), the K x D grid (`CmGridNet`), and
blueprint-shaped topologies (`CmsrNet`).
"""

from __future__ import annotations

import numpy as np

from .diffcore import (
    CGNode, CompGraph, Param, ScaleGroup, _unique_params, init_weight,
)
from .errors import AssemblyError
from .genome import (
    SINK, SOURCE, BlueprintGenome, GlobalHyper, LayerGene, ModuleGenome,
    check_genome, topo_order,
)


class ParamStore:
    """Registry resolving storage directives: fresh ids, plus the shared
    instances already realized under a key."""

    def __init__(self):
        self._shared: dict[str, "ModuleInstance"] = {}
        self._count = 0

    def fresh_id(self) -> str:
        self._count += 1
        return f"storage{self._count}"

    def lookup(self, key: str):
        return self._shared.get(key)

    def register(self, key: str, inst: "ModuleInstance"):
        self._shared[key] = inst


def _pool_to(g: CompGraph, x: CGNode, side: int) -> CGNode:
    while x.value.shape[0] > side:
        x = g.maxpool2x2(x)
    if x.value.shape[0] != side:
        raise AssemblyError(
            f"cannot align spatial size {x.value.shape[0]} to {side}")
    return x


def merge_aligned(g: CompGraph, group: ScaleGroup,
                  inputs: list[CGNode]) -> CGNode:
    """Soft-merge after pooling larger inputs to the smallest side and
    zero-padding channels to the widest input."""
    if len(inputs) == 1:
        return inputs[0]
    side = min(x.value.shape[0] for x in inputs)
    aligned = [_pool_to(g, x, side) for x in inputs]
    chans = max(x.value.shape[2] for x in aligned)
    aligned = [g.pad_channels(x, chans) for x in aligned]
    return g.softmerge(group, aligned)


def _gene_param_shapes(gene: LayerGene, cin: int):
    if gene.kind == "conv2d":
        k = gene.kernel_size
        return (k, k, cin, gene.filters), k * k * cin, k * k * gene.filters
    return (cin, gene.filters), cin, gene.filters


def _apply_gene(g: CompGraph, gene: LayerGene, x: CGNode, w: Param, b: Param,
                activation: bool = True) -> CGNode:
    """Run one realized layer gene. Conv keeps the spatial size and
    requires the map to be at least kernel-sized; dense pools to 1x1 first
    and emits a (1, 1, filters) map."""
    if gene.kind == "conv2d":
        if min(x.value.shape[0], x.value.shape[1]) < gene.kernel_size:
            raise AssemblyError(
                f"feature map {x.value.shape[:2]} smaller than "
                f"kernel {gene.kernel_size}")
        out = g.conv2d(x, w, b)
    else:
        while x.value.shape[0] > 1:
            x = g.maxpool2x2(x)
        out = g.dense(g.flatten(x), w, b)
        out = g.reshape(out, (1, 1, gene.filters))
    if activation:
        out = g.activation(out, gene.activation)
    if gene.dropout_rate > 0:
        out = g.dropout(out, gene.dropout_rate)
    return out


def _gene_out_side(gene: LayerGene, in_side: int) -> int:
    if gene.kind == "conv2d":
        if in_side < gene.kernel_size:
            raise AssemblyError(
                f"feature map {in_side} smaller than kernel {gene.kernel_size}")
        return in_side
    return 1


class ModuleInstance:
    """A realized module: its parameters, internal merge scales, and the
    forward recipe. The same instance object may occupy several network
    locations; that is what weight sharing means here."""

    def __init__(self, genome: ModuleGenome, ghyper: GlobalHyper,
                 rng: np.random.Generator, label: str, storage_id: str):
        errs = check_genome(genome)
        if errs:
            raise AssemblyError(f"invalid module genome: {errs[0]}")
        self.genome = genome
        self.ghyper = ghyper
        self.label = label
        self.storage_id = storage_id
        width = ghyper.final_layer_filters

        node_ids = genome.node_ids()
        self.order = topo_order(node_ids, genome.edges)
        self.parents = {n: sorted(s for s, d in genome.edges.values() if d == n)
                        for n in node_ids}

        out_width = {SOURCE: width}
        self.in_width = {}
        self.params: dict[str, Param] = {}
        self.scale_groups: dict[int, ScaleGroup] = {}
        init = ghyper.weight_init

        for n in self.order:
            if n == SOURCE:
                continue
            cin = max(out_width[p] for p in self.parents[n])
            self.in_width[n] = cin
            if len(self.parents[n]) > 1:
                self.scale_groups[n] = ScaleGroup.uniform(
                    f"{label}.merge{n}", len(self.parents[n]))
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
            self.params[wkey] = Param(
                f"{label}.{wkey}", init_weight(rng, shape, fan_in, fan_out, init),
                l2_strength=gene.l2_strength, shared_id=storage_id)
            self.params[bkey] = Param(f"{label}.{bkey}", np.zeros(filters),
                                      shared_id=storage_id)

    def all_params(self) -> list[Param]:
        out = list(self.params.values())
        out.extend(sg.logits for sg in self.scale_groups.values())
        return out

    def apply(self, g: CompGraph, x: CGNode) -> CGNode:
        width = self.ghyper.final_layer_filters
        if x.value.ndim != 3:
            raise AssemblyError(f"module input must be (H, W, C), got {x.shape}")
        if x.value.shape[2] > width:
            raise AssemblyError(
                f"module input has {x.value.shape[2]} channels, contract is {width}")
        vals = {SOURCE: g.pad_channels(x, width)}
        for n in self.order:
            if n == SOURCE:
                continue
            inputs = [vals[p] for p in self.parents[n]]
            if len(inputs) > 1:
                v = merge_aligned(g, self.scale_groups[n], inputs)
            else:
                v = inputs[0]
            if n == SINK:
                tail = self.genome.final_layer
                if min(v.value.shape[:2]) < tail.kernel_size:
                    raise AssemblyError(
                        f"feature map {v.value.shape[:2]} smaller than "
                        f"tail kernel {tail.kernel_size}")
                v = g.conv2d(v, self.params["tail.w"], self.params["tail.b"])
                if self.genome.cmtr_mode:
                    v = g.activation(v, tail.activation)
                    if tail.dropout_rate > 0:
                        v = g.dropout(v, tail.dropout_rate)
                if min(v.value.shape[:2]) >= 4:
                    v = g.maxpool2x2(v)
                return v
            gene = self.genome.nodes[n]
            v = g.pad_channels(v, self.in_width[n])
            vals[n] = _apply_gene(g, gene, v,
                                  self.params[f"n{n}.w"], self.params[f"n{n}.b"])
        raise AssemblyError("module graph has no sink")  # unreachable

    def out_side(self, in_side: int) -> int:
        """Static spatial-size propagation; raises AssemblyError where a
        conv would see a map smaller than its kernel."""
        side = {SOURCE: in_side}
        for n in self.order:
            if n == SOURCE:
                continue
            s = min(side[p] for p in self.parents[n])
            if n == SINK:
                if s < self.genome.final_layer.kernel_size:
                    raise AssemblyError(
                        f"feature map {s} smaller than tail kernel")
                return s // 2 if s >= 4 else s
            side[n] = _gene_out_side(self.genome.nodes[n], s)
        raise AssemblyError("module graph has no sink")


def realize_module(genome: ModuleGenome, ghyper: GlobalHyper,
                   rng: np.random.Generator, label: str,
                   store: ParamStore | None = None,
                   share_key: str | None = None) -> ModuleInstance:
    """Create a module instance, honoring the storage directive: with a
    share_key, the first realization registers its storage and later ones
    alias it (same Param objects, same storage id)."""
    if store is not None and share_key is not None:
        existing = store.lookup(share_key)
        if existing is not None:
            return existing
    storage_id = store.fresh_id() if store is not None else share_key or label
    inst = ModuleInstance(genome, ghyper, rng, label, storage_id)
    if store is not None and share_key is not None:
        store.register(share_key, inst)
    return inst


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
                       l2_strength=gene.l2_strength, shared_id=label)
        self.b = Param(f"{label}.b", np.zeros(gene.filters), shared_id=label)

    def apply(self, g: CompGraph, x: CGNode) -> CGNode:
        return _apply_gene(g, self.gene, x, self.w, self.b)

    def out_side(self, in_side: int) -> int:
        return _gene_out_side(self.gene, in_side)

    def all_params(self):
        return [self.w, self.b]


def _make_decoders(task_ids, class_counts, features, rng, ghyper, label="dec"):
    decs = {}
    for tid, n_cls in zip(task_ids, class_counts):
        w = Param(f"{label}.{tid}.w",
                  init_weight(rng, (features, n_cls), features, n_cls,
                              ghyper.weight_init))
        b = Param(f"{label}.{tid}.b", np.zeros(n_cls))
        decs[tid] = (w, b)
    return decs


class AssembledNetwork:
    """Base: task bookkeeping, decoders, and the parameter inventory.
    Subclasses list their layer or module instances in `units()`."""

    kind = "network"

    def __init__(self, task_ids, class_counts, image_side):
        self.task_ids = list(task_ids)
        self.class_counts = list(class_counts)
        self.image_side = image_side
        self.scales = {}
        self.decoders = {}

    def _decode(self, g: CompGraph, task_index: int, y: CGNode) -> CGNode:
        w, b = self.decoders[self.task_ids[task_index]]
        return g.dense(g.flatten(y), w, b)

    def forward(self, g: CompGraph, task_index: int, x: CGNode) -> CGNode:
        raise NotImplementedError

    def units(self) -> list:
        raise NotImplementedError

    def params(self) -> list[Param]:
        """Every parameter once (aliased units count once): units, merge
        scales, decoders."""
        out = [p for unit in self.units() for p in unit.all_params()]
        out.extend(sg.logits for sg in self.scales.values())
        out.extend(p for pair in self.decoders.values() for p in pair)
        return _unique_params(out)


class SoftOrderingNet(AssembledNetwork):
    """Depth-merged baseline: D shared layers, each applied at every
    depth, combined per task and depth by learned scales."""

    kind = "soft_ordering"

    def __init__(self, genes, task_ids, class_counts, image_side, ghyper, rng):
        super().__init__(task_ids, class_counts, image_side)
        if not genes:
            raise AssemblyError("need at least one layer")
        self.ghyper = ghyper
        self.width = genes[0].filters
        self.layers = [LayerInstance(gene, self.width, ghyper, rng, f"layer{i}")
                       for i, gene in enumerate(genes)]
        d = len(self.layers)
        side = image_side
        for _ in range(d):
            side = min(layer.out_side(side) for layer in self.layers)
        self.out_features = side * side * self.width
        for t in range(len(self.task_ids)):
            for depth in range(d):
                self.scales[(t, depth)] = ScaleGroup.uniform(
                    f"t{t}.d{depth}", d)
        self.decoders = _make_decoders(task_ids, class_counts,
                                       self.out_features, rng, ghyper)

    def forward(self, g, task_index, x):
        y = g.pad_channels(x, self.width)
        for depth in range(len(self.layers)):
            cands = [layer.apply(g, y) for layer in self.layers]
            y = merge_aligned(g, self.scales[(task_index, depth)], cands)
        return self._decode(g, task_index, y)

    def units(self):
        return self.layers


class SingleTaskNet(AssembledNetwork):
    """Per-task chains with fresh weights; no cross-task sharing."""

    kind = "single_task"

    def __init__(self, genes, task_ids, class_counts, image_side, ghyper, rng):
        super().__init__(task_ids, class_counts, image_side)
        self.width = genes[0].filters
        self.chains = []
        self.out_features = {}
        for t, tid in enumerate(task_ids):
            chain = [LayerInstance(gene, self.width, ghyper, rng,
                                   f"task{t}.layer{i}")
                     for i, gene in enumerate(genes)]
            self.chains.append(chain)
            side = image_side
            for layer in chain:
                side = layer.out_side(side)
            self.out_features[tid] = side * side * self.width
        for t, (tid, n_cls) in enumerate(zip(task_ids, class_counts)):
            self.decoders.update(
                _make_decoders([tid], [n_cls], self.out_features[tid],
                               rng, ghyper))

    def forward(self, g, task_index, x):
        y = g.pad_channels(x, self.width)
        for layer in self.chains[task_index]:
            y = layer.apply(g, y)
        return self._decode(g, task_index, y)

    def units(self):
        return [layer for chain in self.chains for layer in chain]


def _share_eligible(mode: str, row_flag: bool, depth_flag: bool) -> bool:
    if mode == "enabled":
        return True
    if mode == "disabled":
        return False
    return row_flag and depth_flag


class CmGridNet(AssembledNetwork):
    """K x D grid: row k repeats one module architecture at every depth;
    each depth's K slot outputs are soft-merged per task. Row weights are
    shared exactly among the share-eligible slots of that row."""

    kind = "cm_grid"

    def __init__(self, module_set, ghyper, task_ids, class_counts,
                 image_side, rng):
        super().__init__(task_ids, class_counts, image_side)
        if not module_set:
            raise AssemblyError("need at least one module")
        self.ghyper = ghyper
        k_rows, depth = ghyper.k_modules, ghyper.depth
        self.store = ParamStore()
        self.slots: list[list[ModuleInstance]] = []
        for k in range(k_rows):
            genome = module_set[k % len(module_set)]
            row = []
            for d in range(depth):
                eligible = _share_eligible(ghyper.sharing_mode,
                                           genome.share_flag,
                                           ghyper.depth_flags[d])
                row.append(realize_module(
                    genome, ghyper, rng, f"slot{k}x{d}", store=self.store,
                    share_key=f"row{k}" if eligible else None))
            self.slots.append(row)
        side = image_side
        for d in range(depth):
            side = min(self.slots[k][d].out_side(side) for k in range(k_rows))
        self.out_features = side * side * ghyper.final_layer_filters
        for t in range(len(task_ids)):
            for d in range(depth):
                self.scales[(t, d)] = ScaleGroup.uniform(f"t{t}.d{d}", k_rows)
        self.decoders = _make_decoders(task_ids, class_counts,
                                       self.out_features, rng, ghyper)

    def forward(self, g, task_index, x):
        y = x
        for d in range(self.ghyper.depth):
            cands = [self.slots[k][d].apply(g, y)
                     for k in range(self.ghyper.k_modules)]
            y = merge_aligned(g, self.scales[(task_index, d)], cands)
        return self._decode(g, task_index, y)

    def slot_storage(self, k: int, d: int) -> str:
        return self.slots[k][d].storage_id

    def units(self):
        return [inst for row in self.slots for inst in row]


class CmsrNet(AssembledNetwork):
    """Blueprint-shaped network: every blueprint node becomes the module
    chosen for its species; multi-input nodes soft-merge per task; two
    nodes with the same module alias weights per the sharing mode."""

    kind = "cmsr"

    def __init__(self, blueprint: BlueprintGenome, module_choice,
                 ghyper, task_ids, class_counts, image_side, rng):
        super().__init__(task_ids, class_counts, image_side)
        errs = check_genome(blueprint)
        if errs:
            raise AssemblyError(f"invalid blueprint: {errs[0]}")
        self.blueprint = blueprint
        self.ghyper = ghyper
        self.store = ParamStore()
        self.order = topo_order(blueprint.node_ids(), blueprint.edges)
        self.src, self.snk = blueprint.source(), blueprint.sink()
        self.parents = {n: sorted(s for s, d in blueprint.edges.values()
                                  if d == n)
                        for n in blueprint.node_ids()}
        self.instances: dict[int, ModuleInstance] = {}
        for n in self.order:
            node = blueprint.nodes[n]
            genome = module_choice.get(node.species_id)
            if genome is None:
                raise AssemblyError(
                    f"blueprint node {n} points at unresolvable species "
                    f"{node.species_id}")
            mode = ghyper.sharing_mode
            if mode == "enabled":
                key = f"g{genome.genome_id}"
            elif mode == "evolved" and node.share_flag:
                key = f"g{genome.genome_id}.flagged"
            else:
                key = None
            self.instances[n] = realize_module(
                genome, ghyper, rng, f"node{n}", store=self.store,
                share_key=key)
        side = {self.src: self.instances[self.src].out_side(image_side)}
        for n in self.order:
            if n == self.src:
                continue
            s = min(side[p] for p in self.parents[n])
            side[n] = self.instances[n].out_side(s)
        self.out_features = (side[self.snk] ** 2) * ghyper.final_layer_filters
        for t in range(len(task_ids)):
            for n in self.order:
                if len(self.parents[n]) > 1:
                    self.scales[(t, n)] = ScaleGroup.uniform(
                        f"t{t}.n{n}", len(self.parents[n]))
        self.decoders = _make_decoders(task_ids, class_counts,
                                       self.out_features, rng, ghyper)

    def forward(self, g, task_index, x):
        vals = {}
        for n in self.order:
            if n == self.src:
                vin = x
            else:
                inputs = [vals[p] for p in self.parents[n]]
                if len(inputs) > 1:
                    vin = merge_aligned(g, self.scales[(task_index, n)], inputs)
                else:
                    vin = inputs[0]
            vals[n] = self.instances[n].apply(g, vin)
        return self._decode(g, task_index, vals[self.snk])

    def units(self):
        return list(self.instances.values())


def count_parameters(net) -> int:
    """Number of scalar parameters over distinct storages (aliases once);
    `net.params()` lists each storage once."""
    return sum(p.value.size for p in net.params())
