"""Genotypes and evolutionary operators.

Two genome kinds share the machinery:

* `ModuleGenome` -- a DAG of layer genes between a pass-through source
  (node id 0) and sink (node id 1), plus a mandatory final 1x1-conv gene
  and a weight-sharing flag. At most 8 internal nodes.
* `BlueprintGenome` -- a DAG whose every node points at a module species
  and carries its own sharing flag; the structural source/sink are
  ordinary species nodes.

Edges (and nodes created by edge splits) take ids from an
`InnovationTracker`, which caches ids per structural origin so identical
mutations in different genomes stay alignable for crossover and
compatibility distance. Every operator returns genomes that satisfy the
invariants: connected DAG, single source, single sink, hyperparameters in
range.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .errors import ConfigError, StateError

SOURCE = 0
SINK = 1

KERNEL_SIZES = (1, 3, 5)
FILTER_RANGE = (8, 64)
L2_LOG10_RANGE = (-7.0, -2.0)
DROPOUT_RANGE = (0.0, 0.5)
LR_LOG10_RANGE = (-4.0, -2.0)
K_RANGE = (2, 6)
DEPTH_RANGE = (2, 6)
MAX_INTERNAL_NODES = 8
ACTIVATIONS = ("relu", "elu", "sigmoid", "tanh")
WEIGHT_INITS = ("glorot", "he")
SHARING_MODES = ("enabled", "disabled", "evolved")

DENSE_GENE_PROB = 0.2  # new internal nodes are mostly convolutional

COMPAT_C1 = 1.0
COMPAT_C3 = 0.5
COMPAT_THRESHOLD = 3.0
COMPAT_ADJUST = 0.1


@dataclass
class LayerGene:
    innovation_id: int
    kind: str  # dense | conv2d
    activation: str
    kernel_size: int  # conv only
    filters: int
    l2_strength: float
    dropout_rate: float

    def check(self) -> list[str]:
        errs = []
        if self.kind not in ("dense", "conv2d"):
            errs.append(f"gene {self.innovation_id}: bad kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            errs.append(f"gene {self.innovation_id}: bad activation")
        if self.kernel_size not in KERNEL_SIZES:
            errs.append(f"gene {self.innovation_id}: kernel {self.kernel_size}")
        if not FILTER_RANGE[0] <= self.filters <= FILTER_RANGE[1]:
            errs.append(f"gene {self.innovation_id}: filters {self.filters}")
        if not (10 ** L2_LOG10_RANGE[0] * 0.999
                <= self.l2_strength
                <= 10 ** L2_LOG10_RANGE[1] * 1.001):
            errs.append(f"gene {self.innovation_id}: l2 {self.l2_strength}")
        if not DROPOUT_RANGE[0] <= self.dropout_rate <= DROPOUT_RANGE[1]:
            errs.append(f"gene {self.innovation_id}: dropout {self.dropout_rate}")
        return errs


def random_layer_gene(rng: np.random.Generator, innovation_id: int,
                      kind: str | None = None) -> LayerGene:
    """Fresh gene with conservative regularization draws (low dropout and
    L2) so new structure starts trainable; perturbation explores the full
    ranges."""
    if kind is None:
        kind = "dense" if rng.random() < DENSE_GENE_PROB else "conv2d"
    return LayerGene(
        innovation_id=innovation_id,
        kind=kind,
        activation=str(rng.choice(ACTIVATIONS)),
        kernel_size=int(rng.choice(KERNEL_SIZES)),
        filters=int(rng.integers(FILTER_RANGE[0], FILTER_RANGE[1] + 1)),
        l2_strength=float(10 ** rng.uniform(L2_LOG10_RANGE[0], -4.0)),
        dropout_rate=float(rng.uniform(0.0, 0.2)),
    )


@dataclass
class BlueprintNode:
    species_id: int
    share_flag: bool


@dataclass
class ModuleGenome:
    genome_id: int
    nodes: dict[int, LayerGene]          # internal nodes only
    edges: dict[int, tuple[int, int]]    # innovation -> (src, dst)
    share_flag: bool
    final_layer: LayerGene               # mandatory tail hyperparameters
    cmtr_mode: bool = False
    species_id: int | None = None

    kind: ClassVar[str] = "module"
    fitness = 0.0  # this generation's score; never saved

    def node_ids(self) -> set[int]:
        return {SOURCE, SINK} | set(self.nodes)

    def check(self) -> list[str]:
        """All invariant violations (empty list means valid)."""
        errs = dag_errors(self.node_ids(), self.edges, SOURCE, SINK)
        if len(self.nodes) > MAX_INTERNAL_NODES:
            errs.append(f"{len(self.nodes)} internal nodes exceeds cap")
        for gene in [*self.nodes.values(), self.final_layer]:
            errs.extend(gene.check())
        if self.final_layer.kind != "conv2d":
            errs.append("the tail gene must be a conv2d")
        return errs


@dataclass
class BlueprintGenome:
    genome_id: int
    nodes: dict[int, BlueprintNode]
    edges: dict[int, tuple[int, int]]
    species_id: int | None = None

    kind: ClassVar[str] = "blueprint"
    fitness = 0.0  # this generation's score; never saved

    def node_ids(self) -> set[int]:
        return set(self.nodes)

    def source(self) -> int:
        return _only_end(graph_maps(self.nodes, self.edges)[1], "sources")

    def sink(self) -> int:
        return _only_end(graph_maps(self.nodes, self.edges)[0], "sinks")

    def check(self) -> list[str]:
        """All invariant violations (empty list means valid)."""
        return dag_errors(self.node_ids(), self.edges)


def _only_end(adj: dict[int, list[int]], what: str) -> int:
    """The one node with an empty adjacency list."""
    ends = [i for i, nbrs in adj.items() if not nbrs]
    if len(ends) != 1:
        raise StateError(f"graph has {len(ends)} {what}")
    return ends[0]


@dataclass
class GlobalHyper:
    """Network-wide evolvable hyperparameters."""

    learning_rate: float = 3e-3
    final_layer_filters: int = 8
    weight_init: str = "glorot"
    k_modules: int = 4          # grid rows / shared-module count
    depth: int = 2              # grid columns
    depth_flags: tuple[bool, ...] = (True, True)
    sharing_mode: str = "evolved"

    def check(self) -> list[str]:
        errs = []
        if not (10 ** LR_LOG10_RANGE[0] * 0.999 <= self.learning_rate
                <= 10 ** LR_LOG10_RANGE[1] * 1.001):
            errs.append(f"learning_rate {self.learning_rate}")
        if not FILTER_RANGE[0] <= self.final_layer_filters <= FILTER_RANGE[1]:
            errs.append(f"final_layer_filters {self.final_layer_filters}")
        if self.weight_init not in WEIGHT_INITS:
            errs.append(f"weight_init {self.weight_init!r}")
        if not K_RANGE[0] <= self.k_modules <= K_RANGE[1]:
            errs.append(f"k_modules {self.k_modules}")
        if not DEPTH_RANGE[0] <= self.depth <= DEPTH_RANGE[1]:
            errs.append(f"depth {self.depth}")
        if len(self.depth_flags) != self.depth:
            errs.append("depth_flags length != depth")
        if self.sharing_mode not in SHARING_MODES:
            errs.append(f"sharing_mode {self.sharing_mode!r}")
        return errs


def random_global_hyper(rng: np.random.Generator,
                        sharing_mode: str = "evolved") -> GlobalHyper:
    depth = int(rng.integers(DEPTH_RANGE[0], DEPTH_RANGE[1] + 1))
    return GlobalHyper(
        learning_rate=float(10 ** rng.uniform(*LR_LOG10_RANGE)),
        final_layer_filters=int(rng.integers(FILTER_RANGE[0], FILTER_RANGE[1] + 1)),
        weight_init=str(rng.choice(WEIGHT_INITS)),
        k_modules=int(rng.integers(K_RANGE[0], K_RANGE[1] + 1)),
        depth=depth,
        depth_flags=tuple(bool(rng.random() < 0.5) for _ in range(depth)),
        sharing_mode=sharing_mode,
    )


def mutate_global(h: GlobalHyper, rng: np.random.Generator) -> GlobalHyper:
    """Perturb one global hyperparameter, keeping everything in range."""
    fields = ["learning_rate", "final_layer_filters", "weight_init",
              "k_modules", "depth"]
    if h.sharing_mode == "evolved":
        fields.append("depth_flags")
    pick = str(rng.choice(fields))
    out = replace(h)
    if pick == "learning_rate":
        lg = math.log10(h.learning_rate) + rng.normal(0, 0.3)
        out.learning_rate = float(10 ** min(max(lg, LR_LOG10_RANGE[0]),
                                            LR_LOG10_RANGE[1]))
    elif pick == "final_layer_filters":
        f = h.final_layer_filters + int(round(rng.normal(0, 8)))
        out.final_layer_filters = min(max(f, FILTER_RANGE[0]), FILTER_RANGE[1])
    elif pick == "weight_init":
        out.weight_init = str(rng.choice(WEIGHT_INITS))
    elif pick == "k_modules":
        k = h.k_modules + int(rng.choice((-1, 1)))
        out.k_modules = min(max(k, K_RANGE[0]), K_RANGE[1])
    elif pick == "depth":
        d = h.depth + int(rng.choice((-1, 1)))
        d = min(max(d, DEPTH_RANGE[0]), DEPTH_RANGE[1])
        flags = list(h.depth_flags[:d])
        while len(flags) < d:
            flags.append(bool(rng.random() < 0.5))
        out.depth = d
        out.depth_flags = tuple(flags)
    else:  # depth_flags
        i = int(rng.integers(h.depth))
        flags = list(h.depth_flags)
        flags[i] = not flags[i]
        out.depth_flags = tuple(flags)
    return out


# --- structural validation -------------------------------------------------


def graph_maps(node_ids, edges: dict[int, tuple[int, int]]):
    """(children, parents) adjacency lists per node; parent lists are
    sorted by node id, the order merges take their inputs in."""
    succ = {i: [] for i in node_ids}
    pred = {i: [] for i in node_ids}
    for s, d in edges.values():
        succ[s].append(d)
        pred[d].append(s)
    for parents in pred.values():
        parents.sort()
    return succ, pred


def reachable(start: int, adj: dict[int, list[int]]) -> set[int]:
    """`start` and every node reachable from it along `adj`."""
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def dag_errors(node_ids, edges: dict[int, tuple[int, int]],
               source: int | None = None, sink: int | None = None) -> list[str]:
    """Structural violations of a single-source, single-sink DAG (empty
    means valid): edges to missing nodes, a cycle, and other than one root
    (`source`, when given) or one leaf (`sink`). With one root and one
    leaf, every node lies on a source->sink path: in a DAG, walking
    parents from any node ends at a root and walking children at a leaf."""
    errs = [f"edge {innov} references missing node"
            for innov, (s, d) in edges.items()
            if s not in node_ids or d not in node_ids]
    if errs:
        return errs
    try:
        topo_order(node_ids, edges)
    except StateError:
        return ["graph has a cycle"]
    succ, pred = graph_maps(node_ids, edges)
    roots = sorted(i for i in node_ids if not pred[i])
    leaves = sorted(i for i in node_ids if not succ[i])
    if len(roots) != 1 or source is not None and roots != [source]:
        errs.append(f"sources: {roots}")
    if len(leaves) != 1 or sink is not None and leaves != [sink]:
        errs.append(f"sinks: {leaves}")
    return errs


def topo_order(node_ids: set[int], edges) -> list[int]:
    """Deterministic topological order (ties broken by node id)."""
    succ, pred = graph_maps(node_ids, edges)
    indeg = {i: len(pred[i]) for i in node_ids}
    ready = sorted(i for i in node_ids if indeg[i] == 0)
    order = []
    while ready:
        i = ready.pop(0)
        order.append(i)
        for j in sorted(succ[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
        ready.sort()
    if len(order) != len(node_ids):
        raise StateError("cycle encountered during toposort")
    return order


# --- innovation bookkeeping --------------------------------------------------


class InnovationTracker:
    """Run-scoped id source. Identical structural origins (same edge
    endpoints, same split) receive identical ids across genomes."""

    def __init__(self):
        self._next = 2  # after a module's source and sink
        self._edge_ids: dict[tuple[int, int], int] = {}
        self._split_ids: dict[int, int] = {}
        self._next_genome = 0

    def fresh(self) -> int:
        i = self._next
        self._next += 1
        return i

    def edge_innov(self, src: int, dst: int) -> int:
        key = (src, dst)
        if key not in self._edge_ids:
            self._edge_ids[key] = self.fresh()
        return self._edge_ids[key]

    def split_node(self, edge_innov: int) -> int:
        if edge_innov not in self._split_ids:
            self._split_ids[edge_innov] = self.fresh()
        return self._split_ids[edge_innov]

    def next_genome_id(self) -> int:
        self._next_genome += 1
        return self._next_genome


# --- mutation ----------------------------------------------------------------


@dataclass
class MutationRates:
    """Per-genome operator probabilities; conventional NEAT magnitudes."""

    add_node: float = 0.05
    add_edge: float = 0.1
    perturb: float = 0.5
    flip_flag: float = 0.05
    sharing_mode: str = "evolved"


def _mutate_add_node(g, tracker: InnovationTracker, rng,
                     species_ids=None) -> None:
    if g.kind == "module" and len(g.nodes) >= MAX_INTERNAL_NODES:
        return
    if not g.edges:
        return
    innovs = sorted(g.edges)
    innov = innovs[rng.integers(len(innovs))]
    src, dst = g.edges[innov]
    node_id = tracker.split_node(innov)
    if node_id in g.node_ids():
        node_id = tracker.fresh()  # split reoccupied via crossover; new origin
    del g.edges[innov]
    if g.kind == "module":
        g.nodes[node_id] = random_layer_gene(rng, node_id)
    else:
        g.nodes[node_id] = BlueprintNode(
            species_id=int(rng.choice(species_ids)),
            share_flag=bool(rng.random() < 0.5))
    g.edges[tracker.edge_innov(src, node_id)] = (src, node_id)
    g.edges[tracker.edge_innov(node_id, dst)] = (node_id, dst)


def _mutate_add_edge(g, tracker: InnovationTracker, rng) -> None:
    node_ids = g.node_ids()
    succ, pred = graph_maps(node_ids, g.edges)
    present = set(g.edges.values())
    src, snk = _only_end(pred, "sources"), _only_end(succ, "sinks")
    # valid (a, b): not already present, keeps source/sink roles, and
    # acyclic (no existing path b -> a)
    valid = []
    for b in sorted(node_ids):
        if b == src:
            continue
        ancestors_of_b_and_self = reachable(b, succ)
        for a in sorted(node_ids):
            if a == b or a == snk or (a, b) in present:
                continue
            if a in ancestors_of_b_and_self:
                continue  # path b -> a exists; edge would close a cycle
            valid.append((a, b))
    if not valid:
        return  # skipped, not an error
    a, b = valid[rng.integers(len(valid))]
    g.edges[tracker.edge_innov(a, b)] = (a, b)


def _perturb_gene(gene: LayerGene, rng) -> None:
    fields = ["activation", "filters", "l2_strength", "dropout_rate"]
    if gene.kind == "conv2d":
        fields.append("kernel_size")
    pick = str(rng.choice(fields))
    if pick == "activation":
        gene.activation = str(rng.choice(ACTIVATIONS))
    elif pick == "filters":
        f = gene.filters + int(round(rng.normal(0, 0.15) * 56))
        gene.filters = min(max(f, FILTER_RANGE[0]), FILTER_RANGE[1])
    elif pick == "l2_strength":
        lg = math.log10(gene.l2_strength) + rng.normal(0, 0.5)
        gene.l2_strength = float(10 ** min(max(lg, L2_LOG10_RANGE[0]),
                                           L2_LOG10_RANGE[1]))
    elif pick == "dropout_rate":
        d = gene.dropout_rate + rng.normal(0, 0.1)
        gene.dropout_rate = float(min(max(d, DROPOUT_RANGE[0]), DROPOUT_RANGE[1]))
    else:
        idx = KERNEL_SIZES.index(gene.kernel_size)
        idx += int(round(rng.normal(0, 0.8)))
        gene.kernel_size = KERNEL_SIZES[min(max(idx, 0), len(KERNEL_SIZES) - 1)]


def _offspring(genome, tracker: InnovationTracker):
    """A deep copy of `genome` under the tracker's next genome id."""
    child = copy.deepcopy(genome)
    child.genome_id = tracker.next_genome_id()
    return child


def mutate(genome, tracker: InnovationTracker, rng: np.random.Generator,
           rates: MutationRates | None = None, species_ids=None):
    """Apply the configured mutations to a deep copy of `genome`, under
    the tracker's next genome id; the parent is left as it was.

    add-node splits an edge, add-edge preserves acyclicity (skipped when
    impossible), perturb nudges one hyperparameter in normalized/log
    space, and a sharing flag flips only under sharing_mode="evolved".
    """
    rates = rates or MutationRates()
    g = _offspring(genome, tracker)
    if rng.random() < rates.add_node:
        _mutate_add_node(g, tracker, rng, species_ids)
    if rng.random() < rates.add_edge:
        _mutate_add_edge(g, tracker, rng)
    if rng.random() < rates.perturb:
        if g.kind == "module":
            genes = [g.nodes[i] for i in sorted(g.nodes)]
            if g.cmtr_mode:
                genes.append(g.final_layer)
            if genes:
                _perturb_gene(genes[rng.integers(len(genes))], rng)
        else:
            ids = sorted(g.nodes)
            node = g.nodes[ids[rng.integers(len(ids))]]
            node.species_id = int(rng.choice(species_ids))
    if rates.sharing_mode == "evolved" and rng.random() < rates.flip_flag:
        if g.kind == "module":
            g.share_flag = not g.share_flag
        else:
            ids = sorted(g.nodes)
            node = g.nodes[ids[rng.integers(len(ids))]]
            node.share_flag = not node.share_flag
    return g


# --- crossover ----------------------------------------------------------------


def crossover(a, b, rng: np.random.Generator, tracker: InnovationTracker):
    """NEAT-style recombination: genes aligned by innovation id, matching
    genes inherited from a random parent, disjoint/excess from the fitter
    parent (which also fixes the child's topology, so validity is
    inherited)."""
    if a.kind != b.kind:
        raise ConfigError(f"cannot cross {a.kind} with {b.kind}")
    fit, other = (a, b) if a.fitness >= b.fitness else (b, a)

    child = _offspring(fit, tracker)
    for node_id in child.nodes:
        if node_id in other.nodes and rng.random() < 0.5:
            child.nodes[node_id] = replace(other.nodes[node_id])
    if a.kind == "module":
        donor = other if rng.random() < 0.5 else fit
        child.share_flag = donor.share_flag
        child.final_layer = replace(donor.final_layer)
    child.species_id = None
    child.fitness = 0.0
    return child


# --- compatibility / speciation -----------------------------------------------


def _gene_distance(ga, gb) -> float:
    if isinstance(ga, BlueprintNode):
        return float(np.mean([ga.species_id != gb.species_id,
                              ga.share_flag != gb.share_flag]))
    parts = [
        1.0 if ga.kind != gb.kind else 0.0,
        1.0 if ga.activation != gb.activation else 0.0,
        abs(KERNEL_SIZES.index(ga.kernel_size)
            - KERNEL_SIZES.index(gb.kernel_size)) / 2.0,
        abs(ga.filters - gb.filters) / (FILTER_RANGE[1] - FILTER_RANGE[0]),
        abs(math.log10(ga.l2_strength) - math.log10(gb.l2_strength)) / 5.0,
        abs(ga.dropout_rate - gb.dropout_rate) / DROPOUT_RANGE[1],
    ]
    return float(np.mean(parts))


def compatibility(a, b) -> float:
    node_a, node_b = set(a.nodes), set(b.nodes)
    edge_a, edge_b = set(a.edges), set(b.edges)
    mismatched = len(node_a ^ node_b) + len(edge_a ^ edge_b)
    n = max(len(node_a) + len(edge_a), len(node_b) + len(edge_b), 1)
    matching = sorted(node_a & node_b)
    dists = [_gene_distance(a.nodes[i], b.nodes[i]) for i in matching]
    if a.kind == "module":
        dists.append(_gene_distance(a.final_layer, b.final_layer))
    hyper = float(np.mean(dists)) if dists else 0.0
    return COMPAT_C1 * mismatched / n + COMPAT_C3 * hyper


@dataclass
class Species:
    species_id: int
    representative: object
    members: list


class SpeciesPopulation:
    """A speciated population of one genome kind plus its id tracker."""

    def __init__(self, kind: str, species: list[Species],
                 tracker: InnovationTracker, target_species: int):
        self.kind = kind
        self.species = species
        self.tracker = tracker
        self.target_species = target_species
        self.compat_threshold = COMPAT_THRESHOLD
        self._next_species_id = max((s.species_id for s in species), default=0) + 1

    def all_members(self) -> list:
        return [g for s in self.species for g in s.members]

    def species_ids(self) -> list[int]:
        return [s.species_id for s in self.species]


def init_module_population(count: int, n_species: int,
                           rng: np.random.Generator,
                           cmtr_mode: bool = False) -> SpeciesPopulation:
    """Minimal founders (source -> one random gene -> sink), dealt into
    n_species groups round-robin."""
    if not count >= n_species >= 1:
        raise ConfigError(f"need count >= n_species >= 1, got {count}/{n_species}")
    tracker = InnovationTracker()
    founder_node = tracker.fresh()
    e_in = tracker.edge_innov(SOURCE, founder_node)
    e_out = tracker.edge_innov(founder_node, SINK)
    genomes = []
    for _ in range(count):
        # founders are minimal: one standard 3x3 conv gene, no dropout;
        # kernels, kinds, and regularization diversify through mutation
        gene = random_layer_gene(rng, founder_node, kind="conv2d")
        gene.kernel_size = 3
        gene.dropout_rate = 0.0
        tail = random_layer_gene(rng, -1, kind="conv2d")
        tail.kernel_size = 1
        tail.dropout_rate = 0.0
        g = ModuleGenome(
            genome_id=tracker.next_genome_id(),
            nodes={founder_node: gene},
            edges={e_in: (SOURCE, founder_node), e_out: (founder_node, SINK)},
            share_flag=bool(rng.random() < 0.5),
            final_layer=tail,
            cmtr_mode=cmtr_mode,
        )
        genomes.append(g)
    species = [Species(k + 1, None, []) for k in range(n_species)]
    for i, g in enumerate(genomes):
        sp = species[i % n_species]
        g.species_id = sp.species_id
        sp.members.append(g)
    for sp in species:
        sp.representative = sp.members[0]
    return SpeciesPopulation("module", species, tracker, n_species)


def init_blueprint_population(count: int, module_species_ids: list[int],
                              rng: np.random.Generator) -> SpeciesPopulation:
    """Blueprints grown from a 2-node chain by add-node/add-edge mutations
    until a size drawn from 2 + Poisson(3), truncated at 8 nodes."""
    if count < 1:
        raise ConfigError("need at least one blueprint")
    if not module_species_ids:
        raise ConfigError("module species must exist before blueprints")
    tracker = InnovationTracker()
    chain_edge_key = (SOURCE, SINK)
    genomes = []
    for _ in range(count):
        nodes = {
            SOURCE: BlueprintNode(int(rng.choice(module_species_ids)),
                                  bool(rng.random() < 0.5)),
            SINK: BlueprintNode(int(rng.choice(module_species_ids)),
                                bool(rng.random() < 0.5)),
        }
        g = BlueprintGenome(
            genome_id=tracker.next_genome_id(),
            nodes=nodes,
            edges={tracker.edge_innov(*chain_edge_key): chain_edge_key},
        )
        target = min(2 + int(rng.poisson(3)), MAX_INTERNAL_NODES)
        while len(g.nodes) < target:
            _mutate_add_node(g, tracker, rng, module_species_ids)
            if rng.random() < 0.3:
                _mutate_add_edge(g, tracker, rng)
        g.species_id = 1
        genomes.append(g)
    species = [Species(1, genomes[0], genomes)]
    return SpeciesPopulation("blueprint", species, tracker, 1)


def _allocate(weights: list[float], total: int) -> list[int]:
    """Largest-remainder apportionment of `total` by weight."""
    s = sum(weights)
    if s <= 0:
        weights = [1.0] * len(weights)
        s = float(len(weights))
    raw = [w / s * total for w in weights]
    base = [int(x) for x in raw]
    short = total - sum(base)
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - base[i]), i))
    for i in order[:short]:
        base[i] += 1
    return base


def speciate_and_reproduce(pop: SpeciesPopulation, elite_frac: float,
                           rng: np.random.Generator,
                           rates: MutationRates | None = None,
                           species_ids: list[int] | None = None) -> SpeciesPopulation:
    """One generation: fitness-share offspring slots across species, copy
    elites, breed the rest (crossover + mutation), then re-speciate
    against the old representatives and nudge the compatibility threshold
    toward the target species count."""
    members = pop.all_members()
    if not members:
        raise StateError("cannot reproduce an empty population")
    total = len(members)
    rates = rates or MutationRates()
    if species_ids is None and pop.kind == "blueprint":
        raise ConfigError("blueprint reproduction needs module species ids")

    weights = [sum(g.fitness for g in s.members) for s in pop.species]
    allocs = _allocate(weights, total)

    new_members = []
    for sp, alloc in zip(pop.species, allocs):
        if alloc == 0:
            continue
        ranked = sorted(sp.members, key=lambda g: (-g.fitness, g.genome_id))
        n_elite = min(alloc, max(1, int(round(elite_frac * len(ranked)))))
        for g in ranked[:n_elite]:
            new_members.append(g)
        parents = ranked[:max(1, len(ranked) // 2)]
        for _ in range(alloc - n_elite):
            pa = parents[rng.integers(len(parents))]
            pb = parents[rng.integers(len(parents))]
            child = crossover(pa, pb, rng, pop.tracker)
            child = mutate(child, pop.tracker, rng, rates, species_ids)
            new_members.append(child)

    reps = [(s.species_id, s.representative) for s in pop.species]
    buckets: dict[int, list] = {}
    for g in new_members:
        best_id, best_d = None, None
        for sid, rep in reps:
            d = compatibility(g, rep)
            if best_d is None or d < best_d:
                best_id, best_d = sid, d
        if best_d is not None and best_d <= pop.compat_threshold:
            g.species_id = best_id
            buckets.setdefault(best_id, []).append(g)
        else:
            sid = pop._next_species_id
            pop._next_species_id += 1
            g.species_id = sid
            reps.append((sid, g))
            buckets.setdefault(sid, []).append(g)

    # each species' first member represents it next generation
    pop.species = [Species(sid, buckets[sid][0], buckets[sid])
                   for sid in sorted(buckets)]
    if len(pop.species) > pop.target_species:
        pop.compat_threshold += COMPAT_ADJUST
    elif len(pop.species) < pop.target_species:
        pop.compat_threshold = max(0.3, pop.compat_threshold - COMPAT_ADJUST)
    for g in pop.all_members():
        g.fitness = 0.0
    return pop
