"""Per-task routing evolution over one persistent set of shared modules.

Each task runs a (1+1) evolution strategy: the champion routing is copied
into a challenger, the challenger gets one extra module spliced onto a
random ancestor pair, both train jointly (their gradients all land in the
single shared module storage), and the challenger replaces the champion
only on strictly higher validation accuracy. Whenever the mean champion
accuracy reaches a new best, the whole system (modules + champions) is
checkpointed; the final model is whatever the last checkpoint holds.

The spliced edge's merge scale is set so its post-softmax weight is
exactly alpha, which keeps a small-alpha challenger behaviourally close
to its champion before training.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .diffcore import (
    BatchForward, CGNode, CompGraph, Param, ParamBlock, adam_step, backward,
    zero_grads,
)
from .errors import AssemblyError, ConfigError, NumericError, StateError
from .genome import GlobalHyper, LayerGene, ModuleGenome, SINK, SOURCE, \
    dag_errors, reachable, topo_order
from .assembly import ModuleInstance, empty_input, make_decoders, \
    out_side, realize_module
from .config import check_alpha
from .dataset import DatasetRef, MultitaskSpec
from .serialize import (
    atomic_write_text, canon_dumps, canon_loads, from_obj, to_obj,
)
from .training import accuracy

NODE_KINDS = ("source", "sink", "module", "adapter")  # the ends first


@dataclass
class RNode:
    kind: str
    module_index: int | None = None


@dataclass(eq=False)
class RoutingGraph:
    """Task-routing DAG with its decoder, the dense layer the sink's value
    feeds; its fields are its checkpoint form. Inbound edge order is
    stable per node; logit i of a merge node's `scales` belongs to its
    i-th inbound edge. Nodes and edges are added only through
    `add_node`/`add_edge`, which drop the cached topological order; a
    graph given no nodes starts with just its source and sink."""

    task_id: str
    decoder_w: Param
    decoder_b: Param
    nodes: dict[int, RNode] = field(default_factory=dict)
    inbound: dict[int, list[int]] = field(default_factory=dict)
    next: int = 0
    source_id: int = 0
    sink_id: int = 1
    scales: dict[int, Param] = field(default_factory=dict)

    def __post_init__(self):
        self._order: tuple[int, ...] | None = None
        if not self.nodes:
            self.source_id = self.add_node("source")
            self.sink_id = self.add_node("sink")

    def add_node(self, kind: str, module_index: int | None = None) -> int:
        nid = self.next
        self.next += 1
        self.nodes[nid] = RNode(kind, module_index)
        self.inbound[nid] = []
        self._order = None
        return nid

    def add_edge(self, src: int, dst: int) -> None:
        self.inbound[dst].append(src)
        self._order = None

    def edges(self):
        for dst, srcs in self.inbound.items():
            for src in srcs:
                yield (src, dst)

    def topo_order(self) -> tuple[int, ...]:
        if self._order is None:
            self._order = tuple(topo_order(self.nodes.keys(),
                                           dict(enumerate(self.edges()))))
        return self._order

    def ancestors(self, node: int) -> set[int]:
        return reachable(node, self.inbound) - {node}


def check_routing_graph(graph: RoutingGraph, n_modules: int) -> list[str]:
    if graph.inbound.keys() != graph.nodes.keys():
        return ["inbound lists do not match the nodes"]
    if graph.next <= max(graph.nodes):  # add_node would reuse an id
        return [f"next {graph.next} is not past every node id"]
    errs = dag_errors(graph.nodes.keys(), dict(enumerate(graph.edges())),
                      graph.source_id, graph.sink_id)
    ends = {graph.source_id: "source", graph.sink_id: "sink"}
    for n, r in graph.nodes.items():
        # each end holds its own kind, every other node a module or adapter
        if r.kind not in ((ends[n],) if n in ends else NODE_KINDS[2:]):
            errs.append(f"node {n}: kind {r.kind!r}")
        elif (r.kind == "module") != (type(r.module_index) is int):
            errs.append(f"node {n}: {r.kind} with module index "
                        f"{r.module_index!r}")
        elif r.kind == "module" and not 0 <= r.module_index < n_modules:
            errs.append(f"node {n}: module index {r.module_index}")
        if r.kind == "adapter" and len(graph.inbound[n]) != 1:
            errs.append(f"adapter {n} has in-degree {len(graph.inbound[n])}")
    for n, srcs in graph.inbound.items():
        if len(srcs) > 1:
            scales = graph.scales.get(n)
            if scales is None or scales.value.shape != (len(srcs),):
                errs.append(f"node {n}: merge scales missing or wrong size")
        elif n in graph.scales:
            errs.append(f"node {n}: spurious merge scales")
    return errs


def route(g, graph: RoutingGraph, modules, x) -> dict:
    """Every node's value for input x, in topological order: the source
    is the identity encoder, a merge node soft-merges its inputs first,
    and the sink's value is its merged input, which the decoder reads."""
    vals = {}
    for n in graph.topo_order():
        r = graph.nodes[n]
        if r.kind == "source":
            vals[n] = x
            continue
        inputs = [vals[p] for p in graph.inbound[n]]
        v = (g.softmerge(graph.scales[n], inputs) if len(inputs) > 1
             else inputs[0])
        if r.kind == "module":
            v = modules[r.module_index].apply(g, v)
        elif r.kind == "adapter":
            v = g.maxpool2x2(v)
        vals[n] = v
    return vals


@dataclass(eq=False)
class RoutingIndividual:
    """A routing graph, which holds the individual's own decoder and scale
    weights, and whether the mutation that made it found no splice;
    module weights live in the shared set."""

    graph: RoutingGraph
    mutation_failed: bool = False

    def params(self) -> list[Param]:
        return [self.graph.decoder_w, self.graph.decoder_b,
                *self.graph.scales.values()]

    def forward(self, g: CompGraph, modules, x: CGNode) -> CGNode:
        v = route(g, self.graph, modules, x)[self.graph.sink_id]
        return g.dense(v, self.graph.decoder_w, self.graph.decoder_b)


@dataclass
class CtrState:
    """Shared modules plus per-task champions; as a multitask network,
    task i runs the champion of `task_ids[i]` (the spec's task order)."""

    modules: list[ModuleInstance]
    champions: dict[str, RoutingIndividual]
    task_ids: list[str] = field(default_factory=list)
    challengers: dict[str, RoutingIndividual] = field(default_factory=dict)
    best_avg_val: float = float("-inf")
    checkpoint_bytes: bytes | None = None

    def forward(self, g: CompGraph, task_index: int, x: CGNode) -> CGNode:
        champion = self.champions[self.task_ids[task_index]]
        return champion.forward(g, self.modules, x)

    def params(self) -> list[Param]:
        out = [p for m in self.modules for p in m.all_params()]
        for inds in (self.champions, self.challengers):
            for ind in inds.values():
                out.extend(ind.params())
        return out


def default_ctr_modules(k: int, image_side: int, rng: np.random.Generator,
                        filters: int = 8) -> list[ModuleInstance]:
    """K plain conv modules sized so the classical chain assembles at the
    given image side (kernel 3 where the map allows it, else 1)."""
    ghyper = GlobalHyper(final_layer_filters=filters,
                         k_modules=min(max(k, 2), 6), weight_init="he")
    modules = []
    side = image_side
    for i in range(k):
        kernel = 3 if side >= 3 else 1
        gene = LayerGene(2, "conv2d", "relu", kernel, filters, 1e-6, 0.0)
        tail = LayerGene(-1, "conv2d", "relu", 1, filters, 1e-6, 0.0)
        genome = ModuleGenome(
            genome_id=i + 1, nodes={2: gene},
            edges={3: (SOURCE, 2), 4: (2, SINK)},
            share_flag=True, final_layer=tail)
        inst = realize_module(genome, ghyper, rng, f"m{i}")
        out = out_side(inst, side)
        side = out // 2 if out >= 4 else out  # init chain adds an adapter here
        modules.append(inst)
    return modules


def _chain_fits(f: BatchForward, modules, x: CGNode) -> bool:
    try:
        for module in modules:
            x = module.apply(f, x)
    except AssemblyError:
        return False
    return True


def init_ctr(modules: list[ModuleInstance], spec: MultitaskSpec,
             rng: np.random.Generator) -> CtrState:
    """Champions start as the classical chain through every module, with
    an adapter after each module whose output is at least 4x4, unless the
    modules after it would no longer fit the halved map. The chain, run
    on an empty batch as it is built, sizes every task's decoder."""
    if not modules:
        raise ConfigError("need at least one shared module")
    f, x = BatchForward(), empty_input(spec.image_side)
    chain = []  # node kinds after the source
    for k, module in enumerate(modules):
        chain.append(("module", k))
        x = module.apply(f, x)
        if x.shape[0] >= 4 and _chain_fits(f, modules[k + 1:],
                                           f.maxpool2x2(x)):
            chain.append(("adapter", None))
            x = f.maxpool2x2(x)
    decoders = make_decoders(x, [t.task_id for t in spec.tasks],
                             [t.class_count for t in spec.tasks],
                             modules[0].ghyper.weight_init, rng)
    champions = {}
    for tid, decoder in decoders.items():
        graph = RoutingGraph(tid, *decoder)
        prev = graph.source_id
        for kind, index in chain:
            nid = graph.add_node(kind, index)
            graph.add_edge(prev, nid)
            prev = nid
        graph.add_edge(prev, graph.sink_id)
        champions[tid] = RoutingIndividual(graph)
    return CtrState(modules=modules, task_ids=list(champions),
                    champions=champions)


def new_edge_logit(existing: np.ndarray, alpha: float) -> float:
    """Logit whose post-softmax weight against `existing` is exactly alpha."""
    check_alpha(alpha)
    s_max = float(np.max(existing))
    return math.log(alpha / (1.0 - alpha) * float(np.exp(existing - s_max).sum())) \
        + s_max


def _extend_scale_group(graph: RoutingGraph, v: int, alpha: float) -> None:
    """Give node v's newest inbound edge post-softmax weight alpha,
    creating its scales (incumbent weight 1 - alpha) if v just became a
    merge point."""
    old = graph.scales.get(v) or Param(f"{graph.task_id}.n{v}.scales",
                                       np.zeros(1))
    logits = np.append(old.value, new_edge_logit(old.value, alpha))
    graph.scales[v] = Param(
        old.name, logits, adam_m=np.append(old.adam_m, 0.0),
        adam_v=np.append(old.adam_v, 0.0), step_count=old.step_count)


def mutate_challenger(champion: RoutingIndividual, modules, alpha: float,
                      rng: np.random.Generator,
                      image_side: int) -> RoutingIndividual:
    """Deep-copy the champion (learned weights, but no module: modules stay
    shared) and splice one random module between an ancestor pair (u, v),
    entering v's merge with post-softmax weight alpha. Falls back to a
    plain copy (flagged) when 30 draws find no feasible insertion."""
    challenger = copy.deepcopy(champion)
    graph = challenger.graph
    f = BatchForward()
    vals = route(f, graph, modules, empty_input(image_side))
    targets = [n for n, r in graph.nodes.items()
               if r.kind in ("module", "sink") and graph.inbound[n]]
    for _ in range(30):
        v = targets[rng.integers(len(targets))]
        anc = sorted(graph.ancestors(v))
        u = anc[rng.integers(len(anc))]
        k = int(rng.integers(len(modules)))
        target = vals[graph.inbound[v][0]].shape
        try:
            branch = modules[k].apply(f, vals[u])
        except AssemblyError:
            continue
        # pool the new branch down to v's input shape; a smaller side, or a
        # module's width where v reads the raw image, cannot merge
        hops = 0
        while branch.shape[0] > target[0]:
            branch = f.maxpool2x2(branch)
            hops += 1
        if branch.shape != target:
            continue
        w = graph.add_node("module", k)
        graph.add_edge(u, w)
        prev = w
        for _ in range(hops):
            a = graph.add_node("adapter")
            graph.add_edge(prev, a)
            prev = a
        graph.add_edge(prev, v)
        _extend_scale_group(graph, v, alpha)
        challenger.mutation_failed = False
        return challenger
    challenger.mutation_failed = True
    return challenger


def joint_train(state: CtrState, spec: MultitaskSpec, m_iters: int, lr: float,
                rng: np.random.Generator) -> None:
    """Train champions and challengers together: per iteration, one train
    example per (task, individual), gradients accumulated into the shared
    modules, one Adam step over one ParamBlock of every trained Param."""
    block = ParamBlock(state.params())
    zero_grads(block)
    for _ in range(m_iters):
        for ti, task in enumerate(spec.tasks):
            pool = task.split.train
            if not pool:
                raise StateError(f"task {task.task_id}: empty train split")
            individuals = [state.champions[task.task_id]]
            chal = state.challengers.get(task.task_id)
            if chal is not None:
                individuals.append(chal)
            for ind in individuals:
                img, label = task.examples[pool[rng.integers(len(pool))]]
                g = CompGraph("train", rng)
                logits = ind.forward(g, state.modules, g.leaf(img))
                backward(g, g.cross_entropy(logits, label))
        adam_step(block, lr)


def evaluate_individual(ind: RoutingIndividual, modules, examples) -> float:
    """Accuracy of `ind` on `examples` (a task's validation subset, see
    `eval_subset`)."""
    return accuracy(lambda g, x: ind.forward(g, modules, x), examples)


def eval_subset(spec: MultitaskSpec, task, subsample: int | None,
                rng: np.random.Generator):
    """The validation examples one selection round scores on: all of them,
    or `subsample` drawn without replacement."""
    examples = spec.examples_for(task, "val")
    if subsample is not None and subsample < len(examples):
        idx = rng.choice(len(examples), size=subsample, replace=False)
        examples = [examples[i] for i in idx]
    return examples


def select_and_checkpoint(state: CtrState, accuracies: dict):
    """Champion := challenger on strictly higher validation accuracy (ties
    keep the champion); checkpoint the full system on a new best mean.
    Returns (the champions' mean accuracy, how many were replaced)."""
    kept, replaced = [], 0  # per task: the accuracy of its champion now
    for tid in state.champions:
        acc = accuracies[tid]["champion"]
        chal_acc = accuracies[tid].get("challenger")
        if chal_acc is not None and chal_acc > acc:
            state.champions[tid] = state.challengers[tid]
            acc = chal_acc
            replaced += 1
        kept.append(acc)
    state.challengers = {}
    mean = float(np.mean(kept))
    if mean > state.best_avg_val:
        state.best_avg_val = mean
        state.checkpoint_bytes = serialize_ctr_state(state)
    return mean, replaced


def run_ctr(modules, spec: MultitaskSpec, meta_iters: int, m_iters: int,
            alpha: float, lr: float, rng: np.random.Generator,
            checkpoint_path: str | None = None,
            eval_subsample: int | None = None):
    """Full routing-evolution loop; returns (checkpoint-restored state,
    best mean validation accuracy, per-meta-iteration history). One
    `serialize_ctr_state` call writes that state to `checkpoint_path`
    with the history, the rng state and `spec.ref`, for eval-test."""
    if meta_iters < 1:
        raise ConfigError("need at least one meta-iteration")
    state = init_ctr(modules, spec, rng)
    history = []
    for mi in range(1, meta_iters + 1):
        state.challengers = {
            tid: mutate_challenger(champ, state.modules, alpha, rng,
                                   spec.image_side)
            for tid, champ in state.champions.items()}
        try:
            joint_train(state, spec, m_iters, lr, rng)
        except NumericError as e:
            raise NumericError(f"meta-iteration {mi}: {e}") from e
        accs = {}
        for task in spec.tasks:
            tid = task.task_id
            # Both sides score the same examples, so the strictly-greater
            # rule compares the individuals, not two random subsets.
            examples = eval_subset(spec, task, eval_subsample, rng)
            accs[tid] = {
                "champion": evaluate_individual(
                    state.champions[tid], state.modules, examples),
                "challenger": evaluate_individual(
                    state.challengers[tid], state.modules, examples),
            }
        mean_now, replaced = select_and_checkpoint(state, accs)
        history.append({"meta_iteration": mi,
                        "mean_champion_val": mean_now,
                        "best_avg_val": state.best_avg_val,
                        "replaced": replaced})
    final = restore_ctr_state(state.checkpoint_bytes)
    if checkpoint_path is not None:
        data = serialize_ctr_state(final, history=history,
                                   rng_state=rng.bit_generator.state,
                                   dataset=spec.ref)
        atomic_write_text(checkpoint_path, data.decode("utf-8"))
    return final, state.best_avg_val, history


# --- checkpoints ---------------------------------------------------------------


@dataclass
class CtrCheckpoint:
    """Shared modules, champions, the task order (champions come back in
    sorted-key order) and best mean validation accuracy; a run's file
    adds its history, generator state and dataset."""

    kind: ClassVar[str] = "ctr_state"
    retired_keys = ("meta_iteration", "image_side", "class_counts")
    best_avg_val: float
    task_ids: list[str]
    modules: list[ModuleInstance]
    champions: dict[str, RoutingGraph]
    history: list[dict] | None = None
    rng_state: dict | None = None
    dataset: DatasetRef | None = None

    def check(self) -> list[str]:
        if sorted(self.task_ids) != sorted(self.champions):
            return ["task_ids do not name the champions"]
        return [f"champions.{tid}: {err}"
                for tid, graph in self.champions.items()
                for err in check_routing_graph(graph, len(self.modules))]

    def state(self) -> CtrState:
        return CtrState(modules=self.modules, task_ids=self.task_ids,
                        champions={tid: RoutingIndividual(graph) for tid, graph
                                   in self.champions.items()},
                        best_avg_val=self.best_avg_val)


def serialize_ctr_state(state: CtrState, history: list | None = None,
                        rng_state: dict | None = None,
                        dataset: DatasetRef | None = None) -> bytes:
    """The checkpoint bytes of `state`, with the extras a run's file holds
    when given; an extra not given writes no key."""
    ckpt = CtrCheckpoint(
        state.best_avg_val, state.task_ids, state.modules,
        {tid: ind.graph for tid, ind in state.champions.items()},
        history, rng_state, dataset)
    obj = {k: v for k, v in to_obj(ckpt).items() if v is not None}
    return canon_dumps(obj).encode("utf-8")


def restore_ctr_state(data: bytes) -> CtrState:
    """The state checkpoint bytes hold; a missing or mistyped field is a
    ParseError naming it."""
    return from_obj(CtrCheckpoint, canon_loads(data), "checkpoint").state()
