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

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .diffcore import (
    BatchForward, CGNode, CompGraph, Param, ParamBlock, adam_step, backward,
    zero_grads,
)
from .errors import AssemblyError, ConfigError, NumericError, ParseError, \
    StateError
from .genome import GlobalHyper, LayerGene, ModuleGenome, SINK, SOURCE, \
    dag_errors, reachable, topo_order
from .assembly import ModuleInstance, empty_input, make_decoders, \
    out_side, realize_module
from .dataset import MultitaskSpec
from .serialize import (
    array_from_obj, array_to_obj, atomic_write_text, canon_dumps, canon_loads,
    from_obj, to_obj,
)
from .training import accuracy

NODE_KINDS = ("source", "sink", "module", "adapter")


@dataclass
class RNode:
    kind: str
    module_index: int | None = None


class RoutingGraph:
    """Task-routing DAG. Inbound edge order is stable per node; logit i of
    a merge node's scales belongs to its i-th inbound edge. Nodes and
    edges are added only through `add_node`/`add_edge`, which drop the
    cached topological order."""

    def __init__(self, task_id: str):
        self.task_id = task_id
        self.nodes: dict[int, RNode] = {}
        self.inbound: dict[int, list[int]] = {}
        self.scale_groups: dict[int, Param] = {}
        self._next = 0
        self._order: tuple[int, ...] | None = None
        self.source_id = self.add_node("source")
        self.sink_id = self.add_node("sink")

    def add_node(self, kind: str, module_index: int | None = None) -> int:
        nid = self._next
        self._next += 1
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

    def copy(self) -> "RoutingGraph":
        g = RoutingGraph.__new__(RoutingGraph)
        g.task_id = self.task_id
        g.nodes = {n: RNode(r.kind, r.module_index) for n, r in self.nodes.items()}
        g.inbound = {n: list(srcs) for n, srcs in self.inbound.items()}
        g.scale_groups = {n: p.copy() for n, p in self.scale_groups.items()}
        g._next = self._next
        g._order = self._order
        g.source_id = self.source_id
        g.sink_id = self.sink_id
        return g


def check_routing_graph(graph: RoutingGraph, n_modules: int) -> list[str]:
    if graph.inbound.keys() != graph.nodes.keys():
        return ["inbound lists do not match the nodes"]
    errs = dag_errors(graph.nodes.keys(), dict(enumerate(graph.edges())),
                      graph.source_id, graph.sink_id)
    for n, r in graph.nodes.items():
        if r.kind == "module" and not 0 <= r.module_index < n_modules:
            errs.append(f"node {n}: module index {r.module_index}")
        if r.kind == "adapter" and len(graph.inbound[n]) != 1:
            errs.append(f"adapter {n} has in-degree {len(graph.inbound[n])}")
    for n, srcs in graph.inbound.items():
        if len(srcs) > 1:
            scales = graph.scale_groups.get(n)
            if scales is None or scales.value.shape != (len(srcs),):
                errs.append(f"node {n}: merge scales missing or wrong size")
        elif n in graph.scale_groups:
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
        v = (g.softmerge(graph.scale_groups[n], inputs) if len(inputs) > 1
             else inputs[0])
        if r.kind == "module":
            v = modules[r.module_index].apply(g, v)
        elif r.kind == "adapter":
            v = g.maxpool2x2(v)
        vals[n] = v
    return vals


class RoutingIndividual:
    """(encoder, routing graph, decoder) with its own decoder and scale
    weights; module weights live in the shared set."""

    def __init__(self, graph: RoutingGraph, decoder_w: Param, decoder_b: Param):
        self.graph = graph
        self.decoder_w = decoder_w
        self.decoder_b = decoder_b
        self.mutation_failed = False

    def copy(self) -> "RoutingIndividual":
        ind = RoutingIndividual(self.graph.copy(),
                                self.decoder_w.copy(), self.decoder_b.copy())
        return ind

    def params(self) -> list[Param]:
        out = [self.decoder_w, self.decoder_b]
        out.extend(self.graph.scale_groups.values())
        return out

    def forward(self, g: CompGraph, modules, x: CGNode) -> CGNode:
        v = route(g, self.graph, modules, x)[self.graph.sink_id]
        return g.dense(v, self.decoder_w, self.decoder_b)


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


def _chain_fits(modules, side: int) -> bool:
    try:
        for module in modules:
            side = out_side(module, side)
    except AssemblyError:
        return False
    return True


def init_ctr(modules: list[ModuleInstance], spec: MultitaskSpec,
             rng: np.random.Generator) -> CtrState:
    """Champions start as the classical chain through every module, with
    an adapter after each module whose output is at least 4x4, unless the
    modules after it would no longer fit the halved map."""
    if not modules:
        raise ConfigError("need at least one shared module")
    chain, side = [], spec.image_side  # node kinds after the source
    for k, module in enumerate(modules):
        chain.append(("module", k))
        side = out_side(module, side)
        if side >= 4 and _chain_fits(modules[k + 1:], side // 2):
            chain.append(("adapter", None))
            side //= 2
    graphs = {}
    for task in spec.tasks:
        graph = graphs[task.task_id] = RoutingGraph(task.task_id)
        prev = graph.source_id
        for kind, index in chain:
            nid = graph.add_node(kind, index)
            graph.add_edge(prev, nid)
            prev = nid
        graph.add_edge(prev, graph.sink_id)
    # every task starts on the same chain, so one route sizes every decoder
    sink = route(BatchForward(), graph, modules,
                 empty_input(spec.image_side))[graph.sink_id]
    decoders = make_decoders(sink, list(graphs),
                             [t.class_count for t in spec.tasks],
                             modules[0].ghyper.weight_init, rng)
    return CtrState(modules=modules, task_ids=list(graphs),
                    champions={tid: RoutingIndividual(g, *decoders[tid])
                               for tid, g in graphs.items()})


def new_edge_logit(existing: np.ndarray, alpha: float) -> float:
    """Logit whose post-softmax weight against `existing` is exactly alpha."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    s_max = float(np.max(existing))
    return math.log(alpha / (1.0 - alpha) * float(np.exp(existing - s_max).sum())) \
        + s_max


def _extend_scale_group(graph: RoutingGraph, v: int, alpha: float) -> None:
    """Give node v's newest inbound edge post-softmax weight alpha,
    creating its scales (incumbent weight 1 - alpha) if v just became a
    merge point."""
    old = graph.scale_groups.get(v)
    if old is None:
        logits = np.array([0.0, new_edge_logit(np.zeros(1), alpha)])
        graph.scale_groups[v] = Param(f"{graph.task_id}.n{v}.scales", logits)
        return
    logits = np.append(old.value, new_edge_logit(old.value, alpha))
    p = Param(old.name, logits)
    p.adam_m = np.append(old.adam_m, 0.0)
    p.adam_v = np.append(old.adam_v, 0.0)
    p.step_count = old.step_count
    graph.scale_groups[v] = p


def mutate_challenger(champion: RoutingIndividual, modules, alpha: float,
                      rng: np.random.Generator, image_side: int,
                      max_tries: int = 30) -> RoutingIndividual:
    """Copy the champion (learned weights included) and splice one random
    module between an ancestor pair (u, v), entering v's merge with
    post-softmax weight alpha. Falls back to a plain copy (flagged)
    when no feasible insertion is found."""
    challenger = champion.copy()
    graph = challenger.graph
    f = BatchForward()
    vals = route(f, graph, modules, empty_input(image_side))
    targets = [n for n, r in graph.nodes.items()
               if r.kind in ("module", "sink") and graph.inbound[n]]
    for _ in range(max_tries):
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


def evaluate_individual(ind: RoutingIndividual, modules,
                        spec: MultitaskSpec, task, split: str = "val",
                        examples: list | None = None) -> float:
    """Accuracy of `ind` on `task`'s split, or on `examples` when given
    (a subset drawn by the caller, see `eval_subset`)."""
    if examples is None:
        examples = spec.examples_for(task, split)
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


def select_and_checkpoint(state: CtrState, accuracies: dict) -> None:
    """Champion := challenger on strictly higher validation accuracy (ties
    keep the champion); checkpoint the full system on a new best mean."""
    champ_accs = {}
    for tid in state.champions:
        champ_acc = accuracies[tid]["champion"]
        chal_acc = accuracies[tid].get("challenger")
        if chal_acc is not None and chal_acc > champ_acc:
            state.champions[tid] = state.challengers[tid]
            champ_accs[tid] = chal_acc
        else:
            champ_accs[tid] = champ_acc
    state.challengers = {}
    mean = float(np.mean(list(champ_accs.values())))
    if mean > state.best_avg_val:
        state.best_avg_val = mean
        state.checkpoint_bytes = serialize_ctr_state(state)


def run_ctr(modules, spec: MultitaskSpec, meta_iters: int, m_iters: int,
            alpha: float, lr: float, rng: np.random.Generator,
            checkpoint_path: str | None = None,
            eval_subsample: int | None = None):
    """Full routing-evolution loop; returns (checkpoint-restored state,
    best mean validation accuracy, per-meta-iteration history). The file
    at `checkpoint_path` gets that state, the history, the rng state and
    `spec.ref`, which eval-test rebuilds the dataset from."""
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
                    state.champions[tid], state.modules, spec, task,
                    examples=examples),
                "challenger": evaluate_individual(
                    state.challengers[tid], state.modules, spec, task,
                    examples=examples),
            }
        replaced = sum(1 for tid in accs
                       if accs[tid]["challenger"] > accs[tid]["champion"])
        select_and_checkpoint(state, accs)
        mean_now = float(np.mean([
            max(accs[tid]["champion"], accs[tid]["challenger"])
            for tid in accs]))
        history.append({"meta_iteration": mi,
                        "mean_champion_val": mean_now,
                        "best_avg_val": state.best_avg_val,
                        "replaced": replaced})
    final = restore_ctr_state(state.checkpoint_bytes)
    if checkpoint_path is not None:
        payload = canon_loads(state.checkpoint_bytes)
        payload.update(history=history, rng_state=rng.bit_generator.state,
                       dataset=to_obj(spec.ref))
        atomic_write_text(checkpoint_path, canon_dumps(payload))
    return final, state.best_avg_val, history


# --- serialization -----------------------------------------------------------


def _param_obj(p: Param) -> dict:
    return {"name": p.name, "value": array_to_obj(p.value),
            "adam_m": array_to_obj(p.adam_m), "adam_v": array_to_obj(p.adam_v),
            "step_count": p.step_count, "l2_strength": p.l2_strength}


@contextlib.contextmanager
def _parsing(what: str):
    """Report a missing or mistyped field of a checkpoint object as a
    ParseError about `what`."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise ParseError(f"bad {what}: {type(e).__name__}: {e}") from e


def _param_from_obj(obj) -> Param:
    with _parsing("parameter"):
        p = Param(obj["name"], array_from_obj(obj["value"]),
                  l2_strength=float(obj["l2_strength"]))
        p.adam_m = array_from_obj(obj["adam_m"])
        p.adam_v = array_from_obj(obj["adam_v"])
        p.step_count = int(obj["step_count"])
    return p


def module_instance_to_obj(inst: ModuleInstance) -> dict:
    return {
        "genome": to_obj(inst.genome),
        "ghyper": to_obj(inst.ghyper),
        "label": inst.label,
        "params": {k: _param_obj(p) for k, p in inst.params.items()},
        "scales": {str(n): _param_obj(p)
                   for n, p in inst.scale_groups.items()},
    }


def module_instance_from_obj(obj) -> ModuleInstance:
    with _parsing("module instance"):
        saved = {"params": {key: _param_from_obj(pobj)
                            for key, pobj in obj["params"].items()},
                 "scales": {int(n): _param_from_obj(pobj)
                            for n, pobj in obj["scales"].items()}}
        return ModuleInstance(
            from_obj(ModuleGenome, obj["genome"], "module instance.genome"),
            from_obj(GlobalHyper, obj["ghyper"], "module instance.ghyper"),
            None, obj["label"], saved=saved)


def _individual_obj(ind: RoutingIndividual) -> dict:
    graph = ind.graph
    return {
        "task_id": graph.task_id,
        "nodes": to_obj(graph.nodes),
        "inbound": {str(n): srcs for n, srcs in graph.inbound.items()},
        "next": graph._next,
        "source_id": graph.source_id,
        "sink_id": graph.sink_id,
        "scales": {str(n): _param_obj(p)
                   for n, p in graph.scale_groups.items()},
        "decoder_w": _param_obj(ind.decoder_w),
        "decoder_b": _param_obj(ind.decoder_b),
    }


def _individual_from_obj(obj, n_modules: int) -> RoutingIndividual:
    with _parsing("routing individual"):
        graph = RoutingGraph.__new__(RoutingGraph)
        graph.task_id = obj["task_id"]
        graph.nodes = from_obj(dict[int, RNode], obj["nodes"],
                               "routing individual.nodes")
        graph.inbound = {int(n): [int(s) for s in srcs]
                         for n, srcs in obj["inbound"].items()}
        graph._next = int(obj["next"])
        graph._order = None
        graph.source_id = int(obj["source_id"])
        graph.sink_id = int(obj["sink_id"])
        graph.scale_groups = {int(n): _param_from_obj(pobj)
                              for n, pobj in obj["scales"].items()}
        errs = check_routing_graph(graph, n_modules)
        if errs:
            raise ParseError(f"routing graph of {graph.task_id!r}: {errs[0]}")
        return RoutingIndividual(graph, _param_from_obj(obj["decoder_w"]),
                                 _param_from_obj(obj["decoder_b"]))


def serialize_ctr_state(state: CtrState) -> bytes:
    obj = {
        "kind": "ctr_state",
        "best_avg_val": state.best_avg_val,
        "task_ids": state.task_ids,
        "modules": [module_instance_to_obj(m) for m in state.modules],
        "champions": {tid: _individual_obj(ind)
                      for tid, ind in state.champions.items()},
    }
    return canon_dumps(obj).encode("utf-8")


def restore_ctr_state(data: bytes) -> CtrState:
    return ctr_state_from_obj(canon_loads(data))


def ctr_state_from_obj(obj) -> CtrState:
    """The state a parsed ctr checkpoint holds; a missing or bad field is
    a ParseError."""
    with _parsing("ctr checkpoint"):
        modules = [module_instance_from_obj(m) for m in obj["modules"]]
        return CtrState(
            modules=modules,
            champions={tid: _individual_from_obj(io, len(modules))
                       for tid, io in obj["champions"].items()},
            # champions come back in sorted-key order, so the task order
            # cannot be recovered from them
            task_ids=[str(t) for t in obj["task_ids"]],
            best_avg_val=float(obj["best_avg_val"]),
        )
