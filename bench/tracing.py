"""Span recording around evomtl's functions, installed from outside.

A `Tracer` replaces a function by a wrapper that records a span (name,
start, end, parent span, unit id) around every call. The replacement is
made on the defining module or class and on every evomtl module that
imported the same object by name, so calls through `from .x import f`
are seen too. `unpatch` puts every original back.

Two levels are installed by `install`:
  * markers: the few functions that delimit a workload's units and its
    training calls. They are on in every run, untraced ones included, and
    cost a handful of wrapper calls per unit.
  * full: every public function the per-layer metrics name, plus the
    tape ops of diffcore and, through the private `CompGraph._record`
    (the one place every op passes), tape-node counts and the vjp
    closures the ops record.

Untraced runs also take a host-speed probe (hostspeed.probe) at the start
of every ctr meta-iteration and every cm job, before its span opens, and
before every PROBE_EVERY-th optimiser step; traced runs take none, so the
probe never shows in a layer's self time.

Wrappers never touch the run's RNG and never change arguments or results,
so a traced run computes exactly what an untraced one does.
"""

from __future__ import annotations

import sys
import threading
import time
import types
from collections import defaultdict

import hostspeed

# optimiser steps between two host-speed probes inside training
PROBE_EVERY = 5

# Tape op name -> metric group; activations share one group.
OP_GROUPS = {"conv2d": "conv2d", "maxpool2x2": "maxpool2x2", "dense": "dense",
             "softmerge": "softmerge", "cross_entropy": "cross_entropy",
             "relu": "activation", "elu": "activation",
             "sigmoid": "activation", "tanh": "activation"}


class Tracer:
    """In-memory span store plus named counters and samples."""

    def __init__(self, full: bool = False, on_serve=None):
        self.full = full
        # called at the start of every coordinator batch (loopback workers)
        self.on_serve = on_serve or (lambda tracer: None)
        # span: [name, start, end, parent span or None, unit]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.unit = None
        self._tls = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrapper recording a span per call; `before(tracer, args,
        kwargs)` runs first, `after(tracer, args, kwargs, result)` after a
        call that returned."""
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            stack = self._stack()
            span = [name, clock(), 0.0, stack[-1] if stack else None,
                    self.unit]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        """Set owner.attr (and every evomtl alias of the same function)
        to `replacement`."""
        original = _original(owner, attr)
        targets = [(owner, attr)]
        if isinstance(owner, types.ModuleType):
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "") or ""
                if mod is owner or not name.startswith("evomtl"):
                    continue
                targets.extend((mod, k) for k, v in vars(mod).items()
                               if v is original)
        for obj, key in targets:
            self._undo.append((obj, key, original))
            setattr(obj, key, replacement)

    def span_fn(self, owner, attr: str, name: str, before=None, after=None):
        """Record a span around every call of owner.attr."""
        self.patch(owner, attr,
                   self.wrap(name, _original(owner, attr), before, after))

    def unpatch(self) -> None:
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)

    def export(self):
        """Spans as (name, start, end, parent index, unit) tuples."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [(s[0], s[1], s[2], index[id(s[3])] if s[3] is not None
                 else -1, s[4]) for s in self.spans]


def _original(owner, attr: str):
    # a class's own attribute (the plain function, not a bound method)
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


# --- hooks -------------------------------------------------------------------
# Each hook gets the tracer and the call's arguments exactly as passed.


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def probe_host(tr) -> None:
    if not tr.full:
        tr.samples["host.probes"].append(hostspeed.probe())


def _probing(tr, fn):
    """fn, with a host-speed probe before every PROBE_EVERY-th call."""
    calls = 0

    def wrapper(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls % PROBE_EVERY == 0:
            probe_host(tr)
        return fn(*args, **kwargs)

    return wrapper


def _ctr_unit_open(tr, args, kwargs):
    if tr.unit is None:
        probe_host(tr)
        tr.counts["unit.seq"] += 1
        tr.unit = int(tr.counts["unit.seq"])


def _ctr_unit_close(tr, args, kwargs, result):
    tr.unit = None


def _joint_train_passes(tr, args, kwargs, result):
    state = _arg(args, kwargs, 0, "state")
    m_iters = _arg(args, kwargs, 2, "m_iters")
    # run_ctr clears challengers after selection, so they are still set here
    tr.counts["train.passes"] += m_iters * (len(state.champions)
                                            + len(state.challengers))


def _train_network_passes(tr, args, kwargs, result):
    spec = _arg(args, kwargs, 1, "spec")
    tr.counts["train.passes"] += _arg(args, kwargs, 2, "iters") * len(spec.tasks)


def _job_open(tr, args, kwargs):
    probe_host(tr)
    tr.unit = _arg(args, kwargs, 0, "job").job_id


def _job_close(tr, args, kwargs, result):
    tr.unit = None
    tr.counts["jobs.evaluated"] += 1
    if result.status != "ok":
        tr.counts["jobs.failed"] += 1


def _serve_open(tr, args, kwargs):
    tr.on_serve(tr)


def _serve_close(tr, args, kwargs, results):
    jobs = _arg(args, kwargs, 1, "jobs")
    tr.samples["serve.batches"].append(
        {"job_ids": [j.job_id for j in jobs],
         "payloads": [j.payload for j in jobs],
         "results": [r.to_obj() for r in results]})


def install_markers(tr: Tracer, evomtl) -> None:
    """Unit boundaries and training calls; on in every run."""
    routing, training = evomtl.routing, evomtl.training
    harness, coevolve, cli = evomtl.harness, evomtl.coevolve, evomtl.cli
    tr.span_fn(routing, "mutate_challenger", "routing.mutate_challenger",
               before=_ctr_unit_open, after=_mutation_stats
               if tr.full else None)
    tr.span_fn(routing, "select_and_checkpoint",
               "routing.select_and_checkpoint",
               before=_replaced_stats if tr.full else None,
               after=_ctr_unit_close)
    tr.span_fn(routing, "joint_train", "routing.joint_train",
               after=_joint_train_passes)
    tr.span_fn(training, "train_network", "training.train_network",
               after=_train_network_passes)
    # snapshot scoring inside train_network is subtracted from train time
    tr.span_fn(training, "evaluate_accuracy", "training.evaluate_accuracy")
    tr.span_fn(harness, "evaluate_local", "harness.evaluate_local",
               before=_job_open, after=_job_close)
    tr.span_fn(coevolve, "plan_generation", "coevolve.plan_generation",
               after=_count_jobs)
    tr.span_fn(coevolve, "run_generation_loop", "coevolve.run_generation_loop")
    tr.span_fn(harness, "serve_coordinator", "harness.serve_coordinator",
               before=_serve_open, after=_serve_close)
    tr.span_fn(cli, "main", "cli.main")
    if not tr.full:
        dc = evomtl.diffcore
        tr.patch(dc, "adam_step", _probing(tr, dc.adam_step))


# --- full-level hooks ----------------------------------------------------------


def _mutation_stats(tr, args, kwargs, challenger):
    tr.counts["routing.mutations"] += 1
    if challenger.mutation_failed:
        tr.counts["routing.mutations_failed"] += 1
    tr.samples["routing.graph_nodes"].append(len(challenger.graph.nodes))


def _replaced_stats(tr, args, kwargs):
    accs = _arg(args, kwargs, 1, "accuracies")
    for acc in accs.values():
        if acc.get("challenger") is not None:
            tr.counts["routing.challengers"] += 1
            if acc["challenger"] > acc["champion"]:
                tr.counts["routing.replaced"] += 1


def _count_jobs(tr, args, kwargs, jobs):
    tr.counts["coevolve.jobs"] += len(jobs)


def _checkpoint_bytes(tr, args, kwargs, data):
    tr.samples["routing.checkpoint_bytes"].append(len(data))


def _conv_shapes(tr, args, kwargs):
    x, w = args[1].value, args[2].value
    h, wd, cin = x.shape
    k, cout = w.shape[0], w.shape[3]
    tr.counts["diffcore.conv2d.flops"] += 2 * h * wd * k * k * cin * cout
    tr.counts["diffcore.conv2d.im2col_bytes"] += h * wd * k * k * cin * 8


def _species_count(tr, args, kwargs, pop):
    if pop.kind == "module":
        tr.samples["genome.species_count"].append(len(pop.species))


def _dumps_bytes(tr, args, kwargs, text):
    tr.counts["serialize.canon_dumps.bytes"] += len(text)


def install_full(tr: Tracer, evomtl) -> None:
    """Every function the per-layer metrics name."""
    dc, routing, training = evomtl.diffcore, evomtl.routing, evomtl.training
    assembly, genome, coevolve = evomtl.assembly, evomtl.genome, evomtl.coevolve
    harness, dataset, serialize = evomtl.harness, evomtl.dataset, evomtl.serialize
    graph_cls = dc.CompGraph

    for op in ("conv2d", "maxpool2x2", "dense", "softmerge", "activation",
               "cross_entropy"):
        tr.span_fn(graph_cls, op, f"diffcore.{op}",
                   before=_conv_shapes if op == "conv2d" else None)
    record = graph_cls.__dict__["_record"]

    def traced_record(graph, op, value, parents, vjp):
        tr.counts["diffcore.tape_nodes"] += 1
        if graph.mode == "eval":
            tr.counts["diffcore.eval_tape_nodes"] += 1
        group = OP_GROUPS.get(op)
        if vjp is not None and group is not None:
            vjp = tr.wrap(f"diffcore.{group}.vjp", vjp)
        return record(graph, op, value, parents, vjp)

    tr.patch(graph_cls, "_record", traced_record)
    tr.span_fn(dc, "backward", "diffcore.backward")
    tr.span_fn(dc, "adam_step", "diffcore.adam_step")

    tr.span_fn(routing, "evaluate_individual", "routing.evaluate_individual")
    tr.span_fn(routing, "serialize_ctr_state", "routing.serialize_ctr_state",
               after=_checkpoint_bytes)
    tr.span_fn(routing, "restore_ctr_state", "routing.restore_ctr_state")

    count_parameters = assembly.count_parameters
    tr.span_fn(harness, "build_payload_network", "assembly.build_network",
               after=lambda t, a, k, net: t.samples["assembly.param_count"]
               .append(count_parameters(net)))
    tr.span_fn(assembly, "realize_module", "assembly.realize_module")
    tr.span_fn(genome, "speciate_and_reproduce", "genome.speciate_and_reproduce",
               after=_species_count)
    tr.span_fn(coevolve, "attribute_fitness", "coevolve.attribute_fitness")
    tr.span_fn(coevolve, "retrain_top", "coevolve.retrain_top")

    tr.span_fn(harness, "evaluate_payload", "harness.evaluate_payload")
    tr.span_fn(harness, "build_dataset", "harness.build_dataset")
    dumps = serialize.canon_dumps
    tr.span_fn(harness, "send_frame", "harness.send_frame",
               after=lambda t, a, k, r: _frame(t, "sent", a[1], dumps))
    tr.span_fn(harness, "recv_frame", "harness.recv_frame",
               after=lambda t, a, k, msg: _frame(t, "recv", msg, dumps))

    for fn in ("load_image_dir", "synth_generate", "split_fixed",
               "sample_iteration"):
        tr.span_fn(dataset, fn, f"dataset.{fn}")
    tr.span_fn(serialize, "canon_dumps", "serialize.canon_dumps",
               after=_dumps_bytes)
    tr.span_fn(serialize, "atomic_write_text", "serialize.atomic_write_text")


def _frame(tr, direction, msg, dumps):
    if msg is None:
        return
    kind = msg.get("kind")
    tr.counts["harness.frames"] += 1
    # canonical encoding, so re-encoding gives the bytes on the wire
    tr.counts["harness.frame_bytes"] += 4 + len(dumps(msg).encode("utf-8"))
    if direction == "sent" and kind == "job":
        tr.samples["harness.dispatched"].append(msg["job_id"])
    elif direction == "recv" and kind == "result":
        tr.samples["harness.results_received"].append(msg["result"]["job_id"])
    elif direction == "recv" and kind == "hello":
        tr.samples["harness.hello_at"].append(time.perf_counter())


def install(tr: Tracer, evomtl) -> None:
    install_markers(tr, evomtl)
    if tr.full:
        install_full(tr, evomtl)
