import math

import numpy as np
import pytest

from evomtl.dataset import split_fixed, synth_generate
from evomtl.serialize import array_from_obj, array_to_obj, canon_dumps, \
    canon_loads
from evomtl.diffcore import CompGraph, Param, softmax
from evomtl.errors import ConfigError, NumericError, ParseError
from evomtl.genome import topo_order
from evomtl.harness import build_dataset
from evomtl.routing import (
    CtrState, RoutingGraph, check_routing_graph, default_ctr_modules, evaluate_individual,
    init_ctr, joint_train, mutate_challenger, new_edge_logit,
    restore_ctr_state, run_ctr, select_and_checkpoint, serialize_ctr_state,
)
from helpers import node_sides, output_divergence


def rng(seed=0):
    return np.random.default_rng(seed)


def make_spec(seed=3, tasks=2, classes=3, side=8, noise=0.1):
    return split_fixed(synth_generate(seed, tasks, classes, side, noise), seed)


def test_init_chain_structure():
    spec = make_spec()
    modules = default_ctr_modules(4, 8, rng(1))
    state = init_ctr(modules, spec, rng(2))
    for tid, champ in state.champions.items():
        kinds = [champ.graph.nodes[n].kind for n in champ.graph.topo_order()]
        assert kinds.count("module") == 4
        assert kinds[0] == "source" and kinds[-1] == "sink"
        assert check_routing_graph(champ.graph, 4) == []
    # both champions reference identical module storage
    a = state.champions[spec.tasks[0].task_id]
    b = state.champions[spec.tasks[1].task_id]
    assert state.modules[0].params["n2.w"] is state.modules[0].params["n2.w"]
    g = CompGraph("eval")
    out = a.forward(g, state.modules, g.leaf(np.zeros((8, 8, 1))))
    assert out.shape == (3,)


def test_init_single_module():
    spec = make_spec(tasks=1)
    modules = default_ctr_modules(1, 8, rng(3))
    state = init_ctr(modules, spec, rng(4))
    champ = next(iter(state.champions.values()))
    kinds = [champ.graph.nodes[n].kind for n in champ.graph.topo_order()]
    assert kinds.count("module") == 1


def test_new_edge_logit_fixtures():
    # one incumbent at 0, alpha 0.1: ln(1/9)
    got = new_edge_logit(np.array([0.0]), 0.1)
    assert abs(got - math.log(1 / 9)) < 1e-6
    assert abs(got - (-2.197225)) < 1e-6
    w = softmax(np.array([0.0, got]))
    assert np.allclose(w, [0.9, 0.1])
    # two incumbents at 0, alpha 0.25: ln(2/3)
    got = new_edge_logit(np.array([0.0, 0.0]), 0.25)
    assert abs(got - math.log(2 / 3)) < 1e-6
    assert abs(got - (-0.405465)) < 1e-6
    w = softmax(np.array([0.0, 0.0, got]))
    assert np.allclose(w, [0.375, 0.375, 0.25])


def test_new_edge_logit_property():
    r = rng(5)
    for _ in range(2000):
        m = int(r.integers(1, 6))
        existing = r.normal(scale=3, size=m)
        for alpha in (0.5, 0.1, 1e-3):
            s = new_edge_logit(existing, alpha)
            w = softmax(np.append(existing, s))
            assert abs(w[-1] - alpha) <= 1e-9


def test_new_edge_logit_bad_alpha():
    with pytest.raises(ConfigError):
        new_edge_logit(np.zeros(1), 0.0)


def test_challenger_preserves_behaviour():
    spec = make_spec()
    modules = default_ctr_modules(3, 8, rng(6))
    state = init_ctr(modules, spec, rng(7))
    champ = state.champions[spec.tasks[0].task_id]
    r = rng(8)
    worst = 0.0
    for trial in range(20):
        chal = mutate_challenger(champ, modules, 1e-3, r, 8)
        assert not chal.mutation_failed
        inputs = [r.random((8, 8, 1)) for _ in range(25)]
        worst = max(worst, output_divergence(champ, chal, modules, inputs))
    assert worst <= 1e-2


def test_challenger_copies_not_aliases():
    spec = make_spec()
    modules = default_ctr_modules(2, 8, rng(9))
    state = init_ctr(modules, spec, rng(10))
    champ = state.champions[spec.tasks[0].task_id]
    chal = mutate_challenger(champ, modules, 0.1, rng(11), 8)
    assert chal.decoder_w is not champ.decoder_w
    assert np.array_equal(chal.decoder_w.value, champ.decoder_w.value)


def test_mutation_fuzz_routing_graphs():
    spec = make_spec(tasks=1, side=16)
    modules = default_ctr_modules(4, 16, rng(12))
    state = init_ctr(modules, spec, rng(13))
    ind = state.champions[spec.tasks[0].task_id]
    r = rng(14)
    for i in range(3000):
        ind = mutate_challenger(ind, modules, 0.1, r, 16)
        errs = check_routing_graph(ind.graph, 4)
        assert errs == [], (i, errs)
        # graph growth is monotone; keep it bounded for the fuzz loop
        if len(ind.graph.nodes) > 40:
            ind = state.champions[spec.tasks[0].task_id]
    sides = node_sides(ind.graph, modules, 16)
    assert all(s >= 1 for s in sides.values())


def test_a_splice_never_merges_a_module_output_with_the_raw_image():
    # below 4x4 a module keeps the side, so a module branch reaches the side
    # of a node that reads the 1-channel image, but not its width
    spec = make_spec(tasks=1, side=3)
    modules = default_ctr_modules(2, 3, rng(70))
    champ = init_ctr(modules, spec, rng(71)).champions["synth0"]
    r = rng(72)
    spliced = 0
    for _ in range(40):
        chal = mutate_challenger(champ, modules, 0.1, r, 3)
        assert set(node_sides(chal.graph, modules, 3).values()) == {3}
        spliced += not chal.mutation_failed
    assert spliced


def _fresh_order(graph):
    return topo_order(graph.nodes.keys(), dict(enumerate(graph.edges())))


def test_cached_topo_order_follows_mutation_and_restore():
    spec = make_spec()
    modules = default_ctr_modules(3, 8, rng(40))
    state = init_ctr(modules, spec, rng(41))
    tid = spec.tasks[0].task_id
    champ = state.champions[tid]
    r = rng(42)
    for _ in range(5):
        order = champ.graph.topo_order()
        chal = mutate_challenger(champ, modules, 0.1, r, 8)
        assert not chal.mutation_failed
        assert champ.graph.topo_order() is order
        spliced = set(chal.graph.nodes) - set(champ.graph.nodes)
        assert spliced and spliced <= set(chal.graph.topo_order())
        assert list(chal.graph.topo_order()) == _fresh_order(chal.graph)
        champ = chal
    state.champions[tid] = champ
    restored = restore_ctr_state(serialize_ctr_state(state)).champions[tid]
    assert restored.graph._order is None  # rebuilt from the saved edges
    assert restored.graph.topo_order() == champ.graph.topo_order()


def test_joint_train_moves_shared_modules():
    spec = make_spec()
    modules = default_ctr_modules(2, 8, rng(15))
    state = init_ctr(modules, spec, rng(16))
    state.challengers = {
        tid: mutate_challenger(champ, modules, 0.1, rng(17), 8)
        for tid, champ in state.champions.items()}
    before = modules[0].params["n2.w"].value.copy()
    joint_train(state, spec, 5, 1e-3, rng(18))
    assert not np.array_equal(before, modules[0].params["n2.w"].value)


def test_joint_train_zero_lr_rejected():
    spec = make_spec()
    modules = default_ctr_modules(2, 8, rng(19))
    state = init_ctr(modules, spec, rng(20))
    with pytest.raises(ConfigError):
        joint_train(state, spec, 1, 0.0, rng(21))


def test_scales_diverge_between_champion_and_challenger():
    spec = make_spec()
    modules = default_ctr_modules(2, 8, rng(22))
    state = init_ctr(modules, spec, rng(23))
    state.challengers = {
        tid: mutate_challenger(champ, modules, 0.1, rng(24), 8)
        for tid, champ in state.champions.items()}
    tid = spec.tasks[0].task_id
    joint_train(state, spec, 30, 3e-3, rng(25))
    champ, chal = state.champions[tid], state.challengers[tid]
    assert not np.array_equal(champ.decoder_w.value, chal.decoder_w.value)


def test_selection_strict_and_checkpoint_monotone():
    spec = make_spec()
    modules = default_ctr_modules(2, 8, rng(26))
    state = init_ctr(modules, spec, rng(27))
    tids = [t.task_id for t in spec.tasks]
    state.challengers = {tid: state.champions[tid].copy() for tid in tids}
    chal0 = state.challengers[tids[0]]
    accs = {tids[0]: {"champion": 0.7, "challenger": 0.8},
            tids[1]: {"champion": 0.5, "challenger": 0.5}}
    old_champ1 = state.champions[tids[1]]
    select_and_checkpoint(state, accs)
    assert state.champions[tids[0]] is chal0       # replaced
    assert state.champions[tids[1]] is old_champ1  # tie keeps champion
    assert state.best_avg_val == pytest.approx(0.65)
    assert state.checkpoint_bytes is not None
    # lower later mean must not move best_avg_val
    state.challengers = {tid: state.champions[tid].copy() for tid in tids}
    select_and_checkpoint(state, {tids[0]: {"champion": 0.1, "challenger": 0.0},
                                  tids[1]: {"champion": 0.1, "challenger": 0.0}})
    assert state.best_avg_val == pytest.approx(0.65)


def test_ctr_state_round_trip():
    spec = make_spec()
    modules = default_ctr_modules(2, 8, rng(28))
    state = init_ctr(modules, spec, rng(29))
    joint_train(state, spec, 3, 1e-3, rng(30))
    data = serialize_ctr_state(state)
    other = restore_ctr_state(data)
    assert serialize_ctr_state(other) == data
    x = rng(31).random((8, 8, 1))
    tid = spec.tasks[0].task_id
    g1, g2 = CompGraph("eval"), CompGraph("eval")
    a = state.champions[tid].forward(g1, state.modules, g1.leaf(x)).value
    b = other.champions[tid].forward(g2, other.modules, g2.leaf(x)).value
    assert np.array_equal(a, b)


def test_run_ctr_single_meta_iteration():
    spec = make_spec(tasks=2)
    modules = default_ctr_modules(2, 8, rng(32))
    final, best, history = run_ctr(modules, spec, 1, 4, 0.1, 3e-3, rng(33))
    assert len(history) == 1
    assert best == history[0]["best_avg_val"]
    assert isinstance(final, CtrState)


def test_run_ctr_monotone_best_and_storage_identity():
    spec = make_spec(tasks=2)
    modules = default_ctr_modules(2, 8, rng(34))
    storage_before = {id(p) for m in modules for p in m.all_params()}
    final, best, history = run_ctr(modules, spec, 6, 6, 0.1, 3e-3, rng(35))
    bests = [h["best_avg_val"] for h in history]
    assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
    storage_after = {id(p) for m in modules for p in m.all_params()}
    assert storage_before == storage_after
    # final evaluation works from the restored checkpoint alone
    tid = spec.tasks[0].task_id
    acc = evaluate_individual(final.champions[tid], final.modules, spec,
                              spec.tasks[0], "val")
    assert 0.0 <= acc <= 1.0


def test_evaluate_individual_raises_on_nan_logits():
    spec = make_spec()
    modules = default_ctr_modules(2, 8, rng(40))
    state = init_ctr(modules, spec, rng(41))
    for m in modules:
        for p in m.all_params():
            p.value[...] = np.nan
    task = spec.tasks[0]
    with pytest.raises(NumericError):
        evaluate_individual(state.champions[task.task_id], state.modules,
                            spec, task, "val")


def test_run_ctr_scores_champion_and_challenger_on_one_subset(monkeypatch):
    from evomtl import routing
    spec = make_spec(tasks=2)  # 18 val examples per task
    scored = []  # per evaluate_individual call: the images it scored
    inside = []
    real_eval = routing.evaluate_individual
    real_forward = routing.RoutingIndividual.forward

    def recording_eval(*args, **kwargs):
        scored.append([])
        inside.append(True)
        try:
            return real_eval(*args, **kwargs)
        finally:
            inside.pop()

    def recording_forward(self, g, modules, x):
        if inside:  # scoring forwards a batch: one row per example
            scored[-1].extend(row.tobytes() for row in x.value)
        return real_forward(self, g, modules, x)

    monkeypatch.setattr(routing, "evaluate_individual", recording_eval)
    monkeypatch.setattr(routing.RoutingIndividual, "forward",
                        recording_forward)
    run_ctr(default_ctr_modules(2, 8, rng(42)), spec, 3, 2, 0.1, 3e-3,
            rng(43), eval_subsample=5)
    assert len(scored) == 3 * 2 * 2  # meta-iterations x tasks x sides
    for champion, challenger in zip(scored[::2], scored[1::2]):
        assert len(champion) == 5
        assert sorted(champion) == sorted(challenger)


def test_restored_state_scores_tasks_in_spec_order():
    # canon_dumps sorts keys, so champions come back as synth0, synth1,
    # synth10, ...; task index i must still mean the spec's i-th task
    from evomtl.training import evaluate_accuracy
    spec = make_spec(tasks=12)
    state = init_ctr(default_ctr_modules(2, 8, rng(50)), spec, rng(51))
    restored = restore_ctr_state(serialize_ctr_state(state))
    assert list(restored.champions) != restored.task_ids
    per_task, _ = evaluate_accuracy(restored, spec, "val")
    for task in spec.tasks:
        want = evaluate_individual(restored.champions[task.task_id],
                                   restored.modules, spec, task, "val")
        assert per_task[task.task_id] == want
    # the per-task scores differ, so a misrouted index would show
    assert len(set(per_task.values())) > 1


def test_restore_rejects_checkpoint_without_task_order():
    from evomtl.errors import ParseError
    from evomtl.serialize import canon_dumps, canon_loads
    spec = make_spec()
    state = init_ctr(default_ctr_modules(2, 8, rng(52)), spec, rng(53))
    obj = canon_loads(serialize_ctr_state(state))
    del obj["task_ids"]
    with pytest.raises(ParseError):
        restore_ctr_state(canon_dumps(obj).encode())


def _no_decoder(obj, tid):
    del obj["champions"][tid]["decoder_w"]


def _no_module_weight_value(obj, tid):
    pobj = next(iter(obj["modules"][0]["params"].values()))
    del pobj["value"]


def _string_meta_iteration(obj, tid):
    obj["meta_iteration"] = "two"


@pytest.mark.parametrize("damage", [_no_decoder, _no_module_weight_value,
                                    _string_meta_iteration])
def test_restore_reports_a_missing_or_bad_field_as_a_parse_error(damage):
    spec = make_spec()
    state = init_ctr(default_ctr_modules(2, 8, rng(54)), spec, rng(55))
    obj = canon_loads(serialize_ctr_state(state))
    damage(obj, spec.tasks[0].task_id)
    with pytest.raises(ParseError):
        restore_ctr_state(canon_dumps(obj).encode())


def _cut_off_from_sink(graph, m):
    graph.add_edge(graph.source_id, graph.add_node("module", 1))


def _adapter_with_two_in_edges(graph, m):
    a = graph.add_node("adapter")
    for src, dst in ((graph.source_id, a), (m, a), (a, graph.sink_id)):
        graph.add_edge(src, dst)
    # both merges carry well-formed scales: the adapter is the only fault
    for n in (a, graph.sink_id):
        graph.scale_groups[n] = Param(f"t.n{n}.scales", np.zeros(2))


@pytest.mark.parametrize("edit", [_cut_off_from_sink,
                                  _adapter_with_two_in_edges])
def test_check_routing_graph_rejects_malformed_graphs(edit):
    graph = RoutingGraph("t")
    m = graph.add_node("module", 0)
    graph.add_edge(graph.source_id, m)
    graph.add_edge(m, graph.sink_id)
    assert check_routing_graph(graph, 2) == []
    edit(graph, m)
    assert check_routing_graph(graph, 2) != []


def _checkpoint_with_a_merge():
    """A ctr checkpoint whose first champion has a merge node."""
    spec = make_spec()
    modules = default_ctr_modules(2, 8, rng(70))
    state = init_ctr(modules, spec, rng(71))
    tid = spec.tasks[0].task_id
    champion = mutate_challenger(state.champions[tid], modules, 0.1, rng(72), 8)
    assert not champion.mutation_failed
    state.champions[tid] = champion
    return canon_loads(serialize_ctr_state(state)), tid


def _one_extra_logit(champion):
    pobj = next(iter(champion["scales"].values()))
    for field in ("value", "adam_m", "adam_v"):
        pobj[field] = array_to_obj(np.append(array_from_obj(pobj[field]), 0.0))


def _no_inbound_list(champion):
    del champion["inbound"][next(iter(champion["scales"]))]


@pytest.mark.parametrize("damage", [_one_extra_logit, _no_inbound_list])
def test_restore_rejects_a_malformed_routing_graph(damage):
    obj, tid = _checkpoint_with_a_merge()
    restore_ctr_state(canon_dumps(obj).encode())  # intact: restores
    damage(obj["champions"][tid])
    with pytest.raises(ParseError):
        restore_ctr_state(canon_dumps(obj).encode())


def test_checkpoint_rng_state_resumes_the_run_generator(tmp_path):
    spec = make_spec()
    r = rng(80)
    path = tmp_path / "ctr_checkpoint.json"
    run_ctr(default_ctr_modules(2, 8, rng(81)), spec, 2, 3, 0.1, 1e-2, r,
            checkpoint_path=str(path))
    resumed = np.random.default_rng()
    resumed.bit_generator.state = canon_loads(path.read_text())["rng_state"]
    assert resumed.random(8).tobytes() == r.random(8).tobytes()
    assert (resumed.integers(0, 2 ** 62, size=4).tolist()
            == r.integers(0, 2 ** 62, size=4).tolist())


def test_the_checkpoint_names_the_dataset_its_spec_was_built_from(tmp_path):
    ref = {"synth": {"seed": 3, "n_tasks": 2, "n_classes": 3,
                     "image_side": 8, "noise": 0.1}, "split_seed": 3}
    path = tmp_path / "ctr_checkpoint.json"
    run_ctr(default_ctr_modules(2, 8, rng(82)), build_dataset(ref), 1, 2,
            0.1, 1e-2, rng(83), checkpoint_path=str(path))
    assert canon_loads(path.read_text())["dataset"] == ref


def test_restore_builds_modules_from_saved_params(monkeypatch):
    from evomtl import assembly
    from evomtl.genome import LayerGene, ModuleGenome, SINK, SOURCE
    from evomtl.training import batched_forward
    spec = make_spec()
    modules = default_ctr_modules(2, 8, rng(60))
    # a module with an internal merge, so saved merge scales are restored too
    # (kernel 1: it runs third in the chain, on a 2x2 map)
    gene = LayerGene(2, "conv2d", "relu", 1, 8, 1e-6, 0.0)
    merged = ModuleGenome(
        genome_id=9, nodes={2: gene, 3: LayerGene(3, "conv2d", "tanh", 1, 8,
                                                 1e-6, 0.0)},
        edges={4: (SOURCE, 2), 5: (SOURCE, 3), 6: (2, SINK), 7: (3, SINK)},
        share_flag=True, final_layer=modules[0].genome.final_layer)
    modules.append(assembly.realize_module(merged, modules[0].ghyper,
                                           rng(61), "m2"))
    state = init_ctr(modules, spec, rng(62))
    r = rng(63)
    for _ in range(2):
        state.challengers = {
            tid: mutate_challenger(champ, modules, 0.1, r, 8)
            for tid, champ in state.champions.items()}
        joint_train(state, spec, 3, 1e-2, r)
        tids = list(state.champions)
        promoted = state.challengers[tids[0]]
        select_and_checkpoint(state, {
            tids[0]: {"champion": 0.1, "challenger": 0.5},
            tids[1]: {"champion": 0.5, "challenger": 0.1}})
        assert state.champions[tids[0]] is promoted

    def no_draw(*args, **kwargs):
        raise AssertionError("restore drew fresh weights")

    # routing draws its decoders through assembly.make_decoders
    monkeypatch.setattr(assembly, "init_weight", no_draw)
    restored = restore_ctr_state(serialize_ctr_state(state))
    monkeypatch.undo()
    for ti, task in enumerate(spec.tasks):
        images = [img for img, _ in spec.examples_for(task, "val")]
        live = batched_forward(lambda g, x: state.forward(g, ti, x), images)
        back = batched_forward(lambda g, x: restored.forward(g, ti, x), images)
        assert live.tobytes() == back.tobytes()
    # each plan row holds the restored instance's own Params
    for inst in restored.modules:
        used = {id(p) for row in inst.plan for p in row[4:]}
        used |= {id(row[2]) for row in inst.plan if row[2] is not None}
        assert used == {id(p) for p in inst.all_params()}
    assert restored.modules[2].scale_groups
