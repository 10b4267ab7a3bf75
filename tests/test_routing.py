import math

import numpy as np
import pytest

from evomtl.dataset import split_fixed, synth_generate
from evomtl.diffcore import CompGraph, softmax
from evomtl.errors import ConfigError, NumericError
from evomtl.routing import (
    output_divergence,
    CtrState, check_routing_graph, default_ctr_modules, evaluate_individual,
    init_ctr, joint_train, mutate_challenger, new_edge_logit, node_sides,
    restore_ctr_state, run_ctr, select_and_checkpoint, serialize_ctr_state,
)


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
        if inside:
            scored[-1].append(x.value.tobytes())
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
