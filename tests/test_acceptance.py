"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line. Tolerances are fixed here, not configurable. Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import itertools
import math
import socket
import subprocess
import sys
import threading
import time

import numpy as np

from evomtl.assembly import CmGridNet, SingleTaskNet, SoftOrderingNet
from evomtl.coevolve import (
    HyperPopulation, attribute_fitness, run_generation_loop,
)
from evomtl.config import ExperimentConfig
from evomtl.dataset import (
    MultitaskSpec, Split, SynthParams, SynthRef, TaskDataset, split_fixed,
    synth_generate,
)
from evomtl.diffcore import (
    CompGraph, Param, softmax,
)
from evomtl.errors import StateError
from evomtl.genome import (
    GlobalHyper, LayerGene, MutationRates, crossover,
    init_blueprint_population, init_module_population, mutate,
)
from evomtl.harness import (
    CmPayload, Coordinator, Job, JobResult, local_evaluator, run_worker,
    serve_coordinator,
)
from evomtl.routing import (
    check_routing_graph, default_ctr_modules, evaluate_individual, init_ctr,
    mutate_challenger, new_edge_logit, run_ctr,
)
from evomtl.training import evaluate_accuracy, train_network
from helpers import grad_check, naming_payload, output_divergence


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} ({desc}): {status}"
          + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num}: {desc} {detail}"


def rng(seed):
    return np.random.default_rng(seed)


# -- 1. gradient correctness ---------------------------------------------------

def test_criterion_01_gradient_correctness():
    start = time.monotonic()
    worst = 0.0
    activations = ["relu", "elu", "sigmoid", "tanh"]
    for i in range(20):
        r = rng(1000 + i)
        act = activations[i % 4]
        w1 = Param("w1", 0.5 * r.normal(size=(3, 3, 1, 2)), l2_strength=1e-4)
        b1 = Param("b1", 0.1 * r.normal(size=2))
        s = Param("s", r.normal(size=2))
        w2 = Param("w2", 0.5 * r.normal(size=(18, 3)))
        b2 = Param("b2", np.zeros(3))
        x = r.normal(size=(6, 6, 1))
        label = i % 3

        def builder():
            g = CompGraph("train", rng(i))
            xn = g.leaf(x)
            h1 = g.activation(g.conv2d(xn, w1, b1), act)
            h2 = g.pad_channels(xn, 2)
            merged = g.softmerge(s, [h1, h2])
            h = g.maxpool2x2(merged)
            h = g.dropout(h, 0.2)
            h = g.dense(h, w2, b2)
            return g, g.cross_entropy(h, label)

        result = grad_check(builder, [w1, b1, s, w2, b2], 1e-4)
        worst = max(worst, result.max_rel_error)
        if not result.passed:
            break
    elapsed = time.monotonic() - start
    _report(1, "gradients match finite differences",
            worst <= 1e-4 and elapsed < 60,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


# -- 2. soft-merge law ---------------------------------------------------------

def test_criterion_02_soft_merge_law():
    r = rng(2)
    ok = True
    for _ in range(10_000):
        m = int(r.integers(1, 6))
        logits = r.normal(scale=r.uniform(0.1, 20), size=m)
        w = softmax(logits)
        if abs(w.sum() - 1.0) > 1e-6:
            ok = False
            break
        shape = (int(r.integers(1, 4)), int(r.integers(1, 3)))
        xs = [r.normal(size=shape) for _ in range(m)]
        g = CompGraph("eval")
        out = g.softmerge(Param("s", logits),
                          [g.leaf(x) for x in xs]).value
        lo, hi = np.min(xs, axis=0), np.max(xs, axis=0)
        if not (np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9)):
            ok = False
            break
    _report(2, "softmax sums to 1 and merge is convex", ok)


# -- 3. routing scale formula ----------------------------------------------------

def test_criterion_03_scale_formula():
    r = rng(3)
    worst = 0.0
    for _ in range(10_000):
        m = int(r.integers(1, 7))
        existing = r.normal(scale=3, size=m)
        for alpha in (0.5, 0.1, 1e-3):
            s_new = new_edge_logit(existing, alpha)
            w = softmax(np.append(existing, s_new))
            worst = max(worst, abs(w[-1] - alpha))
    fx1 = abs(new_edge_logit(np.array([0.0]), 0.1) - math.log(1 / 9))
    fx2 = abs(new_edge_logit(np.array([0.0, 0.0]), 0.25) - math.log(2 / 3))
    ok = worst <= 1e-9 and fx1 < 5e-7 and fx2 < 5e-7
    _report(3, "new-edge weight equals alpha", ok,
            f"max dev {worst:.1e}, fixtures {fx1:.1e}/{fx2:.1e}")


# -- 4. champion preservation -----------------------------------------------------

def test_criterion_04_champion_preservation():
    spec = split_fixed(synth_generate(7, 5, 4, 8, 0.1), 7)
    modules = default_ctr_modules(4, 8, rng(6), filters=16)
    state = init_ctr(modules, spec, rng(7))
    r = rng(8)
    worst = 0.0
    for task in spec.tasks:
        champ = state.champions[task.task_id]
        chal = mutate_challenger(champ, modules, 1e-3, r, 8)
        inputs = [r.random((8, 8, 1)) for _ in range(100)]
        worst = max(worst, output_divergence(champ, chal, modules, inputs))
    _report(4, "alpha=1e-3 challenger preserves champion outputs",
            worst <= 1e-2, f"max rel L2 {worst:.2e}")


# -- 5. DAG safety under fuzzing ---------------------------------------------------

def test_criterion_05_dag_safety():
    violations = 0
    total = 0
    # module genomes: mutations
    pop = init_module_population(8, 2, rng(50))
    pool = list(pop.all_members())
    r = rng(51)
    rates = MutationRates(add_node=0.3, add_edge=0.4, perturb=0.8,
                          flip_flag=0.2)
    for _ in range(4000):
        child = mutate(pool[r.integers(len(pool))], pop.tracker, r, rates)
        total += 1
        violations += bool(child.check())
        pool.append(child)
        pool = pool[-64:]
    # module crossovers
    for g in pool:
        g.fitness = float(r.random())
    for _ in range(2000):
        child = crossover(pool[r.integers(len(pool))],
                          pool[r.integers(len(pool))], r, pop.tracker)
        total += 1
        violations += bool(child.check())
    # blueprints
    bpop = init_blueprint_population(8, [1, 2, 3], rng(52))
    bpool = list(bpop.all_members())
    for _ in range(2000):
        child = mutate(bpool[r.integers(len(bpool))], bpop.tracker, r, rates,
                       species_ids=[1, 2, 3])
        total += 1
        violations += bool(child.check())
        bpool.append(child)
        bpool = bpool[-64:]
    for g in bpool:
        g.fitness = float(r.random())
    for _ in range(1000):
        child = crossover(bpool[r.integers(len(bpool))],
                          bpool[r.integers(len(bpool))], r, bpop.tracker)
        total += 1
        violations += bool(child.check())
    # routing graphs
    spec = split_fixed(synth_generate(53, 1, 3, 16, 0.1), 0)
    modules = default_ctr_modules(3, 16, rng(54))
    state = init_ctr(modules, spec, rng(55))
    ind = state.champions[spec.tasks[0].task_id]
    base = ind
    for _ in range(3000):
        ind = mutate_challenger(ind, modules, 0.1, r, 16)
        total += 1
        violations += bool(check_routing_graph(ind.graph, 3))
        if len(ind.graph.nodes) > 40:
            ind = base
    _report(5, "fuzzed operators keep every invariant",
            total >= 10_000 and violations == 0,
            f"{total} operations, {violations} violations")


# -- 6. depth-merge recurrence oracle ------------------------------------------------

def conv_same_ref(img, w, b):
    k = w.shape[0]
    pad = k // 2
    xp = np.pad(img, ((pad, pad), (pad, pad), (0, 0)))
    h, wd = img.shape[:2]
    cout = w.shape[3]
    out = np.zeros((h, wd, cout))
    for i in range(h):
        for j in range(wd):
            out[i, j, :] = np.tensordot(xp[i:i + k, j:j + k, :], w,
                                        axes=([0, 1, 2], [0, 1, 2])) + b
    return out


def test_criterion_06_depth_merge_oracle():
    genes = [LayerGene(2, "conv2d", "relu", 3, 8, 1e-6, 0.0),
             LayerGene(3, "conv2d", "relu", 3, 8, 1e-6, 0.0)]
    h = GlobalHyper(final_layer_filters=8)
    net = SoftOrderingNet(genes, ["a", "b"], [3, 4], 5, h, rng(60))
    x = rng(61).random((5, 5, 1))
    worst = 0.0
    for t in range(2):
        for d in range(2):
            net.scales[(t, d)].value[...] = rng(62 + 2 * t + d).normal(size=2)
        g = CompGraph("eval")
        got = net.forward(g, t, g.leaf(x)).value
        # independent straight-line recurrence
        y = np.zeros((5, 5, 8))
        y[:, :, :1] = x
        params = [(l.w.value, l.b.value) for l in net.layers]
        for d in range(2):
            outs = [np.maximum(conv_same_ref(y, w, b), 0.0) for w, b in params]
            s = softmax(net.scales[(t, d)].value)
            y = sum(sm * o for sm, o in zip(s, outs))
        w, b = net.decoders[net.task_ids[t]]
        expect = y.reshape(-1) @ w.value + b.value
        worst = max(worst, float(np.max(np.abs(got - expect))))
    _report(6, "forward equals straight-line recurrence", worst <= 1e-6,
            f"max abs dev {worst:.1e}")


# -- 7. grid insertion and sharing rules ----------------------------------------------

def test_criterion_07_grid_insertion_and_sharing():
    ok = True
    r = rng(70)
    for k_rows, n_mods in itertools.product(range(1, 7), range(1, 5)):
        modules = []
        for i in range(n_mods):
            pop = init_module_population(1, 1, rng(700 + 10 * k_rows + i))
            g = pop.all_members()[0]
            g.genome_id = i
            g.share_flag = bool(r.random() < 0.5)
            modules.append(g)
        depth = 2
        flags = tuple(bool(r.random() < 0.5) for _ in range(depth))
        h = GlobalHyper(depth=depth, depth_flags=flags, sharing_mode="evolved")
        h.k_modules = k_rows
        net = CmGridNet(modules, h, ["t"], [3], 32, rng(71))
        for k in range(k_rows):
            # 1-based statement: row k holds architecture ((k-1) mod |M|) + 1
            if net.slots[k][0].genome is not modules[k % n_mods]:
                ok = False
        groups = {}
        for k in range(k_rows):
            for d in range(depth):
                eligible = modules[k % n_mods].share_flag and flags[d]
                groups[(k, d)] = ("row", k) if eligible else ("solo", k, d)
        for a in groups:
            for b in groups:
                same = net.slots[a[0]][a[1]] is net.slots[b[0]][b[1]]
                if same != (groups[a] == groups[b]):
                    ok = False
    _report(7, "grid insertion wrap and sharing match brute force", ok)


# -- 8. fitness attribution oracle -----------------------------------------------------

def test_criterion_08_attribution_oracle():
    ok = True
    r = rng(80)
    for trial in range(100):
        pop = init_module_population(int(r.integers(4, 10)), 2, rng(trial))
        members = pop.all_members()
        jobs, results = [], {}
        for j in range(int(r.integers(2, 14))):
            n = int(r.integers(1, len(members) + 1))
            ids = [g.genome_id for g in members[:n]]
            r.shuffle(ids)
            jobs.append(Job(j, naming_payload(list(ids))))
            results[j] = (JobResult(j, "ok", fitness=float(r.random()))
                          if r.random() < 0.8 else JobResult(j, "failed"))
        attribute_fitness(jobs, results, pop)
        table = {}
        for job in jobs:
            res = results[job.job_id]
            if res.status != "ok":
                continue
            for gid in job.payload.module_ids:
                table.setdefault(gid, []).append(res.fitness)
        for g in members:
            want = (sum(table[g.genome_id]) / len(table[g.genome_id])
                    if g.genome_id in table else 0.0)
            if g.fitness != want:
                ok = False
    _report(8, "attribution equals independent tabulation exactly", ok)


# -- 9. checkpoint monotonicity and test guard ------------------------------------------

def test_criterion_09_checkpoint_monotonicity_and_guard():
    spec = split_fixed(synth_generate(90, 2, 3, 8, 0.1), 90)
    modules = default_ctr_modules(2, 8, rng(91))
    # test split locked during evolution
    guard_ok = False
    try:
        spec.examples_for(spec.tasks[0], "test")
    except StateError:
        guard_ok = True
    final, best, history = run_ctr(modules, spec, 6, 10, 0.1, 5e-3, rng(92))
    bests = [h["best_avg_val"] for h in history]
    monotone = all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
    assert not spec._test_unlocked  # the run itself never touched test data
    # the returned state must be checkpoint-only: wreck the live modules and
    # confirm the final state's evaluation is unaffected
    task = spec.tasks[0]
    acc_before = evaluate_individual(final.champions[task.task_id],
                                     final.modules,
                                     spec.examples_for(task, "val"))
    for m in modules:
        for p in m.all_params():
            p.value[...] = 0.0
    acc_after = evaluate_individual(final.champions[task.task_id],
                                    final.modules,
                                    spec.examples_for(task, "val"))
    _report(9, "best-average checkpointing is monotone and isolated",
            guard_ok and monotone and acc_before == acc_after,
            f"series {['%.3f' % b for b in bests]}")


# -- 10. routing-evolution smoke experiment ----------------------------------------------

def test_criterion_10_smoke_experiment():
    start = time.monotonic()
    spec = split_fixed(synth_generate(7, 5, 4, 8, 0.1), 7)
    r = rng(7)  # one stream for module init and the run, as the CLI does
    modules = default_ctr_modules(4, 8, r, filters=16)
    final, best, history = run_ctr(modules, spec, 40, 50, 0.1, 0.01, r)
    elapsed = time.monotonic() - start
    _report(10, "smoke run reaches 0.90 mean validation accuracy",
            best >= 0.90 and elapsed < 600,
            f"best {best:.4f} in {elapsed:.0f}s")


# -- 11. multitask direction -------------------------------------------------------------

def related_corpus(seed, n_classes=10, side=8, noise=0.28, rich=40, poor=20):
    """Three related tasks (shared images, permuted labels) with one
    data-rich and two data-poor tasks."""
    r = rng(seed + 999)
    tasks = []
    for t, epc in enumerate((rich, poor, poor)):
        base = synth_generate(seed, 1, n_classes, side, noise,
                              examples_per_class=epc)
        perm = r.permutation(n_classes)
        examples = [(img, int(perm[label]))
                    for img, label in base.tasks[0].examples]
        tasks.append(TaskDataset(f"rel{t}", n_classes, examples,
                                 Split(train=list(range(len(examples))))))
    return split_fixed(MultitaskSpec(tasks, side), seed)


def test_criterion_11_multitask_direction():
    genes = [LayerGene(2 + i, "conv2d", "relu", 3, 8, 1e-6, 0.0)
             for i in range(2)]
    h = GlobalHyper(final_layer_filters=8, weight_init="he")
    wins = 0
    pairs = []
    for seed in (0, 1, 2):
        spec = related_corpus(100)
        tids = [t.task_id for t in spec.tasks]
        cls = [t.class_count for t in spec.tasks]
        accs = {}
        for kind, asm in (("soft", SoftOrderingNet),
                          ("single", SingleTaskNet)):
            r = rng(seed)
            net = asm(genes, tids, cls, 8, h, r)
            train_network(net, spec, 900, 3e-3, r)
            _, accs[kind] = evaluate_accuracy(net, spec, "val")
        wins += accs["soft"] >= accs["single"]
        pairs.append(f"{accs['soft']:.3f}/{accs['single']:.3f}")
    _report(11, "depth-merged sharing >= separate nets on 2 of 3 seeds",
            wins >= 2, f"soft/single per seed: {pairs}")


# -- 12. sharing-mode ablation -------------------------------------------------------------

def test_criterion_12_sharing_ablation():
    results = {}
    for mode in ("enabled", "disabled", "evolved"):
        bests = []
        for seed in (0, 1, 2):
            r = rng(1200 + seed)
            pop = init_module_population(8, 2, r)
            base = GlobalHyper(learning_rate=0.01, final_layer_filters=8,
                               k_modules=2, depth=2, depth_flags=(True, True),
                               sharing_mode=mode)
            hyper_pop = HyperPopulation(1, r, mode, base=base)
            cfg = ExperimentConfig(
                algorithm="cm", seed=12, synth_tasks=3, synth_classes=3,
                synth_side=8, synth_noise=0.1, networks_per_generation=4,
                train_iters=100, stagnation_limit=10, max_generations=5,
                sharing_mode=mode)
            out = run_generation_loop(cfg, pop, hyper_pop, local_evaluator, r)
            bests.append(max(h["best_fitness"] for h in out.history))
        results[mode] = bests
    for mode in ("enabled", "disabled", "evolved"):
        vals = ", ".join(f"{b:.3f}" for b in results[mode])
        print(f"  sharing={mode}: best fitness per seed [{vals}]")
    # the published ordering (evolved best) is an observation, not asserted:
    # desk-scale noise swamps the effect
    _report(12, "sharing ablation completes and reports all three modes",
            set(results) == {"enabled", "disabled", "evolved"}
            and all(len(v) == 3 for v in results.values()))


# -- 13. distributed harness ------------------------------------------------------------------

def _free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def _cm_payload(train_iters, seed):
    pop = init_module_population(2, 2, rng(13))
    return CmPayload(
        modules=pop.all_members(),
        module_ids=[g.genome_id for g in pop.all_members()],
        hyper=GlobalHyper(k_modules=2, depth=2), hyper_id=0,
        dataset=SynthRef(SynthParams(1, 2, 3, 12, 0.1), split_seed=2),
        seed=seed, train_iters=train_iters)


def _serve(addr, jobs, global_timeout_s):
    with Coordinator(addr) as coordinator:
        return serve_coordinator(coordinator, jobs, global_timeout_s)


def test_criterion_13_harness():
    start = time.monotonic()
    # (a) single-worker distributed results bit-equal local results
    jobs = [Job(i, _cm_payload(10, 130 + i)) for i in range(2)]
    local = {res.job_id: res for res in local_evaluator(jobs)}
    addr = f"127.0.0.1:{_free_port()}"
    box = {}
    coord = threading.Thread(
        target=lambda: box.update(r=_serve(addr, jobs, 120)))
    coord.start()
    time.sleep(0.2)
    worker = threading.Thread(target=run_worker,
                              kwargs=dict(coordinator_addr=addr,
                                          worker_id="w"))
    worker.start()
    coord.join(timeout=120)
    worker.join(timeout=10)
    bit_equal = all(res.status == "ok"
                    and res.fitness == local[res.job_id].fitness
                    and res.per_task == local[res.job_id].per_task
                    for res in box["r"])
    # (b) kill a worker mid-job: still exactly one result. The job must
    # outlast the 2.5 s before the kill by a wide margin (about 6 s on a
    # 2-vCPU host), or the victim finishes it and the rescuer never stops.
    slow = [Job(0, _cm_payload(5000, 9))]
    addr2 = f"127.0.0.1:{_free_port()}"
    box2 = {}
    coord2 = threading.Thread(
        target=lambda: box2.update(r=_serve(addr2, slow, 180)))
    coord2.start()
    time.sleep(0.2)
    victim = subprocess.Popen(
        [sys.executable, "-c",
         f"from evomtl.harness import run_worker; run_worker({addr2!r}, 'v')"])
    time.sleep(2.5)
    victim.kill()
    victim.wait()
    rescuer = threading.Thread(target=run_worker,
                               kwargs=dict(coordinator_addr=addr2,
                                           worker_id="rescue"))
    rescuer.start()
    coord2.join(timeout=180)
    rescuer.join(timeout=10)
    exactly_one = len(box2["r"]) == 1 and box2["r"][0].status == "ok"
    elapsed = time.monotonic() - start
    _report(13, "distributed evaluation is exact and fault-tolerant",
            bit_equal and exactly_one and elapsed < 120,
            f"{elapsed:.0f}s")


# -- 14. reproducibility ------------------------------------------------------------------------

def test_criterion_14_reproducibility(tmp_path):
    logs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "evomtl.cli", "run", "--algorithm", "cmtr",
             "--profile", "desk", "--seed", "11", "--out", str(out)],
            capture_output=True, text=True, timeout=1200)
        assert res.returncode == 0, res.stderr[-2000:]
        logs.append({file: (out / file).read_bytes() for file in (
            "history.jsonl", "report.json", "best_network.json")})
    _report(14, "desk runs with one seed are bit-identical",
            logs[0] == logs[1],
            ", ".join(f"{file} {len(data)} bytes"
                      for file, data in logs[0].items()))
