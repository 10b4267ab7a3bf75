import hashlib

import numpy as np
import pytest

from evomtl.coevolve import (
    HyperPopulation, attribute_fitness, plan_generation, retrain_top, run_generation_loop,
)
from evomtl.config import ExperimentConfig
from evomtl.errors import ConfigError, StateError
from evomtl.genome import init_blueprint_population, init_module_population
from evomtl.harness import Job, JobResult
from evomtl.serialize import canon_dumps, to_obj
from helpers import naming_payload, shared_mutables


def rng(seed=0):
    return np.random.default_rng(seed)


def stub_evaluator(jobs: list[Job]) -> list[JobResult]:
    """Deterministic payload-hash fitness; for loop tests only."""
    out = []
    for job in jobs:
        digest = hashlib.sha256(
            canon_dumps(to_obj(job.payload)).encode()).digest()
        fitness = int.from_bytes(digest[:4], "big") / 2 ** 32
        out.append(JobResult(job.job_id, "ok", fitness=fitness,
                             per_task={}, worker_id="stub"))
    return out


def make_plan(**kw):
    """A search config on a 2-task, 3-class synthetic 8x8 corpus."""
    base = dict(algorithm="cm", seed=5, synth_tasks=2, synth_classes=3,
                synth_side=8, synth_noise=0.1, networks_per_generation=8,
                train_iters=0, stagnation_limit=3, max_generations=4)
    base.update(kw)
    return ExperimentConfig(**base)


def test_plan_generation_counts_and_coverage():
    pop = init_module_population(12, 4, rng(1))
    hpop = HyperPopulation(3, rng(2))
    jobs = plan_generation(make_plan(), pop, None, hpop, rng(3))
    assert len(jobs) == 8
    for job in jobs:
        assert len(job.payload.modules) == 4  # one per species
        ids = job.payload.module_ids
        assert len(set(ids)) == 4
    used = {gid for job in jobs for gid in job.payload.module_ids}
    assert used == {g.genome_id for g in pop.all_members()}


def test_plan_generation_cmtr_expansion_kept_as_set():
    pop = init_module_population(4, 2, rng(4), cmtr_mode=True)
    hpop = HyperPopulation(2, rng(5))
    plan = make_plan(algorithm="cmtr", meta_iters=1, m_iters=1)
    jobs = plan_generation(plan, pop, None, hpop, rng(6))
    for job in jobs:
        assert len(job.payload.modules) == 2  # designs; slots expand later
        assert job.payload.ctr.meta_iters == 1


def test_plan_generation_cmsr_includes_blueprints():
    pop = init_module_population(6, 2, rng(7))
    bpop = init_blueprint_population(3, pop.species_ids(), rng(8))
    hpop = HyperPopulation(2, rng(9))
    jobs = plan_generation(make_plan(algorithm="cmsr"), pop, bpop, hpop,
                           rng(10))
    bids = {job.payload.blueprint_id for job in jobs}
    assert bids == {g.genome_id for g in bpop.all_members()}
    for job in jobs:
        assert set(job.payload.species_map) == set(pop.species_ids())


def test_plan_generation_payloads_share_nothing_with_the_populations():
    # a payload holds deep copies, so the populations can evolve in place
    # while its job is queued or running
    pop = init_module_population(6, 2, rng(13))
    bpop = init_blueprint_population(3, pop.species_ids(), rng(14))
    jobs = plan_generation(make_plan(algorithm="cmsr"), pop, bpop,
                           HyperPopulation(2, rng(15)), rng(16))
    members = pop.all_members() + bpop.all_members()
    for job in jobs:
        genomes = [*job.payload.modules, job.payload.blueprint]
        assert shared_mutables(genomes, members) == []
        assert {(g.kind, g.genome_id) for g in genomes} <= {
            (g.kind, g.genome_id) for g in members}


def test_plan_empty_species_raises():
    pop = init_module_population(4, 2, rng(11))
    pop.species[0].members.clear()
    hpop = HyperPopulation(2, rng(12))
    with pytest.raises(StateError):
        plan_generation(make_plan(), pop, None, hpop, rng(13))


def brute_force_attribution(jobs, results):
    """Mean fitness per (kind, id): module and blueprint ids overlap."""
    table = {}
    for job in jobs:
        r = results.get(job.job_id)
        if r is None or r.status != "ok":
            continue
        keys = [("module", gid) for gid in job.payload.module_ids]
        if hasattr(job.payload, "blueprint_id"):
            keys.append(("blueprint", job.payload.blueprint_id))
        for key in keys:
            table.setdefault(key, []).append(r.fitness)
    return {key: sum(v) / len(v) for key, v in table.items()}


def test_attribute_fitness_mean_and_failures():
    pop = init_module_population(4, 2, rng(14))
    members = pop.all_members()
    gid = members[0].genome_id
    other = members[1].genome_id
    jobs = [
        Job(0, naming_payload([gid, other])),
        Job(1, naming_payload([gid])),
        Job(2, naming_payload([members[2].genome_id])),
    ]
    results = {0: JobResult(0, "ok", fitness=0.6),
               1: JobResult(1, "ok", fitness=0.8),
               2: JobResult(2, "failed")}
    attribute_fitness(jobs, results, pop)
    assert members[0].fitness == pytest.approx(0.7)
    assert members[1].fitness == pytest.approx(0.6)
    assert members[2].fitness == 0.0  # only failed jobs
    assert members[3].fitness == 0.0  # never scheduled


def test_attribution_oracle_randomized():
    r = rng(15)
    for trial in range(100):
        pop = init_module_population(int(r.integers(4, 10)), 2, rng(trial))
        members = pop.all_members()
        jobs = []
        results = {}
        for j in range(int(r.integers(2, 12))):
            ids = [g.genome_id for g in members[:int(r.integers(1, len(members)))]]
            r.shuffle(ids)
            jobs.append(Job(j, naming_payload(list(ids))))
            if r.random() < 0.8:
                results[j] = JobResult(j, "ok", fitness=float(r.random()))
            else:
                results[j] = JobResult(j, "failed")
        attribute_fitness(jobs, results, pop)
        want = brute_force_attribution(jobs, results)
        for g in members:
            assert g.fitness == want.get(("module", g.genome_id), 0.0)


def test_cmsr_attribution_oracle_keeps_module_and_blueprint_ids_apart():
    r = rng(37)
    for trial in range(50):
        pop = init_module_population(int(r.integers(4, 10)), 2, rng(trial))
        bpop = init_blueprint_population(int(r.integers(2, 6)),
                                         pop.species_ids(), rng(100 + trial))
        members, blueprints = pop.all_members(), bpop.all_members()
        # both populations number their genomes from 1
        assert {g.genome_id for g in members} & \
            {g.genome_id for g in blueprints}
        jobs, results = [], {}
        for j in range(int(r.integers(2, 12))):
            ids = [g.genome_id
                   for g in members[:int(r.integers(1, len(members)))]]
            bid = blueprints[int(r.integers(len(blueprints)))].genome_id
            jobs.append(Job(j, naming_payload(ids, blueprint_id=bid)))
            results[j] = (JobResult(j, "ok", fitness=float(r.random()))
                          if r.random() < 0.8 else JobResult(j, "failed"))
        attribute_fitness(jobs, results, pop, bpop)
        want = brute_force_attribution(jobs, results)
        for g in members + blueprints:
            assert g.fitness == want.get((g.kind, g.genome_id), 0.0)


def test_loop_stagnation_termination():
    pop = init_module_population(6, 2, rng(16))
    hpop = HyperPopulation(2, rng(17))

    def flat_evaluator(jobs):
        return [JobResult(j.job_id, "ok", fitness=0.5, per_task={})
                for j in jobs]

    plan = make_plan(stagnation_limit=3, max_generations=50)
    out = run_generation_loop(plan, pop, hpop, flat_evaluator, rng(18))
    # generation 1 improves (0.5 > -inf), then 3 stale generations
    assert out.generations == 4
    assert len(out.history) == 4


def test_loop_history_bookkeeping_and_monotone_best():
    pop = init_module_population(6, 2, rng(19))
    hpop = HyperPopulation(2, rng(20))
    plan = make_plan(max_generations=5, stagnation_limit=10)
    out = run_generation_loop(plan, pop, hpop, stub_evaluator, rng(21))
    assert len(out.history) == out.generations
    bests = [h["best_so_far"] for h in out.history]
    assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
    for h in out.history:
        assert set(h) >= {"generation", "best_fitness", "mean_fitness",
                          "best_genome_id"}


def test_loop_bit_reproducible_with_stub():
    def run_once():
        pop = init_module_population(6, 2, rng(22))
        bpop = init_blueprint_population(3, pop.species_ids(), rng(23))
        hpop = HyperPopulation(2, rng(24))
        plan = make_plan(algorithm="cmsr", max_generations=4,
                         stagnation_limit=10)
        out = run_generation_loop(plan, pop, hpop, stub_evaluator, rng(25),
                                  blueprint_pop=bpop)
        return canon_dumps(out.history)

    assert run_once() == run_once()


def test_loop_failed_jobs_score_zero_and_continue():
    pop = init_module_population(4, 2, rng(26))
    hpop = HyperPopulation(2, rng(27))
    calls = {"n": 0}

    def flaky(jobs):
        calls["n"] += 1
        out = []
        for j in jobs:
            if j.job_id % 2 == 0:
                out.append(JobResult(j.job_id, "failed", message="boom"))
            else:
                out.append(JobResult(j.job_id, "ok", fitness=0.4))
        return out

    logs = []
    plan = make_plan(max_generations=2, stagnation_limit=10)
    out = run_generation_loop(plan, pop, hpop, flaky, rng(28),
                              log=logs.append)
    assert out.generations == 2
    assert any("failed" in line for line in logs)


def test_retrain_top_clamps_and_snapshot():
    from evomtl.genome import GlobalHyper
    archive = []
    pop = init_module_population(2, 1, rng(29))
    for g in pop.all_members():  # keep the grid feasible at 8x8
        for gene in g.nodes.values():
            gene.kind = "conv2d"
            gene.kernel_size = 3
    hpop = HyperPopulation(1, rng(30), base=GlobalHyper())
    cfg = make_plan(networks_per_generation=2, n_top=10, long_iters=5)
    jobs = plan_generation(cfg, pop, None, hpop, rng(31))
    for i, job in enumerate(jobs):
        archive.append((job.payload, 0.4 + 0.1 * i))
    report = retrain_top(archive, cfg)
    assert 0.0 <= report["test_accuracy"] <= 1.0
    assert set(report["val_per_task"]) == {"synth0", "synth1"}


def test_retrain_top_trains_each_candidate_once_and_reports_the_best(
        monkeypatch):
    from evomtl import coevolve
    from evomtl.genome import GlobalHyper
    from evomtl.harness import CmPayload
    pop = init_module_population(2, 1, rng(29))
    for g in pop.all_members():  # keep the grid feasible at 8x8
        for gene in g.nodes.values():
            gene.kind = "conv2d"
            gene.kernel_size = 3
    hpop = HyperPopulation(1, rng(30), base=GlobalHyper())
    cfg = make_plan(networks_per_generation=4, n_top=3, long_iters=6)
    jobs = plan_generation(cfg, pop, None, hpop, rng(31))
    archive = [(job.payload, 0.4 + 0.1 * i) for i, job in enumerate(jobs)]
    trained = []  # the payload of every Payload.train call
    real_train = CmPayload.train

    def counting_train(self, *args, **kwargs):
        trained.append(self)
        return real_train(self, *args, **kwargs)

    candidates = []  # (long val, payload) of each candidate
    real_eval = coevolve.evaluate_payload

    def recording_eval(payload, **schedule):
        result = real_eval(payload, **schedule)
        candidates.append((result[0], payload))
        return result

    monkeypatch.setattr(CmPayload, "train", counting_train)
    monkeypatch.setattr(coevolve, "evaluate_payload", recording_eval)
    report = retrain_top(archive, cfg)
    assert len(trained) == min(cfg.n_top, len(archive)) == 3
    # the top three by short fitness, each with its own seed, long
    assert [p.seed for p in trained] == [p.seed for p, _ in archive[:0:-1]]
    assert {p.train_iters for p in trained} == {cfg.long_iters}
    best_val, best_payload = max(candidates, key=lambda c: c[0])
    assert report["val_accuracy"] == best_val
    assert report["payload"] == best_payload
    assert "selected_val_accuracy" not in report


def test_lr_decay_sequence(monkeypatch):
    from evomtl import training
    from evomtl.dataset import split_fixed, synth_generate
    from evomtl.assembly import SoftOrderingNet
    from evomtl.genome import GlobalHyper, LayerGene
    spec = split_fixed(synth_generate(33, 1, 2, 6, 0.0, examples_per_class=10),
                       0)
    gene = LayerGene(2, "conv2d", "relu", 3, 8, 1e-6, 0.0)
    h = GlobalHyper()
    net = SoftOrderingNet([gene], ["synth0"], [2], 6, h, rng(34))
    # one task, train split of 10: an epoch is 10 iterations, so the rate
    # decays at 100 and 200
    assert training.epoch_iters(spec) == 10
    rates = []  # the rate each Adam step receives
    real_step = training.adam_step
    monkeypatch.setattr(training, "adam_step",
                        lambda block, lr: rates.append(lr) or
                        real_step(block, lr))
    training.train_network(net, spec, 210, 1e-3, rng(35), lr_decay=True)
    assert rates == [1e-3] * 100 + [1e-4] * 100 + [1e-5] * 10


def test_snapshot_restores_peak_validation_weights(monkeypatch):
    from evomtl import training
    from evomtl.assembly import SoftOrderingNet
    from evomtl.dataset import split_fixed, synth_generate
    from evomtl.genome import GlobalHyper, LayerGene
    spec = split_fixed(synth_generate(36, 2, 3, 6, 0.3, examples_per_class=10),
                       36)
    gene = LayerGene(2, "conv2d", "relu", 3, 8, 0.0, 0.0)
    net = SoftOrderingNet([gene], [t.task_id for t in spec.tasks], [3, 3], 6,
                          GlobalHyper(), rng(1))
    scores = []  # every validation score train_network takes
    weights = []  # the weights each score was taken on
    real_eval = training.evaluate_accuracy

    def recording_eval(*args, **kwargs):
        per_task, mean = real_eval(*args, **kwargs)
        scores.append(mean)
        weights.append([p.value.tobytes() for p in net.params()])
        return per_task, mean

    monkeypatch.setattr(training, "evaluate_accuracy", recording_eval)
    _, best_acc = training.train_network(net, spec, 30, 0.05, rng(11),
                                         snapshot_every=3)
    monkeypatch.undo()
    # periodic scores only: the 10th already scored the final weights
    assert len(scores) == 30 // 3
    assert max(scores) == best_acc
    assert scores[-1] < best_acc  # the peak was earlier: weights restored
    assert training.evaluate_accuracy(net, spec, "val")[1] == best_acc
    # byte for byte the weights of the first peak score
    assert [p.value.tobytes() for p in net.params()] == \
        weights[scores.index(best_acc)]


def test_plan_validation():
    with pytest.raises(ConfigError):
        make_plan(algorithm="nope").check()
