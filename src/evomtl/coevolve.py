"""Outer evolutionary loops: module-only search over the grid layout
("cm"), module + shared-routing search ("cmsr"), and module search with
inner routing evolution ("cmtr").

Each generation plans `networks_per_generation` evaluation jobs (one
random member per module species per job, plus a blueprint for cmsr),
patched so every live genome lands in at least one job. Job fitness is
the network's mean validation accuracy (for cmtr, the inner loop's best
checkpointed mean); a genome's fitness is the average over all successful
jobs that contained it, and genomes seen only in failed jobs score 0.
Global hyperparameters evolve alongside in a small elitist pool.

A search run is described once, by its resolved `ExperimentConfig`: the
loop reads its counts, dataset, deadline, sharing rule and cmtr routing
evolution from the config; each top network is then trained once, long,
and the best by validation is the one model the run tests and reports.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .errors import ConfigError, StateError
from .genome import (
    GlobalHyper, MutationRates, SpeciesPopulation, mutate_global,
    random_global_hyper, speciate_and_reproduce,
)
from .harness import (
    PAYLOADS, CtrSettings, Job, JobResult, Payload, evaluate_payload,
)
from .training import final_report


class HyperPopulation:
    """Small elitist pool of global hyperparameter candidates."""

    def __init__(self, size: int, rng: np.random.Generator,
                 sharing_mode: str = "evolved",
                 base: GlobalHyper | None = None):
        self.candidates: list[tuple[int, GlobalHyper]] = []
        self.fitness: dict[int, float] = {}
        self._next = 0
        for i in range(size):
            if base is not None and i == 0:
                h = base
            else:
                h = random_global_hyper(rng, sharing_mode)
            self._add(h)

    def _add(self, h: GlobalHyper) -> int:
        hid = self._next
        self._next += 1
        self.candidates.append((hid, h))
        self.fitness[hid] = 0.0
        return hid

    def evolve(self, rng: np.random.Generator) -> None:
        ranked = sorted(self.candidates,
                        key=lambda c: (-self.fitness[c[0]], c[0]))
        keep = ranked[:max(1, len(ranked) // 2)]
        size = len(self.candidates)
        self.candidates = list(keep)
        self.fitness = {hid: 0.0 for hid, _ in keep}
        i = 0
        while len(self.candidates) < size:
            _, parent = keep[i % len(keep)]
            self._add(mutate_global(parent, rng))
            i += 1


def _coverage_patch(picks: list[dict], species):
    """Ensure every genome appears in >= 1 job by swapping it in for a
    same-species pick that appears more than once."""
    for sp in species:
        counts: dict[int, int] = {}
        for p in picks:
            g = p[sp.species_id]
            counts[g.genome_id] = counts.get(g.genome_id, 0) + 1
        missing = [g for g in sp.members if g.genome_id not in counts]
        slot = 0
        for g in missing:
            placed = False
            for _ in range(len(picks)):
                cand = picks[slot % len(picks)][sp.species_id]
                slot += 1
                if counts.get(cand.genome_id, 0) > 1:
                    counts[cand.genome_id] -= 1
                    picks[(slot - 1) % len(picks)][sp.species_id] = g
                    counts[g.genome_id] = 1
                    placed = True
                    break
            if not placed:
                break  # more genomes than jobs; cover as many as possible


def plan_generation(cfg: ExperimentConfig, module_pop: SpeciesPopulation,
                    blueprint_pop: SpeciesPopulation | None,
                    hyper_pop: HyperPopulation, rng: np.random.Generator,
                    first_job_id: int = 0) -> list[Job]:
    """Build the generation's evaluation jobs. Payloads are self-contained:
    they hold deep copies of their genomes, which evolve in place later."""
    species = module_pop.species
    if any(not sp.members for sp in species):
        raise StateError("a module species is empty")
    n_jobs = cfg.networks_per_generation
    picks = []
    for _ in range(n_jobs):
        picks.append({sp.species_id:
                      sp.members[rng.integers(len(sp.members))]
                      for sp in species})
    _coverage_patch(picks, species)

    blueprints = blueprint_pop.all_members() if blueprint_pop else None
    hypers = hyper_pop.candidates
    dataset_ref = cfg.dataset_ref()
    ctr = CtrSettings(cfg.meta_iters, cfg.m_iters, cfg.alpha,
                      eval_subsample=cfg.eval_subsample)
    jobs = []
    for j in range(n_jobs):
        hid, hyper = hypers[j % len(hypers)]
        ordered = [picks[j][sp.species_id] for sp in species]
        fields = dict(modules=copy.deepcopy(ordered),
                      module_ids=[g.genome_id for g in ordered],
                      hyper=hyper, hyper_id=hid, dataset=dataset_ref,
                      seed=int(rng.integers(2 ** 62)),
                      train_iters=cfg.train_iters)
        blueprint = copy.deepcopy(blueprints[j % len(blueprints)]) \
            if blueprints else None
        payload = PAYLOADS[cfg.algorithm].planned(
            fields, blueprint, [sp.species_id for sp in species], ctr)
        jobs.append(Job(first_job_id + j, payload, cfg.deadline_s))
    return jobs


def attribute_fitness(jobs: list[Job], results: dict[int, JobResult],
                      module_pop: SpeciesPopulation,
                      blueprint_pop: SpeciesPopulation | None = None,
                      hyper_pop: HyperPopulation | None = None):
    """Set each genome's fitness to the mean of its successful jobs'
    fitnesses, and each hyperparameter candidate's likewise; a genome in
    no successful job scores 0. Module and blueprint ids are counted
    apart, so samples are keyed by (kind, id). Each mean is a left-fold
    sum, so independent tabulations agree bit-exactly."""
    samples: dict[tuple[str, int], list[float]] = {}
    hyper_samples: dict[int, list[float]] = {}
    for job in jobs:
        result = results.get(job.job_id)
        if result is None or result.status != "ok":
            continue
        for key in job.payload.genome_ids():
            samples.setdefault(key, []).append(result.fitness)
        hyper_samples.setdefault(job.payload.hyper_id, []).append(
            result.fitness)
    pops = [module_pop] + ([blueprint_pop] if blueprint_pop else [])
    for pop in pops:
        for g in pop.all_members():
            got = samples.get((g.kind, g.genome_id))
            g.fitness = sum(got) / len(got) if got else 0.0
    if hyper_pop is not None:
        for hid, got in hyper_samples.items():
            if hid in hyper_pop.fitness:
                hyper_pop.fitness[hid] = sum(got) / len(got)


def _fix_blueprint_pointers(blueprint_pop: SpeciesPopulation,
                            live_ids: list[int], rng: np.random.Generator):
    """Module species die and split across generations; re-point any stale
    blueprint reference at a random live species."""
    live = set(live_ids)
    for g in blueprint_pop.all_members():
        for node in g.nodes.values():
            if node.species_id not in live:
                node.species_id = int(rng.choice(live_ids))


@dataclass
class LoopResult:
    history: list[dict]
    archive: list[tuple[Payload, float]]
    generations: int


def run_generation_loop(cfg: ExperimentConfig, module_pop: SpeciesPopulation,
                        hyper_pop: HyperPopulation, evaluator,
                        rng: np.random.Generator,
                        blueprint_pop: SpeciesPopulation | None = None,
                        log=None) -> LoopResult:
    """Plan -> evaluate -> attribute -> reproduce until the best fitness
    stagnates for `stagnation_limit` generations (or the hard cap)."""
    if cfg.algorithm not in PAYLOADS:
        raise ConfigError(f"{cfg.algorithm!r} has no generation loop")
    if cfg.algorithm == "cmsr" and blueprint_pop is None:
        raise ConfigError("cmsr needs a blueprint population")
    rates = MutationRates(sharing_mode=cfg.sharing_mode)
    history: list[dict] = []
    archive: list[tuple[Payload, float]] = []
    best_so_far = float("-inf")
    stale = 0
    generation = 0
    job_counter = 0
    while True:
        generation += 1
        jobs = plan_generation(cfg, module_pop, blueprint_pop, hyper_pop, rng,
                               first_job_id=job_counter)
        job_counter += len(jobs)
        results = {r.job_id: r for r in evaluator(jobs)}
        fits = []  # the successful jobs' fitnesses
        for job in jobs:
            r = results.get(job.job_id)
            if r is not None and r.status == "ok":
                fits.append(r.fitness)
                archive.append((job.payload, r.fitness))
            elif log:
                log(f"generation {generation}: job {job.job_id} failed "
                    f"({r.message if r else 'no result'}); scored 0")
        attribute_fitness(jobs, results, module_pop, blueprint_pop, hyper_pop)
        gen_best = max(fits, default=0.0)
        gen_mean = float(np.mean(fits)) if fits else 0.0
        prev_best = best_so_far
        best_so_far = max(best_so_far, gen_best)
        best_genome = max(module_pop.all_members(),
                          key=lambda g: (g.fitness, -g.genome_id))
        history.append({
            "generation": generation,
            "best_fitness": gen_best,
            "mean_fitness": gen_mean,
            "best_so_far": best_so_far,
            "best_genome_id": best_genome.genome_id,
        })
        if log:
            log(f"generation {generation}: best {gen_best:.4f} "
                f"mean {gen_mean:.4f} (best so far {best_so_far:.4f})")
        stale = 0 if gen_best > prev_best else stale + 1
        if stale >= cfg.stagnation_limit:
            break
        if cfg.max_generations and generation >= cfg.max_generations:
            break
        speciate_and_reproduce(module_pop, cfg.elite_frac, rng, rates)
        live = module_pop.species_ids()
        if blueprint_pop is not None:
            _fix_blueprint_pointers(blueprint_pop, live, rng)
            speciate_and_reproduce(blueprint_pop, cfg.elite_frac, rng, rates,
                                   species_ids=live)
        hyper_pop.evolve(rng)
    return LoopResult(history, archive, generation)


def retrain_top(archive: list[tuple[Payload, float]], cfg: ExperimentConfig,
                log=None) -> dict:
    """Train each of the `n_top` highest-fitness payloads once, long, with
    its own seed and the final schedule (lr decay; peak-validation
    snapshots for cm/cmsr). `final_report` scores the best by validation,
    the run's one test-split read; its payload retrains to that model."""
    if not archive:
        raise StateError("empty archive: nothing to retrain")
    ranked = sorted(archive, key=lambda pf: -pf[1])[:cfg.n_top]
    best = None  # (val, payload, model, spec) of the best candidate so far
    for i, (payload, short_fitness) in enumerate(ranked):
        payload = payload.lengthened(cfg)
        val, _, model, spec = evaluate_payload(
            payload, lr_decay=True,
            snapshot_every=max(1, cfg.long_iters // 10))
        if best is None or val > best[0]:
            best = (val, payload, model, spec)
        if log:
            log(f"retrain candidate {i}: short {short_fitness:.4f} "
                f"-> long val {val:.4f}")
    _, payload, model, spec = best
    return {"payload": payload, **final_report(model, spec)}
