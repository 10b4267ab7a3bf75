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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_DEADLINE_S
from .errors import ConfigError, StateError
from .genome import (
    GlobalHyper, MutationRates, SpeciesPopulation, genome_to_obj, hyper_to_obj,
    mutate_global, random_global_hyper, speciate_and_reproduce,
)
from .harness import Job, JobResult, train_payload
from .training import evaluate_accuracy, final_report


@dataclass
class FitnessRecord:
    genome_id: int
    samples: list[float] = field(default_factory=list)

    @property
    def aggregate(self) -> float:
        if not self.samples:
            raise StateError(f"genome {self.genome_id} has no fitness samples")
        # plain left-fold sum so independent tabulations agree bit-exactly
        return sum(self.samples) / len(self.samples)


@dataclass
class GenerationPlan:
    algorithm: str                      # cm | cmsr | cmtr
    networks_per_generation: int = 100
    train_iters: int = 3000
    stagnation_limit: int = 10
    max_generations: int | None = None
    elite_frac: float = 0.2
    deadline_s: float = DEFAULT_DEADLINE_S
    ctr: dict | None = None             # meta_iters, m_iters, alpha, lr, ...

    def __post_init__(self):
        if self.networks_per_generation < 1 or self.train_iters < 0:
            raise ConfigError("plan counts must be positive")
        if self.algorithm not in ("cm", "cmsr", "cmtr"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == "cmtr" and not self.ctr:
            raise ConfigError("cmtr needs a ctr sub-config")


class HyperPopulation:
    """Small elitist pool of global hyperparameter candidates."""

    def __init__(self, size: int, rng: np.random.Generator,
                 sharing_mode: str = "evolved",
                 base: GlobalHyper | None = None):
        self.candidates: list[tuple[int, GlobalHyper]] = []
        self.fitness: dict[int, float | None] = {}
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
        self.fitness[hid] = None
        return hid

    def evolve(self, rng: np.random.Generator) -> None:
        ranked = sorted(self.candidates,
                        key=lambda c: (-(self.fitness[c[0]] or 0.0), c[0]))
        keep = ranked[:max(1, len(ranked) // 2)]
        size = len(self.candidates)
        self.candidates = list(keep)
        self.fitness = {hid: None for hid, _ in keep}
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


def plan_generation(plan: GenerationPlan, module_pop: SpeciesPopulation,
                    blueprint_pop: SpeciesPopulation | None,
                    hyper_pop: HyperPopulation, dataset_ref: dict,
                    rng: np.random.Generator, first_job_id: int = 0) -> list[Job]:
    """Build the generation's evaluation jobs (payloads self-contained)."""
    species = module_pop.species
    if any(not sp.members for sp in species):
        raise StateError("a module species is empty")
    n_jobs = plan.networks_per_generation
    picks = []
    for _ in range(n_jobs):
        picks.append({sp.species_id:
                      sp.members[rng.integers(len(sp.members))]
                      for sp in species})
    _coverage_patch(picks, species)

    blueprints = blueprint_pop.all_members() if blueprint_pop else None
    hypers = hyper_pop.candidates
    jobs = []
    for j in range(n_jobs):
        hid, hyper = hypers[j % len(hypers)]
        ordered = [picks[j][sp.species_id] for sp in species]
        payload = {
            "algorithm": plan.algorithm,
            "modules": [genome_to_obj(g) for g in ordered],
            "module_ids": [g.genome_id for g in ordered],
            "hyper": hyper_to_obj(hyper),
            "hyper_id": hid,
            "dataset": dataset_ref,
            "seed": int(rng.integers(2 ** 62)),
            "train_iters": plan.train_iters,
        }
        if plan.algorithm == "cmsr":
            bp = blueprints[j % len(blueprints)]
            payload["blueprint"] = genome_to_obj(bp)
            payload["blueprint_id"] = bp.genome_id
            payload["species_map"] = {str(sp.species_id): i
                                      for i, sp in enumerate(species)}
        if plan.algorithm == "cmtr":
            payload["ctr"] = dict(plan.ctr)
        jobs.append(Job(first_job_id + j, payload, plan.deadline_s))
    return jobs


def attribute_fitness(jobs: list[Job], results: dict[int, JobResult],
                      module_pop: SpeciesPopulation,
                      blueprint_pop: SpeciesPopulation | None = None,
                      hyper_pop: HyperPopulation | None = None):
    """Average each genome's successful-job fitnesses back onto it; a
    genome in no successful job scores 0. Returns the per-genome records
    for audit."""
    records: dict[int, FitnessRecord] = {}
    hyper_records: dict[int, list[float]] = {}
    for job in jobs:
        result = results.get(job.job_id)
        if result is None or result.status != "ok":
            continue
        ids = list(job.payload["module_ids"])
        if blueprint_pop is not None and "blueprint_id" in job.payload:
            ids.append(job.payload["blueprint_id"])
        for gid in ids:
            records.setdefault(gid, FitnessRecord(gid)).samples.append(
                result.fitness)
        hid = job.payload.get("hyper_id")
        if hid is not None:
            hyper_records.setdefault(hid, []).append(result.fitness)
    pops = [module_pop] + ([blueprint_pop] if blueprint_pop else [])
    for pop in pops:
        for g in pop.all_members():
            if g.genome_id in records:
                g.fitness = records[g.genome_id].aggregate
            else:
                g.fitness = 0.0
    if hyper_pop is not None:
        for hid, samples in hyper_records.items():
            if hid in hyper_pop.fitness:
                hyper_pop.fitness[hid] = float(np.mean(samples))
    return records


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
    archive: list[tuple[dict, float]]
    generations: int


def run_generation_loop(plan: GenerationPlan, module_pop: SpeciesPopulation,
                        evaluator, dataset_ref: dict, rng: np.random.Generator,
                        blueprint_pop: SpeciesPopulation | None = None,
                        hyper_pop: HyperPopulation | None = None,
                        rates: MutationRates | None = None,
                        log=None) -> LoopResult:
    """Plan -> evaluate -> attribute -> reproduce until the best fitness
    stagnates for `stagnation_limit` generations (or the hard cap)."""
    if plan.algorithm == "cmsr" and blueprint_pop is None:
        raise ConfigError("cmsr needs a blueprint population")
    if hyper_pop is None:
        raise ConfigError("a hyperparameter population is required")
    rates = rates or MutationRates()
    history: list[dict] = []
    archive: list[tuple[dict, float]] = []
    best_so_far = float("-inf")
    stale = 0
    generation = 0
    job_counter = 0
    while True:
        generation += 1
        jobs = plan_generation(plan, module_pop, blueprint_pop, hyper_pop,
                               dataset_ref, rng, first_job_id=job_counter)
        job_counter += len(jobs)
        results = {r.job_id: r for r in evaluator(jobs)}
        for job in jobs:
            r = results.get(job.job_id)
            if r is None or r.status != "ok":
                msg = r.message if r else "no result"
                if log:
                    log(f"generation {generation}: job {job.job_id} failed "
                        f"({msg}); scored 0")
        attribute_fitness(jobs, results, module_pop, blueprint_pop, hyper_pop)
        ok = [(job, results[job.job_id]) for job in jobs
              if results.get(job.job_id) and results[job.job_id].status == "ok"]
        for job, r in ok:
            archive.append((job.payload, r.fitness))
        gen_best = max((r.fitness for _, r in ok), default=0.0)
        gen_mean = float(np.mean([r.fitness for _, r in ok])) if ok else 0.0
        prev_best = best_so_far
        best_so_far = max(best_so_far, gen_best)
        best_genome = max(module_pop.all_members(),
                          key=lambda g: (g.fitness or 0.0, -g.genome_id))
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
        if stale >= plan.stagnation_limit:
            break
        if plan.max_generations and generation >= plan.max_generations:
            break
        speciate_and_reproduce(module_pop, plan.elite_frac, rng, rates)
        live = module_pop.species_ids()
        if blueprint_pop is not None:
            _fix_blueprint_pointers(blueprint_pop, live, rng)
            speciate_and_reproduce(blueprint_pop, plan.elite_frac, rng, rates,
                                   species_ids=live)
        hyper_pop.evolve(rng)
    return LoopResult(history, archive, generation)


def retrain_top(archive: list[tuple[dict, float]], n_top: int,
                long_iters: int, ctr_long: dict | None = None,
                log=None) -> dict:
    """Re-evaluate the highest-fitness payloads with long training, pick
    the best by validation, retrain it from scratch with peak-validation
    snapshotting, and report its mean test accuracy. cm/cmsr long
    training decays the learning rate."""
    if not archive:
        raise StateError("empty archive: nothing to retrain")
    ranked = sorted(archive, key=lambda pf: -pf[1])[:max(1, n_top)]
    scored = []
    for i, (payload, short_fitness) in enumerate(ranked):
        val = _long_eval(payload, long_iters, ctr_long, seed_shift=1000 + i)
        scored.append((val, payload))
        if log:
            log(f"retrain candidate {i}: short {short_fitness:.4f} "
                f"-> long val {val:.4f}")
    scored.sort(key=lambda vp: -vp[0])
    best_val, best_payload = scored[0]
    report = _final_test_eval(best_payload, long_iters, ctr_long)
    report["selected_val_accuracy"] = best_val
    return report


def _with_iters(payload: dict, long_iters: int, ctr_long: dict | None,
                seed_shift: int) -> dict:
    p = dict(payload)
    p["seed"] = int(payload["seed"]) + seed_shift
    if p["algorithm"] == "cmtr" and ctr_long:
        p["ctr"] = dict(ctr_long)
    else:
        p["train_iters"] = long_iters
    return p


def _long_eval(payload, long_iters, ctr_long, seed_shift) -> float:
    p = _with_iters(payload, long_iters, ctr_long, seed_shift)
    model, spec, fitness = train_payload(p, lr_decay=True)
    if fitness is None:
        fitness = evaluate_accuracy(model, spec, "val")[1]
    return fitness


def _final_test_eval(payload, long_iters, ctr_long) -> dict:
    """From-scratch retraining of the winner with peak-validation
    snapshotting, then the one sanctioned test-split read."""
    p = _with_iters(payload, long_iters, ctr_long, seed_shift=2000)
    model, spec, _ = train_payload(
        p, lr_decay=True, snapshot_every=max(1, long_iters // 10))
    return {"payload": p, **final_report(model, spec)}
