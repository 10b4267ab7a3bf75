import copy
import hashlib

import numpy as np
import pytest

from evomtl.coevolve import _fix_blueprint_pointers
from evomtl.config import ExperimentConfig
from evomtl.errors import ConfigError, ParseError
from evomtl.genome import (
    KERNEL_SIZES, SINK, SOURCE, BlueprintGenome, BlueprintNode, GlobalHyper,
    InnovationTracker, LayerGene, ModuleGenome, MutationRates, compatibility,
    crossover, init_blueprint_population, init_module_population, mutate,
    mutate_global, random_global_hyper, speciate_and_reproduce,
)
from evomtl.harness import Job, JobResult
from evomtl.routing import RNode
from evomtl.serialize import canon_dumps, canon_loads, from_obj, to_obj
from helpers import shared_mutables


def rng(seed=0):
    return np.random.default_rng(seed)


def test_init_module_population_counts():
    pop = init_module_population(50, 4, rng(1))
    assert len(pop.all_members()) == 50
    assert len(pop.species) == 4
    for g in pop.all_members():
        assert g.check() == []
        assert len(g.nodes) == 1


def test_init_module_population_degenerate():
    pop = init_module_population(1, 1, rng(2))
    assert len(pop.all_members()) == 1
    with pytest.raises(ConfigError):
        init_module_population(2, 3, rng(0))


def test_init_module_population_deterministic():
    a = init_module_population(10, 2, rng(7))
    b = init_module_population(10, 2, rng(7))
    assert [to_obj(g) for g in a.all_members()] == \
           [to_obj(g) for g in b.all_members()]


def test_init_blueprints_mean_five_nodes():
    pop = init_blueprint_population(1000, [1, 2, 3], rng(3))
    sizes = [len(g.nodes) for g in pop.all_members()]
    assert 4.5 <= np.mean(sizes) <= 5.5
    assert max(sizes) <= 8
    for g in pop.all_members():
        assert g.check() == []


def test_init_blueprints_one_species():
    pop = init_blueprint_population(20, [1], rng(4))
    assert len(pop.all_members()) == 20
    assert len(pop.species) == 1


def test_add_node_split_semantics():
    pop = init_module_population(1, 1, rng(5))
    g = pop.all_members()[0]
    rates = MutationRates(add_node=1.0, add_edge=0.0, perturb=0.0, flip_flag=0.0)
    child = mutate(g, pop.tracker, rng(6), rates)
    assert len(child.nodes) == 2  # chain grew by one node
    assert len(child.edges) == 3
    assert child.check() == []
    # the split edge is gone; a path source -> a -> b -> sink exists
    endpoints = set(child.edges.values())
    assert len({e for e in endpoints}) == 3


def test_perturb_kernel_stays_in_domain():
    pop = init_module_population(1, 1, rng(8))
    g = pop.all_members()[0]
    g.nodes[next(iter(g.nodes))].kind = "conv2d"
    rates = MutationRates(add_node=0, add_edge=0, perturb=1.0, flip_flag=0)
    r = rng(9)
    for _ in range(200):
        g = mutate(g, pop.tracker, r, rates)
        for gene in g.nodes.values():
            assert gene.kernel_size in KERNEL_SIZES


def test_flag_flip_only_in_evolved_mode():
    pop = init_module_population(1, 1, rng(10))
    g = pop.all_members()[0]
    flips = MutationRates(add_node=0, add_edge=0, perturb=0, flip_flag=1.0,
                          sharing_mode="evolved")
    child = mutate(g, pop.tracker, rng(11), flips)
    assert child.share_flag != g.share_flag
    frozen = MutationRates(add_node=0, add_edge=0, perturb=0, flip_flag=1.0,
                           sharing_mode="enabled")
    child2 = mutate(g, pop.tracker, rng(11), frozen)
    assert child2.share_flag == g.share_flag


def test_mutation_fuzz_modules():
    pop = init_module_population(8, 2, rng(12))
    genomes = list(pop.all_members())
    r = rng(13)
    rates = MutationRates(add_node=0.3, add_edge=0.4, perturb=0.8, flip_flag=0.2)
    for i in range(4000):
        g = genomes[r.integers(len(genomes))]
        child = mutate(g, pop.tracker, r, rates)
        assert child.check() == [], (i, child.check())
        genomes.append(child)
        if len(genomes) > 64:
            genomes = genomes[-64:]


def test_mutation_fuzz_blueprints():
    pop = init_blueprint_population(8, [1, 2, 3, 4], rng(14))
    genomes = list(pop.all_members())
    r = rng(15)
    rates = MutationRates(add_node=0.3, add_edge=0.4, perturb=0.8, flip_flag=0.2)
    for i in range(3000):
        g = genomes[r.integers(len(genomes))]
        child = mutate(g, pop.tracker, r, rates, species_ids=[1, 2, 3, 4])
        assert child.check() == [], (i, child.check())
        genomes.append(child)
        if len(genomes) > 64:
            genomes = genomes[-64:]


def test_crossover_self_identity():
    pop = init_module_population(2, 1, rng(16))
    a = pop.all_members()[0]
    a.fitness = 0.5
    child = crossover(a, a, rng(17), pop.tracker)
    ca, cc = to_obj(a), to_obj(child)
    for key in ("nodes", "edges", "share_flag", "final_layer"):
        assert ca[key] == cc[key]


def test_crossover_disjoint_from_fitter():
    pop = init_module_population(2, 1, rng(18))
    a, b = pop.all_members()
    rates = MutationRates(add_node=1.0, add_edge=0, perturb=0, flip_flag=0)
    for _ in range(3):
        a = mutate(a, pop.tracker, rng(19), rates)
    a.fitness, b.fitness = 0.9, 0.1
    child = crossover(a, b, rng(20), pop.tracker)
    assert set(child.nodes) == set(a.nodes)
    assert set(child.edges) == set(a.edges)


def test_crossover_fuzz_valid():
    pop = init_module_population(6, 2, rng(21))
    genomes = list(pop.all_members())
    r = rng(22)
    rates = MutationRates(add_node=0.4, add_edge=0.4, perturb=0.5, flip_flag=0.1)
    for _ in range(500):
        genomes.append(mutate(genomes[r.integers(len(genomes))],
                              pop.tracker, r, rates))
    for g in genomes:
        g.fitness = float(r.random())
    for i in range(3000):
        a = genomes[r.integers(len(genomes))]
        b = genomes[r.integers(len(genomes))]
        child = crossover(a, b, r, pop.tracker)
        assert child.check() == [], (i, child.check())


@pytest.mark.parametrize("kind", ["module", "blueprint"])
def test_offspring_share_nothing_with_their_parents(kind):
    # mutate and crossover each start from a deep copy under a new id, so
    # evolving a child in place never reaches a parent
    if kind == "module":
        pop, species_ids = init_module_population(4, 1, rng(25)), None
    else:
        species_ids = [1, 2, 3]
        pop = init_blueprint_population(4, species_ids, rng(26))
    a, b = pop.all_members()[:2]
    a.fitness, b.fitness = 0.7, 0.3
    none = MutationRates(add_node=0, add_edge=0, perturb=0, flip_flag=0)
    child = mutate(a, pop.tracker, rng(27), none, species_ids)
    assert shared_mutables(child, a) == []
    assert child.genome_id not in (a.genome_id, b.genome_id)
    assert to_obj(child) == {**to_obj(a), "genome_id": child.genome_id}
    cross = crossover(a, b, rng(28), pop.tracker)
    assert shared_mutables(cross, a) == shared_mutables(cross, b) == []
    assert cross.genome_id != child.genome_id


def test_crossover_kind_mismatch():
    mpop = init_module_population(1, 1, rng(23))
    bpop = init_blueprint_population(1, [1], rng(24))
    with pytest.raises(ConfigError):
        crossover(mpop.all_members()[0], bpop.all_members()[0], rng(0),
                  mpop.tracker)


def test_reproduction_preserves_size_and_proportionality():
    pop = init_module_population(30, 3, rng(25))
    sizes_before = [len(s.members) for s in pop.species]
    for g in pop.all_members():
        g.fitness = 0.5
    speciate_and_reproduce(pop, 0.1, rng(26))
    assert len(pop.all_members()) == 30
    # equal fitness: allocation proportional to species size (+-1) --
    # verified against the pre-respeciation allocation via species sizes
    assert sum(sizes_before) == 30


def test_reproduction_dominant_species_gets_most():
    pop = init_module_population(20, 2, rng(27))
    strong = pop.species[0].species_id
    for s in pop.species:
        for g in s.members:
            g.fitness = 0.9 if s.species_id == strong else 0.05
    tagged = {g.genome_id: s.species_id for s in pop.species for g in s.members}
    speciate_and_reproduce(pop, 0.1, rng(28))
    assert len(pop.all_members()) == 20


def test_reproduction_equal_fitness_allocation_counts():
    # check the allocation rule directly
    from evomtl.genome import _allocate
    assert _allocate([2.0, 2.0, 1.0], 10) == [4, 4, 2]
    assert sum(_allocate([0.0, 0.0], 7)) == 7
    assert _allocate([9.0, 1.0], 10) == [9, 1]


def genome_from_obj(obj):
    # a genome of either kind, told apart by its kind tag
    return from_obj(ModuleGenome | BlueprintGenome, obj, "genome")


def serialize(genome) -> bytes:
    # a genome crosses the wire as canonical JSON of its object form
    return canon_dumps(to_obj(genome)).encode("utf-8")


def deserialize(data: bytes):
    return genome_from_obj(canon_loads(data))


def test_serialize_round_trip_module_and_blueprint():
    mpop = init_module_population(4, 2, rng(29))
    rates = MutationRates(add_node=0.5, add_edge=0.5, perturb=0.9, flip_flag=0.3)
    r = rng(30)
    for g in mpop.all_members():
        g2 = mutate(g, mpop.tracker, r, rates)
        assert deserialize(serialize(g2)) == g2
    bpop = init_blueprint_population(4, [1, 2], rng(31))
    for g in bpop.all_members():
        assert deserialize(serialize(g)) == g


def test_deserialize_truncated():
    g = init_module_population(1, 1, rng(32)).all_members()[0]
    data = serialize(g)
    with pytest.raises(ParseError):
        deserialize(data[: len(data) // 2])


def test_deserialize_handwritten_minimal():
    text = canon_dumps({
        "kind": "module", "genome_id": 1, "species_id": 1,
        "share_flag": False, "cmtr_mode": False,
        "final_layer": {"innovation_id": -1, "kind": "conv2d",
                        "activation": "relu", "kernel_size": 1,
                        "filters": 8, "l2_strength": 1e-4,
                        "dropout_rate": 0.0},
        "nodes": {"2": {"innovation_id": 2, "kind": "conv2d",
                        "activation": "tanh", "kernel_size": 3,
                        "filters": 16, "l2_strength": 1e-5,
                        "dropout_rate": 0.1}},
        "edges": {"3": [SOURCE, 2], "4": [2, SINK]},
    })
    g = deserialize(text.encode())
    assert len(g.nodes) == 1 and len(g.edges) == 2
    assert g.nodes[2].activation == "tanh"


def _graph_genome(kind, extra_nodes=(), extra_edges=()):
    """The chain source -> 2 -> sink of either genome kind, plus extra
    nodes and edges."""
    edges = {10: (SOURCE, 2), 11: (2, SINK)}
    edges.update((20 + i, e) for i, e in enumerate(extra_edges))
    ids = [2, *extra_nodes]
    if kind == "module":
        def gene(i):
            return LayerGene(i, "conv2d", "relu", 3, 8, 1e-5, 0.0)
        return ModuleGenome(1, {i: gene(i) for i in ids}, edges, True,
                            gene(-1))
    return BlueprintGenome(
        1, {i: BlueprintNode(1, False) for i in [SOURCE, SINK, *ids]}, edges)


# case -> (extra nodes, extra edges), and the blueprint's own where it
# differs. Node 3 is new; node 9 does not exist. A blueprint's source and
# sink are its one root and one leaf, so an in-edge into its source (or an
# out-edge from its sink) either adds a root (a leaf) or closes a cycle;
# its rows take the cycle.
MALFORMED_GENOMES = {
    "cycle": (([3], [(2, 3), (3, 2)]), None),
    "two roots": (([3], [(3, 2)]), None),
    "two leaves": (([3], [(2, 3)]), None),
    "source with an in-edge": (([3], [(3, SOURCE)]), ([], [(2, SOURCE)])),
    "sink with an out-edge": (([3], [(SINK, 3)]), ([], [(SINK, 2)])),
    "stranded node": (([3], []), None),
    "edge to a missing node": (([], [(2, 9)]), None),
}


@pytest.mark.parametrize("kind", ["module", "blueprint"])
@pytest.mark.parametrize("case", sorted(MALFORMED_GENOMES))
def test_check_genome_rejects_malformed_graphs(kind, case):
    assert _graph_genome(kind).check() == []
    module_edit, blueprint_edit = MALFORMED_GENOMES[case]
    edit = blueprint_edit if kind == "blueprint" and blueprint_edit else \
        module_edit
    g = _graph_genome(kind, *edit)
    assert g.check() != []
    with pytest.raises(ParseError):
        genome_from_obj(to_obj(g))


def test_hyper_round_trip_and_mutation_ranges():
    r = rng(33)
    for _ in range(50):
        h = random_global_hyper(r)
        assert h.check() == []
        assert from_obj(GlobalHyper, to_obj(h), "hyper") == h
        for _ in range(20):
            h = mutate_global(h, r)
            assert h.check() == [], h


def _module_obj():
    g = init_module_population(1, 1, rng(35)).all_members()[0]
    return canon_loads(serialize(g))


@pytest.mark.parametrize("edit, where", [
    (lambda o: o.update(share_flag="false"), "genome.share_flag"),
    (lambda o: o.update(genome_id=3.9), "genome.genome_id"),
    (lambda o: o.update(species_id="x"), "genome.species_id"),
    (lambda o: o["final_layer"].update(filters=True),
     "genome.final_layer.filters"),
    (lambda o: o["edges"].update({"07": [0, 1]}), "genome.edges"),
    (lambda o: o.update(colour="red"), "colour"),
], ids=["text-flag", "fractional-id", "text-species", "bool-filters",
        "non-canonical-key", "unknown-field"])
def test_genome_decoder_refuses_a_wrong_type(edit, where):
    obj = _module_obj()
    assert genome_from_obj(obj) is not None
    edit(obj)
    with pytest.raises(ParseError, match=where):
        genome_from_obj(obj)


def test_hyper_decoder_refuses_text_depth_flags():
    obj = to_obj(GlobalHyper(depth_flags=(True, False)))
    obj["depth_flags"] = ["no", "no"]
    with pytest.raises(ParseError, match=r"hyper\.depth_flags\.0"):
        from_obj(GlobalHyper, obj, "hyper")


def test_job_result_decoder_refuses_a_text_fitness():
    obj = JobResult(1, "ok", fitness=0.5).to_obj()
    obj["fitness"] = "0.5"
    with pytest.raises(ParseError, match=r"result\.fitness"):
        from_obj(JobResult, obj, "result")


def test_round_trip_job_result_routing_node_and_config():
    cfg = ExperimentConfig(algorithm="cm", lr=0.005, max_generations=None)
    for hint, value in [
            (Job, Job(4, {"algorithm": "cm", "seed": 2}, deadline_s=7.5)),
            (JobResult, JobResult(4, "ok", 0.25, {"t0": 0.5, "t1": 0.0},
                                  1.5, "w", "")),
            (JobResult, JobResult(5, "failed", message="boom")),
            (RNode, RNode("module", 2)), (RNode, RNode("adapter")),
            (ExperimentConfig, cfg)]:
        text = canon_dumps(to_obj(value))
        assert from_obj(hint, canon_loads(text), "x") == value
    # a Job frame without deadline_s gets the default
    assert from_obj(Job, {"job_id": 1, "payload": {}}, "job") == Job(1, {})


def test_the_kind_tag_is_written_and_checked_by_the_codec():
    g = init_module_population(1, 1, rng(36)).all_members()[0]
    obj = to_obj(g)
    assert obj["kind"] == "module"
    with pytest.raises(ParseError, match=r"genome\.kind"):
        from_obj(BlueprintGenome, obj, "genome")
    del obj["kind"]
    with pytest.raises(ParseError, match=r"genome\.kind"):
        from_obj(ModuleGenome, obj, "genome")


def test_list_and_union_hints():
    from evomtl.dataset import DatasetRef, DirRef, SynthParams, SynthRef
    assert from_obj(list[int], [1, 2], "ids") == [1, 2]
    with pytest.raises(ParseError, match=r"ids\.1"):
        from_obj(list[int], [1, "2"], "ids")
    with pytest.raises(ParseError, match="ids"):
        from_obj(list[int], "ab", "ids")
    synth = SynthRef(SynthParams(1, 2, 3, 8, 0.5), split_seed=4)
    tree = DirRef("data", 8, split_seed=4)
    for ref in (synth, tree):
        assert from_obj(DatasetRef, to_obj(ref), "ref") == ref
    with pytest.raises(ParseError, match="dir"):  # both forms at once
        from_obj(DatasetRef, {**to_obj(synth), "dir": "data"}, "ref")
    with pytest.raises(ParseError, match=r"ref\.synth"):
        from_obj(DatasetRef, {"synth": {"seed": 1}, "split_seed": 7}, "ref")


def test_compatibility_zero_for_identical():
    pop = init_module_population(2, 1, rng(34))
    a = pop.all_members()[0]
    assert compatibility(a, a) == 0.0
    b = copy.deepcopy(a)
    b.nodes[next(iter(b.nodes))].filters = 64
    assert compatibility(a, b) > 0.0


def test_innovation_ids_unique_per_origin():
    t = InnovationTracker()
    e1 = t.edge_innov(0, 5)
    e2 = t.edge_innov(0, 5)
    e3 = t.edge_innov(5, 1)
    assert e1 == e2 != e3
    n1 = t.split_node(e1)
    n2 = t.split_node(e1)
    assert n1 == n2
    assert t.split_node(e3) != n1


def test_check_genome_rejects_a_dense_tail():
    # a module's tail is sized and run as a conv
    g = _graph_genome("module")
    g.final_layer.kind = "dense"
    assert g.check() == ["the tail gene must be a conv2d"]
    with pytest.raises(ParseError):
        genome_from_obj(to_obj(g))


# sha256 of `_reproduction_digest` over seeds 0..3. It records the random
# draws the operators make, in order, not only their results, so a
# refactor that draws the same values in another order moves it.
REPRODUCTION_DIGEST = ("8bc637728ae7df96bdbcbb16365874c9"
                       "f998334769d1f2bf90761fb12648ff73")


def _reproduction_digest(seeds) -> str:
    """25 generations of module (plain and cmtr) and blueprint reproduction
    per seed, under high operator rates and random fitness, with blueprint
    species pointers repaired as the coevolution loop does; hashes the
    genomes, species sizes, thresholds and pairwise compatibilities."""
    h = hashlib.sha256()
    rates = MutationRates(add_node=0.3, add_edge=0.5, perturb=0.9,
                          flip_flag=0.5)
    for seed in seeds:
        r = rng(seed)
        plain = init_module_population(8, 2, r)
        cmtr = init_module_population(6, 2, r, cmtr_mode=True)
        blueprints = init_blueprint_population(6, plain.species_ids(), r)
        for pop in (plain, cmtr, blueprints):
            pop.compat_threshold = 0.4  # species split, die and re-form
        for _ in range(25):
            for pop in (plain, cmtr, blueprints):
                for g in pop.all_members():
                    g.fitness = float(r.random())
            speciate_and_reproduce(plain, 0.2, r, rates)
            speciate_and_reproduce(cmtr, 0.2, r, rates)
            _fix_blueprint_pointers(blueprints, plain.species_ids(), r)
            speciate_and_reproduce(blueprints, 0.2, r, rates,
                                   species_ids=plain.species_ids())
            for pop in (plain, cmtr, blueprints):
                members = pop.all_members()
                h.update(canon_dumps([
                    [to_obj(g) for g in members],
                    [len(s.members) for s in pop.species],
                    pop.compat_threshold,
                    [compatibility(a, b) for a in members for b in members],
                ]).encode())
    return h.hexdigest()


def test_seeded_reproduction_matches_its_reference_digest():
    assert _reproduction_digest(range(4)) == REPRODUCTION_DIGEST
