"""The benchmark's full tracer, installed on the live package.

`bench/tracing.py` wraps evomtl functions by name and reads the arguments
of some of them (a conv's input must be one (H, W, C) example). A rename
or a changed argument shape would only show in a traced benchmark run;
here it fails the tests. So would a network that pads the image up to a
conv's kernel width again, or a tracer that counts conv flops from the
kernel's channels instead of the input's. Nothing under bench/ is written.
"""

from pathlib import Path

import numpy as np

import evomtl
import evomtl.cli
from evomtl import harness
from evomtl.dataset import SynthParams, SynthRef
from evomtl.genome import GlobalHyper, init_module_population

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _ctr_run(out: Path) -> dict:
    code = evomtl.cli.main([
        "run", "--algorithm", "ctr", "--synth", "2x3x8", "--seed", "7",
        "--meta-iters", "1", "--m-iters", "4", "--k-modules", "2",
        "--filters", "8", "--out", str(out)])
    assert code == 0
    return {name: (out / name).read_bytes()
            for name in ("report.json", "history.jsonl", "ctr_checkpoint.json")}


def _cm_job() -> harness.Job:
    pop = init_module_population(2, 2, np.random.default_rng(3))
    for g in pop.all_members():
        for gene in g.nodes.values():
            gene.kind, gene.kernel_size = "conv2d", 3
    return harness.Job(0, harness.CmPayload(
        modules=pop.all_members(),
        module_ids=[g.genome_id for g in pop.all_members()],
        hyper=GlobalHyper(k_modules=2, depth=2), hyper_id=0,
        dataset=SynthRef(SynthParams(1, 2, 3, 8, 0.1), split_seed=2),
        seed=9, train_iters=3))


def test_full_tracer_runs_ctr_and_a_cm_job(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    plain_ctr = _ctr_run(tmp_path / "plain")
    plain_cm = harness.evaluate_local(_cm_job())
    shapes = []  # (input, kernel) shape of every tape conv
    conv2d = evomtl.diffcore.CompGraph.conv2d

    def counting_conv2d(graph, x, w, b):
        shapes.append((x.value.shape, w.value.shape))
        return conv2d(graph, x, w, b)

    monkeypatch.setattr(evomtl.diffcore.CompGraph, "conv2d", counting_conv2d)
    tr = tracing.Tracer(full=True)
    tracing.install(tr, evomtl)
    try:
        traced_ctr = _ctr_run(tmp_path / "traced")
        traced_cm = harness.evaluate_local(_cm_job())
    finally:
        tr.unpatch()
    assert not hasattr(evomtl.diffcore.CompGraph.conv2d, "__wrapped__")
    assert evomtl.diffcore.CompGraph.conv2d is counting_conv2d
    assert traced_ctr == plain_ctr
    assert plain_cm.status == "ok"
    assert (traced_cm.fitness, traced_cm.per_task) == \
        (plain_cm.fitness, plain_cm.per_task)
    names = {span[0] for span in tr.spans}
    for name in ("diffcore.conv2d", "diffcore.conv2d.vjp", "diffcore.maxpool2x2",
                 "diffcore.backward", "routing.joint_train",
                 "routing.evaluate_individual", "training.train_network",
                 "training.evaluate_accuracy", "harness.evaluate_local"):
        assert name in names, name
    assert tr.counts["diffcore.tape_nodes"] > 0
    assert tr.counts["diffcore.conv2d.flops"] > 0
    # the image enters its first convs unpadded, and the tracer counts
    # the work those convs do on the real channels
    assert any(x[2] < w[2] for x, w in shapes)
    assert tr.counts["diffcore.conv2d.flops"] == sum(
        2 * h * wd * k * k * c * cout for (h, wd, c), (k, _, _, cout) in shapes)
    # scoring runs without a tape
    assert tr.counts["diffcore.eval_tape_nodes"] == 0


def test_optimiser_steps_and_tape_nodes_reach_the_tracer(tmp_path, monkeypatch):
    # The untraced benchmark probes host speed before every PROBE_EVERY-th
    # adam_step, found through the diffcore module attribute; the full
    # tracer counts tape nodes in CompGraph._record. A ctr run must
    # therefore step the optimiser once per joint-training iteration
    # through that attribute, and record every node backward sweeps.
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    dc = evomtl.diffcore
    meta_iters, m_iters = 2, 4
    argv = ["run", "--algorithm", "ctr", "--synth", "2x3x8", "--seed", "7",
            "--meta-iters", str(meta_iters), "--m-iters", str(m_iters),
            "--k-modules", "2", "--filters", "8"]
    steps, swept = [], []
    adam_step, backward = dc.adam_step, dc.backward

    def counting_adam_step(params, lr):
        steps.append(lr)
        return adam_step(params, lr)

    def counting_backward(graph, loss):
        swept.append(len(graph.nodes))
        return backward(graph, loss)

    tr = tracing.Tracer(full=False)
    tr.patch(dc, "adam_step", counting_adam_step)
    tracing.install(tr, evomtl)
    try:
        assert evomtl.cli.main([*argv, "--out", str(tmp_path / "a")]) == 0
    finally:
        tr.unpatch()
    assert len(steps) == meta_iters * m_iters
    # one probe as each meta-iteration opens, one per PROBE_EVERY steps
    assert len(tr.samples["host.probes"]) == \
        meta_iters + len(steps) // tracing.PROBE_EVERY

    tr = tracing.Tracer(full=True)
    tr.patch(dc, "backward", counting_backward)
    tracing.install(tr, evomtl)
    try:
        assert evomtl.cli.main([*argv, "--out", str(tmp_path / "b")]) == 0
    finally:
        tr.unpatch()
    assert dc.adam_step is adam_step and dc.backward is backward
    assert swept and tr.counts["diffcore.tape_nodes"] == sum(swept)
