import json
import os

import numpy as np
import pytest

from evomtl.cli import main
from evomtl.dot import module_dot
from evomtl.genome import genome_from_obj


def run_cli(args, capsys=None):
    code = main(args)
    return code


def test_unknown_algorithm_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--algorithm", "wat"])
    assert exc.value.code == 2


def test_plan_only_paper_cmtr(capsys):
    code = main(["run", "--algorithm", "cmtr", "--profile", "paper",
                 "--plan-only"])
    out = capsys.readouterr().out
    assert code == 0
    assert "modules=25 species=2" in out
    assert "networks_per_generation=100" in out
    assert "meta_iters=120 m_iters=250" in out  # 30000 / 120 per cycle


def test_run_ctr_synth_report(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["run", "--algorithm", "ctr", "--synth", "5x4x8", "--seed",
                 "7", "--meta-iters", "2", "--m-iters", "5", "--k-modules",
                 "2", "--out", out])
    printed = capsys.readouterr().out
    assert code == 0
    assert printed.count("task synth") == 5  # five per-task accuracy lines
    for name in ("config.json", "history.jsonl", "report.json",
                 "split_manifest.txt", "inputs_hash.txt",
                 "ctr_checkpoint.json"):
        assert os.path.exists(os.path.join(out, name)), name
    report = json.load(open(os.path.join(out, "report.json")))
    assert len(report["val_per_task"]) == 5


def test_report_single_and_multi(tmp_path, capsys):
    h1 = tmp_path / "a.jsonl"
    h1.write_text("".join(json.dumps({"generation": i, "best_fitness": 0.5 + i / 10,
                                      "mean_fitness": 0.4}) + "\n"
                          for i in range(3)))
    code = main(["report", str(h1)])
    out = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    assert out[0] == "step,best,mean"
    assert len(out) == 4
    h2 = tmp_path / "b.jsonl"
    h2.write_text(json.dumps({"meta_iteration": 1, "best_avg_val": 0.7,
                              "mean_champion_val": 0.6}) + "\n")
    code = main(["report", str(h1), str(h2)])
    out = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    assert out[0] == "run_id,step,best,mean"
    assert len(out) == 5
    assert out[-1].startswith("b,1,")


def test_report_empty_file(tmp_path, capsys):
    empty = tmp_path / "h.jsonl"
    empty.write_text("")
    code = main(["report", str(empty)])
    assert code == 1
    assert "h.jsonl" in capsys.readouterr().err


def test_export_dot_chain_and_diamond(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["run", "--algorithm", "ctr", "--synth", "2x3x8", "--seed",
                 "3", "--meta-iters", "3", "--m-iters", "5", "--k-modules",
                 "2", "--out", out])
    assert code == 0
    capsys.readouterr()
    ckpt = os.path.join(out, "ctr_checkpoint.json")
    code = main(["export-dot", "--checkpoint", ckpt, "--module", "0"])
    dot = capsys.readouterr().out
    assert code == 0
    assert parse_dot(dot)
    code = main(["export-dot", "--checkpoint", ckpt, "--routing", "synth0"])
    dot = capsys.readouterr().out
    assert code == 0
    nodes, edges = parse_dot(dot)
    assert any("module" in lbl for lbl in nodes.values())
    # chain or grown chain: every edge references declared nodes
    for a, b in edges:
        assert a in nodes and b in nodes


def test_export_dot_missing_target(tmp_path, capsys):
    out = str(tmp_path / "run")
    main(["run", "--algorithm", "ctr", "--synth", "2x3x8", "--seed", "3",
          "--meta-iters", "1", "--m-iters", "2", "--k-modules", "2",
          "--out", out])
    capsys.readouterr()
    ckpt = os.path.join(out, "ctr_checkpoint.json")
    assert main(["export-dot", "--checkpoint", ckpt, "--module", "9"]) == 1
    assert main(["export-dot", "--checkpoint", ckpt, "--routing", "nope"]) == 1


def test_export_dot_module_from_a_best_network(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--algorithm", "cm", "--synth", "2x3x8", "--seed",
                 "11", "--profile", "desk", "--stagnation", "1000", "--n-top",
                 "1", "--networks-per-gen", "2", "--train-iters", "2",
                 "--generations", "1", "--long-iters", "2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    ckpt = out / "best_network.json"
    mods = json.loads(ckpt.read_text())["payload"]["modules"]
    last = len(mods) - 1
    code = main(["export-dot", "--checkpoint", str(ckpt), "--module",
                 str(last)])
    assert code == 0
    assert capsys.readouterr().out == module_dot(genome_from_obj(mods[last]),
                                                 f"module_{last}")
    code = main(["export-dot", "--checkpoint", str(ckpt), "--module",
                 str(len(mods))])
    assert code == 1
    assert (f"no module {len(mods)} (checkpoint has {len(mods)})"
            in capsys.readouterr().err)
    assert main(["export-dot", "--checkpoint", str(ckpt), "--routing",
                 "synth0"]) == 1
    assert "needs a routing checkpoint" in capsys.readouterr().err


def test_ctr_runs_on_images_smaller_than_4x4(tmp_path, capsys):
    # below 4x4 a module does not pool, so a splice can reach the side of
    # a node that reads the raw image; it must not merge the two
    assert main(["run", "--algorithm", "ctr", "--synth", "2x3x3", "--seed",
                 "1", "--meta-iters", "20", "--m-iters", "3", "--k-modules",
                 "2", "--out", str(tmp_path / "run")]) == 0


def test_an_unset_plan_only_flag_keeps_the_config_file_value(tmp_path,
                                                             capsys):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"plan_only": True}))
    out = tmp_path / "run"
    assert main(["run", "--algorithm", "ctr", "--config", str(cfile),
                 "--out", str(out)]) == 0
    assert "algorithm=ctr" in capsys.readouterr().out
    assert not out.exists()


def test_eval_test_from_checkpoint(tmp_path, capsys):
    out = str(tmp_path / "run")
    main(["run", "--algorithm", "ctr", "--synth", "2x3x8", "--seed", "3",
          "--meta-iters", "2", "--m-iters", "5", "--k-modules", "2",
          "--out", out])
    capsys.readouterr()
    code = main(["eval-test", "--checkpoint",
                 os.path.join(out, "ctr_checkpoint.json")])
    printed = capsys.readouterr().out
    assert code == 0
    assert "mean test accuracy" in printed


def test_eval_test_rejects_a_checkpoint_missing_a_field(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--algorithm", "ctr", "--synth", "2x3x8", "--seed",
                 "3", "--meta-iters", "1", "--m-iters", "2", "--k-modules",
                 "2", "--out", str(out)]) == 0
    ckpt = out / "ctr_checkpoint.json"
    obj = json.loads(ckpt.read_text())
    del next(iter(obj["champions"].values()))["decoder_w"]
    ckpt.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["eval-test", "--checkpoint", str(ckpt)]) == 1
    assert "decoder_w" in capsys.readouterr().err


def test_run_reproducible_history(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        code = main(["run", "--algorithm", "cmtr", "--seed", "5",
                     "--networks-per-gen", "4", "--modules", "4",
                     "--species", "2", "--generations", "2", "--meta-iters",
                     "1", "--m-iters", "4", "--n-top", "1", "--synth",
                     "2x3x12", "--retrain-meta-iters", "1", "--out", out])
        assert code == 0
        outs.append(open(os.path.join(out, "history.jsonl"), "rb").read())
    assert outs[0] == outs[1]


# --- a tiny DOT grammar checker (the oracle for export formatting) ---------


def parse_dot(text: str):
    """Minimal DOT subset parser: digraph NAME { node/edge statements }.
    Returns (nodes: id->label, edges: list of (src, dst)) or raises."""
    import re
    text = text.strip()
    m = re.match(r"digraph\s+\w+\s*\{(.*)\}\s*$", text, re.S)
    assert m, "not a digraph"
    body = m.group(1)
    nodes = {}
    edges = []
    for raw in body.split(";"):
        stmt = raw.strip()
        if not stmt or stmt.startswith("rankdir"):
            continue
        em = re.match(r'"([^"]+)"\s*->\s*"([^"]+)"(\s*\[[^\]]*\])?$', stmt)
        if em:
            edges.append((em.group(1), em.group(2)))
            continue
        nm = re.match(r'"([^"]+)"\s*\[([^\]]*)\]$', stmt)
        if nm:
            attrs = nm.group(2)
            lm = re.search(r'label="([^"]*)"', attrs)
            nodes[nm.group(1)] = lm.group(1) if lm else nm.group(1)
            continue
        raise AssertionError(f"unparseable statement: {stmt!r}")
    return nodes, edges


def test_dot_exports_parse(tmp_path):
    from evomtl.genome import init_module_population
    import numpy as np
    pop = init_module_population(2, 1, np.random.default_rng(0))
    genome = pop.all_members()[0]
    nodes, edges = parse_dot(module_dot(genome))
    assert "in" in nodes and "out" in nodes


def test_profile_flag_beats_config_file(tmp_path):
    from evomtl.config import resolve_config
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"profile": "desk", "seed": 3}))
    cfg = resolve_config(profile="paper", config_file=str(cfile),
                         overrides={"algorithm": "cmtr"})
    assert cfg.profile == "paper"
    assert cfg.networks_per_generation == 100  # paper constants loaded
    assert cfg.seed == 3                       # file value kept


@pytest.mark.parametrize("algorithm, values", [
    ("cm", {"train_iters": "abc"}),
    ("ctr", {"meta_iters": 2.5}),
    ("ctr", {"m_iters": True}),
    ("ctr", {"seed": None}),
], ids=["str-for-int", "float-for-int", "bool-for-int", "null-for-int"])
def test_config_file_value_of_the_wrong_type_is_a_usage_error(
        tmp_path, capsys, algorithm, values):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps(values))
    code = main(["run", "--algorithm", algorithm, "--config", str(cfile),
                 "--synth", "2x3x8", "--out", str(tmp_path / "run")])
    assert code == 2
    assert repr(next(iter(values))) in capsys.readouterr().err


def test_config_file_accepts_an_int_for_a_float_and_null_where_allowed(
        tmp_path):
    from evomtl.config import resolve_config
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"lr": 1, "max_generations": None,
                                 "eval_subsample": None}))
    cfg = resolve_config(config_file=str(cfile))
    assert cfg.lr == 1 and cfg.max_generations is None


def test_inputs_hash_covers_file_content(tmp_path):
    from evomtl.cli import _hash_inputs
    from evomtl.config import resolve_config
    data = tmp_path / "data"
    for t in range(2):
        cdir = data / f"task{t}" / "class0"
        cdir.mkdir(parents=True)
        (cdir / "0.pgm").write_bytes(b"P5\n4 4\n255\n" + bytes(range(16)))
    cfg = resolve_config(overrides={"algorithm": "cm",
                                    "data_dir": str(data)})
    before = _hash_inputs(cfg)
    assert _hash_inputs(cfg) == before
    pgm = data / "task1" / "class0" / "0.pgm"
    raw = bytearray(pgm.read_bytes())
    raw[-1] ^= 0xFF  # same size, one pixel changed
    pgm.write_bytes(bytes(raw))
    assert _hash_inputs(cfg) != before


@pytest.mark.parametrize("argv", [
    ["--algorithm", "ctr", "--meta-iters", "1", "--m-iters", "2",
     "--k-modules", "2"],
    ["--algorithm", "baseline-soft", "--train-iters", "8"],
], ids=["ctr", "baseline-soft"])
def test_run_reads_each_test_split_once_after_validation(
        tmp_path, capsys, monkeypatch, argv):
    from evomtl.dataset import MultitaskSpec
    reads = []  # (split, task id) in read order
    real = MultitaskSpec.examples_for

    def recording(self, task, split):
        reads.append((split, task.task_id))
        return real(self, task, split)

    monkeypatch.setattr(MultitaskSpec, "examples_for", recording)
    code = main(["run", *argv, "--synth", "3x3x8", "--seed", "2",
                 "--out", str(tmp_path / "run")])
    assert code == 0
    tests = [i for i, (split, _) in enumerate(reads) if split == "test"]
    vals = [i for i, (split, _) in enumerate(reads) if split == "val"]
    assert sorted(reads[i][1] for i in tests) == ["synth0", "synth1", "synth2"]
    assert vals and min(tests) > max(vals)
