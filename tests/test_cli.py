import json
import os

import numpy as np
import pytest

from evomtl.cli import _load_checkpoint, main
from evomtl.dot import module_dot
from evomtl.genome import ModuleGenome
from evomtl.harness import BestNetwork
from evomtl.routing import CtrCheckpoint
from evomtl.serialize import canon_dumps, from_obj, to_obj
from helpers import pgm_tree


def run_cli(args, capsys=None):
    code = main(args)
    return code


def test_unknown_algorithm_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--algorithm", "wat"])
    assert exc.value.code == 2


@pytest.mark.parametrize("profile", ["desk", "paper"])
@pytest.mark.parametrize("algorithm", ["baseline-single", "baseline-soft",
                                       "cm", "cmsr", "ctr", "cmtr"])
def test_every_shipped_profile_passes_the_config_checks(capsys, profile,
                                                        algorithm):
    assert main(["run", "--algorithm", algorithm, "--profile", profile,
                 "--plan-only"]) == 0
    assert f"algorithm={algorithm} profile={profile}" in capsys.readouterr().out


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
    assert out[-1].startswith(f"{h2},1,")


def test_report_tells_apart_runs_whose_histories_share_a_name(tmp_path,
                                                             capsys):
    # every run writes history.jsonl: the run id is the path as given
    paths = []
    for run, best in (("a", 0.5), ("b", 0.7)):
        (tmp_path / run).mkdir()
        path = tmp_path / run / "history.jsonl"
        path.write_text(json.dumps({"generation": 1, "best_fitness": best,
                                    "mean_fitness": 0.4}) + "\n")
        paths.append(str(path))
    assert main(["report", *paths]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out == ["run_id,step,best,mean", f"{paths[0]},1,0.5,0.4",
                   f"{paths[1]},1,0.7,0.4"]


def test_report_empty_file(tmp_path, capsys):
    empty = tmp_path / "h.jsonl"
    empty.write_text("")
    code = main(["report", str(empty)])
    assert code == 1
    assert "h.jsonl" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    '{"generation": 1, "best_fitness": %s, "mean_fitness": 0.5}' % ("9" * 5000),
    "[1,2]",
], ids=["int-past-the-digit-limit", "not-an-object"])
def test_report_on_a_bad_record_is_an_error_line(tmp_path, capsys, line):
    history = tmp_path / "h.jsonl"
    history.write_text(line + "\n")
    assert main(["report", str(history)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "h.jsonl" in err


def test_a_config_file_with_an_int_past_the_digit_limit_is_a_usage_error(
        tmp_path, capsys):
    cfile = tmp_path / "c.json"
    cfile.write_text('{"seed": %s}' % ("9" * 5000))
    assert main(["run", "--algorithm", "ctr", "--plan-only",
                 "--config", str(cfile)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
    assert capsys.readouterr().out == module_dot(
        from_obj(ModuleGenome, mods[last], "genome"), f"module_{last}")
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


def _text_best_avg_val(obj):
    obj["best_avg_val"] = "0.5"


def _fractional_next(obj):
    next(iter(obj["champions"].values()))["next"] = 7.9


def _first_node_of_kind(obj, kind):
    champion = next(iter(obj["champions"].values()))
    return next(r for r in champion["nodes"].values() if r["kind"] == kind)


def _misspelt_adapter_kind(obj):
    _first_node_of_kind(obj, "adapter")["kind"] = "adaptor"


def _module_without_an_index(obj):
    _first_node_of_kind(obj, "module")["module_index"] = None


@pytest.mark.parametrize("edits, field", [
    ([_text_best_avg_val], "checkpoint.best_avg_val"),
    ([_fractional_next], ".next"),
    ([_text_best_avg_val, _fractional_next], "checkpoint.best_avg_val"),
    ([_misspelt_adapter_kind], "kind 'adaptor'"),
    ([_module_without_an_index], "module with module index None"),
], ids=["text-best-avg-val", "fractional-next", "both",
        "misspelt-adapter-kind", "module-without-an-index"])
def test_eval_test_refuses_a_mistyped_checkpoint_field(tmp_path, capsys,
                                                       edits, field):
    # a text number or a fraction where an int belongs is not coerced, and
    # a routing node of an unknown kind or without its module index does
    # not reach the router: each is an error line naming the fault
    out = tmp_path / "run"
    assert main(["run", "--algorithm", "ctr", "--synth", "2x3x8", "--seed",
                 "3", "--meta-iters", "1", "--m-iters", "2", "--k-modules",
                 "2", "--out", str(out)]) == 0
    ckpt = out / "ctr_checkpoint.json"
    obj = json.loads(ckpt.read_text())
    for edit in edits:
        edit(obj)
    ckpt.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["eval-test", "--checkpoint", str(ckpt)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and field in captured.err
    assert "mean test accuracy" not in captured.out


@pytest.mark.parametrize("args, name, cls", [
    ("--algorithm ctr --synth 2x3x8 --seed 3 --meta-iters 2 --m-iters 5 "
     "--k-modules 2", "ctr_checkpoint.json", CtrCheckpoint),
    ("--algorithm cm --synth 2x3x8 --seed 11 --profile desk --stagnation "
     "1000 --n-top 1 --networks-per-gen 2 --train-iters 2 --generations 1 "
     "--long-iters 2", "best_network.json", BestNetwork),
], ids=["ctr-checkpoint", "best-network"])
def test_a_written_checkpoint_re_encodes_to_its_own_bytes(tmp_path, capsys,
                                                          args, name, cls):
    # the one checkpoint union decodes each file a run writes, extras
    # included, and encoding it again gives the file back
    out = tmp_path / "run"
    assert main(["run", *args.split(), "--out", str(out)]) == 0
    text = (out / name).read_text()
    ckpt = _load_checkpoint(str(out / name))
    assert type(ckpt) is cls
    newline = "\n" if cls is BestNetwork else ""
    assert canon_dumps(to_obj(ckpt)) + newline == text


@pytest.mark.parametrize("command, text", [
    (["export-dot", "--module", "0"], '{"kind":"best_network"}'),
    (["export-dot", "--module", "0"], '{"kind":"best_network","payload":[1]}'),
    (["eval-test"], "[1,2]"),
    (["export-dot", "--module", "0"], '"best_network"'),
    (["eval-test"], '{"kind":"ctr_state","dataset":'
                    '{"synth":{"seed":1},"split_seed":7}}'),
    (["eval-test"], '{"kind":"ctr_state","dataset":{"synth":{"seed":true,'
                    '"n_tasks":"2","n_classes":3.2,"image_side":8,'
                    '"noise":"0.1"},"split_seed":7}}'),
    (["export-dot", "--module", "0"], '{"kind":"nope"}'),
    (["eval-test"], '{"kind":"nope"}'),
], ids=["best-network-without-payload", "payload-not-an-object",
        "eval-test-on-a-list", "export-dot-on-a-string",
        "incomplete-dataset", "mistyped-dataset",
        "export-dot-on-an-unknown-kind", "eval-test-on-an-unknown-kind"])
def test_a_checkpoint_that_is_not_the_expected_object_is_an_error_line(
        tmp_path, capsys, command, text):
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(text)
    assert main([*command, "--checkpoint", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("dataset, field", [
    ({"synth": {"seed": 1}, "split_seed": 7}, "checkpoint.dataset.synth"),
    ({"synth": {"seed": True, "n_tasks": "2", "n_classes": 3.2,
                "image_side": 8, "noise": "0.1"}, "split_seed": 3},
     "checkpoint.dataset.synth.seed"),
], ids=["incomplete", "mistyped"])
def test_eval_test_refuses_a_damaged_dataset_reference(tmp_path, capsys,
                                                        dataset, field):
    # neither a missing field nor a text or bool number may reach the
    # dataset build: each is an error line naming the field
    out = tmp_path / "run"
    assert main(["run", "--algorithm", "ctr", "--synth", "2x3x8", "--seed",
                 "3", "--meta-iters", "1", "--m-iters", "2", "--k-modules",
                 "2", "--out", str(out)]) == 0
    ckpt = out / "ctr_checkpoint.json"
    obj = json.loads(ckpt.read_text())
    obj["dataset"] = dataset
    ckpt.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["eval-test", "--checkpoint", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


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
    assert type(cfg.lr) is float  # recorded in config.json as 1.0


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


_CTR = ["run", "--algorithm", "ctr", "--meta-iters", "1", "--m-iters", "1",
        "--k-modules", "2"]
_CM = ["run", "--algorithm", "cm", "--synth", "2x2x8", "--modules", "2",
       "--species", "1", "--networks-per-gen", "1", "--train-iters", "1"]
_CMTR = ["run", "--algorithm", "cmtr", "--synth", "2x2x8"]


@pytest.mark.parametrize("argv, env", [
    ([*_CTR, "--synth", "2x3x8", "--eval-subsample", "-1"], None),
    ([*_CTR, "--synth", "2x3x8", "--eval-subsample", "0"], None),
    ([*_CTR, "--data-dir", "{data}", "--image-side", "-3"], None),
    ([*_CTR, "--synth", "2x3x-2"], None),
    (["run", "--algorithm", "baseline-single", "--synth", "2x3x8",
      "--depth", "0"], None),
    ([*_CM, "--serve", "foo"], None),
    ([*_CM, "--serve", "127.0.0.1:abc"], None),
    ([*_CM, "--serve", "foo", "--plan-only"], None),
    (["worker", "--addr", "foo"], None),
    (["worker"], "foo"),
    ([*_CMTR, "--alpha", "1.5", "--plan-only"], None),
    ([*_CMTR, "--meta-iters", "0", "--plan-only"], None),
    ([*_CMTR, "--retrain-meta-iters", "0", "--plan-only"], None),
    ([*_CTR, "--synth", "2x3x8", "--alpha", "0", "--plan-only"], None),
    ([*_CM, "--networks-per-gen", "0", "--plan-only"], None),
    ([*_CM, "--train-iters", "-1", "--plan-only"], None),
], ids=["negative-eval-subsample", "zero-eval-subsample",
        "negative-image-side", "negative-synth-side", "zero-depth",
        "serve-without-port", "serve-with-a-word-for-port",
        "serve-without-port-plan-only",
        "worker-addr-without-port", "worker-env-addr-without-port",
        "alpha-above-one-plan-only", "zero-meta-iters-plan-only",
        "zero-retrain-meta-iters-plan-only", "zero-alpha-plan-only",
        "zero-networks-per-gen-plan-only", "negative-train-iters-plan-only"])
def test_outside_input_ends_in_one_error_line(tmp_path, capsys, monkeypatch,
                                              argv, env):
    if env is None:
        monkeypatch.delenv("EVOMTL_COORDINATOR_ADDR", raising=False)
    else:
        monkeypatch.setenv("EVOMTL_COORDINATOR_ADDR", env)
    if "{data}" in argv:
        data = pgm_tree(tmp_path / "data").dir
        argv = [data if a == "{data}" else a for a in argv]
    if argv[0] == "run":
        argv = [*argv, "--out", str(tmp_path / "run")]
    assert main(argv) != 0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


# a cm run short enough that a count no check rejects just runs
_CM_SHORT = [*_CM, "--generations", "1", "--long-iters", "1"]


@pytest.mark.parametrize("argv, config, field", [
    (_CM_SHORT, {"hyper_pool": 0}, "hyper_pool"),
    ([*_CM_SHORT, "--k-modules", "0"], None, "k_modules"),
    ([*_CM_SHORT, "--species", "0"], None, "species"),
    ([*_CM_SHORT, "--modules", "1", "--species", "2"], None, "modules"),
    ([*_CM_SHORT, "--n-top", "0"], None, "n_top"),
    ([*_CM_SHORT, "--long-iters", "-1"], None, "long_iters"),
    ([*_CM_SHORT, "--stagnation", "0"], None, "stagnation_limit"),
    (["run", "--algorithm", "cmsr", "--synth", "2x2x8", "--blueprints", "0"],
     None, "blueprints"),
    ([*_CMTR], {"cmtr_species": 0}, "cmtr_species"),
], ids=["zero-hyper-pool", "zero-k-modules", "zero-species",
        "fewer-modules-than-species", "zero-n-top", "negative-long-iters",
        "zero-stagnation", "zero-blueprints", "zero-cmtr-species"])
def test_a_bad_search_count_is_rejected_before_the_run_writes_anything(
        tmp_path, capsys, argv, config, field):
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "config.json")]
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert field in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["cm", "cmsr", "cmtr"])
def test_a_search_run_tests_the_model_it_selected_once(tmp_path, monkeypatch,
                                                       name):
    # the fingerprint runs: the test split is read once, at the end, from
    # the best retrain candidate, and best_network.json retrains to it
    from evomtl import coevolve
    from evomtl.dataset import MultitaskSpec
    from evomtl.harness import evaluate_payload
    from test_fingerprints import COMMANDS
    unlocks = []
    real_unlock = MultitaskSpec.unlock_test

    def counting_unlock(self):
        unlocks.append(self)
        return real_unlock(self)

    long_vals = []  # each retrain candidate's long validation accuracy

    def recording_eval(payload, **schedule):
        result = evaluate_payload(payload, **schedule)
        long_vals.append(result[0])
        return result

    monkeypatch.setattr(MultitaskSpec, "unlock_test", counting_unlock)
    monkeypatch.setattr(coevolve, "evaluate_payload", recording_eval)
    out = tmp_path / name
    assert main(["run", *COMMANDS[name].split(), "--out", str(out)]) == 0
    monkeypatch.undo()
    assert len(unlocks) == 1
    report = json.loads((out / "report.json").read_text())
    assert "selected_val_accuracy" not in report
    assert long_vals and report["val_accuracy"] == max(long_vals)
    best = from_obj(BestNetwork,
                    json.loads((out / "best_network.json").read_text()),
                    "best_network")
    long_iters = json.loads((out / "config.json").read_text())["long_iters"]
    fitness, _, _, _ = evaluate_payload(
        best.payload, lr_decay=True, snapshot_every=max(1, long_iters // 10))
    assert fitness == report["val_accuracy"]
