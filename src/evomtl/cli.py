"""Command-line entry points.

Commands: run (execute an experiment end to end), report (history files
to CSV), export-dot (module/routing topology to DOT), worker (start an
evaluation worker), eval-test (test-split evaluation of a routing
checkpoint). Exit codes: 0 ok, 1 runtime failure, 2 usage error.

Runs are launched and then inspected offline from the run directory,
which is self-describing: resolved config, input content hash, split
manifest, history log, checkpoints, and the final report.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import os
import sys

import numpy as np

from .assembly import SingleTaskNet, SoftOrderingNet, count_parameters
from .config import ALGORITHMS, ExperimentConfig, resolve_config
from .coevolve import HyperPopulation, retrain_top, run_generation_loop
from .dataset import write_split_manifest
from .dot import module_dot, routing_dot
from .errors import ConfigError, EvoMtlError, ParseError
from .genome import (
    GlobalHyper, LayerGene, init_blueprint_population, init_module_population,
)
from .harness import (
    BestNetwork, Coordinator, build_dataset, dataset_scope,
    distributed_evaluator, local_evaluator, run_worker,
)
from .routing import CtrCheckpoint, default_ctr_modules, run_ctr
from .serialize import (
    atomic_write_text, canon_dumps, canon_loads, from_obj, to_obj,
)
from .training import epoch_iters, final_report, score_test, train_network


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except EvoMtlError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evomtl",
        description="Evolutionary architecture search for multitask networks")
    sub = parser.add_subparsers(required=True)

    run_p = sub.add_parser("run", help="run an experiment end to end")
    run_p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    run_p.add_argument("--config", help="JSON config file (flat keys)")
    run_p.add_argument("--profile", choices=("desk", "paper"))
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--out", help="run directory (default runs/<alg>-s<seed>)")
    run_p.add_argument("--synth", metavar="TxCxS",
                       help="synthetic corpus: tasks x classes x image side")
    run_p.add_argument("--noise", type=float, dest="synth_noise")
    run_p.add_argument("--synth-seed", type=int, dest="synth_seed")
    run_p.add_argument("--data-dir", dest="data_dir")
    run_p.add_argument("--image-side", type=int, dest="image_side")
    run_p.add_argument("--plan-only", action="store_true", default=None,
                       help="echo the resolved plan and exit")
    run_p.add_argument("--serve", metavar="HOST:PORT",
                       help="coordinate remote workers instead of local eval")
    for flag, key, typ in [
            ("--networks-per-gen", "networks_per_generation", int),
            ("--train-iters", "train_iters", int),
            ("--generations", "max_generations", int),
            ("--stagnation", "stagnation_limit", int),
            ("--n-top", "n_top", int),
            ("--long-iters", "long_iters", int),
            ("--modules", "modules", int),
            ("--species", "species", int),
            ("--blueprints", "blueprints", int),
            ("--meta-iters", "meta_iters", int),
            ("--m-iters", "m_iters", int),
            ("--retrain-meta-iters", "retrain_meta_iters", int),
            ("--alpha", "alpha", float),
            ("--k-modules", "k_modules", int),
            ("--depth", "depth", int),
            ("--filters", "filters", int),
            ("--lr", "lr", float),
            ("--sharing-mode", "sharing_mode", str),
            ("--eval-subsample", "eval_subsample", int)]:
        run_p.add_argument(flag, dest=key, type=typ)
    run_p.set_defaults(func=cmd_run)

    rep_p = sub.add_parser("report", help="history logs to CSV on stdout")
    rep_p.add_argument("histories", nargs="+")
    rep_p.set_defaults(func=cmd_report)

    dot_p = sub.add_parser("export-dot", help="emit DOT for a checkpoint")
    dot_p.add_argument("--checkpoint", required=True)
    grp = dot_p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--module", type=int, help="module index to export")
    grp.add_argument("--routing", help="task id whose routing to export")
    dot_p.set_defaults(func=cmd_export_dot)

    w_p = sub.add_parser("worker", help="start an evaluation worker")
    w_p.add_argument("--addr", help="coordinator HOST:PORT "
                                    "(default $EVOMTL_COORDINATOR_ADDR)")
    w_p.set_defaults(func=cmd_worker)

    ev_p = sub.add_parser("eval-test",
                          help="evaluate a routing checkpoint on the test split")
    ev_p.add_argument("--checkpoint", required=True)
    ev_p.set_defaults(func=cmd_eval_test)
    return parser


def _overrides_from_args(args) -> dict:
    """Every config field the parser set; an unset flag is None, which
    overrides nothing."""
    over = {f.name: getattr(args, f.name, None)
            for f in dataclasses.fields(ExperimentConfig)}
    if args.synth:
        try:
            t, c, s = (int(x) for x in args.synth.lower().split("x"))
        except ValueError:
            raise ConfigError(f"--synth wants TxCxS, got {args.synth!r}")
        over.update(synth_tasks=t, synth_classes=c, synth_side=s)
    return over


def _echo_plan(cfg: ExperimentConfig) -> None:
    n_mod, n_sp = cfg.module_counts()
    lines = [f"algorithm={cfg.algorithm} profile={cfg.profile} seed={cfg.seed}"]
    if cfg.algorithm in ("cm", "cmsr", "cmtr"):
        lines.append(f"modules={n_mod} species={n_sp}"
                     + (f" blueprints={cfg.blueprints}"
                        if cfg.algorithm == "cmsr" else ""))
        lines.append(f"networks_per_generation={cfg.networks_per_generation} "
                     f"train_iters={cfg.train_iters} "
                     f"stagnation_limit={cfg.stagnation_limit} "
                     f"max_generations={cfg.max_generations}")
    if cfg.algorithm in ("ctr", "cmtr"):
        lines.append(f"meta_iters={cfg.meta_iters} m_iters={cfg.m_iters} "
                     f"alpha={cfg.alpha} k_modules={cfg.k_modules}")
    lines.append(f"dataset={canon_dumps(to_obj(cfg.dataset_ref()))}")
    for line in lines:
        print(line)


def _hash_inputs(cfg: ExperimentConfig) -> str:
    """sha256 of the config and of every data file's relative path and
    bytes."""
    h = hashlib.sha256(canon_dumps(to_obj(cfg)).encode())
    if cfg.data_dir and os.path.isdir(cfg.data_dir):
        for root, dirs, files in sorted(os.walk(cfg.data_dir)):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(root, f)
                h.update(os.path.relpath(path, cfg.data_dir).encode())
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _default_genes(cfg: ExperimentConfig) -> list[LayerGene]:
    side = cfg.effective_image_side()
    kernel = 3 if side >= 3 else 1
    return [LayerGene(2 + i, "conv2d", "relu", kernel, cfg.filters, 1e-6, 0.0)
            for i in range(cfg.depth)]


def _write_history(path: str, records: list[dict]) -> None:
    atomic_write_text(path, "".join(canon_dumps(r) + "\n" for r in records))


def cmd_run(args) -> int:
    cfg = resolve_config(profile=args.profile, config_file=args.config,
                         overrides=_overrides_from_args(args))
    _echo_plan(cfg)
    if cfg.plan_only:
        return 0
    out_dir = cfg.out or os.path.join("runs", f"{cfg.algorithm}-s{cfg.seed}")
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_text(os.path.join(out_dir, "config.json"),
                      canon_dumps(to_obj(cfg)) + "\n")
    atomic_write_text(os.path.join(out_dir, "inputs_hash.txt"),
                      _hash_inputs(cfg) + "\n")
    # one corpus for the whole run: the CLI's spec, every job's and every
    # retrain's build share it
    with dataset_scope():
        spec = build_dataset(cfg.dataset_ref())
        write_split_manifest(spec, os.path.join(out_dir, "split_manifest.txt"))
        if cfg.algorithm in ("baseline-single", "baseline-soft"):
            report = _run_baseline(cfg, spec, out_dir)
        elif cfg.algorithm == "ctr":
            report = _run_ctr_experiment(cfg, spec, out_dir)
        else:
            report = _run_coevolution(cfg, out_dir)
    atomic_write_text(os.path.join(out_dir, "report.json"),
                      canon_dumps(to_obj(report)) + "\n")
    _print_report(report)
    print(f"run artifacts in {out_dir}")
    return 0


def _print_report(report: dict) -> None:
    for tid in sorted(report["val_per_task"]):
        print(f"task {tid}: val {report['val_per_task'][tid]:.4f} "
              f"test {report['test_per_task'][tid]:.4f}")
    print(f"mean validation accuracy: {report['val_accuracy']:.4f}")
    print(f"mean test accuracy: {report['test_accuracy']:.4f}")
    if "param_count" in report:  # cm, cmsr and cmtr reports have none
        print(f"parameters (distinct storages): {report['param_count']}")


def _run_baseline(cfg: ExperimentConfig, spec, out_dir: str) -> dict:
    rng = np.random.default_rng(cfg.seed)
    genes = _default_genes(cfg)
    hyper = GlobalHyper(final_layer_filters=cfg.filters, weight_init="he",
                        sharing_mode=cfg.sharing_mode)
    tids = [t.task_id for t in spec.tasks]
    cls = [t.class_count for t in spec.tasks]
    net_cls = (SoftOrderingNet if cfg.algorithm == "baseline-soft"
               else SingleTaskNet)
    net = net_cls(genes, tids, cls, spec.image_side, hyper, rng)
    train_network(net, spec, cfg.train_iters, cfg.lr, rng,
                  snapshot_every=max(1, min(epoch_iters(spec),
                                            cfg.train_iters // 4 or 1)))
    report = final_report(net, spec)
    val_mean = report["val_accuracy"]
    history = [{"generation": 1, "best_fitness": val_mean,
                "mean_fitness": val_mean, "best_genome_id": 0}]
    _write_history(os.path.join(out_dir, "history.jsonl"), history)
    return {"algorithm": cfg.algorithm, **report,
            "param_count": count_parameters(net)}


def _run_ctr_experiment(cfg: ExperimentConfig, spec, out_dir: str) -> dict:
    rng = np.random.default_rng(cfg.seed)
    modules = default_ctr_modules(cfg.k_modules, spec.image_side, rng,
                                  cfg.filters)
    ckpt_path = os.path.join(out_dir, "ctr_checkpoint.json")
    final, best, history = run_ctr(
        modules, spec, cfg.meta_iters, cfg.m_iters, cfg.alpha, cfg.lr, rng,
        checkpoint_path=ckpt_path, eval_subsample=cfg.eval_subsample)
    _write_history(os.path.join(out_dir, "history.jsonl"), history)
    return {"algorithm": "ctr", "best_avg_val": best,
            **final_report(final, spec),
            "param_count": count_parameters(final)}


def _run_coevolution(cfg: ExperimentConfig, out_dir: str) -> dict:
    rng = np.random.default_rng(cfg.seed)
    n_mod, n_sp = cfg.module_counts()
    module_pop = init_module_population(n_mod, n_sp, rng,
                                        cmtr_mode=cfg.algorithm == "cmtr")
    blueprint_pop = None
    if cfg.algorithm == "cmsr":
        blueprint_pop = init_blueprint_population(
            cfg.blueprints, module_pop.species_ids(), rng)
    base_hyper = GlobalHyper(
        learning_rate=cfg.lr, final_layer_filters=cfg.filters,
        k_modules=cfg.k_modules, depth=cfg.depth,
        depth_flags=tuple([True] * cfg.depth), sharing_mode=cfg.sharing_mode)
    hyper_pop = HyperPopulation(cfg.hyper_pool, rng, cfg.sharing_mode,
                                base=base_hyper)
    # one coordinator for the whole search: workers stay connected across
    # generations and are released when the loop ends
    with (Coordinator(cfg.serve) if cfg.serve
          else contextlib.nullcontext()) as coordinator:
        evaluator = (distributed_evaluator(coordinator) if coordinator
                     else local_evaluator)
        out = run_generation_loop(cfg, module_pop, hyper_pop, evaluator, rng,
                                  blueprint_pop=blueprint_pop, log=print)
    _write_history(os.path.join(out_dir, "history.jsonl"), out.history)
    report = {**retrain_top(out.archive, cfg, log=print),
              "algorithm": cfg.algorithm, "generations": out.generations}
    best = BestNetwork(report["payload"], {k: v for k, v in report.items()
                                           if k != "payload"})
    atomic_write_text(os.path.join(out_dir, "best_network.json"),
                      canon_dumps(to_obj(best)) + "\n")
    return report


def cmd_report(args) -> int:
    rows = []
    multi = len(args.histories) > 1
    for path in args.histories:
        try:
            with open(path) as f:
                lines = [line for line in f.read().splitlines() if line.strip()]
        except OSError as e:
            print(f"error: cannot read {path}: {e}", file=sys.stderr)
            return 1
        if not lines:
            print(f"error: {path} is empty", file=sys.stderr)
            return 1
        for line in lines:
            try:
                rec = canon_loads(line)
            except ParseError as e:
                print(f"error: {path}: bad record ({e})", file=sys.stderr)
                return 1
            if type(rec) is not dict:
                print(f"error: {path}: a record is not a JSON object",
                      file=sys.stderr)
                return 1
            step = rec.get("generation", rec.get("meta_iteration"))
            best = rec.get("best_fitness", rec.get("best_avg_val"))
            mean = rec.get("mean_fitness", rec.get("mean_champion_val"))
            if step is None or best is None or mean is None:
                print(f"error: {path}: record missing fields", file=sys.stderr)
                return 1
            rows.append((path, step, best, mean))
    header = "run_id,step,best,mean" if multi else "step,best,mean"
    print(header)
    for run_id, step, best, mean in rows:
        prefix = f"{run_id}," if multi else ""
        print(f"{prefix}{step},{best},{mean}")
    return 0


def _load_checkpoint(path: str) -> CtrCheckpoint | BestNetwork:
    """The checkpoint at `path`, of either kind, decoded by `from_obj`."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise EvoMtlError(f"cannot read checkpoint {path}: {e}") from e
    return from_obj(CtrCheckpoint | BestNetwork, canon_loads(text),
                    "checkpoint")


def cmd_export_dot(args) -> int:
    ckpt = _load_checkpoint(args.checkpoint)
    if args.module is not None:
        genomes = (ckpt.payload.modules if isinstance(ckpt, BestNetwork)
                   else [m.genome for m in ckpt.modules])
        if not 0 <= args.module < len(genomes):
            print(f"error: no module {args.module} "
                  f"(checkpoint has {len(genomes)})", file=sys.stderr)
            return 1
        sys.stdout.write(module_dot(genomes[args.module],
                                    f"module_{args.module}"))
        return 0
    if isinstance(ckpt, BestNetwork):
        print("error: routing export needs a routing checkpoint",
              file=sys.stderr)
        return 1
    if args.routing not in ckpt.champions:
        print(f"error: no task {args.routing!r} in checkpoint "
              f"(tasks: {sorted(ckpt.champions)})", file=sys.stderr)
        return 1
    sys.stdout.write(routing_dot(ckpt.champions[args.routing].individual(),
                                 "routing"))
    return 0


def cmd_worker(args) -> int:
    return run_worker(args.addr)


def cmd_eval_test(args) -> int:
    ckpt = _load_checkpoint(args.checkpoint)
    if isinstance(ckpt, BestNetwork) or ckpt.dataset is None:
        print("error: eval-test needs the checkpoint file of a ctr run "
              "(cm/cmsr runs record test accuracy in report.json)",
              file=sys.stderr)
        return 1
    per_task, mean = score_test(ckpt.state(), build_dataset(ckpt.dataset))
    for tid in sorted(per_task):
        print(f"task {tid}: test {per_task[tid]:.4f}")
    print(f"mean test accuracy: {mean:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
