"""Experiment configuration: profile defaults, config-file keys, and CLI
overrides, resolved in that order. Keys are flat and documented here.

The `ExperimentConfig` defaults are the desk profile: sizes chosen so
every algorithm finishes in minutes on one CPU core. The paper profile
overrides them with the published-scale constants (100 networks per
generation trained 3000 iterations, 120 meta-iterations of 250, module
populations 50/4 species, 25/2 for cmtr, 20 blueprints, top-50 retraining
for 30000 iterations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dataset import DatasetRef, DirRef, SynthParams, SynthRef
from .errors import ConfigError, ParseError
from .genome import FILTER_RANGE, SHARING_MODES, GlobalHyper
from .serialize import canon_loads, from_obj

# Seconds a job may run before the coordinator requeues it.
DEFAULT_DEADLINE_S = 600.0

ALGORITHMS = ("baseline-single", "baseline-soft", "cm", "cmsr", "ctr", "cmtr")

PROFILES = {
    "desk": {},
    "paper": dict(
        networks_per_generation=100, train_iters=3000, n_top=50,
        modules=50, species=4, cmtr_modules=25, cmtr_species=2,
        blueprints=20, stagnation_limit=10, max_generations=None,
        meta_iters=120, m_iters=250, retrain_meta_iters=120,
        long_iters=30000, hyper_pool=8, k_modules=4, depth=3, lr=3e-3,
        synth_tasks=20, synth_classes=5, synth_side=28, synth_noise=0.1,
    ),
}


@dataclass
class ExperimentConfig:
    algorithm: str = "ctr"
    profile: str = "desk"
    seed: int = 0
    out: str | None = None

    # dataset: either a directory of PGM tasks or synthesis parameters
    data_dir: str | None = None
    image_side: int = 28
    order_seed: int = 0
    synth_tasks: int = 3
    synth_classes: int = 3
    synth_side: int = 12
    synth_noise: float = 0.1
    synth_seed: int | None = None
    examples_per_class: int = 30

    # evolution driver
    networks_per_generation: int = 16
    train_iters: int = 600
    stagnation_limit: int = 10
    max_generations: int | None = 3
    n_top: int = 5
    long_iters: int = 1200
    modules: int = 12
    species: int = 4
    cmtr_modules: int = 8
    cmtr_species: int = 2
    blueprints: int = 6
    hyper_pool: int = 4
    elite_frac: float = 0.2

    # routing evolution / baseline network knobs
    meta_iters: int = 3
    m_iters: int = 50
    retrain_meta_iters: int = 6
    alpha: float = 0.1
    k_modules: int = 2
    depth: int = 2
    filters: int = 8
    lr: float = 1e-2
    sharing_mode: str = "evolved"
    eval_subsample: int | None = None

    # execution
    serve: str | None = None
    deadline_s: float = DEFAULT_DEADLINE_S
    plan_only: bool = False

    def check(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.profile not in PROFILES:
            raise ConfigError(f"unknown profile {self.profile!r}")
        if self.sharing_mode not in SHARING_MODES:
            raise ConfigError(f"unknown sharing mode {self.sharing_mode!r}")
        # the least value of each count; each species needs a module
        pre = "cmtr_" if self.algorithm == "cmtr" else ""
        n_sp = self.module_counts()[1]
        floors = {"networks_per_generation": 1, "train_iters": 0, "n_top": 1,
                  "long_iters": 0, "stagnation_limit": 1, "hyper_pool": 1,
                  "meta_iters": 1, "retrain_meta_iters": 1, "k_modules": 1,
                  "depth": 1, "filters": 1,
                  "blueprints": 1, f"{pre}species": 1, f"{pre}modules": n_sp}
        for name, least in floors.items():
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}, "
                                  f"got {getattr(self, name)}")
        check_alpha(self.alpha)
        if not 0.0 < self.lr < math.inf:
            raise ConfigError(f"lr must be a positive number, got {self.lr}")
        if not self.algorithm.startswith("baseline") and not (
                FILTER_RANGE[0] <= self.filters <= FILTER_RANGE[1]):
            raise ConfigError(f"filters must be in {list(FILTER_RANGE)}, "
                              f"got {self.filters}")
        if self.algorithm in ("cm", "cmsr", "cmtr"):
            errs = self.base_hyper().check()
            if errs:  # the hyperparameters' learning_rate is the config's lr
                raise ConfigError(errs[0].replace("learning_rate", "lr")
                                  + " is outside the search's range")
        if self.data_dir is None and self.synth_tasks < 1:
            raise ConfigError("need a data directory or synth parameters")
        if self.data_dir is None and not 0.0 <= self.synth_noise < 0.5:
            raise ConfigError(f"synth_noise must be in [0, 0.5), "
                              f"got {self.synth_noise}")
        if self.effective_image_side() < 1:
            raise ConfigError("the image side must be at least 1")
        if self.eval_subsample is not None and self.eval_subsample < 1:
            raise ConfigError("eval_subsample must be at least 1")
        if self.serve is not None:
            parse_addr(self.serve)

    def dataset_ref(self) -> DatasetRef:
        if self.data_dir is not None:
            return DirRef(self.data_dir, self.image_side, self.seed,
                          self.order_seed)
        return SynthRef(SynthParams(
            self.seed if self.synth_seed is None else self.synth_seed,
            self.synth_tasks, self.synth_classes, self.synth_side,
            self.synth_noise, self.examples_per_class), self.seed)

    def base_hyper(self) -> GlobalHyper:
        """The hyperparameter candidate a cm, cmsr or cmtr search starts
        from."""
        return GlobalHyper(
            learning_rate=self.lr, final_layer_filters=self.filters,
            k_modules=self.k_modules, depth=self.depth,
            depth_flags=(True,) * self.depth, sharing_mode=self.sharing_mode)

    def effective_image_side(self) -> int:
        return self.image_side if self.data_dir is not None else self.synth_side

    def module_counts(self) -> tuple[int, int]:
        if self.algorithm == "cmtr":
            return self.cmtr_modules, self.cmtr_species
        return self.modules, self.species


def check_alpha(alpha: float) -> None:
    """A new routing edge's post-softmax weight lies strictly inside
    (0, 1); ConfigError otherwise."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")


def parse_addr(addr: str) -> tuple[str, int]:
    """HOST:PORT as (host, port); ConfigError naming `addr` otherwise."""
    host, colon, port = addr.rpartition(":")
    if not (colon and port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ConfigError(f"address {addr!r} is not HOST:PORT")
    return host, int(port)


def resolve_config(profile: str | None = None, config_file: str | None = None,
                   overrides: dict | None = None) -> ExperimentConfig:
    """profile defaults < config-file values < explicit overrides, decoded
    and checked by `from_obj`; the file or the overrides must name the
    algorithm."""
    values = {}
    if config_file:
        try:
            with open(config_file) as f:
                values = canon_loads(f.read())
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}") from e
        except ParseError as e:
            raise ConfigError(f"config file {config_file}: {e}") from e
        if type(values) is not dict:
            raise ConfigError(f"config file {config_file} is not a JSON object")
    # an explicit --profile beats the file's; the file's beats the default
    prof = (profile or (overrides or {}).get("profile")
            or values.get("profile") or ExperimentConfig.profile)
    # a profile that is not a string loads nothing; from_obj rejects it
    merged = dict(PROFILES.get(str(prof), {}))
    merged.update(values)
    merged["profile"] = prof
    for key, val in (overrides or {}).items():
        if val is not None:
            merged[key] = val
    if "algorithm" not in merged:
        raise ConfigError("no algorithm: give --algorithm or a config file "
                          "that names one")
    try:
        return from_obj(ExperimentConfig, merged, "config")
    except ParseError as e:
        raise ConfigError(str(e)) from e
