"""Experiment configuration: strict JSON with fail-fast validation.

Every key is optional (defaults reproduce the stock desk-scale setup) but
unknown keys are hard errors, so a typo like "adversarail_ratio" aborts the
run instead of silently configuring nothing.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from . import attack as A
from . import data as D
from . import federated as F
from . import models as M


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


SHAPES = "shapes"
CIFAR10 = "cifar10"


@dataclass(frozen=True)
class DatasetConfig:
    kind: str = SHAPES
    path: str | None = None
    n_train: int = 400
    n_test: int = 120
    classes: int = 10
    size: int = 32

    def __post_init__(self):
        if self.kind not in (SHAPES, CIFAR10):
            raise ConfigError(f"dataset.kind must be {SHAPES!r} or {CIFAR10!r}, "
                              f"got {self.kind!r}")
        if self.kind == CIFAR10 and not self.path:
            raise ConfigError("dataset.path is required for cifar10")
        if self.n_train < 1 or self.n_test < 1:
            raise ConfigError("dataset.n_train and n_test must be >= 1")


@dataclass(frozen=True)
class ModelConfig:
    arch: str = "ARCH_A"
    capture: str = "conv3"

    def to_spec(self, input_size: int, classes: int) -> M.ModelSpec:
        return M.ModelSpec(arch=self.arch, input_size=input_size,
                           classes=classes, capture=self.capture)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 3
    lr: float = 0.05
    batch: int = 32

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("train.epochs must be >= 0")
        if self.lr <= 0:
            raise ConfigError("train.lr must be > 0")
        if self.batch < 1:
            raise ConfigError("train.batch must be >= 1")


@dataclass(frozen=True)
class FLSection:
    n_clients: int = 10
    select_k: int = 5
    local_epochs: int = 1
    lr: float = 0.05
    batch: int = 32
    rounds: int = 15
    adv_ratio: float = 0.3
    aggregator: str = F.FEDAVG
    trim_k: int = 1
    partition: str = D.IID
    root_size: int = 32
    pretrain_epochs: int = 0

    def __post_init__(self):
        if not 0.0 <= self.adv_ratio <= 1.0:
            raise ConfigError("fl.adv_ratio must be in [0, 1]")
        if self.rounds < 1:
            raise ConfigError("fl.rounds must be >= 1")
        if self.select_k < 1 or self.select_k > self.n_clients:
            raise ConfigError("fl.select_k must be in 1..n_clients")
        if self.aggregator not in F.AGGREGATORS:
            raise ConfigError(f"fl.aggregator must be one of {F.AGGREGATORS}")
        if self.aggregator == F.TRIMMED_MEAN and self.select_k <= 2 * self.trim_k:
            raise ConfigError(f"fl.select_k={self.select_k} must exceed "
                              f"2*trim_k={2 * self.trim_k} for trimmed_mean")
        if self.partition not in (D.IID, D.LABEL_SKEW):
            raise ConfigError(f"fl.partition must be {D.IID!r} or {D.LABEL_SKEW!r}")
        if self.root_size < 1:
            raise ConfigError("fl.root_size must be >= 1")
        if self.pretrain_epochs < 0:
            raise ConfigError("fl.pretrain_epochs must be >= 0")


@dataclass(frozen=True)
class GridConfig:
    hue: tuple = (0.0, 0.05, -0.05, 0.10, -0.10, 0.15, -0.15)
    alpha: tuple = (0.6, 0.8, 1.0, 1.2, 1.4)
    per_channel: bool = True
    gamma: tuple = (0.8, 1.0, 1.2)
    beta: tuple = (-0.1, 0.0, 0.1)
    composites: bool = True
    max_candidates: int = 500

    def to_grid(self) -> A.GridSpec:
        try:
            return A.GridSpec(hue=tuple(self.hue), alpha=tuple(self.alpha),
                              per_channel=self.per_channel,
                              gamma=tuple(self.gamma), beta=tuple(self.beta),
                              composites=self.composites,
                              max_candidates=self.max_candidates)
        except ValueError as e:
            raise ConfigError(f"grid: {e}") from e


@dataclass(frozen=True)
class MetricsConfig:
    probe_size: int = 100
    heatmap_dumps: int = 4

    def __post_init__(self):
        if self.probe_size < 1:
            raise ConfigError("metrics.probe_size must be >= 1")
        if self.heatmap_dumps < 0:
            raise ConfigError("metrics.heatmap_dumps must be >= 0")


@dataclass(frozen=True)
class AttackSection:
    n_samples: int = 64
    compare_samples: int = 200
    delta_e_tol: float = 2.0

    def __post_init__(self):
        if self.n_samples < 1 or self.compare_samples < 1:
            raise ConfigError("attack sample counts must be >= 1")
        if self.delta_e_tol <= 0:
            raise ConfigError("attack.delta_e_tol must be > 0")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    transfer_model: ModelConfig = field(default_factory=lambda: ModelConfig(arch="ARCH_B"))
    train: TrainConfig = field(default_factory=TrainConfig)
    fl: FLSection = field(default_factory=FLSection)
    grid: GridConfig = field(default_factory=GridConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    attack: AttackSection = field(default_factory=AttackSection)
    seed: int = 0
    out: str = "out"


_SECTIONS = {
    "dataset": DatasetConfig,
    "model": ModelConfig,
    "transfer_model": ModelConfig,
    "train": TrainConfig,
    "fl": FLSection,
    "grid": GridConfig,
    "metrics": MetricsConfig,
    "attack": AttackSection,
}


def _build(cls, section, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object, got {type(section).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(section) - names)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s): {', '.join(unknown)}")
    fixed = {k: tuple(v) if isinstance(v, list) else v for k, v in section.items()}
    return cls(**fixed)


def parse_config(doc: dict) -> ExperimentConfig:
    """Turn a parsed JSON document into a validated ExperimentConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(doc) - set(_SECTIONS) - {"seed", "out"})
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(unknown)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        if name in doc:
            kwargs[name] = _build(cls, doc[name], name)
    if "seed" in doc:
        seed = doc["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        kwargs["seed"] = seed
    if "out" in doc:
        if not isinstance(doc["out"], str) or not doc["out"]:
            raise ConfigError("out must be a non-empty path string")
        kwargs["out"] = doc["out"]
    return ExperimentConfig(**kwargs)


def load_config(path: str | None) -> ExperimentConfig:
    """Read a JSON config file; None gives the all-defaults config."""
    if path is None:
        return ExperimentConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    return parse_config(doc)


def override(cfg: ExperimentConfig, seed: int | None = None,
             out: str | None = None, limit: int | None = None) -> ExperimentConfig:
    """Apply CLI-level overrides on top of a loaded config."""
    if seed is not None:
        if seed < 0:
            raise ConfigError("--seed must be >= 0")
        cfg = dataclasses.replace(cfg, seed=seed)
    if out is not None:
        cfg = dataclasses.replace(cfg, out=out)
    if limit is not None:
        if limit < 1:
            raise ConfigError("--limit must be >= 1")
        ds = dataclasses.replace(cfg.dataset, n_train=min(cfg.dataset.n_train, limit))
        atk = dataclasses.replace(cfg.attack,
                                  n_samples=min(cfg.attack.n_samples, limit),
                                  compare_samples=min(cfg.attack.compare_samples, limit))
        cfg = dataclasses.replace(cfg, dataset=ds, attack=atk)
    return cfg
