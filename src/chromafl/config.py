"""Experiment configuration: strict JSON with fail-fast validation.

Every key is optional (defaults reproduce the stock desk-scale setup) but
unknown keys are hard errors, so a typo like "adversarail_ratio" aborts the
run instead of silently configuring nothing.

The top-level keys are ``ExperimentConfig``'s fields; a field whose default
is a dataclass is a section, built from its JSON object in field order.
The ``grid`` and ``fl`` sections are the library's own parameter objects,
``attack.GridSpec`` and ``federated.FLConfig``, so each setting has one
definition and one set of checks.  Every section is built by ``_build``,
which rejects values of the wrong JSON type (a field's default names the
type) and non-finite numbers, stores numbers given for float fields as
floats, and turns a section's ``ValueError`` into
``ConfigError("<section>: …")``.  ``ExperimentConfig`` owns the top-level
rules: it checks ``seed`` and ``out`` however a config is made (parsed,
overridden from the CLI, or ``dataclasses.replace``d), then builds the
``model`` and ``transfer_model`` specs at the dataset's image size and class
count, so a model section that does not fit fails the same way, whichever
command runs.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from . import attack as A
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
            raise ValueError(f"kind must be {SHAPES!r} or {CIFAR10!r}, "
                             f"got {self.kind!r}")
        if self.kind == CIFAR10 and not self.path:
            raise ValueError("path is required for cifar10")
        if self.kind == SHAPES and self.path is not None:
            raise ValueError(f"path is read only for {CIFAR10}; kind is {SHAPES!r}")
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_train and n_test must be >= 1")
        if self.kind == SHAPES:
            if self.size < 16:
                raise ValueError(f"size must be >= 16 for shapes, got {self.size}")
            if not 2 <= self.classes <= 10:
                raise ValueError(f"classes must be in 2..10 for shapes, got {self.classes}")
        elif (self.size, self.classes) != (32, 10):
            raise ValueError("cifar10 images are 32x32 in 10 classes: size must "
                             f"be 32 and classes 10, got {self.size} and {self.classes}")


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
            raise ValueError("epochs must be >= 0")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")


@dataclass(frozen=True)
class MetricsConfig:
    probe_size: int = 100
    heatmap_dumps: int = 4

    def __post_init__(self):
        if self.probe_size < 1:
            raise ValueError("probe_size must be >= 1")
        if self.heatmap_dumps < 0:
            raise ValueError("heatmap_dumps must be >= 0")


@dataclass(frozen=True)
class AttackSection:
    n_samples: int = 64
    compare_samples: int = 120
    delta_e_tol: float = 2.0

    def __post_init__(self):
        if self.n_samples < 1 or self.compare_samples < 1:
            raise ValueError("n_samples and compare_samples must be >= 1")
        if self.delta_e_tol <= 0:
            raise ValueError("delta_e_tol must be > 0")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    transfer_model: ModelConfig = field(default_factory=lambda: ModelConfig(arch="ARCH_B"))
    train: TrainConfig = field(default_factory=TrainConfig)
    fl: F.FLConfig = field(default_factory=F.FLConfig)
    grid: A.GridSpec = field(default_factory=A.GridSpec)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    attack: AttackSection = field(default_factory=AttackSection)
    seed: int = 0
    out: str = "out"

    def __post_init__(self):
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if not isinstance(self.out, str) or not self.out:
            raise ConfigError("out must be a non-empty path string")
        for name in ("model", "transfer_model"):
            try:
                getattr(self, name).to_spec(self.dataset.size, self.dataset.classes)
            except ValueError as e:
                raise ConfigError(f"{name}: {e}") from e


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _as_float(key: str, v) -> float:
    """A JSON number as a float; ``NaN``, ``±Infinity`` and overflow are errors."""
    try:
        f = float(v)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise ValueError(f"{key} must be finite, got {v!r}")
    return f


# a field's default names the JSON type it accepts and how the value is
# stored: numbers for float fields become finite floats, lists become tuples
_JSON_TYPES = (
    (bool, "true or false", lambda v: isinstance(v, bool), None),
    (int, "an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), None),
    (float, "a number", _is_number, _as_float),
    (str, "a string", lambda v: isinstance(v, str), None),
    (type(None), "a string or null", lambda v: v is None or isinstance(v, str), None),
    (tuple, "a list of numbers",
     lambda v: isinstance(v, list) and all(_is_number(x) for x in v),
     lambda key, v: tuple(_as_float(key, x) for x in v)),
)


def _checked(key: str, value, default):
    """``value`` as its field stores it, if it has the JSON type of ``default``."""
    for kind, expected, accepts, convert in _JSON_TYPES:
        if isinstance(default, kind):
            if not accepts(value):
                raise ValueError(f"{key} must be {expected}, got {value!r}")
            return convert(key, value) if convert else value
    return value


def _build(cls, section, where: str):
    """Build one section; its own checks turn into ``ConfigError("<where>: …")``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object, got {type(section).__name__}")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = sorted(set(section) - set(defaults))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s): {', '.join(unknown)}")
    try:
        return cls(**{k: _checked(k, v, defaults[k]) for k, v in section.items()})
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


def parse_config(doc: dict) -> ExperimentConfig:
    """Turn a parsed JSON document into a validated ExperimentConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    defaults = vars(ExperimentConfig())  # every field at its default, in field order
    unknown = sorted(set(doc) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(unknown)}")
    return ExperimentConfig(**{
        name: _build(type(default), doc[name], name)
        if dataclasses.is_dataclass(default) else doc[name]
        for name, default in defaults.items() if name in doc})


def load_config(path: str | None) -> ExperimentConfig:
    """Read a JSON config file; None gives the all-defaults config."""
    if path is None:
        return ExperimentConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except OSError as e:  # a directory, no read permission
        raise ConfigError(f"{path}: cannot read config file: {e.strerror}") from e
    except ValueError as e:  # bad syntax, bad UTF-8, an integer too long to parse
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    return parse_config(doc)


def override(cfg: ExperimentConfig, seed: int | None = None,
             out: str | None = None, limit: int | None = None) -> ExperimentConfig:
    """Apply CLI-level overrides on top of a loaded config."""
    if seed is not None:
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
