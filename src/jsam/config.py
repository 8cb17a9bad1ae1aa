"""Experiment configuration: nested dataclasses, strict JSON round-trip."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
from dataclasses import dataclass, field

from .costs import CostDistribution, TruncatedGaussianCosts, UniformCosts
from .flsim import TrainSettings, parse_mechanism
from .mechanism import ServerConfig


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass
class CostSpec:
    kind: str = "uniform"
    lower: float = 0.0
    upper: float = 1.0
    mean: float = 0.5
    std: float = 0.2

    def build(self) -> CostDistribution:
        if self.kind == "uniform":
            return UniformCosts(lower=self.lower, upper=self.upper)
        if self.kind == "gaussian":
            return TruncatedGaussianCosts(mean=self.mean, std=self.std,
                                          lower=self.lower, upper=self.upper)
        raise ConfigError(f"costs.kind must be uniform or gaussian, got {self.kind!r}")


@dataclass
class TaskSpec:
    feature_dim: int = 16
    classes: int = 5
    samples_per_client: int = 60
    test_size: int = 400

    @property
    def weight_dim(self) -> int:
        return self.classes * (self.feature_dim + 1)


@dataclass
class ServerSpec:
    eta: float = 1.0
    q_coefficient: float | None = None  # None: derive from the noise model
    grid_delta: float = 1e-3


@dataclass
class ExperimentConfig:
    clients: int = 100
    costs: CostSpec = field(default_factory=CostSpec)
    server: ServerSpec = field(default_factory=ServerSpec)
    train: TrainSettings = field(default_factory=TrainSettings)
    task: TaskSpec = field(default_factory=TaskSpec)
    mechanisms: list = field(default_factory=lambda: ["jsam"])
    seeds: list = field(default_factory=lambda: [0])
    eta_grid: list | None = None
    sensitivities: list | None = None
    payment_grid: int = 200
    out: str | None = None

    @functools.cached_property
    def prior(self) -> CostDistribution:
        """The cost prior, built once, by `validate`."""
        return self.costs.build()


# The desk-scale experiment: the scripts' default and acceptance criterion 7's.
DESK = {
    "clients": 10,
    "costs": {"kind": "uniform", "lower": 0.1, "upper": 1.0},
    "train": {"rounds": 150, "per_round": 5, "similarity": 30},
    "payment_grid": 100,
}


_NESTED = {"costs": CostSpec, "server": ServerSpec, "train": TrainSettings,
           "task": TaskSpec}


def from_dict(data: dict, **overrides) -> ExperimentConfig:
    """The validated config for `data`, whose top-level fields the `overrides`
    that are not None (a command's flags) replace first. Unknown keys and bad
    values are ConfigErrors naming their field."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    data = {**data, **{k: v for k, v in overrides.items() if v is not None}}
    cfg = _build(ExperimentConfig, data, path="")
    validate(cfg)
    return cfg


def _build(cls, data, path):
    names = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in names:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown field {where!r}")
        if key in _NESTED and path == "" and not isinstance(data[key], dict):
            raise ConfigError(f"field {key!r} must be an object")
    kwargs = {}
    for key, value in data.items():
        if path == "" and key in _NESTED:
            kwargs[key] = _build(_NESTED[key], value, key)
        else:
            kwargs[key] = value
    return cls(**kwargs)


def load(path, **overrides) -> ExperimentConfig:
    """Read a JSON config file and build it with `from_dict`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return from_dict(data, **overrides)


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


_INTEGER_FIELDS = ("clients", "payment_grid", "train.rounds", "train.per_round",
                   "train.similarity", "task.feature_dim", "task.classes",
                   "task.samples_per_client", "task.test_size")
_REAL_FIELDS = ("costs.lower", "costs.upper", "costs.mean", "costs.std",
                "server.eta", "server.grid_delta", "train.clip",
                "train.learning_rate", "train.delta", "train.c2")
# list field -> (element type, plural noun, may be null)
_LIST_FIELDS = {"seeds": (numbers.Integral, "integers", False),
                "mechanisms": (str, "strings", False),
                "eta_grid": (numbers.Real, "finite numbers", True),
                "sensitivities": (numbers.Real, "finite numbers", True)}


def _is(value, kind) -> bool:
    # JSON true/false parse to bool, which Python counts as an integer, and
    # JSON 1e999 parses to inf
    if isinstance(value, bool) or not isinstance(value, kind):
        return False
    return not isinstance(value, numbers.Real) or math.isfinite(value)


def _check_types(cfg: ExperimentConfig) -> None:
    """Each field holds the JSON type it needs, so later checks cannot raise TypeError."""
    for names, kind, noun in ((_INTEGER_FIELDS, numbers.Integral, "an integer"),
                              (_REAL_FIELDS, numbers.Real, "a finite number")):
        for name in names:
            value = functools.reduce(getattr, name.split("."), cfg)
            _require(_is(value, kind), f"{name} must be {noun}, got {value!r}")
    q = cfg.server.q_coefficient
    _require(q is None or _is(q, numbers.Real),
             f"server.q_coefficient must be a finite number or null, got {q!r}")
    for name, (kind, noun, nullable) in _LIST_FIELDS.items():
        value = getattr(cfg, name)
        _require((value is None and nullable)
                 or (isinstance(value, list) and all(_is(x, kind) for x in value)),
                 f"{name} must be a list of {noun}, got {value!r}")
    _require(isinstance(cfg.train.noiseless, bool),
             "train.noiseless must be true or false")
    _require(cfg.out is None or isinstance(cfg.out, str), "out must be a path string")


def _named(prefix, make):
    """make(), with a ValueError it raises re-raised as a ConfigError under `prefix`."""
    try:
        return make()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{prefix}: {exc}") from None


def validate(cfg: ExperimentConfig) -> None:
    """Raise a ConfigError naming the first bad field; ranges that the cost
    prior and `ServerConfig` check themselves are checked by building them."""
    _check_types(cfg)
    _require(cfg.clients >= 1, "clients must be an integer >= 1")
    _named("costs", lambda: cfg.prior)

    tr = cfg.train
    _require(tr.rounds >= 1, "train.rounds must be >= 1")
    _require(tr.per_round >= 1, "train.per_round must be >= 1")
    _require(tr.clip > 0, "train.clip must be > 0")
    _require(tr.learning_rate > 0, "train.learning_rate must be > 0")
    _require(0 < tr.delta < 1, "train.delta must lie in (0, 1)")
    _require(tr.c2 > 0, "train.c2 must be > 0")
    _require(0 <= tr.similarity <= 100, "train.similarity must lie in [0, 100]")

    task = cfg.task
    _require(task.classes >= 2, "task.classes must be >= 2")
    _require(task.feature_dim >= 1, "task.feature_dim must be >= 1")
    _require(task.samples_per_client >= 1, "task.samples_per_client must be >= 1")
    _require(task.test_size >= 1, "task.test_size must be >= 1")
    _named("server", lambda: server_config(cfg))

    _require(bool(cfg.mechanisms), "mechanisms must be nonempty")
    for name in cfg.mechanisms:
        _named("mechanisms", functools.partial(parse_mechanism, name))

    _require(bool(cfg.seeds), "seeds must be nonempty")
    for s in cfg.seeds:
        _require(s >= 0, "seeds must be integers >= 0")

    if cfg.eta_grid is not None:
        _require(bool(cfg.eta_grid), "eta_grid must be nonempty when given")
        for e in cfg.eta_grid:
            _require(e > 0, "eta_grid entries must be > 0")

    if cfg.sensitivities is not None:
        _require(len(cfg.sensitivities) == cfg.clients,
                 "sensitivities must list one value per client")
        for c in cfg.sensitivities:
            _require(cfg.costs.lower <= c <= cfg.costs.upper,
                     "sensitivities must lie in the cost support")

    _require(cfg.payment_grid >= 2, "payment_grid must be >= 2")


def server_config(cfg: ExperimentConfig, eta: float | None = None) -> ServerConfig:
    """Materialize the solver config, deriving an unset Q from the noise model,
    Q = 2*c2^2*ln(1/delta)*D*sqrt(T) with smoothness L = 1; `validate` checks
    the training and task fields it reads before it first calls this."""
    q = cfg.server.q_coefficient
    if q is None:
        tr = cfg.train
        q = (2.0 * tr.c2 ** 2 * math.log(1.0 / tr.delta) * cfg.task.weight_dim
             * math.sqrt(tr.rounds))
    return ServerConfig(eta=cfg.server.eta if eta is None else eta,
                        q_coefficient=q, grid_delta=cfg.server.grid_delta)
