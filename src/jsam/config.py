"""Experiment configuration: nested dataclasses, strict JSON round-trip."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import typing
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
    grid_delta: float = 1e-3  # range-checked, unread: see `ServerConfig`


@dataclass
class ExperimentConfig:
    clients: int = 100
    costs: CostSpec = field(default_factory=CostSpec)
    server: ServerSpec = field(default_factory=ServerSpec)
    train: TrainSettings = field(default_factory=TrainSettings)
    task: TaskSpec = field(default_factory=TaskSpec)
    mechanisms: list[str] = field(default_factory=lambda: ["jsam"])
    seeds: list[int] = field(default_factory=lambda: [0])
    eta_grid: list[float] | None = None
    sensitivities: list[float] | None = None
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


def from_dict(data: dict, **overrides) -> ExperimentConfig:
    """The validated config for `data`, whose top-level fields the `overrides`
    that are not None (a command's flags) replace first. Unknown keys and bad
    values are ConfigErrors naming their field."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    data = {**data, **{k: v for k, v in overrides.items() if v is not None}}
    cfg = _build(ExperimentConfig, data)
    validate(cfg)
    return cfg


def _build(cls, data, path=""):
    """The dataclass `cls` built from the JSON object `data`, each value checked,
    in declaration order, against the type its field declares; `path` is the
    dotted prefix that names the fields of `data` in messages."""
    hints = _hints(cls)
    for key in data:
        if key not in hints:
            raise ConfigError(f"unknown field {path + key!r}")
    kwargs = {}
    for key, hint in hints.items():
        if key not in data:
            continue
        value = data[key]
        if dataclasses.is_dataclass(hint):
            if not isinstance(value, dict):
                raise ConfigError(f"field {path + key!r} must be an object")
            kwargs[key] = _build(hint, value, f"{path}{key}.")
        else:
            noun, fits = _json_type(hint)
            _require(fits(value), f"{path}{key} must be {noun}, got {value!r}")
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


def _is(value, kind) -> bool:
    # JSON true/false parse to bool, which Python counts as an integer, JSON
    # 1e999 parses to inf, and an integer literal may lie beyond float range
    if isinstance(value, bool) or not isinstance(value, kind):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_hints = functools.cache(typing.get_type_hints)

# declared scalar type -> (noun, plural noun, test) of the JSON values it takes
_SCALARS = {
    bool: ("true or false", "booleans", lambda v: isinstance(v, bool)),
    int: ("an integer", "integers", lambda v: _is(v, numbers.Integral)),
    float: ("a finite number", "finite numbers", lambda v: _is(v, numbers.Real)),
    str: ("a string", "strings", lambda v: isinstance(v, str)),
}


def _json_type(hint):
    """(noun, test) of the JSON values that a field declared `hint` takes:
    a scalar, `list[scalar]`, or either as `X | None`."""
    args = typing.get_args(hint)
    if type(None) in args:
        noun, fits = _json_type(args[0])
        return f"{noun} or null", lambda v: v is None or fits(v)
    if typing.get_origin(hint) is list:
        _, plural, fits = _SCALARS[args[0]]
        return (f"a list of {plural}",
                lambda v: isinstance(v, list) and all(map(fits, v)))
    noun, _, fits = _SCALARS[hint]
    return noun, fits


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
        _, subset = _named("mechanisms", functools.partial(parse_mechanism, name))
        _require(subset is None or subset <= cfg.clients,
                 "mechanisms: fsbm subset larger than the client count")

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
