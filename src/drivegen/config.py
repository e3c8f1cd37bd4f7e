"""One config object for the whole generation pipeline.

Every tunable of every module lives here, serialized as a single JSON file.
The config hash is the SHA-256 of the canonical serialization (sorted keys),
so it is stable under key reordering.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cached_property
from pathlib import Path
from types import UnionType
from typing import Any, get_args, get_origin, get_type_hints

from .control import LqrParams, VehicleLimits
from .errors import ConfigError, SchemaError, ValidationError
from .expert import EXPERT_KINDS, ExpertFilterSpec, PlannerParams
from .metrics import MetricThresholds, MetricWeights, SimContext
from .reactive import DEFAULT_B_HARD, IdmParams
from .scenario import (
    DEFAULT_EGO_LENGTH, DEFAULT_EGO_WIDTH, MAX_MAGNITUDE, _number, dump_json_canonical,
)
from .vocab import GridSpec, PerturbThresholds


@dataclass(frozen=True)
class CameraConfig:
    id: str
    dx: float
    dy: float
    dyaw: float
    intrinsics: dict[str, int | float] = field(default_factory=dict)


def default_camera_rig() -> tuple[CameraConfig, ...]:
    intr = {"fx": 1545.0, "fy": 1545.0, "cx": 1024.0, "cy": 256.0, "width": 2048, "height": 512}
    return (
        CameraConfig("cam_f0", 1.7, 0.0, 0.0, dict(intr)),
        CameraConfig("cam_l0", 1.2, 0.9, 0.96, dict(intr)),
        CameraConfig("cam_r0", 1.2, -0.9, -0.96, dict(intr)),
    )


@dataclass(frozen=True)
class PipelineConfig:
    master_seed: int = 0
    rounds: int = 5
    per_round: int | None = None  # None: ceil(cleared / rounds)
    reactive: bool = True
    expert_kind: str = "recovery"
    ego_length: float = DEFAULT_EGO_LENGTH
    ego_width: float = DEFAULT_EGO_WIDTH
    b_hard: float = DEFAULT_B_HARD
    vocab_size: int = 1024
    vocab_source_count: int = 16384
    perturb: PerturbThresholds = field(default_factory=PerturbThresholds)
    grid: GridSpec = field(default_factory=GridSpec)
    idm: IdmParams = field(default_factory=IdmParams)
    lqr: LqrParams = field(default_factory=LqrParams)
    limits: VehicleLimits = field(default_factory=VehicleLimits)
    weights: MetricWeights = field(default_factory=MetricWeights)
    metric_thresholds: MetricThresholds = field(default_factory=MetricThresholds)
    expert_filter: ExpertFilterSpec = field(default_factory=ExpertFilterSpec)
    planner: PlannerParams = field(default_factory=PlannerParams)
    cameras: tuple[CameraConfig, ...] = field(default_factory=default_camera_rig)

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if self.per_round is not None and self.per_round < 1:
            raise ConfigError("per_round must be >= 1 when set")
        if self.expert_kind not in EXPERT_KINDS:
            raise ConfigError(f"expert_kind must be one of {EXPERT_KINDS}")
        if self.ego_length <= 0 or self.ego_width <= 0:
            raise ConfigError("ego extent must be positive")
        if self.vocab_size < 1 or self.vocab_source_count < self.vocab_size:
            raise ConfigError("vocab_source_count must be >= vocab_size >= 1")
        if not (0 <= self.master_seed < 2**64):
            raise ConfigError("master_seed must fit in 64 bits")

    @cached_property
    def sim_context(self) -> SimContext:
        """The one simulated world of a run with this config."""
        return SimContext(
            idm=self.idm,
            lqr=self.lqr,
            limits=self.limits,
            b_hard=self.b_hard,
            ego_length=self.ego_length,
            ego_width=self.ego_width,
            thresholds=self.metric_thresholds,
            weights=self.weights,
        )


def config_to_dict(obj: Any) -> Any:
    """A config, or any value in it, as JSON data; sets are written sorted."""
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, tuple):
        return [config_to_dict(v) for v in obj]
    if is_dataclass(obj):
        return {f.name: config_to_dict(getattr(obj, f.name)) for f in fields(obj)}
    return obj


def _read(tp: Any, value: Any, where: str) -> Any:
    """A JSON value as an instance of the field annotation `tp`; ConfigError naming `where`.

    A float is finite, of magnitude at most `scenario.MAX_MAGNITUDE` as in
    input files, and not subnormal, so that no positive setting is so small
    that dividing by it overflows.
    """
    if is_dataclass(tp):
        return _read_dataclass(tp, value, where)
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:
        for arm in args:
            try:
                return _read(arm, value, where)
            except ConfigError:
                pass
        raise ConfigError(f"{where}: expected {tp}, got {value!r}")
    if tp is float:
        try:
            value = _number(value, where, bound=MAX_MAGNITUDE)
        except SchemaError as e:
            raise ConfigError(str(e)) from e
        if 0.0 < abs(value) < sys.float_info.min:
            raise ConfigError(f"{where}: subnormal number: {value!r}")
        return value
    if origin in (tuple, frozenset):
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected an array")
        if origin is frozenset or args[-1] is Ellipsis:
            args = args[:1] * len(value)
        if len(value) != len(args):
            raise ConfigError(f"{where}: expected {len(args)} values, got {len(value)}")
        return origin(_read(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(args, value)))
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{where}: expected an object")
        return {k: _read(args[1], v, f"{where}.{k}") for k, v in value.items()}
    if type(value) is not tp:
        raise ConfigError(f"{where}: expected {tp.__name__}, got {value!r}")
    return value


def _read_dataclass(cls: type, data: Any, where: str) -> Any:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    known = fields(cls)
    unknown = data.keys() - {f.name for f in known}
    if unknown:
        raise ConfigError(f"{where}: unknown key '{sorted(unknown)[0]}'")
    types = get_type_hints(cls)
    kwargs = {}
    for f in known:
        if f.name in data:
            kwargs[f.name] = _read(types[f.name], data[f.name], f"{where}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where}: missing key '{f.name}'")
    try:
        return cls(**kwargs)
    except (ConfigError, ValidationError) as e:
        raise ConfigError(f"{where}: {e}") from e


def config_from_dict(data: Any) -> PipelineConfig:
    """The config a JSON object describes, read by the types of the fields it sets."""
    return _read_dataclass(PipelineConfig, data, "config")


def config_hash(config: PipelineConfig) -> str:
    canonical = dump_json_canonical(config_to_dict(config))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_config(path: str | Path) -> PipelineConfig:
    import json

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: malformed JSON: {e}") from e
    return config_from_dict(data)


def save_config(config: PipelineConfig, path: str | Path) -> None:
    Path(path).write_text(dump_json_canonical(config_to_dict(config)), encoding="utf-8")
