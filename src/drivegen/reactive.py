"""Reactive environment: IDM-controlled agents responding to the ego.

A rollout executes the ego plan with the LQR tracker and advances every
vehicle agent with IDM longitudinal control plus pure-pursuit centerline
following. Agents update synchronously from the previous frame, in
ascending id order, so results are independent of scheduling. The engine is
`batch.rollout_batch`; `rollout` simulates one plan as its one row.

States live in arrays: a `StateBatch` stacks the seven state fields of P
rows, and a `SceneBatch` holds P simulated versions of one frame window. A
simulated window is a one-row `SceneBatch` from the screen to the export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

# `lqr_track` stays bound here: perfbench/tracer.py wraps it as `reactive.lqr_track`
from .control import lqr_track  # noqa: F401
from .errors import RolloutError, ValidationError
from .geometry import PolylineOps, PolylineSetOps, _cached_ops, per_element
from .scenario import FRAME_GLOBAL, Lane, Scenario, Trajectory

if TYPE_CHECKING:  # metrics imports this module, so the context type is annotation-only
    from .metrics import SimContext

MODE_REACTIVE = "reactive"
MODE_NONREACTIVE = "nonreactive"
MODE_LOG_REPLAY_EGO = "log-replay-ego"
MODES = (MODE_REACTIVE, MODE_NONREACTIVE, MODE_LOG_REPLAY_EGO)

DEFAULT_B_HARD = 4.0
PURE_PURSUIT_LOOKAHEAD = 8.0
LEADER_LOOKAHEAD = 100.0


@dataclass(frozen=True, slots=True)
class IdmParams:
    v_desired: float = 13.0
    headway: float = 1.5
    s0: float = 2.0
    a_max: float = 1.5
    b_comf: float = 2.0
    delta: float = 4.0

    def __post_init__(self):
        for name in ("v_desired", "a_max", "b_comf", "delta"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("headway", "s0"):
            if not getattr(self, name) >= 0:
                raise ValidationError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not 0.1 <= self.v_desired <= 100.0:
            raise ValidationError(f"v_desired must lie in [0.1, 100] m/s, got {self.v_desired}")
        if not self.delta <= 10.0:
            raise ValidationError(f"delta must be at most 10, got {self.delta}")


@dataclass(frozen=True, slots=True)
class StateBatch:
    """The seven state fields (x, y, theta, vel_lon, vel_lat, accel,
    steering) stacked on axis 0 of one array: (7, P) for one frame of P rows,
    (7, P, n) for P tracks of n frames."""

    data: np.ndarray

    x = property(lambda self: self.data[0])
    y = property(lambda self: self.data[1])
    theta = property(lambda self: self.data[2])
    v = property(lambda self: self.data[3])  # vel_lon
    v_lat = property(lambda self: self.data[4])
    accel = property(lambda self: self.data[5])
    steering = property(lambda self: self.data[6])

    @classmethod
    def of(cls, x, y, theta, v, v_lat, accel, steering) -> "StateBatch":
        return cls(np.stack([x, y, theta, v, v_lat, accel, steering]))

    @classmethod
    def full(cls, state: np.ndarray, rows: int) -> "StateBatch":
        """(7, rows): the (7,) `state` in every row."""
        return cls(np.repeat(np.asarray(state, dtype=float)[:, None], rows, axis=1))

    def at(self, k: int) -> "StateBatch":
        return StateBatch(self.data[:, :, k])


@dataclass(frozen=True, slots=True)
class SceneBatch:
    """P simulated versions of one frame window [t_start, t_end]: the ego and
    every agent, in ascending id order, as (7, P, n) tracks. One simulated
    window is its one-row scene."""

    dt: float
    t_start: int
    t_end: int
    ego: StateBatch
    agents: Mapping[str, StateBatch]

    def take(self, rows: Sequence[int] | slice) -> "SceneBatch":
        """The scene of the given rows, in their order; a slice keeps views."""
        return SceneBatch(
            self.dt,
            self.t_start,
            self.t_end,
            StateBatch(self.ego.data[:, rows]),
            {aid: StateBatch(t.data[:, rows]) for aid, t in self.agents.items()},
        )


def idm_accel(v, leader, p: IdmParams, b_hard: float):
    """IDM longitudinal acceleration, clamped to [-b_hard, a_max], of one
    speed (a float comes back) or of every element of an array of speeds.

    `leader` is (leader speed, bumper-to-bumper gap), floats or arrays, or
    None on a free road; an infinite gap is a free road too, its interaction
    term being 0.0. The terms are evaluated as with Python floats: both
    powers run per element through Python's `pow` (numpy's `x ** 2` can
    round differently), and the clamps keep Python's choice among equals.
    """
    v = np.asarray(v, dtype=float)
    v_lead, gap = leader if leader is not None else (v, math.inf)
    closing = v * p.headway + v * (v - v_lead) / (2.0 * math.sqrt(p.a_max * p.b_comf))
    s_star = p.s0 + np.where(closing > 0.0, closing, 0.0)
    base = np.stack(np.broadcast_arrays(v / p.v_desired, s_star / gap))
    exponent = np.empty_like(base)
    exponent[0], exponent[1] = p.delta, 2.0
    free, interaction = per_element(pow, base, exponent)
    a = p.a_max * (1.0 - free - interaction)
    capped = np.where(a < p.a_max, a, p.a_max)
    return np.where(capped > -b_hard, capped, -b_hard)[()]


def lane_centerline_ops(lane: Lane) -> PolylineOps:
    """Projection operator for the lane centerline in its travel direction."""
    return _cached_ops(
        lane,
        lambda l: PolylineOps(l.polyline if l.direction >= 0 else l.polyline[::-1]),
    )


def assign_lanes(xs: np.ndarray, ys: np.ndarray, lanes: Sequence[Lane]) -> np.ndarray:
    """Index of the lane whose centerline is closest to each point, the first
    on ties."""
    ops = _cached_ops(lanes, lambda ls: PolylineSetOps([l.polyline for l in ls]))
    return ops.nearest_many(xs, ys)


def check_window(scenario: Scenario, t_start: int, horizon: int) -> None:
    """Raise RolloutError unless [t_start, t_start + horizon] is a window of
    at least one step inside the scenario's frames."""
    if t_start < 0 or horizon < 1 or t_start + horizon > scenario.frame_count - 1:
        raise RolloutError(
            f"window [{t_start}, {t_start + horizon}] outside scenario frames "
            f"[0, {scenario.frame_count - 1}]"
        )


def rollout(
    scenario: Scenario,
    ego_plan: Trajectory,
    t_start: int,
    horizon: int,
    mode: str = MODE_REACTIVE,
    ctx: SimContext | None = None,
    ego_start: np.ndarray | None = None,
    agent_init: Mapping[str, np.ndarray] | None = None,
) -> SceneBatch:
    """Simulate a frame window [t_start, t_start + horizon] in the world of `ctx`.

    The ego executes `ego_plan` through the LQR tracker (or replays the log
    in log-replay-ego mode). Agents replay their logged tracks in nonreactive
    and log-replay-ego modes, and run IDM + pure pursuit in reactive mode.
    `ego_start` / `agent_init` optionally override the initial states, (7,)
    each, which is how the second simulation stage continues from perturbed
    states.
    Without `ctx` the defaults of SimContext apply. Returns the window as a
    one-row scene; the executing modes are one row of `batch.rollout_batch`.

    Deterministic: equal inputs give bitwise-equal outputs.
    """
    if mode not in MODES:
        raise RolloutError(f"unknown mode '{mode}'")
    if ego_plan.dt != scenario.dt:
        raise RolloutError(f"ego_plan dt {ego_plan.dt} does not match scenario dt {scenario.dt}")
    check_window(scenario, t_start, horizon)
    if mode == MODE_LOG_REPLAY_EGO:
        window = slice(t_start, t_start + horizon + 1)
        return SceneBatch(
            dt=scenario.dt,
            t_start=t_start,
            t_end=t_start + horizon,
            ego=StateBatch(scenario.ego_log.track[:, None, window]),
            agents={
                a.id: StateBatch(a.track[:, None, window])
                for a in sorted(scenario.agents, key=lambda a: a.id)
            },
        )

    if ego_plan.frame != FRAME_GLOBAL:
        raise RolloutError(f"ego_plan is in frame '{ego_plan.frame}', needs '{FRAME_GLOBAL}'")
    if len(ego_plan) < horizon + 1:
        raise RolloutError(f"ego_plan has {len(ego_plan)} states, needs at least {horizon + 1}")
    from .batch import rollout_batch  # batch imports this module
    from .metrics import SimContext

    return rollout_batch(
        scenario, StateBatch(ego_plan.track[:, None, : horizon + 1]), t_start, horizon,
        ctx or SimContext(), ego_start, agent_init, mode,
    )
