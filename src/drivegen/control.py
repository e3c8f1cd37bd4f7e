"""Kinematic bicycle model and the LQR tracking controller.

The ego executes planned trajectories via error-state LQR feedback around a
per-step linearization of the bicycle model. The tracker itself is
`batch._lqr_track_batch`; `lqr_track` runs one reference through it, and
this module supplies its gains. All functions here are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RiccatiError, RolloutError, ValidationError
from .geometry import wrap_angle
from .scenario import Pose2D, Trajectory, VehicleState

# Actuation and geometry defaults; all overridable through VehicleLimits.
DEFAULT_WHEELBASE = 2.7
DEFAULT_ACCEL_MAX = 3.0
DEFAULT_STEER_MAX = 0.55
DEFAULT_STEER_RATE_MAX = 0.5


@dataclass(frozen=True, slots=True)
class ControlInput:
    accel: float  # m/s^2
    steer_rate: float  # rad/s


@dataclass(frozen=True, slots=True)
class VehicleLimits:
    wheelbase: float = DEFAULT_WHEELBASE
    accel_max: float = DEFAULT_ACCEL_MAX
    steer_max: float = DEFAULT_STEER_MAX
    steer_rate_max: float = DEFAULT_STEER_RATE_MAX

    def __post_init__(self):
        if not self.wheelbase > 0:
            raise ValidationError("wheelbase must be positive")

    def max_curvature(self) -> float:
        return math.tan(self.steer_max) / self.wheelbase


@dataclass(frozen=True, slots=True)
class LqrParams:
    """Weights for the error state (lateral, heading, speed, steering)."""

    state_weights: tuple[float, float, float, float] = (1.0, 2.0, 0.5, 0.1)
    control_weights: tuple[float, float] = (0.2, 0.2)
    horizon: int = 10

    def __post_init__(self):
        if self.horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {self.horizon}")
        if any(not w >= 0 for w in self.state_weights):
            raise ValidationError(
                f"state_weights must be non-negative, got {list(self.state_weights)}"
            )
        if any(not w > 0 for w in self.control_weights):
            raise ValidationError(
                f"control_weights must be positive, got {list(self.control_weights)}"
            )


def _clamp(v: float, lo: float, hi: float) -> float:
    return lo if v < lo else (hi if v > hi else v)


def bicycle_step(
    state: VehicleState,
    u: ControlInput,
    dt: float,
    limits: VehicleLimits | None = None,
) -> VehicleState:
    """Forward-Euler kinematic bicycle update.

    Speed is clamped to be nonnegative (no reverse), steering to the
    configured maximum, and theta is renormalized. Commands are clamped,
    never rejected.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    lim = limits or VehicleLimits()

    accel = _clamp(u.accel, -lim.accel_max, lim.accel_max)
    steer_rate = _clamp(u.steer_rate, -lim.steer_rate_max, lim.steer_rate_max)

    v = state.vel_lon
    theta = state.pose.theta
    delta = _clamp(state.steering, -lim.steer_max, lim.steer_max)

    x = state.pose.x + dt * v * math.cos(theta)
    y = state.pose.y + dt * v * math.sin(theta)
    new_theta = wrap_angle(theta + dt * v * math.tan(delta) / lim.wheelbase)
    new_v = max(0.0, v + dt * accel)
    new_delta = _clamp(delta + dt * steer_rate, -lim.steer_max, lim.steer_max)

    applied_accel = (new_v - v) / dt  # differs from the command only at the v=0 clamp
    return VehicleState(
        pose=Pose2D(x, y, new_theta),
        vel_lon=new_v,
        vel_lat=0.0,
        accel=applied_accel,
        steering=new_delta,
    )


# ---------------------------------------------------------------------------
# Riccati solvers


def riccati_residual(P: np.ndarray, A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray) -> float:
    BtPB = R + B.T @ P @ B
    nxt = A.T @ P @ A - A.T @ P @ B @ np.linalg.solve(BtPB, B.T @ P @ A) + Q
    return float(np.max(np.abs(nxt - P)))


def solve_lqr_gain(
    A: np.ndarray,
    B: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> np.ndarray:
    """Gain K from the discrete algebraic Riccati equation.

    Solved by fixed-point iteration from P = Q; raises RiccatiError with the
    final residual if it does not converge.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if np.any(np.linalg.eigvalsh(R) <= 0):
        raise ValueError("R must be positive definite")

    P = Q.copy()
    diff = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(max_iter):
            BtPB = R + B.T @ P @ B
            K = np.linalg.solve(BtPB, B.T @ P @ A)
            P_next = A.T @ P @ (A - B @ K) + Q
            if not np.all(np.isfinite(P_next)):
                raise RiccatiError(residual=diff, iterations=it)
            diff = float(np.max(np.abs(P_next - P)))
            P = P_next
            if diff < tol:
                return np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    raise RiccatiError(residual=riccati_residual(P, A, B, Q, R), iterations=max_iter)


def finite_horizon_gain(
    A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray, horizon: int
) -> np.ndarray:
    """First-step gain of the finite-horizon backward Riccati recursion."""
    P = Q.copy()
    K = np.zeros((B.shape[1], A.shape[0]))
    for _ in range(horizon):
        BtPB = R + B.T @ P @ B
        K = np.linalg.solve(BtPB, B.T @ P @ A)
        P = Q + A.T @ P @ (A - B @ K)
    return K


# Gain-schedule quantization: gains vary smoothly in (v, delta), so keying
# the cache on a coarse grid changes nothing discernible and makes the
# per-step lookup O(1) in practice. Both steps are exact powers of two.
GAIN_V_STEP = 0.25
GAIN_DELTA_STEP = 0.0078125


@lru_cache(maxsize=16384)
def _tracking_gain(
    v_ref: float,
    delta_ref: float,
    dt: float,
    wheelbase: float,
    state_weights: tuple[float, float, float, float],
    control_weights: tuple[float, float],
    horizon: int,
) -> tuple[tuple[float, ...], ...]:
    """Feedback gain for the error state, linearized about one reference step.

    Error state: (lateral offset, heading error, speed error, steering error);
    controls: (accel delta, steer-rate delta).
    """
    sec2 = 1.0 / (math.cos(delta_ref) ** 2)
    A = np.array(
        [
            [1.0, dt * v_ref, 0.0, 0.0],
            [0.0, 1.0, dt * math.tan(delta_ref) / wheelbase, dt * v_ref * sec2 / wheelbase],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    B = np.array([[0.0, 0.0], [0.0, 0.0], [dt, 0.0], [0.0, dt]])
    Q = np.diag(state_weights).astype(float)
    R = np.diag(control_weights).astype(float)
    K = finite_horizon_gain(A, B, Q, R, horizon)
    return tuple(tuple(row) for row in K)


def lqr_track(
    reference: Trajectory,
    start: VehicleState,
    params: LqrParams | None = None,
    limits: VehicleLimits | None = None,
) -> Trajectory:
    """Execute a reference trajectory with error-state LQR feedback.

    The output has the same length and frame tag as the reference. When the
    error state is exactly zero and the next reference state respects the
    actuator limits, that state is taken verbatim: this is the exact
    feedforward solution and keeps log replay bit-identical. One row of
    `batch._lqr_track_batch`.
    """
    from .batch import _lqr_track_batch  # batch imports this module
    from .reactive import StateBatch

    if len(reference) < 2:
        raise RolloutError("reference must contain at least 2 states")
    if not reference.dt > 0:
        raise ValueError("dt must be positive")
    track = _lqr_track_batch(
        StateBatch.track(reference.states), StateBatch.frame([start]), len(reference) - 1,
        reference.dt, params or LqrParams(), limits or VehicleLimits(),
    )
    return Trajectory(dt=reference.dt, states=track.states(0), frame=reference.frame)
