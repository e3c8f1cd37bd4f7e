"""Kinematic bicycle model and the LQR tracking controller.

The ego executes planned trajectories via error-state LQR feedback around a
per-step linearization of the bicycle model. All functions here are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RiccatiError, RolloutError, ValidationError
from .geometry import angle_diff, global_to_local, wrap_angle
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


def _quantize(value: float, step: float) -> float:
    return round(value / step) * step


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


def tracking_error(state: VehicleState, ref: VehicleState) -> tuple[float, float, float, float]:
    """Error state of `state` relative to `ref`, in the reference frame."""
    _, e_lat = global_to_local(
        state.pose.x, state.pose.y, ref.pose.x, ref.pose.y, ref.pose.theta
    )
    e_theta = angle_diff(state.pose.theta, ref.pose.theta)
    e_v = state.vel_lon - ref.vel_lon
    e_delta = state.steering - ref.steering
    return (e_lat, e_theta, e_v, e_delta)


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
    feedforward solution and keeps log replay bit-identical.
    """
    if params is None:
        params = LqrParams()
    if len(reference) < 2:
        raise RolloutError("reference must contain at least 2 states")
    lim = limits or VehicleLimits()
    dt = reference.dt

    out = [start]
    cur = start
    n = len(reference)
    for k in range(n - 1):
        ref_k = reference[k]
        ref_next = reference[k + 1]
        err = tracking_error(cur, ref_k)
        if (
            err == (0.0, 0.0, 0.0, 0.0)
            and cur.pose == ref_k.pose
            and abs(ref_next.steering) <= lim.steer_max
            and ref_next.vel_lon >= 0.0
        ):
            cur = ref_next
            out.append(cur)
            continue

        K = _tracking_gain(
            _quantize(ref_k.vel_lon, GAIN_V_STEP),
            _quantize(ref_k.steering, GAIN_DELTA_STEP),
            dt,
            lim.wheelbase,
            params.state_weights,
            params.control_weights,
            params.horizon,
        )
        # feedforward from reference finite differences
        a_ff = (ref_next.vel_lon - ref_k.vel_lon) / dt
        sr_ff = (ref_next.steering - ref_k.steering) / dt
        a_fb = -(K[0][0] * err[0] + K[0][1] * err[1] + K[0][2] * err[2] + K[0][3] * err[3])
        sr_fb = -(K[1][0] * err[0] + K[1][1] * err[1] + K[1][2] * err[2] + K[1][3] * err[3])
        u = ControlInput(accel=a_ff + a_fb, steer_rate=sr_ff + sr_fb)
        cur = bicycle_step(cur, u, dt, lim)
        out.append(cur)

    return Trajectory(dt=dt, states=tuple(out), frame=reference.frame)
