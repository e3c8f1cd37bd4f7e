"""Vehicle limits and the LQR tracking controller.

The ego executes planned trajectories via error-state LQR feedback around a
per-step linearization of the kinematic bicycle, whose one update is
`batch._bicycle_step`. The tracker itself is `batch._lqr_track_batch`;
`lqr_track` runs one reference through it, and this module supplies its
gains, solved for a call's new keys in one stacked Riccati recursion and
kept in a per-process table (the one impure part).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import RolloutError, ValidationError
from .geometry import distinct
from .scenario import Trajectory, VehicleState

# Actuation and geometry defaults; all overridable through VehicleLimits.
DEFAULT_WHEELBASE = 2.7
DEFAULT_ACCEL_MAX = 3.0
DEFAULT_STEER_MAX = 0.55
DEFAULT_STEER_RATE_MAX = 0.5


@dataclass(frozen=True, slots=True)
class VehicleLimits:
    wheelbase: float = DEFAULT_WHEELBASE
    accel_max: float = DEFAULT_ACCEL_MAX
    steer_max: float = DEFAULT_STEER_MAX
    steer_rate_max: float = DEFAULT_STEER_RATE_MAX

    def __post_init__(self):
        if not self.wheelbase > 0:
            raise ValidationError("wheelbase must be positive")
        if not 0.5 <= self.wheelbase <= 20.0:
            raise ValidationError(f"wheelbase must lie in [0.5, 20] m, got {self.wheelbase}")

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


# Gain-schedule quantization: gains vary smoothly in (v, delta), so the table
# keys them on a coarse grid, which bounds the solves; both steps are powers of two.
GAIN_V_STEP = 0.25
GAIN_DELTA_STEP = 0.0078125

_GainInfo = namedtuple("GainInfo", "hits misses maxsize currsize")


def _solve_gains(keys, dt, wheelbase, state_weights, control_weights, horizon) -> np.ndarray:
    """(n, 2, 4) first-step gains of the finite-horizon backward Riccati
    recursion, linearized about each (v_ref, delta_ref) key, for the error
    state (lateral offset, heading, speed, steering) and the controls (accel,
    steer rate). The n recursions run stacked, each product and solve on the
    operands and layout of one 2-D recursion, so each gain is bit for bit
    that of its key solved alone."""
    A = np.repeat(np.eye(4)[None], len(keys), axis=0)
    A[:, 0, 1] = [dt * v for v, _ in keys]
    A[:, 1, 2] = [dt * math.tan(d) / wheelbase for _, d in keys]
    A[:, 1, 3] = [dt * v * (1.0 / (math.cos(d) ** 2)) / wheelbase for v, d in keys]
    B = np.array([[0.0, 0.0], [0.0, 0.0], [dt, 0.0], [0.0, dt]])
    Q = np.diag(state_weights).astype(float)
    R = np.diag(control_weights).astype(float)
    P = np.repeat(Q[None], len(keys), axis=0)
    for _ in range(horizon):
        BtP = B.T @ P
        K = np.linalg.solve(R + BtP @ B, BtP @ A)
        P = Q + np.swapaxes(A, 1, 2) @ P @ (A - B @ K)
    return K


class _GainTable:
    """The gains this process has solved, by tracker setting and quantized
    (v_ref, delta_ref) key; `cache_info` counts hits and misses per distinct
    key of a call, as on an `lru_cache`."""

    def __init__(self):
        self.cache_clear()

    def cache_clear(self) -> None:
        self._gains, self._hits, self._misses = {}, 0, 0

    def cache_info(self) -> _GainInfo:
        return _GainInfo(self._hits, self._misses, None, sum(map(len, self._gains.values())))

    def __call__(self, v_ref, delta_ref, *setting) -> np.ndarray:
        """(*v_ref.shape, 2, 4) gains of equal-shaped key arrays at `setting`
        (dt, wheelbase, state and control weights, horizon); the keys new to
        the table are solved in one `_solve_gains` call."""
        gains = self._gains.setdefault(setting, {})
        # distinct keys as v + i delta; + 0.0 turns a -0.0 into the 0.0 it equals
        unique, inverse = distinct(np.ravel(v_ref) + 1j * np.ravel(delta_ref))
        keys = list(zip((unique.real + 0.0).tolist(), (unique.imag + 0.0).tolist()))
        new = [key for key in keys if key not in gains]
        if new:
            gains.update(zip(new, _solve_gains(new, *setting)))
        self._hits += len(keys) - len(new)
        self._misses += len(new)
        K = np.array([gains[key] for key in keys]).reshape(-1, 2, 4)[inverse.reshape(-1)]
        return K.reshape(np.shape(v_ref) + (2, 4))


_tracking_gain = _GainTable()


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
