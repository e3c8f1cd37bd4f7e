import math
import random

import numpy as np
import pytest

from drivegen.batch import _bicycle_step
from drivegen.control import (
    GAIN_DELTA_STEP,
    GAIN_V_STEP,
    LqrParams,
    VehicleLimits,
    _tracking_gain,
    lqr_track,
)
from drivegen.errors import RolloutError, ValidationError
from drivegen.reactive import StateBatch
from drivegen.scenario import FRAME_EGO_LOCAL, Trajectory

from conftest import make_state, state_bits, straight_trajectory
from oracle import (
    ControlInput, bicycle_step, finite_horizon_gain, oracle_lqr_track, oracle_tracking_gain,
    tracking_error,
)


# --- bicycle model: `batch._bicycle_step`, the package's one bicycle update


def _step(state, accel, steer_rate, dt, limits=None):
    """One `_bicycle_step` of a one-row batch, back as a `VehicleState`."""
    out = _bicycle_step(
        StateBatch.frame([state]), np.array([accel]), np.array([steer_rate]), dt,
        limits or VehicleLimits(),
    )
    return StateBatch(out.data[:, :, None]).states(0)[0]


def test_bicycle_straight_advance_exact():
    s = _step(make_state(v=10.0), 0.0, 0.0, dt=0.1)
    assert s.pose.x == 1.0
    assert s.pose.y == 0.0
    assert s.pose.theta == 0.0
    assert s.vel_lon == 10.0


def test_bicycle_no_reverse():
    s = _step(make_state(v=0.0), -2.0, 0.0, dt=0.1)
    assert s.vel_lon == 0.0
    assert s.pose.x == 0.0 and s.pose.y == 0.0


def test_bicycle_yaw_rate_formula():
    # oracle: yaw increment = dt * v * tan(delta) / wheelbase
    expected = 0.1 * 10.0 * math.tan(0.1) / 2.7
    lim = VehicleLimits(wheelbase=2.7)
    s = _step(make_state(v=10.0, steering=0.1), 0.0, 0.0, dt=0.1, limits=lim)
    assert s.pose.theta == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.03717, abs=1e-5)


def test_bicycle_clamps_steering_and_accel():
    lim = VehicleLimits()
    s = _step(make_state(v=5.0, steering=0.5), 99.0, 99.0, dt=0.1, limits=lim)
    assert s.steering <= lim.steer_max
    assert s.vel_lon == pytest.approx(5.0 + 0.1 * lim.accel_max)


@pytest.mark.parametrize("seed", [1, 2])
def test_bicycle_step_matches_the_scalar_oracle(seed):
    """Every row of one `_bicycle_step` call equals the scalar `bicycle_step`
    bit for bit: commands beyond `accel_max` and `steer_rate_max`, steering
    at and beyond +-`steer_max`, braking from v = 0, headings near +-pi and
    -0.0 inputs included."""
    rng = random.Random(seed)
    lim = VehicleLimits()
    steerings = [lim.steer_max, -lim.steer_max, 0.7, -0.9, -0.0, 0.0]
    states, accels, rates = [], [], []
    for i in range(400):
        states.append(make_state(
            x=rng.uniform(-50.0, 50.0), y=rng.uniform(-50.0, 50.0),
            theta=rng.choice([math.pi, -math.pi + 1e-9, -0.0, rng.uniform(-math.pi, math.pi)]),
            v=0.0 if i % 5 == 0 else rng.uniform(0.0, 20.0),
            steering=steerings[i % 8] if i % 8 < len(steerings) else rng.uniform(-0.6, 0.6),
        ))
        accels.append(rng.choice([-0.0, -9.0, 7.5, -lim.accel_max, rng.uniform(-4.0, 4.0)]))
        rates.append(rng.choice([-0.0, 2.0, -lim.steer_rate_max, rng.uniform(-1.0, 1.0)]))
    for dt in (0.1, 0.05):
        out = _bicycle_step(StateBatch.frame(states), np.array(accels), np.array(rates), dt, lim)
        got = StateBatch(out.data[:, :, None])
        for row, (state, accel, rate) in enumerate(zip(states, accels, rates)):
            want = bicycle_step(state, ControlInput(accel, rate), dt, lim)
            assert state_bits(got.states(row)[0]) == state_bits(want), (dt, row)


# --- Riccati


def test_scalar_riccati_closed_form():
    """The tracker's finite-horizon recursion on A = B = Q = R = 1 at the
    default horizon: P runs through ratios of Fibonacci numbers toward the
    golden ratio, so the gain lands on (sqrt(5) - 1) / 2."""
    one = np.eye(1)
    K = finite_horizon_gain(one, one, one, one, LqrParams().horizon)
    assert K[0, 0] == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-6)
    assert K[0, 0] == pytest.approx(0.6180, abs=1e-4)


def test_riccati_zero_state_cost():
    """With no state cost the recursion keeps P = 0, so every gain is 0."""
    K = _tracking_gain(np.array([0.0, 5.0, 12.5]), np.array([0.0, 0.0, 0.25]),
                       0.1, 2.7, (0.0, 0.0, 0.0, 0.0), (0.2, 0.2), 10)
    assert not K.any()


def test_riccati_requires_positive_definite_R():
    """R is the diagonal of the control weights, so a zero weight is refused."""
    with pytest.raises(ValidationError, match="control_weights must be positive"):
        LqrParams(control_weights=(0.2, 0.0))


# --- tracking


def test_lqr_track_on_reference_stays_exact():
    ref = straight_trajectory(v=10.0, n_states=41)
    out = lqr_track(ref, ref.states[0])
    assert len(out) == len(ref)
    assert out.frame == ref.frame
    for k in range(41):
        assert out.states[k] == ref.states[k]  # bit-exact replay


def test_lqr_track_lateral_offset_recovery():
    # oracle: closed-loop lateral error measured independently from output poses
    ref = straight_trajectory(v=10.0, n_states=41)
    start = make_state(x=0.0, y=0.5, v=10.0)
    out = lqr_track(ref, start)
    lat = [abs(s.pose.y) for s in out.states]
    assert lat[0] == pytest.approx(0.5)
    assert lat[-1] < 0.05  # converged within 4 s
    # decay: once under 1 m, error at k+10 is no larger than at k
    for k in range(len(lat) - 10):
        if lat[k] < 1.0:
            assert lat[k + 10] <= lat[k] + 1e-9


def test_lqr_track_clamped_reference_deviates_but_stays_consistent():
    # reference arc demands more steering than the clamp allows
    lim = VehicleLimits()
    dt = 0.1
    v = 10.0
    needed = lim.steer_max * 2.0
    states = [make_state(v=v, steering=needed)]
    theta = 0.0
    x = y = 0.0
    for _ in range(40):
        x += dt * v * math.cos(theta)
        y += dt * v * math.sin(theta)
        theta += dt * v * math.tan(needed) / lim.wheelbase
        states.append(make_state(x=x, y=y, theta=theta, v=v, steering=needed))
    ref = Trajectory(dt=dt, states=tuple(states))
    out = lqr_track(ref, ref.states[0])
    # every produced state respects the clamp; the start state is the caller's
    assert all(abs(s.steering) <= lim.steer_max + 1e-12 for s in out.states[1:])
    end_err = math.hypot(
        out.states[-1].pose.x - ref.states[-1].pose.x,
        out.states[-1].pose.y - ref.states[-1].pose.y,
    )
    assert end_err > 0.5
    # kinematic consistency of the executed trajectory
    for k in range(len(out) - 1):
        a, b = out.states[k], out.states[k + 1]
        d = math.hypot(b.pose.x - a.pose.x, b.pose.y - a.pose.y)
        assert abs(d / dt - a.vel_lon) <= 0.05


def test_lqr_track_deterministic():
    ref = straight_trajectory(v=8.0, n_states=30)
    start = make_state(x=0.0, y=0.3, theta=0.05, v=7.0)
    a = lqr_track(ref, start)
    b = lqr_track(ref, start)
    assert a == b


def test_tracking_error_frame_local():
    ref = make_state(x=5.0, y=3.0, theta=math.pi / 2, v=10.0)
    cur = make_state(x=4.0, y=3.0, theta=math.pi / 2, v=9.0)
    e_lat, e_theta, e_v, e_delta = tracking_error(cur, ref)
    # one meter to the left of a north-facing reference
    assert e_lat == pytest.approx(1.0)
    assert e_theta == pytest.approx(0.0)
    assert e_v == pytest.approx(-1.0)
    assert e_delta == pytest.approx(0.0)


def _track_bits(traj):
    return traj.dt, traj.frame, [state_bits(s) for s in traj.states]


def test_lqr_track_matches_the_scalar_oracle(corpus_100):
    """The one-row batched tracker equals `oracle_lqr_track` bit for bit: on
    each scenario's logged window from its own start (every step verbatim),
    from an off-reference start, as an ego-local reference whose frame tag
    is kept, and with non-default weights and limits."""
    tuned = (LqrParams(state_weights=(2.0, 1.0, 1.0, 0.5), horizon=6), VehicleLimits(wheelbase=3.1))
    verbatim = 0
    for s in corpus_100:
        anchor = s.anchor_frame
        ref = s.ego_log.segment(anchor, anchor + s.t_horizon)
        st = ref.states[0]
        off = make_state(x=st.pose.x - 0.4, y=st.pose.y + 0.7, theta=st.pose.theta + 0.05,
                         v=0.9 * st.vel_lon, steering=st.steering + 0.01)
        local = Trajectory(dt=ref.dt, states=ref.states, frame=FRAME_EGO_LOCAL)
        for reference, start, args in (
            (ref, st, ()), (ref, off, ()), (local, off, ()), (ref, off, tuned),
        ):
            got = lqr_track(reference, start, *args)
            assert _track_bits(got) == _track_bits(oracle_lqr_track(reference, start, *args)), s.id
        verbatim += lqr_track(ref, st) == ref
    assert verbatim >= 90  # the logged windows replay verbatim


def _gain_hex(K):
    return [float.hex(float(k)) for k in np.ravel(K)]


@pytest.mark.parametrize("setting", [
    (0.1, 2.7, (1.0, 2.0, 0.5, 0.1), (0.2, 0.2), 10),
    (0.05, 3.1, (2.0, 1.0, 1.0, 0.5), (0.3, 0.1), 6),
])
def test_gain_table_matches_the_scalar_gain(setting):
    """Every gain of the table's stacked Riccati solve equals the oracle's
    scalar solve of its key alone, bit for bit: over a dense key grid (v from
    0 to 30 m/s in gain steps, steering across +-steer_max in gain steps, -0.0
    keys included), at default and non-default dt, wheelbase, weights and
    horizon. A key's gain does not depend on the keys that share its solve."""
    v = np.arange(0.0, 30.0 + GAIN_V_STEP, GAIN_V_STEP)
    n = int(VehicleLimits().steer_max / GAIN_DELTA_STEP)
    delta = np.arange(-n, n + 1) * GAIN_DELTA_STEP
    v_keys, delta_keys = (a.ravel() for a in np.meshgrid(v, delta, indexing="ij"))
    v_keys = np.concatenate([v_keys, [-0.0, -0.0, 5.0]])
    delta_keys = np.concatenate([delta_keys, [0.0, -0.0, -0.0]])
    _tracking_gain.cache_clear()
    gains = _tracking_gain(v_keys, delta_keys, *setting)
    assert gains.shape == (len(v_keys), 2, 4)
    for vk, dk, K in zip(v_keys.tolist(), delta_keys.tolist(), gains):
        assert _gain_hex(K) == _gain_hex(oracle_tracking_gain(vk, dk, *setting)), (vk, dk)

    # a subset in reverse order, solved cold in one call of its own
    _tracking_gain.cache_clear()
    subset = slice(None, None, -7)
    again = _tracking_gain(v_keys[subset], delta_keys[subset], *setting)
    assert [_gain_hex(K) for K in again] == [_gain_hex(K) for K in gains[subset]]


def test_lqr_track_rejects_a_one_state_reference():
    ref = straight_trajectory(v=5.0, n_states=1)
    with pytest.raises(RolloutError, match="at least 2 states"):
        lqr_track(ref, ref.states[0])


@pytest.mark.parametrize("dt", [0.0, -0.1, math.nan])
def test_lqr_track_rejects_a_non_positive_dt(dt):
    ref = straight_trajectory(v=5.0, n_states=5, dt=dt)
    with pytest.raises(ValueError, match="dt must be positive"):
        lqr_track(ref, make_state(y=0.5, v=5.0))
