import math
import random
from dataclasses import replace

import numpy as np
import pytest

from drivegen.control import VehicleLimits
from drivegen.errors import RolloutError, ValidationError
from drivegen.expert import (
    ExpertFilterSpec,
    PlannerParams,
    _matching_matrix,
    expert_filter,
    kinematic_limit_violation,
    privileged_plan,
    recovery_retrieve,
    recovery_targets,
)
from drivegen.metrics import (
    MetricWeights, SimContext, SubMetricVector, aggregate_epdms, compute_submetrics,
)
from drivegen.reactive import StateBatch, rollout
from drivegen.scenario import AgentTrack, Scenario, Trajectory
from drivegen.vocab import Vocabulary, synthesize_maneuvers

from conftest import (
    make_state, plan_bits, scene_bits, scene_states, shifted_plan, straight_trajectory,
)
from oracle import (
    ControlInput, SceneStates, bicycle_step, oracle_kinematic_limit_violation,
    oracle_matching_vector, oracle_rollout, oracle_submetrics,
)


# --- matching vectors


def matching_vector(traj):
    """The (6,) matching vector of one trajectory: its row of a one-entry bank."""
    return _matching_matrix(Vocabulary.of([traj]))[0]


def test_matching_vector_straight_example():
    # 4 s at 5 m/s: endpoint 20 m ahead in the start frame
    traj = straight_trajectory(v=5.0, n_states=41)
    v_x, v_y, theta0, x_end, y_end, theta_end = matching_vector(traj)
    assert v_x == pytest.approx(5.0)
    assert v_y == pytest.approx(0.0)
    assert theta0 == 0.0
    assert x_end == pytest.approx(20.0, abs=1e-9)
    assert y_end == pytest.approx(0.0, abs=1e-9)
    assert theta_end == pytest.approx(0.0, abs=1e-12)


def test_matching_vector_global_rotation_invariance():
    a = straight_trajectory(v=5.0, n_states=41, theta=0.0)
    b = straight_trajectory(v=5.0, n_states=41, theta=math.pi / 2)
    assert matching_vector(a) == pytest.approx(matching_vector(b), abs=1e-9)


def test_matching_vector_arc_against_scripted_extraction():
    # integrate an arc, then extract the endpoint with independent math
    dt, v, delta, L = 0.1, 8.0, 0.08, 2.7
    cur = make_state(v=v, steering=delta)
    states = [cur]
    for _ in range(40):
        cur = bicycle_step(cur, ControlInput(0.0, 0.0), dt, limits=VehicleLimits(wheelbase=L))
        states.append(cur)
    traj = Trajectory(dt=dt, states=tuple(states))
    *_, x_end, y_end, theta_end = matching_vector(traj)

    # oracle: scripted pose accumulation in the start frame
    x = y = theta = 0.0
    for _ in range(40):
        x += dt * v * math.cos(theta)
        y += dt * v * math.sin(theta)
        theta += dt * v * math.tan(delta) / L
    assert x_end == pytest.approx(x, abs=1e-9)
    assert y_end == pytest.approx(y, abs=1e-9)
    assert theta_end == pytest.approx(theta, abs=1e-9)


# --- retrieval


def _vocab(n=32, seed=0):
    return synthesize_maneuvers(n, 40, 0.1, seed)


def test_retrieve_exact_entry():
    vocab = _vocab(16)
    assert recovery_retrieve(matching_vector(vocab.entries[7]), vocab) == 7


def test_matching_matrix_matches_the_per_entry_vectors():
    """The bank's matching matrix, built from its first and last frames, is
    the scalar oracle's vectors bit for bit, also for entries that do not
    start at the origin."""
    rng = random.Random(5)
    shifted = [
        shifted_plan(straight_trajectory(rng.uniform(2, 12), 41, theta=rng.uniform(-3.1, 3.1)),
                     rng.uniform(-5, 5), 1.0)
        for _ in range(40)
    ]
    for vocab in (_vocab(64, seed=2), Vocabulary.of(shifted)):
        want = np.array([oracle_matching_vector(e) for e in vocab.entries])
        assert _matching_matrix(vocab).tobytes() == want.tobytes()


def test_recovery_targets_match_the_scalar_oracle():
    """The retrieval targets of a (7, P) start frame, read off in one array
    pass, are each start's matching vector toward the logged endpoint on
    Python floats, bit for bit, for headings all around the circle."""
    rng = random.Random(9)
    starts = StateBatch(np.array([
        [rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-math.pi, math.pi),
         rng.uniform(0, 15), rng.uniform(-0.5, 0.5), rng.uniform(-3, 3), rng.uniform(-0.5, 0.5)]
        for _ in range(200)
    ]).T)
    for end_theta in (0.0, 3.0, -3.1):
        logged_end = make_state(x=rng.uniform(-60, 60), y=rng.uniform(-60, 60), theta=end_theta)
        want = np.array([
            oracle_matching_vector(Trajectory(dt=0.1, states=(start, logged_end)))
            for start in StateBatch(starts.data[:, None]).states(0)
        ])
        assert recovery_targets(starts, logged_end).tobytes() == want.tobytes()


def test_retrieve_tie_breaks_to_lower_index():
    e = straight_trajectory(5.0, 41)
    vocab = Vocabulary.of([e, e])
    assert recovery_retrieve(matching_vector(e), vocab) == 0


def oracle_scan(t, entries) -> int:
    """Exhaustive linear scan with independently-written distance math, to
    the six values of a target `t`."""
    best_i, best_d = 0, float("inf")
    for i, e in enumerate(entries):
        s0, s_end = e.states[0], e.states[-1]
        c, s = math.cos(-s0.pose.theta), math.sin(-s0.pose.theta)
        dx, dy = s_end.pose.x - s0.pose.x, s_end.pose.y - s0.pose.y
        ex, ey = c * dx - s * dy, s * dx + c * dy
        eth = math.remainder(s_end.pose.theta - s0.pose.theta, 2 * math.pi)
        m = (s0.vel_lon, s0.vel_lat, 0.0, ex, ey, eth)
        d = 0.0
        for j in range(6):
            diff = m[j] - t[j]
            if j in (2, 5):
                diff = math.remainder(diff, 2 * math.pi)
            d += abs(diff)
        if d < best_d:
            best_i, best_d = i, d
    return best_i


def test_retrieval_matches_exhaustive_oracle_on_random_targets():
    vocab = _vocab(128, seed=4)
    entries = list(vocab.entries)
    rng = random.Random(17)
    for _ in range(300):
        target = np.array([
            rng.uniform(0, 15), 0.0, 0.0, rng.uniform(-10, 60), rng.uniform(-15, 15),
            rng.uniform(-1.0, 1.0),
        ])
        got = recovery_retrieve(target, vocab)
        assert got == oracle_scan(target, entries)


def test_retrieve_rejects_empty_vocab():
    with pytest.raises(ValidationError):
        Vocabulary.of([])


# --- privileged planner


def test_privileged_plan_empty_road_full_progress(benign_scenario):
    s = benign_scenario
    anchor = s.anchor_frame
    plan = privileged_plan(s, anchor)
    states = oracle_rollout(s, plan.reference, anchor, s.t_horizon, mode="reactive")
    executed = Trajectory(dt=s.dt, states=states.ego)
    sub = oracle_submetrics(states, s, executed)
    assert sub.nc == sub.dac == sub.ddc == sub.tlc == 1.0
    assert sub.ep == 1.0
    # the plan carries the rollout and sub-metrics that scored it
    assert scene_bits(plan.states) == scene_bits(states) and plan.submetrics == sub


def _straight_scenario(v: float, t_history=20, t_horizon=40, agents=()):
    from drivegen.scenario import Lane, MapModel, Trajectory as Traj

    n = t_history + 2 * t_horizon
    lane = ((-60.0, 0.0), (400.0, 0.0))
    return Scenario(
        id=f"straight-v{v:.0f}",
        map=MapModel(
            lanes=(Lane(polyline=lane, width=3.5, direction=1),),
            drivable_area=(((-60.0, -2.0), (400.0, -2.0), (400.0, 2.0), (-60.0, 2.0)),),
            route=lane,
            traffic_lights=(),
        ),
        ego_log=Traj(dt=0.1, states=tuple(make_state(x=v * 0.1 * k, v=v) for k in range(n))),
        agents=tuple(agents),
        t_history=t_history,
        t_horizon=t_horizon,
    )


def test_privileged_plan_blocked_lane_avoids_collision():
    # ego slow enough that comfortable braking stops well inside the gap
    v = 7.0
    n = 20 + 2 * 40
    anchor = 19
    stop_x = v * 0.1 * anchor + 15.0 + 0.5 * 4.5 + 0.5 * 4.6
    blocker = AgentTrack(
        id="stopped",
        length=4.5,
        width=1.9,
        kind="static",
        states=tuple(make_state(x=stop_x, v=0.0) for _ in range(n)),
    )
    s2 = _straight_scenario(v, agents=(blocker,))
    plan = privileged_plan(s2, anchor).reference
    states = SceneStates.of(rollout(s2, plan, anchor, s2.t_horizon, mode="reactive"))
    # oracle: re-check min gap between ego and blocker footprints over time
    from drivegen.geometry import OrientedBox
    from oracle import boxes_overlap

    for k in range(states.frame_count):
        e = states.ego[k]
        ebox = OrientedBox(e.pose.x, e.pose.y, e.pose.theta, 4.6, 1.9)
        b = states.agents["stopped"][k]
        bbox = OrientedBox(b.pose.x, b.pose.y, b.pose.theta, 4.5, 1.9)
        assert not boxes_overlap(ebox, bbox)


def test_privileged_plan_single_proposal_returned_verbatim(benign_scenario):
    s = benign_scenario
    p = PlannerParams(speed_fractions=(0.75,), lateral_offsets=(0.0,))
    plan = privileged_plan(s, s.anchor_frame, p)
    expected = privileged_plan(s, s.anchor_frame, p)
    assert plan_bits(plan) == plan_bits(expected)
    assert len(plan.reference) == s.t_horizon + 1


def test_privileged_plan_argmax_dominates_all_proposals(benign_scenario):
    s = benign_scenario
    anchor = s.anchor_frame
    p = PlannerParams(
        speed_fractions=(0.25, 0.75, 1.0), lateral_offsets=(-0.5, 0.0, 0.5)
    )
    best = privileged_plan(s, anchor, p).reference
    best_states = oracle_rollout(s, best, anchor, s.t_horizon, mode="reactive")
    best_score = aggregate_epdms(
        oracle_submetrics(best_states, s, Trajectory(dt=s.dt, states=best_states.ego)),
        MetricWeights(),
    )
    # re-score every proposal independently, with the scalar oracles
    for frac in p.speed_fractions:
        for off in p.lateral_offsets:
            single = PlannerParams(speed_fractions=(frac,), lateral_offsets=(off,))
            prop = privileged_plan(s, anchor, single).reference
            st = oracle_rollout(s, prop, anchor, s.t_horizon, mode="reactive")
            score = aggregate_epdms(
                oracle_submetrics(st, s, Trajectory(dt=s.dt, states=st.ego)), MetricWeights()
            )
            assert best_score >= score - 1e-12


def test_privileged_plan_window_error(benign_scenario):
    with pytest.raises(RolloutError, match=r"^window \[\d+, \d+\] outside scenario frames"):
        privileged_plan(benign_scenario, benign_scenario.frame_count - 3)


def test_planner_params_validation():
    with pytest.raises(ValidationError):
        PlannerParams(speed_fractions=())
    with pytest.raises(ValidationError):
        PlannerParams(speed_fractions=(1.5,))


# --- expert filter


def _stage2_setup(scenario):
    anchor = scenario.anchor_frame
    plan = scenario.ego_log.segment(anchor, anchor + scenario.t_horizon)
    return rollout(scenario, plan, anchor, scenario.t_horizon, mode="reactive")


def _judge(states, scenario, spec=ExpertFilterSpec(), ctx=SimContext()):
    """The filter's verdict on a window scored first in the world of `ctx`,
    comfort judged on its own ego track, as a caller does."""
    sub = compute_submetrics(states, scenario, states.ego.trajectory(0, states.dt), ctx)
    return expert_filter(states, sub, spec, ctx.limits)


def test_expert_filter_accepts_benign(benign_scenario):
    accepted, reason = _judge(_stage2_setup(benign_scenario), benign_scenario)
    assert accepted, reason


def test_expert_filter_ep_relaxation_bound(benign_scenario):
    s = benign_scenario
    anchor = s.anchor_frame
    # crawl forward: positive progress but well under half the logged progress
    v = s.ego_log[anchor].vel_lon
    start = s.ego_log[anchor]
    crawl = 0.35 * v
    n = s.t_horizon + 1
    states_list = tuple(
        make_state(x=start.pose.x + crawl * s.dt * k, v=crawl) for k in range(n)
    )
    states = scene_states(states_list, dt=s.dt, t_start=anchor).batch()
    traj = Trajectory(dt=s.dt, states=states_list)
    sub = compute_submetrics(states, s, traj)
    assert sub.ep == pytest.approx(0.35, abs=0.02)
    accepted, reason = expert_filter(states, sub, ExpertFilterSpec(ep_min=0.5), VehicleLimits())
    assert not accepted
    assert reason == "EP"


def test_expert_filter_kinematics_rejection(benign_scenario):
    s = benign_scenario
    anchor = s.anchor_frame
    start = s.ego_log[anchor]
    # almost-straight trajectory with one kink whose curvature exceeds
    # tan(steer_max)/wheelbase; progress stays high, only kinematics fail
    lim = VehicleLimits()
    curv = 2.0 * lim.max_curvature()
    v, dt = 10.0, s.dt
    n = s.t_horizon + 1
    x, y, theta = start.pose.x, start.pose.y, 0.0
    sts = []
    for k in range(n):
        sts.append(make_state(x=x, y=y, theta=theta, v=v))
        x += dt * v * math.cos(theta)
        y += dt * v * math.sin(theta)
        if k == 10:
            theta += dt * v * curv
    states = scene_states(sts, dt=dt, t_start=anchor).batch()
    assert kinematic_limit_violation(states.ego, dt, lim)
    assert oracle_kinematic_limit_violation(Trajectory(dt=dt, states=tuple(sts)), lim)
    # every sub-metric passes, so the kinematic check is the one that fires
    ones = SubMetricVector(*[1.0] * 9)
    accepted, reason = expert_filter(states, ones, ExpertFilterSpec(), lim)
    assert not accepted
    assert reason == "kinematics"


def test_expert_filter_scores_in_the_context_world(benign_scenario):
    """Scored first in the world of `ctx`, a lead car 5 m ahead (center to
    center) clears a 4.6 m ego and hits a 6.0 m one, and the filter says so."""
    s = benign_scenario
    lead = tuple(
        replace(st, pose=replace(st.pose, x=st.pose.x + 5.0 * math.cos(st.pose.theta),
                                 y=st.pose.y + 5.0 * math.sin(st.pose.theta)))
        for st in s.ego_log.states
    )
    s2 = replace(s, id="tailgate", agents=(AgentTrack("lead", 4.5, 1.9, "vehicle", lead),))
    anchor = s2.anchor_frame
    plan = s2.ego_log.segment(anchor, anchor + s2.t_horizon)
    states = rollout(s2, plan, anchor, s2.t_horizon, mode="nonreactive")
    assert _judge(states, s2) == (True, "")
    assert _judge(states, s2, ctx=SimContext(ego_length=6.0)) == (False, "nc")


def test_expert_filter_guarantee_property(benign_scenario, small_vocab, small_config):
    """Anything accepted has all penalties at 1 and EP above the bound."""
    states = _stage2_setup(benign_scenario)
    sub = compute_submetrics(states, benign_scenario, states.ego.trajectory(0, states.dt))
    accepted, _ = expert_filter(states, sub, ExpertFilterSpec(), VehicleLimits())
    if accepted:
        assert sub.nc == sub.dac == sub.ddc == sub.tlc == 1.0
        assert sub.ep > 0.5


def test_kinematic_gate_matches_the_scalar_oracle():
    """The array kinematic gate of a one-row ego track gives the scalar
    loop's verdict on random tracks whose steps bend and accelerate around
    the limits, some of them too short (5 cm or less) to judge curvature."""
    rng = random.Random(23)
    lim, dt = VehicleLimits(), 0.1
    verdicts = []
    for _ in range(400):
        x = y = 0.0
        theta, v = rng.uniform(-math.pi, math.pi), rng.choice([0.3, rng.uniform(0.0, 15.0)])
        sts = []
        for _ in range(41):
            sts.append(make_state(x=x, y=y, theta=theta, v=v))
            step = dt * v
            x, y = x + step * math.cos(theta), y + step * math.sin(theta)
            theta += step * lim.max_curvature() * rng.uniform(-1.01, 1.01) ** 9
            v = max(0.0, v + dt * lim.accel_max * rng.uniform(-1.01, 1.01) ** 9)
        want = oracle_kinematic_limit_violation(Trajectory(dt=dt, states=tuple(sts)), lim)
        got = kinematic_limit_violation(StateBatch.track(sts), dt, lim)
        assert got is want
        verdicts.append(want)
    assert 50 <= sum(verdicts) <= 350, sum(verdicts)
