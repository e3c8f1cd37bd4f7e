"""The batched planner kernel against its scalar oracle.

The oracle simulates each proposal on its own: its reference is built step by
step as below, rolled out with the scalar `oracle_rollout` in reactive mode
and scored with the scalar `oracle_submetrics`; the winner is the first
proposal of maximal score.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import drivegen.pipeline
from drivegen.batch import rollout_batch, select_leaders
from drivegen.config import PipelineConfig
from drivegen.expert import PlannerParams, _score_starts, privileged_plan, privileged_plans
from drivegen.geometry import PolylineOps, angle_diff, offset_polyline, polyline_ops
from drivegen.metrics import ALL_METRICS, SimContext, aggregate_epdms
from drivegen.pipeline import run_generation
from drivegen.reactive import IdmParams, StateBatch
from drivegen.scenario import (
    AgentTrack,
    Lane,
    MapModel,
    Pose2D,
    Scenario,
    TrafficLight,
    Trajectory,
    VehicleState,
)

from conftest import (
    make_state, plan_bits, scene_bits, start_frames, start_states, state_bits, sub_bits,
    winning_plans,
)
from oracle import (
    oracle_idm_accel, oracle_rollout, oracle_select_leader, oracle_submetrics, point_at,
)

BINARY = ("nc", "dac", "ddc", "tlc", "ttc", "lk", "hc", "ec")


def oracle_reference(scenario, start, lateral_offset, v_target, horizon, idm, limits):
    """One proposal's reference: the shifted route with an IDM speed profile."""
    if lateral_offset != 0.0:
        ops = PolylineOps(offset_polyline(scenario.map.route, lateral_offset))
    else:
        ops = polyline_ops(scenario.map.route)
    dt = scenario.dt
    s0, _, _ = ops.project(start.pose.x, start.pose.y)

    speeds = [start.vel_lon]
    for _ in range(horizon):
        v = speeds[-1]
        if v_target < 0.1:
            a = -idm.b_comf if v > 0.0 else 0.0
        else:
            a = oracle_idm_accel(v, None, IdmParams(
                v_desired=v_target, headway=idm.headway, s0=idm.s0,
                a_max=idm.a_max, b_comf=idm.b_comf, delta=idm.delta,
            ))
        speeds.append(max(0.0, v + dt * a))

    arcs = [s0]
    for k in range(horizon):
        arcs.append(arcs[-1] + dt * speeds[k])

    poses = [point_at(ops, s) for s in arcs]
    states = []
    for k in range(horizon + 1):
        x, y, heading = poses[k]
        if k < horizon:
            ds = max(1e-6, arcs[k + 1] - arcs[k])
            dtheta = angle_diff(poses[k + 1][2], heading)
            steering = math.atan(limits.wheelbase * dtheta / ds)
        else:
            steering = states[-1].steering
        steering = max(-limits.steer_max, min(limits.steer_max, steering))
        accel = (speeds[k + 1] - speeds[k]) / dt if k < horizon else 0.0
        states.append(VehicleState(Pose2D(x, y, heading), speeds[k], 0.0, accel, steering))
    return Trajectory(dt=dt, states=tuple(states))


def oracle_plan(scenario, t, p, ego_start=None, agent_init=None, ctx=None):
    """(references, rollouts, sub-metric vectors, scores, winner index) of the scalar loop."""
    ctx = ctx or SimContext()
    start = ego_start if ego_start is not None else scenario.ego_log[t]
    horizon = scenario.t_horizon
    refs, rollouts, subs, scores = [], [], [], []
    for frac in p.speed_fractions:
        for offset in p.lateral_offsets:
            ref = oracle_reference(
                scenario, start, offset, frac * ctx.idm.v_desired, horizon, ctx.idm, ctx.limits
            )
            states = oracle_rollout(scenario, ref, t, horizon, mode="reactive", ctx=ctx,
                                    ego_start=start, agent_init=agent_init)
            executed = Trajectory(dt=scenario.dt, states=states.ego)
            sub = oracle_submetrics(states, scenario, executed, ctx)
            refs.append(ref)
            rollouts.append(states)
            subs.append(sub)
            scores.append(aggregate_epdms(sub, ctx.weights))
    best = 0
    for i, score in enumerate(scores):
        if score > scores[best]:
            best = i
    return refs, rollouts, subs, scores, best


def _state_tuple(s):
    return (s.pose.x, s.pose.y, s.pose.theta, s.vel_lon, s.vel_lat, s.accel, s.steering)


def _bits(values):
    """Values as hex strings, so -0.0 and 0.0 differ."""
    return [float(v).hex() for v in values]


def check_against_oracle(
    scenario, t, p=None, ego_start=None, agent_init=None, ctx=None, states=False, plan=None
):
    """Assert the batched kernel equals the scalar oracle; returns the oracle's sub-metrics.

    `plan` is the planner's choice to check against the oracle's winner
    (default: `privileged_plan` of this start)."""
    p = p or PlannerParams()
    ego = StateBatch.full(ego_start if ego_start is not None else scenario.ego_log[t], 1)
    agents = {aid: StateBatch.full(s, 1) for aid, s in (agent_init or {}).items()}
    refs, _, sub, scores = _score_starts(scenario, t, ego, agents, p, ctx or SimContext())
    o_refs, o_rollouts, o_subs, o_scores, o_best = oracle_plan(
        scenario, t, p, ego_start, agent_init, ctx
    )
    for i, o_sub in enumerate(o_subs):
        row = dict(zip(ALL_METRICS, sub[i].tolist()))
        for name in BINARY:
            assert row[name] == getattr(o_sub, name), (scenario.id, t, i, name)
        assert float(row["ep"]).hex() == o_sub.ep.hex(), (scenario.id, t, i)
        assert scores[i] == o_scores[i], (scenario.id, t, i)
        got = refs.trajectory(i, scenario.dt)
        assert [_bits(_state_tuple(s)) for s in got.states] == [
            _bits(_state_tuple(s)) for s in o_refs[i].states
        ]
    if states:
        scene = rollout_batch(scenario, refs, t, scenario.t_horizon, ctx or SimContext(),
                              ego_start=ego_start, agent_init=agent_init)
        for i, o_states in enumerate(o_rollouts):
            ego = scene.ego.trajectory(i, scenario.dt)
            assert [_bits(_state_tuple(s)) for s in ego.states] == [
                _bits(_state_tuple(s)) for s in o_states.ego
            ]
            assert list(scene.agents) == list(o_states.agents)
            for aid, track in scene.agents.items():
                got = track.trajectory(i, scenario.dt)
                assert [_bits(_state_tuple(s)) for s in got.states] == [
                    _bits(_state_tuple(s)) for s in o_states.agents[aid]
                ]
    plan = plan or privileged_plan(scenario, t, p, ego_start, agent_init, ctx)
    assert plan_bits(plan) == (
        (scenario.dt, o_refs[o_best].frame, [state_bits(s) for s in o_refs[o_best].states]),
        scene_bits(o_rollouts[o_best]),
        sub_bits(o_subs[o_best]),
    ), (scenario.id, t, o_best)
    return o_subs


# --- hand-built scenes that the bundled templates never reach

N_FRAMES = 100  # t_history 20 + 2 * t_horizon 40
ROAD = tuple((x, 0.0) for x in range(-60, 401, 20))
SIDE_LANE = tuple((x, 3.5) for x, _ in ROAD)


def _track(x0, v, y=0.0, speed=None):
    """Constant-speed log along x; `speed` overrides the recorded vel_lon."""
    return tuple(
        make_state(x=x0 + v * 0.1 * k, y=y, v=v if speed is None else speed)
        for k in range(N_FRAMES)
    )


def _scene(scene_id, agents=(), lights=()):
    return Scenario(
        id=scene_id,
        map=MapModel(
            lanes=(Lane(polyline=ROAD, width=3.5, direction=1),
                   Lane(polyline=SIDE_LANE, width=3.5, direction=1)),
            drivable_area=(((-60.0, -2.5), (400.0, -2.5), (400.0, 5.5), (-60.0, 5.5)),),
            route=ROAD,
            traffic_lights=tuple(lights),
        ),
        ego_log=Trajectory(dt=0.1, states=_track(0.0, 10.0)),
        agents=tuple(agents),
        t_history=20,
        t_horizon=40,
    )


def _vehicle(agent_id, x0, v, y=0.0, kind="vehicle", speed=None):
    return AgentTrack(id=agent_id, length=4.5, width=1.9, kind=kind, states=_track(x0, v, y, speed))


# listed out of id order: the simulation steps agents in ascending id order
TWO_IN_LANE = _scene("two-in-lane", agents=(
    _vehicle("b-lead", 48.0, 5.0),
    _vehicle("a-follow", 34.0, 9.0),
    _vehicle("c-side", 20.0, 10.0, y=3.5),
))
# the two leaders of "z-back" start every window at the same spot with different
# speeds: the tie goes to the lower id
TIED_LEADERS = _scene("tied-leaders", agents=(
    _vehicle("z-back", 30.0, 9.0), _vehicle("m-twin", 45.0, 6.0, speed=4.0),
    _vehicle("k-twin", 45.0, 6.0, speed=7.0),
))
PARKED = _scene("parked", agents=(_vehicle("parked", 50.0, 0.0, kind="static"),))
RED_LIGHT = _scene("red-light", lights=(
    TrafficLight(
        stop_line=((50.0, -2.5), (50.0, 5.5)),
        phases=((0.0, 2.5, "green"), (2.5, 1e9, "red")),
    ),
))
EMPTY_ROAD = _scene("empty-road")
NON_DEFAULT_WORLD = PipelineConfig(ego_length=6.0, b_hard=2.0).sim_context


@pytest.mark.parametrize(
    "scenario", [TWO_IN_LANE, TIED_LEADERS, PARKED, RED_LIGHT], ids=lambda s: s.id
)
@pytest.mark.parametrize("ctx", [None, NON_DEFAULT_WORLD], ids=["default-world", "ego-6m-bhard-2"])
def test_hand_built_scene_matches_oracle(scenario, ctx):
    """Every proposal's ego and agent tracks equal `oracle_rollout` bit for
    bit, every sub-metric equals the scalar oracle's, and the winner is the
    oracle's, at the anchor and from a perturbed stage-2 start."""
    subs = check_against_oracle(scenario, scenario.anchor_frame, ctx=ctx, states=True)
    t2 = scenario.anchor_frame + scenario.t_horizon
    perturbed = make_state(
        x=scenario.ego_log[t2].pose.x - 3.0, y=0.6, theta=0.04, v=11.0, steering=0.02
    )
    agent_init = {a.id: replace(a.states[t2], vel_lat=0.1) for a in scenario.agents}
    subs += check_against_oracle(
        scenario, t2, ego_start=perturbed, agent_init=agent_init, ctx=ctx, states=True
    )
    # the scenes exercise what they are built for
    if scenario is PARKED:
        assert {s.nc for s in subs} == {0.0, 1.0}
    if scenario is RED_LIGHT:
        assert {s.tlc for s in subs} == {0.0, 1.0}


def test_planner_matches_the_scalar_oracle_with_several_agents(multi_agent_corpus):
    """On corpus scenes with a slower lead, a follower, a parked car and a
    close neighbour, six proposals from the anchor and from a perturbed
    second-stage start (agents a little faster than logged) equal the
    scalar oracle, tracks included, and the winner is the oracle's; some
    proposals hit an agent and some clear them all."""
    p = PlannerParams(speed_fractions=(0.5, 1.0), lateral_offsets=(-1.0, 0.0, 1.0))
    subs = []
    for s in multi_agent_corpus:
        subs += check_against_oracle(s, s.anchor_frame, p, states=True)
        t2 = s.anchor_frame + s.t_horizon
        logged = s.ego_log[t2]
        perturbed = replace(logged, vel_lon=0.9 * logged.vel_lon, steering=0.01)
        agent_init = {a.id: replace(a.states[t2], vel_lon=1.1 * a.states[t2].vel_lon)
                      for a in s.agents}
        subs += check_against_oracle(s, t2, p, perturbed, agent_init, states=True)
    assert {sub.nc for sub in subs} == {0.0, 1.0}
    assert sum(sub.nc == sub.ttc == 1.0 for sub in subs) >= 20


def test_each_planned_sample_keeps_its_own_winner():
    """Two samples planned in one call on a road without agents win at
    different proposals, the logged start by a three-way tie that goes to
    the first: each keeps the oracle's winner, not an argmax over all rows,
    and equals `privileged_plan` from its start alone. No sample, no plan."""
    t = EMPTY_ROAD.anchor_frame
    side_lane = make_state(x=EMPTY_ROAD.ego_log[t].pose.x + 10.0, y=3.5, v=3.0)
    starts = [(side_lane, {}), (EMPTY_ROAD.ego_log[t], {})]
    plans = winning_plans(privileged_plans(EMPTY_ROAD, t, *start_frames(starts)), EMPTY_ROAD.dt)
    winners = []
    for (ego_start, agent_init), plan in zip(starts, plans, strict=True):
        subs = check_against_oracle(
            EMPTY_ROAD, t, ego_start=ego_start, agent_init=agent_init, plan=plan
        )
        assert plan_bits(plan) == plan_bits(
            privileged_plan(EMPTY_ROAD, t, ego_start=ego_start, agent_init=agent_init)
        )
        scores = [aggregate_epdms(sub, SimContext().weights) for sub in subs]
        winners.append((scores.index(max(scores)), scores.count(max(scores))))
    assert winners == [(9, 1), (21, 3)]
    refs, scene, sub = privileged_plans(EMPTY_ROAD, t, *start_frames([]))
    horizon = EMPTY_ROAD.t_horizon
    assert refs.data.shape == scene.ego.data.shape == (7, 0, horizon + 1)
    assert (scene.t_start, scene.t_end, scene.agents) == (t, t + horizon, {})
    assert sub.shape == (0, len(ALL_METRICS))


def test_select_leaders_tie_goes_to_the_lower_id():
    """Two leaders at the same distance ahead: like `oracle_select_leader`,
    the kernel takes the one with the lower id (k-twin, the faster one here)."""
    states = {"z-back": (30.0, 9.0, 4.5), "m-twin": (45.0, 4.0, 4.5), "k-twin": (45.0, 7.0, 4.5),
              "ego": (0.0, 10.0, 4.6)}
    scalar = {aid: (make_state(x=x, v=v), length) for aid, (x, v, length) in states.items()}
    batch = {aid: (StateBatch.full(s, 3), length) for aid, (s, length) in scalar.items()}
    s_self, found, v_lead, gap = select_leaders(
        "z-back", batch, TIED_LEADERS.map.lanes, np.zeros(3, dtype=int)
    )
    assert found.tolist() == [True] * 3
    assert oracle_select_leader("z-back", scalar, TIED_LEADERS.map) == (7.0, 10.5)
    assert v_lead.tolist() == [7.0] * 3 and gap.tolist() == [10.5] * 3
    assert s_self.tolist() == [90.0] * 3


def test_planner_matches_the_scalar_oracle_on_a_generated_corpus(
    corpus_100, small_vocab, monkeypatch
):
    """Every sample that a planner-arm generation over 100 scenarios plans
    (stage-2 starts, perturbed ego and agents), plus a plan from each
    scenario's anchor, equals the scalar oracle proposal by proposal, and
    the plan the batched call chose for it is the oracle's winner."""
    config = PipelineConfig(
        vocab_size=256, vocab_source_count=2048, master_seed=11, expert_kind="planner",
        rounds=1, per_round=1,
    )
    real = drivegen.pipeline.privileged_plans
    calls = []

    def checked_plans(scenario, t, ego_start, agent_init, p=None, ctx=None):
        result = real(scenario, t, ego_start, agent_init, p, ctx)
        starts = start_states(ego_start, agent_init)
        for (ego, init), plan in zip(starts, winning_plans(result, scenario.dt), strict=True):
            calls.append(scenario.id)
            check_against_oracle(scenario, t, p, ego, init, ctx, plan=plan)
        return result

    monkeypatch.setattr(drivegen.pipeline, "privileged_plans", checked_plans)
    samples, _ = run_generation(corpus_100, config, vocab=small_vocab, workers=1)
    assert len(calls) >= 50 and samples
    for s in corpus_100:
        check_against_oracle(s, s.anchor_frame, config.planner, ctx=config.sim_context)
