import math
from dataclasses import replace

import numpy as np
import pytest

from drivegen.config import PipelineConfig
from drivegen.expert import Plan
from drivegen.geometry import global_to_local, offset_polyline, polyline_ops, wrap_angle
from drivegen.metrics import ALL_METRICS, SubMetricVector
from drivegen.reactive import SceneBatch, StateBatch
from drivegen.scenario import AgentTrack, Lane, Pose2D, Trajectory, VehicleState
from drivegen.synth import TEMPLATES, corpus_config_for_count, generate_synthetic_corpus
from drivegen.vocab import default_vocabulary

from oracle import SceneStates


def make_state(x=0.0, y=0.0, theta=0.0, v=0.0, steering=0.0, accel=0.0):
    return VehicleState(
        pose=Pose2D(x, y, theta), vel_lon=v, vel_lat=0.0, accel=accel, steering=steering
    )


def straight_trajectory(v: float, n_states: int, dt: float = 0.1, theta: float = 0.0):
    """Constant-speed straight line; exactly consistent with the bicycle model."""
    states = []
    for k in range(n_states):
        states.append(
            make_state(x=v * k * dt * math.cos(theta), y=v * k * dt * math.sin(theta),
                       theta=theta, v=v)
        )
    return Trajectory(dt=dt, states=tuple(states))


def plan_entry(scenario, plan: Trajectory) -> np.ndarray:
    """The (7, n) ego-local bank row of the global `plan` taken relative to
    the scenario's anchor state, so the screen places it back onto the plan."""
    a = scenario.ego_log[scenario.anchor_frame].pose
    return np.array([
        (*global_to_local(s.pose.x, s.pose.y, a.x, a.y, a.theta),
         wrap_angle(s.pose.theta - a.theta), s.vel_lon, s.vel_lat, s.accel, s.steering)
        for s in plan.states
    ]).T


def state_bits(s: VehicleState) -> tuple[str, ...]:
    """A state's seven floats as hex strings, so -0.0 and 0.0 differ."""
    return tuple(
        float(v).hex()
        for v in (s.pose.x, s.pose.y, s.pose.theta, s.vel_lon, s.vel_lat, s.accel, s.steering)
    )


def scene_states(ego, agents=None, dt=0.1, t_start=0):
    """The `SceneStates` of a window from the ego's states and each agent's,
    by id; its `batch()` is the package's one-row scene of it."""
    return SceneStates(
        dt, t_start, t_start + len(ego) - 1, tuple(ego),
        {aid: tuple(track) for aid, track in (agents or {}).items()},
    )


def scene_bits(scene):
    """A simulated window (a one-row `SceneBatch`, a `SceneStates` or None)
    with every float as hex."""
    if scene is None:
        return None
    if isinstance(scene, SceneBatch):
        assert scene.ego.data.shape[1] == 1, "a simulated window is one row"
        scene = SceneStates.of(scene)
    return (
        scene.dt, scene.t_start, scene.t_end,
        [state_bits(s) for s in scene.ego],
        {aid: [state_bits(s) for s in track] for aid, track in scene.agents.items()},
    )


def sub_bits(sub):
    """Sub-metrics, a `SubMetricVector` or a row in `ALL_METRICS` order (or
    None), with every value as hex."""
    if sub is None:
        return None
    values = sub.tolist() if isinstance(sub, np.ndarray) else sub.as_dict().values()
    return dict(zip(ALL_METRICS, map(float.hex, values)))


def plan_bits(plan):
    """A planner `Plan` with every float as hex: its reference, its simulated
    window and its sub-metrics."""
    ref = plan.reference
    return (
        (ref.dt, ref.frame, [state_bits(s) for s in ref.states]),
        scene_bits(plan.states),
        sub_bits(plan.submetrics),
    )


def start_frames(starts):
    """The (7, S) ego and per-agent start frames of S planning starts, each
    an (ego state, {agent id: state}) pair; every start names the same agents."""
    if not starts:
        return StateBatch(np.empty((7, 0))), {}
    ego = StateBatch.frame([e for e, _ in starts])
    return ego, {aid: StateBatch.frame([init[aid] for _, init in starts]) for aid in starts[0][1]}


def start_states(ego_start, agent_init):
    """The planning starts of (7, S) ego and per-agent start frames, as
    (ego state, {agent id: state}) pairs."""
    agents = {aid: StateBatch(f.data[:, None]).states(0) for aid, f in agent_init.items()}
    return [
        (ego, {aid: states[j] for aid, states in agents.items()})
        for j, ego in enumerate(StateBatch(ego_start.data[:, None]).states(0))
    ]


def winning_plans(result, dt):
    """The `Plan` of each start of a `privileged_plans` result."""
    refs, scene, sub = result
    return [
        Plan(refs.trajectory(j, dt), scene.take([j]), SubMetricVector(*row))
        for j, row in enumerate(sub.tolist())
    ]


def shifted_plan(plan: Trajectory, lateral: float, speed: float) -> Trajectory:
    """The plan moved `lateral` m to its left, with its speeds and
    accelerations scaled by `speed`."""
    return Trajectory(dt=plan.dt, frame=plan.frame, states=tuple(
        VehicleState(
            Pose2D(s.pose.x - lateral * math.sin(s.pose.theta),
                   s.pose.y + lateral * math.cos(s.pose.theta), s.pose.theta),
            speed * s.vel_lon, s.vel_lat, speed * s.accel, s.steering,
        )
        for s in plan.states
    ))


@pytest.fixture(scope="session")
def small_corpus():
    return generate_synthetic_corpus(corpus_config_for_count(5), seed=7)


@pytest.fixture(scope="session")
def corpus_100():
    return generate_synthetic_corpus(corpus_config_for_count(100), seed=2026)


def route_track(scenario, agent_id, ahead, speed_factor, lateral=0.0, kind="vehicle"):
    """A 4.5 m agent along the scenario's route, `lateral` m to its left:
    `ahead` m ahead of the ego's first logged position (behind if negative)
    and at `speed_factor` times the ego's first logged speed throughout."""
    ops = polyline_ops(scenario.map.route)
    first = scenario.ego_log[0]
    speed = speed_factor * first.vel_lon
    s0 = ops.project(first.pose.x, first.pose.y)[0] + ahead
    arcs = s0 + speed * scenario.dt * np.arange(scenario.frame_count)
    states = tuple(
        make_state(x=x - lateral * math.sin(h), y=y + lateral * math.cos(h), theta=h, v=speed)
        for x, y, h in zip(*(a.tolist() for a in ops.point_at_many(arcs)))
    )
    return AgentTrack(agent_id, 4.5, 1.9, kind, states)


@pytest.fixture(scope="session")
def multi_agent_corpus(corpus_100):
    """The first scene of each corpus template with four agents added along
    its route: a slower lead, a follower whose nearest leader is the ego, a
    car parked at the right edge of the lane and a neighbour driving close
    alongside on the left, in a left lane (added where the template has
    none) that keeps it from merging. Ego plans that stray sideways hit the
    parked car or the neighbour; plans that keep their lane clear them."""
    crowded = []
    for s in (next(s for s in corpus_100 if s.id.startswith(t)) for t in TEMPLATES):
        lanes = s.map.lanes
        if not s.id.startswith("cut-in"):  # a left lane for the neighbour to keep
            lanes += (Lane(offset_polyline(s.map.route, lanes[0].width), lanes[0].width, 1),)
        crowded.append(replace(
            s, id=f"{s.id}-crowded", map=replace(s.map, lanes=lanes), agents=s.agents + (
                route_track(s, "f-follower", -16.0, 1.0),
                route_track(s, "m-slow-lead", 40.0, 0.8),
                route_track(s, "n-neighbour", 3.0, 1.0, lateral=3.2),
                route_track(s, "p-parked", 60.0, 0.0, lateral=-2.9, kind="static"),
            ),
        ))
    return crowded


@pytest.fixture(scope="session")
def benign_scenario(small_corpus):
    return small_corpus[0]  # straight template, no agents


@pytest.fixture(scope="session")
def small_vocab():
    return default_vocabulary(seed=3, horizon=40, dt=0.1, size=256, source_count=2048)


@pytest.fixture(scope="session")
def small_config():
    return PipelineConfig(vocab_size=256, vocab_source_count=2048, master_seed=11)
