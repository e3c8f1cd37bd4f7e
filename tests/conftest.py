import math

import numpy as np
import pytest

from drivegen.config import PipelineConfig
from drivegen.geometry import global_to_local, wrap_angle
from drivegen.scenario import Pose2D, Trajectory, VehicleState
from drivegen.synth import corpus_config_for_count, generate_synthetic_corpus
from drivegen.vocab import STATUS_PENDING, PerturbationCandidate, default_vocabulary


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


def plan_candidate(scenario, plan: Trajectory, vocab_index: int = 0) -> PerturbationCandidate:
    """A pending candidate whose ego-local entry is the global `plan` taken
    relative to the scenario's anchor state, so the screen places it back
    onto the plan."""
    a = scenario.ego_log[scenario.anchor_frame].pose
    entry = np.array([
        (*global_to_local(s.pose.x, s.pose.y, a.x, a.y, a.theta),
         wrap_angle(s.pose.theta - a.theta), s.vel_lon, s.vel_lat, s.accel, s.steering)
        for s in plan.states
    ]).T
    return PerturbationCandidate((0.0, 0.0, 0.0), STATUS_PENDING, vocab_index, entry)


def state_bits(s: VehicleState) -> tuple[str, ...]:
    """A state's seven floats as hex strings, so -0.0 and 0.0 differ."""
    return tuple(
        float(v).hex()
        for v in (s.pose.x, s.pose.y, s.pose.theta, s.vel_lon, s.vel_lat, s.accel, s.steering)
    )


def scene_bits(states):
    """A simulated window (`SceneStates` or None) with every float as hex."""
    if states is None:
        return None
    return (
        states.dt, states.t_start, states.t_end,
        [state_bits(s) for s in states.ego],
        {aid: [state_bits(s) for s in track] for aid, track in states.agents.items()},
    )


def sub_bits(sub):
    """A `SubMetricVector` (or None) with every value as hex."""
    return None if sub is None else {k: v.hex() for k, v in sub.as_dict().items()}


def plan_bits(plan):
    """A planner `Plan` with every float as hex: its reference, its simulated
    window and its sub-metrics."""
    ref = plan.reference
    return (
        (ref.dt, ref.frame, [state_bits(s) for s in ref.states]),
        scene_bits(plan.states),
        sub_bits(plan.submetrics),
    )


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


@pytest.fixture(scope="session")
def benign_scenario(small_corpus):
    return small_corpus[0]  # straight template, no agents


@pytest.fixture(scope="session")
def small_vocab():
    return default_vocabulary(seed=3, horizon=40, dt=0.1, size=256, source_count=2048)


@pytest.fixture(scope="session")
def small_config():
    return PipelineConfig(vocab_size=256, vocab_source_count=2048, master_seed=11)
