import math

import pytest

from drivegen.config import PipelineConfig
from drivegen.scenario import Pose2D, Trajectory, VehicleState
from drivegen.synth import corpus_config_for_count, generate_synthetic_corpus
from drivegen.vocab import default_vocabulary


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
