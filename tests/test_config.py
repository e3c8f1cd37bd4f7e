import json
import types
from dataclasses import fields, replace

import pytest

import drivegen

from drivegen.config import (
    CameraConfig,
    PipelineConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    save_config,
)
from drivegen.control import LqrParams
from drivegen.errors import ConfigError
from drivegen.expert import ExpertFilterSpec, PlannerParams


def test_config_roundtrip_through_dict():
    config = PipelineConfig(master_seed=5, rounds=3, expert_kind="planner")
    again = config_from_dict(config_to_dict(config))
    assert again == config


def test_config_hash_stable_under_key_reordering(tmp_path):
    config = PipelineConfig(master_seed=9)
    d = config_to_dict(config)
    shuffled = {k: d[k] for k in sorted(d.keys(), reverse=True)}
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    p1.write_text(json.dumps(d))
    p2.write_text(json.dumps(shuffled))
    assert config_hash(load_config(p1)) == config_hash(load_config(p2))
    assert config_hash(load_config(p1)) == config_hash(config)


def test_config_hash_changes_with_values():
    a = PipelineConfig(master_seed=1)
    b = PipelineConfig(master_seed=2)
    assert config_hash(a) != config_hash(b)


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="mystery"):
        config_from_dict({"mystery": 1})
    with pytest.raises(ConfigError, match="idm.*typo|typo"):
        config_from_dict({"idm": {"typo": 3.0}})


def test_config_invariants_checked():
    with pytest.raises(ConfigError):
        PipelineConfig(rounds=0)
    with pytest.raises(ConfigError):
        PipelineConfig(expert_kind="oracle")
    with pytest.raises(ConfigError):
        PipelineConfig(vocab_size=100, vocab_source_count=10)
    with pytest.raises(ConfigError):
        PipelineConfig(per_round=0)


def test_config_nested_invariants_propagate():
    with pytest.raises(Exception):
        config_from_dict({"perturb": {"epdms_min": 1.5}})


def test_save_load_config(tmp_path):
    config = replace(PipelineConfig(), rounds=2, reactive=False)
    path = tmp_path / "conf.json"
    save_config(config, path)
    assert load_config(path) == config


def test_config_pickles():
    import pickle

    config = PipelineConfig()
    assert pickle.loads(pickle.dumps(config)) == config


def _leaves(d, prefix=""):
    """Dotted leaf keys of a config dict; a list of objects counts as one object, `name[]`."""
    if isinstance(d, dict):
        out = {}
        for k, v in d.items():
            out.update(_leaves(v, f"{prefix}.{k}" if prefix else k))
        return out
    if isinstance(d, list) and d and all(isinstance(v, dict) for v in d):
        out = {}
        for v in d:
            out.update(_leaves(v, f"{prefix}[]"))
        return out
    return {prefix: d}


# Every settable value of a run. A change to this list adds or removes a knob.
CONFIG_SURFACE = [
    "b_hard",
    "cameras[].dx",
    "cameras[].dy",
    "cameras[].dyaw",
    "cameras[].id",
    "cameras[].intrinsics.cx",
    "cameras[].intrinsics.cy",
    "cameras[].intrinsics.fx",
    "cameras[].intrinsics.fy",
    "cameras[].intrinsics.height",
    "cameras[].intrinsics.width",
    "ego_length",
    "ego_width",
    "expert_filter.ep_min",
    "expert_filter.required_ones",
    "expert_kind",
    "grid.interleave",
    "grid.step_lat",
    "grid.step_lon",
    "idm.a_max",
    "idm.b_comf",
    "idm.delta",
    "idm.headway",
    "idm.s0",
    "idm.v_desired",
    "limits.accel_max",
    "limits.steer_max",
    "limits.steer_rate_max",
    "limits.wheelbase",
    "lqr.control_weights",
    "lqr.horizon",
    "lqr.state_weights",
    "master_seed",
    "metric_thresholds.ddc_max_seconds",
    "metric_thresholds.ec_rel_tol",
    "metric_thresholds.ep_min_reference",
    "metric_thresholds.hc_accel_max",
    "metric_thresholds.hc_jerk_max",
    "metric_thresholds.hc_yaw_accel_max",
    "metric_thresholds.hc_yaw_rate_max",
    "metric_thresholds.lk_margin",
    "metric_thresholds.lk_min_fraction",
    "metric_thresholds.moving_speed",
    "metric_thresholds.ttc_horizon",
    "metric_thresholds.ttc_min",
    "metric_thresholds.ttc_min_ego_speed",
    "per_round",
    "perturb.dtheta_max",
    "perturb.epdms_min",
    "perturb.r_lat",
    "perturb.r_lon",
    "planner.lateral_offsets",
    "planner.speed_fractions",
    "reactive",
    "rounds",
    "vocab_size",
    "vocab_source_count",
    "weights.w_ec",
    "weights.w_ep",
    "weights.w_hc",
    "weights.w_lk",
    "weights.w_ttc",
]


def test_config_surface_is_pinned():
    assert sorted(_leaves(config_to_dict(PipelineConfig()))) == CONFIG_SURFACE


PUBLIC_NAMES = [
    "AgentTrack", "CorpusConfig", "ExpertFilterSpec", "FitResult", "GridSpec",
    "IdmParams", "Lane", "LqrParams", "MapModel", "MetricThresholds", "MetricWeights",
    "PerturbThresholds", "PerturbationCandidate", "PipelineConfig", "PlannerParams", "Pose2D",
    "RewardRecord", "RoundStats", "ScalingPoint", "Scenario", "SimContext", "SimSample",
    "SubMetricVector", "TrafficLight", "Trajectory", "VehicleLimits", "VehicleState", "Vocabulary",
    "aggregate_epdms", "build_vocabulary", "check_collision", "compare_fits",
    "compute_submetrics", "config_hash", "corpus_config_for_count", "emit_curve",
    "enumerate_perturbations", "expert_filter", "export_dataset", "feasibility_filter",
    "fit_log_quadratic", "generate_synthetic_corpus", "grid_sparsify", "idm_accel", "load_config",
    "load_scenario", "lqr_track", "privileged_plan", "recovery_retrieve", "rollout",
    "run_generation", "save_config", "sensor_stub", "time_to_collision",
    "validate_scenario", "write_scenario",
]


def test_public_names_are_pinned():
    """The package's public names, as the CI step lists them: a change to the
    surface must change this list too."""
    names = sorted(
        n for n, v in vars(drivegen).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def _halved(section):
    return replace(section, **{
        f.name: getattr(section, f.name) * 0.5
        for f in fields(section) if isinstance(getattr(section, f.name), float)
    })


def _every_leaf_changed() -> PipelineConfig:
    d = PipelineConfig()
    return PipelineConfig(
        master_seed=2**63 + 1,  # exact only if integers never pass through a float
        rounds=3,
        per_round=7,
        reactive=False,
        expert_kind="planner",
        ego_length=5.1,
        ego_width=2.1,
        b_hard=5.5,
        vocab_size=64,
        vocab_source_count=512,
        perturb=_halved(d.perturb),
        grid=replace(_halved(d.grid), interleave=False),
        idm=_halved(d.idm),
        lqr=LqrParams(state_weights=(1.5, 2.5, 0.6, 0.2), control_weights=(0.3, 0.4), horizon=12),
        limits=_halved(d.limits),
        weights=_halved(d.weights),
        metric_thresholds=_halved(d.metric_thresholds),
        expert_filter=ExpertFilterSpec(
            required_ones=frozenset({"nc", "dac", "ddc", "tlc", "ep"}), ep_min=0.6
        ),
        planner=PlannerParams(speed_fractions=(0.5, 1.0), lateral_offsets=(-0.5, 0.5)),
        cameras=(
            CameraConfig("cam_x", 1.0, 0.2, 0.1, {
                "fx": 1000.0, "fy": 1001.0, "cx": 320.0, "cy": 240.0, "width": 640, "height": 480,
            }),
        ),
    )


def test_config_roundtrip_with_every_leaf_changed(tmp_path):
    config = _every_leaf_changed()
    default, changed = _leaves(config_to_dict(PipelineConfig())), _leaves(config_to_dict(config))
    assert changed.keys() == default.keys()
    assert [k for k in default if changed[k] == default[k]] == []

    path = tmp_path / "conf.json"
    save_config(config, path)
    again = load_config(path)
    assert again == config
    assert config_hash(again) == config_hash(config)


def test_config_float_fields_read_integers_as_floats():
    config = config_from_dict({"b_hard": 4, "perturb": {"r_lon": 20}})
    assert config == PipelineConfig()
    assert config_hash(config) == config_hash(PipelineConfig())
