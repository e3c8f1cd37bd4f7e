import json
import math
from dataclasses import replace

import pytest

from drivegen.errors import ParseError, SchemaError, ValidationError
from drivegen.scenario import (
    dump_json_canonical,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
    write_scenario,
)
from drivegen.synth import CorpusConfig, corpus_config_for_count, generate_synthetic_corpus
from drivegen.errors import ConfigError

from oracle import point_in_polygon


def minimal_scenario_dict(t_history=2, t_horizon=4, n_agents=0, v=10.0):
    """Straight-road scenario dict; ego at constant speed along +x."""
    n = t_history + 2 * t_horizon
    dt = 0.1
    ego = [
        {"x": v * k * dt, "y": 0.0, "theta": 0.0, "v_lon": v, "v_lat": 0.0,
         "accel": 0.0, "steering": 0.0}
        for k in range(n)
    ]
    lane = [[-50.0, 0.0], [200.0, 0.0]]
    return {
        "id": "mini-0",
        "dt": dt,
        "t_history": t_history,
        "t_horizon": t_horizon,
        "map": {
            "lanes": [{"polyline": lane, "width": 3.5, "direction": 1}],
            "drivable_area": [[[-50.0, -2.0], [200.0, -2.0], [200.0, 2.0], [-50.0, 2.0]]],
            "route": lane,
            "traffic_lights": [],
        },
        "ego_log": ego,
        "agents": [
            {
                "id": f"a{i:02d}",
                "length": 4.5,
                "width": 1.9,
                "kind": "vehicle",
                "states": ego,
            }
            for i in range(n_agents)
        ],
    }


def test_load_minimal_scenario_roundtrips_fields(tmp_path):
    d = minimal_scenario_dict(t_history=20, t_horizon=20)
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(d))
    s = load_scenario(path)
    assert s.id == "mini-0"
    assert len(s.map.lanes) == 1
    assert len(s.agents) == 0
    assert len(s.ego_log) == 60
    assert s.ego_log[3].pose.x == pytest.approx(3.0)


def test_load_scenario_wrong_log_length_names_invariant(tmp_path):
    d = minimal_scenario_dict()
    d["ego_log"] = d["ego_log"][:-1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValidationError, match="ego_log length"):
        load_scenario(path)


def test_load_scenario_offroad_frame_named(tmp_path):
    # oracle: hand point-in-polygon check pins the first offending frame
    d = minimal_scenario_dict(t_history=10, t_horizon=10)
    poly = d["map"]["drivable_area"][0]
    # keep consecutive-pose consistency errors out of the way for this case
    for st in d["ego_log"]:
        st["v_lon"] = 0.0
        st["x"] = 0.0
    d["ego_log"][12]["y"] = 5.0
    assert not point_in_polygon(0.0, 5.0, [tuple(p) for p in poly])
    path = tmp_path / "offroad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValidationError, match="frame 12"):
        load_scenario(path)


def test_load_scenario_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_scenario(path)


def test_load_scenario_missing_and_unknown_fields(tmp_path):
    d = minimal_scenario_dict()
    del d["dt"]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(d))
    with pytest.raises(SchemaError, match="dt"):
        load_scenario(path)

    d = minimal_scenario_dict()
    d["surprise"] = 1
    path.write_text(json.dumps(d))
    with pytest.raises(SchemaError, match="surprise"):
        load_scenario(path)


def _set(d, path, value):
    *head, last = path
    for key in head:
        d = d[key]
    d[last] = value


@pytest.mark.parametrize(
    "path, bad, named",
    [
        (("map", "lanes", 0, "width"), "wide", "map.lanes[0].width"),
        (("map", "lanes", 0, "width"), float("nan"), "map.lanes[0].width"),
        (("map", "lanes", 0, "direction"), 0.5, "map.lanes[0].direction"),
        (("map", "lanes", 0, "direction"), 2, "map.lanes[0].direction"),
        (("map", "lanes", 0, "polyline", 1, 0), None, "map.lanes[0].polyline[1][0]"),
        (("map", "lanes", 0, "polyline", 1), [1.0], "map.lanes[0].polyline[1]"),
        (("map", "drivable_area", 0, 2, 1), float("inf"), "map.drivable_area[0][2][1]"),
        (("map", "route"), [[0.0, 0.0], [50.0, True]], "map.route[1][1]"),
        (("map", "traffic_lights"), [{"stop_line": [[0.0, -2.0], [0.0, 2.0]],
          "phases": [{"t0": "0", "t1": 9.0, "state": "red"}]}], "map.traffic_lights[0].phases[0].t0"),
        (("map", "traffic_lights"), [{"stop_line": [[0.0, -2.0]], "phases": []}],
         "map.traffic_lights[0].stop_line"),
        (("agents", 0, "length"), "long", "agents[0].length"),
        (("agents", 0, "width"), float("nan"), "agents[0].width"),
        (("t_history",), "2", "t_history"),
        (("t_horizon",), 4.5, "t_horizon"),
        (("dt",), None, "dt"),
        (("ego_log",), {}, "ego_log"),
    ],
)
def test_scenario_numbers_are_checked_at_the_boundary(path, bad, named):
    d = minimal_scenario_dict(n_agents=1)
    _set(d, path, bad)
    with pytest.raises(SchemaError) as err:
        scenario_from_dict(d)
    assert str(err.value).startswith(named + ":")


def test_validate_lane_width_positive():
    d = minimal_scenario_dict()
    d["map"]["lanes"][0]["width"] = 0.0
    assert "lane 0: width must be positive" in validate_scenario(scenario_from_dict(d))


def test_validate_overlapping_light_phases():
    d = minimal_scenario_dict()
    d["map"]["traffic_lights"] = [
        {
            "stop_line": [[5.0, -2.0], [5.0, 2.0]],
            "phases": [
                {"t0": 0.0, "t1": 5.0, "state": "green"},
                {"t0": 4.0, "t1": 9.0, "state": "red"},
            ],
        }
    ]
    s = scenario_from_dict(d)
    diags = validate_scenario(s)
    assert any("traffic light 0" in x and "overlap" in x for x in diags)


def test_validate_agent_track_length_mismatch():
    d = minimal_scenario_dict(n_agents=1)
    d["agents"][0]["states"] = d["agents"][0]["states"][:-2]
    s = scenario_from_dict(d)
    diags = validate_scenario(s)
    assert any("a00" in x and "state count" in x for x in diags)


def test_validate_valid_scenario_empty_diagnostics():
    s = scenario_from_dict(minimal_scenario_dict())
    assert validate_scenario(s) == []


def test_write_load_roundtrip_equality(tmp_path, small_corpus):
    for s in small_corpus:
        path = tmp_path / f"{s.id}.json"
        write_scenario(s, path)
        loaded = load_scenario(path)
        assert loaded == s  # field-for-field dataclass equality


def test_write_load_reproduces_every_corpus_file_byte_for_byte(tmp_path, corpus_100):
    """Writing a loaded scenario file gives back its bytes, for each of the
    100 bundled scenarios and for one whose states hold -0.0, which
    dataclass equality cannot tell from 0.0: the one state reader and the
    one state writer keep every float as it is."""
    path, again = tmp_path / "s.json", tmp_path / "again.json"
    for s in corpus_100:
        write_scenario(s, path)
        write_scenario(load_scenario(path), again)
        assert again.read_bytes() == path.read_bytes(), s.id
    d = scenario_to_dict(corpus_100[60])
    assert d["agents"], "the lead-vehicle scene has an agent"
    for state in (*d["ego_log"], *d["agents"][0]["states"]):
        state["v_lat"] = -0.0
    path.write_text(dump_json_canonical(d), encoding="utf-8")
    write_scenario(load_scenario(path), again)
    assert '"v_lat":-0.0' in again.read_text()
    assert again.read_bytes() == path.read_bytes()


def test_synthesis_determinism():
    config = corpus_config_for_count(10)
    a = generate_synthetic_corpus(config, seed=7)
    b = generate_synthetic_corpus(config, seed=7)
    assert a == b
    assert [scenario_to_dict(x) for x in a] == [scenario_to_dict(y) for y in b]
    c = generate_synthetic_corpus(config, seed=8)
    assert a != c


def test_synthesis_count_zero():
    assert generate_synthetic_corpus(corpus_config_for_count(0), seed=1) == []


def test_synthesis_invalid_config():
    with pytest.raises(ConfigError):
        generate_synthetic_corpus(CorpusConfig(dt=-0.1), seed=0)
    with pytest.raises(ConfigError):
        generate_synthetic_corpus(CorpusConfig(counts={"straight": -1}), seed=0)
    with pytest.raises(ConfigError):
        corpus_config_for_count(-5)


def test_synthesized_corpus_validates():
    corpus = generate_synthetic_corpus(corpus_config_for_count(100), seed=1)
    assert len(corpus) == 100
    for s in corpus:
        assert validate_scenario(s) == [], s.id


def test_synthesized_logs_kinematically_consistent(small_corpus):
    for s in small_corpus:
        dt = s.ego_log.dt
        for k in range(len(s.ego_log) - 1):
            a, b = s.ego_log[k], s.ego_log[k + 1]
            d = math.hypot(b.pose.x - a.pose.x, b.pose.y - a.pose.y)
            assert abs(d / dt - a.vel_lon) <= 0.05


def test_ego_log_theta_normalized(small_corpus):
    for s in small_corpus:
        for st in s.ego_log.states:
            assert -math.pi < st.pose.theta <= math.pi


def test_validate_steering_bound():
    d = minimal_scenario_dict()
    d["ego_log"][3]["steering"] = 0.9
    s = scenario_from_dict(d)
    assert any("steering" in x and "frame 3" in x for x in validate_scenario(s))


@pytest.mark.parametrize("field", ["theta", "x"])
def test_validate_reports_a_non_finite_ego_state(small_corpus, field):
    """An infinite ego pose gets its diagnostic, not a math error from the
    footprint check, which a non-finite state skips."""
    s = small_corpus[1]
    states = list(s.ego_log.states)
    states[30] = replace(states[30], pose=replace(states[30].pose, **{field: math.inf}))
    s = replace(s, ego_log=replace(s.ego_log, states=tuple(states)))
    diags = validate_scenario(s)
    assert "non-finite ego state at frame 30" in diags
    assert not any("footprint" in x for x in diags)
