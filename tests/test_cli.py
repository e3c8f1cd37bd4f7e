import json
import math
from pathlib import Path

import pytest

from drivegen.cli import main
from drivegen.config import PipelineConfig
from drivegen.metrics import PENALTY_METRICS, aggregate_epdms
from drivegen.scenario import (
    Trajectory,
    _state_to_json,
    dump_json_canonical,
    load_scenario,
    scenario_to_dict,
)
from drivegen.vocab import load_vocabulary, save_vocabulary

from conftest import shifted_plan
from oracle import oracle_rollout, oracle_submetrics


def _dir_bytes(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["gen-corpus", "--count", "5", "--seed", "7", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def vocab_file(tmp_path_factory, small_vocab):
    path = tmp_path_factory.mktemp("vocab") / "vocab.json"
    save_vocabulary(small_vocab, path)
    return path


def test_gen_corpus_writes_files(corpus_dir):
    files = sorted(corpus_dir.glob("*.json"))
    assert len(files) == 5
    for f in files:
        load_scenario(f)  # validates


def test_gen_corpus_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-corpus", "--count", "4", "--seed", "3", "--out", str(a)]) == 0
    assert main(["gen-corpus", "--count", "4", "--seed", "3", "--out", str(b)]) == 0
    assert _dir_bytes(a) == _dir_bytes(b)


def test_gen_corpus_missing_out_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["gen-corpus", "--count", "4"])
    assert exc.value.code == 2


def test_build_vocab_cli(tmp_path):
    out = tmp_path / "v.json"
    rc = main([
        "build-vocab", "--k", "16", "--samples", "64", "--seed", "2",
        "--horizon", "40", "--out", str(out),
    ])
    assert rc == 0
    vocab = load_vocabulary(out)
    assert vocab.size == 16
    assert vocab.horizon == 40


def test_generate_smoke_and_stats(tmp_path, corpus_dir, vocab_file, capsys):
    out = tmp_path / "ds"
    rc = main([
        "generate", "--corpus", str(corpus_dir), "--out", str(out),
        "--vocab", str(vocab_file), "--rounds", "2", "--seed", "5",
        "--expert", "recovery",
    ])
    assert rc == 0
    assert (out / "dataset.jsonl").exists()
    stats_lines = (out / "stats.csv").read_text().splitlines()
    assert len(stats_lines) == 3  # header + 2 rounds
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 5
    assert manifest["expert_kind"] == "recovery"
    assert len(manifest["config_hash"]) == 64

    rc = main(["stats", "--dataset", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "dataset records:" in printed


def test_generate_non_reactive_recorded(tmp_path, corpus_dir, vocab_file):
    out = tmp_path / "ds-nr"
    rc = main([
        "generate", "--corpus", str(corpus_dir), "--out", str(out),
        "--vocab", str(vocab_file), "--rounds", "3", "--seed", "5",
        "--expert", "recovery", "--non-reactive",
    ])
    assert rc == 0
    stats_lines = (out / "stats.csv").read_text().splitlines()
    assert len(stats_lines) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["reactive"] is False


def test_generate_worker_count_invariance(tmp_path, corpus_dir, vocab_file):
    outs = []
    for label, workers in (("w1", "1"), ("w2", "2")):
        out = tmp_path / label
        rc = main([
            "generate", "--corpus", str(corpus_dir), "--out", str(out),
            "--vocab", str(vocab_file), "--rounds", "2", "--seed", "9",
            "--expert", "recovery", "--workers", workers,
        ])
        assert rc == 0
        outs.append(out)
    assert _dir_bytes(outs[0]) == _dir_bytes(outs[1])


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_generate_rejects_a_worker_count_below_one(
    tmp_path, capsys, corpus_dir, vocab_file, workers
):
    out = tmp_path / "out"
    rc = main([
        "generate", "--corpus", str(corpus_dir), "--out", str(out),
        "--vocab", str(vocab_file), "--workers", workers,
    ])
    assert rc == 1
    assert _one_error_line(capsys) == f"error: workers must be >= 1, got {workers}"
    assert not out.exists()


def _write_logged_trajectory(scenario_path: Path, out_path: Path) -> None:
    s = load_scenario(scenario_path)
    d = scenario_to_dict(s)
    anchor = s.t_history - 1
    states = d["ego_log"][anchor : anchor + s.t_horizon + 1]
    out_path.write_text(json.dumps({"dt": d["dt"], "frame": "global", "states": states}))


def test_eval_logged_ego_golden(tmp_path, corpus_dir, capsys):
    scenario_path = sorted(corpus_dir.glob("straight-*.json"))[0]
    traj_path = tmp_path / "logged.json"
    _write_logged_trajectory(scenario_path, traj_path)
    rc = main([
        "eval", "--scenario", str(scenario_path), "--trajectory", str(traj_path),
        "--mode", "nonreactive",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    # golden: replaying the log scores a perfect 1.0
    assert report["epdms"] == pytest.approx(1.0, abs=1e-12)
    for name in ("nc", "dac", "ddc", "tlc"):
        assert report["submetrics"][name] == 1.0


@pytest.mark.parametrize("mode", ["reactive", "nonreactive", "log-replay-ego"])
def test_eval_report_equals_the_scalar_oracles(tmp_path, corpus_dir, capsys, mode):
    """On every bundled scenario, for the logged plan and a plan shifted
    0.7 m at 0.9x speed, `eval` prints and writes the report built from
    `oracle_rollout` and `oracle_submetrics`, byte for byte."""
    ctx = PipelineConfig().sim_context
    traj_path, out_path = tmp_path / "plan.json", tmp_path / "report.json"
    for scenario_path in sorted(corpus_dir.glob("*.json")):
        s = load_scenario(scenario_path)
        anchor = s.anchor_frame
        logged = s.ego_log.segment(anchor, anchor + s.t_horizon)
        for plan in (logged, shifted_plan(logged, 0.7, 0.9)):
            traj_path.write_text(json.dumps(
                {"dt": plan.dt, "frame": plan.frame,
                 "states": [_state_to_json(st) for st in plan.states]}
            ))
            states = oracle_rollout(s, plan, anchor, s.t_horizon, mode, ctx)
            history = s.ego_log.segment(0, anchor)
            sub = oracle_submetrics(
                states, s, Trajectory(dt=s.dt, states=history.states + states.ego[1:]), ctx
            )
            expected = dump_json_canonical({
                "scenario_id": s.id,
                "submetrics": sub.as_dict(),
                "epdms": aggregate_epdms(sub, ctx.weights),
                "stage_scores": None,
            })
            rc = main([
                "eval", "--scenario", str(scenario_path), "--trajectory", str(traj_path),
                "--mode", mode, "--out", str(out_path),
            ])
            assert rc == 0
            assert capsys.readouterr().out == expected, (s.id, mode)
            assert out_path.read_text(encoding="utf-8") == expected


def _parked_car_scenario_file(path: Path) -> None:
    """Straight road with a parked car; the log brakes and stops before it."""
    from drivegen.scenario import (
        AgentTrack, Lane, MapModel, Pose2D, Scenario, Trajectory, VehicleState,
        write_scenario,
    )

    dt, t_history, t_horizon = 0.1, 20, 40
    n = t_history + 2 * t_horizon
    states = []
    x, v = 0.0, 8.0
    for k in range(n):
        states.append(VehicleState(Pose2D(x, 0.0, 0.0), v, 0.0, 0.0, 0.0))
        x += dt * v
        if k >= t_history:
            v = max(0.0, v - dt * 2.0)
    anchor_x = states[t_history - 1].pose.x
    parked_x = anchor_x + 25.0
    lane = ((-60.0, 0.0), (300.0, 0.0))
    scenario = Scenario(
        id="parked-eval",
        map=MapModel(
            lanes=(Lane(polyline=lane, width=3.5, direction=1),),
            drivable_area=(((-60.0, -2.0), (300.0, -2.0), (300.0, 2.0), (-60.0, 2.0)),),
            route=lane,
            traffic_lights=(),
        ),
        ego_log=Trajectory(dt=dt, states=tuple(states)),
        agents=(
            AgentTrack(
                id="parked", length=4.5, width=1.9, kind="static",
                states=tuple(
                    VehicleState(Pose2D(parked_x, 0.0, 0.0), 0.0, 0.0, 0.0, 0.0)
                    for _ in range(n)
                ),
            ),
        ),
        t_history=t_history,
        t_horizon=t_horizon,
    )
    write_scenario(scenario, path)


def test_eval_collision_trajectory_zero(tmp_path, capsys):
    scenario_path = tmp_path / "parked.json"
    _parked_car_scenario_file(scenario_path)
    s = load_scenario(scenario_path)
    anchor = s.t_history - 1
    st0 = s.ego_log[anchor]
    # constant speed straight into the parked car: executable and fatal
    states = [
        {"x": st0.pose.x + 8.0 * 0.1 * k, "y": 0.0, "theta": 0.0,
         "v_lon": 8.0, "v_lat": 0.0, "accel": 0.0, "steering": 0.0}
        for k in range(s.t_horizon + 1)
    ]
    traj_path = tmp_path / "ram.json"
    traj_path.write_text(json.dumps({"dt": 0.1, "frame": "global", "states": states}))
    rc = main([
        "eval", "--scenario", str(scenario_path), "--trajectory", str(traj_path),
        "--mode", "nonreactive",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["epdms"] == 0.0
    assert report["submetrics"]["nc"] == 0.0


def test_eval_dt_mismatch_nonzero_exit(tmp_path, corpus_dir, capsys):
    scenario_path = sorted(corpus_dir.glob("*.json"))[0]
    traj_path = tmp_path / "bad_dt.json"
    _write_logged_trajectory(scenario_path, traj_path)
    data = json.loads(traj_path.read_text())
    data["dt"] = 0.2
    traj_path.write_text(json.dumps(data))
    rc = main(["eval", "--scenario", str(scenario_path), "--trajectory", str(traj_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad", ["abc", float("nan"), 10**400], ids=["non-numeric", "nan", "overflow"]
)
def test_eval_bad_state_value_one_error_line(tmp_path, corpus_dir, capsys, bad):
    scenario_path = sorted(corpus_dir.glob("*.json"))[0]
    traj_path = tmp_path / "bad_value.json"
    _write_logged_trajectory(scenario_path, traj_path)
    data = json.loads(traj_path.read_text())
    data["states"][3]["x"] = bad
    traj_path.write_text(json.dumps(data))
    rc = main(["eval", "--scenario", str(scenario_path), "--trajectory", str(traj_path)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "states[3].x" in err[0]


@pytest.mark.parametrize("count", [0, 1])
def test_eval_too_few_states_one_error_line(tmp_path, corpus_dir, capsys, count):
    """A trajectory needs two states to make a step; fewer is a schema error
    naming `states`, not a window outside the scenario."""
    scenario_path = sorted(corpus_dir.glob("*.json"))[0]
    traj_path = tmp_path / "short.json"
    _write_logged_trajectory(scenario_path, traj_path)
    data = json.loads(traj_path.read_text())
    data["states"] = data["states"][:count]
    traj_path.write_text(json.dumps(data))
    rc = main(["eval", "--scenario", str(scenario_path), "--trajectory", str(traj_path)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "states" in err[0] and "window" not in err[0]


@pytest.mark.parametrize("bad", ["wide", float("nan")], ids=["non-numeric", "nan"])
def test_eval_bad_map_number_one_error_line(tmp_path, corpus_dir, capsys, bad):
    scenario_path = sorted(corpus_dir.glob("*.json"))[0]
    traj_path = tmp_path / "logged.json"
    _write_logged_trajectory(scenario_path, traj_path)
    data = json.loads(scenario_path.read_text())
    data["map"]["lanes"][0]["width"] = bad
    bad_path = tmp_path / "bad_width.json"
    bad_path.write_text(json.dumps(data))
    rc = main(["eval", "--scenario", str(bad_path), "--trajectory", str(traj_path)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "map.lanes[0].width" in err[0]


def _points_csv(path: Path, rows):
    path.write_text("n,s\n" + "\n".join(f"{n},{s}" for n, s in rows) + "\n")


def test_fit_scaling_recovers_coefficients(tmp_path, capsys):
    rows = []
    for k in range(1, 7):
        n = math.e ** k
        rows.append((n, -0.5 * k * k + 3.0 * k + 10.0))
    csv_path = tmp_path / "run.csv"
    _points_csv(csv_path, rows)
    out = tmp_path / "fit"
    rc = main(["fit-scaling", "--points", f"demo={csv_path}", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["demo"]["a"] == pytest.approx(-0.5, abs=1e-9)
    assert report["demo"]["b"] == pytest.approx(3.0, abs=1e-9)
    assert report["demo"]["c"] == pytest.approx(10.0, abs=1e-9)
    curve = (out / "curve_demo.csv").read_text().splitlines()
    assert curve[0] == "n,s_fit,s_lo,s_hi"


def test_fit_scaling_two_labeled_runs(tmp_path):
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    _points_csv(c1, [(math.e ** k, -0.5 * k * k + 3 * k + 10) for k in range(1, 7)])
    _points_csv(c2, [(math.e ** k, 2.0 * k + 1) for k in range(1, 7)])
    out = tmp_path / "cmp"
    rc = main([
        "fit-scaling", "--points", f"sat={c1}", "--points", f"lin={c2}", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["sat"]["flag"] == "saturating"
    assert report["lin"]["flag"] == "non-saturating"


def test_fit_scaling_rejects_nonpositive_n(tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    _points_csv(csv_path, [(10.0, 1.0), (-5.0, 2.0), (100.0, 3.0)])
    rc = main(["fit-scaling", "--points", str(csv_path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "row 3" in err


@pytest.mark.parametrize("count", [-5, 0])
def test_build_vocab_bad_sample_count_one_error_line(tmp_path, capsys, count):
    out = tmp_path / "vocab.json"
    rc = main(["build-vocab", "--k", "4", "--samples", str(count), "--out", str(out)])
    assert rc == 1
    assert _one_error_line(capsys) == f"error: maneuver count must be >= 1, got {count}"
    assert not out.exists()


_SET_UP = {"gen-corpus": ["--count", "5"], "build-vocab": ["--k", "4", "--samples", "16"]}


@pytest.mark.parametrize("dt", ["nan", "inf", "1e20", "1e300", "1e-320", "0", "-0.1", "1.5"])
@pytest.mark.parametrize("command", sorted(_SET_UP))
def test_set_up_commands_refuse_a_bad_dt_one_error_line(tmp_path, capsys, command, dt):
    """Both set-up commands integrate their tracks in one place, which takes
    a normal step of at most 1 s and refuses any other with one line."""
    out = tmp_path / "out"
    rc = main([command, *_SET_UP[command], "--dt", dt, "--out", str(out)])
    assert rc == 1
    assert _one_error_line(capsys) == (
        f"error: dt must lie in (0, 1.0] s and not be subnormal, got {float(dt)}"
    )
    assert not out.exists()


def test_gen_corpus_at_a_short_step_writes_scenarios_that_load(tmp_path):
    """At dt 0.05 the intersection lights' red phase still follows the green
    one, so every written scenario loads."""
    out = tmp_path / "corpus"
    assert main(["gen-corpus", "--count", "50", "--seed", "2026", "--dt", "0.05",
                 "--out", str(out)]) == 0
    paths = sorted(out.glob("*.json"))
    assert len(paths) == 50
    for path in paths:
        load_scenario(path)


def test_gen_corpus_refuses_a_scenario_that_does_not_validate(tmp_path, capsys):
    """At dt 0.5 some curves leave their corridor: one error line names the
    first such scenario and its first diagnostic, and nothing is written."""
    out = tmp_path / "corpus"
    rc = main(["gen-corpus", "--count", "50", "--seed", "2026", "--dt", "0.5", "--out", str(out)])
    assert rc == 1
    assert _one_error_line(capsys) == (
        "error: scenario curve-0011: ego footprint outside drivable area at frame 28"
    )
    assert not out.exists()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


_CAMERA = {"id": "c", "dx": 1.0, "dy": 0.0, "dyaw": 0.0, "intrinsics": {"fx": 1545.0}}


@pytest.mark.parametrize(
    "config, names",
    [
        ({"rounds": "5"}, "config.rounds"),
        ({"rounds": True}, "config.rounds"),
        ({"per_round": 2.5}, "config.per_round"),
        ({"reactive": 1}, "config.reactive"),
        ({"b_hard": float("inf")}, "config.b_hard"),
        ({"perturb": {"r_lon": "x"}}, "config.perturb.r_lon"),
        ({"perturb": 3}, "config.perturb: expected an object"),
        ({"idm": {"v_desired": "fast"}}, "config.idm.v_desired"),
        ({"lqr": {"state_weights": [1, 2]}}, "config.lqr.state_weights: expected 4 values"),
        ({"lqr": {"control_weights": 0.2}}, "config.lqr.control_weights: expected an array"),
        ({"limits": {"wheelbase": 0}}, "config.limits: wheelbase must be positive"),
        ({"planner": {"weights": 3}}, "config.planner: unknown key 'weights'"),
        ({"planner": {"horizon": 40}}, "config.planner: unknown key 'horizon'"),
        ({"planner": {"speed_fractions": [0.5, None]}}, "config.planner.speed_fractions[1]"),
        ([], "config: expected an object"),
        ({"cameras": [{"id": "c"}]}, "config.cameras[0]: missing key 'dx'"),
        ({"cameras": [{**_CAMERA, "intrinsics": {"fx": float("nan")}}]},
         "config.cameras[0].intrinsics.fx"),
        ({"expert_filter": {"required_ones": [*PENALTY_METRICS, "zz"]}}, "config.expert_filter"),
        ({"expert_filter": {"required_ones": ["nc", "dac", "ddc"]}}, "config.expert_filter"),
        ({"idm": {"v_desired": 0}}, "config.idm: v_desired must be positive"),
        ({"idm": {"a_max": -1}}, "config.idm: a_max must be positive"),
        ({"idm": {"b_comf": 0}}, "config.idm: b_comf must be positive"),
        ({"idm": {"delta": -4}}, "config.idm: delta must be positive"),
        ({"idm": {"s0": -1}}, "config.idm: s0 must be non-negative"),
        ({"lqr": {"horizon": -3}}, "config.lqr: horizon must be >= 1"),
        ({"lqr": {"horizon": 0}}, "config.lqr: horizon must be >= 1"),
        ({"lqr": {"control_weights": [0.2, 0]}}, "config.lqr: control_weights must be positive"),
        ({"lqr": {"state_weights": [1, -2, 0.5, 0.1]}},
         "config.lqr: state_weights must be non-negative"),
        ({"weights": {"w_ep": 0, "w_ttc": 0, "w_lk": 0, "w_hc": 0, "w_ec": 0}},
         "config.weights: metric weight sum must be positive"),
        ({"weights": {"w_ep": -5}}, "config.weights: w_ep must be non-negative"),
        ({"metric_thresholds": {"ttc_horizon": -1}},
         "config.metric_thresholds: ttc_horizon must be positive"),
        ({"metric_thresholds": {"ttc_horizon": 0}},
         "config.metric_thresholds: ttc_horizon must be positive"),
        ({"metric_thresholds": {"lk_min_fraction": 7}},
         "config.metric_thresholds: lk_min_fraction must lie in [0, 1]"),
        ({"metric_thresholds": {"lk_min_fraction": -0.5}},
         "config.metric_thresholds: lk_min_fraction must lie in [0, 1]"),
        ({"metric_thresholds": {"ec_rel_tol": -1}},
         "config.metric_thresholds: ec_rel_tol must be non-negative"),
        ({"metric_thresholds": {"moving_speed": -0.1}},
         "config.metric_thresholds: moving_speed must be non-negative"),
        ({"metric_thresholds": {"ttc_min": -1}},
         "config.metric_thresholds: ttc_min must be non-negative"),
        ({"metric_thresholds": {"ddc_max_seconds": -2}},
         "config.metric_thresholds: ddc_max_seconds must be non-negative"),
        ({"metric_thresholds": {"ttc_horizon": 1e308}},
         "config.metric_thresholds.ttc_horizon: magnitude above 1e+09: 1e+308"),
        ({"metric_thresholds": {"ttc_horizon": 1e300}},
         "config.metric_thresholds.ttc_horizon: magnitude above 1e+09: 1e+300"),
        ({"metric_thresholds": {"ttc_horizon": 11}},
         "config.metric_thresholds: ttc_horizon must be at most 10 s, got 11.0"),
        ({"idm": {"v_desired": 1e-320}}, "config.idm.v_desired: subnormal number: 1e-320"),
        ({"weights": {"w_lk": -1e-310}}, "config.weights.w_lk: subnormal number"),
        ({"idm": {"delta": 1e9}}, "config.idm: delta must be at most 10, got 1000000000.0"),
        ({"idm": {"v_desired": 1e-300}},
         "config.idm: v_desired must lie in [0.1, 100] m/s, got 1e-300"),
        ({"idm": {"v_desired": 101}}, "config.idm: v_desired must lie in [0.1, 100] m/s, got 101.0"),
        ({"limits": {"wheelbase": 1e-300}},
         "config.limits: wheelbase must lie in [0.5, 20] m, got 1e-300"),
    ],
    ids=[
        "string-int", "bool-int", "float-int", "int-bool", "inf", "string-float", "section-number",
        "idm-string", "tuple-length", "tuple-scalar", "wheelbase-zero", "planner-weights",
        "planner-horizon", "null-in-list", "top-level-array", "camera-missing-key",
        "nan-intrinsics", "required-unknown", "required-without-tlc",
        "idm-v-desired-zero", "idm-a-max-negative", "idm-b-comf-zero", "idm-delta-negative",
        "idm-s0-negative", "lqr-horizon-negative", "lqr-horizon-zero", "lqr-control-weight-zero",
        "lqr-state-weight-negative", "weights-all-zero", "weight-negative",
        "ttc-horizon-negative", "ttc-horizon-zero", "lk-fraction-above-one",
        "lk-fraction-negative", "ec-tol-negative", "moving-speed-negative", "ttc-min-negative",
        "ddc-seconds-negative", "ttc-horizon-1e308", "ttc-horizon-1e300", "ttc-horizon-above-cap",
        "idm-v-desired-subnormal", "weight-subnormal", "idm-delta-1e9", "idm-v-desired-1e-300",
        "idm-v-desired-above-range", "wheelbase-1e-300",
    ],
)
def test_generate_bad_config_value_one_error_line(
    tmp_path, corpus_dir, vocab_file, capsys, config, names
):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    rc = main([
        "generate", "--corpus", str(corpus_dir), "--out", str(tmp_path / "ds"),
        "--vocab", str(vocab_file), "--config", str(config_path),
    ])
    assert rc == 1
    assert names in _one_error_line(capsys)
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("frame", ["ego-local-at-start", "banana"])
def test_eval_refuses_a_plan_that_is_not_global(tmp_path, corpus_dir, small_vocab, capsys, frame):
    from drivegen.scenario import _state_to_json

    scenario_path = sorted(corpus_dir.glob("*.json"))[0]
    entry = small_vocab.entries[0]
    traj_path = tmp_path / "entry.json"
    traj_path.write_text(json.dumps(
        {"dt": entry.dt, "frame": frame, "states": [_state_to_json(s) for s in entry.states]}
    ))
    rc = main(["eval", "--scenario", str(scenario_path), "--trajectory", str(traj_path)])
    assert rc == 1
    assert frame in _one_error_line(capsys)


@pytest.mark.parametrize(
    "flags, names",
    [(["--dt", "0"], "dt"), (["--dt", "-0.1"], "dt"), (["--dt", "inf"], "dt"),
     (["--horizon", "0"], "horizon"), (["--horizon", "1"], "horizon")],
)
def test_build_vocab_bad_step_one_error_line(tmp_path, capsys, flags, names):
    rc = main([
        "build-vocab", "--k", "4", "--samples", "16", "--out", str(tmp_path / "v.json"), *flags,
    ])
    assert rc == 1
    assert names in _one_error_line(capsys)


@pytest.mark.parametrize(
    "manifest, names",
    [("{not json", "malformed JSON"), ('{"tool_version": "0.1.0"}', "missing field 'config_hash'"),
     ("[]", "expected an object")],
    ids=["malformed", "missing-key", "not-an-object"],
)
def test_stats_bad_manifest_one_error_line(tmp_path, capsys, manifest, names):
    (tmp_path / "manifest.json").write_text(manifest)
    assert main(["stats", "--dataset", str(tmp_path)]) == 1
    assert names in _one_error_line(capsys)


def test_stats_missing_column_one_error_line(tmp_path, corpus_dir, vocab_file, capsys):
    out = tmp_path / "ds"
    assert main([
        "generate", "--corpus", str(corpus_dir), "--out", str(out),
        "--vocab", str(vocab_file), "--rounds", "1", "--expert", "recovery",
    ]) == 0
    stats = out / "stats.csv"
    stats.write_text(stats.read_text().replace("round,", "rnd,", 1))
    capsys.readouterr()
    assert main(["stats", "--dataset", str(out)]) == 1
    assert "stats.csv: missing column 'round'" in _one_error_line(capsys)


def _set(i, j, key, value):
    def breaks(data):
        data[i]["states"][j][key] = value
    return breaks


def _drop(i, j, key):
    def breaks(data):
        del data[i]["states"][j][key]
    return breaks


def _shorten(data):
    data[3]["states"].pop()


def _retime(data):
    data[4]["dt"] = 0.2


def _bad_value_after_short_entry(data):
    _shorten(data)
    data[6]["states"][0]["x"] = "a"


def _wrap(data):
    return {"entries": data}


@pytest.mark.parametrize(
    "breaks, message",
    [
        (_set(2, 5, "y", "1.0"), "vocabulary[2].states[5].y: expected a number, got '1.0'"),
        (_set(2, 5, "theta", True), "vocabulary[2].states[5].theta: expected a number, got True"),
        (_set(2, 5, "x", float("nan")), "vocabulary[2].states[5].x: not a finite float: nan"),
        (_drop(2, 5, "v_lat"), "vocabulary[2].states[5]: missing field 'v_lat'"),
        (_set(2, 5, "extra", 1.0), "vocabulary[2].states[5]: unknown field 'extra'"),
        (_shorten, "vocabulary entry 3 has mismatched horizon or dt"),
        (_retime, "vocabulary entry 4 has mismatched horizon or dt"),
        (_bad_value_after_short_entry, "vocabulary[6].states[0].x: expected a number, got 'a'"),
        (_wrap, "vocabulary: expected a JSON array of trajectories"),
    ],
    ids=["string", "bool", "nan", "missing-key", "unknown-key", "unequal-length",
         "mismatched-dt", "schema-before-shape", "not-an-array"],
)
def test_generate_bad_vocabulary_one_error_line(
    tmp_path, corpus_dir, vocab_file, capsys, breaks, message
):
    """A broken vocabulary file stops `generate` with exit code 1 and one
    `error:` line naming the first fault in file order; a field fault wins
    over a shape mismatch found only once every entry is read."""
    data = json.loads(vocab_file.read_text())
    data = breaks(data) or data
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps(data))
    rc = main([
        "generate", "--corpus", str(corpus_dir), "--out", str(tmp_path / "ds"),
        "--vocab", str(path),
    ])
    assert rc == 1
    assert _one_error_line(capsys) == f"error: {message}"
    assert not (tmp_path / "ds").exists()


def _set_dt(value):
    def breaks(data):
        data["dt"] = value
    return breaks


def _set_map(key, value, lane=None):
    def breaks(data):
        (data["map"] if lane is None else data["map"]["lanes"][lane])[key] = value
    return breaks


def _repeat_first_point(key, lane=None):
    def breaks(data):
        points = (data["map"] if lane is None else data["map"]["lanes"][lane])[key]
        points[1] = list(points[0])
    return breaks


def _set_polygon(points):
    def breaks(data):
        data["map"]["drivable_area"][0] = points
    return breaks


@pytest.mark.parametrize(
    "breaks, message",
    [
        (_set_dt(0), "ego_log dt must be positive"),
        (_set_dt(0.0), "ego_log dt must be positive"),
        (_set_dt(-0.0), "ego_log dt must be positive"),
        (_set_map("lanes", []), "map.lanes: expected at least one lane"),
        (_set_map("polyline", [], lane=0),
         "map.lanes[0].polyline: expected at least 2 points, got 0"),
        (_set_map("polyline", [[0.0, 0.0]], lane=0),
         "map.lanes[0].polyline: expected at least 2 points, got 1"),
        (_repeat_first_point("polyline", lane=0),
         "map.lanes[0].polyline: zero-length segment at point 1"),
        (_set_map("route", []), "map.route: expected at least 2 points, got 0"),
        (_set_map("route", [[0.0, 0.0]]), "map.route: expected at least 2 points, got 1"),
        (_repeat_first_point("route"), "map.route: zero-length segment at point 1"),
        (_set_polygon([]), "map.drivable_area[0]: expected at least 3 points, got 0"),
        (_set_polygon([[0.0, 0.0], [50.0, 0.0]]),
         "map.drivable_area[0]: expected at least 3 points, got 2"),
        (_set_map("polyline", [[0.0, 0.0], [1e308, 0.0]], lane=0),
         "map.lanes[0].polyline[1][0]: magnitude above 1e+09: 1e+308"),
    ],
    ids=["dt-int-zero", "dt-zero", "dt-negative-zero", "no-lanes", "lane-no-points",
         "lane-one-point", "lane-repeated-point", "route-no-points", "route-one-point",
         "route-repeated-point", "empty-polygon", "two-point-polygon", "huge-coordinate"],
)
def test_generate_bad_scenario_one_error_line(
    tmp_path, corpus_dir, vocab_file, capsys, breaks, message
):
    """A scenario file whose dt is zero, or whose map geometry cannot be
    projected onto or tested for containment, stops `generate` with exit
    code 1 and one `error:` line naming the field, before any output."""
    path = sorted(corpus_dir.glob("*.json"))[0]
    data = json.loads(path.read_text())
    breaks(data)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / path.name).write_text(json.dumps(data))
    rc = main([
        "generate", "--corpus", str(corpus), "--out", str(tmp_path / "ds"),
        "--vocab", str(vocab_file), "--rounds", "1",
    ])
    assert rc == 1
    assert _one_error_line(capsys).endswith(message)
    assert not (tmp_path / "ds").exists()
