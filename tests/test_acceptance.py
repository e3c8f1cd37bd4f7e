"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them). The bundled corpus is the
100-scenario corpus synthesized with seed 2026.
"""

import json
import math
import os
import random
import time

import numpy as np
import pytest

from drivegen.cli import main as cli_main
from drivegen.config import PipelineConfig
from drivegen.control import LqrParams, VehicleLimits, _tracking_gain, lqr_track
from drivegen.geometry import BoxArrays, OrientedBox, boxes_overlap_many
from drivegen.metrics import (
    MetricWeights,
    SubMetricVector,
    aggregate_epdms,
    compute_submetrics,
)
from drivegen.pipeline import export_dataset, prepare_candidates, run_generation
from drivegen.reactive import DEFAULT_B_HARD, IdmParams, idm_accel
from drivegen.scaling import ScalingPoint, fit_log_quadratic
from drivegen.scenario import SIM_DT, Pose2D, Trajectory, VehicleState
from drivegen.synth import corpus_config_for_count, generate_synthetic_corpus
from drivegen.seeding import mix64
from drivegen.vocab import STATUS_PENDING, default_vocabulary, enumerate_perturbations, grid_sparsify
from drivegen.expert import recovery_retrieve

from conftest import make_state, scene_states, straight_trajectory
from test_expert import oracle_scan
from oracle import boxes_overlap, finite_horizon_gain, oracle_tracking_gain
from test_geometry import oracle_boxes_overlap

BUNDLED_COUNT = 100
BUNDLED_SEED = 2026
MASTER_SEED = 2026
WORKERS = max(1, min(8, os.cpu_count() or 1))

_timings: dict[str, float] = {}


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return ok


@pytest.fixture(scope="module")
def bundled_corpus():
    return generate_synthetic_corpus(corpus_config_for_count(BUNDLED_COUNT), seed=BUNDLED_SEED)


@pytest.fixture(scope="module")
def default_vocab(bundled_corpus):
    config = PipelineConfig(master_seed=MASTER_SEED)
    t0 = time.perf_counter()
    vocab = default_vocabulary(
        seed=config.master_seed,
        horizon=bundled_corpus[0].t_horizon,
        dt=bundled_corpus[0].dt,
        size=config.vocab_size,
        source_count=config.vocab_source_count,
    )
    _timings["vocab"] = time.perf_counter() - t0
    return vocab


@pytest.fixture(scope="module")
def recovery_run(bundled_corpus, default_vocab):
    config = PipelineConfig(master_seed=MASTER_SEED, expert_kind="recovery")
    t0 = time.perf_counter()
    samples, stats = run_generation(
        bundled_corpus, config, vocab=default_vocab, workers=WORKERS
    )
    _timings["recovery"] = time.perf_counter() - t0
    return config, samples, stats


@pytest.fixture(scope="module")
def planner_run(bundled_corpus, default_vocab):
    config = PipelineConfig(master_seed=MASTER_SEED, expert_kind="planner")
    t0 = time.perf_counter()
    samples, stats = run_generation(
        bundled_corpus, config, vocab=default_vocab, workers=WORKERS
    )
    _timings["planner"] = time.perf_counter() - t0
    return config, samples, stats


# -- 1 ---------------------------------------------------------------------


def test_criterion_1_epdms_algebra():
    t0 = time.perf_counter()
    w = MetricWeights()
    all_ones = SubMetricVector(1, 1, 1, 1, 1, 1, 1, 1, 1)
    ok = abs(aggregate_epdms(all_ones, w) - 1.0) <= 1e-12

    for penalty in ("nc", "dac", "ddc", "tlc"):
        vals = dict(nc=1.0, dac=1.0, ddc=1.0, tlc=1.0, ep=0.7, ttc=1.0, lk=0.9, hc=1.0, ec=0.4)
        vals[penalty] = 0.0
        ok &= aggregate_epdms(SubMetricVector(**vals), w) == 0.0

    s = SubMetricVector(1, 1, 1, 1, ep=0.8, ttc=1.0, lk=1.0, hc=1.0, ec=0.5)
    got = aggregate_epdms(s, MetricWeights(5, 5, 2, 2, 2))
    ok &= abs(got - 0.875) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert report(1, ok, f"EPDMS algebra exact (weighted example {got:.6f}, {elapsed * 1e3:.1f} ms)")


# -- 2 ---------------------------------------------------------------------


def test_criterion_2_idm():
    p_eq = IdmParams(v_desired=13.0)
    a_eq = idm_accel(13.0, None, p_eq, DEFAULT_B_HARD)
    ok = abs(a_eq) < 1e-9

    p = IdmParams(v_desired=15.0, headway=1.5, s0=2.0, a_max=1.5, b_comf=2.0, delta=4.0)
    got = idm_accel(10.0, (8.0, 20.0), p, DEFAULT_B_HARD)
    s_star = 2.0 + 10.0 * 1.5 + 10.0 * 2.0 / (2.0 * math.sqrt(1.5 * 2.0))
    expected = 1.5 * (1.0 - (10.0 / 15.0) ** 4 - (s_star / 20.0) ** 2)
    ok &= abs(got - expected) < 1e-6
    assert report(2, ok, f"IDM free-flow |a|={abs(a_eq):.2e}, car-following {got:.6f} vs {expected:.6f}")


# -- 3 ---------------------------------------------------------------------


def test_criterion_3_lqr():
    # the finite-horizon recursion of the tracker's gains, on A = B = Q = R = 1
    horizon = LqrParams().horizon
    one = np.eye(1)
    K = finite_horizon_gain(one, one, one, one, horizon)[0, 0]
    ok = abs(K - (math.sqrt(5.0) - 1.0) / 2.0) < 1e-6
    # the gain table the tracker reads is that recursion, bit for bit
    lim, p = VehicleLimits(), LqrParams()
    setting = (SIM_DT, lim.wheelbase, p.state_weights, p.control_weights, p.horizon)
    table = _tracking_gain(np.array([10.0]), np.array([0.0]), *setting)[0]
    want = oracle_tracking_gain(10.0, 0.0, *setting)
    ok &= [k.hex() for k in table.ravel().tolist()] == [k.hex() for row in want for k in row]

    ref = straight_trajectory(v=10.0, n_states=41)
    out = lqr_track(ref, make_state(x=0.0, y=0.5, v=10.0))
    final_lat = abs(out.states[-1].pose.y)
    ok &= final_lat < 0.05
    assert report(3, ok, f"Riccati K={K:.6f} at horizon {horizon} (target 0.618034), "
                         f"offset recovery to {final_lat:.4f} m in 4 s")


# -- 4 ---------------------------------------------------------------------


def test_criterion_4_retrieval_oracle():
    from drivegen.vocab import synthesize_maneuvers

    vocab = synthesize_maneuvers(512, 40, 0.1, seed=404)
    entries = list(vocab.entries)
    rng = random.Random(404)
    t0 = time.perf_counter()
    agree = 0
    for _ in range(1000):
        target = np.array([  # v_x, v_y, theta0, then the end pose x, y, theta
            rng.uniform(0.0, 16.0),
            rng.uniform(-0.5, 0.5),
            0.0,
            rng.uniform(-10.0, 70.0),
            rng.uniform(-20.0, 20.0),
            rng.uniform(-1.2, 1.2),
        ])
        got = recovery_retrieve(target, vocab)
        agree += got == oracle_scan(target, entries)
    elapsed = time.perf_counter() - t0
    ok = agree == 1000 and elapsed < 5.0
    assert report(4, ok, f"retrieval agreement {agree}/1000 in {elapsed:.2f} s")


# -- 5 ---------------------------------------------------------------------


def test_criterion_5_perturbation_soundness(bundled_corpus, default_vocab, recovery_run):
    config, samples, _ = recovery_run
    th = config.perturb
    checked = 0
    violations = 0
    by_scenario: dict[str, list] = {}
    for s in bundled_corpus:
        index, _, _ = prepare_candidates(s, default_vocab, config)
        grid = grid_sparsify(
            enumerate_perturbations(s, default_vocab, th), config.grid,
            mix64(config.master_seed, s.id),
        )
        cleared = {i: grid[i] for i in index.tolist()}  # enumeration is in index order
        by_scenario[s.id] = cleared
        cells = [c.endpoint_cell for c in cleared.values()]
        if len(cells) != len(set(cells)):
            violations += 1
        for c in cleared.values():
            checked += 1
            violations += c.status != STATUS_PENDING  # every cleared row survived the grid
            lon, lat, dtheta = c.offsets
            if not (
                abs(lon) <= th.r_lon + 1e-9
                and abs(lat) <= th.r_lat + 1e-9
                and abs(dtheta) <= th.dtheta_max + 1e-9
            ):
                violations += 1
    # every exported sample maps to a cleared, in-bound candidate
    for sample in samples:
        if sample.candidate_index not in by_scenario[sample.scenario_id]:
            violations += 1
    ok = violations == 0 and checked > 0
    assert report(
        5, ok, f"{checked} cleared candidates within ±20 m/±2 m/±20°, unique cells, "
        f"{len(samples)} exports all mapped ({violations} violations)"
    )


# -- 6 ---------------------------------------------------------------------


def test_criterion_6_export_safety_guarantee(bundled_corpus, recovery_run, tmp_path):
    config, samples, stats = recovery_run
    out = tmp_path / "export"
    export_dataset(samples, out, stats, config, [s.id for s in bundled_corpus])
    scenarios = {s.id: s for s in bundled_corpus}

    n_checked = 0
    n_ok = 0
    with open(out / "dataset.jsonl", encoding="utf-8") as f:
        for line in f:
            rec = json.loads(line)
            s = scenarios[rec["scenario_id"]]
            anchor2 = s.anchor_frame + s.t_horizon
            states = [_state_from_record(x) for x in rec["expert_future"]]
            agents = {
                a["id"]: tuple(_state_from_record(x) for x in a["states"][s.t_horizon:])
                for a in rec["agents_sim"]
            }
            scene = scene_states(states, agents, s.dt, anchor2)
            traj = Trajectory(dt=s.dt, states=tuple(states))
            sub = compute_submetrics(scene.batch(), s, traj, config.sim_context)
            n_checked += 1
            if (
                sub.nc == sub.dac == sub.ddc == sub.tlc == 1.0
                and sub.ep > config.expert_filter.ep_min
            ):
                n_ok += 1
    ok = n_checked == len(samples) and n_ok == n_checked and n_checked > 0
    assert report(6, ok, f"re-scored exports: {n_ok}/{n_checked} meet nc=dac=ddc=tlc=1 and EP>0.5")


def _state_from_record(d: dict) -> VehicleState:
    return VehicleState(
        pose=Pose2D(d["x"], d["y"], d["theta"]),
        vel_lon=d["v_lon"],
        vel_lat=d["v_lat"],
        accel=d["accel"],
        steering=d["steering"],
    )


# -- 7 ---------------------------------------------------------------------


def _one_box(box: OrientedBox) -> BoxArrays:
    return BoxArrays.of(
        np.array([box.x]), np.array([box.y]), np.array([box.heading]), box.length, box.width
    )


def test_criterion_7_collision_kernel_oracle():
    """Both separating-axis tests, the scalar `boxes_overlap` of
    `tests/oracle.py` and the vectorized `boxes_overlap_many` that NC, the
    screen's any-contact test and TTC use, agree with the brute-force oracle
    on 1000 random pairs."""
    rng = random.Random(707)
    agree = agree_many = 0
    for _ in range(1000):
        a = OrientedBox(
            rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-math.pi, math.pi),
            rng.uniform(0.3, 5.0), rng.uniform(0.3, 2.5),
        )
        b = OrientedBox(
            rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-math.pi, math.pi),
            rng.uniform(0.3, 5.0), rng.uniform(0.3, 2.5),
        )
        want = oracle_boxes_overlap(a, b)
        agree += boxes_overlap(a, b) == want
        agree_many += boxes_overlap_many(_one_box(a), _one_box(b)).tolist() == [want]
    ok = agree == agree_many == 1000
    assert report(
        7, ok,
        f"separating-axis vs brute-force oracle: scalar {agree}/1000, batched {agree_many}/1000",
    )


# -- 8 ---------------------------------------------------------------------


def test_criterion_8_scaling_fit():
    ns = [math.e ** k for k in range(1, 7)]
    pts = [
        ScalingPoint(n, -0.5 * math.log(n) ** 2 + 3.0 * math.log(n) + 10.0) for n in ns
    ]
    fit = fit_log_quadratic(pts)
    ok = (
        abs(fit.a + 0.5) < 1e-9
        and abs(fit.b - 3.0) < 1e-9
        and abs(fit.c - 10.0) < 1e-9
        and fit.saturation_n is not None
        and abs(fit.saturation_n - math.exp(3.0)) < 1e-6
    )

    passes = 0
    big_ns = [10.0 * 1.9 ** k for k in range(20)]
    for seed in range(100):
        rng = random.Random(seed)
        noisy = [
            ScalingPoint(n, -0.5 * math.log(n) ** 2 + 3.0 * math.log(n) + 10.0 + rng.gauss(0, 0.1))
            for n in big_ns
        ]
        f = fit_log_quadratic(noisy)
        if all(
            abs(got - want) <= 3.0 * se
            for got, want, se in zip((f.a, f.b, f.c), (-0.5, 3.0, 10.0), f.stderr)
        ):
            passes += 1
    ok &= passes >= 95
    assert report(
        8, ok,
        f"exact recovery to 1e-9, saturation {fit.saturation_n:.4f} (e^3={math.exp(3):.4f}), "
        f"noisy trials {passes}/100",
    )


# -- 9 ---------------------------------------------------------------------


def test_criterion_9_end_to_end_determinism(tmp_path, small_vocab):
    corpus_dir = tmp_path / "corpus"
    assert cli_main(["gen-corpus", "--count", "10", "--seed", "5", "--out", str(corpus_dir)]) == 0
    from drivegen.vocab import save_vocabulary

    vocab_path = tmp_path / "vocab.json"
    save_vocabulary(small_vocab, vocab_path)

    outputs = []
    for label, workers in (("r1", "1"), ("r2", "1"), ("w2", "2")):
        out = tmp_path / label
        rc = cli_main([
            "generate", "--corpus", str(corpus_dir), "--out", str(out),
            "--vocab", str(vocab_path), "--rounds", "3", "--seed", "17",
            "--expert", "recovery", "--workers", workers,
        ])
        assert rc == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = outputs[0] == outputs[1] == outputs[2]
    n_bytes = sum(len(v) for v in outputs[0].values())
    assert report(9, ok, f"three generate runs (workers 1/1/2) byte-identical ({n_bytes} bytes)")


# -- 10 --------------------------------------------------------------------


def test_criterion_10_planner_yield_at_least_recovery(recovery_run, planner_run):
    _, rec_samples, rec_stats = recovery_run
    _, pl_samples, pl_stats = planner_run
    rec_total = rec_stats[-1].cumulative_accepted
    pl_total = pl_stats[-1].cumulative_accepted
    ok = pl_total >= rec_total and len(rec_stats) == 5 and len(pl_stats) == 5
    assert report(
        10, ok,
        f"accepted over 5 rounds: planner {pl_total} >= recovery {rec_total} "
        f"(attempted {pl_stats[-1].attempted + sum(s.attempted for s in pl_stats[:-1])})",
    )


# -- 11 --------------------------------------------------------------------


def test_criterion_11_throughput(planner_run, recovery_run):
    _, samples, stats = planner_run
    wall = _timings.get("vocab", 0.0) + _timings.get("planner", 0.0)
    accepted = stats[-1].cumulative_accepted
    rec_accepted = recovery_run[2][-1].cumulative_accepted
    rec_wall = _timings.get("vocab", 0.0) + _timings.get("recovery", 0.0)
    ok = accepted >= 1000 and wall < 300.0
    assert report(
        11, ok,
        f"{accepted} accepted planner samples from {BUNDLED_COUNT} scenarios in {wall:.1f} s "
        f"(vocab {_timings.get('vocab', 0):.1f} s + generation {_timings.get('planner', 0):.1f} s, "
        f"{WORKERS} workers; recovery arm: {rec_accepted} in {rec_wall:.1f} s)",
    )
