"""Benchmark of drivegen's README pipeline: build-vocab, then generate.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {recovery,planner,all} \
        [--seed 2026] [--seconds 10] [--trace 0|1] [--smoke]

A run is a closed loop with one client. Each step runs in a fresh
interpreter through ``drivegen.cli.main``, as a CLI user would run it:

1. set-up: ``gen-corpus --seed S`` and ``build-vocab`` at the paper's size
   (k=1024 from 16384 maneuvers, vocabulary seed 2026);
2. generate: ``generate --seed S`` with the workload's flags, repeated in a
   new interpreter while the next job still fits in ``--seconds`` (at least
   one job). Every job's outputs are checked and must be byte-identical.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` traces the set-up,
runs an untraced and then a traced generate job, and prints per-layer
metrics from the traced one; its wall minus the untraced wall is the
tracing overhead.
``--smoke`` runs the same steps at a tiny size for the benchmark's own tests;
its numbers mean nothing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A copy of each result,
with the environment, output digests and funnel counters, goes to
``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"

DEFAULT_SEED = 2026
VOCAB = {"k": 1024, "samples": 16384, "seed": 2026}
SMOKE_VOCAB = {"k": 32, "samples": 256, "seed": 2026}

# Scenario counts are multiples of 5 so that all five templates appear. Both
# arms run in one process (1 worker): a pool on this 2-core VM tied the figures
# to how much of both cores the host gave. The counts make a generate job of
# 25-35 s, so that 48 runs of the two workloads (set-up ~20 s each) fit in
# about 45 minutes; shorter jobs (recovery 25, planner 10 scenarios) spread
# too much from run to run.
WORKERS = 1
WORKLOADS = {
    "recovery": {"count": 40, "smoke_count": 5, "expert": "recovery"},
    "planner": {"count": 15, "smoke_count": 5, "expert": "planner"},
}


def generate_flags(workload: dict) -> list[str]:
    return ["--expert", workload["expert"], "--workers", str(WORKERS)]


END_TO_END = (
    ("samples_per_s", "samples/s"),
    ("setup_s", "s"),
    ("cpu_s_per_sample", "s/sample"),
    ("peak_rss_mb", "MB"),
    ("accepted", "samples"),
    ("yield", "ratio"),
)

LAYERS = ("scenario", "geometry", "control", "reactive", "vocab", "metrics", "expert", "pipeline", "cli")
# expert_filter reasons, in the order the filter tests them; "EP" is ep <= ep_min
REJECT_REASONS = {r: r for r in ("nc", "dac", "ddc", "tlc", "ttc", "lk", "hc", "ec", "kinematics")}
REJECT_REASONS["EP"] = "ep_min"

PER_LAYER = (
    [
        ("vocab.synthesize_maneuvers.s", "s"),
        ("vocab.build_vocabulary.s", "s"),
        ("synth.generate_synthetic_corpus.s", "s"),
        ("scenario.load_scenario.s", "s"),
        ("vocab.load_vocabulary.s", "s"),
        ("vocab.enumerate_perturbations.s", "s"),
        ("vocab.grid_sparsify.s", "s"),
        ("vocab.threshold_pass_ratio", "ratio"),
        ("vocab.grid_keep_ratio", "ratio"),
        ("vocab.feasibility_filter.calls", "count"),
        ("vocab.feasibility_filter.self_s", "s"),
        ("vocab.feasibility_filter.nonreactive.clear_ratio", "ratio"),
        ("vocab.feasibility_filter.reactive.calls", "count"),
        ("vocab.feasibility_filter.reactive.clear_ratio", "ratio"),
        ("reactive.rollout.reactive.calls", "count"),
        ("reactive.rollout.nonreactive.calls", "count"),
        ("reactive.rollout.self_s", "s"),
        ("reactive.rollouts_per_accepted", "ratio"),
        ("control.lqr_track.calls", "count"),
        ("control.lqr_track.s", "s"),
        ("control.gain_cache.hit_ratio", "ratio"),
        ("control.gain_cache.misses", "count"),
        ("metrics.compute_submetrics.calls", "count"),
        ("metrics.compute_submetrics.self_s", "s"),
        ("metrics.time_to_collision.s", "s"),
        ("metrics.check_collision.s", "s"),
        ("geometry.PolylineOps.project.calls", "count"),
        ("geometry.PolylineOps.project.s", "s"),
        ("geometry.PolylineOps.min_dist2.calls", "count"),
        ("geometry.PolylineOps.min_dist2.s", "s"),
        ("expert.privileged_plan.calls", "count"),
        ("expert.privileged_plan.s", "s"),
        ("expert.privileged_plan.self_s", "s"),
        ("expert.recovery_retrieve.s", "s"),
    ]
    + [(f"expert.expert_filter.reject.{n}", "count") for n in REJECT_REASONS.values()]
    + [
        ("pipeline.prepare_candidates.s", "s"),
        ("pipeline.scenario_s.p50", "s"),
        ("pipeline.scenario_s.tail", "s"),
        ("pipeline.scenario_s.tail_pct", "%"),
        ("pipeline.scenario_s.count", "count"),
        ("pipeline.sensor_stub.s", "s"),
        ("pipeline.export_dataset.s", "s"),
        ("pipeline.export_bytes", "bytes"),
        ("pipeline.pool.busy_ratio", "ratio"),
    ]
    + [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("trace.generate_wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.uncovered_s", "s"),
        ("trace.coverage", "ratio"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.spans", "count"),
    ]
    + [
        (f"funnel.{n}", "count")
        for n in (
            "vocab_entries",
            "threshold_pass",
            "grid_keep",
            "nonreactive_cleared",
            "reactive_cleared",
            "attempted",
            "accepted",
        )
    ]
)

LOWER_IS_BETTER_RATIOS = ("reactive.rollouts_per_accepted", "trace.overhead_ratio")


def better(name: str, unit: str) -> str:
    """Direction in which a per-layer metric improves (as BENCHMARK.json lists it)."""
    if unit == "ratio":
        return "lower" if name in LOWER_IS_BETTER_RATIOS else "higher"
    if name.startswith("funnel.") or unit == "%":
        return "higher"
    return "lower"


OUTPUT_FILES = ("dataset.jsonl", "stats.csv", "manifest.json")
RUN_LIMIT_S = 170.0  # a run must end within 180 s; steps still running then are killed


class RunFailed(Exception):
    """A step of the program failed or its outputs did not pass the check."""


# ---------------------------------------------------------------------------
# Steps in fresh interpreters


def _child(spec: dict, workdir: Path, name: str, deadline: float) -> dict:
    # spans of a traced step outlive the run directory: the latest per size, seed and step
    spans = WORK / "spans" / f"{workdir.name}-{name}.json.gz"
    spans.parent.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, result=str(workdir / f"{name}.result.json"), spans=str(spans))
    spec_path = workdir / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    # own process group, so a step that overruns is killed with its pool workers
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "job.py"), str(spec_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"{name} did not finish within the run's {RUN_LIMIT_S:.0f} s") from None
    if proc.returncode != 0:
        raise RunFailed(f"{name} exited with {proc.returncode}:\n{stderr.strip()}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(out: Path, seed: int, workload: dict, count: int, ep_min: float) -> dict:
    """Re-read one generate job's files and re-assert the export guarantee."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    expert = workload["expert"]
    if (
        manifest["master_seed"] != seed
        or manifest["expert_kind"] != expert
        or manifest["reactive"] is not True
        or len(manifest["corpus_ids"]) != count
    ):
        raise RunFailed(f"{out}: manifest does not match the run: {manifest}")

    rows = (out / "stats.csv").read_text(encoding="utf-8").splitlines()
    header = rows[0].split(",")
    stats = [dict(zip(header, row.split(","))) for row in rows[1:]]
    attempted = sum(int(r["attempted"]) for r in stats)
    accepted = sum(int(r["accepted"]) for r in stats)
    if not stats or int(stats[-1]["cumulative_accepted"]) != accepted:
        raise RunFailed(f"{out}: stats.csv cumulative count disagrees with its rows")
    rejects = {
        k[len("reject_"):]: sum(int(r[k]) for r in stats) for k in header if k.startswith("reject_")
    }

    corpus = set(manifest["corpus_ids"])
    n = 0
    with open(out / "dataset.jsonl", encoding="utf-8") as f:
        for line in f:
            record = json.loads(line)
            sub = record["reward"]["submetrics"]
            if not (sub["nc"] == sub["dac"] == sub["ddc"] == sub["tlc"] == 1.0 and sub["ep"] > ep_min):
                raise RunFailed(f"{out}: record {n} violates the export safety guarantee")
            if record["scenario_id"] not in corpus or record["expert_kind"] != expert:
                raise RunFailed(f"{out}: record {n} does not belong to this run")
            n += 1
    if n != accepted or accepted < 1:
        raise RunFailed(f"{out}: {n} records for {accepted} accepted samples")
    return {
        "digests": {name: _sha256(out / name) for name in OUTPUT_FILES},
        "stats": {"attempted": attempted, "accepted": accepted, "rejects": rejects},
    }


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        h.update(path.as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not Path(".git").exists():  # a plain checkout: do not let git search the parent directories
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def check_reference(key: str, record: dict) -> list[str]:
    """Compare with earlier runs of the same code, workload, size and seed.

    The first run stores its digests and counters; every later run must
    match them exactly. Returns the mismatching fields.
    """
    path = WORK / "ref" / f"{key}.json"
    ref = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    diffs = [k for k in record if k in ref and ref[k] != record[k]]
    if not diffs:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**ref, **record}, sort_keys=True), encoding="utf-8")
    return diffs


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced run


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it (nearest rank).

    With ten samples or fewer no percentile qualifies; the maximum is given
    with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    rank = n - 10  # ten samples lie beyond this rank
    return ordered[rank - 1], 100.0 * rank / n


def layer_metrics(setup_trace: dict, gen_trace: dict, untraced_wall: float, workers: int) -> dict:
    setup, table, c = setup_trace["table"], gen_trace["table"], gen_trace["counters"]

    def val(name, field="s", source=table):
        return source.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "vocab.synthesize_maneuvers.s": val("vocab.synthesize_maneuvers", source=setup),
        "vocab.build_vocabulary.s": val("vocab.build_vocabulary", source=setup),
        "synth.generate_synthetic_corpus.s": val("synth.generate_synthetic_corpus", source=setup),
        "scenario.load_scenario.s": val("scenario.load_scenario"),
        "vocab.load_vocabulary.s": val("vocab.load_vocabulary"),
        "vocab.enumerate_perturbations.s": val("vocab.enumerate_perturbations"),
        "vocab.grid_sparsify.s": val("vocab.grid_sparsify"),
        "vocab.threshold_pass_ratio": ratio(c.get("funnel.threshold_pass", 0), c.get("funnel.vocab_entries", 0)),
        "vocab.grid_keep_ratio": ratio(c.get("funnel.grid_keep", 0), c.get("funnel.threshold_pass", 0)),
        "vocab.feasibility_filter.calls": val("vocab.feasibility_filter", "calls"),
        "vocab.feasibility_filter.self_s": val("vocab.feasibility_filter", "self_s"),
        "vocab.feasibility_filter.nonreactive.clear_ratio": ratio(
            c.get("funnel.nonreactive_cleared", 0), c.get("feasibility.nonreactive.checked", 0)
        ),
        "vocab.feasibility_filter.reactive.calls": c.get("feasibility.reactive.checked", 0),
        "vocab.feasibility_filter.reactive.clear_ratio": ratio(
            c.get("funnel.reactive_cleared", 0), c.get("feasibility.reactive.checked", 0)
        ),
        "reactive.rollout.reactive.calls": c.get("rollout.reactive", 0),
        "reactive.rollout.nonreactive.calls": c.get("rollout.nonreactive", 0),
        "reactive.rollout.self_s": val("reactive.rollout", "self_s"),
        "reactive.rollouts_per_accepted": ratio(val("reactive.rollout", "calls"), c.get("funnel.accepted", 0)),
        "control.lqr_track.calls": val("control.lqr_track", "calls"),
        "control.lqr_track.s": val("control.lqr_track"),
        "control.gain_cache.hit_ratio": ratio(
            c.get("gain_cache.hits", 0), c.get("gain_cache.hits", 0) + c.get("gain_cache.misses", 0)
        ),
        "control.gain_cache.misses": c.get("gain_cache.misses", 0),
        "metrics.compute_submetrics.calls": val("metrics.compute_submetrics", "calls"),
        "metrics.compute_submetrics.self_s": val("metrics.compute_submetrics", "self_s"),
        "metrics.time_to_collision.s": val("metrics.time_to_collision"),
        "metrics.check_collision.s": val("metrics.check_collision"),
        "geometry.PolylineOps.project.calls": val("geometry.PolylineOps.project", "calls"),
        "geometry.PolylineOps.project.s": val("geometry.PolylineOps.project"),
        "geometry.PolylineOps.min_dist2.calls": val("geometry.PolylineOps.min_dist2", "calls"),
        "geometry.PolylineOps.min_dist2.s": val("geometry.PolylineOps.min_dist2"),
        "expert.privileged_plan.calls": val("expert.privileged_plan", "calls"),
        "expert.privileged_plan.s": val("expert.privileged_plan"),
        "expert.privileged_plan.self_s": val("expert.privileged_plan", "self_s"),
        "expert.recovery_retrieve.s": val("expert.recovery_retrieve"),
    }
    for reason, name in REJECT_REASONS.items():
        m[f"expert.expert_filter.reject.{name}"] = c.get(f"expert_filter.reject.{reason}", 0)

    scenario_s = gen_trace["scenario_s"]
    tail, tail_pct = _tail(scenario_s)
    run_wall = val("pipeline.run_generation")
    m.update({
        "pipeline.prepare_candidates.s": val("pipeline.prepare_candidates"),
        "pipeline.scenario_s.p50": statistics.median(scenario_s),
        "pipeline.scenario_s.tail": tail,
        "pipeline.scenario_s.tail_pct": tail_pct,
        "pipeline.scenario_s.count": len(scenario_s),
        "pipeline.sensor_stub.s": val("pipeline.sensor_stub"),
        "pipeline.export_dataset.s": val("pipeline.export_dataset"),
        "pipeline.export_bytes": c.get("export.bytes", 0),
        "pipeline.pool.busy_ratio": ratio(sum(scenario_s), workers * run_wall),
    })

    # self time by layer; a span's layer is the module prefix of its name
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            row["self_s"] for name, row in table.items() if name.split(".")[0] == layer
        )
    wall = val("cli.main")
    uncovered = val("cli.main", "self_s")
    m.update({
        "trace.generate_wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.uncovered_s": uncovered,
        "trace.coverage": ratio(wall - uncovered, wall),
        "trace.overhead_s": wall - untraced_wall,
        "trace.overhead_ratio": ratio(wall - untraced_wall, untraced_wall),
        "trace.spans": gen_trace["spans"],
    })
    for name, _ in PER_LAYER:
        if name.startswith("funnel."):
            m[name] = c.get(name, 0)
    return m


# ---------------------------------------------------------------------------
# One run


def run(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    count = workload["smoke_count"] if args.smoke else workload["count"]
    vocab = SMOKE_VOCAB if args.smoke else VOCAB
    size_key = f"{args.workload}-n{count}-k{vocab['k']}-m{vocab['samples']}"
    workdir = WORK / "runs" / f"{size_key}-s{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    corpus, vocab_path = workdir / "corpus", workdir / "vocab.json"
    trace = bool(args.trace)

    setup = _child(
        {
            "phase": "setup",
            "trace": trace,
            "argv": [
                ["gen-corpus", "--count", str(count), "--seed", str(args.seed), "--out", str(corpus)],
                ["build-vocab", "--k", str(vocab["k"]), "--samples", str(vocab["samples"]),
                 "--seed", str(vocab["seed"]), "--out", str(vocab_path)],
            ],
        },
        workdir,
        "setup",
        deadline,
    )

    def generate(i: int, traced: bool):
        out = workdir / f"out-{i}"
        argv = ["generate", "--corpus", str(corpus), "--vocab", str(vocab_path), "--out", str(out),
                "--seed", str(args.seed), *generate_flags(workload)]
        job = _child({"phase": "generate", "trace": traced, "argv": [argv]}, workdir, f"generate-{i}", deadline)
        job.update(check_outputs(out, args.seed, workload, count, job["ep_min"]))
        return job

    # untraced: jobs while the next one still fits in --seconds (at least one);
    # traced: an untraced job, then the traced one (two ~30 s jobs; a third
    # would risk the run's time limit in a slow spell of the VM)
    jobs, failures = [], []
    start = time.perf_counter()
    for i in itertools.count():
        try:
            jobs.append(generate(i, traced=trace and i == 1))
        except (RunFailed, OSError, ValueError, KeyError) as e:
            failures.append(f"job {i}: {e}")
        done, elapsed = i + 1, time.perf_counter() - start
        if trace:
            if done == 2:
                break
        elif elapsed * (done + 1) / done > args.seconds:
            break

    if len({json.dumps(j["digests"], sort_keys=True) for j in jobs}) > 1:
        failures.append("generate jobs of one run wrote different bytes")

    record = {}
    if jobs:
        record = {"digests": jobs[0]["digests"], "stats": jobs[0]["stats"]}
        traced_job = next((j for j in jobs if "trace" in j), None)
        if traced_job is not None:
            funnel = {k: v for k, v in traced_job["trace"]["counters"].items() if k.startswith("funnel.")}
            if (funnel.get("funnel.attempted"), funnel.get("funnel.accepted")) != (
                record["stats"]["attempted"],
                record["stats"]["accepted"],
            ):
                failures.append("traced funnel disagrees with stats.csv")
            record["funnel"] = funnel
        ref_key = f"{size_key}-s{args.seed}-{_source_digest()[:16]}"
        diffs = check_reference(ref_key, record)
        if diffs:
            failures.append(f"outputs differ from an earlier run at this seed: {diffs}")

    if not failures:
        shutil.rmtree(workdir)  # corpus, vocabulary and outputs; kept when a run fails
    return {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": trace,
        "count": count,
        "vocab": vocab,
        "workers": WORKERS,
        "env": {**setup["env"], "git_commit": _git_commit(), "source_sha256": _source_digest()},
        "setup": setup,
        "jobs": jobs,
        "attempted": done,
        "failures": failures,
        "record": record,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def end_to_end_metrics(r: dict) -> dict:
    jobs = r["jobs"]
    accepted = r["record"]["stats"]["accepted"]
    attempted = r["record"]["stats"]["attempted"]
    return {
        "samples_per_s": statistics.median(accepted / j["generate_s"] for j in jobs),
        "setup_s": r["setup"]["setup_s"],
        "cpu_s_per_sample": statistics.median(j["cpu_s"] / accepted for j in jobs),
        "peak_rss_mb": r["peak_rss_mb"],
        "accepted": accepted,
        "yield": accepted / attempted,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True,
                        help="'all' runs every workload in turn, each printing its own result line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        rest = [a for a in (argv if argv is not None else sys.argv[1:]) if a not in ("--workload", "all")]
        return max(main(["--workload", w, *rest]) for w in WORKLOADS)

    if not (Path("src") / "drivegen" / "cli.py").is_file():
        print("error: run from the root of a drivegen checkout (src/drivegen not found)", file=sys.stderr)
        return 2

    try:
        r = run(args)
    except RunFailed as e:
        print(f"error: set-up failed: {e}", file=sys.stderr)
        return 1
    for failure in r["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    untraced = [j["generate_s"] for j in r["jobs"] if "trace" not in j]
    traced = [j for j in r["jobs"] if "trace" in j]
    if not untraced or (r["trace"] and not traced):
        print("error: a generate job the run needs did not succeed", file=sys.stderr)
        return 1

    if r["trace"]:
        values = layer_metrics(r["setup"]["trace"], traced[0]["trace"], statistics.median(untraced), r["workers"])
        units = dict(PER_LAYER)
    else:
        values = end_to_end_metrics(r)
        units = dict(END_TO_END)

    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    saved = {k: v for k, v in r.items() if k not in ("setup", "jobs")}
    saved.update(metrics=values, setup_s=r["setup"]["setup_s"], setup_cpu_s=r["setup"]["cpu_s"],
                 generate_s=[j["generate_s"] for j in r["jobs"]],
                 generate_cpu_s=[j["cpu_s"] for j in r["jobs"]])
    name = f"{r['workload']}-s{r['seed']}-trace{int(r['trace'])}{'-smoke' if r['smoke'] else ''}-{stamp}.json"
    (results / name).write_text(json.dumps(saved, indent=1, sort_keys=True), encoding="utf-8")

    print(f"env: {json.dumps(saved['env'], sort_keys=True)}")
    print(f"workload: {r['workload']} seed={r['seed']} scenarios={r['count']} workers={r['workers']} "
          f"vocab=k{r['vocab']['k']}/{r['vocab']['samples']} jobs={len(r['jobs'])}")
    print(f"digests: {json.dumps(r['record']['digests'], sort_keys=True)}")
    print(f"stats: {json.dumps(r['record']['stats'], sort_keys=True)}")
    if "funnel" in r["record"]:
        print(f"funnel: {json.dumps(r['record']['funnel'], sort_keys=True)}")
    print(f"result file: {results / name}")
    # a job fails on its own; a run whose jobs disagree with each other or
    # with an earlier run at this seed fails as a whole
    job_failed = r["attempted"] - len(r["jobs"])
    print(json.dumps({
        "correct": not r["failures"],
        "attempted": r["attempted"],
        "failed": job_failed if len(r["failures"]) == job_failed else r["attempted"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
