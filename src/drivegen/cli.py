"""Command-line surface: corpus synthesis, vocabulary build, dataset
generation, standalone metric evaluation, scaling fits, and stats summaries.

Exit codes: 0 success, 1 runtime error (one machine-parseable `error:` line
on stderr), 2 usage error (argparse).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import PipelineConfig, config_hash, load_config, save_config
from .errors import DrivegenError, FitError, ParseError, SchemaError
from .metrics import aggregate_epdms, compute_submetrics
from .pipeline import export_dataset, run_generation
from .reactive import MODES, rollout
from .scaling import ScalingPoint, compare_fits, emit_curve, fit_log_quadratic
from .scenario import (
    FRAME_EGO_LOCAL,
    FRAME_GLOBAL,
    Scenario,
    Trajectory,
    _array,
    _number,
    _require_keys,
    dump_json_canonical,
    load_json,
    load_scenario,
    read_json,
    read_text,
    track_from_json,
    write_scenario,
)
from .synth import corpus_config_for_count, generate_synthetic_corpus
from .vocab import default_vocabulary, load_vocabulary, save_vocabulary


def _load_corpus(corpus_dir: str) -> list[Scenario]:
    paths = sorted(Path(corpus_dir).glob("*.json"))
    if not paths:
        raise ParseError(f"no scenario files found in {corpus_dir}")
    return [load_scenario(p) for p in paths]


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    config = corpus_config_for_count(
        args.count, t_history=args.t_history, t_horizon=args.t_horizon, dt=args.dt
    )
    corpus = generate_synthetic_corpus(config, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for s in corpus:
        write_scenario(s, out / f"{s.id}.json")
    print(f"wrote {len(corpus)} scenarios to {out}")
    return 0


def cmd_build_vocab(args: argparse.Namespace) -> int:
    vocab = default_vocabulary(
        seed=args.seed,
        horizon=args.horizon,
        dt=args.dt,
        size=args.k,
        source_count=args.samples,
    )
    save_vocabulary(vocab, args.out)
    print(f"wrote vocabulary of {vocab.size} entries (horizon {vocab.horizon}) to {args.out}")
    return 0


def _generate_config(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    overrides = {}
    if args.expert is not None:
        overrides["expert_kind"] = args.expert
    if args.rounds is not None:
        overrides["rounds"] = args.rounds
    if args.per_round is not None:
        overrides["per_round"] = args.per_round
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.non_reactive:
        overrides["reactive"] = False
    return replace(config, **overrides) if overrides else config


def cmd_generate(args: argparse.Namespace) -> int:
    config = _generate_config(args)
    corpus = _load_corpus(args.corpus)
    vocab = load_vocabulary(args.vocab) if args.vocab else None
    # the scenarios run while export_dataset writes their records
    records, stats = run_generation(corpus, config, vocab=vocab, workers=args.workers, stream=True)
    files = export_dataset(records, args.out, stats, config, corpus_ids=[s.id for s in corpus])
    total = stats[-1].cumulative_accepted if stats else 0
    print(
        f"accepted {total} samples over {config.rounds} rounds "
        f"(expert={config.expert_kind}, reactive={config.reactive})"
    )
    for f in files:
        print(f"  {f}")
    return 0


def _trajectory_from_json(data) -> Trajectory:
    if not isinstance(data, dict) or set(data.keys()) - {"dt", "frame", "states"}:
        raise SchemaError("expected fields dt, frame, states")
    frame = data.get("frame", FRAME_GLOBAL)
    if frame not in (FRAME_GLOBAL, FRAME_EGO_LOCAL):
        raise SchemaError(f"frame: expected '{FRAME_GLOBAL}' or '{FRAME_EGO_LOCAL}', got {frame!r}")
    states = _array(data.get("states"), "states")
    if len(states) < 2:
        raise SchemaError(f"states: expected at least 2 states, got {len(states)}")
    dt = _number(data.get("dt"), "dt")
    return Trajectory(dt, track_from_json(states, "states"), frame)


def cmd_eval(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    traj = load_json(args.trajectory, _trajectory_from_json)
    config = load_config(args.config) if args.config else PipelineConfig()
    t_start = args.t_start if args.t_start is not None else scenario.anchor_frame
    horizon = min(scenario.t_horizon, len(traj) - 1)
    ctx = config.sim_context
    scene = rollout(scenario, traj, t_start, horizon, mode=args.mode, ctx=ctx)
    combined = Trajectory(scenario.dt, np.concatenate(
        [scenario.ego_log.track[:, : t_start + 1], scene.ego.data[:, 0, 1:]], axis=1
    ))
    sub = compute_submetrics(scene, scenario, combined, ctx)
    report = {
        "scenario_id": scenario.id,
        "submetrics": sub.as_dict(),
        "epdms": aggregate_epdms(sub, ctx.weights),
        "stage_scores": None,
    }
    text = dump_json_canonical(report)
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def _csv_rows(path: str | Path) -> csv.DictReader:
    """The rows of a CSV input file, keyed by its header."""
    return csv.DictReader(io.StringIO(read_text(path)))


def _read_points_csv(path: str) -> list[ScalingPoint]:
    points = []
    reader = _csv_rows(path)
    if reader.fieldnames is None or not {"n", "s"} <= set(reader.fieldnames):
        raise FitError(f"{path}: expected a CSV header with columns n,s")
    for i, row in enumerate(reader, start=2):
        try:
            n, s = float(row["n"]), float(row["s"])
        except (TypeError, ValueError) as e:
            raise FitError(f"{path}: row {i}: {e}") from e
        if n <= 0:
            raise FitError(f"{path}: row {i}: n must be positive, got {n}")
        points.append(ScalingPoint(n=n, s=s))
    return points


def cmd_fit_scaling(args: argparse.Namespace) -> int:
    runs = {}
    for spec in args.points:
        label, _, path = spec.rpartition("=")
        if not label:
            label = Path(path).stem
        runs[label] = _read_points_csv(path)
    report = compare_fits(runs)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(dump_json_canonical(report), encoding="utf-8")
    for label, points in runs.items():
        fit = fit_log_quadratic(points)
        n_min = min(p.n for p in points)
        n_max = max(p.n for p in points)
        rows = emit_curve(fit, (n_min, n_max), args.curve_samples)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([["n", "s_fit", "s_lo", "s_hi"], *rows])
        (out / f"curve_{label}.csv").write_text(buf.getvalue(), encoding="utf-8")
    sys.stdout.write(dump_json_canonical(report))
    return 0


_MANIFEST_KEYS = {"config_hash", "corpus_ids", "expert_kind", "master_seed", "reactive", "tool_version"}
_STATS_COLUMNS = {"round", "attempted", "accepted", "cumulative_accepted"}


def cmd_stats(args: argparse.Namespace) -> int:
    dataset_dir = Path(args.dataset)
    manifest_path = dataset_dir / "manifest.json"
    manifest = read_json(manifest_path)
    _require_keys(manifest, _MANIFEST_KEYS, str(manifest_path))
    corpus_ids = _array(manifest["corpus_ids"], "corpus_ids")
    stats_path = dataset_dir / "stats.csv"
    reader = _csv_rows(stats_path)
    missing = sorted(_STATS_COLUMNS - set(reader.fieldnames or ()))
    if missing:
        raise SchemaError(f"{stats_path}: missing column '{missing[0]}'")
    rows = list(reader)
    records = read_text(dataset_dir / "dataset.jsonl")
    n_lines = records.count("\n") + (records[-1:] not in ("", "\n"))  # a last unended line counts
    print(f"tool_version:  {manifest['tool_version']}")
    print(f"config_hash:   {manifest['config_hash']}")
    print(f"master_seed:   {manifest['master_seed']}")
    print(f"scenarios:     {len(corpus_ids)}")
    for row in rows:
        print(
            f"round {row['round']}: attempted={row['attempted']} "
            f"accepted={row['accepted']} cumulative={row['cumulative_accepted']}"
        )
    print(f"dataset records: {n_lines}")
    return 0


def cmd_show_config(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else PipelineConfig()
    if args.out:
        save_config(config, args.out)
    sys.stdout.write(dump_json_canonical({"config_hash": config_hash(config)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivegen",
        description="Deterministic driving-scenario simulation and data generation",
    )
    parser.add_argument("--version", action="version", version=f"drivegen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="synthesize a scenario corpus")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--t-history", type=int, default=20)
    p.add_argument("--t-horizon", type=int, default=40)
    p.add_argument("--dt", type=float, default=0.1)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("build-vocab", help="build a clustered maneuver vocabulary")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=16384)
    p.add_argument("--horizon", type=int, default=40)
    p.add_argument("--dt", type=float, default=0.1)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("generate", help="run the two-stage generation pipeline")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--vocab", default=None, help="vocabulary JSON (default: built from config)")
    p.add_argument("--expert", choices=("recovery", "planner"), default=None)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--per-round", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--non-reactive", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", help="score one trajectory against a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--trajectory", required=True)
    p.add_argument("--mode", choices=MODES, default="reactive")
    p.add_argument("--t-start", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fit-scaling", help="fit log-quadratic scaling curves")
    p.add_argument(
        "--points",
        action="append",
        required=True,
        metavar="[LABEL=]CSV",
        help="points CSV with columns n,s; repeatable",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--curve-samples", type=int, default=64)
    p.set_defaults(func=cmd_fit_scaling)

    p = sub.add_parser("stats", help="summarize an exported dataset")
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("show-config", help="print the effective config hash")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_show_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DrivegenError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
