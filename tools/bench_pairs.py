"""Alternating before/after pairs of perfbench runs, summarised as a BENCH file.

Usage (from anywhere):

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json \
        --group planner:2026:10 --group planner:7:3 \
        [--claim planner:2026:samples_per_s] [--what TEXT]

Each ``--group WORKLOAD:SEED:PAIRS`` runs
``python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0``
from the root of each checkout (the 30 s run of ``BENCHMARK.json``), once
per side and pair. The side that goes first alternates from pair to pair,
parent first in the first pair. Every run's last line of standard output
(perfbench's JSON result) is kept; a run that exits non-zero or prints no
result line counts as failed.

Per group and end-to-end metric the file gives each side's runs and
``perfbench/report.py``'s summary of them (median, ``statistics.quantiles(n=4)``
quartiles and spread), the pairs the change wins and ties
(by the metric's ``better`` in the change's ``BENCHMARK.json``), the
parent's interquartile range and the ratio of the medians. ``--claim`` names
the metric whose gain the change claims; the file then says whether it won
at least 9 pairs in 10 and whether its median moved by more than the
parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import report  # noqa: E402

SIDES = ("parent", "change")
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0"


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench run in `checkout`: its last stdout line as parsed JSON,
    plus the `env:` line, or {"error": ...} when the run did not finish."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "30", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(l[5:]) for l in lines if l.startswith("env: ")), None)
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}", "env": env}
    try:
        return {"result": json.loads(lines[-1]), "env": env}
    except json.JSONDecodeError:
        return {"error": f"no result line: {lines[-1][:200]}", "env": env}


def summarize(results: dict[str, list[dict | None]], first_in_pair: list[str], better: dict[str, str]) -> dict:
    """One group of the BENCH file from each side's parsed result lines, in
    pair order (None for a run that failed): per metric the runs, median,
    quartiles, change_wins and ties over the pairs where both sides ran,
    parent_iqr and median_ratio_change_over_parent."""
    ok = [i for i in range(len(first_in_pair)) if all(results[s][i] is not None for s in SIDES)]
    values = {s: [{"seed": None, "metrics": {name: r["metrics"][name]["value"] for name in better}}
                  for r in results[s] if r is not None] for s in SIDES}
    stats = {s: report.summarize(values[s])["metrics"] for s in SIDES if values[s]}
    metrics = {}
    for name, direction in better.items():
        entry = {"better": direction}
        for side in stats:
            entry[side] = {"runs": [v["metrics"][name] for v in values[side]], **stats[side][name]}
        pairs = [(results["parent"][i]["metrics"][name]["value"], results["change"][i]["metrics"][name]["value"])
                 for i in ok]
        sign = 1 if direction == "higher" else -1
        entry["change_wins"] = sum(sign * (c - p) > 0 for p, c in pairs)
        entry["ties"] = sum(c == p for p, c in pairs)
        if "q3" in entry.get("parent", {}):
            entry["parent_iqr"] = entry["parent"]["q3"] - entry["parent"]["q1"]
        if "change" in entry and entry.get("parent", {}).get("median"):
            entry["median_ratio_change_over_parent"] = entry["change"]["median"] / entry["parent"]["median"]
        metrics[name] = entry
    return {
        "pairs": len(first_in_pair),
        "first_in_pair": first_in_pair,
        "failed_jobs": {s: sum(r["failed"] for r in results[s] if r is not None) for s in SIDES},
        "failed_runs": {s: sum(r is None for r in results[s]) for s in SIDES},
        "all_correct": all(r is not None and r["correct"] for s in SIDES for r in results[s]),
        "metrics": metrics,
    }


def verdict(group: dict, metric: str) -> dict:
    """Whether the change won `metric` in at least 9 of every 10 pairs and its
    median moved the better way by more than the parent's interquartile range."""
    m = group["metrics"][metric]
    sign = 1 if m["better"] == "higher" else -1
    return {
        "wins": m["change_wins"],
        "pairs": group["pairs"],
        "wins_at_least_9_of_10": m["change_wins"] * 10 >= 9 * group["pairs"],
        "median_gain_exceeds_parent_iqr": sign * (m["change"]["median"] - m["parent"]["median"]) > m["parent_iqr"],
    }


def parse_group(text: str) -> tuple[str, int, int]:
    workload, seed, pairs = text.split(":")
    return workload, int(seed), int(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--group", type=parse_group, action="append", required=True,
                        metavar="WORKLOAD:SEED:PAIRS")
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:SEED:METRIC")
    parser.add_argument("--what", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    envs: dict[str, dict] = {}
    groups = []
    for workload, seed, pairs in args.group:
        results: dict[str, list] = {s: [] for s in SIDES}
        lines: dict[str, list] = {s: [] for s in SIDES}
        first_in_pair = []
        for i in range(pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            first_in_pair.append(order[0])
            for side in order:
                run = run_once(getattr(args, side), workload, seed)
                if run["env"]:
                    envs.setdefault(side, run["env"])
                results[side].append(run.get("result"))
                lines[side].append(run.get("result") or run["error"])
                print(f"{workload} s{seed} pair {i + 1}/{pairs} {side}: "
                      f"{json.dumps(run.get('result', {}).get('metrics', run.get('error')))}", flush=True)
        group = {"workload": workload, "seed": seed, **summarize(results, first_in_pair, better),
                 "result_lines": lines}
        groups.append(group)

    env = dict(envs.get("parent") or envs.get("change") or {})
    commits = {s: {k: (envs.get(s) or {}).get(k) for k in ("git_commit", "source_sha256")} for s in SIDES}
    for k in ("git_commit", "source_sha256"):
        env.pop(k, None)
    env.update(platform=platform.platform(), checkouts=commits)
    out = {
        "what": args.what,
        "command": f"{COMMAND}, run from the root of each checkout, in pairs alternating which side goes first",
        "environment": env,
        "quartiles": "perfbench/report.py's summarize: statistics.quantiles(n=4) (exclusive method) "
                     "over each side's runs",
        "groups": groups,
        "note": "Every run made is listed.",
    }
    if args.claim:
        workload, seed, metric = args.claim.split(":")
        group = next(g for g in groups if g["workload"] == workload and g["seed"] == int(seed))
        out["claim"] = {"workload": workload, "seed": int(seed), "metric": metric, **verdict(group, metric)}
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
