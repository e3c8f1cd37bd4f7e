"""Summarize saved benchmark results: spread across seeds and exact agreement.

Usage: python3 perfbench/report.py [--since STAMP] [--seeds 2026,7] [--json OUT] [RESULT_DIR]

For each workload it prints, per metric, the median, the quartiles and the
spread (distance between the quartiles as a share of the median), as
``statistics.quantiles(values, n=4)`` gives them, next to the end-to-end
metric's bound from BENCHMARK.json. Untraced (end-to-end) and traced
(per-layer) runs are summarized separately. Runs of one workload at one seed
must agree exactly on output digests, stats and funnel counters; the script
lists disagreements and exits 1 if there are any.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(result_dir: Path, since: str, seeds: set[int] | None) -> list[dict]:
    runs = []
    for path in sorted(result_dir.glob("*.json")):
        if path.stem.rsplit("-", 1)[-1] < since:
            continue
        r = json.loads(path.read_text(encoding="utf-8"))
        if not r["smoke"] and (seeds is None or r["seed"] in seeds):
            runs.append(r)
    return runs


def summarize(runs: list[dict]) -> dict:
    out = {"runs": len(runs), "seeds": sorted({r["seed"] for r in runs}), "metrics": {}}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        if len(values) < 2:
            out["metrics"][name] = {"median": values[0]}
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        out["metrics"][name] = {
            "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
        }
    return out


def disagreements(runs: list[dict]) -> list[str]:
    by_seed = defaultdict(list)
    for r in runs:
        by_seed[(r["workload"], r["seed"])].append(r["record"])
    found = []
    for (workload, seed), records in sorted(by_seed.items()):
        for field in ("digests", "stats", "funnel"):
            seen = {json.dumps(rec[field], sort_keys=True) for rec in records if field in rec}
            if len(seen) > 1:
                found.append(f"{workload} seed {seed}: {field} differs across {len(records)} runs")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("result_dir", nargs="?", default=str(HERE / ".work" / "results"))
    parser.add_argument("--since", default="", help="only results stamped at or after this (YYYYmmddTHHMMSS)")
    parser.add_argument("--seeds", default=None, help="comma-separated seeds to include")
    parser.add_argument("--json", default=None, help="also write the summary to this file")
    args = parser.parse_args(argv)

    seeds = {int(s) for s in args.seeds.split(",")} if args.seeds else None
    runs = load(Path(args.result_dir), args.since, seeds)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"env": runs[-1]["env"] if runs else {}, "end_to_end": {}, "per_layer": {}}
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        groups = defaultdict(list)
        for r in runs:
            if r["trace"] == trace:
                groups[r["workload"]].append(r)
        for workload, group in sorted(groups.items()):
            s = summary[section][workload] = summarize(group)
            print(f"{workload} ({section}): {s['runs']} runs, seeds {s['seeds']}")
            for name, m in s["metrics"].items():
                line = f"  {name:48s} median {m['median']:12.6g}"
                if "spread" in m:
                    line += f"  q1 {m['q1']:12.6g}  q3 {m['q3']:12.6g}  spread {m['spread']:7.4f}"
                    if name in bounds:
                        b = bounds[name]
                        verdict = "ok" if m["spread"] < b / 3 else ("within bound" if m["spread"] <= b else "OVER")
                        line += f"  bound {b} {verdict}"
                print(line)

    found = disagreements(runs)
    summary["disagreements"] = found
    for d in found:
        print(f"DISAGREE {d}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
