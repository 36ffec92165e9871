"""Spread and regression checks over saved perfbench results.

Results are the files ``run.py --out`` writes, one per run. Two uses:

    python3 perfbench/compare.py spread RESULT.json...
    python3 perfbench/compare.py compare --base BASE.json... --new NEW.json...

``spread`` groups runs by workload and prints, for each end-to-end
metric, the median and the interquartile range as a share of the
median (``statistics.quantiles(values, n=4)``); it exits 1 if a spread
other than ``setup_s``'s exceeds the metric's bound in BENCHMARK.json.

``compare`` flags every (workload, metric) whose median in the new set
is worse than the base median by more than the metric's bound, and
exits 1 if any is. Both exit 3, without a verdict, when the runs come
from machines or software with different environment fingerprints —
such numbers are not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[Path]) -> dict[str, list[dict]]:
    """Untraced results grouped by workload."""
    runs: dict[str, list[dict]] = {}
    for path in paths:
        run = json.loads(path.read_text())
        if run["detail"]["trace"]:
            continue
        runs.setdefault(run["detail"]["workload"], []).append(run)
    return runs


def fingerprints(*groups: dict[str, list[dict]]) -> list[str]:
    seen = {json.dumps(run["detail"]["fingerprint"], sort_keys=True)
            for runs in groups for rs in runs.values() for run in rs}
    return sorted(seen)


def values(runs: list[dict], metric: str) -> list[float]:
    return [run["result"]["metrics"][metric]["value"] for run in runs]


def iqr_share(vals: list[float]) -> float:
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse *new* is than *base*, as a share of *base*."""
    change = (new - base) / base
    return change if better == "lower" else -change


def spread(runs: dict[str, list[dict]], metrics: list[dict]) -> int:
    status = 0
    for workload, rs in sorted(runs.items()):
        incorrect = sum(not r["result"]["correct"] for r in rs)
        print(f"{workload}: {len(rs)} runs, {incorrect} incorrect")
        status |= incorrect > 0
        for m in metrics:
            vals = values(rs, m["name"])
            share = iqr_share(vals)
            over = share > m["bound"] and m["name"] != "setup_s"
            mark = ("OVER BOUND" if over else
                    "over bound/3" if share > m["bound"] / 3 else "ok")
            print(f"  {m['name']:<22} median {statistics.median(vals):12.5g}"
                  f" {m['unit']:<6} IQR/median {share:7.2%}"
                  f"  bound {m['bound']:.0%}  {mark}")
            status |= over
    return int(status)


def verdicts(base: dict[str, list[dict]], new: dict[str, list[dict]],
             metrics: list[dict]) -> dict[tuple[str, str], dict]:
    """Per (workload, metric): both medians, how much worse, the verdict."""
    out = {}
    for workload in sorted(set(base) & set(new)):
        for m in metrics:
            b = statistics.median(values(base[workload], m["name"]))
            n = statistics.median(values(new[workload], m["name"]))
            worse = worse_by(b, n, m["better"])
            out[workload, m["name"]] = {
                "base": b, "new": n, "worse_by": worse, "bound": m["bound"],
                "unit": m["unit"], "worse": worse > m["bound"],
            }
    return out


def compare(base: dict[str, list[dict]], new: dict[str, list[dict]],
            metrics: list[dict]) -> int:
    status = 0
    for workload in sorted(set(base) ^ set(new)):
        print(f"{workload}: present in only one set, not compared")
        status = 1
    for workload in sorted(set(base) & set(new)):
        bad = sum(not r["result"]["correct"] for r in new[workload])
        print(f"{workload}: base {len(base[workload])} runs, "
              f"new {len(new[workload])} runs, {bad} incorrect")
        status |= bad > 0
    for (workload, name), v in verdicts(base, new, metrics).items():
        print(f"  {workload:<15} {name:<22} base {v['base']:12.5g}  "
              f"new {v['new']:12.5g} {v['unit']:<6} worse by "
              f"{v['worse_by']:+8.2%} (bound {v['bound']:.0%})  "
              f"{'WORSE' if v['worse'] else 'ok'}")
        status |= v["worse"]
    return int(status)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("results", nargs="+", type=Path)
    cp = sub.add_parser("compare")
    cp.add_argument("--base", nargs="+", type=Path, required=True)
    cp.add_argument("--new", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if args.mode == "spread":
        groups = [load(args.results)]
    else:
        groups = [load(args.base), load(args.new)]
    prints = fingerprints(*groups)
    if len(prints) > 1:
        print("environment fingerprints differ; the runs are not "
              "comparable:")
        for fp in prints:
            print(f"  {fp}")
        return 3
    if args.mode == "spread":
        return spread(groups[0], metrics)
    return compare(groups[0], groups[1], metrics)


if __name__ == "__main__":
    sys.exit(main())
