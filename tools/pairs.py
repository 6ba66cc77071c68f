"""Run the benchmark from two checkouts in alternating pairs and summarize.

Pair k runs `python3 bench/run.py --workload W --seed S --trace 0 --seconds N`
in the parent checkout first when k is odd and in the change checkout first
when k is even. Both sides run with one environment, built once from this
process's, since a few bytes more of it can move `peak_rss_mb` (glibc's mmap
threshold), and from checkout paths of one length, since the child's argv
holds its path. Each side's result line goes to stderr as it comes; stdout
gets one JSON object {"runs": ..., "summary": ..., "gain_resolved": ...} keyed
"W@seedS/trace0", in the shape of the BENCH_*.json files: per side the result
of each pair; per metric of BENCHMARK.json the medians, the quartiles (linear
interpolation) and the number of pairs in which the change was better or
worse; and per metric whether those numbers resolve a gain (gain_resolved).

Usage: python3 tools/pairs.py PARENT CHANGE --workload W [--seed S]
                              [--seconds N] [--pairs K] > pairs.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def sides_in_order(pair: int) -> tuple[str, str]:
    """Odd pairs run the parent first, even pairs the change."""
    return SIDES if pair % 2 else SIDES[::-1]


def last_json_line(stdout: str) -> dict:
    """The result object: the last line of bench/run.py's stdout."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("bench/run.py printed nothing")
    return json.loads(lines[-1])


def run_side(checkout: Path, workload: str, seed: int, seconds: float, env: dict) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0", "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    try:
        return last_json_line(proc.stdout)
    except ValueError:
        raise SystemExit(f"{checkout}: bench/run.py exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}") from None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(median), float(q3)


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per metric, with `better` mapping each metric name to "lower" or
    "higher": both sides' medians and quartiles, and the pairs in which the
    change was better or worse (a tie counts as neither)."""
    parent, change = runs["parent"], runs["change"]
    out = {"pairs": len(parent),
           "all_correct": all(r["result"]["correct"] for r in parent + change),
           "failed": [sum(r["result"]["failed"] for r in side) for side in (parent, change)]}
    for name, direction in better.items():
        values = {side: [r["result"]["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        sign = 1 if direction == "higher" else -1
        gains = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        stats = {}
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            stats[f"{side}_median"] = round(median, 6)
            stats[f"{side}_q1_q3"] = [round(q1, 6), round(q3, 6)]
        stats["pairs_change_better"] = sum(g > 0 for g in gains)
        stats["pairs_change_worse"] = sum(g < 0 for g in gains)
        out[name] = stats
    return out


def gain_resolved(stats: dict, pairs: int) -> bool:
    """Whether one metric's summary shows a gain: over at least ten pairs, the
    change is better in at least nine tenths of them, ties counting for
    neither, and the medians differ by more than the distance between the
    parent's quartiles."""
    q1, q3 = stats["parent_q1_q3"]
    return (pairs >= 10 and 10 * stats["pairs_change_better"] >= 9 * pairs
            and abs(stats["change_median"] - stats["parent_median"]) > q3 - q1)


def main(argv: list[str]) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(checkouts["parent"])) != len(str(checkouts["change"])):
        print("warning: the checkout paths differ in length, and with them the "
              "child's argv", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    env = dict(os.environ)
    runs = {side: [] for side in SIDES}
    for pair in range(1, args.pairs + 1):
        for side in sides_in_order(pair):
            result = run_side(checkouts[side], args.workload, args.seed, args.seconds, env)
            runs[side].append({"pair": pair, "first": sides_in_order(pair)[0], "result": result})
            print(json.dumps({"pair": pair, "side": side, "result": result}), file=sys.stderr,
                  flush=True)
    key = f"{args.workload}@seed{args.seed}/trace0"
    summary = summarize(runs, better)
    verdict = {name: gain_resolved(summary[name], args.pairs) for name in better}
    print(json.dumps({"runs": {key: runs}, "summary": {key: summary},
                      "gain_resolved": {key: verdict}}, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
