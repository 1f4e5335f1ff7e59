"""Run the benchmark in alternating pairs on two trees and summarise them.

For every workload of ``BENCHMARK.json``, each pair runs ``python3
bench/run.py --workload W --seed S --seconds T --trace 0``, T being its
``run_seconds``, once in the parent tree and once in the change tree: one
seed per pair, the side that runs first alternating by pair, one run at a
time, with ``PYTHONDONTWRITEBYTECODE=1``.  It refuses to start while either
tree holds ``src/ratgen/__pycache__``, since a bytecode cache on one side
only skews ``setup_s``.  Every run is written to ``--out`` as it ends, in
the shape of the ``BENCH_<pr>.json`` files: ``about`` and ``runs``, each run
with its ``workload``, ``seed``, ``side``, ``pair`` and the final JSON line
of ``bench/run.py`` as ``result``.

For each workload and end-to-end metric of ``BENCHMARK.json`` it then
prints each side's median and quartiles, the pairs the change won (its
``better`` direction decides; ties count for neither side) and whether the
gain rule holds: the change wins at least 9 of every 10 pairs, and its
median is better than the parent's by more than the parent's interquartile
range.  The script only reads ``bench/`` and ``BENCHMARK.json``.  Run from
anywhere:

    python tools/bench_pairs.py --parent DIR --change DIR --out FILE \\
        [--seeds 230-239] [--about TEXT]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(runs: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One row per workload and end-to-end metric of the paired runs.

    A pair is the parent run and the change run with the same workload and
    ``pair``; a pair that lacks a side, or a metric, is left out.  Each row
    holds both sides' quartiles, the pairs the change won and the number of
    pairs, and whether the gain rule holds.
    """
    paired: dict[str, dict[int, dict[str, dict]]] = {}
    for run in runs:
        sides = paired.setdefault(run["workload"], {}).setdefault(run["pair"], {})
        sides[run["side"]] = run["result"]["metrics"]
    rows = []
    for workload, pairs in paired.items():
        for metric in end_to_end:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            values = [
                (sides["parent"][name]["value"], sides["change"][name]["value"])
                for _, sides in sorted(pairs.items())
                if all(side in sides and name in sides[side] for side in SIDES)
            ]
            if not values:
                continue
            parent = quartiles([p for p, _ in values])
            change = quartiles([c for _, c in values])
            won = sum(sign * (c - p) > 0 for p, c in values)
            gap = sign * (change[1] - parent[1])
            rows.append({
                "workload": workload, "metric": name, "better": metric["better"],
                "parent": parent, "change": change, "won": won, "pairs": len(values),
                "rule": 10 * won >= 9 * len(values) and gap > parent[2] - parent[0],
            })
    return rows


def format_row(row: dict) -> str:
    def side(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    change = (row["change"][1] / row["parent"][1] - 1) * 100 if row["parent"][1] else 0.0
    return (f"{row['workload']:14} {row['metric']:16} parent {side(row['parent'])}"
            f"  change {side(row['change'])}  {change:+.1f}%"
            f"  won {row['won']}/{row['pairs']}"
            f"  rule {'holds' if row['rule'] else 'fails'}")


def seed_list(text: str) -> list[int]:
    """``230-239`` or ``1,5,9`` (or a mix) as a list of seeds."""
    seeds = []
    for piece in text.split(","):
        low, _, high = piece.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_one(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("230-239"))
    parser.add_argument("--about", default="")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if (tree / "src" / "ratgen" / "__pycache__").exists():
            print(f"error: {tree} holds src/ratgen/__pycache__; remove it first",
                  file=sys.stderr)
            return 2
    record: dict = {"about": args.about, "runs": []}
    for workload in (w["name"] for w in spec["workloads"]):
        for pair, seed in enumerate(args.seeds):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result = run_one(trees[side], workload, seed, spec["run_seconds"])
                record["runs"].append({"workload": workload, "seed": seed,
                                       "side": side, "pair": pair, "result": result})
                args.out.write_text(json.dumps(record, indent=1) + "\n")
                print(f"{workload} seed {seed} {side}: "
                      f"{result['metrics']['jobs_per_ref_s']['value']:.1f} jobs/ref_s",
                      file=sys.stderr)
    for row in summary(record["runs"], spec["end_to_end"]):
        print(format_row(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
