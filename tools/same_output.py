"""Check that two trees print the same CLI output on the benchmark's commands.

For each tree, one child process with ``PYTHONDONTWRITEBYTECODE=1`` imports
that tree's ``ratgen.cli`` and runs every command of the corpus through its
``main``, one after another, printing one JSON line per command: its argv,
exit code and the SHA-256 of its stdout and of its stderr.  The tool then
prints the argv of each command whose records differ between the trees and
a count, and exits 1 if any differ, 0 otherwise.

The corpus is every job of ``catalog_pool()`` and ``power_pool()`` in
``bench/workloads.py``, and the random_verify jobs of each seed, each with
``--oracle all`` and with each single oracle, at -N 24 and at -N 7.  The
script only reads ``bench/``.  Run from anywhere:

    python tools/same_output.py --parent DIR --change DIR [--seeds 1-3]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from bench_pairs import seed_list

BENCH = Path(__file__).resolve().parents[1] / "bench"
ORACLES = ("all", "geometric", "multinomial", "convolution", "residual")
ORDERS = ("24", "7")
# run in each tree's interpreter: commands arrive on stdin, one JSON argv a line
CHILD = """
import hashlib, io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from ratgen.cli import main

for line in sys.stdin:
    argv = json.loads(line)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the command line
            code = exc.code
    sha = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
    print(json.dumps({"argv": argv, "code": code, "stdout": sha[0], "stderr": sha[1]}),
          flush=True)
"""


def corpus(seeds: list[int]) -> list[list[str]]:
    """The command lines both trees run, in order."""
    sys.path.insert(0, str(BENCH))
    import workloads
    commands = [list(job.argv) for job in workloads.catalog_pool() + workloads.power_pool()]
    for seed in seeds:
        for job in workloads.random_verify(seed):
            argv = list(job.argv)
            for order in ORDERS:
                argv[argv.index("-N") + 1] = order
                for oracle in ORACLES:
                    argv[argv.index("--oracle") + 1] = oracle
                    commands.append(list(argv))
    return commands


def records(tree: Path, commands: list[list[str]]) -> list[dict]:
    """One record per command, from one child process run in ``tree``."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD], check=True, capture_output=True,
        text=True, input="".join(json.dumps(argv) + "\n" for argv in commands),
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src")),
    )
    return [json.loads(line) for line in done.stdout.splitlines()]


def differences(parent: list[dict], change: list[dict]) -> list[list[str]]:
    """The argv of each command whose records differ, parent's order first;
    a command that only one side ran differs."""
    sides = [{json.dumps(r["argv"]): r for r in side} for side in (parent, change)]
    keys = list(sides[0]) + [key for key in sides[1] if key not in sides[0]]
    return [json.loads(key) for key in keys if sides[0].get(key) != sides[1].get(key)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-3"))
    args = parser.parse_args(argv)
    commands = corpus(args.seeds)
    differ = differences(*(records(tree.resolve(), commands)
                           for tree in (args.parent, args.change)))
    for command in differ:
        print("differs:", json.dumps(command))
    print(f"{len(commands)} commands, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
