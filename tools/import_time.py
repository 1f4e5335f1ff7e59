"""Time ``import ratgen.cli`` with no bytecode cache, in fresh interpreters.

Runs ``python -X importtime -c "import ratgen.cli"`` with
``PYTHONDONTWRITEBYTECODE=1``, one interpreter after another, so every
``ratgen`` module is compiled from source each time, as in a checkout with
no ``__pycache__``.  Prints the median wall time of a whole interpreter run
and, for each ``ratgen`` module, the median of its self time as
``-X importtime`` reports it.  The benchmark's ``setup_s`` spawns a worker
that pays the same import, so this shows a change's import cost before a
benchmark run.  Run from anywhere:

    python tools/import_time.py [SRC_DIR]

SRC_DIR, the directory that holds the ``ratgen`` package, defaults to this
checkout's ``src``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"
RUNS = 15


def one_run(src: Path) -> tuple[float, dict[str, int]]:
    """Wall seconds of one interpreter run, and each ratgen module's self
    time in microseconds."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(src))
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ratgen.cli"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    wall = perf_counter() - start
    selves: dict[str, int] = {}
    # each line reads "import time: <self us> | <cumulative us> | <name>"
    for line in done.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[2].strip().startswith("ratgen"):
            selves[fields[2].strip()] = int(fields[0])
    return wall, selves


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else SRC
    walls, selves = [], {}
    for _ in range(RUNS):
        wall, run = one_run(src)
        walls.append(wall)
        for name, us in run.items():
            selves.setdefault(name, []).append(us)
    print(f"{f'wall (median of {RUNS})':24} {statistics.median(walls) * 1e3:8.1f} ms")
    for name, times in sorted(selves.items()):
        print(f"{name:24} {statistics.median(times) / 1e3:8.1f} ms self")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
