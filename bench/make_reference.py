"""Capture the reference stdout digests that every benchmark job is checked against.

Run from the repository root, at the commit whose output is the reference:

    python3 bench/make_reference.py

It runs every command line in the ``catalog_deep`` and ``power_at`` pools
through ``ratgen.cli.main`` and records the SHA-256 of its stdout.  For
``random_verify`` it runs the first jobs of several seeds, requires them
all to print the same text, and records that text's digest under ``*``.
The ``--at`` values of ``power_at`` are checked against the plain-integer
recurrence before anything is written.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import ratgen.cli  # noqa: E402
import workloads  # noqa: E402
from worker import check  # noqa: E402


def digest(job: workloads.Job) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = ratgen.cli.main(list(job.argv))
    text = out.getvalue()
    sha = hashlib.sha256(text.encode()).hexdigest()
    reason = check({"digest": sha, "values": job.values}, rc, None, text)
    if reason is not None:
        raise SystemExit(f"{reason}: {job.argv}")
    return sha


def main() -> int:
    reference = {name: {job.key: digest(job) for job in pool()}
                 for name, pool in workloads.POOLS.items()}
    verify = {digest(job) for seed in range(1, 6)
              for job in workloads.random_verify(seed)[:40]}
    if len(verify) != 1:
        raise SystemExit("random_verify jobs printed different outputs")
    reference["random_verify"] = {"*": verify.pop()}
    path = BENCH_DIR / "reference.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    tmp.replace(path)
    print(f"wrote {sum(map(len, reference.values()))} digests to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
