"""Benchmark child process: one closed-loop client calling ``ratgen.cli.main``.

Started by ``run.py`` with the checkout root as its working directory.  It
imports ``ratgen.cli`` from ``src/``, prints ``ready`` and then reads one
JSON request from stdin; end of input instead of a request means "exit",
which is how ``run.py`` times set-up alone.  The request holds the job mix
(command lines, reference digests, expected ``--at`` values), the seconds to
measure and whether to trace.  The answer is one JSON line on stdout.

Jobs run in whole passes over the mix, so every pass does the same work.
Each job is timed around the ``cli.main`` call and its captured output; the
checks on the output run after the clock stops.  Before each job the
worker also times :func:`reference_loop`, which tells ``run.py`` how fast
the processor was running at that moment.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path.cwd() / "src"))

import ratgen.cli  # noqa: E402
import ratgen.poly  # noqa: E402
from tracer import Tracer  # noqa: E402


def reference_loop() -> int:
    """Fixed pure-Python work like ratgen's inner loops: tuple-keyed dict
    updates, big-integer products and their decimal text.  Never change it:
    every reported time is scaled by its speed."""
    acc: dict[tuple, int] = {}
    big = 7 ** 300
    for i in range(5000):
        key = ((i * 7919) % 257, (i % 11, 1))
        acc[key] = acc.get(key, 0) + big * i
    return len(str(sum(acc.values())))


def check(job: dict, rc, exc, text: str) -> str | None:
    """Why a job failed, or None if its output is right."""
    if exc is not None:
        return f"raised {type(exc).__name__}: {exc}"
    if rc != 0:
        return f"exit status {rc}"
    if any(line.startswith("FAIL") for line in text.splitlines()):
        return "printed a FAIL line"
    if hashlib.sha256(text.encode()).hexdigest() != job["digest"]:
        return "stdout digest differs from the reference"
    if job["values"] is not None:
        try:
            got = [int(line.rsplit(" = ", 1)[1]) for line in text.splitlines()]
        except (IndexError, ValueError):
            return "unparseable --at value"
        if got != list(job["values"]):
            return "--at values differ from the plain-integer recurrence"
    return None


def run_pass(jobs: list[dict], main, tracer: Tracer | None = None) -> dict:
    times, ref, failures, stdout_bytes = [], [], [], 0
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        start = perf_counter()
        reference_loop()
        ref.append(perf_counter() - start)
        out, err = io.StringIO(), io.StringIO()
        rc = exc = None
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = main(list(job["argv"]))
        except (Exception, SystemExit) as caught:  # a crash is a failed job
            exc = caught
        text = out.getvalue()
        times.append(perf_counter() - start)
        stdout_bytes += len(text.encode())
        reason = check(job, rc, exc, text)
        if reason is not None:
            failures.append({"job": i, "argv": job["argv"], "reason": reason})
    return {"times": times, "ref": ref, "failures": failures, "stdout_bytes": stdout_bytes}


def cache_counts() -> tuple[int, int] | None:
    info = getattr(ratgen.poly, "_mul_monomials", None)
    if info is None or not hasattr(info, "cache_info"):
        return None
    ci = info.cache_info()
    return ci.hits, ci.misses


def traced_pass(jobs: list[dict], tracer: Tracer) -> dict:
    tracer.reset()
    before = cache_counts()
    with tracer.installed():
        result = run_pass(jobs, tracer.wrap("cli.main", ratgen.cli.main), tracer)
    after = cache_counts()
    tracer.keep_spans = False  # spans of the first traced pass only
    calls, self_s, counts = dict(tracer.calls), dict(tracer.self_s), dict(tracer.counts)
    if before is not None:
        hits, misses = after[0] - before[0], after[1] - before[1]
        counts["poly.mul_monomials.calls"] = hits + misses
        counts["poly.mul_monomials.hits"] = hits
    result.update(calls=calls, self_s=self_s, counts=counts)
    return result


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(request: dict) -> dict:
    jobs, seconds = request["jobs"], request["seconds"]
    tracer = Tracer() if request["trace"] else None
    passes, traced = [], []
    start = perf_counter()
    while True:
        lap = perf_counter()
        passes.append(run_pass(jobs, ratgen.cli.main))
        if len(passes) == 1:
            # later passes only add heap fragmentation, and how many there
            # are depends on the processor's speed
            first_pass_rss = max_rss_mb()
        if tracer is not None:
            traced.append(traced_pass(jobs, tracer))
        lap = perf_counter() - lap
        # stop where the run ends closest to the requested length
        if perf_counter() - start + lap / 2 >= seconds:
            break
    answer = {
        "passes": passes,
        "traced": traced,
        "peak_rss_mb": first_pass_rss,
        "final_rss_mb": max_rss_mb(),
    }
    if tracer is not None and request.get("spans_path"):
        answer["spans"] = tracer.write_spans(request["spans_path"])
    return answer


def main() -> int:
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line:
        return 0
    answer = measure(json.loads(line))
    sys.stdout.write(json.dumps(answer) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
