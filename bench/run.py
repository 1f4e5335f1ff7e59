"""ratgen benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload catalog_deep --seed 1 --seconds 30 --trace 0

The workload's job mix is generated from ``--seed`` in this process, then a
child process (``worker.py``) imports ``ratgen.cli`` from ``src/`` and calls
``ratgen.cli.main(argv)`` for one job after another, in whole passes over
the mix, for about ``--seconds``: a closed loop with one client.  Every
job's stdout is checked against a reference digest (and, for ``power_at``,
against values from an independent plain-integer recurrence); a job that
exits nonzero, raises, prints FAIL or differs counts as failed.

``--trace 0`` reports the end-to-end metrics.  Job times are in reference
seconds (see REF_LOOP_S); the wall-clock figures are printed beside them.
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics per pass of the mix, the tracing overhead, and writes the spans of
the first traced pass to ``.bench_out/``.  Earlier stdout lines give each
metric with its unit and sample count and the work sizes; the last line is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SPAWNS = 7     # set-up is timed this many times; the median is reported
TIME_LIMIT_S = 170   # the whole run, set-up included, must end before this
# Job times are reported in "reference seconds" (ref_s): seconds on a
# processor that runs worker.reference_loop in REF_LOOP_S.  On a shared host
# the processor's speed shifts by up to 1.7x for seconds to minutes at a
# time, and wall-clock medians of whole runs moved by 30% with it.
REF_LOOP_S = 0.002
REF_WINDOW = 9  # reference timings around a job that give its local speed


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def load_jobs(workload: str, seed: int) -> list[dict]:
    digests = json.loads((BENCH_DIR / "reference.json").read_text())[workload]
    jobs = []
    for job in workloads.GENERATORS[workload](seed):
        digest = digests.get(job.key, digests.get("*"))
        if digest is None:
            raise KeyError(f"no reference digest for {job.key}")
        jobs.append({"argv": job.argv, "digest": digest,
                     "values": job.values})
    return jobs


class Child:
    """A worker process, killed if the run's time limit passes."""

    def __init__(self, deadline: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONHASHSEED="0"),
        )
        self.timer = threading.Timer(max(deadline - monotonic(), 0), self.proc.kill)
        self.timer.daemon = True
        self.timer.start()

    def ready(self) -> None:
        if self.proc.stdout.readline() != b"ready\n":
            self.close()
            raise RuntimeError("worker did not start")

    def close(self) -> None:
        self.timer.cancel()
        self.proc.kill()
        self.proc.wait()

    def finish(self, request: bytes = b"") -> bytes:
        try:
            out, _ = self.proc.communicate(request)
        finally:
            self.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with status {self.proc.returncode}")
        return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        limit: int | None = None) -> dict:
    """Run one workload and return the result object printed last."""
    deadline = monotonic() + TIME_LIMIT_S
    jobs = load_jobs(workload, seed)[:limit]
    setup = []
    for i in range(SETUP_SPAWNS):
        start = perf_counter()
        child = Child(deadline)
        child.ready()
        setup.append(perf_counter() - start)
        if i < SETUP_SPAWNS - 1:
            child.finish()
    spans_path = ROOT / ".bench_out" / f"spans-{workload}-{seed}.jsonl"
    if trace:
        spans_path.parent.mkdir(exist_ok=True)
    request = {"jobs": jobs, "seconds": seconds, "trace": trace,
               "spans_path": str(spans_path) if trace else None}
    answer = json.loads(child.finish((json.dumps(request) + "\n").encode()))

    all_passes = answer["passes"] + answer["traced"]
    attempted = sum(len(p["times"]) for p in all_passes)
    failures = [f for p in all_passes for f in p["failures"]]
    for f in failures[:5]:
        print(f"failed job {f['job']}: {f['reason']}: {' '.join(f['argv'])}", file=sys.stderr)
    first = answer["passes"][0]
    print(f"workload {workload} seed {seed}: {len(jobs)} jobs per pass, "
          f"{len(answer['passes'])} untraced and {len(answer['traced'])} traced passes, "
          f"stdout_bytes per pass {first['stdout_bytes']}, "
          f"fail_ratio {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")

    if trace:
        metrics = per_layer(answer, len(jobs))
        print(f"spans written: {answer.get('spans', 0)} to {spans_path.relative_to(ROOT)}")
    else:
        metrics, samples = end_to_end(answer, setup)
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']} (samples={samples[name]})")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def scaled_times(p: dict) -> list[float]:
    """A pass's job times in ref_s, each scaled by the median reference-loop
    time of the REF_WINDOW jobs around it."""
    ref, half = p["ref"], REF_WINDOW // 2
    return [t * REF_LOOP_S / statistics.median(ref[max(0, i - half):i + half + 1])
            for i, t in enumerate(p["times"])]


def job_times(passes: list[dict], scale: bool = True) -> list[float]:
    """Each job's median time over the passes, in ref_s or wall seconds."""
    per_pass = [scaled_times(p) if scale else p["times"] for p in passes]
    return [statistics.median(times) for times in zip(*per_pass)]


def end_to_end(answer: dict, setup: list[float]) -> tuple[dict, dict]:
    passes = answer["passes"]
    typical, wall = job_times(passes), job_times(passes, scale=False)
    values = {
        "jobs_per_ref_s": (len(typical) / sum(typical), "jobs/ref_s", len(typical)),
        "job_ref_s.p50": (statistics.median(typical), "ref_s", len(typical)),
        "job_ref_s.p90": (quantile(typical, 90), "ref_s", len(typical)),
        "peak_rss_mb": (answer["peak_rss_mb"], "MiB", 1),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }
    print(f"peak RSS after the first pass {answer['peak_rss_mb']:.6g} MiB, "
          f"after all {len(passes)} passes {answer['final_rss_mb']:.6g} MiB")
    ref = [t for p in passes for t in p["ref"]]
    print(f"wall clock: jobs_per_s {len(wall) / sum(wall):.6g} jobs/s, "
          f"job_s.p50 {statistics.median(wall):.6g} s, job_s.p90 {quantile(wall, 90):.6g} s "
          f"(samples={len(wall)}); reference loop median {statistics.median(ref) * 1e3:.4g} ms "
          f"(samples={len(ref)})")
    metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in values.items()}
    return metrics, {k: n for k, (_, _, n) in values.items()}


SELF_TIMES = (
    "parser.format_poly", "parser.parse_poly", "parser.split_in_t",
    "recurrence.expand_family", "recurrence.raise_denominator",
    "recurrence.expand_inverse", "recurrence.convolve_numerator",
    "recurrence.identity_residual", "series.geometric_inverse",
    "series.multinomial_inverse", "series.cauchy_mul", "poly.evaluate", "cli.main",
)
CALLS = ("parser.format_poly", "parser.parse_poly", "recurrence.expand_family",
         "recurrence.raise_denominator", "poly.evaluate")
COUNTS = {"parser.format_poly.terms": "count", "recurrence.expand_family.out_terms": "count",
          "recurrence.expand_family.max_coeff_bits": "bits",
          "recurrence.raise_denominator.out_terms": "count", "poly.mul_monomials.calls": "count"}


def per_layer(answer: dict, jobs: int) -> dict:
    """Per pass of the mix: counts from the first traced pass, times as medians."""
    traced, untraced = answer["traced"], answer["passes"]
    first = traced[0]
    values: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMES:
        values[f"{name}.self_s"] = (
            statistics.median(p["self_s"].get(name, 0.0) for p in traced), "s")
    for name in CALLS:
        values[f"{name}.calls"] = (first["calls"].get(name, 0), "count")
    for name, unit in COUNTS.items():
        values[name] = (first["counts"].get(name, 0), unit)
    mul_calls = first["counts"].get("poly.mul_monomials.calls", 0)
    values["poly.mul_monomials.hit_ratio"] = (
        first["counts"].get("poly.mul_monomials.hits", 0) / mul_calls if mul_calls else 0.0,
        "ratio")
    values["families.build_parts.calls"] = (
        first["calls"].get("families.build_parts", 0) / jobs, "calls/job")
    values["cli.stdout_bytes"] = (first["stdout_bytes"], "bytes")
    values["work.jobs"] = (jobs, "count")
    traced_rate = jobs / sum(job_times(traced))
    untraced_rate = jobs / sum(job_times(untraced))
    values["trace.jobs_per_ref_s"] = (traced_rate, "jobs/ref_s")
    values["trace.untraced_jobs_per_ref_s"] = (untraced_rate, "jobs/ref_s")
    values["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ratgen" / "cli.py").is_file():
        print(f"error: no ratgen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
