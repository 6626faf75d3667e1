"""One workload in one fresh interpreter: set up, run jobs, check them.

``setup_s`` is the CPU time this process has used when set-up ends:
interpreter start, imports and the warm-up of the process-global caches.
run.py passes the monotonic time at which it spawned the process, which
gives the same span on the wall clock, ``setup_wall_s``.  Jobs run back to
back, one at a time, until the measured time reaches ``--seconds`` and at
least MIN_JOBS jobs have run, so that the medians of a run rest on several
jobs even where one job takes most of ``--seconds``; with ``--trace 1`` jobs
come in pairs, one untraced and one traced twin doing the same work, until
``--seconds`` is reached.  Every job is checked after timing ends.  The last
line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import Tracer, job_accounting, layer_metrics
from workloads import WORKLOADS

MIN_JOBS = 2


def _run_jobs(wl, seconds: float, tracer: Tracer | None) -> list[dict]:
    jobs = []
    start = time.perf_counter()
    while True:
        i = len(jobs)
        second = tracer is not None and i % 2 == 1
        # traced and untraced take turns going first within a pair
        traced = tracer is not None and second != ((i // 2) % 2 == 1)
        key = wl.twin(jobs[-1]["key"]) if second else wl.prepare(i)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = tracer.run_job(i, wl.run, key) if traced else wl.run(key)
        except Exception:
            # a job that raises counts all its runs as failed; the loop goes on
            traceback.print_exc()
            out = None
        t1 = time.perf_counter()
        jobs.append({"key": key, "s": t1 - t0, "cpu_s": time.process_time() - c0,
                     "traced": traced, "out": out})
        done = len(jobs) % 2 == 0 if tracer is not None else len(jobs) >= MIN_JOBS
        if t1 - start >= seconds and done:
            return jobs


def _check(wl, jobs: list[dict]) -> dict:
    """Output checks and the within-run repetition check."""
    inputs: dict[str, dict] = {}
    attempted = failed = 0
    repeatable = True
    for job in jobs:
        attempted += wl.runs_per_job
        if job["out"] is None:
            failed += wl.runs_per_job
            job["runs_done"] = 0
            continue
        c = wl.check(job["key"], job["out"])
        failed += c.failed
        job["runs_done"] = c.runs
        record = {"digest": c.digest, "quality": c.quality}
        if inputs.setdefault(c.key, record) != record:
            repeatable = False
    return {"attempted": attempted, "failed": failed, "inputs": inputs,
            "repeatable": repeatable}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(dir=args.out_dir) as tmp:
        wl = WORKLOADS[args.workload](args.seed, Path(tmp))
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            wl.setup()
        finally:
            if tracer:
                tracer.uninstall()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        setup = {"setup_s": usage.ru_utime + usage.ru_stime,
                 "setup_wall_s": time.monotonic() - args.spawned_at}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        jobs = _run_jobs(wl, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = _check(wl, jobs)

    result.update(
        setup,
        peak_rss_mb=peak_rss_mb,
        jobs=[{"s": j["s"], "cpu_s": j["cpu_s"], "runs": j["runs_done"],
               "traced": j["traced"]} for j in jobs],
    )
    if tracer:
        job_s, self_sum, covered = job_accounting(tracer.spans)
        layers = layer_metrics(tracer.spans)
        layers["trace.covered_frac"] = covered
        result["layers"] = layers
        result["trace_self_sum_s"] = self_sum
        result["trace_job_s"] = job_s
        spans_path = args.out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
        result["spans_file"] = str(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
