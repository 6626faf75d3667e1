"""Benchmark of the oscim emulator: one command, two workloads.

Run from the repository root:

    python3 perfbench/run.py --workload phase_solve20 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each workload runs in fresh interpreters (worker.py), so the process-global
caches (calibration, limit-cycle table, oracle) and the peak RSS belong to
that workload alone.  The load is one closed-loop client: the next job
starts when the previous one returns.  BLAS and OpenMP are pinned to one
thread.  Set-up is repeated in separate interpreters and its median is
reported; the measured interpreter also reports its own set-up.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it carries the per-layer
metrics from spans recorded around calls into oscim (tracer.py), taken from
traced jobs that alternate with untraced ones.  Lines before it print every
metric, the quality figures and the environment, and the whole record with
the spans goes to perfbench/results/.

All timings are host time; simulated time shows up only as counts (RK4
run-steps).  Throughput and job time are medians over the run's untraced
jobs, of which a run has at least two (worker.py), and are gated on the
worker's CPU time (``runs_per_cpu_s``, ``job_cpu_s_p50``): on a shared
virtual machine the wall clock also counts time the hypervisor gives to
other guests, which made identical jobs vary by up to a third.  For the same
reason ``setup_s`` is the worker's CPU time from interpreter start to the
first job being ready, the median over the run's interpreters.  The
wall-clock twins of these three are printed and recorded beside them.  Spans
are timed on the wall clock; ``trace.overhead_frac`` compares CPU rates.
``agreement`` compares the circuit backend with the phase backend on the
same seeds; neither model has been validated against the physical machine.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
WORKLOADS = ("phase_solve20", "circuit_agree3")
# Interpreters that set up a workload per run; the circuit set-up takes about
# 25 s (calibration plus limit-cycle table), which bounds how many fit.
SETUPS = {"phase_solve20": 5, "circuit_agree3": 1}
# A run must end within 180 s; keep a margin for the parent's own work.
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WALL_UNITS = {"runs_per_s": "runs/s", "job_s_p50": "s", "setup_s": "s"}
QUALITY_UNITS = {"success_rate": "fraction", "unresolved_rate": "fraction",
                 "locked_fraction": "fraction", "agreement": "fraction"}


class BenchError(RuntimeError):
    pass


def rate(jobs: list[dict], clock: str) -> float:
    """Median over the jobs of protocol runs completed per second of the clock."""
    return statistics.median(j["runs"] / j[clock] for j in jobs)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "oscim").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "git_sha": sha,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "threads": 1,
        "seed": seed,
    }


def spawn(workload: str, seed: int, seconds: float, trace: int, deadline: float,
          setup_only: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(RESULTS)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker passed the {RUN_BUDGET_S:.0f} s budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def check_repeats(workload: str, seed: int, source: str, inputs: dict) -> list[str]:
    """Compare digests and quality with earlier runs of this seed and source."""
    path = RESULTS / "repeats.json"
    store = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    known = store.setdefault(source, {}).setdefault(workload, {}).setdefault(str(seed), {})
    problems = [f"{key}: differs from an earlier run of seed {seed}"
                for key, rec in inputs.items() if key in known and known[key] != rec]
    if not problems:
        known.update(inputs)
        path.write_text(json.dumps(store, indent=1, sort_keys=True), encoding="utf-8")
    return problems


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    RESULTS.mkdir(exist_ok=True)
    env = environment(seed)
    setups = []
    if not trace:
        setups = [spawn(workload, seed, seconds, 0, deadline, setup_only=True)
                  for _ in range(SETUPS[workload] - 1)]
    res = spawn(workload, seed, seconds, trace, deadline)
    setups.append(res)

    problems = [] if res["repeatable"] else ["jobs on the same input disagree"]
    problems += check_repeats(workload, seed, env["source_sha256"], res["inputs"])
    if res["failed"]:
        problems.append(f"{res['failed']} of {res['attempted']} runs failed the output check")
    untraced = [j for j in res["jobs"] if not j["traced"]]
    timing = {
        "runs_per_s": rate(untraced, "s"),
        "job_s_p50": statistics.median(j["s"] for j in untraced),
        "runs_per_cpu_s": rate(untraced, "cpu_s"),
        "job_cpu_s_p50": statistics.median(j["cpu_s"] for j in untraced),
    }
    if trace:
        values = dict(res["layers"])
        traced = [j for j in res["jobs"] if j["traced"]]
        base = timing["runs_per_cpu_s"]
        values["trace.overhead_frac"] = 1.0 - rate(traced, "cpu_s") / base if base else 0.0
        names = [m["name"] for m in spec["per_layer"]]
    else:
        values = dict(timing, setup_s=statistics.median(s["setup_s"] for s in setups),
                      peak_rss_mb=res["peak_rss_mb"])
        names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    missing = set(names) - set(values)
    if missing:
        raise BenchError(f"no value for {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}

    # pooled over the inputs; every input is one job of the same number of runs
    qualities = [v["quality"] for v in res["inputs"].values() if v["quality"]]
    quality = {k: statistics.fmean(q[k] for q in qualities) for k in qualities[0]} \
        if qualities else {}
    record = {
        "workload": workload, "seconds": seconds, "trace": trace, "env": env,
        "setups_s": [s["setup_s"] for s in setups],
        "setups_wall_s": [s["setup_wall_s"] for s in setups],
        "jobs": res["jobs"], "attempted": res["attempted"],
        "failed": res["failed"], "failed_frac": res["failed"] / res["attempted"],
        "quality": quality, "digests": {k: v["digest"] for k, v in res["inputs"].items()},
        "problems": problems, "metrics": metrics,
        "wall": dict({k: timing[k] for k in ("runs_per_s", "job_s_p50")},
                     setup_s=statistics.median(s["setup_wall_s"] for s in setups)),
    }
    for key in ("trace_job_s", "trace_self_sum_s", "spans_file"):
        if key in res:
            record[key] = res[key]
    name = f"{workload}-seed{seed}-trace{trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def report(record: dict) -> dict:
    """Print every figure of one workload run; return the contract's last line."""
    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    jobs = [j for j in record["jobs"] if not j["traced"]]
    print(f"# {record['workload']}: {len(record['jobs'])} jobs "
          f"({len(jobs)} untraced), {record['attempted']} runs attempted, "
          f"digest {next(iter(record['digests'].values()), '')[:16]}")
    for name, m in record["metrics"].items():
        print(f"#   {name:<36} {m['value']:.6g} {m['unit']}")
    for name, value in record["wall"].items():
        print(f"#   {name:<36} {value:.6g} {WALL_UNITS[name]} (wall clock)")
    for name, value in record["quality"].items():
        print(f"#   {name:<36} {value:.6g} {QUALITY_UNITS[name]}")
    print(f"#   {'failed_frac':<36} {record['failed_frac']:.6g} fraction")
    if "trace_job_s" in record:
        print(f"#   traced job time {record['trace_job_s']:.6f} s, "
              f"summed span self time {record['trace_self_sum_s']:.6f} s")
    for problem in record["problems"]:
        print(f"# INCORRECT: {problem}", file=sys.stderr)
    return {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in record["metrics"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="oscim benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "oscim" / "__init__.py").is_file():
        print(f"error: no oscim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        lines = [report(run_workload(spec, w, args.seed, args.seconds, args.trace))
                 for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
