"""The benchmark's workloads: inputs made from the seed, one job, its check.

A workload object lives in one fresh interpreter.  ``setup`` warms the
process-global caches a user's first call would fill, ``prepare(i)`` makes
the input of job i outside the timed region, ``run`` is the timed job, and
``check`` verifies every protocol run of a job after timing has ended.

``twin(key)`` names a job that repeats the work of job ``key``; traced jobs
are twins of untraced ones, so the two are compared on equal work.  Jobs on
the same input must reproduce each other bit for bit.  Every job gets a new
input drawn from (seed, job index): the phase workload a new graph, so a run
averages the cost over several graphs and the oracle runs cold in every job,
and the circuit workload a new run seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from oscim import circuit_dynamics, cli, harness, machine, problems

SOLVE_N = 20
SOLVE_RUNS = 32

TRIANGLE = problems.Graph(n=3, edges=((1, 2, 1.0), (2, 3, 0.8), (1, 3, 0.6)))
AGREE_SCHED = harness.RunSchedule(free_run_periods=5.0, settle_periods=30.0)
AGREE_SCALE = 0.2
AGREE_RUNS = 2


def random_connected_graph(n: int, p: float, rng, dyadic: bool = False) -> problems.Graph:
    """Erdos-Renyi G(n, p) redrawn until connected; dyadic weights in {1/4..2}."""
    while True:
        edges = []
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < p:
                    w = float(rng.integers(1, 9) / 4.0) if dyadic else 1.0
                    edges.append((u, v, w))
        reach, stack = {1}, [1]
        while stack:
            x = stack.pop()
            for u, v, _ in edges:
                for a, b in ((u, v), (v, u)):
                    if a == x and b not in reach:
                        reach.add(b)
                        stack.append(b)
        if len(reach) == n and edges:
            return problems.Graph(n=n, edges=tuple(edges))


def graph_file_text(g: problems.Graph) -> str:
    return f"n {g.n}\n" + "".join(f"{u} {v} {w!r}\n" for u, v, w in g.edges)


@dataclass(frozen=True)
class JobCheck:
    """Outcome of checking one job: runs that failed, and what must repeat."""

    runs: int
    failed: int
    key: str
    digest: str
    quality: dict


def _digest(results) -> str:
    return hashlib.sha256("\n".join(r.bitstring for r in results).encode()).hexdigest()


def _quality(g: problems.Graph, results) -> dict:
    n = len(results)
    return {
        "success_rate": sum(r.optimal for r in results) / n,
        "unresolved_rate": sum(r.unresolved_count for r in results) / (g.n * n),
        "locked_fraction": sum(r.lock_period is not None for r in results) / n,
    }


def _run_ok(g: problems.Graph, r, optimum: float) -> bool:
    bits = r.bitstring
    if len(bits) != g.n or bits[0] != "0" or set(bits) - {"0", "1"}:
        return False
    spins = [1 if c == "0" else -1 for c in bits]
    if abs(problems.cut_value(g, spins) - r.cut) > harness.CUT_TOLERANCE:
        return False
    return r.optimal == (r.cut >= optimum - harness.CUT_TOLERANCE)


def count_failed_runs(g: problems.Graph, stats, runs: int) -> int:
    """Runs of one run_many result that fail the per-run output check.

    A wrong aggregate (histogram or run count) discredits every run of it.
    """
    results = stats.run_results
    if stats.runs != runs or len(results) != runs or sum(stats.histogram.values()) != runs:
        return runs
    optimum, _ = harness.oracle_max_cut(g)
    return sum(not _run_ok(g, r, optimum) for r in results)


class _CaptureRunMany:
    """Keeps what the program's run_many returns under one module's name.

    The CLI returns only aggregates, so the per-run results that the output
    check needs are taken from the run_many call beneath it.  One extra
    Python call per run_many is the whole cost.
    """

    def __init__(self, module):
        self.module = module
        self.stats = []

    def __enter__(self):
        inner = self.inner = self.module.run_many

        def capture(*args, **kwargs):
            stats = inner(*args, **kwargs)
            self.stats.append(stats)
            return stats

        self.module.run_many = capture
        return self

    def __exit__(self, *exc):
        self.module.run_many = self.inner


class PhaseSolve20:
    """``oscim solve`` on a new weighted 20-vertex graph file every job.

    Job i gets its graph and run seed from (seed, i).  ``twin`` gives the same
    job on the same graph with its edge list reversed: the coupling matrix and
    every trajectory are identical, but the oracle cache (keyed by the edge
    tuple) misses, so a traced twin repeats exactly the untraced job's work
    and must reproduce its results.
    """

    runs_per_job = SOLVE_RUNS

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.jobs: dict[str, tuple[problems.Graph, int, str]] = {}

    def setup(self) -> None:
        pass

    def prepare(self, i: int) -> str:
        rng = np.random.default_rng([self.seed, SOLVE_N, i])
        g = random_connected_graph(SOLVE_N, 0.3, rng, dyadic=True)
        return self._add(f"graph{i}", g, int(rng.integers(2**31)), f"graph{i}")

    def twin(self, key: str) -> str:
        g, run_seed, input_key = self.jobs[key]
        twin = problems.Graph(n=g.n, edges=tuple(reversed(g.edges)))
        return self._add(key + "r", twin, run_seed, input_key)

    def _add(self, key, g, run_seed, input_key) -> str:
        (self.workdir / f"{key}.txt").write_text(graph_file_text(g), encoding="utf-8")
        self.jobs[key] = (g, run_seed, input_key)
        return key

    def run(self, key):
        argv = [
            "solve", "--graph", str(self.workdir / f"{key}.txt"), "--noise", "0.05",
            "--runs", str(SOLVE_RUNS), "--seed", str(self.jobs[key][1]),
            "--out", str(self.workdir / f"{key}.json"),
        ]
        with _CaptureRunMany(cli) as cap:
            code = cli.main(argv)
        return code, cap.stats

    def check(self, key, out) -> JobCheck:
        code, stats = out
        g, _, input_key = self.jobs[key]
        if code != 0 or len(stats) != 1:
            return JobCheck(SOLVE_RUNS, SOLVE_RUNS, input_key, "", {})
        s = stats[0]
        failed = count_failed_runs(g, s, SOLVE_RUNS)
        if not self._document_ok(g, s, self.workdir / f"{key}.json"):
            failed = SOLVE_RUNS
        return JobCheck(SOLVE_RUNS, failed, input_key, _digest(s.run_results),
                        _quality(g, s.run_results))

    @staticmethod
    def _document_ok(g: problems.Graph, stats, path) -> bool:
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return False
        optimum, _ = harness.oracle_max_cut(g)
        hist = doc.get("histogram", {})
        if doc.get("oracle", {}).get("optimum") != optimum or hist != stats.histogram:
            return False
        if sum(hist.values()) != SOLVE_RUNS:
            return False
        for bits in doc["oracle"].get("optimal_bitstrings", []):
            spins = [1 if c == "0" else -1 for c in bits]
            if len(bits) != g.n or problems.cut_value(g, spins) != optimum:
                return False
        hits = sum(
            count for bits, count in hist.items()
            if len(bits) == g.n and problems.cut_value(g, [1 if c == "0" else -1 for c in bits])
            >= optimum - harness.CUT_TOLERANCE
        )
        return doc.get("success_rate") == hits / SOLVE_RUNS == stats.success_rate


class CircuitAgree3:
    """Circuit-backend runs on the criterion-9 triangle; phase runs as reference.

    Job i runs a batch with a new run seed from (seed, i); the same seeds on
    the phase backend give the reference for ``agreement``, after timing.
    """

    runs_per_job = AGREE_RUNS

    def __init__(self, seed: int, workdir):
        self.seed = seed

    def setup(self) -> None:
        f0 = machine.build_machine(TRIANGLE, global_scale=AGREE_SCALE).f0
        p = circuit_dynamics.calibrated_params(f0)
        circuit_dynamics.phases_to_network_state(np.zeros(TRIANGLE.n), p, f0)

    def prepare(self, i: int) -> str:
        return f"batch{int(np.random.default_rng([self.seed, 3, i]).integers(2**31))}"

    def twin(self, key: str) -> str:
        return key

    @staticmethod
    def _runs(backend: str, key: str):
        m = machine.build_machine(TRIANGLE, global_scale=AGREE_SCALE)
        return harness.run_many(TRIANGLE, m, backend=backend, sched=AGREE_SCHED,
                                runs=AGREE_RUNS, seed=int(key.removeprefix("batch")))

    def run(self, key):
        return self._runs("circuit", key)

    def check(self, key, stats) -> JobCheck:
        reference = self._runs("phase", key).run_results
        results = stats.run_results
        failed = count_failed_runs(TRIANGLE, stats, AGREE_RUNS)
        quality = _quality(TRIANGLE, results)
        quality["agreement"] = sum(
            a.bitstring == b.bitstring for a, b in zip(results, reference)
        ) / AGREE_RUNS
        return JobCheck(AGREE_RUNS, failed, key, _digest(results), quality)


WORKLOADS = {
    "phase_solve20": PhaseSolve20,
    "circuit_agree3": CircuitAgree3,
}
