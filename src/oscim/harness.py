"""Run protocol and multi-run statistics.

A single run follows the machine's operating procedure: sync gate off,
weights programmed, oscillators free-running into random phases, gate on,
settle for a fixed number of periods, then read out.  Runs are seeded
individually from a master seed with a counter-based split, so executing
them batched (the default) or one at a time yields identical statistics,
bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import circuit_dynamics as circuit
from .machine import MachineConfig
from .phase_dynamics import phase_protocol_run
from .problems import Graph, brute_force_max_cut, cut_values
from .readout import lock_period, spins_from_phases

BACKENDS = ("phase", "circuit")

# Cut comparisons against the oracle optimum tolerate tiny float noise from
# differently-ordered summations; exact-representable weights are unaffected.
CUT_TOLERANCE = 1e-9

# best_operating_point: a scale counts as cleanly binarized at or below
# MAX_UNRESOLVED, and is good enough once it reaches TARGET_SUCCESS.
MAX_UNRESOLVED = 0.05
TARGET_SUCCESS = 0.8


@dataclass(frozen=True)
class RunSchedule:
    """Timing of the run protocol, in oscillation periods.

    The phase backend realizes the free-run interval by sampling uniform
    phases directly (equivalent in the rotating frame); the circuit backend
    actually simulates it with per-oscillator frequency jitter so the
    waveform phases decorrelate.
    """

    free_run_periods: float = 5.0
    settle_periods: float = 15.0

    def __post_init__(self):
        for name in ("free_run_periods", "settle_periods"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.free_run_periods < 0 or self.settle_periods <= 0:
            raise ValueError("schedule durations must be nonnegative (settle positive)")


@dataclass(frozen=True, slots=True)
class RunResult:
    """One run: normalized bitstring, its cut, and lock diagnostics.

    The bitstring maps spin +1 -> '0', -1 -> '1' and is normalized so the
    reference oscillator (leftmost character) reads '0'.  lock_period is
    readout.lock_period of the run's phases, None when the run never locked;
    the circuit backend reports None always (it has no phase trace to time).
    """

    bitstring: str
    cut: float
    optimal: bool
    lock_period: float | None
    unresolved_count: int

    def __post_init__(self):
        if self.bitstring and self.bitstring[0] != "0":
            raise ValueError("bitstring must be reference-normalized (leading '0')")


@dataclass(frozen=True)
class RunStats:
    """The runs in seed order; every aggregate is derived from them.

    Histogram keys are normalized bitstrings, in first-seen order.  Each
    aggregate is a Python ``sum`` over the runs in order, so its bits do not
    depend on how the runs were executed.
    """

    run_results: tuple[RunResult, ...]

    def __post_init__(self):
        if not self.run_results:
            raise ValueError("RunStats needs at least one run")

    @property
    def runs(self) -> int:
        return len(self.run_results)

    @property
    def histogram(self) -> dict[str, int]:
        """A new dict per read; editing it leaves the runs unchanged."""
        histogram: dict[str, int] = {}
        for r in self.run_results:
            histogram[r.bitstring] = histogram.get(r.bitstring, 0) + 1
        return histogram

    @property
    def success_rate(self) -> float:
        return sum(r.optimal for r in self.run_results) / self.runs

    @property
    def mean_lock_period(self) -> float | None:
        locks = [r.lock_period for r in self.run_results if r.lock_period is not None]
        return (sum(locks) / len(locks)) if locks else None

    @property
    def locked_fraction(self) -> float:
        return sum(r.lock_period is not None for r in self.run_results) / self.runs

    @property
    def unresolved_rate(self) -> float:
        n_spins = len(self.run_results[0].bitstring)
        return sum(r.unresolved_count for r in self.run_results) / (n_spins * self.runs)


def _bitstring(spins) -> str:
    """'0' for spin +1, '1' for spin -1; leftmost is the reference."""
    return "".join("0" if x > 0 else "1" for x in spins)


@functools.lru_cache(maxsize=1)
def oracle_max_cut(g: Graph) -> tuple[float, tuple[str, ...]]:
    """Brute-force optimum and the sorted bitstrings of its maximizers.

    The maximizer set is closed under global flip, so only the
    reference-normalized half is kept.  The last graph's answer is cached.
    """
    optimum, configs = brute_force_max_cut(g)
    return optimum, tuple(sorted(_bitstring(cfg) for cfg in configs if cfg[0] > 0))


def run_seeds(master_seed, runs: int) -> list[np.random.SeedSequence]:
    """Counter-based split of the master seed; independent of execution order."""
    if isinstance(master_seed, np.random.SeedSequence):
        return master_seed.spawn(runs)
    return np.random.SeedSequence(master_seed).spawn(runs)


def _run_results(g: Graph, optimum: float, spins, resolved, locks) -> list[RunResult]:
    """One RunResult per run from reference-normalized spins (B, n)."""
    results = []
    cuts = cut_values(g, spins)
    for run_spins, cut, run_resolved, lock in zip(spins, cuts, resolved, locks):
        results.append(RunResult(
            bitstring=_bitstring(run_spins),
            cut=float(cut),
            optimal=bool(cut >= optimum - CUT_TOLERANCE),
            lock_period=lock,
            unresolved_count=int(np.count_nonzero(~run_resolved)),
        ))
    return results


def run_many(
    g: Graph,
    m: MachineConfig,
    backend: str = "phase",
    sched: RunSchedule | None = None,
    runs: int = 100,
    seed=0,
    parallel: bool = True,
) -> RunStats:
    """Protocol steps 1-6 for each of the counter-split seeds, aggregated.

    parallel=True executes all runs in one vectorized batch; False runs
    them one at a time.  Both paths produce identical results.  The graph
    must have exactly the machine's number of vertices.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if g.n != m.n:
        relation = "larger" if g.n > m.n else "smaller"
        raise ValueError(f"graph ({g.n} vertices) {relation} than machine ({m.n})")
    if backend == "circuit" and m.noise_sigma > 0:
        raise ValueError("noise_sigma > 0 is modelled on the phase backend only")
    sched = sched or RunSchedule()
    optimum, _ = oracle_max_cut(g)
    seeds = run_seeds(seed, runs)
    batches = [seeds] if parallel else [[s] for s in seeds]
    results = []
    for batch in batches:
        if backend == "phase":
            times, thetas = phase_protocol_run(m, sched, batch)
            spins, resolved = spins_from_phases(thetas[-1])
            locks = lock_period(times, thetas)
        else:
            spins, resolved = circuit.run_readout_batch(m, sched, batch)
            locks = [None] * len(batch)
        results.extend(_run_results(g, optimum, spins, resolved, locks))
    return RunStats(tuple(results))


def sweep_coupling(
    g: Graph,
    m: MachineConfig,
    backend: str = "phase",
    sched: RunSchedule | None = None,
    scales: tuple[float, ...] = (),
    runs_per_point: int = 50,
    seed: int = 0,
) -> list[tuple[float, RunStats]]:
    """One (scale, RunStats) row per global coupling scale; deterministic.

    Row i runs ``run_many`` with child i of ``SeedSequence(seed)``.
    """
    if not scales:
        raise ValueError("scale list must be nonempty")
    # every scale's machine is checked before the first run
    machines = [replace(m, global_scale=float(scale)) for scale in scales]
    children = np.random.SeedSequence(seed).spawn(len(scales))
    return [
        (scaled.global_scale,
         run_many(g, scaled, backend, sched, runs=runs_per_point, seed=child, parallel=True))
        for scaled, child in zip(machines, children)
    ]


def best_operating_point(rows: list[tuple[float, RunStats]]) -> tuple[float, RunStats]:
    """Operating point: highest success among well-binarized scales.

    When no cleanly binarized scale reaches the target success, fall back to
    the least-unresolved scale among those within 0.05 of the best success,
    trading some readout ambiguity for solution quality.
    """
    clean = [r for r in rows if r[1].unresolved_rate <= MAX_UNRESOLVED]
    if clean:
        best_clean = max(clean, key=lambda r: (r[1].success_rate, -r[0]))
        if best_clean[1].success_rate >= TARGET_SUCCESS:
            return best_clean
    best_sr = max(stats.success_rate for _, stats in rows)
    near = [r for r in rows if r[1].success_rate >= max(TARGET_SUCCESS, best_sr - 0.05)]
    pool = near or rows
    return min(pool, key=lambda r: (r[1].unresolved_rate, -r[1].success_rate))
