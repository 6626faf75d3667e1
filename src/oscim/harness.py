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
import math
from dataclasses import dataclass, replace

import numpy as np

from . import circuit_dynamics as circuit
from . import phase_dynamics as phase
from .machine import MachineConfig
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


@dataclass(frozen=True)
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


# A seed's phase noise is one Brownian path, drawn coarse-to-fine by Levy's
# construction: first one increment per 1/25-period step (8 units of the
# DEFAULT_STEPS_PER_PERIOD grid, so variance 8), then, per halving, each
# increment w splits into w/2 + sd*Z and w/2 - sd*Z.  Given w, a half has
# standard deviation sqrt(2), 1 and 1/sqrt(2) at the halvings into 4, 2 and
# 1 grid units.
_BRIDGE_STEPS_PER_PERIOD = 25
_BRIDGE_SDS = (np.sqrt(2.0), 1.0, np.sqrt(0.5))


def _brownian_increments(rngs, n_steps: int, spp: int, n: int) -> np.ndarray:
    """Brownian increments per step, (n_steps, B, n): run b's path from rngs[b].

    Each generator draws the 1/25-period increments, then one block of
    normals per halving, stopping at the first grid (25, 50, 100 or 200 per
    period) that spp divides; a step sums the increments it covers (5 at
    spp = 40).  A settle that ends inside a 1/25-period step draws the whole
    step and drops the rest.  Entries are in units of the
    DEFAULT_STEPS_PER_PERIOD grid, and a run's sums agree whatever spp.
    """
    finest = math.lcm(_BRIDGE_STEPS_PER_PERIOD, spp)  # 25 * 2**levels
    levels = (finest // _BRIDGE_STEPS_PER_PERIOD).bit_length() - 1
    group = finest // spp
    coarse = -(-(n_steps * group) >> levels)  # 1/25-period steps, rounded up
    noise = np.empty((n_steps, len(rngs), n))
    for b, rng in enumerate(rngs):
        w = rng.standard_normal((coarse, n)) * np.sqrt(8.0)
        for sd in _BRIDGE_SDS[:levels]:
            dev = rng.standard_normal(w.shape) * sd
            w = np.stack([0.5 * w + dev, 0.5 * w - dev], axis=1).reshape(-1, n)
        steps = w[:n_steps * group].reshape(n_steps, group, n)
        np.einsum("kgi->ki", steps, out=noise[:, b])
    return noise


def phase_protocol_run(
    m: MachineConfig,
    sched: RunSchedule,
    seeds: list[np.random.SeedSequence],
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded protocol runs on the phase backend: (times (S,), thetas (S, B, n)).

    The step count per period comes from the coupling
    (``phase_dynamics.steps_per_period_for``).  Each run's generator draws its
    initial phases, then, with noise, its Brownian path coarse-to-fine
    (``_brownian_increments``): the 1/25-period increments first, then one
    halving level at a time, only as far as the step needs.  A seed so keeps
    one path whatever the step; a step's noise is the sum of that path's
    increments on the DEFAULT_STEPS_PER_PERIOD grid that the step covers,
    times noise_sigma * sqrt(1/DEFAULT_STEPS_PER_PERIOD).
    All runs share one integration loop, which keeps run b identical to a
    batch of seeds[b] alone.
    """
    n = m.n
    K, Ks = phase.coupling_terms(m)
    spp = phase.steps_per_period_for(K, Ks)
    n_steps = int(round(sched.settle_periods * spp))
    if n_steps < 1:
        raise ValueError(
            f"settle_periods={sched.settle_periods} is shorter than one RK4 step "
            f"(1/{spp} period at this coupling)"
        )
    rngs = [np.random.default_rng(s) for s in seeds]
    theta0 = np.stack([phase.random_initial_phases(n, r) for r in rngs])
    noise = None
    if m.noise_sigma > 0:
        noise = _brownian_increments(rngs, n_steps, spp, n)
        noise *= m.noise_sigma * np.sqrt(1.0 / phase.DEFAULT_STEPS_PER_PERIOD)
    return phase.integrate_batch(
        theta0, K, Ks, np.asarray(m.detuning), sched.settle_periods,
        steps_per_period=spp, noise=noise,
    )


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
