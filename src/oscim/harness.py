"""Run protocol and multi-run statistics.

A single run follows the machine's operating procedure: sync gate off,
weights programmed, oscillators free-running into random phases, gate on,
settle for a fixed number of periods, then read out.  Runs are seeded
individually from a master seed with a counter-based split, so executing
them batched (the default) or one at a time yields identical statistics,
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import circuit_dynamics as circuit
from . import phase_dynamics as phase
from .machine import MachineConfig, set_global_scale, set_sync
from .problems import Graph, brute_force_max_cut, cut_value
from .readout import ReadoutResult, lock_period, spins_from_phases

BACKENDS = ("phase", "circuit")

# Cut comparisons against the oracle optimum tolerate tiny float noise from
# differently-ordered summations; exact-representable weights are unaffected.
CUT_TOLERANCE = 1e-9


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
    staggered_delays: tuple[float, ...] | None = None  # per-edge enable delays

    def __post_init__(self):
        if self.free_run_periods < 0 or self.settle_periods <= 0:
            raise ValueError("schedule durations must be nonnegative (settle positive)")
        if self.staggered_delays is not None:
            d = tuple(float(x) for x in self.staggered_delays)
            if any(x < 0 for x in d):
                raise ValueError("staggered delays must be nonnegative")
            object.__setattr__(self, "staggered_delays", d)


@dataclass(frozen=True)
class RunResult:
    """One run: normalized bitstring, its cut, and lock diagnostics.

    The bitstring maps spin +1 -> '0', -1 -> '1' and is normalized so the
    reference oscillator (leftmost character) reads '0'.  lock_period is
    readout.lock_period of the run's trace, None when the run never locked;
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
    """Aggregate over runs, plus the runs themselves in seed order.

    Histogram keys are normalized bitstrings.
    """

    histogram: dict[str, int]
    runs: int
    success_rate: float
    mean_lock_period: float | None
    locked_fraction: float
    unresolved_rate: float
    run_results: tuple[RunResult, ...]

    def __post_init__(self):
        if sum(self.histogram.values()) != self.runs:
            raise ValueError("histogram counts must sum to the number of runs")


@dataclass(frozen=True)
class SweepPoint:
    scale: float
    success_rate: float
    mean_lock_period: float | None
    locked_fraction: float
    unresolved_rate: float


@dataclass(frozen=True)
class StaggerComparison:
    simultaneous: RunStats
    staggered: RunStats


_ORACLE_CACHE: dict[tuple, tuple[float, frozenset]] = {}


def oracle_max_cut(g: Graph) -> tuple[float, frozenset]:
    """Brute-force optimum and maximizer set, cached per graph."""
    key = (g.n, g.edges)
    if key not in _ORACLE_CACHE:
        opt, configs = brute_force_max_cut(g)
        _ORACLE_CACHE[key] = (opt, frozenset(configs))
    return _ORACLE_CACHE[key]


def optimal_bitstrings(g: Graph) -> tuple[str, ...]:
    """Reference-normalized bitstrings of every max-cut maximizer, sorted."""
    _, configs = oracle_max_cut(g)
    strings = set()
    for cfg in configs:
        spins = np.array(cfg)
        if spins[0] < 0:
            spins = -spins
        strings.add("".join("0" if s > 0 else "1" for s in spins))
    return tuple(sorted(strings))


def run_seeds(master_seed, runs: int) -> list[np.random.SeedSequence]:
    """Counter-based split of the master seed; independent of execution order."""
    if isinstance(master_seed, np.random.SeedSequence):
        return master_seed.spawn(runs)
    return np.random.SeedSequence(master_seed).spawn(runs)


def _result_from_readout(
    g: Graph,
    readout: ReadoutResult,
    lock: float | None,
    optimum: float,
) -> RunResult:
    spins = np.array(readout.spins)
    cut = cut_value(g, spins)
    return RunResult(
        bitstring=readout.bitstring(),
        cut=cut,
        optimal=bool(cut >= optimum - CUT_TOLERANCE),
        lock_period=lock,
        unresolved_count=readout.unresolved_count,
    )


def phase_protocol_run(
    g: Graph,
    m: MachineConfig,
    sched: RunSchedule,
    seeds: list[np.random.SeedSequence],
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded protocol runs on the phase backend: (times (S,), thetas (S, B, n)).

    Each run's generator draws its initial phases, then its noise; all runs
    share one integration loop, which keeps run b identical to a batch of
    seeds[b] alone.
    """
    n = m.n
    rngs = [np.random.default_rng(s) for s in seeds]
    theta0 = np.stack([phase.random_initial_phases(n, r).theta for r in rngs])
    K, Ks = phase.coupling_terms(set_sync(m, True))
    delta = np.asarray(m.detuning)
    n_steps = int(round(sched.settle_periods * phase.DEFAULT_STEPS_PER_PERIOD))
    noise = None
    if m.noise_sigma > 0:
        noise = np.stack([r.standard_normal((n_steps, n)) for r in rngs], axis=1)
    if sched.staggered_delays is None:
        return phase.integrate_batch(
            theta0, K, Ks, delta, sched.settle_periods,
            noise_sigma=m.noise_sigma, noise=noise,
        )
    return _integrate_staggered(g, sched, theta0, K, Ks, delta, m.noise_sigma, noise)


def _integrate_staggered(g, sched, theta0, K, Ks, delta, noise_sigma, noise):
    """Piecewise integration enabling each edge at its scheduled delay.

    Delays are rounded to whole RK4 steps, so the segments add up to exactly
    the steps the noise was drawn for.
    """
    spp = phase.DEFAULT_STEPS_PER_PERIOD
    n_steps = int(round(sched.settle_periods * spp))
    on_at = [int(round(d * spp)) for d in sched.staggered_delays]
    bounds = sorted({0, n_steps} | {k for k in on_at if k < n_steps})
    times, thetas = [], []
    theta = theta0
    for start, end in zip(bounds[:-1], bounds[1:]):
        mask = np.zeros_like(K)
        for (u, v, _), k in zip(g.edges, on_at):
            if k <= start:
                mask[u - 1, v - 1] = mask[v - 1, u - 1] = 1.0
        t, th = phase.integrate_batch(
            theta, K * mask, Ks, delta, (end - start) / spp,
            noise_sigma=noise_sigma, noise=None if noise is None else noise[start:end],
        )
        theta = th[-1]
        skip = 1 if times else 0  # a segment's first sample ends the previous one
        times.append(t[skip:] + start / spp)
        thetas.append(th[skip:])
    return np.concatenate(times), np.concatenate(thetas)


def _phase_run_batch(
    g: Graph,
    m: MachineConfig,
    sched: RunSchedule,
    seeds: list[np.random.SeedSequence],
) -> list[RunResult]:
    optimum, _ = oracle_max_cut(g)
    times, thetas = phase_protocol_run(g, m, sched, seeds)
    results = []
    for b in range(len(seeds)):
        trace = phase.PhaseTrace(
            times=times, thetas=thetas[:, b, :], sync_events=((0.0, True),)
        )
        readout = spins_from_phases(trace.final_state())
        results.append(_result_from_readout(g, readout, lock_period(trace), optimum))
    return results


def _circuit_run_batch(
    g: Graph,
    m: MachineConfig,
    sched: RunSchedule,
    seeds: list[np.random.SeedSequence],
) -> list[RunResult]:
    optimum, _ = oracle_max_cut(g)
    readouts = circuit.run_readout_batch(m, sched, seeds)
    return [_result_from_readout(g, ro, None, optimum) for ro in readouts]


def run_once(
    g: Graph,
    m: MachineConfig,
    backend: str = "phase",
    sched: RunSchedule | None = None,
    seed: int = 0,
) -> RunResult:
    """Execute protocol steps 1-6 once; deterministic given the seed."""
    return run_many(g, m, backend, sched, runs=1, seed=seed).run_results[0]


def run_many(
    g: Graph,
    m: MachineConfig,
    backend: str = "phase",
    sched: RunSchedule | None = None,
    runs: int = 100,
    seed=0,
    parallel: bool = True,
) -> RunStats:
    """Aggregate run_once over counter-split seeds.

    parallel=True executes all runs in one vectorized batch; False runs
    them one at a time.  Both paths produce identical results.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if g.n > m.n:
        raise ValueError(f"graph ({g.n} vertices) larger than machine ({m.n})")
    sched = sched or RunSchedule()
    if sched.staggered_delays is not None:
        if len(sched.staggered_delays) != len(g.edges):
            raise ValueError("need one delay per edge")
        if backend != "phase":
            raise ValueError("staggered activation is modelled on the phase backend only")
    seeds = run_seeds(seed, runs)
    batch_fn = _phase_run_batch if backend == "phase" else _circuit_run_batch
    if parallel:
        results = batch_fn(g, m, sched, seeds)
    else:
        results = []
        for s in seeds:
            results.extend(batch_fn(g, m, sched, [s]))
    return _aggregate(results)


def _aggregate(results: list[RunResult]) -> RunStats:
    histogram: dict[str, int] = {}
    for r in results:
        histogram[r.bitstring] = histogram.get(r.bitstring, 0) + 1
    locks = [r.lock_period for r in results if r.lock_period is not None]
    n_spins = len(results[0].bitstring)
    return RunStats(
        histogram=histogram,
        runs=len(results),
        success_rate=sum(r.optimal for r in results) / len(results),
        mean_lock_period=(sum(locks) / len(locks)) if locks else None,
        locked_fraction=len(locks) / len(results),
        unresolved_rate=sum(r.unresolved_count for r in results)
        / (n_spins * len(results)),
        run_results=tuple(results),
    )


def sweep_coupling(
    g: Graph,
    m: MachineConfig,
    backend: str = "phase",
    sched: RunSchedule | None = None,
    scales: tuple[float, ...] = (),
    runs_per_point: int = 50,
    seed: int = 0,
) -> list[SweepPoint]:
    """One RunStats row per global coupling scale; deterministic."""
    if not scales:
        raise ValueError("scale list must be nonempty")
    rows = []
    children = np.random.SeedSequence(seed).spawn(len(scales))
    for scale, child in zip(scales, children):
        stats = run_many(
            g, set_global_scale(m, scale), backend, sched,
            runs=runs_per_point, seed=child, parallel=True,
        )
        rows.append(
            SweepPoint(
                scale=float(scale),
                success_rate=stats.success_rate,
                mean_lock_period=stats.mean_lock_period,
                locked_fraction=stats.locked_fraction,
                unresolved_rate=stats.unresolved_rate,
            )
        )
    return rows


def best_operating_point(
    rows: list[SweepPoint],
    max_unresolved: float = 0.05,
    target_success: float = 0.8,
) -> SweepPoint:
    """Operating point: highest success among well-binarized scales.

    When no cleanly binarized scale reaches the target success, fall back to
    the least-unresolved scale among those within 0.05 of the best success,
    trading some readout ambiguity for solution quality.
    """
    clean = [r for r in rows if r.unresolved_rate <= max_unresolved]
    if clean:
        best_clean = max(clean, key=lambda r: (r.success_rate, -r.scale))
        if best_clean.success_rate >= target_success:
            return best_clean
    best_sr = max(r.success_rate for r in rows)
    near = [r for r in rows if r.success_rate >= max(target_success, best_sr - 0.05)]
    pool = near or rows
    return min(pool, key=lambda r: (r.unresolved_rate, -r.success_rate))


def staggered_activation_experiment(
    g: Graph,
    m: MachineConfig,
    backend: str = "phase",
    delays: tuple[float, ...] = (),
    runs: int = 50,
    seed: int = 0,
    sched: RunSchedule | None = None,
) -> StaggerComparison:
    """Simultaneous versus staggered weight activation, same seeds.

    Exploratory: reports both statistics without asserting an ordering.
    With all-zero delays the two arms are identical.  Phase backend only.
    """
    base = sched or RunSchedule()
    delays = delays or tuple(0.0 for _ in g.edges)
    max_delay = max(delays) if delays else 0.0
    staggered_sched = RunSchedule(
        free_run_periods=base.free_run_periods,
        settle_periods=base.settle_periods + max_delay,
        staggered_delays=delays,
    )
    # staggered arm first: run_many rejects a wrong delay count before any work
    staggered = run_many(g, m, backend, staggered_sched, runs=runs, seed=seed)
    simultaneous = run_many(g, m, backend, base, runs=runs, seed=seed)
    return StaggerComparison(simultaneous=simultaneous, staggered=staggered)
