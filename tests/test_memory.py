"""Memory held by a phase protocol run and its lock detection, on the benchmark shape.

One 20-vertex dyadic-weight G(20, 0.3) graph, 32 runs, noise 0.05: the
coupling puts the run on rung 25, so it takes 375 steps and 241 samples.
Peaks are numpy allocations seen by ``tracemalloc``.
"""

import tracemalloc

import numpy as np
import pytest

from oscim.harness import RunSchedule, phase_protocol_run, run_seeds
from oscim.machine import build_machine
from oscim.phase_dynamics import (
    binary_distance,
    coupling_terms,
    integrate_batch,
    steps_per_period_for,
)
from oscim.problems import Graph
from oscim.readout import lock_period

RUNS = 32
# room for the step's (B, n) temporaries, a bool mask and the Brownian draws of one run
SLACK = 256 * 1024


def benchmark_shape_machine():
    rng = np.random.default_rng(20)
    edges = tuple((i + 1, j + 1, float(rng.integers(1, 9)) / 4.0)
                  for i in range(20) for j in range(i + 1, 20) if rng.random() < 0.3)
    return build_machine(Graph(n=20, edges=edges), noise_sigma=0.05)


def traced_peak(fn, *args):
    """(fn(*args), bytes its allocations peaked at above what was held before the call)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def protocol_run():
    m = benchmark_shape_machine()
    sched = RunSchedule()
    seeds = run_seeds(16, RUNS)
    assert steps_per_period_for(*coupling_terms(m)) == 25
    phase_protocol_run(m, sched, seeds)  # first-call set-up outside the trace
    (times, thetas), peak = traced_peak(phase_protocol_run, m, sched, seeds)
    noise_bytes = round(sched.settle_periods * 25) * RUNS * m.n * 8  # (steps, B, n) float64
    return times, thetas, peak, noise_bytes


def test_protocol_run_holds_its_noise_and_one_sample_block(protocol_run):
    times, thetas, peak, noise_bytes = protocol_run
    assert thetas.shape == (241, RUNS, 20)
    assert peak <= noise_bytes + thetas.nbytes + SLACK


def test_lock_detection_holds_one_trajectory_copy(protocol_run):
    times, thetas, _, _ = protocol_run
    locks, peak = traced_peak(lock_period, times, thetas)
    assert len(locks) == RUNS
    assert peak <= thetas.nbytes + SLACK


def test_steps_longer_than_a_sample_give_one_sample_per_step():
    theta0 = np.array([[0.3, 2.0, 4.1]])
    K = np.array([[0.0, 0.2, -0.1], [0.2, 0.0, 0.3], [-0.1, 0.3, 0.0]])
    times, thetas = integrate_batch(theta0, K, 0.1, np.zeros(3), 2.0, steps_per_period=1)
    assert times.tolist() == [0.0, 1.0, 2.0]
    assert thetas.shape == (3, 1, 3)
    assert np.array_equal(thetas[0], theta0)
    _, one_step = integrate_batch(theta0, K, 0.1, np.zeros(3), 1.0, steps_per_period=1)
    assert np.array_equal(thetas[1], one_step[-1])


@pytest.mark.parametrize("theta", [3.0, np.float64(3.0), np.array(3.0)],
                         ids=["float", "numpy-scalar", "0-d-array"])
def test_binary_distance_takes_0d_input(theta):
    d = binary_distance(theta)
    assert np.ndim(d) == 0
    assert d == abs(np.mod(3.0 + np.pi / 2, np.pi) - np.pi / 2)
