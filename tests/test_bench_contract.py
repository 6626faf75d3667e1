"""The benchmark's tracer still finds, binds and traces the functions it names."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from oscim import cli, harness

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_callable(tracer):
    for mod_name, attr, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)


def test_work_counters_bind_their_parameters(tracer):
    from oscim import circuit_dynamics, phase_dynamics

    needed = {
        "integrate_batch": (phase_dynamics.integrate_batch,
                            {"theta0", "duration_periods", "steps_per_period"}),
        "run_readout_batch": (circuit_dynamics.run_readout_batch, {"m", "sched", "seeds"}),
    }
    assert set(tracer.WORK_COUNTERS) == set(needed)
    for fn, params in needed.values():
        assert params <= set(inspect.signature(fn).parameters), fn.__name__


def test_traced_phase_solve_records_every_layer(tracer, tmp_path):
    harness.oracle_max_cut.cache_clear()  # force a cold oracle
    graph = tmp_path / "edge.graph"
    graph.write_text("n 2\n1 2 1.0\n")
    argv = ["solve", "--graph", str(graph), "--runs", "2", "--settle-periods", "2",
            "--out", str(tmp_path / "r.json")]
    t = tracer.Tracer()
    assert t.run_job(0, lambda args: cli.main(args), argv) == 0
    names = {s["name"] for s in t.spans}
    for name in ("main", "parse_graph_file", "build_machine", "oracle_max_cut",
                 "brute_force_max_cut", "run_many", "integrate_batch",
                 "spins_from_phases", "document_bytes"):
        assert name in names, name
    assert not hasattr(cli.main, "__wrapped__")  # the tracer uninstalled itself


def test_traced_circuit_run_records_every_layer(tracer):
    from oscim.harness import RunSchedule
    from oscim.machine import build_machine
    from oscim.problems import Graph

    g = Graph(n=2, edges=((1, 2, 1.0),))
    m = build_machine(g, global_scale=0.2)
    sched = RunSchedule(free_run_periods=1.0, settle_periods=5.0)
    t = tracer.Tracer()
    stats = t.run_job(0, harness.run_many, g, m, "circuit", sched, 2, 0)
    assert stats.runs == 2
    names = {s["name"] for s in t.spans}
    for name in ("run_readout_batch", "calibrated_params", "phases_to_network_state",
                 "phase_detector", "spins_from_detectors"):
        assert name in names, name
    assert "integrate_batch" not in names
    assert not hasattr(harness.run_many, "__wrapped__")


def test_circuit_step_count_matches_the_integrator(tracer, monkeypatch):
    # the tracer reads DEFAULT_STEPS_PER_PERIOD to count a circuit batch's
    # RK4 steps; each step makes four output solves, and the settle interval
    # ends on a sample, which takes one solve of its own
    from oscim import circuit_dynamics
    from oscim.harness import RunSchedule, run_seeds
    from oscim.machine import build_machine
    from oscim.problems import Graph

    assert isinstance(circuit_dynamics.DEFAULT_STEPS_PER_PERIOD, int)
    m = build_machine(Graph(n=2, edges=((1, 2, 1.0),)), global_scale=0.2)
    # calibration and the limit-cycle table integrate too: build them uncounted
    circuit_dynamics._limit_cycle_states(circuit_dynamics.calibrated_params(m.f0), m.f0)
    calls = []
    real = circuit_dynamics._solve_output

    def counting(c, guess):
        calls.append(1)
        return real(c, guess)

    monkeypatch.setattr(circuit_dynamics, "_solve_output", counting)
    # the machine steps at the base rung, the one the tracer reads; one period
    # and one step of free interval is spp + 1 steps, which do not end on a sample
    spp = circuit_dynamics.DEFAULT_STEPS_PER_PERIOD
    assert circuit_dynamics.steps_per_period_for(m, circuit_dynamics.calibrated_params(m.f0)) == spp
    sched = RunSchedule(free_run_periods=1.0 + 1.0 / spp, settle_periods=5.0)
    seeds = run_seeds(3, 2)
    circuit_dynamics.run_readout_batch(m, sched, seeds)
    bound = inspect.signature(circuit_dynamics.run_readout_batch).bind(m, sched, seeds)
    run_steps, steps = tracer._run_readout_batch_work(bound)
    assert steps == (spp + 1) + 5 * spp
    assert divmod(len(calls), 4) == (steps, 1)
    assert run_steps == len(seeds) * steps
