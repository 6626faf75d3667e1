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


def test_traced_phase_solve_records_every_layer(tracer, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_ORACLE_CACHE", {})  # force a cold oracle
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
