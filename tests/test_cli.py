"""Command-line interface: exit codes, document shape, reproducibility."""

import argparse
import hashlib
import json
import warnings

import numpy as np
import pytest

from oscim.cli import main

TRIANGLE_TEXT = "n 3\n1 2 1\n2 3 1\n1 3 1\n"
EDGE_TEXT = "n 2\n1 2 1.0\n"
WEIGHTED3_TEXT = "n 3\n1 2 1\n2 3 0.5\n1 3 0.75\n"
WEIGHTED8_TEXT = ("n 8\n1 2 0.7\n1 3 1.3\n2 4 0.9\n3 4 1.1\n4 5 0.3\n5 6 1.7\n"
                  "5 7 0.6\n6 8 1.2\n7 8 0.8\n2 6 0.4\n3 7 1.5\n1 8 0.55\n")


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.graph"
    path.write_text(TRIANGLE_TEXT)
    return str(path)


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edge.graph"
    path.write_text(EDGE_TEXT)
    return str(path)


class TestOracle:
    def test_single_edge(self, edge_file, capsys):
        assert main(["oracle", "--graph", edge_file]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out == ["1", "01"]

    def test_triangle(self, triangle_file, capsys):
        assert main(["oracle", "--graph", triangle_file]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "2"
        assert sorted(out[1:]) == ["001", "010", "011"]

    def test_k4(self, tmp_path, capsys):
        path = tmp_path / "k4.graph"
        edges = [f"{u} {v} 1" for u in range(1, 5) for v in range(u + 1, 5)]
        path.write_text("n 4\n" + "\n".join(edges) + "\n")
        assert main(["oracle", "--graph", str(path)]) == 0
        assert capsys.readouterr().out.split("\n")[0] == "4"

    def test_missing_file(self, capsys):
        assert main(["oracle", "--graph", "/nonexistent.graph"]) == 1
        assert "error" in capsys.readouterr().err


class TestParser:
    def test_one_parser_serves_every_call(self, triangle_file, monkeypatch, capsys):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def recording(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
        assert main(["oracle", "--graph", triangle_file]) == 0
        first = capsys.readouterr().out
        assert main(["oracle", "--graph"]) == 1  # the parse fails
        capsys.readouterr()
        assert main(["oracle", "--graph", triangle_file]) == 0
        assert capsys.readouterr().out == first
        assert len(parsers) == 3
        assert parsers[0] is parsers[1] is parsers[2]


class TestSolve:
    def test_triangle_document(self, triangle_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        rc = main([
            "solve", "--graph", triangle_file, "--runs", "30", "--seed", "5",
            "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["oracle"]["optimum"] == 2.0
        assert sum(doc["histogram"].values()) == 30
        assert doc["config"]["seed"] == 5
        assert set(doc["per_optimum_frequency"]) == {"001", "010", "011"}

    def test_document_round_trips(self, triangle_file, capsys):
        assert main(["solve", "--graph", triangle_file, "--runs", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert json.loads(json.dumps(doc)) == doc

    def test_missing_graph_exits_1(self, capsys):
        assert main(["solve", "--graph", "/no/such/file"]) == 1

    def test_reproducible_documents(self, triangle_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            rc = main([
                "solve", "--graph", triangle_file, "--runs", "20", "--seed", "9",
                "--out", str(path),
            ])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sequential_flag_reproduces_parallel(self, triangle_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve", "--graph", triangle_file, "--runs", "12",
                     "--seed", "3", "--out", str(a)]) == 0
        assert main(["solve", "--graph", triangle_file, "--runs", "12",
                     "--seed", "3", "--out", str(b), "--sequential"]) == 0
        da = json.loads(a.read_text())
        db = json.loads(b.read_text())
        del da["config"]["parallel"], db["config"]["parallel"]
        assert da == db

    def test_circuit_settle_shorter_than_detector_exits_1(self, edge_file, monkeypatch, capsys):
        from oscim import circuit_dynamics

        def no_calibration(*args, **kwargs):
            raise AssertionError("calibration ran before the settle check")

        monkeypatch.setattr(circuit_dynamics, "calibrated_params", no_calibration)
        rc = main(["solve", "--graph", edge_file, "--backend", "circuit",
                   "--runs", "2", "--settle-periods", "3"])
        assert rc == 1
        assert "settle_periods" in capsys.readouterr().err

    def test_settle_shorter_than_one_step_exits_1(self, triangle_file, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = main(["solve", "--graph", triangle_file, "--runs", "2",
                   "--settle-periods", "0.001", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "settle_periods" in err
        assert not out.exists()

    def test_non_finite_noise_exits_1_before_work(self, triangle_file, monkeypatch, capsys):
        from oscim import cli

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the machine was checked")

        monkeypatch.setattr(cli, "oracle_max_cut", no_work)
        monkeypatch.setattr(cli, "run_many", no_work)
        rc = main(["solve", "--graph", triangle_file, "--runs", "2", "--noise", "nan"])
        assert rc == 1
        assert "noise_sigma must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--free-run-periods", "--settle-periods"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_schedule_exits_1_before_work(self, triangle_file, monkeypatch,
                                                     capsys, flag, value):
        from oscim import cli

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the schedule was checked")

        monkeypatch.setattr(cli, "oracle_max_cut", no_work)
        monkeypatch.setattr(cli, "run_many", no_work)
        rc = main(["solve", "--graph", triangle_file, "--runs", "2", flag, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{flag[2:].replace('-', '_')} must be finite" in err

    def test_circuit_noise_exits_1_before_calibration(self, triangle_file, monkeypatch,
                                                      capsys):
        from oscim import circuit_dynamics

        def no_calibration(*args, **kwargs):
            raise AssertionError("calibration ran before the noise check")

        monkeypatch.setattr(circuit_dynamics, "calibrated_params", no_calibration)
        for command in ("solve", "sweep"):
            rc = main([command, "--graph", triangle_file, "--backend", "circuit",
                       "--noise", "0.5", "--runs", "2", "--settle-periods", "6",
                       "--seed", "1"])
            assert rc == 1
            assert "phase backend only" in capsys.readouterr().err

    def test_oracle_limit_exits_1_before_calibration(self, tmp_path, monkeypatch, capsys):
        from oscim import circuit_dynamics

        def no_calibration(*args, **kwargs):
            raise AssertionError("calibration ran before the oracle size check")

        monkeypatch.setattr(circuit_dynamics, "calibrated_params", no_calibration)
        path = tmp_path / "path25.graph"
        path.write_text("n 25\n" + "".join(f"{u} {u + 1} 1\n" for u in range(1, 25)))
        for argv in (["solve", "--backend", "circuit", "--runs", "2"], ["oracle"]):
            assert main(argv + ["--graph", str(path)]) == 1
            assert "too large for exhaustive enumeration" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_oversized_graph_exits_1_before_the_machine_is_built(self, tmp_path, monkeypatch,
                                                                capsys, command):
        from oscim import machine

        def no_machine(*args, **kwargs):
            raise AssertionError("the machine was built before the graph size check")

        monkeypatch.setattr(machine, "build_coupling", no_machine)
        path = tmp_path / "n3000.graph"
        path.write_text("n 3000\n1 2 1\n")
        assert main([command, "--graph", str(path), "--runs", "2"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "n=3000 too large for exhaustive enumeration (limit 24)" in err

    @pytest.mark.parametrize("flags", [["--f0", "1e-310"], ["--f0", "3e-308"],
                                       ["--f0", "1e-300", "--settle-periods", "1e9"],
                                       ["--f0", "1e308"]])
    def test_circuit_f0_without_a_finite_step_count_exits_1(self, triangle_file, capsys,
                                                            flags):
        rc = main(["solve", "--graph", triangle_file, "--backend", "circuit",
                   "--runs", "1"] + flags)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f"f0={flags[1]} Hz" in err.replace("1e+308", "1e308")

    @pytest.mark.parametrize("f0", ["1e306", "1e307"])
    def test_circuit_f0_past_the_kernel_limit_exits_1(self, triangle_file, capsys, f0):
        # the ladder resistor is finite here, but the summer's rates overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["solve", "--graph", triangle_file, "--backend", "circuit",
                       "--runs", "1", "--f0", f0])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: f0={float(f0):g} Hz is out of range")

    def test_circuit_document_does_not_depend_on_f0(self, tmp_path, monkeypatch):
        # f0 is only the unit of time: the circuit scales with RC, and its
        # detectors integrate per oscillation period
        monkeypatch.chdir(tmp_path)
        (tmp_path / "w3.graph").write_text(WEIGHTED3_TEXT)
        docs = []
        for f0 in ("1900", "3800", "38000", "380000", "3.8e6"):
            assert main(["solve", "--graph", "w3.graph", "--backend", "circuit", "--runs", "4",
                         "--settle-periods", "6", "--f0", f0, "--out", "doc.json"]) == 0
            doc = json.loads((tmp_path / "doc.json").read_text())
            assert doc["config"]["machine"].pop("f0_hz") == float(f0)
            docs.append(doc)
        assert docs[0]["unresolved_rate"] == 0.0
        assert all(doc == docs[0] for doc in docs[1:])

    def test_simulation_failure_exits_2(self, triangle_file, monkeypatch, capsys):
        from oscim import cli
        from oscim.errors import SimulationDiverged

        def diverged(*args, **kwargs):
            raise SimulationDiverged("non-finite phase at t=1.000 periods (run 0, oscillator 1)")

        monkeypatch.setattr(cli, "run_many", diverged)
        assert main(["solve", "--graph", triangle_file, "--runs", "2"]) == 2
        assert capsys.readouterr().err == (
            "simulation failed: non-finite phase at t=1.000 periods (run 0, oscillator 1)\n")

    @pytest.mark.parametrize("argv", [["solve", "--out", "{missing}/r.json"],
                                      ["solve", "--trace", "{missing}/t.csv"],
                                      ["oracle", "--out", "{missing}/o.txt"]])
    def test_unwritable_output_exits_1(self, triangle_file, tmp_path, capsys, argv):
        missing = tmp_path / "missing"
        argv = [a.format(missing=missing) for a in argv]
        if argv[0] == "solve":
            argv += ["--runs", "2", "--settle-periods", "6"]
        assert main(argv + ["--graph", triangle_file]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert str(missing) in err

    def test_failed_allocation_exits_1(self, triangle_file, monkeypatch, capsys):
        from oscim import cli

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 23.3 GiB for an array")

        monkeypatch.setattr(cli, "run_many", no_memory)
        assert main(["solve", "--graph", triangle_file, "--settle-periods", "1e9"]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 23.3 GiB for an array\n"

    def test_weights_past_the_float_limit_exit_1(self, tmp_path, capsys):
        path = tmp_path / "huge.graph"
        path.write_text("n 3\n1 2 1e308\n2 3 1e308\n")
        assert main(["solve", "--graph", str(path), "--runs", "2"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "total |weight|" in err

    @pytest.mark.parametrize("flags", [["--runs", "0"],
                                       ["--backend", "circuit", "--noise", "0.5"]])
    def test_run_checks_precede_the_oracle(self, tmp_path, monkeypatch, capsys, flags):
        from oscim import harness

        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle ran before the run checks")

        harness.oracle_max_cut.cache_clear()
        monkeypatch.setattr(harness, "brute_force_max_cut", no_oracle)
        path = tmp_path / "k24.graph"
        path.write_text("n 24\n" + "".join(
            f"{u} {v} 1\n" for u in range(1, 25) for v in range(u + 1, 25)))
        rc = main(["solve", "--graph", str(path), "--settle-periods", "6"] + flags)
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_trace_csv(self, edge_file, tmp_path):
        trace = tmp_path / "trace.csv"
        rc = main([
            "solve", "--graph", edge_file, "--runs", "2", "--seed", "1",
            "--out", str(tmp_path / "r.json"), "--trace", str(trace),
            "--settle-periods", "10",
        ])
        assert rc == 0
        lines = trace.read_text().strip().split("\n")
        assert lines[0] == "t_periods,osc1,osc2,sync"
        # default sampling: 16 per period over 10 periods, initial sample included
        assert len(lines) - 1 == pytest.approx(10 * 16, abs=1.5)

    def test_circuit_trace_csv(self, triangle_file, tmp_path):
        from oscim.circuit_dynamics import run_trace
        from oscim.formats import parse_graph_file
        from oscim.harness import RunSchedule
        from oscim.machine import build_machine

        trace = tmp_path / "trace.csv"
        assert main(["solve", "--graph", triangle_file, "--backend", "circuit", "--runs", "2",
                     "--seed", "4", "--free-run-periods", "2", "--settle-periods", "5",
                     "--out", str(tmp_path / "r.json"), "--trace", str(trace)]) == 0
        header, *rows = trace.read_text().splitlines()
        assert header == "t_periods,osc1,osc2,osc3,sync"
        table = np.array([[float(cell) for cell in row.split(",")] for row in rows])
        times, values, sync = table[:, 0], table[:, 1:4], table[:, 4]
        free = int(np.count_nonzero(sync == 0))
        assert 0 < free < len(sync)
        assert sync.tolist() == [0.0] * free + [1.0] * (len(sync) - free)
        assert np.all(np.diff(times) > 0)
        m = build_machine(parse_graph_file(TRIANGLE_TEXT))
        expected = run_trace(m, RunSchedule(2.0, 5.0), 4)
        assert np.array_equal(times, expected.times * m.f0)
        assert np.array_equal(values, expected.outputs)
        assert np.array_equal(sync, expected.sync_flags)

    def test_histogram_is_built_once(self, tmp_path, monkeypatch):
        # K6 at this coupling has 10 maximizers, each looked up in the histogram
        from oscim.harness import RunStats

        built = []
        real = RunStats.histogram

        def counting(self):
            built.append(1)
            return real.fget(self)

        monkeypatch.setattr(RunStats, "histogram", property(counting))
        graph = tmp_path / "k6.graph"
        graph.write_text("n 6\n" + "".join(
            f"{u} {v} 1\n" for u in range(1, 7) for v in range(u + 1, 7)))
        assert main(["solve", "--graph", str(graph), "--runs", "3", "--coupling", "0.1",
                     "--out", str(tmp_path / "doc.json")]) == 0
        assert built == [1]
        doc = json.loads((tmp_path / "doc.json").read_text())
        assert len(doc["per_optimum_frequency"]) == 10


class TestPinnedDocuments:
    """sha256 of the `solve --out` bytes of three fixed cases.

    Only documents are pinned: they hold counts and sample times, while the
    raw floats of a trace CSV may differ in the last bits across CPUs.
    """

    @pytest.mark.parametrize("name, text, flags, digest", [
        ("triangle.graph", TRIANGLE_TEXT, ["--seed", "77"],
         "e120580c0468bb799ed1aec6af8c9982534bc38d5e6de8cc74fa37fe38817871"),
        ("w8.graph", WEIGHTED8_TEXT, ["--noise", "0.05", "--seed", "5"],
         "d7a1a5b55d75ff168c4e616ebdc2fb1a49f25bb469883cd6a886c9332a297675"),
        ("triangle.graph", TRIANGLE_TEXT,
         ["--backend", "circuit", "--runs", "4", "--seed", "1", "--settle-periods", "10"],
         "a9cfd6cc4bc295b4330c89ae11e915bdd3a9ee551b81ccf905ca2cbd152f7118"),
    ], ids=["phase-triangle", "phase-weighted8-noisy", "circuit-triangle"])
    def test_document_digest(self, tmp_path, monkeypatch, name, text, flags, digest):
        # the config echo records the graph path, so it is given relative
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text(text)
        assert main(["solve", "--graph", name, "--out", "doc.json"] + flags) == 0
        assert hashlib.sha256((tmp_path / "doc.json").read_bytes()).hexdigest() == digest


class TestSweepCommand:
    def test_default_grid_rows(self, edge_file, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--graph", edge_file, "--runs", "5", "--seed", "2",
            "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "scale,success_rate,mean_lock_period"
        assert len(lines) == 11  # header + 10 default scales

    def test_explicit_scales(self, edge_file, capsys):
        rc = main(["sweep", "--graph", edge_file, "--runs", "4",
                   "--scales", "0.1,0.3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3

    def test_empty_scales_exit_1(self, edge_file, capsys):
        assert main(["sweep", "--graph", edge_file, "--scales", ","]) == 1

    @pytest.mark.parametrize("scales", ["0.1,0.2,-0.1", "0.1,nan"])
    def test_bad_scale_rejected_before_any_run(self, edge_file, monkeypatch, capsys, scales):
        from oscim import phase_dynamics
        from oscim.harness import sweep_coupling
        from oscim.machine import build_machine
        from oscim.problems import Graph

        def no_run(*args, **kwargs):
            raise AssertionError("a scale ran before every scale was checked")

        monkeypatch.setattr(phase_dynamics, "integrate_batch", no_run)
        values = tuple(float(s) for s in scales.split(","))
        g = Graph(n=2, edges=((1, 2, 1.0),))
        with pytest.raises(ValueError, match="global_scale"):
            sweep_coupling(g, build_machine(g), scales=values, runs_per_point=2, seed=0)
        rc = main(["sweep", "--graph", edge_file, "--runs", "2", "--scales", scales])
        assert rc == 1
        assert "global_scale" in capsys.readouterr().err

    def test_bad_scale_list_exits_1(self, edge_file, capsys):
        assert main(["sweep", "--graph", edge_file, "--runs", "2", "--scales", "1,x"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: bad scale list")

    def test_sequential_is_a_solve_flag(self, edge_file, capsys):
        # sweep always runs batched, so it does not take the flag
        assert main(["sweep", "--graph", edge_file, "--runs", "2", "--scales", "0.1",
                     "--sequential"]) == 1
        assert "unrecognized arguments: --sequential" in capsys.readouterr().err

    def test_deterministic(self, edge_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["sweep", "--graph", edge_file, "--runs", "6", "--seed", "8",
                  "--scales", "0.1,0.2", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_csv_and_best_line_are_pinned(self, tmp_path, capsys):
        # sha256 of the CSV; the grid holds a point that never locks
        graph, out = tmp_path / "w8.graph", tmp_path / "sweep.csv"
        graph.write_text(WEIGHTED8_TEXT)
        assert main(["sweep", "--graph", str(graph), "--runs", "8", "--seed", "3",
                     "--noise", "0.05", "--scales", "0.02,0.1,0.2,0.3",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "7993790596e381851baf8188d818d7fd235fd2d98a02a4e9bb4ffdcf271b1189")
        assert capsys.readouterr().err == "best scale 0.1 (success_rate 1.000)\n"

    def test_row_aggregates_are_pinned(self, tmp_path, monkeypatch):
        # the input of the CSV pin; the CSV holds neither locked_fraction nor unresolved_rate
        from oscim import cli, harness

        swept, chosen = [], []

        def recording_sweep(*args, **kwargs):
            swept.extend(harness.sweep_coupling(*args, **kwargs))
            return swept

        def recording_best(rows):
            chosen.append(harness.best_operating_point(rows))
            return chosen[-1]

        monkeypatch.setattr(cli, "sweep_coupling", recording_sweep)
        monkeypatch.setattr(cli, "best_operating_point", recording_best)
        graph = tmp_path / "w8.graph"
        graph.write_text(WEIGHTED8_TEXT)
        assert main(["sweep", "--graph", str(graph), "--runs", "8", "--seed", "3",
                     "--noise", "0.05", "--scales", "0.02,0.1,0.2,0.3",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        assert [repr((scale, s.success_rate, s.mean_lock_period, s.locked_fraction,
                      s.unresolved_rate)) for scale, s in swept] == [
            "(0.02, 0.375, None, 0.0, 0.546875)",
            "(0.1, 1.0, 7.777142857142857, 0.875, 0.03125)",
            "(0.2, 1.0, 3.79, 1.0, 0.0)",
            "(0.3, 1.0, 3.65, 1.0, 0.0)",
        ]
        assert [repr(scale) for scale, _ in chosen] == ["0.1"]


class TestConvert:
    def test_qubo_to_ising(self, tmp_path, capsys):
        src = tmp_path / "q.json"
        src.write_text(json.dumps({"kind": "qubo", "n": 1, "Q": [[1.0]], "offset": 0.0}))
        assert main(["convert", "--in", str(src)]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["h"] == [-0.5]
        assert doc["offset"] == 0.5
        assert "offset 0.5" in captured.err

    def test_round_trip_preserves_content(self, tmp_path, capsys):
        src = tmp_path / "q.json"
        ised = tmp_path / "i.json"
        back = tmp_path / "q2.json"
        src.write_text(json.dumps(
            {"kind": "qubo", "n": 2, "Q": [[1.0, -0.5], [0.0, 2.0]], "offset": 0.25}
        ))
        assert main(["convert", "--in", str(src), "--out", str(ised)]) == 0
        assert main(["convert", "--in", str(ised), "--out", str(back)]) == 0
        q0 = json.loads(src.read_text())
        q1 = json.loads(back.read_text())
        assert q1["Q"] == q0["Q"]
        assert q1["offset"] == pytest.approx(q0["offset"])

    @pytest.mark.parametrize("doc, digest, err", [
        ({"kind": "qubo", "n": 3, "offset": 0.1,
          "Q": [[0.3, -1.1, 0.7], [0.0, 2.2, -0.1], [0.0, 0.0, -0.9]]},
         "f09be77a17e33f6ef402fe4bcc5ecd615795273014fd7815145d700158c8e0d1",
         "energy offset 0.775\n"),
        ({"kind": "ising", "n": 3, "offset": -0.7, "h": [0.1, -0.2, 0.3],
          "J": [[0.0, 0.3, -0.7], [0.3, 0.0, 1.1], [-0.7, 1.1, 0.0]]},
         "e6d0bb6beb29114090ec05353b2155820dd7da45ed96727c3b8b165b9d001531",
         "energy offset -1.2\n"),
    ], ids=["qubo-to-ising", "ising-to-qubo"])
    def test_output_is_pinned(self, tmp_path, capsys, doc, digest, err):
        # sha256 of stdout on non-dyadic entries, whose last bits show the term order
        src = tmp_path / "in.json"
        src.write_text(json.dumps(doc))
        assert main(["convert", "--in", str(src)]) == 0
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
        assert captured.err == err

    def test_bool_mixed_into_a_matrix_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "qubo", "n": 2, "Q": [[1, true], [0, 1]]}')
        assert main(["convert", "--in", str(bad)]) == 1
        assert "Q must be numeric, got bool entries" in capsys.readouterr().err

    def test_non_finite_matrix_exits_1(self, tmp_path, capsys):
        # Python's json reads the bare NaN token as float('nan')
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 1, "Q": [[NaN]]}')
        assert main(["convert", "--in", str(bad)]) == 1
        assert "Q must be finite, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [(None, "cannot read"),
                                               ('{"n": 1, "Q": [[1.0]]', "invalid JSON in")],
                             ids=["missing", "truncated"])
    def test_unreadable_input_exits_1(self, tmp_path, capsys, text, message):
        src = tmp_path / "problem.json"
        if text is not None:
            src.write_text(text)
        assert main(["convert", "--in", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {message} {src}")

    def test_malformed_input_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "Q": [[1.0]]}')
        assert main(["convert", "--in", str(bad)]) == 1
