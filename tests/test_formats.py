"""File formats: graph parser, problem documents, CSV writers."""

import io
import json

import numpy as np
import pytest

from oscim import formats, problems
from oscim.errors import GraphFormatError
from oscim.formats import (
    document_bytes,
    ising_to_document,
    parse_graph_file,
    problem_from_document,
    qubo_to_document,
    write_sweep_csv,
    write_trace_csv,
)
from oscim.harness import RunResult, RunStats
from oscim.problems import IsingProblem, Qubo, energy, qubo_value


class TestParseGraphFile:
    def test_single_edge(self):
        g = parse_graph_file("n 2\n1 2 1.0\n")
        assert g.n == 2
        assert g.edges == ((1, 2, 1.0),)

    def test_triangle_with_comments(self):
        text = "# a triangle\nn 3\n1 2 1\n2 3 1\n\n# last edge\n1 3 1\n"
        g = parse_graph_file(text)
        assert g.n == 3
        assert len(g.edges) == 3

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(GraphFormatError, match="line 2.*self-loop"):
            parse_graph_file("n 2\n1 1 1.0\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse_graph_file("n 2\n1 2 1.0\n2 1 2.0\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphFormatError, match="outside"):
            parse_graph_file("n 2\n1 3 1.0\n")

    def test_non_finite_weight_with_line(self):
        with pytest.raises(GraphFormatError, match="line 3.*non-finite"):
            parse_graph_file("n 3\n1 2 1.0\n2 3 nan\n")

    def test_malformed_line_number(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            parse_graph_file("# c\nn 2\n1 2\n")

    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="header"):
            parse_graph_file("1 2 1.0\n")

    @pytest.mark.parametrize("text", ["", "# comment only\n\n"], ids=["empty", "comments"])
    def test_file_without_a_header(self, text):
        with pytest.raises(GraphFormatError, match="^missing 'n <count>' header$"):
            parse_graph_file(text)

    def test_each_edge_is_checked_once(self, monkeypatch):
        calls = []
        check_edge = problems.check_edge

        def counting_check_edge(*args):
            calls.append(args[0])
            return check_edge(*args)

        # the parser may reach the check through either module's name for it
        for module in (problems, formats):
            monkeypatch.setattr(module, "check_edge", counting_check_edge, raising=False)
        g = parse_graph_file("n 4\n1 2 1.0\n# c\n2 3 0.5\n\n4 3 2.0\n1 4 0.25\n")
        assert g.edges == ((1, 2, 1.0), (2, 3, 0.5), (3, 4, 2.0), (1, 4, 0.25))
        assert len(calls) == len(g.edges)

    @pytest.mark.parametrize("text, message", [
        ("n 3\n1 2 1\n\n# c\n2 3 1\n3 2 1\n", "line 6: duplicate edge"),
        ("n 3\n1 2 1\n2 2 1\n1 2 x\n", "line 3: self-loop"),
        ("n 3\n1 2 1\n1 2 x\n2 2 1\n", "line 3: malformed edge line"),
        ("# c\nn x\n", "line 2: vertex count"),
        ("# c\nn 0\n1 2 1\n", "line 2: vertex count must be >= 1, got 0"),
    ], ids=["duplicate", "check-before-a-later-bad-line", "parse-before-a-later-bad-edge",
            "header", "header-count"])
    def test_every_error_names_its_line(self, text, message):
        with pytest.raises(GraphFormatError, match=message):
            parse_graph_file(text)


class TestProblemDocuments:
    def test_ising_round_trip(self):
        p = IsingProblem(J=[[0.0, -1.0], [-1.0, 0.0]], h=[0.5, -0.5], offset=0.25)
        doc = json.loads(document_bytes(ising_to_document(p)))
        p2 = problem_from_document(doc)
        for s in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
            assert energy(p2, s) == energy(p, s)

    def test_qubo_round_trip(self):
        q = Qubo(Q=[[1.0, -0.5], [0.0, 2.0]], offset=0.1)
        doc = json.loads(document_bytes(qubo_to_document(q)))
        q2 = problem_from_document(doc)
        for x in ([0, 0], [0, 1], [1, 0], [1, 1]):
            assert qubo_value(q2, x) == qubo_value(q, x)

    def test_kind_detection_without_tag(self):
        doc = {"n": 1, "Q": [[1.0]], "offset": 0.0}
        assert isinstance(problem_from_document(doc), Qubo)
        doc = {"n": 1, "J": [[0.0]], "h": [0.5], "offset": 0.0}
        assert isinstance(problem_from_document(doc), IsingProblem)

    def test_malformed_document(self):
        with pytest.raises(GraphFormatError):
            problem_from_document({"n": 2})
        with pytest.raises(GraphFormatError):
            problem_from_document({"n": 2, "Q": [[1.0]]})  # shape mismatch

    @pytest.mark.parametrize("doc", [[{"n": 1, "Q": [[1.0]]}], "Q", 3, None])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(GraphFormatError, match="must be a JSON object"):
            problem_from_document(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"n": 2.5, "Q": [[1, 0], [0, 1]]}, "n must be a whole number, got 2.5"),
        ({"n": 3, "Q": [[1, 0], [0, 1]]}, "n is 3 but the matrix is 2 x 2"),
        ({"n": 1, "J": [[0, 1], [1, 0]], "h": [0, 0]}, "n is 1 but the matrix is 2 x 2"),
    ])
    def test_document_n_must_match_the_matrix(self, doc, message):
        # documents still carry n; the problem types take their size from the arrays
        with pytest.raises(GraphFormatError, match=message):
            problem_from_document(doc)
        assert problem_from_document({**doc, "n": 2.0}).n == 2

    @pytest.mark.parametrize("doc", [
        {"n": "2", "Q": [[1, 0], [0, 1]]},
        {"n": True, "Q": [[1]]},
        {"n": 1, "Q": [[1]], "offset": "0.5"},
        {"n": 1, "Q": [["1"]]},
        {"n": 1, "Q": [[True]]},
        {"n": 1, "J": [[0]], "h": ["0.5"]},
    ], ids=["str-n", "bool-n", "str-offset", "str-Q", "bool-Q", "str-h"])
    def test_entries_must_be_numbers(self, doc):
        # JSON strings and booleans are not numbers, though float() and int() take them
        with pytest.raises(GraphFormatError, match="must be numeric"):
            problem_from_document(doc)


class TestCsvWriters:
    def test_trace_header_and_rows(self):
        buf = io.StringIO()
        times = np.array([0.0, 0.5, 1.0])
        values = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        write_trace_csv(buf, times, values, [0, 1, 1])
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t_periods,osc1,osc2,sync"
        assert lines[1].startswith("0.0,0.1,0.2,0")
        assert len(lines) == 4

    def test_sweep_rows(self):
        buf = io.StringIO()
        # success 9/10 with every run locked at 4.5; then one optimal run that never locks
        rows = [
            (0.1, RunStats(tuple(RunResult("01", 1.0, k > 0, 4.5, 0) for k in range(10)))),
            (0.2, RunStats((RunResult("01", 1.0, True, None, 2),))),
        ]
        write_sweep_csv(buf, rows)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "scale,success_rate,mean_lock_period"
        assert lines[1] == "0.1,0.9,4.5"
        assert lines[2] == "0.2,1.0,"
