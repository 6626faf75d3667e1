"""File formats: graph edge lists, Ising/QUBO documents, CSV exports.

Graph files are plain text: '#' starts a comment, the first payload line is
``n <count>`` and every following line is one edge ``u v w`` with 1-indexed
vertices and a decimal weight.  Problem documents are JSON mirroring the
type fields; every document emitted here round-trips through its own
parser.
"""

from __future__ import annotations

import json
from typing import TextIO

import numpy as np

from .errors import GraphFormatError
from .problems import Graph, IsingProblem, Qubo, _whole_number, check_edge


def parse_graph_file(text: str) -> Graph:
    """Parse the edge-list format; reports failures with their line number."""
    n = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise GraphFormatError(
                    f"expected header 'n <count>', got {line!r}", lineno
                )
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"vertex count {parts[1]!r} is not an integer", lineno)
            if n < 1:
                raise GraphFormatError(f"vertex count must be >= 1, got {n}", lineno)
            continue
        if len(parts) != 3:
            raise GraphFormatError(f"expected 'u v w', got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError:
            raise GraphFormatError(f"malformed edge line {line!r}", lineno)
        try:
            edges.append(check_edge((u, v, w), n, seen))
        except ValueError as exc:
            raise GraphFormatError(str(exc), lineno)
    if n is None:
        raise GraphFormatError("missing 'n <count>' header")
    return Graph(n=n, edges=tuple(edges))


def ising_to_document(p: IsingProblem) -> dict:
    return {
        "kind": "ising",
        "n": p.n,
        "J": [[float(x) for x in row] for row in p.J],
        "h": [float(x) for x in p.h],
        "offset": float(p.offset),
    }


def qubo_to_document(q: Qubo) -> dict:
    return {
        "kind": "qubo",
        "n": q.n,
        "Q": [[float(x) for x in row] for row in q.Q],
        "offset": float(q.offset),
    }


def problem_from_document(doc: dict) -> IsingProblem | Qubo:
    """Detect the problem kind by its fields and rebuild it; ``n`` must match the matrix."""
    if not isinstance(doc, dict):
        raise GraphFormatError("problem document must be a JSON object")
    kind = doc.get("kind")
    if kind is None:
        kind = "qubo" if "Q" in doc else "ising" if "J" in doc else None
    if kind not in ("qubo", "ising"):
        raise GraphFormatError("cannot detect problem kind (expected 'Q' or 'J' matrix)")
    try:
        n = _whole_number(doc["n"], "n")
        offset = doc.get("offset", 0.0)
        # the constructors convert and check the matrices and the offset themselves
        problem = (Qubo(Q=doc["Q"], offset=offset) if kind == "qubo"
                   else IsingProblem(J=doc["J"], h=doc["h"], offset=offset))
        if problem.n != n:
            raise ValueError(f"n is {n} but the matrix is {problem.n} x {problem.n}")
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"malformed {kind} document: {exc}")
    return problem


def document_bytes(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_trace_csv(fp: TextIO, times, values, sync_flags) -> None:
    """Per-sample trace: header ``t_periods,osc1,...,oscN,sync``."""
    values = np.asarray(values)
    n = values.shape[1]
    header = "t_periods," + ",".join(f"osc{i + 1}" for i in range(n)) + ",sync"
    fp.write(header + "\n")
    for t, row, sync in zip(times, values, sync_flags):
        cells = [repr(float(t))] + [repr(float(x)) for x in row] + [str(int(sync))]
        fp.write(",".join(cells) + "\n")


def write_sweep_csv(fp: TextIO, rows) -> None:
    """Sweep table: ``scale,success_rate,mean_lock_period`` per (scale, stats) row."""
    fp.write("scale,success_rate,mean_lock_period\n")
    for scale, stats in rows:
        lock = stats.mean_lock_period
        lock = "" if lock is None else repr(float(lock))
        fp.write(f"{scale!r},{stats.success_rate!r},{lock}\n")
