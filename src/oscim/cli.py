"""Command-line front end: solve, oracle, sweep, convert.

Exit codes: 0 success, 1 configuration/usage error, 2 simulation failure.
Result documents are JSON with sorted keys so identical seeds reproduce
byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import sys

import numpy as np

from . import __version__
from .circuit_dynamics import run_trace
from .errors import GraphFormatError, SimulationDiverged
from .formats import (
    document_bytes,
    ising_to_document,
    parse_graph_file,
    problem_from_document,
    qubo_to_document,
    write_sweep_csv,
    write_trace_csv,
)
from .harness import (
    BACKENDS,
    RunSchedule,
    best_operating_point,
    oracle_max_cut,
    phase_protocol_run,
    run_many,
    run_seeds,
    sweep_coupling,
)
from .machine import (
    DEFAULT_F0_HZ,
    DEFAULT_GLOBAL_SCALE,
    DEFAULT_QUANTIZER_BITS,
    Quantizer,
    build_machine,
    resolve_shil_strength,
)
from .phase_dynamics import wrap_phase
from .problems import Graph, Qubo, _check_enumerable, ising_to_qubo, qubo_to_ising

DEFAULT_SCALE_GRID = tuple(round(0.05 * k, 2) for k in range(1, 11))


def _load_graph(path: str) -> Graph:
    try:
        with open(path, encoding="utf-8") as fp:
            return parse_graph_file(fp.read())
    except OSError as exc:
        raise GraphFormatError(f"cannot read graph file {path}: {exc}")


def _machine_for(args, g: Graph):
    _check_enumerable(g.n)  # run_many's oracle would refuse g only after this allocation
    return build_machine(
        g, quantizer=Quantizer(bits=args.bits), global_scale=args.coupling,
        shil_amplitude=args.shil, f0=args.f0, noise_sigma=args.noise,
    )


def _config_echo(args, g: Graph, m, sched: RunSchedule) -> dict:
    return {
        "backend": args.backend,
        "graph": {"path": args.graph, "n": g.n, "edges": len(g.edges),
                  "total_weight": g.total_weight},
        "machine": {
            "n": m.n,
            "f0_hz": m.f0,
            "global_scale": m.global_scale,
            "quantizer_bits": m.coupling.quantizer.bits,
            "shil_amplitude": m.shil_amplitude,
            "shil_strength_resolved": resolve_shil_strength(m),
            "noise_sigma": m.noise_sigma,
            "detuning": list(m.detuning),
        },
        "schedule": dataclasses.asdict(sched),
        "runs": args.runs,
        "seed": args.seed,
        "parallel": not args.sequential,
        "version": __version__,
    }


def cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    m = _machine_for(args, g)
    sched = RunSchedule(args.free_run_periods, args.settle_periods)
    stats = run_many(
        g, m, backend=args.backend, sched=sched, runs=args.runs,
        seed=args.seed, parallel=not args.sequential,
    )
    optimum, optimal = oracle_max_cut(g)  # cached by run_many
    histogram = stats.histogram  # each read builds it anew; bound once for every maximizer
    per_opt = {bits: histogram.get(bits, 0) / stats.runs for bits in optimal}
    doc = {
        "command": "solve",
        "oracle": {
            "optimum": optimum,
            "optimal_bitstrings": list(optimal),
        },
        "histogram": histogram,
        "success_rate": stats.success_rate,
        "mean_lock_period": stats.mean_lock_period,
        "locked_fraction": stats.locked_fraction,
        "unresolved_rate": stats.unresolved_rate,
        "per_optimum_frequency": per_opt,
        "config": _config_echo(args, g, m, sched),
    }
    _write_out(document_bytes(doc), args.out)
    if args.trace is not None:
        _write_trace(args, m, sched)
    return 0


def _write_trace(args, m, sched) -> None:
    """Run 0 of the solve batch, recorded sample by sample."""
    if args.backend == "phase":
        times, thetas = phase_protocol_run(m, sched, run_seeds(args.seed, 1))
        values = wrap_phase(thetas[:, 0, :])
        flags = np.ones(len(times), dtype=int)
    else:
        trace = run_trace(m, sched, args.seed)
        times, values, flags = trace.times, trace.outputs, trace.sync_flags.astype(int)
    with open(args.trace, "w", encoding="utf-8") as fp:
        write_trace_csv(fp, times, values, flags)


def cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    optimum, optimal = oracle_max_cut(g)
    lines = [_fmt_num(optimum), *optimal]
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sweep(args) -> int:
    g = _load_graph(args.graph)
    m = _machine_for(args, g)
    sched = RunSchedule(args.free_run_periods, args.settle_periods)
    scales = _parse_scales(args.scales) if args.scales is not None else DEFAULT_SCALE_GRID
    rows = sweep_coupling(
        g, m, backend=args.backend, sched=sched, scales=tuple(scales),
        runs_per_point=args.runs, seed=args.seed,
    )
    buf = io.StringIO()
    write_sweep_csv(buf, rows)
    best_scale, best = best_operating_point(rows)
    sys.stderr.write(
        f"best scale {best_scale} (success_rate {best.success_rate:.3f})\n"
    )
    _write_out(buf.getvalue(), args.out)
    return 0


def cmd_convert(args) -> int:
    import json

    try:
        with open(args.infile, encoding="utf-8") as fp:
            doc = json.load(fp)
    except OSError as exc:
        raise GraphFormatError(f"cannot read {args.infile}: {exc}")
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON in {args.infile}: {exc}")
    problem = problem_from_document(doc)
    if isinstance(problem, Qubo):
        converted = qubo_to_ising(problem)
        out_doc = ising_to_document(converted)
    else:
        converted = ising_to_qubo(problem)
        out_doc = qubo_to_document(converted)
    _write_out(document_bytes(out_doc), args.out)
    sys.stderr.write(f"energy offset {_fmt_num(converted.offset)}\n")
    return 0


def _write_out(text: str, out_path: str | None) -> None:
    """Write to the --out file, or to stdout when none is given."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _fmt_num(x: float) -> str:
    return f"{x:g}"


def _parse_scales(text: str):
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise GraphFormatError("scale list is empty")
    try:
        return [float(s) for s in items]
    except ValueError as exc:
        raise GraphFormatError(f"bad scale list: {exc}")


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscim",
        description="Oscillator Ising machine emulator for max-cut",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sched = RunSchedule()

    def common(p):
        p.add_argument("--graph", required=True, help="graph file path")
        p.add_argument("--backend", choices=BACKENDS, default="phase")
        p.add_argument("--runs", type=int, default=100)
        p.add_argument("--coupling", type=float, default=DEFAULT_GLOBAL_SCALE,
                       help="global coupling scale")
        p.add_argument("--shil", type=float, default=None,
                       help="SHIL injection strength (default: auto)")
        p.add_argument("--bits", type=int, default=DEFAULT_QUANTIZER_BITS,
                       help="quantizer resolution")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--f0", type=float, default=DEFAULT_F0_HZ)
        p.add_argument("--noise", type=float, default=0.0)
        p.add_argument("--free-run-periods", type=float, default=sched.free_run_periods)
        p.add_argument("--settle-periods", type=float, default=sched.settle_periods)
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p_solve = sub.add_parser("solve", help="run the machine and report statistics")
    common(p_solve)
    p_solve.add_argument("--trace", default=None, help="also write a per-sample CSV trace")
    p_solve.add_argument("--sequential", action="store_true",
                         help="run one simulation at a time instead of batched")
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="brute-force optimum and maximizers")
    p_oracle.add_argument("--graph", required=True)
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(func=cmd_oracle)

    p_sweep = sub.add_parser("sweep", help="coupling-scale sweep table")
    common(p_sweep)
    p_sweep.add_argument("--scales", default=None,
                         help="comma-separated scale list (default 0.05..0.5)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_convert = sub.add_parser("convert", help="convert between QUBO and Ising files")
    p_convert.add_argument("--in", dest="infile", required=True)
    p_convert.add_argument("--out", default=None)
    p_convert.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, OverflowError) as exc:  # GraphFormatError: ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SimulationDiverged as exc:
        sys.stderr.write(f"simulation failed: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
