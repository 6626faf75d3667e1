"""Solve an 8-vertex max-cut instance with the full run protocol.

Builds the machine, runs 100 seeded protocol executions on the phase
backend, and compares the outcome histogram against the brute-force
maximizers; also shows how often each optimal partition is found (the
degenerate optima are typically not hit equally often).
"""

import numpy as np

from oscim import Graph, build_machine
from oscim.harness import RunSchedule, oracle_max_cut, run_many

rng = np.random.default_rng(7)
edges = []
for u in range(1, 9):
    for v in range(u + 1, 9):
        if rng.random() < 0.4:
            edges.append((u, v, 1.0))
graph = Graph(n=8, edges=tuple(edges))

optimum, optimal = oracle_max_cut(graph)
print(f"instance: n=8, |E|={len(graph.edges)}, brute-force optimum {optimum:.0f}")
print(f"optimal partitions (normalized): {optimal}")

machine = build_machine(graph, global_scale=0.3)
stats = run_many(
    graph, machine,
    sched=RunSchedule(free_run_periods=5.0, settle_periods=25.0),
    runs=100, seed=123,
)

print(f"\nsuccess rate        {stats.success_rate:.0%}")
print(f"mean lock period    {stats.mean_lock_period:.2f} periods")
print(f"unresolved spins    {stats.unresolved_rate:.1%}")
print("\nhistogram (top 8):")
for bits, count in sorted(stats.histogram.items(), key=lambda kv: -kv[1])[:8]:
    cut = "optimal" if bits in optimal else "       "
    print(f"  {bits}  {count:3d}  {cut}")
