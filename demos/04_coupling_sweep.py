"""Sweep the global coupling scale and inspect the performance table.

The chosen scale changes how strongly the coupling landscape dominates the
SHIL pinning, so quality and lock statistics move with it; the sweep
mirrors the tuning one would do on the bench.
"""

import numpy as np

from oscim import Graph, build_machine
from oscim.harness import RunSchedule, best_operating_point, sweep_coupling

rng = np.random.default_rng(11)
edges = []
for u in range(1, 9):
    for v in range(u + 1, 9):
        if rng.random() < 0.35:
            edges.append((u, v, 1.0))
graph = Graph(n=8, edges=tuple(edges))
machine = build_machine(graph)

rows = sweep_coupling(
    graph, machine,
    sched=RunSchedule(free_run_periods=5.0, settle_periods=30.0),
    scales=tuple(round(0.05 * k, 2) for k in range(1, 11)),
    runs_per_point=40, seed=99,
)

print("scale | success | mean lock | locked | unresolved")
for scale, r in rows:
    lock = "   -  " if r.mean_lock_period is None else f"{r.mean_lock_period:6.2f}"
    print(f" {scale:4.2f} |  {r.success_rate:5.2f}  |  {lock}   | "
          f"{r.locked_fraction:5.0%} | {r.unresolved_rate:6.1%}")

best_scale, best = best_operating_point(rows)
print(f"\nchosen operating point: scale {best_scale} "
      f"(success {best.success_rate:.2f}, unresolved {best.unresolved_rate:.1%})")
