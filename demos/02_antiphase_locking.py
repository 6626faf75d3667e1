"""Watch two coupled oscillators fall into antiphase after the gate opens.

Simulates the phase model for a single positively weighted edge and prints
the phase difference every period; the pair should settle at pi within a
few periods, which is what encodes a cut edge.
"""

import numpy as np

from oscim import Graph, build_machine, set_sync
from oscim.phase_dynamics import random_initial_phases, simulate, wrap_phase

edge = Graph(n=2, edges=((1, 2, 1.0),))
machine = set_sync(build_machine(edge, global_scale=0.2), True)

rng = np.random.default_rng(42)
init = random_initial_phases(2, rng)
print(f"initial phases: {np.degrees(init.theta).round(1)} deg")

trace = simulate(machine, init, duration_periods=12.0)

print("\n periods | phase difference from pi (deg)")
for target in np.arange(0.0, 12.1, 1.0):
    idx = int(np.argmin(np.abs(trace.times - target)))
    dpsi = wrap_phase(trace.thetas[idx, 0] - trace.thetas[idx, 1])
    print(f"   {trace.times[idx]:5.1f} | {np.degrees(dpsi - np.pi):+8.2f}")

final = wrap_phase(trace.thetas[-1, 0] - trace.thetas[-1, 1])
print(f"\nfinal |phase difference - pi| = {abs(np.degrees(final - np.pi)):.3f} deg")
