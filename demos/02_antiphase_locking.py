"""Watch two coupled oscillators fall into antiphase after the gate opens.

Simulates the phase model for a single positively weighted edge and prints
the phase difference every period; the pair should settle at pi within a
few periods, which is what encodes a cut edge.
"""

import numpy as np

from oscim import Graph, build_machine
from oscim.phase_dynamics import random_initial_phases, simulate, wrap_phase

edge = Graph(n=2, edges=((1, 2, 1.0),))
machine = build_machine(edge, global_scale=0.2)

rng = np.random.default_rng(42)
init = random_initial_phases(2, rng)
print(f"initial phases: {np.degrees(init).round(1)} deg")

times, thetas = simulate(machine, init, duration_periods=12.0)

print("\n periods | phase difference from pi (deg)")
for target in np.arange(0.0, 12.1, 1.0):
    idx = int(np.argmin(np.abs(times - target)))
    dpsi = wrap_phase(thetas[idx, 0] - thetas[idx, 1])
    print(f"   {times[idx]:5.1f} | {np.degrees(dpsi - np.pi):+8.2f}")

final = wrap_phase(thetas[-1, 0] - thetas[-1, 1])
print(f"\nfinal |phase difference - pi| = {abs(np.degrees(final - np.pi)):.3f} deg")
