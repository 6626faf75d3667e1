"""Round-trip a small QUBO through the Ising form and check every energy."""

import numpy as np

from oscim import Qubo, energy, ising_to_qubo, qubo_to_ising, qubo_value

Q = np.triu(np.array([
    [1.0, -2.0, 0.5],
    [0.0, 2.0, -1.0],
    [0.0, 0.0, -0.5],
]))
qubo = Qubo(Q=Q, offset=0.25)
ising = qubo_to_ising(qubo)
back = ising_to_qubo(ising)

print("x      | qubo    ising   round-trip")
for bits in range(8):
    x = np.array([(bits >> i) & 1 for i in range(3)])
    s = 2 * x - 1
    print(f"{x.tolist()} | {qubo_value(qubo, x):+7.3f} {energy(ising, s):+7.3f} "
          f"{qubo_value(back, x):+7.3f}")

print(f"\nfields h = {ising.h.tolist()}")
print(f"offset forward {ising.offset:+.3f}, after round trip {back.offset:+.3f}")
