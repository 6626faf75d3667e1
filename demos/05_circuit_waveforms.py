"""Circuit-level backend: calibration, free-running waveform, locked pair.

Calibrates the RC ladder to 3.8 kHz, checks amplitude against the 4 Vpp
design point, then couples two oscillators and shows the antiphase lock at
waveform level.  Writes the locked-pair trace to circuit_pair.csv for
external plotting.
"""

import numpy as np

from oscim import Graph, build_machine
from oscim.circuit_dynamics import (
    CAPACITANCE,
    calibrated_params,
    free_run_trace,
    measure_free_run_frequency,
    run_trace,
    steady_amplitude,
)
from oscim.formats import write_trace_csv
from oscim.harness import RunSchedule

F0 = 3800.0

params = calibrated_params(F0)
print(f"calibrated: R={params.R:.1f} ohm, C={CAPACITANCE:.2e} F, "
      f"analytic f={params.analytic_frequency:.1f} Hz")

trace = free_run_trace(params, 40.0, F0)
print(f"measured free-run frequency {measure_free_run_frequency(trace) * F0:.1f} Hz")
print(f"steady amplitude {steady_amplitude(trace):.2f} Vpp (design point 4.0)")

edge = Graph(n=2, edges=((1, 2, 1.0),))
machine = build_machine(edge, global_scale=0.25, f0=F0)
pair = run_trace(machine, RunSchedule(free_run_periods=5.0, settle_periods=20.0), seed=3)

tail = pair.outputs[int(len(pair.times) * 0.75):]
corr = np.mean(tail[:, 0] * tail[:, 1]) / np.sqrt(
    np.mean(tail[:, 0] ** 2) * np.mean(tail[:, 1] ** 2)
)
print(f"\ncoupled pair steady correlation {corr:+.3f} (antiphase -> -1)")

with open("circuit_pair.csv", "w", encoding="utf-8") as fp:
    write_trace_csv(fp, pair.times, pair.outputs, pair.sync_flags.astype(int))
print("wrote circuit_pair.csv (t_periods, osc1, osc2, sync)")
