"""Oscillator Ising machine emulator for max-cut.

Phase-level and behavioral circuit-level simulation of a small network of
SHIL-locked coupled oscillators, plus the exact enumeration oracles, run
protocol, and file formats around it.
"""

__version__ = "0.1.0"

from .machine import (
    CouplingMatrix,
    MachineConfig,
    Quantizer,
    build_coupling,
    build_machine,
    effective_weights,
    resolve_shil_strength,
)
from .problems import (
    Graph,
    IsingProblem,
    Qubo,
    brute_force_ground_states,
    brute_force_max_cut,
    cut_value,
    energy,
    graph_to_ising,
    ising_to_qubo,
    qubo_to_ising,
    qubo_value,
)

__all__ = [
    "Graph",
    "IsingProblem",
    "Qubo",
    "graph_to_ising",
    "energy",
    "cut_value",
    "qubo_to_ising",
    "ising_to_qubo",
    "qubo_value",
    "brute_force_max_cut",
    "brute_force_ground_states",
    "Quantizer",
    "CouplingMatrix",
    "MachineConfig",
    "build_coupling",
    "build_machine",
    "effective_weights",
    "resolve_shil_strength",
    "__version__",
]
