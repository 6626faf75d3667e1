"""Configurable machine model: quantized coupling matrix and SHIL source.

The coupling hardware is emulated as a plane of digital-potentiometer codes
(magnitude) plus a sign plane; the two-summer chain's implicit sign reversal
and its re-inversion cancel, so the net drive seen by oscillator i is
``+sum_j w_ij * out_j + SHIL`` with ``w = global_scale * sign * dequantized``.
Both dynamics backends read that net weight matrix from here.  The sync
gate is a step of the run protocol (``harness``), not machine state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problems import Graph, _whole_number, freeze_array

DEFAULT_F0_HZ = 3800.0
DEFAULT_GLOBAL_SCALE = 0.2
DEFAULT_QUANTIZER_BITS = 10

# SHIL injection strength used when shil_amplitude is left unset:
# a fixed dimensionless strength, capped at a fraction of the largest
# coupling row sum.  The cap keeps a sparsely coupled machine (in the
# limit, a single pair) far from the regime where SHIL stabilizes the
# spurious in-phase state, which is locally stable whenever the SHIL
# strength exceeds the pair's coupling weight.
DEFAULT_SHIL_STRENGTH = 0.1
SHIL_ROWSUM_FRACTION = 0.15


@dataclass(frozen=True)
class Quantizer:
    """Uniform quantizer emulating a digital potentiometer."""

    bits: int = DEFAULT_QUANTIZER_BITS

    def __post_init__(self):
        object.__setattr__(self, "bits", _whole_number(self.bits, "bits"))
        if not 1 <= self.bits <= 16:
            raise ValueError(f"bits must be in 1..16, got {self.bits}")

    @property
    def max_code(self) -> int:
        return (1 << self.bits) - 1

    def quantize(self, w):
        """Weights in [0, 1] -> integer codes, ties rounded half-up, elementwise."""
        w = np.asarray(w, dtype=float)
        bad = ~((0.0 <= w) & (w <= 1.0))  # True on NaN
        if bad.any():
            raise ValueError(f"weight {float(w[bad][0])} outside [0, 1]")
        return np.floor(w * self.max_code + 0.5).astype(int)

    def dequantize(self, code: int) -> float:
        _whole_number(code, "code")
        if not 0 <= code <= self.max_code:
            raise ValueError(f"code {code} outside [0, {self.max_code}]")
        return code / self.max_code


@dataclass(frozen=True)
class CouplingMatrix:
    """Potentiometer codes (magnitude plane) plus a sign plane of the same shape."""

    codes: np.ndarray
    signs: np.ndarray
    quantizer: Quantizer = field(default_factory=Quantizer)

    def __post_init__(self):
        codes = freeze_array(self, "codes", (len(self.codes),) * 2, int)
        signs = freeze_array(self, "signs", codes.shape, int)
        if codes.min() < 0 or codes.max() > self.quantizer.max_code:
            raise ValueError(f"codes must lie in [0, {self.quantizer.max_code}]")
        if not np.isin(signs, (-1, 0, 1)).all():
            raise ValueError("signs must be -1, 0 or +1")
        if np.any(np.diag(codes) != 0) or np.any(np.diag(signs) != 0):
            raise ValueError("no self-coupling: diagonal must be zero")
        if not (np.array_equal(codes, codes.T) and np.array_equal(signs, signs.T)):
            raise ValueError("coupling planes must be symmetric")

    @property
    def n(self) -> int:
        return len(self.codes)


@dataclass(frozen=True)
class MachineConfig:
    """Complete machine state shared by both dynamics backends.

    ``shil_amplitude`` is the dimensionless strength of the second-harmonic
    source (always at twice the oscillator frequency); leave it None to use
    the per-problem default rule (see ``resolve_shil_strength``).
    """

    coupling: CouplingMatrix
    global_scale: float = DEFAULT_GLOBAL_SCALE
    shil_amplitude: float | None = None
    f0: float = DEFAULT_F0_HZ
    detuning: tuple[float, ...] = ()
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two oscillators")
        for name in ("f0", "global_scale", "noise_sigma", "shil_amplitude"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.f0 <= 0:
            raise ValueError("f0 must be positive")
        for name in ("global_scale", "noise_sigma", "shil_amplitude"):
            if (getattr(self, name) or 0.0) < 0:
                raise ValueError(f"{name} must be >= 0")
        det = tuple(float(d) for d in (self.detuning or (0.0,) * self.n))
        if len(det) != self.n:
            raise ValueError("detuning must list one offset per oscillator")
        if not np.isfinite(det).all():
            raise ValueError(f"detuning must be finite, got {det}")
        if min(det) <= -1.0:
            # a relative frequency offset; the circuit scales R*C by 1/(1+detuning)
            raise ValueError(f"detuning must be > -1, got {det}")
        object.__setattr__(self, "detuning", det)

    @property
    def n(self) -> int:
        return self.coupling.n


def build_coupling(g: Graph, quantizer: Quantizer | None = None) -> CouplingMatrix:
    """Quantize a graph's weights into code/sign planes.

    Magnitudes are normalized so the largest |weight| uses the full code
    range; negative weights go through the sign plane.
    """
    q = quantizer or Quantizer()
    a = g.adjacency()
    mags = np.abs(a)
    # zero weights, and a graph whose weights are all zero, keep code 0
    mags = np.divide(mags, mags.max(), out=np.zeros_like(mags), where=mags > 0)
    return CouplingMatrix(codes=q.quantize(mags), signs=np.sign(a).astype(int), quantizer=q)


def build_machine(g: Graph, *, quantizer: Quantizer | None = None, **settings) -> MachineConfig:
    """Machine sized for the given graph; settings are MachineConfig's other fields."""
    return MachineConfig(coupling=build_coupling(g, quantizer), **settings)


def effective_weights(m: MachineConfig) -> np.ndarray:
    """Net coupling weights w_ij = global_scale * sign * dequantized code.

    This already includes the summer chain's double inversion (net positive
    sum).
    """
    q = m.coupling.quantizer
    mags = m.coupling.codes / q.max_code
    return m.global_scale * m.coupling.signs * mags


def resolve_shil_strength(m: MachineConfig) -> float:
    """Dimensionless SHIL injection strength for the phase model.

    Explicit amplitudes pass through; the default is DEFAULT_SHIL_STRENGTH
    capped at SHIL_ROWSUM_FRACTION times the largest coupling row sum.  An
    unprogrammed machine (all weights zero) keeps the full default so SHIL
    alone still binarizes the phases.
    """
    if m.shil_amplitude is not None:
        return float(m.shil_amplitude)
    rowsum = float(np.abs(effective_weights(m)).sum(axis=1).max())
    if rowsum == 0.0:
        return DEFAULT_SHIL_STRENGTH
    return min(DEFAULT_SHIL_STRENGTH, SHIL_ROWSUM_FRACTION * rowsum)
