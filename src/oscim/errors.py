"""Package-level exception types."""

import numpy as np


class SimulationDiverged(RuntimeError):
    """A dynamics backend produced a non-finite state."""


def check_finite(values, what: str, t: float) -> None:
    """Raise SimulationDiverged naming the first non-finite entry of a sample.

    ``values`` is (n,) or (B, n), indexed (run, oscillator).  ``what`` names
    the quantity and holds a ``{t}`` field for the sample time; the message
    is formatted only on failure.
    """
    finite = np.isfinite(values)
    if not finite.all():
        *run, osc = (int(x) for x in np.argwhere(~finite)[0])
        where = (f"run {run[0]}, " if run else "") + f"oscillator {osc}"
        raise SimulationDiverged(f"non-finite {what.format(t=t)} ({where})")


class GraphFormatError(ValueError):
    """A graph/problem file could not be parsed; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")
