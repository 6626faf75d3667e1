"""Spans around calls into oscim's public functions, recorded from outside.

Each target is patched at the name its caller looks it up under: harness
imports ``spins_from_phases`` and ``brute_force_max_cut`` by name, cli
imports ``run_many``, ``parse_graph_file`` and friends by name, while
``phase_detector`` is imported from ``oscim.readout`` at call time.  Spans
stay in memory until the run ends.  Nothing here runs while the tracer is
uninstalled, so untraced jobs execute the program unmodified.
"""

from __future__ import annotations

import functools
import inspect
import time

# (module, attribute, span name); one span name may be reached under
# several module attributes, all bound to the same function object.
TARGETS = (
    ("oscim.harness", "run_many", "run_many"),
    ("oscim.cli", "run_many", "run_many"),
    ("oscim.harness", "oracle_max_cut", "oracle_max_cut"),
    ("oscim.cli", "oracle_max_cut", "oracle_max_cut"),
    ("oscim.harness", "brute_force_max_cut", "brute_force_max_cut"),
    ("oscim.phase_dynamics", "integrate_batch", "integrate_batch"),
    ("oscim.harness", "spins_from_phases", "spins_from_phases"),
    ("oscim.readout", "phase_detector", "phase_detector"),
    ("oscim.readout", "spins_from_detectors", "spins_from_detectors"),
    ("oscim.circuit_dynamics", "run_readout_batch", "run_readout_batch"),
    ("oscim.circuit_dynamics", "calibrated_params", "calibrated_params"),
    ("oscim.circuit_dynamics", "phases_to_network_state", "phases_to_network_state"),
    ("oscim.cli", "main", "main"),
    ("oscim.cli", "parse_graph_file", "parse_graph_file"),
    ("oscim.cli", "document_bytes", "document_bytes"),
    ("oscim.cli", "build_machine", "build_machine"),
    ("oscim.machine", "build_machine", "build_machine"),
)

JOB_SPAN = "job"


def _integrate_batch_work(bound) -> tuple[int, int]:
    """(run-steps, steps) of one integrate_batch call, from its arguments."""
    a = bound.arguments
    steps = int(round(a["duration_periods"] * a["steps_per_period"]))
    return len(a["theta0"]) * steps, steps


def _run_readout_batch_work(bound) -> tuple[int, int]:
    """(run-steps, steps) of one circuit batch: free interval plus settle."""
    from oscim import circuit_dynamics as circuit

    a = bound.arguments
    sched, f0 = a["sched"], a["m"].f0
    spp = circuit.DEFAULT_STEPS_PER_PERIOD
    # the program's own arithmetic: round(duration_s * f0 * steps_per_period)
    steps = int(round(sched.settle_periods / f0 * f0 * spp))
    if sched.free_run_periods > 0:
        steps += int(round(sched.free_run_periods / f0 * f0 * spp))
    return len(a["seeds"]) * steps, steps


WORK_COUNTERS = {
    "integrate_batch": _integrate_batch_work,
    "run_readout_batch": _run_readout_batch_work,
}


class Tracer:
    """In-memory span recorder; spans are (name, start, end, parent, job, work)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.job = "setup"

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "job": self.job})
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        count = WORK_COUNTERS.get(name)
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if count:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.spans[idx]["run_steps"], self.spans[idx]["steps"] = count(bound)

        return traced

    def install(self) -> None:
        import importlib

        if self._saved:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}
        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(fn, name)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def run_job(self, job_id, fn, *args):
        """Run fn under a root span for one job, with the tracer installed."""
        self.job = job_id
        self.install()
        idx = self._open(JOB_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.uninstall()
            self.job = "setup"


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


LAYER_NAMES = sorted({name for _, _, name in TARGETS})


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures for the set-up plus one job (the mean traced job)."""
    own = self_times(spans)
    jobs = sum(1 for s in spans if s["name"] == JOB_SPAN)
    calls = {name: 0.0 for name in LAYER_NAMES}
    total = {name: 0.0 for name in LAYER_NAMES}
    self_s = {name: 0.0 for name in LAYER_NAMES}
    run_steps = {name: 0.0 for name in WORK_COUNTERS}
    steps = {name: 0.0 for name in WORK_COUNTERS}
    oracle_misses = 0.0
    for i, s in enumerate(spans):
        name = s["name"]
        if name == JOB_SPAN:
            continue
        w = 1.0 if s["job"] == "setup" else 1.0 / jobs
        calls[name] += w
        total[name] += w * (s["end"] - s["start"])
        self_s[name] += w * own[i]
        if name in WORK_COUNTERS:
            run_steps[name] += w * s["run_steps"]
            steps[name] += w * s["steps"]
        if name == "brute_force_max_cut" and s["parent"] is not None \
                and spans[s["parent"]]["name"] == "oracle_max_cut":
            oracle_misses += w

    def ns_per(name):
        return total[name] * 1e9 / run_steps[name] if run_steps[name] else 0.0

    oracle_calls = calls["oracle_max_cut"]
    return {
        "integrate_batch.calls": calls["integrate_batch"],
        "integrate_batch.s": total["integrate_batch"],
        "integrate_batch.run_steps": run_steps["integrate_batch"],
        "integrate_batch.ns_per_run_step": ns_per("integrate_batch"),
        "integrate_batch.mean_batch": (run_steps["integrate_batch"] / steps["integrate_batch"]
                                       if steps["integrate_batch"] else 0.0),
        "run_many.calls": calls["run_many"],
        "run_many.s": total["run_many"],
        "run_many.self_s": self_s["run_many"],
        "oracle_max_cut.calls": oracle_calls,
        "oracle_max_cut.s": total["oracle_max_cut"],
        "oracle_hit_ratio": ((oracle_calls - oracle_misses) / oracle_calls
                             if oracle_calls else 0.0),
        "brute_force_max_cut.calls": calls["brute_force_max_cut"],
        "brute_force_max_cut.s": total["brute_force_max_cut"],
        "spins_from_phases.calls": calls["spins_from_phases"],
        "spins_from_phases.s": total["spins_from_phases"],
        "phase_detector.calls": calls["phase_detector"],
        "phase_detector.s": total["phase_detector"],
        "spins_from_detectors.s": total["spins_from_detectors"],
        "run_readout_batch.calls": calls["run_readout_batch"],
        "run_readout_batch.s": total["run_readout_batch"],
        "run_readout_batch.self_s": self_s["run_readout_batch"],
        "run_readout_batch.run_steps": run_steps["run_readout_batch"],
        "run_readout_batch.ns_per_run_step": ns_per("run_readout_batch"),
        "calibrated_params.s": total["calibrated_params"],
        "phases_to_network_state.s": total["phases_to_network_state"],
        "main.s": total["main"],
        "main.self_s": self_s["main"],
        "parse_graph_file.s": total["parse_graph_file"],
        "document_bytes.s": total["document_bytes"],
        "build_machine.s": total["build_machine"],
    }


def job_accounting(spans: list[dict]) -> tuple[float, float, float]:
    """(traced job time, summed self time of all job spans, share in oscim calls).

    The first two agree up to rounding whenever every span closed inside its
    parent; the third is the part of job time spent inside traced calls.
    """
    own = self_times(spans)
    job_s = sum(s["end"] - s["start"] for s in spans if s["name"] == JOB_SPAN)
    in_jobs = [i for i, s in enumerate(spans) if s["job"] != "setup"]
    summed = sum(own[i] for i in in_jobs)
    covered = sum(own[i] for i in in_jobs if spans[i]["name"] != JOB_SPAN)
    return job_s, summed, (covered / job_s if job_s else 0.0)
