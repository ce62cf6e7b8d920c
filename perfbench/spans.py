"""Spans around the calls into each ekwave module, and the per-layer metrics.

The traced run rebinds each public function named in :data:`TARGETS` to a
wrapper that records one span per call: name, start, end, parent span and
the unit (one workload run) it belongs to, plus a count taken at the same
boundary (scalar transforms, points, iterations, bytes).  Where a module
imported the function by name (``solver`` imports ``symbol_h``), that name
is rebound too.  Spans stay in memory until the run ends.

A span's self time is its duration minus the time its direct children
cover.  :data:`LAYER_METRICS` lists every per-layer metric with its unit.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy.optimize

from ekwave import diagnostics, gp, grid, laws, scenarios, snapshots, solver, spectral, states


def _transforms(args, kwargs, out):
    # scalar transforms in one call: every leading (component) axis is one
    self, values = args[0], args[1]
    return int(np.prod(np.shape(values)[:-self.dim]))


def _points(args, kwargs, out):
    return int(np.size(args[1]))


def _rule_nodes(args, kwargs, out):
    return int(args[0])


def _iterations(args, kwargs, out):
    return int(out[1])


def _file_bytes(args, kwargs, out):
    return Path(args[0]).stat().st_size


# (owner, attribute, span name, count taken at the boundary)
TARGETS = [
    (grid.FourierGrid, "fft", "grid.fft", _transforms),
    (grid.FourierGrid, "ifft", "grid.ifft", _transforms),
    (spectral, "proj_q_spec", "spectral.proj_q_spec", None),
    (spectral, "proj_p_spec", "spectral.proj_p_spec", None),
    (spectral, "symbol_h", "spectral.symbol_h", None),
    (spectral, "symbol_u", "spectral.symbol_u", None),
    (spectral, "symbol_u_inv", "spectral.symbol_u_inv", None),
    (spectral, "bilinear_B", "spectral.bilinear_B", None),
    # the quadrature rule bilinear_B evaluates; its node count read directly
    (spectral, "_heat_quadrature_nodes", "spectral.quadrature_rule", _rule_nodes),
    (laws.ConstitutiveLaws, "rho_of_l", "laws.rho_of_l", _points),
    (scipy.optimize, "brentq", "laws.brentq", None),
    (states, "to_extended", "states.to_extended", None),
    (states, "normal_form", "states.normal_form", None),
    (states, "invert_normal_form", "states.invert_normal_form", _iterations),
    (solver, "step_encoded", "solver.step_encoded", None),
    (solver, "nonlinear_tendencies", "solver.nonlinear_tendencies", None),
    (solver, "normal_form_residual", "solver.normal_form_residual", None),
    (solver, "simulate", "solver.simulate", None),
    (solver, "lifespan_experiment", "solver.lifespan_experiment", None),
    (gp, "gp_step", "gp.gp_step", None),
    (diagnostics, "norm", "diagnostics.norm", None),
    (diagnostics, "hamiltonian", "diagnostics.hamiltonian", None),
    (diagnostics, "gauge_energy", "diagnostics.gauge_energy", None),
    (snapshots, "save_snapshot", "snapshots.save_snapshot", _file_bytes),
    (scenarios, "run_scenario", "scenarios.run_scenario", None),
]

# name, unit, better; README.md says which end-to-end metric each should
# move, on which workload, and where it is predicted flat
LAYER_METRICS = [
    ("grid.fft.calls_per_step", "count", "lower"),
    ("grid.ifft.calls_per_step", "count", "lower"),
    ("grid.transform.self_frac", "frac", "lower"),
    ("grid.fft.us_per_call", "us", "lower"),
    ("spectral.proj.calls_per_step", "count", "lower"),
    ("spectral.proj.self_frac", "frac", "lower"),
    ("spectral.symbol.calls_per_step", "count", "lower"),
    ("spectral.bilinear_B.ms_per_call", "ms", "lower"),
    ("spectral.bilinear_B.nodes_evaluated", "count", "lower"),
    ("spectral.bilinear_B.node_yield", "frac", "higher"),
    ("laws.rho_of_l.ms_per_call", "ms", "lower"),
    ("laws.rho_of_l.calls_per_step", "count", "lower"),
    ("laws.rho_of_l.root_solves_per_point", "count", "lower"),
    ("states.to_extended.ms", "ms", "lower"),
    ("states.normal_form.ms", "ms", "lower"),
    ("states.invert_normal_form.ms", "ms", "lower"),
    ("states.invert_normal_form.iterations", "count", "lower"),
    ("solver.step_encoded.ms_per_step", "ms", "lower"),
    ("solver.nonlinear_tendencies.ms_per_call", "ms", "lower"),
    ("solver.nonlinear_tendencies.calls_per_step", "count", "lower"),
    ("solver.normal_form_residual.ms", "ms", "lower"),
    ("solver.monitor.self_frac", "frac", "lower"),
    ("gp.gp_step.us_per_step", "us", "lower"),
    ("diagnostics.norm.ms_per_call", "ms", "lower"),
    ("diagnostics.hamiltonian.ms_per_call", "ms", "lower"),
    ("diagnostics.gauge_energy.ms_per_call", "ms", "lower"),
    ("snapshots.save_snapshot.bytes", "bytes", "lower"),
    ("snapshots.save_snapshot.ms_per_call", "ms", "lower"),
    ("scenarios.run_scenario.self_frac", "frac", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """Span recorder; use as a context manager around the traced phase."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.units = []
        self.counts = []
        self.unit = 0
        self._stack = [-1]
        self._undo = []

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.units.append(self.unit)
            self.counts.append(0)
            self.ends.append(0.0)
            self.starts.append(time.perf_counter())
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self.counts[idx] = count(args, kwargs, out)
            return out

        return wrapper

    def __enter__(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "ekwave" or n.startswith("ekwave.")]
        for owner, attr, name, count in TARGETS:
            orig = vars(owner)[attr]
            wrapped = self._wrap(name, orig, count)
            sites = [owner] + [m for m in modules
                               if m is not owner and vars(m).get(attr) is orig]
            for site in sites:
                setattr(site, attr, wrapped)
                self._undo.append((site, attr, orig))
        return self

    def __exit__(self, *exc):
        while self._undo:
            site, attr, orig = self._undo.pop()
            setattr(site, attr, orig)
        return False

    def write(self, path):
        """Spans as CSV: id, parent, unit, name, start and duration in us, count."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,unit,name,start_us,dur_us,count\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.parents[i]},{self.units[i]},{name},"
                         f"{(self.starts[i] - t0) * 1e6:.1f},"
                         f"{(self.ends[i] - self.starts[i]) * 1e6:.1f},{self.counts[i]}\n")


PROJECTORS = {"spectral.proj_q_spec", "spectral.proj_p_spec"}
SYMBOLS = {"spectral.symbol_h", "spectral.symbol_u", "spectral.symbol_u_inv"}
MONITORS = {"solver.simulate", "solver.lifespan_experiment"}


def layer_metrics(tr: Tracer, traced_wall: float) -> dict:
    """Per-layer metrics from the spans of one traced phase.

    ``traced_wall`` is the summed wall time of the traced units; shares
    (``*.self_frac``) are taken against it.  Transform counts per step use
    the spans inside ``solver.step_encoded``; the other per-step counts use
    the spans of the stepping loops, ``solver.simulate`` and
    ``solver.lifespan_experiment``, so the monitor they run between steps
    is counted too.  Per-step counts read 0 on a workload with no Strang
    steps, as do per-call times of a function never called.
    """
    n = len(tr.names)
    names, parents, counts = tr.names, tr.parents, tr.counts
    dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
    child = [0.0] * n
    in_step = [False] * n
    bil = [-1] * n      # nearest enclosing bilinear_B span
    mon = [-1] * n      # nearest enclosing monitor-loop span
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += dur[i]
            in_step[i] = in_step[p] or names[p] == "solver.step_encoded"
            bil[i] = p if names[p] == "spectral.bilinear_B" else bil[p]
            mon[i] = p if names[p] in MONITORS else mon[p]
    self_t = [dur[i] - child[i] for i in range(n)]

    by_name = defaultdict(list)
    for i, name in enumerate(names):
        by_name[name].append(i)

    def mean_ms(name, scale=1e3):
        idx = by_name.get(name, [])
        return sum(dur[i] for i in idx) / len(idx) * scale if idx else 0.0

    def self_frac(group):
        total = sum(self_t[i] for i, nm in enumerate(names) if nm in group)
        return total / traced_wall if traced_wall > 0 else 0.0

    steps = len(by_name.get("solver.step_encoded", []))

    def per_step(value):
        return value / steps if steps else 0.0

    def top_level_in_loop(group):
        return sum(1 for i, nm in enumerate(names) if nm in group
                   and (in_step[i] or mon[i] >= 0)
                   and (parents[i] < 0 or names[parents[i]] not in group))

    # bilinear_B: every quadrature rule it builds is evaluated; the last one
    # built is the rule it accepts
    rules = defaultdict(list)
    for i in by_name.get("spectral.quadrature_rule", []):
        if bil[i] >= 0:
            rules[bil[i]].append(counts[i])
    evaluated = [sum(r) for r in rules.values()]
    accepted = [r[-1] for r in rules.values()]

    points = sum(counts[i] for i in by_name.get("laws.rho_of_l", []))
    solves = len(by_name.get("laws.brentq", []))

    step_in_mon = defaultdict(float)
    for i in by_name.get("solver.step_encoded", []):
        if mon[i] >= 0:
            step_in_mon[mon[i]] += dur[i]
    monitor = sum(dur[i] - step_in_mon[i] for i in range(n) if names[i] in MONITORS)

    inverts = by_name.get("states.invert_normal_form", [])
    snaps = by_name.get("snapshots.save_snapshot", [])
    return {
        "grid.fft.calls_per_step": per_step(sum(
            counts[i] for i in by_name.get("grid.fft", []) if in_step[i])),
        "grid.ifft.calls_per_step": per_step(sum(
            counts[i] for i in by_name.get("grid.ifft", []) if in_step[i])),
        "grid.transform.self_frac": self_frac({"grid.fft", "grid.ifft"}),
        "grid.fft.us_per_call": mean_ms("grid.fft", 1e6),
        "spectral.proj.calls_per_step": per_step(top_level_in_loop(PROJECTORS)),
        "spectral.proj.self_frac": self_frac(PROJECTORS),
        "spectral.symbol.calls_per_step": per_step(top_level_in_loop(SYMBOLS)),
        "spectral.bilinear_B.ms_per_call": mean_ms("spectral.bilinear_B"),
        "spectral.bilinear_B.nodes_evaluated":
            sum(evaluated) / len(evaluated) if evaluated else 0.0,
        "spectral.bilinear_B.node_yield":
            sum(accepted) / sum(evaluated) if evaluated else 0.0,
        "laws.rho_of_l.ms_per_call": mean_ms("laws.rho_of_l"),
        "laws.rho_of_l.calls_per_step": per_step(top_level_in_loop({"laws.rho_of_l"})),
        "laws.rho_of_l.root_solves_per_point": solves / points if points else 0.0,
        "states.to_extended.ms": mean_ms("states.to_extended"),
        "states.normal_form.ms": mean_ms("states.normal_form"),
        "states.invert_normal_form.ms": mean_ms("states.invert_normal_form"),
        "states.invert_normal_form.iterations":
            sum(counts[i] for i in inverts) / len(inverts) if inverts else 0.0,
        "solver.step_encoded.ms_per_step": mean_ms("solver.step_encoded"),
        "solver.nonlinear_tendencies.ms_per_call": mean_ms("solver.nonlinear_tendencies"),
        "solver.nonlinear_tendencies.calls_per_step":
            per_step(top_level_in_loop({"solver.nonlinear_tendencies"})),
        "solver.normal_form_residual.ms": mean_ms("solver.normal_form_residual"),
        "solver.monitor.self_frac": monitor / traced_wall if traced_wall > 0 else 0.0,
        "gp.gp_step.us_per_step": mean_ms("gp.gp_step", 1e6),
        "diagnostics.norm.ms_per_call": mean_ms("diagnostics.norm"),
        "diagnostics.hamiltonian.ms_per_call": mean_ms("diagnostics.hamiltonian"),
        "diagnostics.gauge_energy.ms_per_call": mean_ms("diagnostics.gauge_energy"),
        "snapshots.save_snapshot.bytes":
            sum(counts[i] for i in snaps) / len(snaps) if snaps else 0.0,
        "snapshots.save_snapshot.ms_per_call": mean_ms("snapshots.save_snapshot"),
        "scenarios.run_scenario.self_frac": self_frac({"scenarios.run_scenario"}),
    }
