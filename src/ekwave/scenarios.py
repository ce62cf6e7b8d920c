"""Scenario configuration, execution and reporting.

A scenario config is a plain JSON document with a fixed schema; unknown
keys are rejected so that typos cannot silently corrupt a sweep.  The
canonical serialization (sorted keys, minimal separators, repr floats)
round-trips byte-identically and is hashed into the report digest.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import hashlib
import json
import time as _time
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from . import diagnostics, gp, initial_data, solver, toyode
from .errors import ConfigError, EkwaveError, is_kind
from .grid import FourierGrid
from .laws import ConstitutiveLaws
from .snapshots import save_snapshot
from .spectral import linear_flow
from .states import from_extended, to_extended

SCHEMA_VERSION = 1
SCENARIOS = ("simulate", "dispersion", "lifespan", "blowup", "normalform",
             "resonance", "ode")

_GRID_KEYS = {"shape", "lengths"}
_LAWS_KEYS = {"name", "params"}
_DATA_KEYS = {f.name for f in dataclasses.fields(initial_data.InitialDataSpec)}
_SOLVER_KEYS = {f.name for f in dataclasses.fields(solver.SolverConfig)}
_TOP_KEYS = {"schema_version", "scenario", "grid", "laws", "initial_data",
             "solver", "seed", "params"}
# the params each runner reads, each with its default, which the runners
# take from here (see _params), and its lower bound: "> 0", or ">= 0" for
# the amplitudes of a sweep, where 0 is a valid row.  Any other key is a
# config error, so a misspelt key cannot silently run with the default.
_DEFAULT_PARAMS = {
    "simulate": {},
    # the packet leaves its near-field transient around t ~ width^2,
    # so the fit window starts well past that
    "dispersion": {"carrier": (1.0, "> 0"), "width": (4.0, "> 0"),
                   "t_min": (30.0, "> 0"), "t_max": (150.0, "> 0"),
                   "n_samples": (24, "> 0")},
    "lifespan": {"eps": (0.05, ">= 0"), "deltas": ([0.04, 0.02, 0.01, 0.0], ">= 0"),
                 "T_max": (10.0, "> 0"), "envelope_C": (1.3, "> 0")},
    "blowup": {"dt": (1e-4, "> 0"), "forward_time": (0.25, "> 0"), "width": (1.0, "> 0")},
    "normalform": {"eps_list": ([0.02, 0.01, 0.005], "> 0")},
    "resonance": {"eps_list": ([0.1, 0.05, 0.02, 0.01], "> 0"), "eta": (0.01, "> 0")},
    "ode": {"eps": (0.05, ">= 0"), "deltas": ([0.1, 0.05, 0.025, 0.0125], ">= 0"),
            "y0_comparison": (0.1, "> 0")},
}
_BOUNDS = {"> 0": lambda x: x > 0, ">= 0": lambda x: x >= 0}


def _defaults(scenario):
    return {key: copy.deepcopy(default)
            for key, (default, _) in _DEFAULT_PARAMS[scenario].items()}


def _check_keys(d, allowed, where):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _check_params(params, scenario):
    # each value takes the kind of its default: a real number, an integer,
    # or a nonempty list of real numbers (a sweep with no entry has no rows);
    # each number is finite and within its bound
    for key, value in params.items():
        default, bound = _DEFAULT_PARAMS[scenario][key]
        if isinstance(default, list):
            ok = (isinstance(value, list) and len(value) > 0
                  and all(is_kind(x, "float") for x in value))
        else:
            ok = is_kind(value, type(default).__name__)
        if not ok:
            raise ConfigError(f"params.{key} of {scenario} must be of the kind of "
                              f"{default!r}, got {value!r}")
        if not all(np.isfinite(x) and _BOUNDS[bound](x)
                   for x in (value if isinstance(value, list) else [value])):
            raise ConfigError(f"params.{key} of {scenario} must be finite and "
                              f"{bound}, got {value!r}")


@dataclass
class ScenarioConfig:
    scenario: str
    grid: Dict[str, Any]
    laws: Dict[str, Any]
    initial_data: Dict[str, Any]
    solver: Dict[str, Any]
    seed: int = 0
    params: Dict[str, Any] = dataclass_field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ScenarioConfig":
        _check_keys(d, _TOP_KEYS, "config")
        if d.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema version {d.get('schema_version')}")
        scenario = d.get("scenario")
        if scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {scenario!r}")
        grid = dict(d.get("grid", {}))
        _check_keys(grid, _GRID_KEYS, "grid")
        laws = dict(d.get("laws", {"name": "quantum", "params": {}}))
        _check_keys(laws, _LAWS_KEYS, "laws")
        data = dict(d.get("initial_data", {}))
        _check_keys(data, _DATA_KEYS, "initial_data")
        solver_cfg = dict(d.get("solver", {}))
        _check_keys(solver_cfg, _SOLVER_KEYS, "solver")
        seed = d.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise ConfigError(f"seed must be an integer, got {seed!r}")
        params = dict(d.get("params", {}))
        _check_keys(params, set(_DEFAULT_PARAMS[scenario]), f"params of {scenario}")
        _check_params(params, scenario)
        return cls(scenario=scenario, grid=grid, laws=laws, initial_data=data,
                   solver=solver_cfg, seed=int(seed), params=params)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "grid": self.grid,
            "laws": self.laws,
            "initial_data": self.initial_data,
            "solver": self.solver,
            "seed": self.seed,
            "params": self.params,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def apply_override(self, key: str, raw: str) -> None:
        """Dotted-path override, value parsed as JSON (string fallback)."""
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        parts = key.split(".")
        target: Any = self
        try:
            for p in parts[:-1]:
                target = getattr(target, p) if isinstance(target, ScenarioConfig) else target[p]
            leaf = parts[-1]
            if isinstance(target, ScenarioConfig):
                if not hasattr(target, leaf):
                    raise ConfigError(f"unknown override target {key!r}")
                setattr(target, leaf, value)
            else:
                target[leaf] = value
        except (AttributeError, KeyError, TypeError, IndexError) as exc:
            raise ConfigError(f"override path {key!r} does not exist: {exc}") from exc

    # -- realized objects -------------------------------------------------
    def build_grid(self) -> FourierGrid:
        return FourierGrid(self.grid.get("shape", [64]),
                           self.grid.get("lengths", [2.0 * np.pi]))

    def build_laws(self) -> ConstitutiveLaws:
        return ConstitutiveLaws.by_name(self.laws.get("name", "quantum"),
                                        **self.laws.get("params", {}))

    def build_solver(self) -> solver.SolverConfig:
        return solver.SolverConfig(**self.solver)

    def build_initial_spec(self) -> initial_data.InitialDataSpec:
        return initial_data.InitialDataSpec(**self.initial_data)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ScenarioConfig.from_dict(json.load(fh))


@dataclass
class ScenarioReport:
    scenario: str
    digest: str
    grid_meta: Dict[str, Any] = dataclass_field(default_factory=dict)
    tables: Dict[str, List[Dict[str, Any]]] = dataclass_field(default_factory=dict)
    fitted: Dict[str, Any] = dataclass_field(default_factory=dict)
    verdicts: List[Dict[str, Any]] = dataclass_field(default_factory=list)
    wallclock: float = 0.0
    errors: List[str] = dataclass_field(default_factory=list)

    def add_verdict(self, name, value, target, tolerance, passed,
                    provenance="measured"):
        self.verdicts.append({
            "name": name,
            "value": None if value is None else float(value),
            "target": None if target is None else float(target),
            "tolerance": float(tolerance),
            "passed": bool(passed),
            "provenance": provenance,
        })

    @property
    def all_passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts) and not self.errors

    def to_json(self) -> str:
        return json.dumps({
            "scenario": self.scenario,
            "digest": self.digest,
            "grid": self.grid_meta,
            "tables": self.tables,
            "fitted": self.fitted,
            "verdicts": self.verdicts,
            "wallclock_seconds": self.wallclock,
            "errors": self.errors,
            "all_passed": self.all_passed,
        }, sort_keys=True, indent=2)

    def write(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{self.scenario}_report.json").write_text(self.to_json())
        for name, rows in self.tables.items():
            write_csv(out / f"{self.scenario}_{name}.csv", rows)


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return v


def write_csv(path, rows: List[Dict[str, Any]]) -> None:
    """RFC-4180 table with 17-significant-digit floats."""
    if not rows:
        Path(path).write_text("")
        return
    cols = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in cols])


# ---------------------------------------------------------------------------
# defaults
# ---------------------------------------------------------------------------

def default_config(scenario: str) -> ScenarioConfig:
    base = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario,
        "grid": {"shape": [64], "lengths": [2.0 * np.pi]},
        "laws": {"name": "quantum", "params": {}},
        "initial_data": {"kind": "random-band", "amplitude": 0.05,
                         "solenoidal": 0.0, "band_limit": 4.0},
        "solver": {"dt": 1e-3, "t_end": 0.5},
        "seed": 20260823,
        "params": _defaults(scenario),
    }
    if scenario == "dispersion":
        base["grid"] = {"shape": [4096], "lengths": [400.0 * np.pi]}
    elif scenario == "lifespan":
        base["grid"] = {"shape": [128, 128], "lengths": [2.0 * np.pi, 2.0 * np.pi]}
        base["solver"] = {"dt": 0.01, "t_end": 10.0}
    elif scenario == "blowup":
        base["grid"] = {"shape": [512], "lengths": [20.0 * np.pi]}
    elif scenario == "normalform":
        base["grid"] = {"shape": [256], "lengths": [2.0 * np.pi]}
    elif scenario == "simulate":
        base["solver"] = {"dt": 1e-4, "t_end": 0.2, "snapshot_stride": 200}
    return ScenarioConfig.from_dict(base)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def run_scenario(cfg: ScenarioConfig, out_dir: Optional[str] = None) -> ScenarioReport:
    report = ScenarioReport(scenario=cfg.scenario, digest=cfg.digest())
    report.grid_meta = {"shape": cfg.grid.get("shape"),
                        "lengths": cfg.grid.get("lengths")}
    start = _time.perf_counter()
    runner = _RUNNERS[cfg.scenario]
    try:
        if cfg.scenario == "simulate":
            runner(cfg, report, out_dir)
        else:
            runner(cfg, report)
    except EkwaveError as exc:
        report.errors.append(f"{type(exc).__name__}: {exc}")
        report.add_verdict("completed", None, None, 0.0, False, "configured")
    report.wallclock = _time.perf_counter() - start
    if out_dir is not None:
        report.write(out_dir)
    return report


def _params(cfg):
    # the scenario's params over their defaults
    return {**_defaults(cfg.scenario), **cfg.params}


def _run_dispersion(cfg, report):
    grid = cfg.build_grid()
    p = _params(cfg)
    carrier = float(p["carrier"])
    width = float(p["width"])
    packet = initial_data.wave_packet(grid, carrier, width)
    cutoff = initial_data.packet_cutoff(carrier, width)
    t_wrap = diagnostics.wrap_time(grid, cutoff)
    times = np.geomspace(float(p["t_min"]), min(float(p["t_max"]), 0.95 * t_wrap),
                         int(p["n_samples"]))
    rows = []
    spec0 = packet.spectral
    for t in times:
        evolved = grid.ifft(spec0 * linear_flow(grid, t))
        rows.append({"t": float(t),
                     "sup_norm": float(np.max(np.abs(evolved)))})
    slope, stderr = diagnostics.decay_fit([r["t"] for r in rows],
                                          [r["sup_norm"] for r in rows],
                                          (times[0], times[-1]))
    target = -grid.dim / 2.0
    tol = 0.15 * abs(target)
    report.tables["decay"] = rows
    report.fitted = {"slope": slope, "stderr": stderr, "t_wrap": t_wrap}
    report.add_verdict("decay_slope", slope, target, tol,
                       abs(slope - target) <= tol)


def _run_lifespan(cfg, report):
    grid = cfg.build_grid()
    laws = cfg.build_laws()
    scfg = cfg.build_solver()
    p = _params(cfg)
    rows, steps = solver.lifespan_experiment(
        float(p["eps"]), list(p["deltas"]), grid, laws, scfg, cfg.seed, float(p["T_max"]),
        envelope_C=float(p["envelope_C"]),
        band_limit=float(cfg.initial_data.get("band_limit", 4.0)))
    report.tables["lifespan"] = rows
    positive = [r for r in rows if r["delta"] > 0]
    t_by_delta = sorted(positive, key=lambda r: -r["delta"])
    monotone = all(t_by_delta[i]["T_obs"] <= t_by_delta[i + 1]["T_obs"] + 1e-12
                   for i in range(len(t_by_delta) - 1))
    zero_rows = [r for r in rows if r["delta"] == 0]
    zero_censored = all(r["censored"] for r in zero_rows) if zero_rows else True
    fit_rows = [r for r in positive if not r["censored"]]
    slope = float("nan")
    if len(fit_rows) >= 2:
        slope = float(np.polyfit(np.log([r["delta"] for r in fit_rows]),
                                 np.log([r["T_obs"] for r in fit_rows]), 1)[0])
    report.fitted = {"scaling_exponent": slope,
                     "uncensored_points": len(fit_rows), "steps": steps}
    # a delta run that took no step is no evidence for either verdict
    stepped = min(steps) > 0
    provenance = "measured" if stepped else "inconclusive"
    report.add_verdict("T_obs_non_increasing_in_delta", float(monotone), 1.0,
                       0.0, stepped and monotone, provenance)
    report.add_verdict("delta_zero_censored", float(zero_censored), 1.0, 0.0,
                       stepped and zero_censored, provenance)


def _run_blowup(cfg, report):
    grid = cfg.build_grid()
    laws = cfg.build_laws()
    p = _params(cfg)
    w0 = gp.gaussian_notch(grid, width=float(p["width"]))
    rep = gp.blowup_experiment(w0, laws, dt=float(p["dt"]), forward_time=float(p["forward_time"]))
    report.tables["grad_u"] = [{"t": t, "max_grad_u": g}
                               for t, g in zip(rep.grad_u_times, rep.grad_u_history)]
    report.fitted = {
        "second_derivative": rep.second_derivative,
        "predicted": rep.predicted,
        "quadratic_coefficient": rep.quadratic_coefficient,
        "alpha": rep.alpha,
        "vacuum_time": rep.vacuum_time,
        "forward_time": rep.forward_time,
    }
    rel = abs(rep.second_derivative - rep.predicted) / rep.predicted
    report.add_verdict("second_derivative_match", rel, 0.0, 0.02, rel <= 0.02)
    lower = 0.5 * rep.alpha * 0.95
    report.add_verdict("quadratic_lower_bound", rep.quadratic_coefficient,
                       lower, 0.0, rep.quadratic_coefficient >= lower)
    t_rel = abs(rep.vacuum_time - rep.forward_time) / rep.forward_time
    report.add_verdict("vacuum_time_match", t_rel, 0.0, 0.02, t_rel <= 0.02)
    hist = rep.grad_u_history
    tail = hist[-max(2, len(hist) // 10):]
    grows = all(tail[i] <= tail[i + 1] + 1e-12 for i in range(len(tail) - 1))
    report.add_verdict("grad_u_monotone_last_decade", float(grows), 1.0, 0.0, grows)


def _products_resolved(grid, band_limit):
    # quadratic products of band-limited data reach twice the band's top
    # mode on each axis; the 2/3 mask keeps modes up to N // 3
    tops = (round(np.max(np.abs(k[np.abs(k) <= band_limit])) * L / (2.0 * np.pi))
            for k, L in zip(grid.wavenumbers, grid.lengths))
    return all(2 * top <= n // 3 for top, n in zip(tops, grid.shape))


def _run_normalform(cfg, report):
    grid = cfg.build_grid()
    laws = cfg.build_laws()
    eps_list = [float(e) for e in _params(cfg)["eps_list"]]
    spec = cfg.build_initial_spec()
    # the cubic order rests on quadratic cancellation, which truncated
    # products break: without them the slope is no evidence either way
    resolved = _products_resolved(grid, spec.band_limit)
    rows = []
    for eps in eps_list:
        spec_eps = dataclasses.replace(spec, amplitude=eps)
        s0 = initial_data.generate_initial_data(spec_eps, grid, laws, cfg.seed)
        ext = to_extended(s0, laws)
        res = solver.normal_form_residual(ext, laws)
        rows.append({"eps": eps, "residual_l2": res.l2norm()})
    # a slope needs two distinct amplitudes
    fitted = len(set(eps_list)) >= 2
    slope = float("nan")
    if fitted:
        slope = float(np.polyfit(np.log([r["eps"] for r in rows]),
                                 np.log([r["residual_l2"] for r in rows]), 1)[0])
    report.tables["residual"] = rows
    report.fitted = {"slope": slope, "resolved": resolved}
    conclusive = resolved and fitted
    report.add_verdict("cubic_residual_slope", slope, 3.0, 0.3,
                       conclusive and abs(slope - 3.0) <= 0.3,
                       "measured" if conclusive else "inconclusive")


def _run_resonance(cfg, report):
    p = _params(cfg)
    eta_mag = float(p["eta"])
    eta = np.zeros(3)
    eta[0] = eta_mag
    rows = []
    for eps in [float(e) for e in p["eps_list"]]:
        omega = diagnostics.resonance_eval(eps * eta, eta, (-1, +1))
        asym = diagnostics.resonance_asymptotic(eps, eta)
        rows.append({"eps": eps, "omega": omega, "asymptotic": asym,
                     "ratio": omega / asym})
    report.tables["asymptotic"] = rows
    final_ratio = rows[-1]["ratio"]
    report.fitted = {"final_ratio": final_ratio}
    report.add_verdict("asymptotic_ratio", final_ratio, 1.0, 0.05,
                       abs(final_ratio - 1.0) <= 0.05)
    zero_vals = [abs(diagnostics.resonance_eval(np.zeros(3), v, (-1, +1)))
                 for v in (eta, 3.0 * eta, np.array([0.3, -0.2, 0.7]))]
    exact = max(zero_vals) == 0.0
    report.add_verdict("resonant_set_identity", max(zero_vals), 0.0, 0.0, exact)


def _run_ode(cfg, report):
    p = _params(cfg)
    y0 = float(p["y0_comparison"])
    T_cmp, censored = toyode.lifespan(0.0, y0, comparison=True)
    report.add_verdict("comparison_lifespan", T_cmp, 1.0 / y0, 0.01,
                       (not censored) and abs(T_cmp - 1.0 / y0) <= 0.01)
    ok, margin = toyode.ansatz_envelopes(1.0 / 16.0, 1.0 / 16.0)
    report.add_verdict("ansatz_envelopes", margin, None, 0.0, ok)
    rows, slope = toyode.lifespan_sweep(float(p["eps"]), [float(d) for d in p["deltas"]])
    report.tables["sweep"] = [{"x0": float(p["eps"]), "y0": d,
                               "T_obs": T, "censored": c}
                              for d, T, c in rows]
    report.fitted = {"scaling_exponent": slope}
    report.add_verdict("lifespan_exponent", slope, -1.0, 0.15,
                       abs(slope + 1.0) <= 0.15)


def _run_simulate(cfg, report, out_dir=None):
    grid = cfg.build_grid()
    laws = cfg.build_laws()
    scfg = cfg.build_solver()
    s0 = initial_data.generate_initial_data(cfg.build_initial_spec(), grid,
                                            laws, cfg.seed)
    traj = solver.simulate(s0, scfg, laws)
    if out_dir is not None:
        snap_dir = Path(out_dir)
        snap_dir.mkdir(parents=True, exist_ok=True)
        for t, st in zip(traj.times, traj.states):
            save_snapshot(snap_dir / f"state_t{t:.6f}.eksnap",
                          {"l": st.l, "w": st.w, "u": st.u}, t)
    rows = []
    m0 = h0 = None
    for t, st in zip(traj.times, traj.states):
        ek = from_extended(st, laws)
        m = diagnostics.mass(ek)
        h = diagnostics.hamiltonian(ek, laws)
        e0 = diagnostics.gauge_energy(st, ek.rho)
        if m0 is None:
            m0, h0 = m, h
        rows.append({"t": t, "mass": m, "hamiltonian": h, "gauge_energy_0": e0})
    report.tables["conservation"] = rows
    mass_drift = max(abs(r["mass"] - m0) for r in rows) / abs(m0)
    ham_drift = max(abs(r["hamiltonian"] - h0) for r in rows) / max(abs(h0), 1e-300)
    report.fitted = {"mass_drift": mass_drift, "hamiltonian_drift": ham_drift,
                     "termination": traj.termination, "steps": traj.steps}
    # a run that took no step has no evidence for either verdict
    stepped = traj.steps > 0
    provenance = "measured" if stepped else "inconclusive"
    report.add_verdict("mass_drift", mass_drift, 0.0, 1e-10,
                       stepped and mass_drift <= 1e-10, provenance)
    normal = traj.termination == "reached_t_end"
    report.add_verdict("terminated_normally", float(normal), 1.0, 0.0, stepped and normal,
                       provenance)


_RUNNERS = {
    "dispersion": _run_dispersion,
    "lifespan": _run_lifespan,
    "blowup": _run_blowup,
    "normalform": _run_normalform,
    "resonance": _run_resonance,
    "ode": _run_ode,
    "simulate": _run_simulate,
}
