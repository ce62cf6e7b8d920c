"""The four benchmark workloads and the checks run on their outputs.

Each workload exposes

* ``setup(seed, smoke)``: what a user pays before the first result --
  construction of the grid, the law and the initial state, plus the first
  step (timed in a fresh process by ``run.py``);
* ``unit(seed, smoke, scratch)``: one complete run of the workload up to
  its verdicts, returning a :class:`UnitResult` with the steps taken, the
  checks made on the outputs and the report tables.

Inputs come only from the seed: initial states are drawn by
``ekwave.initial_data.generate_initial_data`` with the seed passed on the
command line, except on normalform-2d, which moves one fixed realization by
a seeded lattice symmetry (see :class:`NormalForm2D`).  ``smoke`` selects
toy sizes that run every check and every traced call in seconds.

Each unit names the stored reference tables its own tables must match
(``UnitResult.reference_key``): the seed, or on normalform-2d the
realization.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import json
import math
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

import numpy as np

from ekwave import diagnostics, gp, scenarios, solver, states
from ekwave.grid import Field, FourierGrid
from ekwave.initial_data import InitialDataSpec, generate_initial_data
from ekwave.snapshots import load_snapshot
from ekwave.spectral import div_spec, inverse_grad_spec

DEFAULT_SEED = 20260823
# A second seed whose reference tables are stored as well, so that a claim
# tuned on the default seed can be re-checked on inputs it was not tuned on.
SECOND_SEED = 1906
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Relative tolerance of report-table cells against the stored reference.
# Tables of the seed commit repeat bit for bit.  The normal-form residual is
# a cancellation of much larger terms, so reordered floating-point sums move
# it by up to 1e-10 relative (measured on moved copies of one realization);
# 1e-8 admits that, and real-to-complex transforms, but not a change of
# scheme.
TABLE_RTOL = 1e-8
# Divergence of the solenoidal velocity relative to k_max * |state|;
# the seed commit leaves 1e-17 or less.
PU_DIV_TOL = 1e-12
# Relative mass drift of one lifespan delta-run.  At dt = 0.01 the Strang
# scheme's truncation error moves the mass by 6e-8 .. 2e-7 over T_max = 0.1
# on the two reference seeds; the bound catches a broken step, not a change
# of truncation error.
LIFESPAN_MASS_TOL = 1e-5
# Criterion 4 of the acceptance gate: wave-function vs fluid discrepancy.
MADELUNG_TOL = 1e-3
# The normal form round trip must restore w (absolute, max norm).
ROUNDTRIP_TOL = 1e-10
POLYNOMIAL_LAW = {"name": "polynomial", "params": {"K_coeffs": [1.0, 0.5]}}


@dataclasses.dataclass
class Check:
    name: str
    passed: bool
    value: object = None
    limit: object = None


@dataclasses.dataclass
class UnitResult:
    reference_key: str = ""
    steps: int = 0
    checks: List[Check] = dataclasses.field(default_factory=list)
    tables: Dict[str, list] = dataclasses.field(default_factory=dict)

    def check(self, name, passed, value=None, limit=None):
        self.checks.append(Check(name, bool(passed), value, limit))


# ---------------------------------------------------------------------------
# helpers shared by the workloads
# ---------------------------------------------------------------------------

@contextmanager
def step_recorder():
    """Count Strang and GP steps and keep each encoded run's end states.

    ``solver.encode`` opens a run (``[initial, final]``) and every return of
    ``solver.step_encoded`` becomes that run's final state, so after a
    lifespan sweep there is one entry per delta.  Both names are looked up
    as module globals by their callers, so rebinding them here is enough.
    """
    rec = {"strang": 0, "gp": 0, "runs": []}
    encode, step_encoded, gp_step = solver.encode, solver.step_encoded, gp.gp_step

    def encode_rec(s):
        out = encode(s)
        rec["runs"].append([out, out])
        return out

    def step_rec(*args, **kwargs):
        out = step_encoded(*args, **kwargs)
        rec["strang"] += 1
        if rec["runs"]:
            rec["runs"][-1][1] = out
        return out

    def gp_rec(*args, **kwargs):
        rec["gp"] += 1
        return gp_step(*args, **kwargs)

    solver.encode, solver.step_encoded, gp.gp_step = encode_rec, step_rec, gp_rec
    try:
        yield rec
    finally:
        solver.encode, solver.step_encoded, gp.gp_step = encode, step_encoded, gp_step


def add_verdicts(result, report):
    for v in report.verdicts:
        result.check(f"verdict:{report.scenario}:{v['name']}", v["passed"],
                     v["value"], (v["target"], v["tolerance"]))
    result.check(f"no_errors:{report.scenario}", not report.errors, report.errors)


def _rows_match(rows, ref_rows, rtol):
    if len(rows) != len(ref_rows):
        return False
    for row, ref in zip(rows, ref_rows):
        if sorted(row) != sorted(ref):
            return False
        for key, want in ref.items():
            got = row[key]
            if isinstance(want, float) and not isinstance(got, bool):
                if not math.isclose(float(got), want, rel_tol=rtol, abs_tol=0.0):
                    return False
            elif got != want:
                return False
    return True


def load_reference():
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def check_tables(result, reference, workload, smoke):
    """Compare the unit's tables with the stored reference for its key.

    Returns False when no reference is stored under the key; the tables are
    then not checked and count neither as attempted nor as failed.
    """
    stored = reference.get(workload.name, {}).get("smoke" if smoke else "full", {})
    ref = stored.get(result.reference_key)
    if ref is None:
        return False
    for name, ref_rows in ref.items():
        rows = json.loads(json.dumps(result.tables.get(name, [])))
        result.check(f"reference:{name}", _rows_match(rows, ref_rows, TABLE_RTOL))
    return True


def _grid2d(n):
    return {"shape": [n, n], "lengths": [2.0 * np.pi, 2.0 * np.pi]}


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [{k: float(v) for k, v in row.items()} for row in rows]


def _state_mass(grid, laws, encoded):
    ext = solver.decode(grid, *encoded, 0.0)
    return diagnostics.mass(states.from_extended(ext, laws))


# ---------------------------------------------------------------------------
# lifespan-2d
# ---------------------------------------------------------------------------

class Lifespan2D:
    """Default ``lifespan`` scenario: 128^2, quantum law, dt 0.01, four deltas."""

    name = "lifespan-2d"
    why = ("128^2 Strang steps where grid FFTs and spectral projectors do most "
           "of the work and laws is closed-form")

    @staticmethod
    def config(seed, smoke):
        cfg = scenarios.default_config("lifespan")
        cfg.seed = int(seed)
        # T_max is cut from the scenario's 10 to keep one run near a second;
        # every delta is censored either way (the verdicts are vacuous).
        cfg.params["T_max"] = 0.02 if smoke else 0.1
        if smoke:
            cfg.grid = _grid2d(32)
        return cfg

    @classmethod
    def setup(cls, seed, smoke):
        cfg = cls.config(seed, smoke)
        grid, laws, scfg = cfg.build_grid(), cfg.build_laws(), cfg.build_solver()
        spec = InitialDataSpec(amplitude=cfg.params["eps"],
                               solenoidal=cfg.params["deltas"][0],
                               band_limit=cfg.initial_data["band_limit"])
        ext = states.to_extended(generate_initial_data(spec, grid, laws, cfg.seed), laws)
        solver.step_encoded(grid, laws, scfg, *solver.encode(ext))

    @classmethod
    def unit(cls, seed, smoke, scratch):
        cfg = cls.config(seed, smoke)
        result = UnitResult(reference_key=str(seed))
        with step_recorder() as rec:
            report = scenarios.run_scenario(cfg)
        result.steps = rec["strang"]
        add_verdicts(result, report)
        result.tables["lifespan"] = report.tables.get("lifespan", [])

        grid, laws = cfg.build_grid(), cfg.build_laws()
        deltas = cfg.params["deltas"]
        per_run = int(round(cfg.params["T_max"] / cfg.solver["dt"]))
        result.check("runs_captured", len(rec["runs"]) == len(deltas),
                     len(rec["runs"]), len(deltas))
        result.check("steps_taken", rec["strang"] == per_run * len(deltas),
                     rec["strang"], per_run * len(deltas))
        kmax = float(np.max(grid.k_magnitude))
        for delta, (first, last) in zip(deltas, rec["runs"]):
            psi, pu, lmean = last
            finite = bool(np.all(np.isfinite(psi)) and np.all(np.isfinite(pu))
                          and np.isfinite(lmean))
            result.check(f"finite:delta={delta}", finite)
            if not finite:
                continue
            scale = max(float(np.max(np.abs(psi))), float(np.max(np.abs(pu))), 1e-300)
            div = float(np.max(np.abs(div_spec(grid, pu)))) / (kmax * scale)
            result.check(f"pu_divergence_free:delta={delta}", div <= PU_DIV_TOL,
                         div, PU_DIV_TOL)
            m0, m1 = _state_mass(grid, laws, first), _state_mass(grid, laws, last)
            drift = abs(m1 - m0) / abs(m0)
            result.check(f"mass_conserved:delta={delta}", drift <= LIFESPAN_MASS_TOL,
                         drift, LIFESPAN_MASS_TOL)
        return result


# ---------------------------------------------------------------------------
# madelung-1d
# ---------------------------------------------------------------------------

class Madelung1D:
    """Criterion 4's setup (256 points, amplitude 0.1, dt 1e-4) through the
    simulate scenario, then GP.

    The scenario's mass_drift verdict has a fixed tolerance of 1e-10, while
    the scheme's mass drift grows with amplitude squared and run length.  At
    this size it fails on a few seeds (seed 201: 1.19e-10); such a run
    reports the failed verdict and ``correct: false``.
    """

    name = "madelung-1d"
    why = ("256-point steps where per-call overhead and the every-step monitor "
           "dominate; the only user of gp, snapshots and the energies")

    @staticmethod
    def config(seed, smoke):
        cfg = scenarios.default_config("simulate")
        cfg.seed = int(seed)
        cfg.grid = {"shape": [64 if smoke else 256], "lengths": [2.0 * np.pi]}
        cfg.initial_data["amplitude"] = 0.1
        t_end = 0.002 if smoke else 0.01
        cfg.solver = {"dt": 1e-4, "t_end": t_end, "snapshot_stride": 50}
        return cfg

    @staticmethod
    def wave_function(cfg, grid, laws):
        """The wave function matched to the seeded fluid state (u = 2 grad phase)."""
        s0 = generate_initial_data(cfg.build_initial_spec(), grid, laws, cfg.seed)
        phi_spec = inverse_grad_spec(grid, grid.fft(0.5 * s0.u.data))
        phi = Field.scalar(grid, grid.ifft(phi_spec[None], real=True)[0])
        return s0, gp.madelung(s0.rho, phi)

    @classmethod
    def setup(cls, seed, smoke):
        cfg = cls.config(seed, smoke)
        grid, laws, scfg = cfg.build_grid(), cfg.build_laws(), cfg.build_solver()
        s0, w0 = cls.wave_function(cfg, grid, laws)
        ext = states.to_extended(s0, laws)
        solver.step_encoded(grid, laws, scfg, *solver.encode(ext))
        gp.gp_step(w0, scfg.dt, laws)

    @classmethod
    def unit(cls, seed, smoke, scratch):
        cfg = cls.config(seed, smoke)
        result = UnitResult(reference_key=str(seed))
        out = Path(scratch)
        with step_recorder() as rec:
            report = scenarios.run_scenario(cfg, str(out))
            grid, laws = cfg.build_grid(), cfg.build_laws()
            _, w0 = cls.wave_function(cfg, grid, laws)
            dt, t_end = cfg.solver["dt"], cfg.solver["t_end"]
            w_end = gp.gp_evolve(w0, t_end, dt, laws)
        result.steps = rec["strang"] + rec["gp"]
        add_verdicts(result, report)
        result.tables["conservation"] = _read_csv(out / "simulate_conservation.csv")

        snaps = sorted(out.glob("state_t*.eksnap"))
        result.check("snapshots_written", len(snaps) == len(result.tables["conservation"]),
                     len(snaps), len(result.tables["conservation"]))
        fields, t_snap, _ = load_snapshot(snaps[-1], grid)
        result.check("last_snapshot_time", abs(t_snap - t_end) <= 1e-9, t_snap, t_end)
        ext = states.ExtendedState(l=fields["l"], w=fields["w"], u=fields["u"], time=t_snap)
        ek = states.from_extended(ext, laws)
        ref = gp.fluid_state(w_end)
        num = math.sqrt(float(np.sum((ek.rho.values - ref.rho.values) ** 2)
                              + np.sum((ek.u.data - ref.u.data) ** 2)))
        den = math.sqrt(float(np.sum(ref.rho.values ** 2) + np.sum(ref.u.data ** 2)))
        # no reference table for the discrepancy: at ~1e-9 it is a difference
        # of O(1) fields, so round-off moves it by far more than TABLE_RTOL
        result.check("madelung_discrepancy", num / den <= MADELUNG_TOL, num / den,
                     MADELUNG_TOL)
        return result


# ---------------------------------------------------------------------------
# normalform-2d
# ---------------------------------------------------------------------------

class NormalForm2D:
    """Normal-form residual, transform and round trip at 128^2, quantum law.

    The time to verdict here depends on the realization: over seeds 0-13
    one unit takes 0.6 to 1.3 s, because bilinear_B's node count and the
    fixed-point iteration count vary with the random field.  So that the
    seed does not change the amount of work, every seed uses the realization
    of the default seed, moved by a seeded symmetry of the square lattice
    (a translation by whole cells, reflections and the axis swap).  Those
    leave every norm, node count and iteration count unchanged, so the
    reference tables hold for every seed.

    ``realization`` picks the field that is moved.  The timed runs keep the
    default seed's; the tables of :data:`SECOND_SEED`'s field are stored as
    well (``reference_variants``), so that the quadrature and the codec can
    be re-checked on a field they were not tuned on.
    """

    name = "normalform-2d"
    why = ("bilinear_B quadrature and the normal-form codec at 128^2 with no "
           "time stepping")
    EPS_LIST = (0.02, 0.01, 0.005)
    reference_variants = ({"realization": SECOND_SEED},)

    @staticmethod
    def moved(state, seed):
        """``state`` under the lattice symmetry drawn from ``seed``."""
        rng = np.random.default_rng(seed)
        grid = state.grid
        rho, u = state.rho.values, state.u.data
        for ax in range(2):
            if rng.integers(2):
                # f(x) -> f(-x): index i -> -i mod N; u_ax changes sign
                rho = np.roll(np.flip(rho, ax), 1, ax)
                u = np.roll(np.flip(u, ax + 1), 1, ax + 1)
                u = u * np.array([-1.0 if c == ax else 1.0 for c in range(2)])[:, None, None]
        if rng.integers(2):
            rho, u = rho.T, u[::-1].transpose(0, 2, 1)
        shift = tuple(int(k) for k in rng.integers(0, grid.shape[0], size=2))
        rho = np.roll(rho, shift, axis=(0, 1))
        u = np.roll(u, shift, axis=(1, 2))
        return states.EKState(rho=Field.scalar(grid, np.ascontiguousarray(rho)),
                              u=Field.vector(grid, np.ascontiguousarray(u)))

    @classmethod
    def extended_states(cls, seed, smoke, realization=DEFAULT_SEED):
        cfg = scenarios.default_config("normalform")
        grid = FourierGrid(*_grid2d(32 if smoke else 128).values())
        laws = cfg.build_laws()
        spec = cfg.build_initial_spec()
        out = []
        for eps in cls.EPS_LIST:
            s0 = generate_initial_data(dataclasses.replace(spec, amplitude=eps),
                                       grid, laws, realization)
            out.append((eps, states.to_extended(cls.moved(s0, seed), laws)))
        return laws, out

    @classmethod
    def setup(cls, seed, smoke):
        # nothing steps here: set-up ends with the extended initial states
        cls.extended_states(seed, smoke)

    @classmethod
    def unit(cls, seed, smoke, scratch, realization=DEFAULT_SEED):
        result = UnitResult(reference_key=f"realization-{realization}")
        laws, extended = cls.extended_states(seed, smoke, realization)
        residual, inversion = [], []
        for eps, ext in extended:
            res = solver.normal_form_residual(ext, laws)
            residual.append({"eps": eps, "residual_l2": res.l2norm()})
            d = states.normal_form(ext, laws)
            back, iters = states.invert_normal_form(d, laws)
            err = float(np.max(np.abs(back.w.data - ext.w.data)))
            result.check(f"roundtrip:eps={eps}", err <= ROUNDTRIP_TOL, err, ROUNDTRIP_TOL)
            result.steps += iters
            inversion.append({"eps": eps, "iterations": iters})
        slope = float(np.polyfit(np.log([r["eps"] for r in residual]),
                                 np.log([r["residual_l2"] for r in residual]), 1)[0])
        result.check("cubic_residual_slope", abs(slope - 3.0) <= 0.3, slope, 3.0)
        result.tables["residual"] = residual
        result.tables["inversion"] = inversion
        return result


# ---------------------------------------------------------------------------
# general-law
# ---------------------------------------------------------------------------

class GeneralLaw:
    """Polynomial law K = 1 + 0.5 (rho - 1) on 32^2: residual sweep and one step."""

    name = "general-law"
    why = ("polynomial capillarity, where the per-point root solves of "
           "laws.rho_of_l do nearly all the work")

    @staticmethod
    def configs(seed, smoke):
        # On the 8^2 toy grid the band limit must drop to 1.5 for the
        # cubic slope to hold (products of band-4 data alias there).
        grid = _grid2d(8 if smoke else 32)
        nf = scenarios.default_config("normalform")
        sim = scenarios.default_config("simulate")
        for cfg in (nf, sim):
            cfg.seed = int(seed)
            cfg.grid = grid
            cfg.laws = copy.deepcopy(POLYNOMIAL_LAW)
            if smoke:
                cfg.initial_data["band_limit"] = 1.5
        sim.solver = {"dt": 1e-3, "t_end": 1e-3}
        return nf, sim

    @classmethod
    def setup(cls, seed, smoke):
        _, cfg = cls.configs(seed, smoke)
        grid, laws, scfg = cfg.build_grid(), cfg.build_laws(), cfg.build_solver()
        s0 = generate_initial_data(cfg.build_initial_spec(), grid, laws, cfg.seed)
        ext = states.to_extended(s0, laws)
        solver.step_encoded(grid, laws, scfg, *solver.encode(ext))

    @classmethod
    def unit(cls, seed, smoke, scratch):
        nf, sim = cls.configs(seed, smoke)
        result = UnitResult(reference_key=str(seed))
        with step_recorder() as rec:
            nf_report = scenarios.run_scenario(nf)
            sim_report = scenarios.run_scenario(sim)
        result.steps = rec["strang"]
        add_verdicts(result, nf_report)
        add_verdicts(result, sim_report)
        result.check("law_strength", nf.build_laws().strength == -0.25,
                     nf.build_laws().strength, -0.25)
        result.tables["residual"] = nf_report.tables.get("residual", [])
        result.tables["conservation"] = sim_report.tables.get("conservation", [])
        return result


WORKLOADS = {w.name: w for w in (Lifespan2D, Madelung1D, NormalForm2D, GeneralLaw)}
