"""Acceptance gate: one test per headline claim, each printing PASS/FAIL.

These are end-to-end measurements at the stated resolutions, so this
module is much slower than the unit suites (several minutes total).
"""

import numpy as np
import pytest

from ekwave import gp, scenarios, solver, toyode
from ekwave.diagnostics import gauge_energy, hamiltonian, mass
from ekwave.grid import Field, FourierGrid
from ekwave.initial_data import InitialDataSpec, generate_initial_data
from ekwave.laws import ConstitutiveLaws
from ekwave.spectral import (
    bilinear_B,
    bilinear_B_exact,
    inverse_grad_spec,
    linear_flow,
    proj_p_spec,
    proj_q_spec,
)
from ekwave.states import from_extended, to_extended

QUANTUM = ConstitutiveLaws.quantum()
SEED = 20260823


def verdict(num, label, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num} ({label}): {detail}"
    print(line, flush=True)
    assert passed, line


def test_criterion_1_dispersion_decay_exponents():
    rep1 = scenarios.run_scenario(scenarios.default_config("dispersion"))
    slope1 = rep1.fitted["slope"]

    cfg2 = scenarios.default_config("dispersion")
    cfg2.grid = {"shape": [512, 512], "lengths": [100.0 * np.pi, 100.0 * np.pi]}
    # narrower packet: the 2d window wraps sooner, so the fit must start
    # as soon as the near-field transient (~width^2) has cleared
    cfg2.params = {"carrier": 1.0, "width": 2.0, "t_min": 5.0,
                   "t_max": 150.0, "n_samples": 24}
    rep2 = scenarios.run_scenario(cfg2)
    slope2 = rep2.fitted["slope"]

    ok = (abs(slope1 - (-0.5)) <= 0.15 * 0.5
          and abs(slope2 - (-1.0)) <= 0.15 * 1.0)
    verdict(1, "dispersion", ok,
            f"d=1 slope {slope1:.3f} (target -0.5 +-15%), "
            f"d=2 slope {slope2:.3f} (target -1.0 +-15%)")


def test_criterion_2_toy_ode_lifespan():
    T_cmp, censored = toyode.lifespan(0.0, 0.1, comparison=True, T_max=50.0)
    env_ok, margin = toyode.ansatz_envelopes(1.0 / 16.0, 1.0 / 16.0)
    rows, slope = toyode.lifespan_sweep(0.05, [0.1, 0.05, 0.025, 0.0125])
    ok = ((not censored) and abs(T_cmp - 10.0) <= 0.01
          and env_ok and abs(slope - (-1.0)) <= 0.15)
    verdict(2, "toy ODE", ok,
            f"comparison T={T_cmp:.4f} (10.00 +-0.01), envelope margin "
            f"{margin:.3e}, sweep exponent {slope:.3f} (-1.0 +-0.15)")


def test_criterion_3_blowup_construction():
    rep = scenarios.run_scenario(scenarios.default_config("blowup"))
    by_name = {v["name"]: v for v in rep.verdicts}
    ok = rep.all_passed
    verdict(3, "blow-up", ok,
            f"d2/dt2 rel err {by_name['second_derivative_match']['value']:.2e} "
            f"(<=0.02), quad coeff {by_name['quadratic_lower_bound']['value']:.3f} "
            f">= {by_name['quadratic_lower_bound']['target']:.3f}, "
            f"vacuum-time rel err {by_name['vacuum_time_match']['value']:.2e} "
            f"(<=0.02), grad-u monotone "
            f"{bool(by_name['grad_u_monotone_last_decade']['passed'])}")


def test_criterion_4_madelung_consistency():
    g = FourierGrid(256, 2 * np.pi)
    s0 = generate_initial_data(InitialDataSpec(amplitude=0.1), g, QUANTUM, SEED)
    # the matching wave function: u = 2 grad(phase)
    phi_spec = inverse_grad_spec(g, g.fft(0.5 * s0.u.data))
    phi = Field.scalar(g, g.ifft(phi_spec[None], real=True)[0])
    w0 = gp.madelung(s0.rho, phi)
    errs = []
    for dt in (1e-4, 5e-5):
        traj = solver.simulate(s0, solver.SolverConfig(dt=dt, t_end=1.0), QUANTUM)
        ek = from_extended(traj.states[-1], QUANTUM)
        ref = gp.fluid_state(gp.gp_evolve(w0, 1.0, dt, QUANTUM))
        num = np.sqrt(np.sum((ek.rho.values - ref.rho.values) ** 2)
                      + np.sum((ek.u.data - ref.u.data) ** 2))
        den = np.sqrt(np.sum(ref.rho.values ** 2) + np.sum(ref.u.data ** 2))
        errs.append(num / den)
    order = float(np.log2(errs[0] / errs[1]))
    ok = errs[0] <= 1e-3 and order >= 1.9
    verdict(4, "Madelung", ok,
            f"rel L2 discrepancy {errs[0]:.2e} (<=1e-3), refinement order "
            f"{order:.3f} (>=2)")


def test_criterion_5_normal_form_cubic_residual():
    rep = scenarios.run_scenario(scenarios.default_config("normalform"))
    slope = rep.fitted["slope"]
    ok = abs(slope - 3.0) <= 0.3
    verdict(5, "normal form", ok, f"residual slope {slope:.4f} (3.0 +-0.3)")


def test_criterion_6_resonance_asymptotic():
    rep = scenarios.run_scenario(scenarios.default_config("resonance"))
    by_name = {v["name"]: v for v in rep.verdicts}
    ratio = by_name["asymptotic_ratio"]["value"]
    exact = by_name["resonant_set_identity"]["passed"]
    ok = rep.all_passed
    verdict(6, "resonance", ok,
            f"asymptotic ratio {ratio:.4f} (1.0 +-0.05), "
            f"resonant-set identity exact: {exact}")


def test_criterion_7_conservation_suite():
    rep = scenarios.run_scenario(scenarios.default_config("simulate"))
    mass_drift = rep.fitted["mass_drift"]

    g = FourierGrid(64, 2 * np.pi)
    s0 = generate_initial_data(InitialDataSpec(amplitude=0.05), g, QUANTUM, SEED)
    h0 = hamiltonian(s0, QUANTUM)
    drifts = []
    for dt in (4e-3, 2e-3, 1e-3):
        traj = solver.simulate(s0, solver.SolverConfig(dt=dt, t_end=0.2), QUANTUM)
        sf = from_extended(traj.states[-1], QUANTUM)
        drifts.append(abs(hamiltonian(sf, QUANTUM) - h0) / abs(h0))
    orders = np.log2(np.array(drifts[:-1]) / np.array(drifts[1:]))

    ratios = []
    for amp in (0.04, 0.02, 0.01):
        s = generate_initial_data(InitialDataSpec(amplitude=amp), g, QUANTUM, SEED)
        e0 = gauge_energy(to_extended(s, QUANTUM), s.rho)
        ratios.append((e0 - 2.0 * hamiltonian(s, QUANTUM)) / amp**3)
    mags = np.abs(ratios)

    ok = (mass_drift <= 1e-10
          and np.all(np.abs(orders - 2.0) <= 0.3)
          and np.max(mags) <= 1.0 and np.max(mags) / np.min(mags) <= 1.5)
    verdict(7, "conservation", ok,
            f"mass drift {mass_drift:.2e} (<=1e-10), H-drift orders "
            f"{[f'{o:.3f}' for o in orders]} (2 +-0.3), gauge cubic ratios "
            f"{[f'{r:.4f}' for r in ratios]} (bounded)")


def test_criterion_8_operator_algebra():
    g = FourierGrid(64, 2 * np.pi)
    r = np.random.default_rng(SEED)
    g2 = FourierGrid((16, 16), (2 * np.pi, 2 * np.pi))
    v = g2.fft(r.standard_normal((2,) + g2.shape))
    q = proj_q_spec(g2, v)
    p = proj_p_spec(g2, v)
    zero = (0, 0)
    mean = v.copy() * 0.0
    mean[(Ellipsis,) + zero] = v[(Ellipsis,) + zero]
    scale = np.max(np.abs(v))
    idem = np.max(np.abs(proj_q_spec(g2, q) - q)) <= 1e-12 * scale
    orth = np.max(np.abs(proj_q_spec(g2, p))) <= 1e-12 * scale
    comp = np.max(np.abs(p + q + mean - v)) <= 1e-12 * scale

    # e^{itH} of a real field is complex: the group acts on full spectra
    f = Field.scalar(g, r.standard_normal(g.shape).astype(complex))

    def flow(h, t):
        return Field.from_spectral(g, h.spectral * linear_flow(g, t))

    ab = flow(flow(f, 0.3), 0.5).values
    group = np.max(np.abs(ab - flow(f, 0.8).values)) <= 1e-12
    unitary = abs(flow(f, 1.7).l2norm() - f.l2norm()) <= 1e-12 * f.l2norm()

    g16 = FourierGrid(16, 2 * np.pi)
    a = Field.scalar(g16, r.standard_normal(g16.shape))
    b = Field.scalar(g16, r.standard_normal(g16.shape))
    quad = g16.ifft(bilinear_B(g16, a.spectral, b.spectral, QUANTUM.strength))[0]
    exact = bilinear_B_exact(a, b, QUANTUM.strength)
    bscale = np.max(np.abs(exact.values))
    b_err = np.max(np.abs(quad - exact.values)) / bscale
    quadrature = b_err <= 1e-6

    aspec, bspec = a.spectral, b.spectral
    lap = lambda q_: -g16.cut(g16.k_squared, q_) * q_
    lhs = g16.ifft(2.0 * bilinear_B(g16, aspec, lap(bspec), QUANTUM.strength)
                   + 2.0 * bilinear_B(g16, lap(aspec) - 2.0 * aspec, bspec,
                                      QUANTUM.strength))[0]
    rhs = -QUANTUM.strength * a.values * b.values
    cancel = np.max(np.abs(lhs - rhs)) <= 1e-8 * max(1.0, np.max(np.abs(rhs)))

    ok = idem and orth and comp and group and unitary and quadrature and cancel
    verdict(8, "operator algebra", ok,
            f"projectors idem/orth/complete {idem}/{orth}/{comp}, e^{{itH}} "
            f"group/unitary {group}/{unitary}, B quadrature rel err "
            f"{b_err:.2e} (<=1e-6), cancellation {cancel}")


def test_criterion_9_solenoidal_invariance_and_lifespan():
    g = FourierGrid((64, 64), (2 * np.pi, 2 * np.pi))
    s0 = generate_initial_data(InitialDataSpec(amplitude=0.05), g, QUANTUM, SEED)
    traj = solver.simulate(s0, solver.SolverConfig(dt=5e-3, t_end=0.5), QUANTUM)
    sf = traj.states[-1]
    pu = proj_p_spec(g, sf.u.spectral)
    unorm = np.sqrt(np.sum(np.abs(sf.u.spectral) ** 2))
    pu_rel = np.sqrt(np.sum(np.abs(pu) ** 2)) / max(unorm, 1e-300)

    cfg = scenarios.default_config("lifespan")
    cfg.params["deltas"] = [0.04, 0.02, 0.01, 0.0]
    rep = scenarios.run_scenario(cfg)
    rows = rep.tables["lifespan"]
    positive = sorted((r for r in rows if r["delta"] > 0),
                      key=lambda r: -r["delta"])
    monotone = all(positive[i]["T_obs"] <= positive[i + 1]["T_obs"] + 1e-12
                   for i in range(len(positive) - 1))
    zero_censored = all(r["censored"] for r in rows if r["delta"] == 0)

    t_obs = [round(r["T_obs"], 2) for r in positive]
    ok = pu_rel <= 1e-8 and monotone and zero_censored and rep.all_passed
    verdict(9, "solenoidal/lifespan", ok,
            f"||Pu(t)||/||u|| = {pu_rel:.2e} (round-off), T_obs {t_obs} "
            f"non-increasing in delta: {monotone}, delta=0 censored: "
            f"{zero_censored}")
