"""Time integration: tendencies, splitting order, monitors, invariances."""

import numpy as np
import pytest

from ekwave.errors import StabilityError
from ekwave.grid import Field, FourierGrid
from ekwave.laws import ConstitutiveLaws
from ekwave import gp, scenarios, solver, spectral, states
from ekwave.diagnostics import hamiltonian, mass
from ekwave.initial_data import InitialDataSpec, generate_initial_data
from ekwave.spectral import div_spec, grad_spec, linear_flow, proj_p_spec

QUANTUM = ConstitutiveLaws.quantum()
POLYNOMIAL = ConstitutiveLaws.polynomial([1.0, 0.5])     # K = 1 + (rho - 1)/2
LAWS = {"quantum": QUANTUM, "constant": ConstitutiveLaws.constant(), "polynomial": POLYNOMIAL}


def small_state(grid, amplitude, seed=42, solenoidal=0.0):
    spec = InitialDataSpec(amplitude=amplitude, solenoidal=solenoidal)
    return generate_initial_data(spec, grid, QUANTUM, seed)


def test_constant_state_has_zero_tendencies():
    g = FourierGrid(32, 2 * np.pi)
    s = states.EKState(Field.scalar(g, np.ones(g.shape)),
                       Field.vector(g, np.zeros((g.dim,) + g.shape)), 0.0)
    for spec in solver.rhs_extended(states.to_extended(s, QUANTUM), QUANTUM):
        assert np.max(np.abs(g.ifft(spec))) <= 1e-13


def test_steady_shear_has_zero_tendencies():
    # rho = 1, u = (sin y, 0): u.grad u = 0 and the shear is divergence-free
    g = FourierGrid((32, 32), (2 * np.pi, 2 * np.pi))
    y = g.meshgrid()[1]
    u = Field.vector(g, np.stack([np.sin(y), np.zeros(g.shape)]))
    ext = states.to_extended(states.EKState(Field.scalar(g, np.ones(g.shape)), u), QUANTUM)
    dv, dpu, dlmean = solver.nonlinear_tendencies(g, QUANTUM, *solver.encode(ext))
    assert np.max(np.abs(dv)) / g.npoints <= 1e-14
    assert np.max(np.abs(dpu)) / g.npoints <= 1e-14
    assert dlmean == 0.0
    for spec in solver.rhs_extended(ext, QUANTUM):
        assert np.max(np.abs(g.ifft(spec))) <= 1e-14


def test_density_tendency_mean_free():
    g = FourierGrid(64, 2 * np.pi)
    s = small_state(g, 0.1, seed=1)
    drho, _ = solver.rhs_primitive(s, QUANTUM)
    assert abs(np.mean(drho)) <= 1e-14 * max(np.max(np.abs(drho)), 1.0)


def test_pressure_is_a_gradient():
    # the identity behind the gradient form of the pressure: drho/dl = rho/a,
    # so (2 - g'(rho) rho/a) w = grad(2l - g(rho)) with w = grad l.  No
    # dealiasing; the data are band-limited far inside both grids.
    for shape in ((64,), (32, 32)):
        g = FourierGrid(shape, 2 * np.pi)
        for name, laws in sorted(LAWS.items()):
            s = generate_initial_data(InitialDataSpec(amplitude=0.05, band_limit=2.0),
                                      g, laws, 5)
            ext = states.to_extended(s, laws)
            rho = s.rho.values
            product = (2.0 - laws.dg(rho) * rho / laws.a(rho)) * ext.w.data
            potential = 2.0 * ext.l.values - laws.g(rho)
            gradient = g.ifft(grad_spec(g, g.fft(potential)))
            err = np.max(np.abs(gradient - product)) / np.max(np.abs(product))
            assert err <= 1e-10, (shape, name, err)


def test_extended_matches_primitive_oracle():
    # independent primitive-variable (rho, u) right-hand side, d = 1 only
    g = FourierGrid(64, 2 * np.pi)
    s = small_state(g, 0.05)
    ext = states.to_extended(s, QUANTUM)
    dl, dw, du = solver.rhs_extended(ext, QUANTUM, dealias=False)
    drho, du_prim = solver.rhs_primitive(s, QUANTUM, dealias=False)
    scale = np.max(np.abs(du_prim))
    assert np.max(np.abs(g.ifft(du) - du_prim)) <= 1e-10 * scale
    # dl = l'(rho) drho = drho / rho for the quantum law
    assert np.max(np.abs(g.ifft(dl) - drho / s.rho.values)) <= 1e-10 * scale


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("shape, tol", [((64, 64), 1e-10), ((32, 32, 32), 1e-8)],
                         ids=["64x64", "32x32x32"])
def test_extended_matches_primitive_oracle_with_vorticity(shape, tol, law):
    # delta > 0: the solenoidal velocity must be transported.  The codec
    # carries no mean velocity, so the mean mode of du is left out.
    laws = LAWS[law]
    g = FourierGrid(shape, 2 * np.pi)
    s = generate_initial_data(InitialDataSpec(amplitude=0.05, solenoidal=0.04), g, laws, 11)
    dl, _, du = solver.rhs_extended(states.to_extended(s, laws), laws, dealias=False)
    drho, du_prim = solver.rhs_primitive(s, laws, dealias=False)
    du_prim = du_prim - du_prim.mean(axis=tuple(range(1, du_prim.ndim)), keepdims=True)
    scale = np.max(np.abs(du_prim))
    assert np.max(np.abs(g.ifft(du) - du_prim)) <= tol * scale
    # dl = l'(rho) drho = sqrt(K/rho) drho
    dl_prim = np.sqrt(laws.K(s.rho.values) / s.rho.values) * drho
    assert np.max(np.abs(g.ifft(dl) - dl_prim)) <= tol * scale


def test_nonlinearity_is_quadratic():
    # || d psi/dt - i H psi || / ||psi|| = O(eps); halving eps halves it
    g = FourierGrid(64, 2 * np.pi)
    ratios = []
    for eps in (0.04, 0.02):
        ext = states.to_extended(small_state(g, eps, seed=4), QUANTUM)
        v, pu, lmean = solver.encode(ext)
        dv, _, _ = solver.nonlinear_tendencies(g, QUANTUM, v, pu, lmean, dealias=False)
        ratios.append(np.sqrt(np.sum(np.abs(dv) ** 2) / np.sum(np.abs(v) ** 2)))
    assert 0.8 * 2.0 <= ratios[0] / ratios[1] <= 1.2 * 2.0


def count_transforms(monkeypatch):
    """Scalar inverse and forward transforms and bilinear quadrature nodes
    counted from here on; a vector transform counts once per component."""
    calls = {"ifft": 0, "fft": 0, "nodes": 0}
    for name in ("ifft", "fft"):
        def counted(self, values, *args, _name=name, _transform=getattr(FourierGrid, name)):
            calls[_name] += int(np.prod(np.shape(values)[:-self.dim]))
            return _transform(self, values, *args)
        monkeypatch.setattr(FourierGrid, name, counted)
    nodes = spectral._heat_quadrature_nodes

    def counted_nodes(n):
        calls["nodes"] += n
        return nodes(n)

    monkeypatch.setattr(spectral, "_heat_quadrature_nodes", counted_nodes)
    return calls


TRANSFORM_COUNTS = {"1d": ((64,), 5, 3), "2d": ((32, 32), 10, 4), "3d": ((16, 16, 16), 17, 5)}


@pytest.mark.parametrize("shape, inverse, forward", TRANSFORM_COUNTS.values(),
                         ids=TRANSFORM_COUNTS.keys())
def test_tendencies_transform_counts(shape, inverse, forward, monkeypatch):
    # scalar transforms per evaluation: the velocity is sampled once and
    # differentiated once, in d + d + 1 + d^2 + 1 inverse transforms; the
    # forward ones are dl, the advection and one scalar for every gradient
    # term of dQu, pressure included: 1 + d + 1
    g = FourierGrid(shape, 2 * np.pi)
    encoded = solver.encode(states.to_extended(small_state(g, 0.05, seed=3), QUANTUM))
    calls = count_transforms(monkeypatch)
    solver.nonlinear_tendencies(g, QUANTUM, *encoded)
    assert (calls["ifft"], calls["fft"]) == (inverse, forward)


RESIDUAL_TRANSFORM_COUNTS = {"1d": ((64,), 8, 7), "2d": ((32, 32), 16, 9),
                             "3d": ((16, 16, 16), 26, 11)}


@pytest.mark.parametrize("shape, inverse, forward", RESIDUAL_TRANSFORM_COUNTS.values(),
                         ids=RESIDUAL_TRANSFORM_COUNTS.keys())
def test_normal_form_residual_transform_counts(shape, inverse, forward, monkeypatch):
    # scalar transforms of one residual outside the bilinear quadrature,
    # whose nodes each sample both operands (2 dim inverse transforms): the
    # tendencies, Qu and Pu for the two products, and the residual itself
    g = FourierGrid(shape, 2 * np.pi)
    ext = states.to_extended(small_state(g, 0.05, 3, 0.0 if g.dim == 1 else 0.04), QUANTUM)
    ext.u.spectral      # cached before counting, as encoding the state leaves it
    calls = count_transforms(monkeypatch)
    solver.normal_form_residual(ext, QUANTUM)
    assert calls["nodes"] > 0
    assert (calls["ifft"] - 2 * g.dim * calls["nodes"], calls["fft"]) == (inverse, forward)


NORMAL_FORM_SHAPES = {"1d": (64,), "2d": (32, 32), "3d": (16, 16, 16)}


@pytest.mark.parametrize("shape", NORMAL_FORM_SHAPES.values(), ids=NORMAL_FORM_SHAPES.keys())
def test_normal_form_transform_counts(shape, monkeypatch):
    # one normal form is two squares, B[w, w] and B[Qu, Qu]: each node
    # samples its one operand (dim inverse transforms), nothing else is
    # inverse-transformed, and the forward transforms are the two products
    g = FourierGrid(shape, 2 * np.pi)
    ext = states.to_extended(small_state(g, 0.05, 3, 0.0 if g.dim == 1 else 0.04), QUANTUM)
    ext.u.spectral      # cached before counting, as encoding the state leaves it
    calls = count_transforms(monkeypatch)
    states.normal_form(ext, QUANTUM)
    assert calls["nodes"] > 0
    assert (calls["ifft"] - g.dim * calls["nodes"], calls["fft"]) == (0, 2)


def test_half_wave_is_the_linear_flow_on_the_half_layout():
    # the rotation of each mode's pair (Qu, U^{-1}w) is e^{i(dt/2)H} on psi
    g = FourierGrid((32, 32), (2 * np.pi, 2 * np.pi))
    v, _, _ = solver.encode(states.to_extended(small_state(g, 0.05, 8, 0.04), QUANTUM))
    cos, sin = (g.cut(x, v) for x in solver._half_wave(g, 0.6))
    rotated = (cos * v[0] - sin * v[1]) + 1j * (sin * v[0] + cos * v[1])
    expected = (v[0] + 1j * v[1]) * g.cut(linear_flow(g, 0.3), v)
    assert np.max(np.abs(rotated - expected)) <= 1e-15 * np.max(np.abs(expected))


def test_step_encoded_keeps_the_half_layout():
    # the contract of the step: half-layout arrays in and out, with Pu the
    # half spectrum of a real divergence-free field
    g = FourierGrid((32, 32), (2 * np.pi, 2 * np.pi))
    cfg = solver.SolverConfig(dt=0.01, t_end=1.0)
    v, pu, lmean = solver.encode(states.to_extended(small_state(g, 0.05, 13, 0.04), QUANTUM))
    half = g.shape[:-1] + (g.half_length,)
    for _ in range(10):
        v, pu, lmean = solver.step_encoded(g, QUANTUM, cfg, v, pu, lmean)
        assert v.shape == (2, g.dim) + half and pu.shape == (g.dim,) + half
    scale = max(np.max(np.abs(v)), np.max(np.abs(pu)))
    assert np.max(np.abs(g.fft(g.ifft(pu)) - pu)) <= 1e-12 * scale
    kmax = float(np.max(g.k_magnitude))
    assert np.max(np.abs(div_spec(g, pu))) <= 1e-12 * kmax * scale


def test_step_dt_zero_is_identity():
    g = FourierGrid(32, 2 * np.pi)
    ext = states.to_extended(small_state(g, 0.05, seed=6), QUANTUM)
    cfg = solver.SolverConfig(dt=0.0, t_end=1.0)
    out = solver.decode(g, *solver.step_encoded(g, QUANTUM, cfg, *solver.encode(ext)), ext.time)
    assert np.max(np.abs(out.w.data - ext.w.data)) <= 1e-13
    assert np.max(np.abs(out.u.data - ext.u.data)) <= 1e-13


def test_strang_self_convergence_second_order():
    g = FourierGrid(64, 2 * np.pi)
    s0 = small_state(g, 0.05)
    finals = []
    dts = (4e-3, 2e-3, 1e-3, 5e-4)
    for dt in dts:
        cfg = solver.SolverConfig(dt=dt, t_end=0.5)
        traj = solver.simulate(s0, cfg, QUANTUM)
        finals.append(traj.states[-1])
    # successive-difference Richardson estimate: ratio 4 per dt halving
    errs = [np.sqrt(np.sum(np.abs(finals[i].u.data - finals[i + 1].u.data) ** 2))
            for i in range(len(dts) - 1)]
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(slopes >= 1.8) and np.all(slopes <= 2.2)


def test_energy_drift_shrinks_at_order_two():
    g = FourierGrid(64, 2 * np.pi)
    s0 = small_state(g, 0.05)
    H0 = hamiltonian(s0, QUANTUM)
    drifts = []
    for dt in (4e-3, 2e-3, 1e-3):
        traj = solver.simulate(s0, solver.SolverConfig(dt=dt, t_end=0.2), QUANTUM)
        sf = states.from_extended(traj.states[-1], QUANTUM)
        drifts.append(abs(hamiltonian(sf, QUANTUM) - H0) / abs(H0))
    orders = np.log2(np.array(drifts[:-1]) / np.array(drifts[1:]))
    assert np.all(orders >= 1.7) and np.all(orders <= 2.3)


def test_polynomial_law_cubic_residual_slope():
    # the general-K case: the normal form must cancel at strength -0.25 too
    assert abs(POLYNOMIAL.strength + 0.25) <= 1e-10
    cfg = scenarios.default_config("normalform")
    cfg.grid = {"shape": [32, 32], "lengths": [2 * np.pi, 2 * np.pi]}
    cfg.laws = {"name": "polynomial", "params": {"K_coeffs": [1.0, 0.5]}}
    report = scenarios.run_scenario(cfg)
    assert not report.errors
    assert report.fitted["resolved"] and report.all_passed
    assert abs(report.fitted["slope"] - 3.0) <= 0.3


def test_polynomial_law_energy_drift_shrinks_at_order_two():
    g = FourierGrid((32, 32), (2 * np.pi, 2 * np.pi))
    s0 = generate_initial_data(InitialDataSpec(amplitude=0.05), g, POLYNOMIAL, 42)
    H0 = hamiltonian(s0, POLYNOMIAL)
    drifts = []
    for dt in (0.02, 0.01):
        traj = solver.simulate(s0, solver.SolverConfig(dt=dt, t_end=0.2), POLYNOMIAL)
        assert traj.termination == "reached_t_end"
        sf = states.from_extended(traj.states[-1], POLYNOMIAL)
        drifts.append(abs(hamiltonian(sf, POLYNOMIAL) - H0) / abs(H0))
    assert 1.7 <= np.log2(drifts[0] / drifts[1]) <= 2.3


def test_mass_conserved_to_integrator_order():
    g = FourierGrid(64, 2 * np.pi)
    s0 = small_state(g, 0.05)
    m0 = mass(s0)
    drifts = []
    for dt in (2e-3, 1e-3):
        traj = solver.simulate(s0, solver.SolverConfig(dt=dt, t_end=0.2), QUANTUM)
        sf = states.from_extended(traj.states[-1], QUANTUM)
        drifts.append(abs(mass(sf) - m0) / abs(m0))
    assert drifts[1] < drifts[0]
    assert drifts[1] <= 1e-8


def test_simulate_constant_state():
    g = FourierGrid(32, 2 * np.pi)
    s = states.EKState(Field.scalar(g, np.ones(g.shape)),
                       Field.vector(g, np.zeros((g.dim,) + g.shape)), 0.0)
    traj = solver.simulate(s, solver.SolverConfig(dt=0.01, t_end=1.0), QUANTUM)
    assert traj.termination == "reached_t_end"
    for st in traj.states:
        assert np.max(np.abs(st.w.data)) <= 1e-12
        assert np.max(np.abs(st.l.values)) <= 1e-12


def test_solenoidal_invariance():
    # Pu0 = 0 stays zero at round-off
    g = FourierGrid((32, 32), (2 * np.pi, 2 * np.pi))
    s0 = small_state(g, 0.05, seed=12, solenoidal=0.0)
    traj = solver.simulate(s0, solver.SolverConfig(dt=5e-3, t_end=0.5), QUANTUM)
    sf = traj.states[-1]
    pu = proj_p_spec(g, sf.u.spectral)
    unorm = np.sqrt(np.sum(np.abs(sf.u.spectral) ** 2))
    assert np.sqrt(np.sum(np.abs(pu) ** 2)) <= 1e-8 * max(unorm, 1e-30)


def test_stability_guard():
    g = FourierGrid(64, 2 * np.pi)
    s0 = small_state(g, 0.05)
    with pytest.raises(StabilityError):
        solver.simulate(s0, solver.SolverConfig(dt=10.0, t_end=20.0), QUANTUM)


def test_vacuum_termination_from_backward_blowup_state():
    # a conjugated forward GP solution re-forms its vacuum; the EK solver
    # must stop with the vacuum monitor before that happens
    g = FourierGrid(512, 20 * np.pi)
    w0 = gp.gaussian_notch(g)
    w = gp.gp_evolve(w0, 0.25, 1e-4, QUANTUM)
    back = gp.WaveFunction(Field.scalar(g, np.conj(w.psi.values)), 0.0)
    s = gp.fluid_state(back)
    traj = solver.simulate(s, solver.SolverConfig(dt=2e-4, t_end=0.3), QUANTUM)
    assert traj.termination == "vacuum"
    assert traj.min_rho_history[-1] <= 1e-3
    assert traj.final_time < 0.3


def test_lifespan_experiment_table_shape():
    g = FourierGrid((32, 32), (2 * np.pi, 2 * np.pi))
    cfg = solver.SolverConfig(dt=0.02, t_end=1.0)
    rows, steps = solver.lifespan_experiment(0.05, [0.04, 0.0], g, QUANTUM, cfg,
                                             seed=3, T_max=1.0)
    assert [r["delta"] for r in rows] == [0.04, 0.0]
    assert steps[1] == 50
    for r in rows:
        assert set(r) >= {"delta", "T_obs", "censored", "product"}
    assert rows[1]["censored"]          # delta = 0 never fires the envelope
    assert rows[1]["T_obs"] == 1.0


def test_simulate_stops_at_criterion_cap():
    g = FourierGrid(32, 2 * np.pi)
    s0 = small_state(g, 0.05)
    free = solver.simulate(s0, solver.SolverConfig(dt=1e-3, t_end=0.02, snapshot_stride=1),
                           QUANTUM)
    assert free.termination == "reached_t_end"
    # a cap between the criterion after steps 3 and 4 fires at step 4
    cap = 0.5 * (free.criterion_history[3] + free.criterion_history[4])
    traj = solver.simulate(s0, solver.SolverConfig(dt=1e-3, t_end=0.02, criterion_cap=cap),
                           QUANTUM)
    assert traj.termination == "criterion_cap"
    assert traj.final_time == free.times[4]
    assert traj.states[-1].time == traj.final_time
    assert traj.criterion_history[-1] == free.criterion_history[4]
    assert (len(traj.times) == len(traj.states) == len(traj.min_rho_history)
            == len(traj.criterion_history) == 2)


def test_lifespan_experiment_envelope_rule():
    # an envelope below the initial transport norm fires at the first sample
    g = FourierGrid((32, 32), (2 * np.pi, 2 * np.pi))
    cfg = solver.SolverConfig(dt=0.02, t_end=1.0)
    rows, steps = solver.lifespan_experiment(0.05, [0.04], g, QUANTUM, cfg, seed=3,
                                             T_max=1.0, envelope_C=0.5)
    assert steps == [5]
    assert rows[0]["reason"] == "envelope"
    assert not rows[0]["censored"]
    assert rows[0]["T_obs"] == pytest.approx(5 * 0.02)


def test_drive_calls_encode_and_step_encoded_through_module_globals(monkeypatch):
    # perfbench's step recorder rebinds solver.encode and solver.step_encoded
    # and relies on _drive calling encode once per run and step_encoded
    # once per step, and on solver.decode taking the state they return
    encode, step_encoded = solver.encode, solver.step_encoded
    runs = []

    def encode_rec(s):
        out = encode(s)
        runs.append({"last": out, "steps": 0})
        return out

    def step_rec(*args):
        out = step_encoded(*args)
        runs[-1]["last"] = out
        runs[-1]["steps"] += 1
        return out

    monkeypatch.setattr(solver, "encode", encode_rec)
    monkeypatch.setattr(solver, "step_encoded", step_rec)
    g2 = FourierGrid((32, 32), (2 * np.pi, 2 * np.pi))
    solver.lifespan_experiment(0.05, [0.04, 0.02], g2, QUANTUM,
                               solver.SolverConfig(dt=0.01, t_end=1.0), seed=3, T_max=0.03)
    g1 = FourierGrid(64, 2 * np.pi)
    traj = solver.simulate(small_state(g1, 0.05), solver.SolverConfig(dt=0.01, t_end=0.04),
                           QUANTUM)
    assert [r["steps"] for r in runs] == [3, 3, 4]
    for g, run, t in zip((g2, g2, g1), runs, (0.03, 0.03, 0.04)):
        v, pu, lmean = run["last"]
        ext = solver.decode(g, v, pu, lmean, t)
        assert all(np.all(np.isfinite(f.data)) for f in (ext.l, ext.w, ext.u))
        scale = max(np.max(np.abs(v)), np.max(np.abs(pu)))
        assert np.max(np.abs(div_spec(g, pu))) <= 1e-12 * float(np.max(g.k_magnitude)) * scale
    assert np.array_equal(ext.u.data, traj.states[-1].u.data)
