"""Wave-function pathway: splitting solver, Madelung maps, vacuum formation."""

import numpy as np
import pytest

from ekwave.errors import ComponentError, VacuumError
from ekwave.grid import Field, FourierGrid
from ekwave.laws import ConstitutiveLaws
from ekwave import gp

QUANTUM = ConstitutiveLaws.quantum()


def test_unit_constant_is_stationary():
    g = FourierGrid(32, 2 * np.pi)
    w = gp.WaveFunction(Field.scalar(g, np.ones(g.shape, dtype=complex)), 0.0)
    out = gp.gp_evolve(w, 1.0, 1e-2, QUANTUM)
    assert np.max(np.abs(out.psi.values - 1.0)) <= 1e-13


def wave(grid, seed=0, amp=0.2):
    r = np.random.default_rng(seed)
    bump = r.standard_normal(grid.shape)
    spec = grid.fft(bump[None])
    spec[0, np.abs(grid.cut(grid.wavenumbers[0], spec)) > 4.0] = 0.0
    bump = grid.ifft(spec, real=True)[0]
    bump = bump / np.max(np.abs(bump))
    phase = np.roll(bump, grid.shape[0] // 3)
    return gp.WaveFunction(
        Field.scalar(grid, (1.0 + amp * bump) * np.exp(1j * amp * phase)), 0.0)


def test_renormalized_mass_conserved():
    g = FourierGrid(256, 8 * np.pi)
    w = wave(g, 1)
    # the renormalized mass: the integral of |psi|^2 - 1
    m0 = g.integrate(w.density() - 1.0)
    out = gp.gp_evolve(w, 1.0, 1e-3, QUANTUM)
    assert abs(g.integrate(out.density() - 1.0) - m0) <= 1e-10 * max(abs(m0), 1.0)


def test_gp_self_convergence_second_order():
    g = FourierGrid(128, 4 * np.pi)
    w = wave(g, 2)
    finals = [gp.gp_evolve(w, 0.5, dt, QUANTUM).psi.values
              for dt in (4e-3, 2e-3, 1e-3, 5e-4)]
    errs = [np.sqrt(np.mean(np.abs(finals[i] - finals[i + 1]) ** 2))
            for i in range(3)]
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(slopes >= 1.8) and np.all(slopes <= 2.2)


# ---------------------------------------------------------------------------
# Madelung maps
# ---------------------------------------------------------------------------

def test_inverse_madelung_unit_constant():
    g = FourierGrid(32, 2 * np.pi)
    w = gp.WaveFunction(Field.scalar(g, np.ones(g.shape, dtype=complex)), 0.0)
    rho, u = gp.inverse_madelung(w)
    assert np.max(np.abs(rho.values - 1.0)) <= 1e-13
    assert np.max(np.abs(u.data)) <= 1e-13


def test_inverse_madelung_plane_wave():
    g = FourierGrid(64, 2 * np.pi)
    x = g.meshgrid()[0]
    k = 3.0   # on the lattice for L = 2 pi
    w = gp.WaveFunction(Field.scalar(g, np.exp(1j * k * x)), 0.0)
    rho, u = gp.inverse_madelung(w)
    assert np.max(np.abs(rho.values - 1.0)) <= 1e-12
    assert np.max(np.abs(u.data[0] - k)) <= 1e-11


def test_inverse_madelung_vacuum_error():
    g = FourierGrid(64, 8 * np.pi)
    with pytest.raises(VacuumError):
        gp.inverse_madelung(gp.gaussian_notch(g))


def test_madelung_round_trip():
    g = FourierGrid(64, 2 * np.pi)
    w = wave(g, 3)
    rho, u = gp.inverse_madelung(w)
    # recover the phase from u (gradient field by construction here)
    from ekwave.spectral import inverse_grad_spec
    phi_vals = g.ifft(inverse_grad_spec(g, g.fft(u.data)), real=True)
    back = gp.madelung(rho, Field.scalar(g, phi_vals))
    ratio = back.psi.values / w.psi.values
    # identity up to one constant global phase
    assert np.max(np.abs(ratio - np.mean(ratio))) <= 1e-10


def test_madelung_rejects_vector_density():
    g = FourierGrid((16, 16), (2 * np.pi, 2 * np.pi))
    vec = Field.vector(g, np.ones((2,) + g.shape))
    with pytest.raises(ComponentError):
        gp.madelung(vec, vec)


# ---------------------------------------------------------------------------
# time reversal and the vacuum-formation construction
# ---------------------------------------------------------------------------

def test_real_datum_density_initially_frozen():
    g = FourierGrid(128, 8 * np.pi)
    r = np.random.default_rng(5)
    vals = 1.0 + 0.1 * np.cos(g.meshgrid()[0] / 4.0)
    w0 = gp.WaveFunction(Field.scalar(g, vals.astype(complex)), 0.0)
    dt = 1e-4
    wp = gp.gp_evolve(w0, 1e-3, dt, QUANTUM)
    d_plus = np.abs(wp.psi.values) ** 2
    d_minus = np.abs(np.conj(wp.psi.values)) ** 2    # psi(-t) = conj(psi(t))
    assert np.max(np.abs(d_plus - d_minus)) / (2e-3) <= 1e-8


def test_time_reversal_round_trip():
    g = FourierGrid(128, 8 * np.pi)
    w0 = wave(g, 6, amp=0.15)
    T = 0.1
    fwd = gp.gp_evolve(w0, T, 1e-4, QUANTUM)
    conj = gp.WaveFunction(Field.scalar(g, np.conj(fwd.psi.values)), fwd.time)
    back = gp.gp_evolve(conj, T, 1e-4, QUANTUM)
    final = np.conj(back.psi.values)
    err = np.sqrt(np.mean(np.abs(final - w0.psi.values) ** 2))
    assert err <= 1e-6 * np.sqrt(np.mean(np.abs(w0.psi.values) ** 2))


def test_blowup_preconditions():
    g = FourierGrid(64, 8 * np.pi)
    # complex datum rejected
    bad = gp.WaveFunction(Field.scalar(g, np.exp(1j * g.meshgrid()[0])), 0.0)
    with pytest.raises(ComponentError):
        gp.blowup_experiment(bad, QUANTUM)
    # datum that does not vanish at the center rejected
    flat = gp.WaveFunction(Field.scalar(g, np.ones(g.shape, dtype=complex)), 0.0)
    with pytest.raises(ComponentError):
        gp.blowup_experiment(flat, QUANTUM)


def test_fluid_state_velocity_convention():
    # the EK-matching velocity is twice the raw inverse-Madelung velocity
    g = FourierGrid(64, 2 * np.pi)
    x = g.meshgrid()[0]
    w = gp.WaveFunction(Field.scalar(g, np.exp(1j * 2.0 * x)), 0.0)
    s = gp.fluid_state(w)
    assert np.max(np.abs(s.u.data[0] - 4.0)) <= 1e-11
