"""Measurement machinery: norms, energies, fits and resonances."""

import numpy as np
import pytest

from ekwave.errors import DerivativeOrderError, FitError
from ekwave.grid import Field, FourierGrid
from ekwave.laws import ConstitutiveLaws
from ekwave.states import to_extended
from ekwave.initial_data import InitialDataSpec, generate_initial_data
from ekwave import diagnostics as diag

QUANTUM = ConstitutiveLaws.quantum()


# ---------------------------------------------------------------------------
# Sobolev norms
# ---------------------------------------------------------------------------

def test_norm_constant_parseval():
    g = FourierGrid(32, 2 * np.pi)
    f = Field.scalar(g, 2.0 * np.ones(g.shape))
    assert abs(diag.norm(g, f.spectral) - 2.0 * np.sqrt(g.volume)) <= 1e-12


def test_norm_single_mode_bessel_weight():
    g = FourierGrid(64, 2 * np.pi)
    x = g.meshgrid()[0]
    f = Field.scalar(g, np.exp(1j * 3.0 * x))
    expected = (1.0 + 9.0) ** (2 / 2.0) * np.sqrt(g.volume)
    got = diag.norm(g, f.spectral, diag.NormSpec(k=2))
    assert abs(got - expected) <= 1e-10 * expected


def test_norm_monotone_in_k():
    g = FourierGrid(64, 2 * np.pi)
    r = np.random.default_rng(7)
    f = Field.scalar(g, r.standard_normal(g.shape))
    vals = [diag.norm(g, f.spectral, diag.NormSpec(k=k)) for k in range(4)]
    assert all(vals[i] <= vals[i + 1] for i in range(3))


def test_norm_spec_validation():
    with pytest.raises(DerivativeOrderError):
        diag.NormSpec(k=-1)
    with pytest.raises(DerivativeOrderError):
        diag.NormSpec(p=1.0)
    g = FourierGrid(16, 2 * np.pi)
    f = Field.scalar(g, np.ones(g.shape))
    with pytest.raises(DerivativeOrderError):
        diag.norm(g, f.spectral, diag.NormSpec(k=10))


def test_norm_max_and_parseval_agreement():
    g = FourierGrid(64, 2 * np.pi)
    f = Field.scalar(g, 1.0 + 0.3 * np.sin(g.meshgrid()[0]))
    assert abs(diag.norm(g, f.spectral, diag.NormSpec(p=np.inf)) - 1.3) <= 1e-12
    assert abs(diag.norm(g, f.spectral) - f.l2norm()) <= 1e-12 * f.l2norm()


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def test_mass_and_hamiltonian_hand_values():
    g = FourierGrid(32, 2 * np.pi)
    from ekwave.states import EKState
    rest = EKState(Field.scalar(g, np.ones(g.shape)),
                   Field.vector(g, np.zeros((g.dim,) + g.shape)), 0.0)
    assert abs(diag.mass(rest) - g.volume) <= 1e-13
    assert abs(diag.hamiltonian(rest, QUANTUM)) <= 1e-13
    moving = EKState(rest.rho, Field.vector(g, 0.5 * np.ones((1,) + g.shape)), 0.0)
    assert abs(diag.hamiltonian(moving, QUANTUM) - 0.5 * 0.25 * g.volume) <= 1e-12


def test_gauge_energy_constant_state_vanishes():
    g = FourierGrid(32, 2 * np.pi)
    from ekwave.states import EKState
    s = EKState(Field.scalar(g, np.ones(g.shape)),
                Field.vector(g, np.zeros((g.dim,) + g.shape)), 0.0)
    assert abs(diag.gauge_energy(to_extended(s, QUANTUM), s.rho)) <= 1e-13


def test_gauge_energy_n0_identity():
    # at n = 0 both weights are sqrt(rho) and the pieces are orthogonal,
    # so the energy is exactly int rho |z|^2 + 2 r^2
    g = FourierGrid(64, 2 * np.pi)
    s = generate_initial_data(InitialDataSpec(amplitude=0.2), g, QUANTUM, 17)
    ext = to_extended(s, QUANTUM)
    rho = s.rho.values
    z2 = np.sum(np.abs(ext.u.data + 1j * ext.w.data) ** 2, axis=0)
    direct = float(g.integrate(rho * z2 + 2.0 * (rho - 1.0) ** 2))
    got = diag.gauge_energy(ext, s.rho)
    assert abs(got - direct) <= 1e-10 * max(abs(direct), 1.0)


def test_gauge_energy_matches_quadratic_hamiltonian():
    g = FourierGrid(128, 2 * np.pi)
    amp = 0.01
    s = generate_initial_data(InitialDataSpec(amplitude=amp), g, QUANTUM, 23)
    e0 = diag.gauge_energy(to_extended(s, QUANTUM), s.rho)
    h = diag.hamiltonian(s, QUANTUM)
    assert abs(e0 - 2.0 * h) <= 1.0 * amp**3


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------

def test_wrap_time_closed_form():
    g = FourierGrid(4096, 400 * np.pi)
    # group speed at cutoff 1 is 4/sqrt(3)
    expected = 400 * np.pi / (2.0 * 4.0 / np.sqrt(3.0))
    assert abs(diag.wrap_time(g, 1.0) - expected) <= 1e-10 * expected


def test_decay_fit_planted_power_law():
    t = np.linspace(2.0, 40.0, 30)
    slope, stderr = diag.decay_fit(t, 7.0 * t**-1.5, window=(1.0, 100.0))
    assert abs(slope - (-1.5)) <= 1e-3
    assert stderr <= 1e-6


def test_decay_fit_needs_six_samples():
    t = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    # a typed package error, so a scenario reports it instead of crashing
    assert issubclass(FitError, ValueError)
    with pytest.raises(FitError):
        diag.decay_fit(t, t**-0.5, window=(0.5, 10.0))


# ---------------------------------------------------------------------------
# resonance phase function
# ---------------------------------------------------------------------------

def test_resonance_vanishes_on_xi_zero():
    for eta in (0.3, -2.0, np.array([1.0, -0.5])):
        zero = np.zeros_like(np.atleast_1d(eta), dtype=float)
        assert diag.resonance_eval(zero, eta, signs=(-1, +1)) == 0.0


def test_resonance_all_minus_positive():
    vals = np.linspace(-3.0, 3.0, 9)
    for xi in vals:
        for eta in vals:
            if xi != 0.0 and eta != 0.0 and xi != eta:
                assert diag.resonance_eval(xi, eta, signs=(-1, -1)) > 0.0


def test_resonance_all_minus_symmetry():
    r = np.random.default_rng(11)
    for _ in range(50):
        xi, eta = r.standard_normal(2) * 3.0
        a = diag.resonance_eval(xi, eta, signs=(-1, -1))
        b = diag.resonance_eval(xi, xi - eta, signs=(-1, -1))
        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)


def test_resonance_low_frequency_asymptotic():
    eps = 1e-2
    eta = np.array([1e-2])
    got = diag.resonance_eval(eps * eta, eta, signs=(-1, +1))
    model = diag.resonance_asymptotic(eps, eta)
    assert abs(got / model - 1.0) <= 0.05

