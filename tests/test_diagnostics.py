"""Measurement machinery: norms, energies, fits, resonances, envelopes."""

import numpy as np
import pytest

from ekwave.errors import DerivativeOrderError, ZeroModeError
from ekwave.grid import Field, FourierGrid
from ekwave.laws import ConstitutiveLaws
from ekwave.spectral import linear_flow
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
    assert abs(diag.norm(f) - 2.0 * np.sqrt(g.volume)) <= 1e-12


def test_norm_single_mode_bessel_weight():
    g = FourierGrid(64, 2 * np.pi)
    x = g.meshgrid()[0]
    f = Field.scalar(g, np.exp(1j * 3.0 * x))
    expected = (1.0 + 9.0) ** (2 / 2.0) * np.sqrt(g.volume)
    got = diag.norm(f, diag.NormSpec(k=2))
    assert abs(got - expected) <= 1e-10 * expected


def test_norm_monotone_in_k():
    g = FourierGrid(64, 2 * np.pi)
    r = np.random.default_rng(7)
    f = Field.scalar(g, r.standard_normal(g.shape))
    vals = [diag.norm(f, diag.NormSpec(k=k)) for k in range(4)]
    assert all(vals[i] <= vals[i + 1] for i in range(3))


def test_norm_spec_validation():
    with pytest.raises(DerivativeOrderError):
        diag.NormSpec(k=-1)
    with pytest.raises(DerivativeOrderError):
        diag.NormSpec(p=1.0)
    g = FourierGrid(16, 2 * np.pi)
    f = Field.scalar(g, np.ones(g.shape))
    with pytest.raises(DerivativeOrderError):
        diag.norm(f, diag.NormSpec(k=10))


def test_norm_max_and_parseval_agreement():
    g = FourierGrid(64, 2 * np.pi)
    f = Field.scalar(g, 1.0 + 0.3 * np.sin(g.meshgrid()[0]))
    assert abs(diag.norm(f, diag.NormSpec(p=np.inf)) - 1.3) <= 1e-12
    assert abs(diag.norm(f) - f.l2norm()) <= 1e-12 * f.l2norm()


# ---------------------------------------------------------------------------
# weighted norm (windowed torus stand-in for || x e^{-itH} psi ||)
# ---------------------------------------------------------------------------

def modulated_gaussian(grid, sigma=1.0, carrier=8.0, shift=0):
    x = grid.meshgrid()[0]
    c = grid.lengths[0] / 2.0
    vals = np.exp(1j * carrier * x) * np.exp(-((x - c) ** 2) / (2.0 * sigma**2))
    return Field.scalar(grid, np.roll(vals, shift))


def test_weighted_norm_gaussian_oracle():
    g = FourierGrid(512, 32 * np.pi)
    sigma = 1.0
    psi = modulated_gaussian(g, sigma)
    value, valid = diag.weighted_norm(psi, 0.0)
    closed = np.sqrt(sigma**3 * np.sqrt(np.pi) / 2.0)
    assert valid
    assert abs(value - closed) <= 0.01 * closed
    # e^{-itH} of a real field is complex: it is evolved as its complex cast
    real = Field.scalar(g, psi.values.real)
    cast = Field.scalar(g, real.values + 0j)
    assert diag.weighted_norm(real, 0.5) == diag.weighted_norm(cast, 0.5)


def test_weighted_norm_translation_monotone():
    g = FourierGrid(512, 32 * np.pi)
    centered, _ = diag.weighted_norm(modulated_gaussian(g), 0.0)
    shifted, _ = diag.weighted_norm(modulated_gaussian(g, shift=64), 0.0)
    assert shifted > centered


def test_weighted_norm_unitary_pullback():
    g = FourierGrid(512, 32 * np.pi)
    psi = modulated_gaussian(g)
    t = 0.7
    base, _ = diag.weighted_norm(psi, 0.0)
    pulled, _ = diag.weighted_norm(Field.from_spectral(g, psi.spectral * linear_flow(g, t)), t)
    assert abs(pulled - base) <= 1e-10 * base


def test_weighted_norm_requires_mean_free():
    g = FourierGrid(256, 32 * np.pi)
    with pytest.raises(ZeroModeError):
        diag.weighted_norm(modulated_gaussian(g, carrier=0.0), 0.0)


def test_weighted_norm_flags_wrap():
    g = FourierGrid(512, 32 * np.pi)
    _, valid = diag.weighted_norm(modulated_gaussian(g), 10.0)
    assert not valid


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def test_mass_and_hamiltonian_hand_values():
    g = FourierGrid(32, 2 * np.pi)
    from ekwave.states import EKState
    rest = EKState(Field.scalar(g, np.ones(g.shape)), Field.zeros(g, g.dim), 0.0)
    assert abs(diag.mass(rest) - g.volume) <= 1e-13
    assert abs(diag.hamiltonian(rest, QUANTUM)) <= 1e-13
    moving = EKState(rest.rho, Field.vector(g, 0.5 * np.ones((1,) + g.shape)), 0.0)
    assert abs(diag.hamiltonian(moving, QUANTUM) - 0.5 * 0.25 * g.volume) <= 1e-12


def test_gauge_energy_constant_state_vanishes():
    g = FourierGrid(32, 2 * np.pi)
    from ekwave.states import EKState
    s = EKState(Field.scalar(g, np.ones(g.shape)), Field.zeros(g, g.dim), 0.0)
    assert abs(diag.gauge_energy(to_extended(s, QUANTUM), QUANTUM, n=0)) <= 1e-13


def test_gauge_energy_n0_identity():
    # at n = 0 both weights are sqrt(rho) and the pieces are orthogonal,
    # so the energy is exactly int rho |z|^2 + 2 r^2
    g = FourierGrid(64, 2 * np.pi)
    s = generate_initial_data(InitialDataSpec(amplitude=0.2), g, QUANTUM, 17)
    ext = to_extended(s, QUANTUM)
    rho = s.rho.values
    z2 = np.sum(np.abs(ext.u.data + 1j * ext.w.data) ** 2, axis=0)
    direct = float(g.integrate(rho * z2 + 2.0 * (rho - 1.0) ** 2))
    got = diag.gauge_energy(ext, QUANTUM, n=0)
    assert abs(got - direct) <= 1e-10 * max(abs(direct), 1.0)


def test_gauge_weights_quantum_are_sqrt_rho():
    # a == 1, a' == 0: the weight ODE collapses to (phi~^2)' = 1
    rho = np.geomspace(0.3, 3.0, 25)
    for n in (0, 1, 2):
        phi, phi_tilde = diag.gauge_weights(QUANTUM, rho, n)
        assert np.max(np.abs(phi - np.sqrt(rho))) <= 1e-10
        assert np.max(np.abs(phi_tilde - np.sqrt(rho))) <= 1e-10


def test_gauge_energy_matches_quadratic_hamiltonian():
    g = FourierGrid(128, 2 * np.pi)
    amp = 0.01
    s = generate_initial_data(InitialDataSpec(amplitude=amp), g, QUANTUM, 23)
    e0 = diag.gauge_energy(to_extended(s, QUANTUM), QUANTUM, n=0)
    h = diag.hamiltonian(s, QUANTUM)
    assert abs(e0 - 2.0 * h) <= 1.0 * amp**3


def test_gauge_energy_derivative_budget():
    g = FourierGrid(32, 2 * np.pi)
    from ekwave.states import EKState
    s = EKState(Field.scalar(g, np.ones(g.shape)), Field.zeros(g, g.dim), 0.0)
    with pytest.raises(DerivativeOrderError):
        diag.gauge_energy(to_extended(s, QUANTUM), QUANTUM, n=3)


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
    with pytest.raises(ValueError):
        diag.decay_fit(t, t**-0.5, window=(0.5, 10.0))


def test_decay_fit_truncates_at_wrap_time():
    # contaminate the tail; the wrap cutoff must discard it
    t = np.linspace(2.0, 40.0, 40)
    v = 3.0 * t**-1.0
    v[t > 20.0] *= 5.0
    slope, _ = diag.decay_fit(t, v, window=(1.0, 100.0), t_wrap=20.0)
    assert abs(slope - (-1.0)) <= 1e-10


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


# ---------------------------------------------------------------------------
# bootstrap envelopes
# ---------------------------------------------------------------------------

def test_envelope_check_all_zero_passes():
    hist = [diag.EnvelopeRecord(t=float(t)) for t in range(5)]
    per_time, first = diag.envelope_check(hist, C=0.1, eps=0.01, delta=0.0,
                                          decay_exponent=0.5)
    assert all(per_time) and first is None


def test_envelope_check_transport_violation():
    C, eps, delta = 2.0, 0.01, 0.05
    hist = [diag.EnvelopeRecord(t=0.0, transport=2.0 * C * delta),
            diag.EnvelopeRecord(t=1.0)]
    per_time, first = diag.envelope_check(hist, C, eps, delta, 0.5)
    assert per_time == [False, True]
    assert first == 0.0
