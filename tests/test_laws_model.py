"""Constitutive laws and state-representation conversions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from ekwave import laws as laws_module
from ekwave.errors import NormalizationError, RootSolveError, VacuumError
from ekwave.grid import Field, FourierGrid
from ekwave.laws import ConstitutiveLaws
from ekwave.spectral import grad_spec, proj_p_spec
from ekwave.states import (
    EKState,
    decode,
    encode,
    from_extended,
    invert_normal_form,
    normal_form,
    normal_form_correction,
    to_extended,
)
from ekwave.initial_data import InitialDataSpec, generate_initial_data


QUANTUM = ConstitutiveLaws.quantum()


def gradient(f):
    return Field.from_spectral(f.grid, grad_spec(f.grid, f.spectral[0]))


def at_rest(grid):
    """The zero velocity field."""
    return Field.vector(grid, np.zeros((grid.dim,) + grid.shape))


def small_state(grid, amplitude, seed=11, laws=QUANTUM):
    return generate_initial_data(InitialDataSpec(amplitude=amplitude), grid, laws, seed)


def psi_of(g, v):
    # psi = Qu + i U^{-1} w from the stacked half spectra of its two parts
    return g.ifft(v[0]) + 1j * g.ifft(v[1])


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------

def test_normalization_enforced():
    assert abs(QUANTUM.a(1.0) - 1.0) <= 1e-12
    assert abs(QUANTUM.dg(1.0) - 2.0) <= 1e-12
    with pytest.raises(NormalizationError):
        # g' (1) = 1 != 2
        ConstitutiveLaws(K=lambda r: 1.0 / r, dK=lambda r: -1.0 / r**2,
                         g=lambda r: r - 1.0, dg=lambda r: np.ones_like(r))
    with pytest.raises(NormalizationError):
        # a(1) = sqrt(2) != 1
        ConstitutiveLaws(K=lambda r: 2.0 / r, dK=lambda r: -2.0 / r**2,
                         g=lambda r: r**2 - 1.0, dg=lambda r: 2.0 * r)


def test_primitive_closed_forms():
    assert abs(QUANTUM.l_of_rho(np.e) - 1.0) <= 1e-12          # ln rho
    constant = ConstitutiveLaws.constant()
    assert abs(constant.l_of_rho(4.0) - 2.0) <= 1e-12          # 2(sqrt(4) - 1)
    linear = ConstitutiveLaws.linear()
    assert abs(linear.l_of_rho(1.5) - 0.5) <= 1e-12            # rho - 1
    for laws in (QUANTUM, constant, linear):
        assert laws.l_of_rho(1.0) == 0.0


def test_primitive_monotone_and_invertible():
    rho = np.geomspace(0.2, 5.0, 40)
    for laws in (QUANTUM, ConstitutiveLaws.constant(), ConstitutiveLaws.linear(),
                 ConstitutiveLaws.polynomial([1.0, 0.3, -0.1])):
        l = laws.l_of_rho(rho)
        assert np.all(np.diff(l) > 0)
        back = laws.rho_of_l(l)
        assert np.max(np.abs(back - rho)) <= 1e-9 * np.max(rho)


def rho_of_l_per_point(laws, l):
    """Reference inverse: a bracket search and one scalar brentq per point."""
    flat = np.asarray(l, dtype=float).ravel()
    out = np.ones_like(flat)

    def bracket(key):
        lo = hi = 1.0
        factor = 2.0
        while True:
            nxt = hi * factor if key > 0 else lo / factor
            if not (laws.rho_floor <= nxt <= laws.rho_ceil):
                raise VacuumError("primitive inversion left the admissible density window")
            with np.errstate(invalid="ignore"):
                val = laws.l_of_rho(np.asarray(nxt))
            if not np.isfinite(val):
                factor = np.sqrt(factor)
                if factor - 1.0 < 1e-12:
                    raise VacuumError("primitive value unreachable: capillarity "
                                      "vanishes before the target density")
                continue
            if key > 0:
                hi = nxt
                if val >= key:
                    return lo, hi
                lo = hi
            else:
                lo = nxt
                if val <= key:
                    return lo, hi
                hi = lo

    for i, li in enumerate(flat):
        key = float(li)
        if key != 0.0:
            lo, hi = bracket(key)
            out[i] = optimize.brentq(lambda r: float(laws.l_of_rho(np.asarray(r))) - key,
                                     lo, hi)
    return out.reshape(np.shape(l))


@pytest.mark.parametrize("coeffs", [[1.0, 0.5], [1.0, 0.3, -0.1]])
def test_rho_of_l_bit_identical_to_per_point_brentq(coeffs):
    laws = ConstitutiveLaws.polynomial(coeffs)
    near_zero = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-15, -1e-15, 1e-12, -1e-12]
    on_probes = laws.l_of_rho(np.array([2.0, 0.5]))     # roots at a bracket end
    l = np.concatenate([np.random.default_rng(8).uniform(-1.0, 1.0, 190), near_zero,
                        on_probes])
    l = l.reshape(2, 101)
    back = laws.rho_of_l(l)
    assert back.shape == l.shape
    assert np.array_equal(back, rho_of_l_per_point(laws, l))


ALL_LAWS = (QUANTUM, ConstitutiveLaws.constant(), ConstitutiveLaws.linear(),
            ConstitutiveLaws.polynomial([1.0, 0.5]),
            ConstitutiveLaws.polynomial([1.0, 0.3, -0.1]))


@settings(deadline=None, max_examples=25)
@given(l=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=16))
def test_rho_of_l_round_trip(l):
    l = np.array(l)
    for laws in ALL_LAWS:
        assert np.max(np.abs(laws.l_of_rho(laws.rho_of_l(l)) - l)) <= 5e-12


def test_rho_of_l_vacuum_on_both_branches():
    laws = ConstitutiveLaws.polynomial([1.0, 2.0])      # K = 2 rho - 1 vanishes at rho = 1/2
    with pytest.raises(VacuumError, match="capillarity vanishes"):
        laws.rho_of_l(np.array([0.1, -5.0]))
    with pytest.raises(VacuumError, match="left the admissible density window"):
        laws.rho_of_l(np.array([-0.1, 1e7]))


def test_rho_of_l_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(laws_module, "_BRENT_MAXITER", 2)
    with pytest.raises(RootSolveError):
        ConstitutiveLaws.polynomial([1.0, 0.5]).rho_of_l(np.array([0.3, -0.3]))


def test_normal_form_strengths():
    assert abs(QUANTUM.strength - (-1.0)) <= 1e-10
    assert abs(ConstitutiveLaws.constant().strength - (-0.5)) <= 1e-10
    assert abs(ConstitutiveLaws.linear().strength) <= 1e-10


# ---------------------------------------------------------------------------
# (rho, u) <-> (l, w, u)
# ---------------------------------------------------------------------------

def test_to_extended_constant_state():
    g = FourierGrid(32, 2 * np.pi)
    s = EKState(Field.scalar(g, np.ones(g.shape)), at_rest(g), 0.0)
    ext = to_extended(s, QUANTUM)
    assert np.max(np.abs(ext.l.values)) <= 1e-14
    assert np.max(np.abs(ext.w.data)) <= 1e-14


def test_extended_round_trip():
    g = FourierGrid(64, 2 * np.pi)
    s = small_state(g, 0.08, seed=3)
    ext = to_extended(s, QUANTUM)
    gl = grad_spec(g, ext.l.spectral[0])
    assert np.max(np.abs(ext.w.spectral - gl)) <= 1e-10 * np.max(np.abs(ext.w.spectral))
    back = from_extended(ext, QUANTUM)
    assert np.max(np.abs(back.rho.values - s.rho.values)) <= 1e-10
    assert np.max(np.abs(back.u.data - s.u.data)) <= 1e-10


def test_to_extended_vacuum_error():
    g = FourierGrid(32, 2 * np.pi)
    rho = np.full(g.shape, 1.0)
    rho[0] = 1e-9
    s = EKState(Field.scalar(g, rho), at_rest(g), 0.0)
    with pytest.raises(VacuumError):
        to_extended(s, QUANTUM)


def test_to_extended_rejects_density_where_capillarity_turns_negative():
    # K = 1 + 0.3 (rho - 1) - 0.1 (rho - 1)^2 is negative at rho = 10, so
    # the primitive has no finite value there
    law = ConstitutiveLaws.polynomial([1.0, 0.3, -0.1])
    g = FourierGrid(16, 2 * np.pi)
    rho = np.full(g.shape, 1.0)
    rho[3] = 10.0
    s = EKState(Field.scalar(g, rho), at_rest(g), 0.0)
    with pytest.raises(VacuumError):
        to_extended(s, law)


# ---------------------------------------------------------------------------
# dispersive variable
# ---------------------------------------------------------------------------

def test_psi_zero_for_solenoidal_velocity():
    g = FourierGrid((32, 32), (2 * np.pi, 2 * np.pi))
    f = Field.scalar(g, np.sin(g.meshgrid()[0]))
    gf = gradient(f)
    u = Field.vector(g, np.stack([-gf.data[1], gf.data[0]]))   # div-free
    ext = to_extended(EKState(Field.scalar(g, np.ones(g.shape)), u, 0.0), QUANTUM)
    psi = psi_of(g, encode(ext)[0])
    assert np.max(np.abs(psi)) <= 1e-12


def test_psi_equals_gradient_velocity():
    g = FourierGrid(64, 2 * np.pi)
    f = Field.scalar(g, 0.05 * np.sin(2 * g.meshgrid()[0]))
    u = gradient(f)
    ext = to_extended(EKState(Field.scalar(g, np.ones(g.shape)), u, 0.0), QUANTUM)
    psi = psi_of(g, encode(ext)[0])
    assert np.max(np.abs(psi.real - u.data)) <= 1e-12
    assert np.max(np.abs(psi.imag)) <= 1e-12


# l = l(rho) is not band-limited, and its Nyquist content, which w = grad l
# cannot carry, is 4e-6 on 16^3 but 1e-12 on 32^3
@pytest.mark.parametrize("shape", [(64,), (32, 32), (32, 32, 32)], ids=["1d", "2d", "3d"])
def test_psi_round_trip(shape):
    g = FourierGrid(shape, 2 * np.pi)
    spec = InitialDataSpec(amplitude=0.05, solenoidal=0.0 if g.dim == 1 else 0.04)
    ext = to_extended(generate_initial_data(spec, g, QUANTUM, 7), QUANTUM)
    v, pu, lmean = encode(ext)
    half = g.shape[:-1] + (g.half_length,)
    assert v.shape == (2, g.dim) + half and pu.shape == (g.dim,) + half
    back = decode(g, v, pu, lmean, ext.time)
    assert np.max(np.abs(back.w.data - ext.w.data)) <= 1e-10
    assert np.max(np.abs(back.u.data - ext.u.data)) <= 1e-10
    assert np.max(np.abs(back.l.values - ext.l.values)) <= 1e-10


def test_psi_imaginary_part_is_potential():
    g = FourierGrid((32, 32), (2 * np.pi, 2 * np.pi))
    ext = to_extended(small_state(g, 0.05, seed=19), QUANTUM)
    im_spec = g.fft(psi_of(g, encode(ext)[0]).imag)
    p_part = proj_p_spec(g, im_spec)
    assert np.max(np.abs(p_part)) <= 1e-10 * max(np.max(np.abs(im_spec)), 1.0)


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

def test_normal_form_zero_state():
    g = FourierGrid(32, 2 * np.pi)
    s = EKState(Field.scalar(g, np.ones(g.shape)), at_rest(g), 0.0)
    d = normal_form(to_extended(s, QUANTUM), QUANTUM)
    assert np.max(np.abs(psi_of(g, d.v))) <= 1e-14


def test_normal_form_trivial_for_linear_law():
    # K = rho gives a(rho) = rho, a'(1) = 1, so the B-symbol strength is 0
    linear = ConstitutiveLaws.linear()
    g = FourierGrid(64, 2 * np.pi)
    ext = to_extended(small_state(g, 0.05, seed=23, laws=linear), linear)
    corr = normal_form_correction(ext, linear)
    assert np.max(np.abs(g.ifft(corr))) <= 1e-14


def test_normal_form_correction_is_quadratic():
    g = FourierGrid(256, 2 * np.pi)
    norms = []
    for eps in (0.02, 0.01):
        ext = to_extended(small_state(g, eps, seed=5), QUANTUM)
        norms.append(np.sqrt(np.sum(g.ifft(normal_form_correction(ext, QUANTUM)) ** 2)))
    ratio = norms[0] / norms[1]
    assert 3.7 <= ratio <= 4.3


def test_normal_form_correction_is_gradient():
    g = FourierGrid(64, 2 * np.pi)
    ext = to_extended(small_state(g, 0.05, seed=13), QUANTUM)
    corr = normal_form_correction(ext, QUANTUM)
    p_part = proj_p_spec(g, corr)
    assert np.max(np.abs(p_part)) <= 1e-10 * max(np.max(np.abs(corr)), 1e-30)


def test_normal_form_inversion_round_trip():
    g = FourierGrid(128, 2 * np.pi)
    ext = to_extended(small_state(g, 0.05, seed=29), QUANTUM)
    d = normal_form(ext, QUANTUM)
    back, iterations = invert_normal_form(d, QUANTUM)
    assert iterations < 50
    assert np.max(np.abs(back.w.data - ext.w.data)) <= 1e-9
    assert np.max(np.abs(back.u.data - ext.u.data)) <= 1e-9
