"""Grid/field plumbing and Fourier multiplier algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekwave.diagnostics import NormSpec, norm
from ekwave.errors import GridError
from ekwave.grid import Field, FourierGrid
from ekwave.spectral import (
    bilinear_B,
    bilinear_B_exact,
    div_spec,
    grad_spec,
    inverse_grad_spec,
    jacobian,
    linear_flow,
    proj_p_spec,
    proj_q_spec,
    symbol_h,
    symbol_u,
    symbol_u_inv,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def random_scalar(grid, seed=0, complex_values=False):
    r = rng(seed)
    vals = r.standard_normal(grid.shape)
    if complex_values:
        vals = vals + 1j * r.standard_normal(grid.shape)
    return Field.scalar(grid, vals)


def random_vector(grid, seed=0):
    r = rng(seed)
    return Field.vector(grid, r.standard_normal((grid.dim,) + grid.shape))


def mean_free(f):
    return Field.scalar(f.grid, f.values - np.mean(f.values))


# ---------------------------------------------------------------------------
# grid / field invariants
# ---------------------------------------------------------------------------

def test_grid_rejects_small_or_odd_axes():
    with pytest.raises(GridError):
        FourierGrid(4, 2 * np.pi)
    with pytest.raises(GridError):
        FourierGrid(48, 2 * np.pi)   # not a power of two
    with pytest.raises(GridError):
        FourierGrid(16, -1.0)


def test_wavenumber_lattice_closed_under_negation():
    # k in [-N/2, N/2); every mode except the unpaired Nyquist frequency
    # has its negative on the lattice
    g = FourierGrid((16, 32), (2 * np.pi, 4 * np.pi))
    for k in g.wavenumbers:
        interior = k[k > k.min()]
        assert set(np.round(-interior, 12)) == set(np.round(interior, 12))


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**31 - 1), logn=st.integers(3, 6))
def test_round_trip_physical_spectral(seed, logn):
    g = FourierGrid(2**logn, 2 * np.pi)
    f = random_scalar(g, seed)
    back = g.ifft(f.spectral, real=True)
    assert np.max(np.abs(back - f.values)) <= 1e-12 * max(1.0, np.max(np.abs(f.values)))


def test_real_field_spectrum_hermitian():
    # the full spectrum of a real field is Hermitian, and the cached half
    # spectrum is its first N/2 + 1 entries
    g = FourierGrid(32, 2 * np.pi)
    f = random_scalar(g, 3)
    spec = g.fft(f.values.astype(complex))
    # F(-k) == conj(F(k))
    flipped = np.conj(np.roll(spec[::-1], 1))
    assert np.max(np.abs(spec - flipped)) <= 1e-10 * np.max(np.abs(spec))
    assert f.spectral.shape == (1, g.half_length)
    assert np.max(np.abs(f.spectral[0] - g.cut(spec, f.spectral))) <= 1e-10 * np.max(np.abs(spec))


def test_from_spectral_on_a_half_spectrum_caches_it(monkeypatch):
    # a real field built from its half spectrum keeps that spectrum, so
    # measuring it needs no forward transform
    g = FourierGrid((16, 16), (2 * np.pi, 2 * np.pi))
    x = random_vector(g, 5)
    spec = g.fft(x.data)
    f = Field.from_spectral(g, spec)
    assert f.is_real and f.spectral is spec
    assert np.max(np.abs(f.data - x.data)) <= 1e-14 * np.max(np.abs(x.data))
    calls = []
    fft = FourierGrid.fft

    def counted(self, values):
        calls.append(values.shape)
        return fft(self, values)

    monkeypatch.setattr(FourierGrid, "fft", counted)
    value = norm(g, f.spectral, NormSpec(1, np.inf))
    assert calls == []
    assert abs(value - norm(g, x.spectral, NormSpec(1, np.inf))) <= 1e-13 * value


LAYOUT_SHAPES = {"1d": (64,), "2d": (32, 32), "3d": (16, 16, 16)}


@pytest.mark.parametrize("shape", LAYOUT_SHAPES.values(), ids=LAYOUT_SHAPES.keys())
def test_operators_on_half_spectra_match_the_full_layout(shape):
    # a real field on its half spectrum against the same field cast to
    # complex, on its full spectrum sliced to the half layout
    g = FourierGrid(shape, 2 * np.pi)
    f, u = random_scalar(g, 51), random_vector(g, 52)
    fc, uc = Field(g, f.data + 0j), Field(g, u.data + 0j)
    assert f.spectral.shape[-1] == g.half_length and fc.spectral.shape[1:] == g.shape

    def close(half, full, tol=1e-13):
        assert np.max(np.abs(half - full)) <= tol * np.max(np.abs(full))

    close(grad_spec(g, f.spectral[0]), g.cut(grad_spec(g, fc.spectral[0]), f.spectral))
    for op in (proj_q_spec, proj_p_spec, inverse_grad_spec):
        close(op(g, u.spectral), g.cut(op(g, uc.spectral), u.spectral))
    close(jacobian(g, u.spectral), jacobian(g, uc.spectral).real)
    for spec in (NormSpec(), NormSpec(1, np.inf), NormSpec(2, 4.0)):
        close(norm(g, u.spectral, spec), norm(g, uc.spectral, spec))


# ---------------------------------------------------------------------------
# linear multipliers
# ---------------------------------------------------------------------------

def test_symbols_computed_once_per_grid_and_read_only():
    g = FourierGrid((16, 32), (2 * np.pi, 4 * np.pi))
    same = FourierGrid((16, 32), (2 * np.pi, 4 * np.pi))
    for symbol in (symbol_h, symbol_u, symbol_u_inv):
        assert symbol(g) is symbol(same)
        with pytest.raises(ValueError):
            symbol(g)[0, 0] = 1.0
    assert symbol_h(g) is not symbol_h(FourierGrid((16, 32), (2 * np.pi, 2 * np.pi)))


def test_h_on_zero_field_is_zero():
    g = FourierGrid(16, 2 * np.pi)
    z = Field.scalar(g, np.zeros(g.shape))
    out = g.ifft(z.spectral * g.cut(symbol_h(g), z.spectral))
    assert np.all(out == 0.0)


def test_u_on_single_mode_sqrt2():
    # |xi0| = sqrt(2) on a d=2 unit-spacing lattice: mode (1, 1)
    g = FourierGrid((16, 16), (2 * np.pi, 2 * np.pi))
    x = g.meshgrid()
    f = Field.scalar(g, np.exp(1j * (x[0] + x[1])))
    out = g.ifft(f.spectral * symbol_u(g))
    # U = sqrt(2)/sqrt(2+2) = 1/sqrt(2)
    assert np.max(np.abs(out - f.data / np.sqrt(2.0))) <= 1e-12


def test_q_is_identity_on_gradients():
    g = FourierGrid((32, 32), (2 * np.pi, 2 * np.pi))
    f = random_scalar(g, 5)
    gf = grad_spec(g, f.spectral[0])
    qgf = proj_q_spec(g, gf)
    scale = np.max(np.abs(g.ifft(gf, real=True)))
    assert np.max(np.abs(g.ifft(qgf - gf, real=True))) <= 1e-11 * scale


def test_uinv_u_identity_on_mean_free():
    g = FourierGrid(64, 2 * np.pi)
    f = mean_free(random_scalar(g, 8))
    out = g.ifft(f.spectral * g.cut(symbol_u(g) * symbol_u_inv(g), f.spectral))
    assert np.max(np.abs(out - f.data)) <= 1e-12 * np.max(np.abs(f.values))


@pytest.mark.parametrize("shape", [(128, 128), (32, 32, 32)])
def test_jacobian_is_the_per_component_gradient(shape):
    # one batched inverse transform, bit-identical to one per component
    g = FourierGrid(shape, 2 * np.pi)
    v = random_vector(g, 13).spectral
    per_component = np.stack([g.ifft(grad_spec(g, v[j]), real=True)
                              for j in range(g.dim)], axis=1)
    assert np.array_equal(jacobian(g, v), per_component)


# ---------------------------------------------------------------------------
# Helmholtz decomposition
# ---------------------------------------------------------------------------

def split(g, u):
    """(Pu, Qu) of a real vector field, as sample arrays."""
    return (g.ifft(proj_p_spec(g, u.spectral), real=True),
            g.ifft(proj_q_spec(g, u.spectral), real=True))


def gradient(f):
    return Field.from_spectral(f.grid, grad_spec(f.grid, f.spectral[0]))


def test_helmholtz_gradient_is_potential():
    g = FourierGrid((32, 32), (2 * np.pi, 2 * np.pi))
    u = gradient(random_scalar(g, 1))
    sol, pot = split(g, u)
    assert np.max(np.abs(sol)) <= 1e-12 * np.max(np.abs(u.data))
    assert np.max(np.abs(pot - u.data)) <= 1e-12 * np.max(np.abs(u.data))


def test_helmholtz_perp_gradient_is_solenoidal():
    g = FourierGrid((32, 32), (2 * np.pi, 2 * np.pi))
    f = random_scalar(g, 2)
    gf = gradient(f)
    u = Field.vector(g, np.stack([-gf.data[1], gf.data[0]]))
    sol, pot = split(g, u)
    assert np.max(np.abs(pot)) <= 1e-12 * np.max(np.abs(u.data))
    assert np.max(np.abs(sol - u.data)) <= 1e-12 * np.max(np.abs(u.data))


def test_helmholtz_completeness_idempotence_orthogonality():
    g = FourierGrid((32, 32), (2 * np.pi, 2 * np.pi))
    u = random_vector(g, 7)
    scale = np.max(np.abs(u.data))
    sol, pot = split(g, u)
    mean = np.mean(u.data, axis=tuple(range(1, u.data.ndim)))
    recon = sol + pot + mean.reshape((-1,) + (1,) * g.dim)
    assert np.max(np.abs(recon - u.data)) <= 1e-12 * scale
    sol2, qp = split(g, Field.vector(g, sol))
    ps, pot2 = split(g, Field.vector(g, pot))
    assert np.max(np.abs(sol2 - sol)) <= 1e-12 * scale
    assert np.max(np.abs(pot2 - pot)) <= 1e-12 * scale
    # mutual annihilation
    assert np.max(np.abs(qp)) <= 1e-12 * scale
    assert np.max(np.abs(ps)) <= 1e-12 * scale
    assert np.max(np.abs(g.ifft(div_spec(g, g.fft(sol)), real=True))) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# linear flow e^{itH}
# ---------------------------------------------------------------------------

def flow(f, t):
    """e^{itH} f as a complex field."""
    return Field.from_spectral(f.grid, f.spectral * linear_flow(f.grid, t))


def test_semigroup_t0_identity_and_unitarity():
    g = FourierGrid(64, 2 * np.pi)
    f = random_scalar(g, 4, complex_values=True)
    out0 = flow(f, 0.0)
    assert np.max(np.abs(out0.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))
    out = flow(f, 1.7)
    assert abs(out.l2norm() - f.l2norm()) <= 1e-12 * f.l2norm()


def test_semigroup_single_mode_phase():
    g = FourierGrid(16, 2 * np.pi)
    x = g.meshgrid()[0]
    f = Field.scalar(g, np.exp(1j * x))
    out = flow(f, 1.0)
    expected = np.exp(1j * np.sqrt(3.0)) * f.values   # H(1) = sqrt(3)
    assert np.max(np.abs(out.values - expected)) <= 1e-12


@settings(deadline=None, max_examples=15)
@given(t1=st.floats(-5, 5), t2=st.floats(-5, 5))
def test_semigroup_group_law(t1, t2):
    g = FourierGrid(16, 2 * np.pi)
    f = random_scalar(g, 9, complex_values=True)
    a = flow(flow(f, t1), t2)
    b = flow(f, t1 + t2)
    assert np.max(np.abs(a.values - b.values)) <= 1e-12 * np.max(np.abs(f.values))


# ---------------------------------------------------------------------------
# bilinear pseudo-product B
# ---------------------------------------------------------------------------

def test_bilinear_zero_strength():
    g = FourierGrid(16, 2 * np.pi)
    f = random_scalar(g, 1)
    h = random_scalar(g, 2)
    out = bilinear_B(g, f.spectral, h.spectral, 0.0)
    assert out.shape == (1, g.half_length) and np.max(np.abs(out)) == 0.0


def test_bilinear_matches_exact_double_sum():
    g = FourierGrid(16, 2 * np.pi)
    f = random_scalar(g, 11)
    h = random_scalar(g, 12)
    quad = g.ifft(bilinear_B(g, f.spectral, h.spectral, -1.0))
    exact = bilinear_B_exact(f, h, -1.0)
    scale = np.max(np.abs(exact.values))
    assert np.max(np.abs(quad[0] - exact.values)) <= 1e-6 * scale


def test_bilinear_symmetric():
    g = FourierGrid(32, 2 * np.pi)
    f = random_scalar(g, 21)
    h = random_scalar(g, 22)
    ab = g.ifft(bilinear_B(g, f.spectral, h.spectral, -0.5))
    ba = g.ifft(bilinear_B(g, h.spectral, f.spectral, -0.5))
    assert np.max(np.abs(ab - ba)) <= 1e-10 * np.max(np.abs(ab))


def test_bilinear_cancellation_identity():
    # 2 B[f, lap g] + 2 B[(lap - 2) f, g] = -strength * f * g
    g = FourierGrid(32, 2 * np.pi)
    strength = -1.0
    f = random_scalar(g, 31)
    h = random_scalar(g, 32)
    fs, hs = f.spectral, h.spectral
    lap = lambda q: -g.cut(g.k_squared, q) * q
    lhs = g.ifft(2.0 * bilinear_B(g, fs, lap(hs), strength)
                 + 2.0 * bilinear_B(g, lap(fs) - 2.0 * fs, hs, strength))[0]
    rhs = -strength * f.values * h.values
    assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(1.0, np.max(np.abs(rhs)))


def test_bilinear_2d_vectors_match_exact():
    g = FourierGrid((16, 16), (2 * np.pi, 2 * np.pi))
    f = random_vector(g, 41)
    h = random_vector(g, 42)
    quad = g.ifft(bilinear_B(g, f.spectral, h.spectral, -1.0))
    exact = bilinear_B_exact(f, h, -1.0)
    scale = np.max(np.abs(exact.values))
    assert np.max(np.abs(quad[0] - exact.values)) <= 1e-6 * scale


@pytest.mark.parametrize("shape", [(16,), (16, 16)], ids=["1d", "2d"])
def test_bilinear_square_matches_exact(shape):
    # the same array twice takes the square path, one sample per node
    g = FourierGrid(shape, 2 * np.pi)
    f = random_scalar(g, 13) if g.dim == 1 else random_vector(g, 43)
    fs = f.spectral
    quad = g.ifft(bilinear_B(g, fs, fs, -1.0))
    exact = bilinear_B_exact(f, f, -1.0)
    scale = np.max(np.abs(exact.values))
    assert np.max(np.abs(quad[0] - exact.values)) <= 1e-6 * scale


SQUARE_CASES = {"1d": ((64,), -1.0), "2d": ((32, 32), -1.0), "3d": ((16, 16, 16), -1.0),
                "strength": ((64,), -0.3)}


@pytest.mark.parametrize("shape, strength", SQUARE_CASES.values(), ids=SQUARE_CASES.keys())
def test_bilinear_square_is_the_general_path(shape, strength):
    # B[f, f] asked for by identity gives the bits of B[f, f] from two copies
    g = FourierGrid(shape, 2 * np.pi)
    f = random_scalar(g, 51) if g.dim == 1 else random_vector(g, 52)
    fs = f.spectral
    assert np.array_equal(bilinear_B(g, fs, fs, strength), bilinear_B(g, fs, fs.copy(), strength))
