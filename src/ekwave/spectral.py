"""Array-level Fourier operators and the bilinear pseudo-product.

Every module takes its spectral conventions from here.  The two scalar
symbols at the heart of the linear theory are

    H(xi) = |xi| * sqrt(2 + |xi|^2)      (half-wave dispersion relation)
    U(xi) = |xi| / sqrt(2 + |xi|^2)

both vanishing at xi = 0; ``U^{-1}`` is set to zero on the mean mode.
Symbols are computed once per grid (grids hash by shape and lengths) and
returned read-only, in the full layout.  :func:`linear_flow` is the one
linear group ``e^{itH}``, :func:`jacobian` the one velocity gradient.  The
Helmholtz projectors split a vector spectrum into divergence-free and
gradient parts; on the mean mode both are defined as zero.

One layout rule holds throughout (:mod:`ekwave.grid`): a real field's
spectrum is its half spectrum, a complex field's its full spectrum.  The
operators on spectra take either layout and slice the per-grid arrays to it
with ``grid.cut``; :func:`bilinear_B` takes the half spectra of two real
operands and returns the half spectrum of their pseudo-product.  A square
B[f, f] is asked for by passing the same array twice, and costs one inverse
transform per quadrature node where B[f, g] costs two.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ComponentError, QuadratureError
from .grid import Field, FourierGrid

# bilinear_B doubles its Gauss-Legendre rule until two successive results
# agree to this relative L^2 tolerance, up to this many nodes
BILINEAR_TOL = 1e-8
BILINEAR_MAX_NODES = 256


def _per_grid(fn):
    """Compute ``fn(grid)`` once per grid and return it read-only."""
    @functools.lru_cache(maxsize=16)
    @functools.wraps(fn)
    def cached(grid):
        out = fn(grid)
        out.flags.writeable = False
        return out
    return cached


# ---------------------------------------------------------------------------
# scalar symbols on the wavenumber lattice
# ---------------------------------------------------------------------------

@_per_grid
def symbol_h(grid: FourierGrid) -> np.ndarray:
    k = grid.k_magnitude
    return k * np.sqrt(2.0 + grid.k_squared)


@_per_grid
def symbol_u(grid: FourierGrid) -> np.ndarray:
    k = grid.k_magnitude
    return k / np.sqrt(2.0 + grid.k_squared)


@_per_grid
def symbol_u_inv(grid: FourierGrid) -> np.ndarray:
    """1/U with the (undefined) mean mode set to zero."""
    u = symbol_u(grid)
    with np.errstate(divide="ignore"):
        inv = np.where(u > 0, 1.0 / np.where(u > 0, u, 1.0), 0.0)
    return inv


@_per_grid
def _k2_safe(grid):
    # the projector denominator: Nyquist-zeroed |xi|^2 with 1 on its zeros
    return np.where(grid.k_squared_diff > 0, grid.k_squared_diff, 1.0)


def linear_flow(grid: FourierGrid, t) -> np.ndarray:
    """The multiplier of the unitary linear group e^{itH}."""
    return np.exp(1j * t * symbol_h(grid))


def group_velocity(r):
    """H'(r) = (2 + 2 r^2) / sqrt(2 + r^2), the radial group speed."""
    r = np.asarray(r, dtype=float)
    return (2.0 + 2.0 * r * r) / np.sqrt(2.0 + r * r)


# ---------------------------------------------------------------------------
# differential operators and projectors on spectra
# ---------------------------------------------------------------------------

def _k_dot(grid, spec_vector):
    # xi . v with the Nyquist-zeroed wavenumbers
    return sum(grid.cut(grid.kaxis_diff(i), spec_vector) * spec_vector[i]
               for i in range(grid.dim))


def grad_spec(grid, spec):
    """Spectral gradient: prepends an axis of ``dim`` derivatives to ``spec``."""
    out = np.empty((grid.dim,) + spec.shape, dtype=complex)
    for i in range(grid.dim):
        np.multiply(1j * grid.cut(grid.kaxis_diff(i), spec), spec, out=out[i])
    return out


def div_spec(grid, spec_vector):
    return 1j * _k_dot(grid, spec_vector)


def jacobian(grid, vec_spec):
    """Physical gradient ``J[i, j] = d_i v_j`` of a vector spectrum, in one inverse transform."""
    return grid.ifft(grad_spec(grid, vec_spec))


def proj_q_spec(grid, spec_vector):
    """Projector onto gradient fields: xi (xi . v) / |xi|^2, zero mean mode.

    Uses the Nyquist-zeroed wavenumbers so that Q is exactly idempotent
    and exactly the identity on outputs of :func:`grad_spec`.
    """
    kv = _k_dot(grid, spec_vector)
    k2 = grid.cut(_k2_safe(grid), kv)
    out = np.empty_like(spec_vector, dtype=complex)
    for i in range(grid.dim):
        np.divide(grid.cut(grid.kaxis_diff(i), kv) * kv, k2, out=out[i])
    zero = (0,) * grid.dim
    out[(Ellipsis,) + zero] = 0.0
    return out


def proj_p_spec(grid, spec_vector):
    out = spec_vector - proj_q_spec(grid, spec_vector)
    zero = (0,) * grid.dim
    out[(Ellipsis,) + zero] = 0.0
    return out


def inverse_grad_spec(grid, spec_vector):
    """Scalar spectrum f with grad f = v for a gradient field v; zero mean."""
    out = -1j * _k_dot(grid, spec_vector) / grid.cut(_k2_safe(grid), spec_vector)
    zero = (0,) * grid.dim
    out[(Ellipsis,) + zero] = 0.0
    return out


# ---------------------------------------------------------------------------
# bilinear pseudo-product
# ---------------------------------------------------------------------------

def _heat_quadrature_nodes(n):
    # Gauss-Legendre on (0, 1); s = -ln(1 - tau)/2 maps to (0, inf)
    nodes, weights = np.polynomial.legendre.leggauss(n)
    tau = 0.5 * (nodes + 1.0)
    return tau, 0.5 * weights


def bilinear_B(grid: FourierGrid, fspec, gspec, strength: float):
    """Bilinear pseudo-product with symbol ``strength / (2 (2 + |eta|^2 + |zeta|^2))``.

    Takes the half spectra of two real operands with the same leading
    component axis and returns the half spectrum of B[f, g], of shape
    ``(1, *half)``.  Evaluated through the heat-kernel representation

        B[f, g] = (strength/2) * int_0^inf e^{-2s} (e^{s Lap} f)(e^{s Lap} g) ds,

    with the substitution ``s = -ln(1 - tau)/2`` and Gauss-Legendre nodes
    on ``(0, 1)``, doubling the node count until two successive results
    agree to ``BILINEAR_TOL`` (relative, L^2).  Vector inputs contract to the dot
    product; scalar inputs give the scalar pseudo-product.

    Passing the same array as both operands (``gspec is fspec``) asks for
    the square B[f, f]: the operand is then heat-filtered and sampled once
    per node, with the same bits as two equal copies would give.
    """
    if fspec.shape != gspec.shape:
        raise ComponentError("bilinear_B operands must have equal shapes")
    if strength == 0.0:
        return np.zeros((1,) + fspec.shape[1:], dtype=complex)

    zero = (0,) * grid.dim
    # Split off the mean modes analytically: against a constant the symbol
    # collapses to the linear multiplier strength/(2(2+|zeta|^2)), and the
    # heat-kernel integrand of the remaining mean-free part vanishes fast
    # enough at the endpoint for the node-doubling quadrature to converge.
    square = gspec is fspec
    fspec = fspec.copy()
    gspec = fspec if square else gspec.copy()
    k2 = grid.cut(grid.k_squared, fspec)
    fbar = fspec[(Ellipsis,) + zero] / grid.npoints
    gbar = gspec[(Ellipsis,) + zero] / grid.npoints
    fspec[(Ellipsis,) + zero] = 0.0
    gspec[(Ellipsis,) + zero] = 0.0
    cross = sum(fbar[c] * gspec[c] + gbar[c] * fspec[c] for c in range(len(fspec)))
    mean_spec = cross / (2.0 * (2.0 + k2))
    mean_spec[zero] = np.sum(fbar * gbar) / 4.0 * grid.npoints

    def evaluate(n):
        tau, wts = _heat_quadrature_nodes(n)
        s = -np.log1p(-tau) / 2.0
        acc = np.zeros(grid.shape)
        for si, wi in zip(s, wts):
            heat = np.exp(-si * k2)
            fs = grid.ifft(fspec * heat)
            gs = fs if square else grid.ifft(gspec * heat)
            acc += wi * np.sum(fs * gs, axis=0)
        return (1.0 / 4.0) * acc

    prev = evaluate(8)
    n = 16
    while n <= BILINEAR_MAX_NODES:
        cur = evaluate(n)
        scale = max(np.sqrt(np.sum(cur ** 2)), 1e-300)
        if np.sqrt(np.sum((cur - prev) ** 2)) <= BILINEAR_TOL * scale:
            return (strength * (grid.fft(cur) + mean_spec))[None]
        prev = cur
        n *= 2
    raise QuadratureError(
        f"bilinear quadrature did not converge to {BILINEAR_TOL:.1e} "
        f"within {BILINEAR_MAX_NODES} nodes"
    )


def bilinear_B_exact(f: Field, g: Field, strength: float) -> Field:
    """O(N^{2d}) double-sum oracle for :func:`bilinear_B` on small grids.

    Sums ``strength/(2(2+|eta|^2+|zeta|^2)) fhat(eta) ghat(zeta)`` over all
    mode pairs, accumulating at the wrapped output mode ``eta + zeta`` --
    exactly the circular convolution the pointwise products in the
    quadrature produce.  The sum runs over the full spectra of the operands
    cast to complex.
    """
    grid = f.grid
    if grid.npoints > 40000:
        raise QuadratureError("exact bilinear oracle restricted to small grids")
    shape = grid.shape
    fspec = grid.fft(f.data.astype(complex)) / grid.npoints
    gspec = grid.fft(g.data.astype(complex)) / grid.npoints
    k_axes = grid.wavenumbers
    out = np.zeros(shape, dtype=complex)

    idx = [np.arange(n) for n in shape]
    mesh = np.meshgrid(*idx, indexing="ij")
    flat = [m.ravel() for m in mesh]
    k2_flat = grid.k_squared.ravel()

    fmat = fspec.reshape(fspec.shape[0], -1)
    gmat = gspec.reshape(gspec.shape[0], -1)
    npts = fmat.shape[1]
    for a in range(npts):
        ia = tuple(int(fl[a]) for fl in flat)
        coeff_f = fmat[:, a]
        if not np.any(coeff_f):
            continue
        denom = 2.0 * (2.0 + k2_flat[a] + k2_flat)
        contrib = np.sum(coeff_f[:, None] * gmat, axis=0) * (strength / denom)
        for b in range(npts):
            if contrib[b] == 0:
                continue
            ib = tuple(int(fl[b]) for fl in flat)
            target = tuple((x + y) % n for x, y, n in zip(ia, ib, shape))
            out[target] += contrib[b]
    # synthesize on the physical grid
    result = np.zeros(shape, dtype=complex)
    for target in np.ndindex(*shape):
        c = out[target]
        if c == 0:
            continue
        wave = np.ones(shape, dtype=complex)
        for ax, t in enumerate(target):
            k = k_axes[ax][t]
            x = grid.axes[ax]
            shape_ax = [1] * grid.dim
            shape_ax[ax] = -1
            wave = wave * np.exp(1j * k * x).reshape(shape_ax)
        result += c * wave
    real = f.is_real and g.is_real
    return Field.scalar(grid, result.real if real else result)
