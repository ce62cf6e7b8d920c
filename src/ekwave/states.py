"""State representations and the one codec between them.

Three equivalent descriptions of the same flow are used:

* ``EKState``: primitive density/velocity pair (rho, u);
* ``ExtendedState``: (l, w, u) with ``w = grad l`` and ``l`` the
  capillarity primitive of rho;
* the encoded spectra ``(psi, Pu, mean l)`` with the complex dispersive
  variable ``psi = Q u + i U^{-1} w``: the solver's unknowns.

:func:`encode`, :func:`unpack` and :func:`decode` are the only places that
map between (l, w, u) and psi; the solver, its monitor and the normal form
all go through them.  :func:`normal_form` returns the encoded spectra with
the quadratic change of unknown ``w -> w1`` applied inside psi.

Inside a time step the solver carries the encoded spectra in the half
layout of :mod:`ekwave.grid`: the pair ``Qu +- i U^{-1} w`` (``plus`` and
``minus``, the half spectra of psi and of its complex conjugate) and the
half spectrum of Pu.  :func:`split` and :func:`join` map between the
layouts by index flips alone, so ``join(split(...))`` returns an encoded
state bit for bit; :func:`unpack_half` gives the half spectra of Qu, w
and l.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComponentError, NormalFormError
from .grid import Field, FourierGrid
from .laws import ConstitutiveLaws
from .spectral import (
    bilinear_B,
    grad_spec,
    inverse_grad_spec,
    proj_p_spec,
    proj_q_spec,
    symbol_u,
    symbol_u_inv,
)

GRADIENT_TOL = 1e-10


@dataclass
class EKState:
    """Primitive variables: positive density and velocity."""

    rho: Field
    u: Field
    time: float = 0.0

    def __post_init__(self):
        if not self.rho.is_scalar:
            raise ComponentError("rho must be a scalar field")
        if self.u.ncomp != self.u.grid.dim:
            raise ComponentError("u must be a vector field")

    @property
    def grid(self):
        return self.rho.grid


@dataclass
class ExtendedState:
    """(l, w, u) with w = grad l; w is mean-free and curl-free by construction."""

    l: Field
    w: Field
    u: Field
    time: float = 0.0

    @property
    def grid(self):
        return self.l.grid

    def gradient_residual(self):
        """Relative size of w - grad l and of P w (both should be round-off)."""
        grid = self.grid
        gl = grad_spec(grid, self.l.spectral[0])
        scale = max(float(np.max(np.abs(self.w.spectral))), 1e-300)
        mismatch = float(np.max(np.abs(self.w.spectral - gl))) / scale
        pw = float(np.max(np.abs(proj_p_spec(grid, self.w.spectral)))) / scale
        return max(mismatch, pw)

    def validate(self, tol=GRADIENT_TOL):
        res = self.gradient_residual()
        if res > tol:
            raise ComponentError(f"w is not the gradient of l (residual {res:.3e})")


@dataclass
class NormalForm:
    """Encoded spectra ``(psi, Pu, mean l)`` with w1 in place of w inside psi."""

    grid: FourierGrid
    psi: np.ndarray
    pu: np.ndarray
    lmean: float
    time: float = 0.0


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

def to_extended(s: EKState, laws: ConstitutiveLaws) -> ExtendedState:
    """Map (rho, u) to (l, w, u); errors below the vacuum floor."""
    laws.check_density(s.rho.values, "to_extended")
    grid = s.grid
    lvals = laws.l_of_rho(s.rho.values)
    l = Field.scalar(grid, lvals)
    w = Field.from_spectral(grid, grad_spec(grid, l.spectral[0]), real=True)
    return ExtendedState(l=l, w=w, u=s.u, time=s.time)


def from_extended(s: ExtendedState, laws: ConstitutiveLaws) -> EKState:
    rho = Field.scalar(s.grid, laws.rho_of_l(s.l.values))
    return EKState(rho=rho, u=s.u, time=s.time)


# ---------------------------------------------------------------------------
# the codec: (l, w, u) <-> (psi, Pu, mean l)
# ---------------------------------------------------------------------------

def encode(s: ExtendedState):
    """``(psi, Pu, mean l)`` of an extended state, as spectra, with psi = Qu + i U^{-1} w."""
    grid = s.grid
    u_spec = s.u.spectral
    psi_spec = proj_q_spec(grid, u_spec) + 1j * symbol_u_inv(grid) * s.w.spectral
    return psi_spec, proj_p_spec(grid, u_spec), float(s.l.mean()[0])


def _l_spec(grid, w_spec, lmean):
    l_spec = inverse_grad_spec(grid, w_spec)
    l_spec[(0,) * grid.dim] = lmean * grid.npoints
    return l_spec


def unpack(grid, psi_spec, lmean):
    """``(Qu, Qu spectrum, w spectrum, l spectrum)`` carried by psi and mean(l)."""
    psi_phys = grid.ifft(psi_spec)
    qu = psi_phys.real.copy()
    w_spec = grid.fft(psi_phys.imag) * symbol_u(grid)
    return qu, grid.fft(qu), w_spec, _l_spec(grid, w_spec, lmean)


def _extended(grid, l_spec, u_spec, time):
    l = Field.from_spectral(grid, l_spec[None], real=True)
    w = Field.from_spectral(grid, grad_spec(grid, l_spec), real=True)
    return ExtendedState(l=l, w=w, u=Field.from_spectral(grid, u_spec, real=True), time=time)


def decode(grid, psi_spec, pu_spec, lmean, time) -> ExtendedState:
    """The extended state at ``time`` encoded by ``(psi, Pu, mean l)``."""
    _, qu_spec, _, l_spec = unpack(grid, psi_spec, lmean)
    u_spec = proj_p_spec(grid, pu_spec) + proj_q_spec(grid, qu_spec)
    return _extended(grid, l_spec, u_spec, time)


# ---------------------------------------------------------------------------
# the half layout: (plus, minus, Pu) = half spectra of (Qu + iU^{-1}w, Qu - iU^{-1}w, Pu)
# ---------------------------------------------------------------------------

def _negate_leading(grid, x):
    # x(-k) along every spatial axis but the last
    axes = tuple(range(-grid.dim, -1))
    return np.roll(np.flip(x, axes), 1, axes) if axes else x


def unfold(grid, half, mirror=None):
    """The full-layout spectrum that is ``half`` on the half lattice.

    The other entries are ``conj(mirror(-xi))``; ``mirror`` defaults to
    ``half``, which unfolds the half spectrum of a real field.
    """
    mirror = half if mirror is None else mirror
    n, N = grid.half_length, grid.shape[-1]
    full = np.empty(half.shape[:-1] + (N,), dtype=complex)
    full[..., :n] = half
    full[..., n:] = np.conj(_negate_leading(grid, mirror[..., N - n:0:-1]))
    return full


def split(grid, psi, pu):
    """``(plus, minus, Pu)`` in the half layout from full-layout ``(psi, Pu)``.

    ``plus`` is psi on the half lattice and ``minus`` is ``conj(psi(-xi))``
    there; Pu is the spectrum of a real field, so its half is enough.
    """
    n, N = grid.half_length, grid.shape[-1]
    minus = np.conj(_negate_leading(grid, psi[..., (-np.arange(n)) % N]))
    return psi[..., :n].copy(), minus, pu[..., :n].copy()


def join(grid, plus, minus, pu):
    """Full-layout ``(psi, Pu)`` from the half layout; the inverse of :func:`split`."""
    return unfold(grid, plus, minus), unfold(grid, pu)


def unpack_half(grid, plus, minus, lmean):
    """``(Qu, w, l)`` half spectra carried by ``plus``, ``minus`` and mean(l)."""
    qu_spec = 0.5 * (plus + minus)
    w_spec = grid.half(symbol_u(grid)) * (-0.5j * (plus - minus))
    return qu_spec, w_spec, _l_spec(grid, w_spec, lmean)


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

def normal_form(s: ExtendedState, laws: ConstitutiveLaws) -> NormalForm:
    """Encode ``s`` with ``w1 = w - grad(B[w,w] - B[Qu,Qu])`` in place of w."""
    psi, pu, lmean = encode(s)
    psi = psi + 1j * symbol_u_inv(s.grid) * normal_form_correction(s, laws).spectral
    return NormalForm(s.grid, psi, pu, lmean, s.time)


def invert_normal_form(d: NormalForm, laws: ConstitutiveLaws,
                       tol: float = 1e-10, max_iter: int = 50):
    """Recover w from w1 by fixed-point iteration; contracts for small data.

    Returns ``(state, iterations)``.
    """
    grid = d.grid
    _, qu_spec, w1_spec, _ = unpack(grid, d.psi, d.lmean)
    w_spec, iters = w1_spec, 0
    if laws.strength != 0.0:
        qu = Field.from_spectral(grid, qu_spec, real=True)
        qu_corr = grad_spec(grid, bilinear_B(qu, qu, laws.strength).spectral[0])
        scale = max(float(np.max(np.abs(w1_spec))) / grid.npoints, 1e-300)
        for iters in range(1, max_iter + 1):
            w_field = Field.from_spectral(grid, w_spec, real=True)
            bww = bilinear_B(w_field, w_field, laws.strength)
            new_spec = w1_spec + grad_spec(grid, bww.spectral[0]) - qu_corr
            step = float(np.max(np.abs(new_spec - w_spec))) / grid.npoints
            w_spec = new_spec
            if step <= tol * max(scale, 1.0):
                break
        else:
            raise NormalFormError(
                f"fixed-point inversion did not contract within {max_iter} iterations"
            )
    return _extended(grid, _l_spec(grid, w_spec, d.lmean), d.pu + qu_spec, d.time), iters


def normal_form_correction(s: ExtendedState, laws: ConstitutiveLaws) -> Field:
    """w1 - w as a field (a perfect gradient, quadratic in the amplitude)."""
    grid = s.grid
    if laws.strength == 0.0:
        return Field.zeros(grid, grid.dim)
    qu = Field.from_spectral(grid, proj_q_spec(grid, s.u.spectral), real=True)
    bqq = bilinear_B(qu, qu, laws.strength)
    bww = bilinear_B(s.w, s.w, laws.strength)
    corr = grad_spec(grid, bww.spectral[0] - bqq.spectral[0])
    return Field.from_spectral(grid, -corr, real=True)
