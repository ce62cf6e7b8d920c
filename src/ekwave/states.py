"""State representations and the one codec between them.

Three equivalent descriptions of the same flow are used:

* ``EKState``: primitive density/velocity pair (rho, u);
* ``ExtendedState``: (l, w, u) with ``w = grad l`` and ``l`` the
  capillarity primitive of rho;
* the encoded state ``(v, Pu, mean l)``: the solver's unknowns.  ``v``
  stacks the half spectra of Qu and U^{-1} w, the real and imaginary parts
  of the complex dispersive variable ``psi = Q u + i U^{-1} w``; Pu is the
  half spectrum of the solenoidal velocity.

One layout rule holds throughout (:mod:`ekwave.grid`): the spectrum of a
real field is its half spectrum, and ``grid.fft`` and ``grid.ifft`` pick
the layout by dtype and by shape.  The fields here are real, so every
spectrum is a half spectrum, the real pair (Qu, U^{-1} w) is carried as
is, and every transform is real-to-complex or complex-to-real.
:func:`encode`, :func:`unpack` and :func:`decode` are the only places that
map between (l, w, u) and the encoded state; the solver, its monitor and
the normal form all go through them.  :func:`normal_form` returns the
encoded state with the quadratic change of unknown ``w -> w1`` applied
inside ``v``.  The normal form works on half spectra throughout:
:func:`normal_form_correction` returns the half spectrum of ``w1 - w``,
and :func:`invert_normal_form` iterates on spectra and builds fields only
for the state it returns.
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

# fixed-point inversion of the normal form: relative step tolerance and
# iteration cap
INVERSION_TOL = 1e-10
INVERSION_MAX_ITER = 50


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


@dataclass
class NormalForm:
    """Encoded spectra ``(v, Pu, mean l)`` with U^{-1} w1 in place of U^{-1} w in ``v[1]``."""

    grid: FourierGrid
    v: np.ndarray
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
    w = Field.from_spectral(grid, grad_spec(grid, l.spectral[0]))
    return ExtendedState(l=l, w=w, u=s.u, time=s.time)


def from_extended(s: ExtendedState, laws: ConstitutiveLaws) -> EKState:
    rho = Field.scalar(s.grid, laws.rho_of_l(s.l.values))
    return EKState(rho=rho, u=s.u, time=s.time)


# ---------------------------------------------------------------------------
# the codec: (l, w, u) <-> (v, Pu, mean l), all in the half layout
# ---------------------------------------------------------------------------

def encode(s: ExtendedState):
    """``(v, Pu, mean l)`` of an extended state.

    ``v`` of shape ``(2, dim, *half)`` stacks the half spectra of Qu and of
    U^{-1} w, so psi = Qu + i U^{-1} w is ``ifft(v[0]) + i ifft(v[1])``; Pu
    is a half spectrum of shape ``(dim, *half)``.
    """
    grid = s.grid
    u_spec = s.u.spectral
    v = np.stack([proj_q_spec(grid, u_spec),
                  grid.cut(symbol_u_inv(grid), u_spec) * s.w.spectral])
    return v, proj_p_spec(grid, u_spec), float(s.l.mean()[0])


def unpack(grid, v, lmean):
    """``(Qu, w, l)`` half spectra carried by ``v`` and mean(l)."""
    w_spec = grid.cut(symbol_u(grid), v) * v[1]
    return v[0], w_spec, _l_spec(grid, w_spec, lmean)


def _l_spec(grid, w_spec, lmean):
    l_spec = inverse_grad_spec(grid, w_spec)
    l_spec[(0,) * grid.dim] = lmean * grid.npoints
    return l_spec


def _extended(grid, l_spec, u_spec, time):
    l = Field.from_spectral(grid, l_spec)
    w = Field.from_spectral(grid, grad_spec(grid, l_spec))
    return ExtendedState(l=l, w=w, u=Field.from_spectral(grid, u_spec), time=time)


def decode(grid, v, pu_spec, lmean, time) -> ExtendedState:
    """The extended state at ``time`` encoded by ``(v, Pu, mean l)``."""
    qu_spec, _, l_spec = unpack(grid, v, lmean)
    return _extended(grid, l_spec, pu_spec + qu_spec, time)


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

def normal_form(s: ExtendedState, laws: ConstitutiveLaws) -> NormalForm:
    """Encode ``s`` with ``w1 = w - grad(B[w,w] - B[Qu,Qu])`` in place of w."""
    grid = s.grid
    v, pu, lmean = encode(s)
    v[1] += grid.cut(symbol_u_inv(grid), v) * normal_form_correction(s, laws)
    return NormalForm(grid, v, pu, lmean, s.time)


def invert_normal_form(d: NormalForm, laws: ConstitutiveLaws):
    """Recover w from w1 by fixed-point iteration; contracts for small data.

    Returns ``(state, iterations)``.
    """
    grid = d.grid
    qu_spec, w1_spec, _ = unpack(grid, d.v, d.lmean)
    w_spec, iters = w1_spec, 0
    if laws.strength != 0.0:

        def grad_b(f_spec):
            return grad_spec(grid, bilinear_B(grid, f_spec, f_spec, laws.strength)[0])

        qu_corr = grad_b(qu_spec)
        scale = max(float(np.max(np.abs(w1_spec))) / grid.npoints, 1e-300)
        for iters in range(1, INVERSION_MAX_ITER + 1):
            new_spec = w1_spec + grad_b(w_spec) - qu_corr
            step = float(np.max(np.abs(new_spec - w_spec))) / grid.npoints
            w_spec = new_spec
            if step <= INVERSION_TOL * max(scale, 1.0):
                break
        else:
            raise NormalFormError(
                f"fixed-point inversion did not contract within {INVERSION_MAX_ITER} iterations"
            )
    return _extended(grid, _l_spec(grid, w_spec, d.lmean), d.pu + qu_spec, d.time), iters


def normal_form_correction(s: ExtendedState, laws: ConstitutiveLaws) -> np.ndarray:
    """The half spectrum of w1 - w (a perfect gradient, quadratic in the amplitude)."""
    grid = s.grid
    qu_spec = proj_q_spec(grid, s.u.spectral)
    w_spec = s.w.spectral
    b = (bilinear_B(grid, w_spec, w_spec, laws.strength)
         - bilinear_B(grid, qu_spec, qu_spec, laws.strength))
    return -grad_spec(grid, b[0])
