"""Measurement machinery: norms, energies, decay fits and resonances.

Everything here is a pure function of spectra, fields and states.  The
one solver use is the lifespan sweep's transport envelope, which measures
the half spectrum of Pu with :func:`norm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import DerivativeOrderError, FitError
from .grid import Field, FourierGrid
from .laws import ConstitutiveLaws
from .spectral import grad_spec, group_velocity
from .states import EKState, ExtendedState


# ---------------------------------------------------------------------------
# Sobolev / Lebesgue norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormSpec:
    """W^{k,p} specification: k derivatives, Lebesgue exponent p.

    ``p = inf`` (numpy.inf) selects the max norm; the spectral weight is
    (1 + |xi|^2)^{k/2}.
    """

    k: int = 0
    p: float = 2.0

    def __post_init__(self):
        if self.k < 0:
            raise DerivativeOrderError("derivative order must be nonnegative")
        if not (self.p > 1.0):
            raise DerivativeOrderError("integrability exponent must exceed 1")


def norm(grid: FourierGrid, spectrum, spec: NormSpec = NormSpec()) -> float:
    """W^{k,p} norm by spectral differentiation and torus quadrature.

    Takes a spectrum in either layout, with a leading component axis, such
    as a field's ``spectral``.  Exact at p = 2,
    where the trapezoid sum of the weighted samples equals the spectral sum
    (discrete Parseval); for other finite p the pointwise power is sampled
    on a twice-refined grid before averaging, since powers of band-limited
    fields are not band-limited.
    """
    if spec.k > min(grid.shape) // 3:
        raise DerivativeOrderError(
            f"derivative order {spec.k} too high for grid shape {grid.shape}"
        )
    weighted = spectrum * grid.cut((1.0 + grid.k_squared) ** (spec.k / 2.0), spectrum)
    mag2 = np.sum(np.abs(grid.ifft(weighted)) ** 2, axis=0)
    if spec.p == 2.0:
        return float(np.sqrt(grid.integrate(mag2)))
    if np.isinf(spec.p):
        return float(np.sqrt(np.max(mag2)))
    fine = grid.refine(mag2)
    return float(np.mean(np.maximum(fine, 0.0) ** (spec.p / 2.0)) * grid.volume) ** (1.0 / spec.p)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def mass(s: EKState) -> float:
    return float(s.rho.grid.integrate(s.rho.values))


def hamiltonian(s: EKState, laws: ConstitutiveLaws) -> float:
    """Exact conserved energy: int rho(|u|^2 + |w|^2)/2 + G(rho) dx."""
    grid = s.rho.grid
    rho = s.rho.values
    grad_rho = grid.ifft(grad_spec(grid, s.rho.spectral[0]))
    w2 = (laws.K(rho) / rho) * np.sum(grad_rho**2, axis=0)
    u2 = np.sum(s.u.data**2, axis=0)
    density = 0.5 * rho * (u2 + w2) + laws.G(rho)
    return float(grid.integrate(density))


def gauge_energy(s: ExtendedState, rho: Field) -> float:
    """Gauge energy int rho |z|^2 + 2 (rho - 1)^2 dx of z = u + i w.

    ``rho`` is the density of ``s``.  This is the n = 0 member of the
    paper's weighted energies, whose weights are both sqrt(rho) there.
    """
    rho = rho.values
    z2 = np.sum(s.u.data**2, axis=0) + np.sum(s.w.data**2, axis=0)
    return float(s.grid.integrate(rho * z2 + 2.0 * (rho - 1.0) ** 2))


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------

def wrap_time(grid: FourierGrid, xi_c: float) -> float:
    """Time for the fastest band-limited mode to cross half the window."""
    return min(grid.lengths) / (2.0 * float(group_velocity(xi_c)))


def decay_fit(times: Sequence[float], values: Sequence[float],
              window: Tuple[float, float]):
    """Log-log least-squares slope of ``values`` against ``times``.

    Samples outside ``window`` are discarded; at least six must survive.
    Returns ``(slope, stderr)``.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    keep = (times >= lo) & (times <= hi) & (times > 0) & (values > 0)
    if int(np.sum(keep)) < 6:
        raise FitError("fewer than 6 usable samples in the fit window")
    lt = np.log(times[keep])
    lv = np.log(values[keep])
    A = np.vstack([lt, np.ones_like(lt)]).T
    coef, residuals, _, _ = np.linalg.lstsq(A, lv, rcond=None)
    slope = float(coef[0])
    dof = lt.size - 2
    if dof > 0 and residuals.size:
        s2 = float(residuals[0]) / dof
        var = s2 / float(np.sum((lt - lt.mean()) ** 2))
        stderr = float(np.sqrt(var))
    else:
        stderr = 0.0
    return slope, stderr


# ---------------------------------------------------------------------------
# resonance phase function
# ---------------------------------------------------------------------------

def _h_scalar(v):
    v = np.asarray(v, dtype=float)
    mag = np.sqrt(np.sum(v * v, axis=-1)) if v.ndim else np.abs(v)
    return mag * np.sqrt(2.0 + mag * mag)


def resonance_eval(xi, eta, signs=(-1, +1)) -> float:
    """Oscillatory phase of the quadratic interactions.

    Convention (sign labels s1, s2 in {-1, +1}):

        Omega_{s1 s2}(xi, eta) = H(xi) - s2*H(eta) - s1*H(xi - eta),

    so Omega_{--} = H(xi) + H(eta) + H(xi - eta) (positive away from the
    axes) and Omega_{-+}(xi, eta) = H(xi) - H(eta) + H(xi - eta), which
    vanishes on {xi = 0} and degenerates to third order there:
    Omega_{-+}(eps*eta, eta) ~ -3 eps |eta|^3 / (2 sqrt(2)).
    """
    s1, s2 = signs
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    return float(_h_scalar(xi) - s2 * _h_scalar(eta) - s1 * _h_scalar(xi - eta))


def resonance_asymptotic(eps: float, eta) -> float:
    """Low-frequency model -3 eps |eta|^3 / (2 sqrt(2)) of the (-,+) phase."""
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    mag = float(np.sqrt(np.sum(eta * eta)))
    return -3.0 * eps * mag**3 / (2.0 * np.sqrt(2.0))
