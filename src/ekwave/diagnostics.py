"""Measurement machinery: norms, energies, decay fits, resonances, envelopes.

Everything here is a pure function of fields and states.  The one solver
use is the lifespan sweep's transport envelope, which measures Pu with
:func:`norm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DerivativeOrderError, GaugeError, ZeroModeError
from .grid import Field, FourierGrid
from .laws import ConstitutiveLaws, _gauss_primitive
from .spectral import grad_spec, group_velocity, linear_flow, proj_q_spec
from .states import EKState, ExtendedState


# ---------------------------------------------------------------------------
# Sobolev / Lebesgue norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormSpec:
    """W^{k,p} specification: k derivatives, Lebesgue exponent p.

    ``p = inf`` (numpy.inf) selects the max norm.  The homogeneous flag
    switches the spectral weight from (1 + |xi|^2)^{k/2} to |xi|^k.
    """

    k: int = 0
    p: float = 2.0
    homogeneous: bool = False

    def __post_init__(self):
        if self.k < 0:
            raise DerivativeOrderError("derivative order must be nonnegative")
        if not (self.p > 1.0):
            raise DerivativeOrderError("integrability exponent must exceed 1")


def _bessel_weight(grid, spec: NormSpec):
    if spec.homogeneous:
        return grid.k_magnitude**spec.k
    return (1.0 + grid.k_squared) ** (spec.k / 2.0)


def norm(f: Field, spec: NormSpec = NormSpec()) -> float:
    """W^{k,p} norm by spectral differentiation and torus quadrature.

    Works on the cached spectrum of ``f`` in either layout.  Exact at p = 2,
    where the trapezoid sum of the weighted samples equals the spectral sum
    (discrete Parseval); for other finite p the pointwise power is sampled
    on a twice-refined grid before averaging, since powers of band-limited
    fields are not band-limited.
    """
    grid = f.grid
    if spec.k > min(grid.shape) // 3:
        raise DerivativeOrderError(
            f"derivative order {spec.k} too high for grid shape {grid.shape}"
        )
    weighted = f.spectral * grid.cut(_bessel_weight(grid, spec), f.spectral)
    mag2 = np.sum(np.abs(grid.ifft(weighted)) ** 2, axis=0)
    if spec.p == 2.0:
        return float(np.sqrt(grid.integrate(mag2)))
    if np.isinf(spec.p):
        return float(np.sqrt(np.max(mag2)))
    fine = grid.refine(mag2)
    return float(np.mean(np.maximum(fine, 0.0) ** (spec.p / 2.0)) * grid.volume) ** (1.0 / spec.p)


def weighted_norm(psi: Field, t: float, tail_fraction: float = 0.01):
    """|| x_c e^{-itH} psi ||_2 with the coordinate centered mid-domain.

    Returns ``(value, valid)``: ``valid`` flips to False once more than
    ``tail_fraction`` of the mass sits outside the central half of the
    window, the sign that the torus has wrapped and the weight is
    meaningless.
    """
    grid = psi.grid
    zero = (0,) * grid.dim
    # e^{-itH} psi is complex even for a real psi: evolve the full spectrum
    spec = grid.fft(psi.data.astype(complex))
    if np.max(np.abs(spec[(Ellipsis,) + zero])) > 1e-8 * max(np.max(np.abs(spec)), 1e-300):
        raise ZeroModeError("weighted norm requires a mean-free field")
    evolved = grid.ifft(spec * linear_flow(grid, -t))
    x = grid.meshgrid()
    r2 = sum((x[i] - grid.lengths[i] / 2.0) ** 2 for i in range(grid.dim))
    mass = np.sum(np.abs(evolved) ** 2, axis=0)
    value = float(np.sqrt(np.sum(r2 * mass) * grid.cell_volume))
    central = np.ones(grid.shape, dtype=bool)
    for i in range(grid.dim):
        coord = x[i]
        central &= (coord >= grid.lengths[i] / 4.0) & (coord < 3.0 * grid.lengths[i] / 4.0)
    total = float(np.sum(mass))
    tail = float(np.sum(mass[~central]))
    valid = total == 0.0 or tail <= tail_fraction * total
    return value, valid


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


def gauge_weights(laws: ConstitutiveLaws, rho, n: int):
    """(phi_n, phi_tilde_n) evaluated on the density samples.

    phi_n = a^n sqrt(rho); phi_tilde_n solves
    (phi_tilde_n^2)'(rho) = -2n a^{2n-1} rho a' + a^{2n} with value 1 at
    rho = 1, evaluated by direct quadrature of the right-hand side.
    """
    rho = np.asarray(rho, dtype=float)
    a = laws.a(rho)
    phi = a**n * np.sqrt(rho)
    if n == 0:
        return phi, np.sqrt(rho)

    def rhs(s):
        s = np.asarray(s)
        a_s = laws.a(s)
        return -2.0 * n * a_s ** (2 * n - 1) * s * laws.da(s) + a_s ** (2 * n)

    phi_tilde_sq = 1.0 + _gauss_primitive(rhs, rho)
    if np.any(phi_tilde_sq <= 0):
        raise GaugeError("gauge weight squared nonpositive on the density range")
    return phi, np.sqrt(phi_tilde_sq)


def gauge_energy(s: ExtendedState, laws: ConstitutiveLaws, n: int = 0) -> float:
    """Weighted 2n-derivative energy of z = u + i w and r = rho - 1.

    E_n = int |Q(phi_n lap^n z)|^2 + |(I - Q)(phi~_n lap^n z)|^2
          + 2 |lap^n r|^2 dx.

    The complement I - Q (rather than a mean-free P) keeps the two
    pieces L^2-orthogonal including the mean mode, so that at n = 0 the
    energy equals int rho |z|^2 + 2 r^2 dx identically.
    """
    if n > 2:
        raise DerivativeOrderError("gauge energy limited to n <= 2 (2n derivatives)")
    grid = s.grid
    rho = laws.rho_of_l(s.l.values)
    laws.check_density(rho, "gauge energy")
    phi, phi_tilde = gauge_weights(laws, rho, n)
    z = s.u.data + 1j * s.w.data
    lapn = (-grid.k_squared) ** n
    z_spec = grid.fft(z) * lapn
    zn = grid.ifft(z_spec)
    q_part = grid.ifft(proj_q_spec(grid, grid.fft(phi[None] * zn)))
    v = phi_tilde[None] * zn
    p_part = grid.ifft(grid.fft(v) - proj_q_spec(grid, grid.fft(v)))
    r_spec = grid.fft(rho - 1.0)
    rn = grid.ifft(r_spec * grid.cut(lapn, r_spec))
    density = (np.sum(np.abs(q_part) ** 2, axis=0)
               + np.sum(np.abs(p_part) ** 2, axis=0)
               + 2.0 * rn**2)
    return float(grid.integrate(density))


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------

def wrap_time(grid: FourierGrid, xi_c: float) -> float:
    """Time for the fastest band-limited mode to cross half the window."""
    return min(grid.lengths) / (2.0 * float(group_velocity(xi_c)))


def decay_fit(times: Sequence[float], values: Sequence[float],
              window: Tuple[float, float], t_wrap: Optional[float] = None):
    """Log-log least-squares slope of ``values`` against ``times``.

    Samples outside ``window`` or beyond ``t_wrap`` are discarded; at
    least six must survive.  Returns ``(slope, stderr)``.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    if t_wrap is not None:
        hi = min(hi, t_wrap)
    keep = (times >= lo) & (times <= hi) & (times > 0) & (values > 0)
    if int(np.sum(keep)) < 6:
        raise ValueError("fewer than 6 usable samples in the fit window")
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


# ---------------------------------------------------------------------------
# bootstrap envelopes
# ---------------------------------------------------------------------------

@dataclass
class EnvelopeRecord:
    t: float
    energy: float = 0.0
    weighted: float = 0.0
    dispersive: float = 0.0
    transport: float = 0.0


def envelope_check(history: Sequence[EnvelopeRecord], C: float, eps: float,
                   delta: float, decay_exponent: float):
    """Evaluate the three self-improving norm caps at each record.

    Caps: energy <= C eps; weighted <= C eps and dispersive <=
    C delta + C eps (1+t)^{-decay_exponent}; transport <= C delta.
    Returns ``(per_time, first_violation)`` where per_time is a list of
    booleans and first_violation the earliest failing time (or None).
    """
    per_time = []
    first = None
    for rec in history:
        ok = (rec.energy <= C * eps
              and rec.weighted <= C * eps
              and rec.dispersive <= C * delta + C * eps / (1.0 + rec.t) ** decay_exponent
              and rec.transport <= C * delta)
        per_time.append(ok)
        if not ok and first is None:
            first = rec.t
    return per_time, first
