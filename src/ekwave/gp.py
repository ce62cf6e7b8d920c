"""Wave-function solver, Madelung transforms and the vacuum-formation run.

The wave equation integrated here is

    i dpsi/dt + lap psi = g(|psi|^2) psi / 2,

with far-field modulus 1 (psi - 1 is the dynamical variable).  Under
psi = sqrt(rho) e^{i phi} it is the quantum-capillarity fluid with
pressure g and fluid velocity 2*grad(phi); see :func:`fluid_state`.
The conjugation symmetry psi -> conj(psi(-t)) is exact for the splitting
scheme and is the engine of the finite-time vacuum construction: run
forward from a datum with an isolated zero, conjugate, run forward
again, and the zero re-forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import List

import numpy as np

from .errors import ComponentError, StabilityError, VacuumError
from .grid import Field, FourierGrid
from .laws import ConstitutiveLaws
from .spectral import grad_spec, jacobian
from .states import EKState

VACUUM_THRESHOLD = 1e-6
# the vacuum-formation run: finite-difference step of the density's time
# derivatives, and the density below which the fluid velocity is not
# evaluated
DT_FD = 1e-3
ADMISSIBLE_FLOOR = 1e-3


@dataclass
class WaveFunction:
    psi: Field
    time: float = 0.0

    def __post_init__(self):
        if not self.psi.is_scalar:
            raise ComponentError("wave function must be a scalar field")
        if not np.all(np.isfinite(self.psi.data)):
            raise FloatingPointError("non-finite wave function samples")

    @property
    def grid(self):
        return self.psi.grid

    def density(self):
        return np.abs(self.psi.values) ** 2


def gp_step(w: WaveFunction, dt: float, laws: ConstitutiveLaws) -> WaveFunction:
    """One Strang step: half phase rotation, exact dispersion, half phase."""
    grid = w.grid
    psi = w.psi.values.astype(complex)
    phase = np.exp(-1j * (dt / 4.0) * laws.g(np.abs(psi) ** 2))
    psi = psi * phase
    psi = grid.ifft(grid.fft(psi) * np.exp(-1j * dt * grid.k_squared))
    psi = psi * np.exp(-1j * (dt / 4.0) * laws.g(np.abs(psi) ** 2))
    return WaveFunction(Field.scalar(grid, psi), w.time + dt)


def gp_evolve(w: WaveFunction, t: float, dt: float, laws: ConstitutiveLaws) -> WaveFunction:
    n = int(round(t / dt))
    for _ in range(n):
        w = gp_step(w, dt, laws)
    return w


# ---------------------------------------------------------------------------
# Madelung transforms
# ---------------------------------------------------------------------------

def madelung(rho: Field, phi_phase: Field, time: float = 0.0) -> WaveFunction:
    """psi = sqrt(rho) e^{i phi}."""
    if not (rho.is_scalar and phi_phase.is_scalar):
        raise ComponentError("madelung expects scalar density and phase")
    psi = np.sqrt(rho.values) * np.exp(1j * phi_phase.values)
    return WaveFunction(Field.scalar(rho.grid, psi), time)


def inverse_madelung(w: WaveFunction, threshold: float = VACUUM_THRESHOLD):
    """(rho, u) = (|psi|^2, Im(conj(psi) grad psi) / |psi|^2).

    For a plane wave e^{ikx} this returns u = k, the phase gradient.
    Raises once |psi|^2 dips to the vacuum threshold, where the map is
    singular.
    """
    grid = w.grid
    rho = w.density()
    if float(np.min(rho)) <= threshold:
        raise VacuumError(f"min |psi|^2 = {np.min(rho):.3e} at or below {threshold:.1e}")
    gpsi = grid.ifft(grad_spec(grid, w.psi.spectral[0]))
    u = np.imag(np.conj(w.psi.values)[None] * gpsi) / rho[None]
    return Field.scalar(grid, rho), Field.vector(grid, u)


def fluid_state(w: WaveFunction, threshold: float = VACUUM_THRESHOLD) -> EKState:
    """Fluid variables matched to the capillary system's velocity.

    For this normalization of the nonlinearity the continuity equation
    closes with twice the phase gradient, so the fluid velocity is 2u
    with u the inverse-transform velocity.
    """
    rho, u = inverse_madelung(w, threshold)
    return EKState(rho=rho, u=2.0 * u, time=w.time)


# ---------------------------------------------------------------------------
# vacuum-formation experiment
# ---------------------------------------------------------------------------

@dataclass
class BlowupReport:
    second_derivative: float = float("nan")
    predicted: float = float("nan")
    quadratic_coefficient: float = float("nan")
    alpha: float = float("nan")
    forward_time: float = float("nan")
    vacuum_time: float = float("nan")
    grad_u_history: List[float] = dataclass_field(default_factory=list)
    grad_u_times: List[float] = dataclass_field(default_factory=list)


def gaussian_notch(grid: FourierGrid, width: float = 1.0) -> WaveFunction:
    """psi0 = 1 - exp(-|x - x_c|^2 / (2 width^2)), real with one zero."""
    x = grid.meshgrid()
    centered = [x[i] - grid.lengths[i] / 2.0 for i in range(grid.dim)]
    r2 = sum(c * c for c in centered)
    vals = 1.0 - np.exp(-r2 / (2.0 * width**2))
    return WaveFunction(Field.scalar(grid, vals.astype(complex)))


def _center_index(grid):
    return tuple(n // 2 for n in grid.shape)


def _second_derivative_density(w0, dt, laws):
    """d^2|psi|^2/dt^2 at t = 0 on the grid, Richardson-extrapolated once
    from the steps DT_FD and DT_FD / 2."""
    # |psi|^2 is even in t for real data: the 5-point centered stencil
    # collapses to the forward samples at h and 2h
    density = {0.0: w0.density()}
    for s in (DT_FD / 2.0, DT_FD, 2.0 * DT_FD):
        n = max(1, int(round(s / dt)))
        density[s] = gp_evolve(w0, s, s / n, laws).density()

    def stencil(h):
        return (-2.0 * density[2.0 * h] + 32.0 * density[h] - 30.0 * density[0.0]) / (12.0 * h**2)

    return (4.0 * stencil(DT_FD / 2.0) - stencil(DT_FD)) / 3.0


def blowup_experiment(w0: WaveFunction, laws: ConstitutiveLaws, *,
                      dt: float = 1e-4, forward_time: float = 0.25) -> BlowupReport:
    """Measure the quadratic vacuum-filling rate and re-form the vacuum.

    Steps: (i) measure d^2|psi|^2/dt^2 at the zero and compare with twice
    the squared Laplacian of the datum there (d|psi|^2/dt vanishes at
    t = 0 for real data); (ii) fit the quadratic growth of the density at
    the zero; (iii) run forward, conjugate and run forward again until the
    density re-forms a vacuum; (iv) along the backward (conjugated) run,
    record max|grad u|.
    """
    if not dt > 0:
        raise StabilityError(f"dt must be positive, got {dt!r}")
    grid = w0.grid
    report = BlowupReport()
    vals0 = w0.psi.values
    if float(np.max(np.abs(vals0.imag))) > 1e-12:
        raise ComponentError("the construction requires a real initial datum")
    idx = _center_index(grid)
    if abs(vals0[idx]) > 1e-10:
        raise ComponentError("initial datum must vanish at the domain center")
    lap0 = grid.ifft(-grid.k_squared * w0.psi.spectral[0])
    lap_center = complex(lap0[idx])
    if abs(lap_center) < 1e-8:
        raise ComponentError("Laplacian of the datum must not vanish at the zero")
    report.predicted = 2.0 * abs(lap_center) ** 2

    # (i) second derivative of the density at the zero, and alpha, its
    # infimum over the zero and its neighbours
    d2 = _second_derivative_density(w0, dt, laws)
    report.second_derivative = float(d2[idx])
    report.alpha = float(min(d2[tuple((i + shift) % n for i, n in zip(idx, grid.shape))]
                             for shift in (-1, 0, 1)))

    # (ii) quadratic fit of the density at the zero on a small window
    ts = np.linspace(2 * DT_FD, 20 * DT_FD, 10)
    w = w0
    t_prev = 0.0
    samples = []
    for t in ts:
        n = max(1, int(round((t - t_prev) / dt)))
        w = gp_evolve(w, t - t_prev, (t - t_prev) / n, laws)
        t_prev = t
        samples.append(float(np.abs(w.psi.values[idx]) ** 2))
    report.quadratic_coefficient = float(
        np.sum(np.asarray(samples) * ts**2) / np.sum(ts**4)
    )

    # (iii) forward run, conjugate, forward again until vacuum.  The datum
    # starts at vacuum, which fills in quadratically; only a *return* to
    # vacuum after filling invalidates the configuration.
    nsteps = int(round(forward_time / dt))
    w = w0
    filled = False
    for _ in range(nsteps):
        w = gp_step(w, dt, laws)
        min_rho_fwd = float(np.min(np.abs(w.psi.values) ** 2))
        if min_rho_fwd > 100.0 * VACUUM_THRESHOLD:
            filled = True
        elif filled and min_rho_fwd <= VACUUM_THRESHOLD:
            raise VacuumError("forward run returned to vacuum; configuration invalid")
    if not filled:
        raise VacuumError("forward run never filled the vacuum; configuration invalid")
    report.forward_time = w.time
    back = WaveFunction(Field.scalar(grid, np.conj(w.psi.values)), 0.0)

    # (iv) backward run with monitoring
    for _ in range(2 * nsteps):
        min_rho = float(np.min(back.density()))
        if min_rho <= VACUUM_THRESHOLD:
            report.vacuum_time = back.time
            break
        if min_rho > ADMISSIBLE_FLOOR:
            # min_rho exceeds the threshold passed here, so no VacuumError
            state = fluid_state(back, threshold=ADMISSIBLE_FLOOR * 0.5)
            gmax = float(np.max(np.abs(jacobian(grid, state.u.spectral))))
            report.grad_u_history.append(gmax)
            report.grad_u_times.append(back.time)
        back = gp_step(back, dt, laws)
    return report
