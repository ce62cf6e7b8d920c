"""Time integration of the capillary-fluid dynamics.

The working unknowns are the encoded state of :mod:`ekwave.states`: the
half spectra ``v`` of the pair (Qu, U^{-1} w), the real and imaginary
parts of the dispersive variable ``psi = Q u + i U^{-1} w``, the half
spectrum of the solenoidal velocity ``P u`` and the mean of ``l``.  The
scheme is Strang splitting: the linear half-waves
``spectral.linear_flow(grid, dt/2)`` are applied exactly in Fourier space,
as a rotation of each mode's pair (Qu, U^{-1} w), and the remaining
quadratic tendencies, always dealiased by the 2/3 rule, are advanced with
classical RK4.  :func:`step_encoded` takes and returns the encoded state
with no change of layout, and every transform is real-to-complex or
complex-to-real.  The tendencies advect the whole velocity
``u = Pu + Qu``, sampled once and differentiated once by
``spectral.jacobian``: ``(u.grad)u`` is the paper's split form
``(u.grad)Pu + (Pu.grad)Qu + (Qu.grad)Qu``, whose last term is
``grad|Qu|^2/2`` because Qu is curl-free, and ``trace(grad u) = div Qu``
because Pu is divergence-free with the same Nyquist-zeroed wavenumbers.
The pressure is the paper's gradient ``-grad g(rho)``: since
``drho/dl = rho/a``, its part beyond the linear ``-2w`` is
``grad(2l - g(rho(l)))``, so every term of dQu but the advection is the
gradient of one scalar potential.
One loop, ``_drive``, steps every run:
``simulate`` and ``lifespan_experiment`` differ only in the monitor's
sample stride, the states they keep and an optional extra stop rule; both
check dt against :func:`stability_bound` first.  :func:`rhs_extended` adds
the linear parts to the tendencies and returns the half spectra of
(dl, dw, du), from which :func:`normal_form_residual` builds the cubic
residual on spectra.  The primitive-variable (rho, u) right-hand side, in
any dimension, is kept as a cross-check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dataclass_field
from typing import List

import numpy as np

from .diagnostics import NormSpec, norm
from .errors import StabilityError, VacuumError, check_field_types
from .grid import Field, FourierGrid
from .initial_data import InitialDataSpec, generate_initial_data
from .laws import ConstitutiveLaws
from .spectral import (
    bilinear_B,
    div_spec,
    grad_spec,
    jacobian,
    linear_flow,
    proj_p_spec,
    proj_q_spec,
    symbol_u_inv,
)
from .states import EKState, ExtendedState, decode, encode, to_extended, unpack

RK4_STABILITY = 2.8
# the lifespan sweep's transport envelope: the W^{1,inf} norm of Pu,
# sampled every LIFESPAN_STRIDE steps
ENVELOPE_NORM = NormSpec(1, np.inf)
LIFESPAN_STRIDE = 5


@dataclass
class SolverConfig:
    dt: float
    t_end: float
    rho_min_stop: float = 1e-3
    criterion_cap: float = 1e3
    snapshot_stride: int = 100

    def __post_init__(self):
        check_field_types(self)
        if self.dt < 0:
            raise StabilityError("dt must be nonnegative")


@dataclass
class Trajectory:
    """Recorded times with their states and monitor samples (no states for a lifespan run)."""

    times: List[float] = dataclass_field(default_factory=list)
    states: List[ExtendedState] = dataclass_field(default_factory=list)
    termination: str = ""
    steps: int = 0
    min_rho_history: List[float] = dataclass_field(default_factory=list)
    criterion_history: List[float] = dataclass_field(default_factory=list)

    @property
    def final_time(self):
        return self.times[-1]


# ---------------------------------------------------------------------------
# tendencies
# ---------------------------------------------------------------------------

def _dealias_fft(grid, phys, on):
    spec = grid.fft(phys)
    if on:
        spec *= grid.cut(grid.dealias_mask, spec)
    return spec


def nonlinear_tendencies(grid: FourierGrid, laws: ConstitutiveLaws,
                         v, pu_spec, lmean, dealias=True):
    """Quadratic-and-higher tendencies of the encoded state ``(v, Pu, mean l)``.

    The linear half-wave part, ``(-H U^{-1} w, H Qu)`` in ``v``, is
    excluded; it is applied exactly by the splitting.  Returns
    ``(dv, dPu, dlmean)`` with the field tendencies as half spectra, so
    every transform is real-to-complex or complex-to-real.

    The velocity is advected whole: ``adv = (u.grad)u`` with
    ``u = Pu + Qu`` gives ``dPu = -P(adv)`` and its Q part goes to dQu.
    That is the split form ``(u.grad)Pu + (Pu.grad)Qu + grad|Qu|^2/2``
    term for term, since ``(Qu.grad)Qu = grad|Qu|^2/2`` for curl-free Qu
    and P removes every gradient.  ``trace(grad u)`` is ``div Qu``:
    ``proj_p_spec`` zeroes ``xi . Pu`` with the Nyquist-zeroed wavenumbers
    that ``jacobian`` differentiates with, so ``div Pu`` is round-off.

    The pressure enters as a gradient: since ``drho/dl = rho/a``,
    ``(2 - g'(rho) rho/a) w = grad(2l - g(rho(l)))``, which with the linear
    ``-2w`` is the ``-grad g(rho)`` of the momentum equation.  So dQu is
    the gradient of one scalar minus ``Q(adv)``.
    """
    qu_spec, w_spec, l_spec = unpack(grid, v, lmean)
    u_spec = pu_spec + qu_spec
    u = grid.ifft(u_spec)
    w = grid.ifft(w_spec)
    l = grid.ifft(l_spec)
    rho = laws.rho_of_l(l)
    laws.check_density(rho, "tendency evaluation")
    a = laws.a(rho)
    grad_u = jacobian(grid, u_spec)
    divqu = np.trace(grad_u)
    u_dot_w = np.sum(u * w, axis=0)

    # potential equation: full dl = -u.w - a div(Qu); linear part -div(Qu)
    dlmean = float(np.mean(-u_dot_w - a * divqu))
    dw_nl = grad_spec(grid, _dealias_fft(grid, -u_dot_w + (1.0 - a) * divqu, dealias))

    adv_spec = _dealias_fft(grid, np.einsum("i...,ij...->j...", u, grad_u), dealias)

    # the gradient terms grad((a - 1) div w + |w|^2/2 + 2l - g(rho)) share
    # one transform; the last is the pressure beyond the linear -2w
    divw = grid.ifft(div_spec(grid, w_spec))
    grad_terms = grad_spec(grid, _dealias_fft(
        grid, (a - 1.0) * divw + 0.5 * np.sum(w * w, axis=0) + 2.0 * l - laws.g(rho),
        dealias))
    # Q is the identity on gradients, so only the advection is projected
    dqu_nl = grad_terms - proj_q_spec(grid, adv_spec)
    dv = np.stack([dqu_nl, grid.cut(symbol_u_inv(grid), dw_nl) * dw_nl])
    return dv, -proj_p_spec(grid, adv_spec), dlmean


def rhs_extended(s: ExtendedState, laws: ConstitutiveLaws, dealias=True):
    """Half spectra of the full tendencies (dl, dw, du) of the extended formulation.

    This is the one place where the linear parts join the nonlinear
    tendencies.  ``dw`` is computed as the spectral gradient of ``dl``, so the
    gradient structure of w is preserved exactly at the level of the
    right-hand side.  ``dl`` is the primitive of ``dw`` plus the mean
    tendency, which is how the encoded state carries l.
    """
    grid = s.grid
    v, pu_spec, lmean = encode(s)
    dv, dpu, dlmean = nonlinear_tendencies(grid, laws, v, pu_spec, lmean, dealias)
    qu_spec, w_spec, _ = unpack(grid, v, lmean)
    dqu_nl, _, dl_nl = unpack(grid, dv, dlmean)
    # add the linear parts: -div(Qu) to dl and (Laplacian - 2) w to dQu
    lin_l = div_spec(grid, qu_spec)
    if dealias:
        lin_l = lin_l * grid.cut(grid.dealias_mask, lin_l)
    dl_spec = dl_nl - lin_l
    du_spec = dqu_nl - (grid.cut(grid.k_squared, w_spec) + 2.0) * w_spec + dpu
    return dl_spec, grad_spec(grid, dl_spec), du_spec


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def stability_bound(s: ExtendedState, laws: ConstitutiveLaws):
    """Heuristic admissible time step for the RK4 substeps.

    The advective rate is ``max|u| k_max``; the capillary coefficient
    deviation contributes ``max|a - 1| k_max^2``.
    """
    grid = s.grid
    kmax = float(np.max(grid.k_magnitude[grid.dealias_mask]))
    rho = laws.rho_of_l(s.l.values)
    a = laws.a(rho)
    gp = laws.dg(rho)
    rate = (float(np.max(np.abs(s.u.data))) * kmax
            + float(np.max(np.abs(a - 1.0))) * kmax**2
            + float(np.max(np.abs(2.0 - gp)))
            + 1e-12)
    return RK4_STABILITY / rate


def _check_dt(s: ExtendedState, cfg: SolverConfig, laws: ConstitutiveLaws):
    if cfg.dt > 0:
        bound = stability_bound(s, laws)
        if cfg.dt > bound:
            raise StabilityError(f"dt = {cfg.dt:.3e} exceeds estimated bound {bound:.3e}")


@functools.lru_cache(maxsize=16)
def _half_wave(grid, dt):
    # e^{i(dt/2)H} = cos + i sin: on the encoded state it rotates each
    # mode's pair (Qu, U^{-1}w) by the angle (dt/2)H
    flow = linear_flow(grid, dt / 2.0)
    cos, sin = flow.real.copy(), flow.imag.copy()
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


def step_encoded(grid, laws, cfg, v, pu, lmean):
    """One Strang step of the encoded state ``(v, Pu, mean l)``: exact
    half-wave, RK4 on the nonlinear tendencies, half-wave."""
    dt = cfg.dt
    cos, sin = (grid.cut(x, v) for x in _half_wave(grid, dt))

    def rotate(v):
        return np.stack([cos * v[0] - sin * v[1], sin * v[0] + cos * v[1]])

    def f(y):
        return nonlinear_tendencies(grid, laws, *y)

    def add(y, c, k):
        return tuple(a + c * b for a, b in zip(y, k))

    y = (rotate(v), pu, lmean)
    k1 = f(y)
    k2 = f(add(y, 0.5 * dt, k1))
    k3 = f(add(y, 0.5 * dt, k2))
    k4 = f(add(y, dt, k3))
    v, pu, lmean = (a + (dt / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
                    for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
    # enforce the representation invariants: Qu and U^{-1}w potential,
    # Pu solenoidal
    v = np.stack([proj_q_spec(grid, x) for x in rotate(v)])
    pu = proj_p_spec(grid, pu)
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(pu)) and np.isfinite(lmean)):
        raise FloatingPointError("non-finite values after step")
    return v, pu, lmean


def _monitor(grid, laws, v, pu, lmean):
    """``(min rho, max|lap rho| + max|grad u|)`` of an encoded state."""
    qu_spec, _, l_spec = unpack(grid, v, lmean)
    rho = laws.rho_of_l(grid.ifft(l_spec))
    rho_spec = grid.fft(rho)
    lap_rho = grid.ifft(-grid.cut(grid.k_squared, rho_spec) * rho_spec)
    grad_u = jacobian(grid, pu + qu_spec)
    return float(np.min(rho)), float(np.max(np.abs(lap_rho))) + float(np.max(np.abs(grad_u)))


def _drive(ext, cfg, laws, t_end, sample_stride=1, keep_stride=None, stop=None) -> Trajectory:
    """Step ``ext`` to ``t_end`` under the monitor and the stop rules.

    The monitor samples the state at t0, every ``sample_stride`` steps and
    after the last step.  The continuation criterion is the trapezoid
    integral of its rate over the elapsed time.  At each sample after t0
    the stop rules are tried in turn: vacuum (``rho_min_stop``), the
    criterion cap, then ``stop(v, pu, lmean)``, which returns a
    termination reason or None.  A step that fails ends the run as
    ``non_finite`` before them; a run none of them ends reaches ``t_end``.
    The time and the latest monitor sample are recorded at t0, every
    ``keep_stride`` steps and where the run ends, with the decoded state
    unless ``keep_stride`` is None.
    """
    grid = ext.grid
    v, pu, lmean = encode(ext)
    nsteps = int(round((t_end - ext.time) / cfg.dt)) if cfg.dt > 0 else 0
    traj = Trajectory()
    criterion = 0.0
    min_rho, rate = _monitor(grid, laws, v, pu, lmean)

    def record(i):
        t = ext.time + i * cfg.dt
        if traj.times and traj.times[-1] == t:
            return
        traj.times.append(t)
        if keep_stride is not None:
            traj.states.append(decode(grid, v, pu, lmean, t))
        traj.min_rho_history.append(min_rho)
        traj.criterion_history.append(criterion)

    record(0)
    i = sampled = 0
    reason = "vacuum" if min_rho <= cfg.rho_min_stop else None
    while reason is None and i < nsteps:
        try:
            v, pu, lmean = step_encoded(grid, laws, cfg, v, pu, lmean)
        except (FloatingPointError, VacuumError):
            reason = "non_finite"
        else:
            i += 1
            if i % sample_stride == 0 or i == nsteps:
                min_rho, new_rate = _monitor(grid, laws, v, pu, lmean)
                criterion += 0.5 * (rate + new_rate) * (i - sampled) * cfg.dt
                rate, sampled = new_rate, i
                if min_rho <= cfg.rho_min_stop:
                    reason = "vacuum"
                elif criterion >= cfg.criterion_cap:
                    reason = "criterion_cap"
                elif stop is not None:
                    reason = stop(v, pu, lmean)
        if reason or i == nsteps or (keep_stride and i % keep_stride == 0):
            record(i)
    traj.steps = i
    traj.termination = reason or "reached_t_end"
    return traj


def simulate(s0: EKState, cfg: SolverConfig, laws: ConstitutiveLaws) -> Trajectory:
    """Integrate to t_end with vacuum and continuation-criterion monitors.

    The monitors implement the two continuation conditions: the running
    minimum of rho against ``rho_min_stop`` and the time integral of
    ``max|lap rho| + max|grad u|`` against ``criterion_cap``.  Both are
    checked after every step; states are kept every ``snapshot_stride``
    steps and where the run ends.
    """
    ext = to_extended(s0, laws)
    _check_dt(ext, cfg, laws)
    return _drive(ext, cfg, laws, cfg.t_end, keep_stride=cfg.snapshot_stride)


# ---------------------------------------------------------------------------
# normal-form residual
# ---------------------------------------------------------------------------

def normal_form_residual(s: ExtendedState, laws: ConstitutiveLaws) -> Field:
    """Residual of the transformed w-equation; cubic in the amplitude.

    With ``w1 = w - grad(B[w,w] - B[Qu,Qu])`` the quadratic terms of the
    w-equation collapse into a divergence, leaving

        d/dt w1 + lap Qu - grad div((1-a) Qu) + grad(Pu . w)

    of cubic order.  Qu is curl-free, so ``lap Qu = grad div Qu`` and the
    residual is ``d/dt w1 + grad(div(a Qu) + Pu . w)``: one scalar
    potential.  The time derivative of w1 is expanded through the
    bilinearity of B using the full tendencies of the untransformed
    system.  Every term is a half spectrum; Qu and Pu are sampled only for
    the two products, and the residual is the one field built.
    """
    grid = s.grid
    _, dw_spec, du_spec = rhs_extended(s, laws)
    qu_spec = proj_q_spec(grid, s.u.spectral)
    dqu_spec = proj_q_spec(grid, du_spec)

    b = (bilinear_B(grid, s.w.spectral, dw_spec, laws.strength)
         - bilinear_B(grid, qu_spec, dqu_spec, laws.strength))
    dw1_spec = dw_spec - grad_spec(grid, 2.0 * b[0])

    a = laws.a(laws.rho_of_l(s.l.values))
    pu = grid.ifft(proj_p_spec(grid, s.u.spectral))
    potential = (div_spec(grid, grid.fft(a * grid.ifft(qu_spec)))
                 + grid.fft(np.sum(pu * s.w.data, axis=0)))
    return Field.from_spectral(grid, dw1_spec + grad_spec(grid, potential))


# ---------------------------------------------------------------------------
# lifespan experiment
# ---------------------------------------------------------------------------

def lifespan_experiment(eps, delta_list, grid, laws, cfg, seed, T_max,
                        envelope_C=1.3, band_limit=4.0):
    """T_obs(delta) table for seeded data with solenoidal size delta.

    The observation time is the first firing among: the transport-norm
    envelope (the ``ENVELOPE_NORM`` of Pu exceeding ``envelope_C`` times
    its initial value; skipped when delta = 0), the vacuum monitor and the
    continuation-criterion cap, all checked every ``LIFESPAN_STRIDE``
    steps.  Runs reaching ``T_max`` are censored.  Every delta reuses the
    same seed, so the sweep varies only the solenoidal amplitude.  Each
    row's initial state is checked against the stability bound, as in
    :func:`simulate`.  Returns the rows and the steps each delta took.
    """
    rows, steps = [], []
    for delta in delta_list:
        ids = InitialDataSpec(amplitude=eps, solenoidal=float(delta),
                              band_limit=band_limit)
        ext = to_extended(generate_initial_data(ids, grid, laws, seed), laws)
        _check_dt(ext, cfg, laws)
        limit = envelope_C * norm(grid, proj_p_spec(grid, ext.u.spectral), ENVELOPE_NORM)

        def envelope(v, pu, lmean):
            transport = norm(grid, pu, ENVELOPE_NORM)
            return "envelope" if transport > limit else None

        traj = _drive(ext, cfg, laws, T_max, LIFESPAN_STRIDE,
                      stop=envelope if delta > 0 else None)
        censored = traj.termination == "reached_t_end"
        T_obs = float(T_max) if censored else traj.final_time
        rows.append({"delta": float(delta), "T_obs": T_obs, "censored": censored,
                     "reason": "censored" if censored else traj.termination,
                     "product": T_obs * float(delta)})
        steps.append(traj.steps)
    return rows, steps


# ---------------------------------------------------------------------------
# primitive-variable cross-check
# ---------------------------------------------------------------------------

def rhs_primitive(s: EKState, laws: ConstitutiveLaws, dealias=True):
    """``(d rho, d u)`` of the primitive formulation, as arrays, in any dimension.

        d rho = -div(rho u)                     (divergence form: zero mean)
        d u   = -u.grad u - g'(rho) grad rho + grad(K lap rho + K'|grad rho|^2/2)

    An oracle for :func:`rhs_extended`, computed without the codec.
    """
    grid = s.grid
    laws.check_density(s.rho.values, "primitive tendency")
    rho = s.rho.values
    u = s.u.data

    def grad(phys):
        return grid.ifft(grad_spec(grid, _dealias_fft(grid, phys, dealias)))

    drho = grid.ifft(-div_spec(grid, _dealias_fft(grid, rho * u, dealias)))
    grad_rho = grad(rho)
    rho_spec = s.rho.spectral[0]
    lap_rho = grid.ifft(-grid.cut(grid.k_squared, rho_spec) * rho_spec)
    capillary = laws.K(rho) * lap_rho + 0.5 * laws.dK(rho) * np.sum(grad_rho**2, axis=0)
    du = (-np.einsum("i...,ij...->j...", u, jacobian(grid, _dealias_fft(grid, u, dealias)))
          - laws.dg(rho) * grad_rho + grad(capillary))
    return drho, grid.ifft(_dealias_fft(grid, du, dealias))
