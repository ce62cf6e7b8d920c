"""Constitutive laws for the capillary fluid: K(rho), g(rho) and derived functions.

The derived quantities are ``a(rho) = sqrt(rho K(rho))`` and the primitive

    l(rho) = int_1^rho sqrt(K(r)/r) dr,

which carries the density into the variable whose gradient is
``w = sqrt(K/rho) grad rho``.  Construction enforces the normalization
``a(1) = 1`` and ``g'(1) = 2``; the linearized dispersion relation is
then the same for every admissible law.
"""

from __future__ import annotations

import numpy as np

from .errors import NormalizationError, RootSolveError, VacuumError

RHO_FLOOR = 1e-6
RHO_CEIL = 1e6
_NORM_TOL = 1e-12


def _derivative(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


class ConstitutiveLaws:
    """Capillarity/pressure pair with the derived a(rho) and primitive l(rho).

    Parameters are callables acting elementwise on arrays.  ``kind`` tags
    the capillarity for closed-form shortcuts: "quantum" (K = 1/rho,
    l = ln rho), "constant" (K = K0, l = 2 sqrt(K0) (sqrt(rho) - 1)),
    "linear" (K = rho, l = rho - 1) or "custom".
    """

    def __init__(self, K, dK, g, dg, kind="custom", K0=1.0,
                 rho_floor=RHO_FLOOR, rho_ceil=RHO_CEIL):
        self.K = K
        self.dK = dK
        self.g = g
        self.dg = dg
        self.kind = kind
        self.K0 = float(K0)
        self.rho_floor = float(rho_floor)
        self.rho_ceil = float(rho_ceil)

        a1 = float(self.a(np.asarray(1.0)))
        g1 = float(self.dg(np.asarray(1.0)))
        if abs(a1 - 1.0) > _NORM_TOL:
            raise NormalizationError(f"a(1) = {a1!r}, expected 1")
        if abs(g1 - 2.0) > _NORM_TOL:
            raise NormalizationError(f"g'(1) = {g1!r}, expected 2")

    # -- factories ------------------------------------------------------
    @classmethod
    def quantum(cls, g=None, dg=None):
        """K = 1/rho (a == 1, l = ln rho); the wave-function correspondence."""
        g, dg = _default_pressure(g, dg)
        return cls(lambda r: 1.0 / r, lambda r: -1.0 / r**2, g, dg, kind="quantum")

    @classmethod
    def constant(cls, K0=1.0, g=None, dg=None):
        """Constant capillarity; normalization requires K0 = 1."""
        g, dg = _default_pressure(g, dg)
        K0 = float(K0)
        return cls(lambda r: np.full_like(np.asarray(r, dtype=float), K0),
                   lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                   g, dg, kind="constant", K0=K0)

    @classmethod
    def linear(cls, g=None, dg=None):
        """K = rho (a = rho, a'(1) = 1: the pseudo-product strength vanishes)."""
        g, dg = _default_pressure(g, dg)
        return cls(lambda r: np.asarray(r, dtype=float),
                   lambda r: np.ones_like(np.asarray(r, dtype=float)),
                   g, dg, kind="linear")

    @classmethod
    def polynomial(cls, K_coeffs, g_coeffs=None):
        """K and g as polynomials in (rho - 1), low-order coefficient first."""
        kp = np.asarray(K_coeffs, dtype=float)
        dkp = np.polynomial.polynomial.polyder(kp) if kp.size > 1 else np.zeros(1)

        def K(r):
            return np.polynomial.polynomial.polyval(np.asarray(r) - 1.0, kp)

        def dK(r):
            return np.polynomial.polynomial.polyval(np.asarray(r) - 1.0, dkp)

        if g_coeffs is None:
            g, dg = _default_pressure(None, None)
        else:
            gp = np.asarray(g_coeffs, dtype=float)
            dgp = np.polynomial.polynomial.polyder(gp)

            def g(r):
                return np.polynomial.polynomial.polyval(np.asarray(r) - 1.0, gp)

            def dg(r):
                return np.polynomial.polynomial.polyval(np.asarray(r) - 1.0, dgp)

        return cls(K, dK, g, dg, kind="custom")

    @classmethod
    def by_name(cls, name, **kwargs):
        table = {"quantum": cls.quantum, "constant": cls.constant, "linear": cls.linear,
                 "polynomial": cls.polynomial}
        if name not in table:
            raise NormalizationError(f"unknown constitutive law {name!r}")
        return table[name](**kwargs)

    # -- derived quantities ---------------------------------------------
    def check_density(self, rho, context="density"):
        m = float(np.min(rho))
        if not np.isfinite(m) or m <= self.rho_floor:
            raise VacuumError(f"{context}: min rho = {m:.3e} at or below floor {self.rho_floor:.1e}")
        if float(np.max(rho)) >= self.rho_ceil:
            raise VacuumError(f"{context}: max rho above ceiling {self.rho_ceil:.1e}")

    def a(self, rho):
        rho = np.asarray(rho, dtype=float)
        return np.sqrt(rho * self.K(rho))

    def da(self, rho):
        """a'(rho) = (K + rho K') / (2 a)."""
        rho = np.asarray(rho, dtype=float)
        return (self.K(rho) + rho * self.dK(rho)) / (2.0 * self.a(rho))

    @property
    def strength(self):
        """a'(1) - 1, the coefficient of the bilinear normal-form symbol."""
        return float(self.da(np.asarray(1.0))) - 1.0

    def l_of_rho(self, rho):
        """The primitive int_1^rho sqrt(K/r) dr, elementwise.

        Raises VacuumError where it is not finite: K turns negative inside
        [1, rho], or rho is not a positive density.
        """
        rho = np.asarray(rho, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            if self.kind == "quantum":
                l = np.log(rho)
            elif self.kind == "constant":
                l = 2.0 * np.sqrt(self.K0) * (np.sqrt(rho) - 1.0)
            elif self.kind == "linear":
                l = rho - 1.0
            else:
                l = _gauss_primitive(lambda s: np.sqrt(self.K(s) / s), rho)
        if not np.all(np.isfinite(l)):
            raise VacuumError("capillarity primitive is not finite: K(rho) turns "
                              "negative inside [1, rho] or rho is not positive")
        return l

    def rho_of_l(self, l):
        """Inverse of the primitive (l is strictly increasing in rho).

        The quantum, constant and linear laws invert in closed form.  Other
        laws bracket every point from one walk of probe densities per sign
        of l and then run a vectorized bracketed Brent solve on all points
        at once; the result is bit-identical to ``scipy.optimize.brentq``
        called point by point on the same brackets.
        """
        l = np.asarray(l, dtype=float)
        if self.kind == "quantum":
            return np.exp(l)
        if self.kind == "constant":
            return (1.0 + l / (2.0 * np.sqrt(self.K0))) ** 2
        if self.kind == "linear":
            return 1.0 + l
        flat = l.ravel()
        lo, hi = np.ones_like(flat), np.ones_like(flat)
        l_lo, l_hi = np.zeros_like(flat), np.zeros_like(flat)
        up = flat > 0
        down = ~up & (flat != 0)                # NaN walks down to the floor: VacuumError
        for side, upward in ((up, True), (down, False)):
            if not side.any():
                continue
            keys = flat[side]
            rho, vals = self._bracket_probes(keys.max() if upward else keys.min(), upward)
            # each key's bracket ends at the first probe that reaches it
            sign = 1.0 if upward else -1.0
            k = np.searchsorted(np.maximum.accumulate(sign * vals), sign * keys)
            a, b = (k - 1, k) if upward else (k, k - 1)
            lo[side], hi[side] = rho[a], rho[b]
            l_lo[side], l_hi[side] = vals[a], vals[b]
        out = np.ones_like(flat)                # l = 0 is rho = 1
        solve = up | down
        out[solve] = _brentq(self.l_of_rho, flat[solve], lo[solve], hi[solve],
                             l_lo[solve], l_hi[solve])
        return out.reshape(l.shape)

    def _bracket_probes(self, target, upward):
        """Probe densities (from rho = 1) and their primitives, up to ``target``.

        The walk doubles (or halves) rho and does not depend on the key it
        serves, so one walk to the most extreme key brackets every key of
        that sign.  It stops early where K(rho) turns nonpositive (the law's
        admissible window ends there).
        """
        rho, vals = [1.0], [float(self.l_of_rho(np.asarray(1.0)))]
        factor = 2.0
        while not (vals[-1] >= target if upward else vals[-1] <= target):
            nxt = rho[-1] * factor if upward else rho[-1] / factor
            if not (self.rho_floor <= nxt <= self.rho_ceil):
                raise VacuumError("primitive inversion left the admissible density window")
            try:
                val = float(self.l_of_rho(np.asarray(nxt)))
            except VacuumError:
                # stepped past the edge of the admissible window
                # (K turned nonpositive); creep toward it instead
                factor = np.sqrt(factor)
                if factor - 1.0 < 1e-12:
                    raise VacuumError("primitive value unreachable: capillarity "
                                      "vanishes before the target density")
                continue
            rho.append(nxt)
            vals.append(val)
        return np.array(rho), np.array(vals)

    def G(self, rho):
        """Pressure potential int_1^rho (g(s) - g(1)) ds for the energy."""
        rho = np.asarray(rho, dtype=float)
        g1 = float(self.g(np.asarray(1.0)))
        return _gauss_primitive(lambda s: np.asarray(self.g(s)) - g1, rho)


# scipy.optimize.brentq's defaults
_BRENT_XTOL = 2e-12
_BRENT_RTOL = 4 * np.finfo(float).eps
_BRENT_MAXITER = 100


def _brentq(fn, target, xa, xb, fa, fb):
    """Roots of fn(x) = target on the brackets [xa, xb], elementwise.

    A masked-array transcription of scipy's ``brentq`` (Brent 1973): the
    same tolerances, iteration cap and interpolate/extrapolate/bisect
    rules, applied to every bracket at once.  Points leave the active set
    as they converge, so each gets the bits a scalar ``brentq`` call
    returns.  ``fn`` acts elementwise, ``fa`` and ``fb`` are its values at
    the bracket ends, and fn - target changes sign on every bracket.
    """
    idx = np.arange(target.size)
    xpre, xcur = xa, xb
    fpre, fcur = fa - target, fb - target
    out = np.where(fpre == 0, xpre, xcur)    # final where a bracket end is the root
    keep = (fpre != 0) & (fcur != 0)
    idx, target, xpre, xcur, fpre, fcur = (a[keep] for a in (idx, target, xpre, xcur, fpre, fcur))
    xblk, fblk = np.zeros_like(xcur), np.zeros_like(xcur)
    spre, scur = np.zeros_like(xcur), np.zeros_like(xcur)
    for _ in range(_BRENT_MAXITER):
        new = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk = np.where(new, xpre, xblk)
        fblk = np.where(new, fpre, fblk)
        spre = np.where(new, xcur - xpre, spre)
        scur = np.where(new, spre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))

        delta = (_BRENT_XTOL + _BRENT_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        if done.any():
            out[idx[done]] = xcur[done]
            left = ~done
            (idx, target, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta,
             sbis) = (a[left] for a in (idx, target, xpre, xcur, xblk, fpre, fcur,
                                        fblk, spre, scur, delta, sbis))
        if idx.size == 0:
            return out

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            interpolated = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolated = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, interpolated, extrapolated)
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre = np.where(short, scur, sbis)
        scur = np.where(short, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = fn(xcur) - target
    raise RootSolveError(f"bracketed Brent solve did not converge in {_BRENT_MAXITER} "
                         f"iterations at {idx.size} points")


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _gauss_primitive(fn, rho):
    """int_1^rho fn(s) ds, vectorized over rho via fixed-order Gauss-Legendre.

    Exact for smooth integrands at the chosen order; avoids a Python
    loop over grid points.
    """
    rho = np.asarray(rho, dtype=float)
    half = (rho - 1.0) / 2.0
    mid = (rho + 1.0) / 2.0
    acc = np.zeros_like(rho)
    for xi, wi in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
        acc += wi * np.asarray(fn(mid + half * xi))
    return half * acc


def _default_pressure(g, dg):
    if g is None:
        return (lambda r: np.asarray(r, dtype=float) ** 2 - 1.0,
                lambda r: 2.0 * np.asarray(r, dtype=float))
    if dg is None:
        return g, lambda r: _derivative(g, np.asarray(r, dtype=float))
    return g, dg
