"""Planar model system x' = -x + x^2 + y^2, y' = y(x + y).

x stands in for the dispersive (damped) component and y for the
transport (undamped) component; y' = y^2 on the invariant slice x = y
explains the 1/delta lifespan.  Integration uses an adaptive embedded
Runge-Kutta pair with event detection for the blow-up proxy.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConfigError

BLOW_CAP = 1e6


def _rhs(t, z):
    x, y = z
    return (-x + x * x + y * y, y * (x + y))


def _rhs_comparison(t, z):
    # pure transport comparison: y' = y^2, x frozen
    return (0.0, z[1] * z[1])


def integrate(x0: float, y0: float, T: float, tol: float = 1e-10,
              blow_cap: float = BLOW_CAP):
    """Adaptive trajectory on [0, T]; stops early at the blow cap.

    Returns ``(ts, xs, ys, blown)``.
    """
    if not 1e-12 <= tol <= 1e-6:
        raise ConfigError(f"tolerance {tol:g} outside [1e-12, 1e-6]")

    def blow(t, z):
        return abs(z[0]) + abs(z[1]) - blow_cap

    blow.terminal = True
    blow.direction = 1
    sol = solve_ivp(_rhs, (0.0, T), (x0, y0), rtol=tol, atol=tol,
                    events=blow, dense_output=False, max_step=T)
    return sol.t, sol.y[0], sol.y[1], bool(sol.t_events[0].size)


def lifespan(x0: float, y0: float, blow_cap: float = BLOW_CAP,
             T_max: float = 1e4, comparison: bool = False, tol: float = 1e-10):
    """First time |x| + |y| reaches the cap, or T_max (censored).

    ``comparison=True`` integrates y' = y^2 alone, whose exact blow-up
    time is 1/y(0).  Returns ``(T_obs, censored)``.
    """
    if blow_cap < 10:
        raise ConfigError("blow_cap must be at least 10")
    rhs = _rhs_comparison if comparison else _rhs

    def blow(t, z):
        return abs(z[0]) + abs(z[1]) - blow_cap

    blow.terminal = True
    blow.direction = 1
    sol = solve_ivp(rhs, (0.0, T_max), (x0, y0), rtol=tol, atol=1e-12, events=blow)
    if sol.t_events[0].size:
        return float(sol.t_events[0][0]), False
    return float(T_max), True


def ansatz_envelopes(eps: float, delta: float, tol: float = 1e-10):
    """Check |x| <= delta + 2 eps e^{-t} and |y| <= 2 delta on [0, 1/(12 delta)].

    Valid for eps, delta <= 1/16 with |x(0)| <= eps, |y(0)| <= delta.
    Returns ``(ok, margin)`` where margin is the worst slack (positive =
    envelope satisfied) over all accepted steps.
    """
    T = 1.0 / (12.0 * delta) if delta > 0 else 1e3
    ts, xs, ys, blown = integrate(eps, delta, T, tol=tol)
    slack_x = (delta + 2.0 * eps * np.exp(-ts)) - np.abs(xs)
    slack_y = 2.0 * delta - np.abs(ys)
    margin = float(min(slack_x.min(), slack_y.min()))
    return (not blown) and margin >= 0.0, margin


def lifespan_sweep(eps: float, deltas, blow_cap: float = BLOW_CAP,
                   T_max: float = 1e4):
    """Table of (delta, T_obs, censored) rows plus the fitted exponent.

    The exponent is the log-log slope of T_obs against delta over the
    uncensored rows; the 1/delta lifespan shows up as slope -1.
    """
    rows: List[Tuple[float, float, bool]] = []
    for d in deltas:
        T_obs, censored = lifespan(eps, d, blow_cap=blow_cap, T_max=T_max)
        rows.append((float(d), T_obs, censored))
    fit_rows = [(d, T) for d, T, c in rows if not c and d > 0]
    slope = float("nan")
    if len(fit_rows) >= 2:
        ld = np.log([d for d, _ in fit_rows])
        lt = np.log([T for _, T in fit_rows])
        slope = float(np.polyfit(ld, lt, 1)[0])
    return rows, slope
