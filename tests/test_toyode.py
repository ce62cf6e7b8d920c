"""Planar model system: x' = -x + x^2 + y^2, y' = y(x + y)."""

import numpy as np
import pytest

from ekwave.errors import ConfigError
from ekwave import toyode


def test_rhs_hand_values():
    # the vector field the integrator runs
    assert toyode._rhs(0.0, (0.0, 0.0)) == (0.0, 0.0)
    assert toyode._rhs(0.0, (1.0, 0.0)) == (0.0, 0.0)
    assert toyode._rhs(0.0, (0.0, 1.0)) == (1.0, 1.0)


def test_axis_invariance():
    ts, xs, ys, blown = toyode.integrate(0.3, 0.0, 5.0)
    assert not blown
    assert np.max(np.abs(ys)) <= 1e-12
    # on the axis, x in (0, 1) decays monotonically
    assert np.all(np.diff(xs) <= 1e-12)
    assert xs[-1] < 1e-2


def test_small_x_decays():
    _, xs, _, _ = toyode.integrate(0.01, 0.0, 10.0)
    assert xs[-1] <= 1e-4


def test_tolerance_window():
    with pytest.raises(ConfigError):
        toyode.integrate(0.1, 0.1, 1.0, tol=1e-3)


def test_ansatz_envelopes_at_one_sixteenth():
    eps = delta = 1.0 / 16.0
    ok, margin = toyode.ansatz_envelopes(eps, delta)
    assert ok and margin >= 0.0


def test_ansatz_envelopes_grid():
    # 5 x 5 sample of (eps, delta) up to 1/16
    for eps in np.linspace(1.0 / 80.0, 1.0 / 16.0, 5):
        for delta in np.linspace(1.0 / 80.0, 1.0 / 16.0, 5):
            ok, _ = toyode.ansatz_envelopes(eps, delta)
            assert ok


def test_comparison_lifespan_is_inverse_initial():
    T, censored = toyode.lifespan(0.0, 0.1, blow_cap=1e6, T_max=50.0,
                                  comparison=True)
    assert not censored
    assert abs(T - 10.0) <= 0.01


def test_origin_is_censored():
    T, censored = toyode.lifespan(0.0, 0.0, T_max=5.0)
    assert censored and T == 5.0


def test_blow_cap_guard():
    with pytest.raises(ConfigError):
        toyode.lifespan(0.1, 0.1, blow_cap=5.0)


def test_lifespan_scaling_one_over_delta():
    deltas = [0.1, 0.05, 0.025, 0.0125]
    rows, slope = toyode.lifespan_sweep(0.05, deltas)
    assert abs(slope - (-1.0)) <= 0.15
    products = [T * d for d, T, censored in rows if not censored]
    assert max(products) / min(products) <= 1.3
