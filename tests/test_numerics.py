"""Numerical kernels against closed forms and independent oracles."""
import math

import numpy as np
import pytest

from mottreg.errors import PhysicsDomainError
from mottreg.numerics import expm, minimize_scalar, solve_scalar


# ---------------------------------------------------------------------------
# solve_scalar / minimize_scalar
# ---------------------------------------------------------------------------

def test_solve_scalar_sqrt2():
    root = solve_scalar(lambda x: x * x - 2.0, (1.0, 2.0))
    assert abs(root - math.sqrt(2.0)) < 1e-12


def test_solve_scalar_requires_sign_change():
    with pytest.raises(PhysicsDomainError, match="sign change"):
        solve_scalar(lambda x: x * x + 1.0, (0.0, 1.0))


def test_minimize_parabola():
    x, fx = minimize_scalar(lambda x: (x - 3.0) ** 2, (0.0, 10.0))
    assert abs(x - 3.0) < 1e-7
    assert fx < 1e-13


def test_minimize_double_gaussian_vs_grid_oracle():
    def well(x):
        return (-1.0 * math.exp(-2 * x ** 2)
                - 1.4 * math.exp(-8 * (x - 0.9) ** 2))

    # oracle: 1e6-point dense scan
    xs = np.linspace(0.0, 1.5, 1_000_001)
    vals = -1.0 * np.exp(-2 * xs ** 2) - 1.4 * np.exp(-8 * (xs - 0.9) ** 2)
    x_grid = xs[int(np.argmin(vals))]
    x_min, _ = minimize_scalar(well, (0.5, 1.5), tol=1e-12)
    assert abs(x_min - x_grid) <= 2 * (xs[1] - xs[0])


# ---------------------------------------------------------------------------
# expm
# ---------------------------------------------------------------------------

def test_expm_rotation():
    th = 0.7
    r = expm(np.array([[0.0, -th], [th, 0.0]]))
    expected = np.array([[math.cos(th), -math.sin(th)],
                         [math.sin(th), math.cos(th)]])
    assert np.max(np.abs(r - expected)) < 1e-14


def test_expm_nilpotent():
    r = expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(r, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


def test_expm_vs_taylor_series_oracle():
    rng = np.random.default_rng(3)
    a = 0.5 * rng.standard_normal((5, 5))
    series = np.eye(5)
    term = np.eye(5)
    for k in range(1, 40):
        term = term @ a / k
        series = series + term
    assert np.max(np.abs(expm(a) - series)) < 1e-13


def test_expm_large_norm_scaling():
    a = np.array([[0.0, -40.0], [40.0, 0.0]])
    r = expm(a)
    expected = np.array([[math.cos(40.0), -math.sin(40.0)],
                         [math.sin(40.0), math.cos(40.0)]])
    assert np.max(np.abs(r - expected)) < 1e-11
