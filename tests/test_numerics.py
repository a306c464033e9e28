"""Numerical kernels against closed forms and independent oracles."""
import math

import numpy as np
import pytest

from mottreg.errors import PhysicsDomainError
from mottreg.numerics import expm, solve_scalar


# ---------------------------------------------------------------------------
# solve_scalar
# ---------------------------------------------------------------------------

def test_solve_scalar_sqrt2():
    root = solve_scalar(lambda x: x * x - 2.0, (1.0, 2.0))
    assert abs(root - math.sqrt(2.0)) < 1e-12


def test_solve_scalar_requires_sign_change():
    with pytest.raises(PhysicsDomainError, match="sign change"):
        solve_scalar(lambda x: x * x + 1.0, (0.0, 1.0))


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
