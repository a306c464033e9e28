"""Numerical kernels against closed forms and independent oracles."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mottreg.errors import NumericsError, PhysicsDomainError
from mottreg.numerics import expm, solve_scalar


# ---------------------------------------------------------------------------
# solve_scalar
# ---------------------------------------------------------------------------

def test_solve_scalar_sqrt2():
    root = solve_scalar(lambda x: x * x - 2.0, (1.0, 2.0))
    assert abs(root - math.sqrt(2.0)) < 1e-12
    # a residual of exactly 0 at either end of the bracket returns that end
    assert solve_scalar(lambda x: x * x - 1.0, (1.0, 2.0)) == 1.0
    assert solve_scalar(lambda x: x * x - 4.0, (1.0, 2.0)) == 2.0


def test_solve_scalar_requires_sign_change():
    with pytest.raises(PhysicsDomainError, match="sign change"):
        solve_scalar(lambda x: x * x + 1.0, (0.0, 1.0))


def test_solve_scalar_sign_tests_survive_tiny_values():
    # products of residuals near 1e-160 underflow to zero
    root = solve_scalar(lambda x: 1e-160 * (x * x - 2.0), (0.0, 100.0))
    assert abs(root - math.sqrt(2.0)) < 1e-12
    with pytest.raises(PhysicsDomainError, match="sign change"):
        solve_scalar(lambda x: 1e-160 * (x * x + 1.0), (0.0, 1.0))


def _changes_sign(u: float, v: float) -> bool:
    return u == 0.0 or v == 0.0 or (u > 0.0) != (v > 0.0)


_FUNCTIONS = {
    "cubic": lambda c: lambda x: x ** 3 - c,
    "exp": lambda c: lambda x: math.exp(x) - math.exp(c),
    "falling atan": lambda c: lambda x: math.atan(c) - math.atan(x),
    "tiny": lambda c: lambda x: 1e-300 * (x - c) * (1.0 + x * x),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(_FUNCTIONS)), c=st.floats(-30.0, 30.0),
       below=st.floats(1e-12, 50.0), above=st.floats(1e-12, 50.0))
@example(kind="cubic", c=2.0, below=1.0, above=1.0)
def test_solve_scalar_ends_on_adjacent_floats_across_the_root(kind, c, below, above):
    # the root lies between x and its neighbouring float toward one end, and
    # a reversed bracket finds the same x
    f = _FUNCTIONS[kind](c)
    root = math.copysign(abs(c) ** (1.0 / 3.0), c) if kind == "cubic" else c
    lo, hi = root - below, root + above
    x = solve_scalar(f, (lo, hi))
    assert lo <= x <= hi
    fx = f(x)
    assert fx == 0.0 or any(_changes_sign(fx, f(math.nextafter(x, end))) for end in (lo, hi))
    assert solve_scalar(f, (hi, lo)) == x


def test_solve_scalar_refuses_nan():
    # a NaN fails every sign test, so the search would stop at an arbitrary point
    with pytest.raises(NumericsError, match="NaN"):
        solve_scalar(lambda x: math.nan if x > 0.5 else x - 1.0, (0.0, 2.0))
    with pytest.raises(NumericsError, match="NaN"):
        solve_scalar(lambda x: math.nan, (0.0, 1.0))
    with pytest.raises(NumericsError, match="NaN at 0.5"):
        solve_scalar(lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, (0.0, 1.0))


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
    with pytest.raises(PhysicsDomainError, match="square"):
        expm(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


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
