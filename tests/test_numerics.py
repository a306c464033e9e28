"""Numerical kernels against closed forms and independent oracles."""
import math

import numpy as np
import pytest

from mottreg.errors import NumericsError, PhysicsDomainError
from mottreg.numerics import (OdeProblem, expm, integrate_ode, minimize_scalar,
                              solve_scalar)


# ---------------------------------------------------------------------------
# integrate_ode
# ---------------------------------------------------------------------------

def test_ode_exponential_decay():
    problem = OdeProblem(1, lambda t, y: -y, np.array([1.0]), (0.0, 1.0),
                         rel_tol=1e-10, abs_tol=1e-12)
    traj = integrate_ode(problem)
    assert abs(traj.final_state[0] - math.exp(-1.0)) < 1e-10
    assert traj.n_steps > 0


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10])
def test_ode_harmonic_energy_conservation(rel_tol):
    problem = OdeProblem(2, lambda t, y: np.array([y[1], -y[0]]),
                         np.array([1.0, 0.0]), (0.0, 20 * math.pi),
                         rel_tol=rel_tol, abs_tol=1e-14)
    traj = integrate_ode(problem)
    energy = traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2
    assert np.max(np.abs(energy - 1.0)) < 10 * rel_tol


def test_ode_resonant_rabi_inversion():
    # oracle: closed-form Rabi solution, full inversion after area pi
    omega = 2.3

    def rhs(t, c):
        return np.array([-1j * 0.5 * omega * c[1], -1j * 0.5 * omega * c[0]])

    problem = OdeProblem(2, rhs, np.array([1.0 + 0j, 0j]), (0.0, math.pi / omega),
                         rel_tol=1e-11, abs_tol=1e-13)
    traj = integrate_ode(problem)
    assert abs(abs(traj.final_state[1]) ** 2 - 1.0) < 1e-10


def test_ode_dense_output_matches_exact_solution():
    problem = OdeProblem(1, lambda t, y: -y, np.array([1.0]), (0.0, 3.0),
                         rel_tol=1e-9, abs_tol=1e-12)
    traj = integrate_ode(problem)
    ts = np.linspace(0.0, 3.0, 153)
    errs = np.abs(traj.sample(ts)[:, 0] - np.exp(-ts))
    assert np.max(errs) < 5e-8


def test_ode_tolerance_halving_reduces_error_on_shipped_problems():
    """Halving rel_tol improves the final state on each shipped physics
    problem (detuned Rabi pulse, adiabatic two-level ramp, Bloch equations)."""

    def rabi_pulse(t, c):
        half = 0.5 * 23.0419 * math.exp(-(13.0 * t) ** 2)
        return np.array([-1j * half * c[1], -1j * (half * c[0] - 52.0 * c[1])])

    b = 4 * math.sqrt(2) * 0.005 * 14.142135623730951

    def adiabatic(t, c):
        w = 14.142135623730951 / (1.0 - b * t)
        return np.array([-1j * (0.5 * w * c[0] + 1j * 0.005 * 2 * w * c[1]),
                         -1j * (-1j * 0.005 * 2 * w * c[0] + 2.5 * w * c[1])])

    def bloch(t, z):
        gamma, om, dt = 1.0, 3.0, 2.0
        u, v, w = z
        return np.array([dt * v - gamma / 2 * u,
                         -dt * u + om * w - gamma / 2 * v,
                         -om * v - gamma * (w + 1.0)])

    cases = [
        (2, rabi_pulse, np.array([1.0 + 0j, 0j]), (-5 / 13, 5 / 13)),
        (2, adiabatic, np.array([1.0 + 0j, 0j]), (0.0, 1.875)),
        (3, bloch, np.array([0.0, 0.0, -1.0]), (0.0, 8.0)),
    ]
    for dim, rhs, y0, span in cases:
        ref = integrate_ode(OdeProblem(dim, rhs, y0, span, 1e-12, 1e-14)).final_state
        errs = []
        for tol in (1e-5, 5e-6):
            got = integrate_ode(OdeProblem(dim, rhs, y0, span, tol, 1e-14)).final_state
            errs.append(float(np.max(np.abs(got - ref))))
        assert errs[1] < errs[0]


def test_ode_blowup_raises_stiffness_error():
    problem = OdeProblem(1, lambda t, y: y * y, np.array([1.0]), (0.0, 2.0),
                         rel_tol=1e-8, abs_tol=1e-10)
    with pytest.raises(NumericsError, match="step size underflow"):
        integrate_ode(problem)


def test_ode_problem_validation():
    with pytest.raises(PhysicsDomainError):
        OdeProblem(2, lambda t, y: y, np.array([1.0]), (0.0, 1.0))
    with pytest.raises(PhysicsDomainError):
        OdeProblem(1, lambda t, y: y, np.array([1.0]), (1.0, 1.0))
    with pytest.raises(PhysicsDomainError):
        OdeProblem(1, lambda t, y: y, np.array([1.0]), (0.0, 1.0), rel_tol=2.0)


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
