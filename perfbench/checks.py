"""Checks of the program's outputs against separate computations and the
properties the method must satisfy.

Each check holds the program's value and a test of it.  It also holds the
same value with a deliberate error, which the test must reject: a check that
accepts a perturbed value checks nothing, and fails the run as well.  The
separate computations use scipy directly and share no code with mottreg
beyond its input conventions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

PERTURBATION = 1e-2   # relative error fed to each check; every tolerance is below it


@dataclass
class Check:
    name: str
    test: Callable[[Any], bool]
    value: Any
    perturbed: Any


def _perturb(value):
    if isinstance(value, bytes):
        return value[:-1] + bytes([value[-1] ^ 1]) if value else b"x"
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value * (1.0 + PERTURBATION) if value != 0.0 else PERTURBATION


def close(name: str, got: float, want: float, rtol: float = 0.0,
          atol: float = 0.0) -> Check:
    def test(v):
        return math.isfinite(v) and abs(v - want) <= atol + rtol * abs(want)
    return Check(name, test, got, _perturb(got))


def equal(name: str, got, want) -> Check:
    return Check(name, lambda v: v == want, got, _perturb(got))


def failure_aggregation(name: str, total: float, channels,
                        rtol: float = 1e-12) -> list[Check]:
    """total = 1 - prod(1 - p) and 0 <= sum(p) - total <= sum(p)^2."""
    channels = [float(p) for p in channels]
    channel_sum = sum(channels)
    independent = 1.0 - math.prod(1.0 - p for p in channels)

    def gap_ok(v):
        return 0.0 <= channel_sum - v <= channel_sum ** 2
    return [close(name + ": total_failure = 1 - prod(1 - p)", total, independent,
                  rtol=rtol, atol=1e-18),
            Check(name + ": 0 <= channel_sum - total_failure <= channel_sum^2",
                  gap_ok, total, _perturb(total))]


def run(checks: list[Check]) -> list[str]:
    """Names of the checks that fail or that accept their perturbed value."""
    problems = []
    for c in checks:
        if not c.test(c.value):
            problems.append(f"check failed: {c.name} (value {c.value!r:.80})")
        if c.test(c.perturbed):
            problems.append(f"check accepts a perturbed value: {c.name}")
    return problems


# ---------------------------------------------------------------------------
# separate computations
# ---------------------------------------------------------------------------

def pulse_flip_reference(omega0: float, t_f: float, detuning: float) -> float:
    """Flip probability of the Gaussian pi pulse by scipy's DOP853, with the
    pulse area in closed form: Omega0 = pi omega0 / (sqrt(pi) erf(omega0 t_f))."""
    from scipy.integrate import solve_ivp
    from scipy.special import erf

    peak = math.pi * omega0 / (math.sqrt(math.pi) * erf(omega0 * t_f))

    def rhs(t, c):
        half = 0.5 * peak * math.exp(-(omega0 * t) ** 2)
        return [-1j * half * c[1], -1j * (half * c[0] - detuning * c[1])]

    sol = solve_ivp(rhs, (-t_f, t_f), np.array([1.0 + 0j, 0j]), method="DOP853",
                    rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"reference pulse solve failed: {sol.message}")
    return float(abs(sol.y[1, -1]) ** 2)


def transfer_max_excitation_reference(lattice_depth: float, xi: float,
                                      ratio: float, n_samples: int = 1500) -> float:
    """max P_e of the deepening ramp from the exact propagator exp(-i A tau(t)),
    A = [[1/2, 2i xi], [-2i xi, 5/2]], tau = -(omega0/b) ln(1 - b t)."""
    omega0 = 2.0 * math.sqrt(lattice_depth)
    b = 4.0 * math.sqrt(2.0) * xi * omega0
    duration = (1.0 - 1.0 / ratio) / b
    tau = -(omega0 / b) * np.log1p(-b * np.linspace(0.0, duration, n_samples))
    a = np.array([[0.5, 2j * xi], [-2j * xi, 2.5]])
    energies, vectors = np.linalg.eigh(a)
    coefficients = vectors.conj().T @ np.array([1.0, 0.0])
    excited = (np.exp(-1j * np.outer(tau, energies)) * coefficients) @ vectors[1]
    return float(np.max(np.abs(excited) ** 2))


def moving_time_reference(confine_depth: float, focus_depth: float,
                          focus_waist: float, final_displacement: float,
                          xi_bar: float, n_points: int, sigma_c: float,
                          mass: float) -> float:
    """Scheme-2 moving time (ms) by finite differences along the focus path.

    At each displacement the channel Hamiltonian -d^2/dy^2 + V(y; a) (units
    hbar^2/(2 m sigma_c^2), lengths in sigma_c) is diagonalised on a grid
    around the tracked minimum; T = int |<e|dV/da|g>| / (xi_bar gap^2) da.
    """
    from scipy.constants import hbar
    from scipy.linalg import eigh_tridiagonal
    from scipy.optimize import minimize_scalar

    def potential(y, a):
        return (-confine_depth * np.exp(-2.0 * y ** 2)
                - focus_depth * np.exp(-2.0 * (y - a) ** 2 / focus_waist ** 2))

    def d_potential_da(y, a):
        u = y - a
        return -focus_depth * 4.0 * u / focus_waist ** 2 * np.exp(-2.0 * u ** 2 / focus_waist ** 2)

    displacements = np.linspace(0.0, final_displacement, n_points)
    integrand = np.empty(n_points)
    y_min = 0.0
    for i, a in enumerate(displacements):
        y_min = minimize_scalar(lambda y: float(potential(y, a)), method="bounded",
                                bounds=(y_min - 0.3 * focus_waist, y_min + 0.3 * focus_waist),
                                options={"xatol": 1e-10}).x
        y = np.linspace(y_min - 0.8, y_min + 0.8, 801)[1:-1]
        h = y[1] - y[0]
        energies, states = eigh_tridiagonal(2.0 / h ** 2 + potential(y, a),
                                            np.full(y.size - 1, -1.0 / h ** 2),
                                            select="i", select_range=(0, 6))
        couplings = np.abs(states[:, 1:].T @ (d_potential_da(y, a) * states[:, 0]))
        k = int(np.argmax(couplings > 1e-8 * couplings.max()))
        integrand[i] = couplings[k] / (energies[1 + k] - energies[0]) ** 2
    time_unit = 2.0 * mass * sigma_c ** 2 / hbar
    return float(np.trapezoid(integrand, displacements)) / xi_bar * time_unit * 1e3
