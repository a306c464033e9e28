"""Moving-focused-laser extraction: the double-Gaussian channel potential,
Newton tracking of its minimum (a continuation along the path in plain
floats, V' and V'' from one pair of Gaussians per iterate), the gap and
coupling profiles at the Gauss-Legendre nodes of the path from stacked
harmonic-basis eigensolves, the adiabatic moving-time integral, and the
multi-cycle yield.

Units: lengths in the confinement waist sigma_c, energies in
hbar^2 / (2 m sigma_c^2), so hbar = 1 and the mass is 1/2; times come out in
hbar over the energy unit.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, PhysicsDomainError
from .units import HBAR, RB87

__all__ = [
    "MASS",
    "DoubleGaussianPotential",
    "MovingSchedule",
    "time_unit",
    "track_minimum",
    "local_basis",
    "gap_and_element",
    "require_profile",
    "path_profile",
    "build_moving_schedule",
    "cycle_yield",
]

MASS = 0.5  # in units where hbar = 1 and energies are hbar^2/(2 m sigma_c^2)

_GH_ORDER = 96   # Gauss-Hermite nodes of the matrix elements
_COUPLING_FLOOR = 1e-8  # relative threshold for "nonzero" transition elements
_NEWTON_ITERATIONS = 50
_LONGEST_STEP = 0.1  # in s_c: the longest step of minimum tracking
_MIN_STEP = 1e-3  # in s_c: the shortest step minimum tracking halves down to
_FIRST_NODES = 32  # the first level that can be taken, checked against 16 and 8
# a profile holds ~32 bytes per element of points x (basis_size^2 + 128), and
# m Gauss-Legendre nodes solve an m x m companion matrix of about as many
# bytes per element: either stays within the pi pulse's ~110 MB
_MAX_PROFILE = 3_400_000


def time_unit(sigma_c: float) -> float:
    """The time unit hbar / (hbar^2 / 2 m sigma_c^2) in s, for the waist
    sigma_c in m and the Rb-87 mass m."""
    return HBAR / (HBAR ** 2 / (2.0 * RB87.mass * sigma_c ** 2))


@dataclass(frozen=True)
class DoubleGaussianPotential:
    """V(y) = -V_c exp(-2 y^2) - V_f exp(-2 (y-a)^2/s_f^2), with y broadcast
    against a when the displacement a is an array; the confinement waist is
    the length unit."""

    confine_depth: float
    focus_depth: float
    focus_waist: float
    displacement: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.confine_depth < 0 or self.focus_depth < 0:
            raise PhysicsDomainError("well depths must be >= 0")
        if self.focus_waist <= 0:
            raise PhysicsDomainError("the focus waist must be positive")

    def at(self, a) -> "DoubleGaussianPotential":
        return DoubleGaussianPotential(self.confine_depth, self.focus_depth,
                                       self.focus_waist, a)

    def value(self, y):
        y = np.asarray(y, dtype=float)
        return (-self.confine_depth * np.exp(-2.0 * y ** 2)
                - self.focus_depth * np.exp(-2.0 * (y - self.displacement) ** 2
                                            / self.focus_waist ** 2))

    def curvature(self, y):
        y = np.asarray(y, dtype=float)
        u = y - self.displacement
        sf2 = self.focus_waist ** 2
        return (self.confine_depth * 4.0 * (1.0 - 4.0 * y ** 2) * np.exp(-2.0 * y ** 2)
                + self.focus_depth * (4.0 / sf2) * (1.0 - 4.0 * u ** 2 / sf2)
                * np.exp(-2.0 * u ** 2 / sf2))

    def displacement_gradient(self, y):
        """dV/da, the analytic derivative of the focus Gaussian."""
        y = np.asarray(y, dtype=float)
        u = y - self.displacement
        return (-self.focus_depth * (4.0 * u / self.focus_waist ** 2)
                * np.exp(-2.0 * u ** 2 / self.focus_waist ** 2))


def track_minimum(p: DoubleGaussianPotential, a_path) -> np.ndarray:
    """Follow the potential minimum continuously connected to the focus well.

    a_path must increase from 0.  Each minimum is a Newton root of dV/dy
    started from the previous one, moved along the slope of the last two, in
    steps of at most 0.1 s_c.  A step whose root fails or jumps by more than
    max(3 step, 0.1 s_c) is halved, down to _MIN_STEP s_c; below that the
    tracked well has merged away, and a NumericsError reports the last valid
    displacement.
    """
    a_path = np.asarray(a_path, dtype=float)
    if a_path[0] != 0.0 or np.any(np.diff(a_path) < 0):
        raise PhysicsDomainError("a_path must increase monotonically from 0")
    wells = (float(p.confine_depth), float(p.focus_depth), float(p.focus_waist) ** 2)
    minima = []
    a_prev = y_prev = slope = 0.0
    for a in a_path.tolist():
        target = min(a, a_prev + _LONGEST_STEP)
        while True:
            step = target - a_prev
            root = _newton_minimum(wells, target, y_prev + slope * step)
            if root is None or (minima and abs(root - y_prev) > max(3.0 * step, _LONGEST_STEP)):
                if step <= _MIN_STEP:
                    raise NumericsError(
                        f"tracked well lost at a = {target}: the minimum merged away "
                        f"(last valid a = {a_prev}); the focus of speedup.focus_depth and "
                        "speedup.focus_waist_ratio holds no well that far")
                target = a_prev + 0.5 * step
                continue
            if step > 0.0:
                slope = (root - y_prev) / step
            a_prev, y_prev = target, root
            if target == a:
                break
            target = min(a, a_prev + _LONGEST_STEP)
        minima.append(y_prev)
    return np.array(minima)


def _newton_minimum(wells: tuple[float, float, float], a: float,
                    y: float) -> float | None:
    """Newton root of dV/dy from y at displacement a, or None when an iterate
    has V'' <= 0 or the iteration does not converge (no local minimum to
    follow).  wells is (V_c, V_f, s_f^2); V' and V'' (the expression of
    DoubleGaussianPotential.curvature) are evaluated in floats, sharing one
    pair of Gaussians per iterate."""
    vc, vf, sf2 = wells
    kc, kf = vc * 4.0, vf * (4.0 / sf2)
    for _ in range(_NEWTON_ITERATIONS):
        u = y - a
        y2, u2 = y * y, u * u
        gc = math.exp(-2.0 * y2)
        gf = math.exp(-2.0 * u2 / sf2)
        curv = kc * (1.0 - 4.0 * y2) * gc + kf * (1.0 - 4.0 * u2 / sf2) * gf
        if curv <= 0.0:
            return None
        step = (vc * (4.0 * y) * gc + vf * (4.0 * u / sf2) * gf) / curv
        y -= step
        if abs(step) <= 1e-12 * max(1.0, abs(y)):
            return y
    return None


def local_basis(p: DoubleGaussianPotential, y_min, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(H, dH/da): the Hamiltonian and displacement-coupling matrices of the
    full potential in `size` oscillator states at y_min, by quadrature.

    The local frequency is omega = sqrt(V''(y_min)/m); matrix elements of V
    and dV/da use Gauss-Hermite nodes matched to the basis Gaussian, the
    kinetic part is the exact ladder expression omega K.  y_min may be an
    array, paired with a displacement array of shape y_min.shape + (1,) in p,
    and the matrices then stack as y_min.shape + (size, size).
    """
    y = np.asarray(y_min, dtype=float)[..., None]
    curv = np.asarray(p.curvature(y), dtype=float)
    if np.any(curv <= 0.0):
        concave = np.broadcast_to(y, curv.shape)[curv <= 0.0]
        raise PhysicsDomainError(f"V''({concave[0]}) <= 0: no local oscillator basis")
    omega = np.sqrt(curv / MASS)
    nodes, weights = _gauss_hermite()
    x = nodes / np.sqrt(MASS * omega) + y
    rows, cols, pairs, kinetic = _basis_tables(size)

    def matrix(f):
        """<psi_m| f |psi_n> at every point, filled symmetric from one product."""
        m = np.empty(x.shape[:-1] + (size, size))
        m[..., rows, cols] = m[..., cols, rows] = (weights * f(x)) @ pairs
        return m

    return matrix(p.value) + omega[..., None] * kinetic, matrix(p.displacement_gradient)


@functools.cache
def _gauss_hermite() -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Hermite nodes and weights summing to 1 (the basis Gaussian's weight)."""
    from numpy.polynomial.hermite import hermgauss
    nodes, weights = hermgauss(_GH_ORDER)
    weights /= math.sqrt(math.pi)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.cache
def _basis_tables(size: int) -> tuple[np.ndarray, ...]:
    """The read-only point-independent tables of `size` oscillator states: the
    upper-triangle indices, the pair products and the kinetic matrix K."""
    from numpy.polynomial.hermite import hermvander
    # phi[k, n] = H_n(node_k) / sqrt(2^n n!), the point-independent part of psi_n;
    # column j of pairs is phi[:, m] phi[:, n] for the j-th upper-triangle (m, n)
    n = np.arange(size)
    phi = hermvander(_gauss_hermite()[0], size - 1) / np.sqrt(np.cumprod(np.maximum(2.0 * n, 1.0)))
    rows, cols = np.triu_indices(size)
    ladder = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0)) / 4.0
    kinetic = np.diag((2.0 * n + 1.0) / 4.0) - np.diag(ladder, 2) - np.diag(ladder, -2)
    tables = (rows, cols, phi[:, rows] * phi[:, cols], kinetic)
    for table in tables:
        table.flags.writeable = False
    return tables


def gap_and_element(p: DoubleGaussianPotential, a, y_min, size: int):
    """Diagonalise the local basis at displacement a and return the gap to
    the lowest excited state with a nonzero drive coupling, plus that
    coupling |<e| dH/da |g>|.

    a and y_min are arrays of one shape (0-d for one point); the gaps and
    couplings come back as arrays of that shape from one stacked eigh call.
    """
    a = np.asarray(a, dtype=float)
    hamiltonian, coupling = local_basis(p.at(a[..., None]), y_min, size)
    energies, vectors = np.linalg.eigh(hamiltonian)
    excited = np.swapaxes(vectors[..., 1:], -1, -2)
    couplings = np.abs(excited @ coupling @ vectors[..., :1])[..., 0]
    top = np.max(couplings, axis=-1, keepdims=True)
    if np.any(top == 0.0):
        uncoupled = np.broadcast_to(a, top.shape[:-1])[top[..., 0] == 0.0]
        raise PhysicsDomainError(f"all drive couplings vanish at a = {uncoupled[0]}: "
                                 "the focus of speedup.focus_depth does not move the well")
    index = np.argmax(couplings > _COUPLING_FLOOR * top, axis=-1)[..., None]
    gap = np.take_along_axis(energies, 1 + index, axis=-1)[..., 0] - energies[..., 0]
    element = np.take_along_axis(couplings, index, axis=-1)[..., 0]
    return gap, element


@dataclass(frozen=True)
class MovingSchedule:
    """Gap, coupling and depth profiles at the Gauss-Legendre nodes of
    [0, a_f], with the nodes' weights for int da."""

    displacements: np.ndarray
    weights: np.ndarray
    minima: np.ndarray
    gap_profile: np.ndarray
    element_profile: np.ndarray
    depth_profile: np.ndarray   # |V(y_min)| along the path, for scattering

    def __post_init__(self):
        if np.any(self.gap_profile <= 0.0):
            raise PhysicsDomainError("gap profile must be strictly positive")

    def integral(self, factor=1.0) -> float:
        """int factor |<e|dH/da|g>| / gap^2 da by the rule."""
        return float(np.dot(self.weights,
                            factor * self.element_profile / self.gap_profile ** 2))


def require_profile(points: int, basis_size: int):
    """Refuse a profile of `points` path points whose basis passes the
    Gauss-Hermite nodes or whose arrays pass the memory guard."""
    if basis_size > _GH_ORDER:
        raise NumericsError(f"speedup.basis_size = {basis_size} exceeds the "
                            f"{_GH_ORDER} Gauss-Hermite nodes")
    if points * (basis_size ** 2 + 128) > _MAX_PROFILE:
        raise NumericsError(f"speedup.profile_points = {points} path points x "
                            f"(speedup.basis_size^2 + 128) = {points * (basis_size ** 2 + 128)} "
                            f"exceeds {_MAX_PROFILE} (about 110 MB of arrays)")


def path_profile(p: DoubleGaussianPotential, a, basis_size: int):
    """(minima, gaps, elements) at the displacements a >= 0, in any order:
    the focus well tracked from 0 through the sorted points, then the gap and
    coupling at every point from one stacked eigh."""
    a = np.asarray(a, dtype=float)
    require_profile(a.size, basis_size)
    order = np.argsort(a, kind="stable")
    minima = np.empty_like(a)
    minima[order] = track_minimum(p, np.append(0.0, a[order]))[1:]
    return (minima, *gap_and_element(p, a, minima, basis_size))


@functools.cache
def _leggauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre nodes and weights of m points, only read."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(m)


def _levels(p: DoubleGaussianPotential, sizes, final_displacement: float,
            basis_size: int) -> list[MovingSchedule]:
    """The schedules on the Gauss-Legendre nodes of [0, a_f], one per size,
    profiled in one stack, since each stack has a fixed cost per call."""
    rules = [_leggauss(m) for m in sizes]
    half = 0.5 * final_displacement
    a = half * (np.concatenate([x for x, _ in rules]) + 1.0)
    minima, gaps, elements = path_profile(p, a, basis_size)
    table = np.array([a, minima, gaps, elements, np.abs(p.at(a).value(minima))])
    return [MovingSchedule(a, half * w, *profiles) for (_, w), (a, *profiles)
            in zip(rules, np.split(table, np.cumsum(sizes)[:-1], axis=1))]


def build_moving_schedule(p: DoubleGaussianPotential, final_displacement: float,
                          basis_size: int) -> MovingSchedule:
    """Track the focus well over [0, a_f] and profile gap, coupling and depth
    at the Gauss-Legendre nodes of the path.

    The levels of 8, 16 and 32 nodes come first, in one stack, then doubling
    ones, a stack each.  A level is taken once the moving-time integrals of
    successive levels differ less than the two before, which differ by at
    most 1%: one close pair alone can be a chance meeting of two rules that
    both miss a sharp feature.  A level whose nodes or profile would pass
    the memory guard is a NumericsError.
    """
    if final_displacement < 0:
        raise PhysicsDomainError("final displacement must be >= 0")
    m = _FIRST_NODES
    levels = _levels(p, (m // 4, m // 2, m), final_displacement, basis_size)
    schedule = levels[-1]
    i3, i2, i1 = (level.integral() for level in levels)
    while not abs(i1 - i2) <= abs(i2 - i3) <= 0.01 * abs(i2):   # a NaN never passes
        # numpy's leggauss solves a dense 2m x 2m matrix for the next nodes
        if 2 * m * max(2 * m, basis_size ** 2 + 128) > _MAX_PROFILE:
            raise NumericsError(
                f"moving-time integral not converged: {m} Gauss-Legendre nodes give "
                f"{i1:.6g}, {m // 2} give {i2:.6g} and {m // 4} give {i3:.6g}; "
                f"{2 * m} nodes would pass {_MAX_PROFILE} as ({2 * m})^2 or as "
                f"{2 * m} x (speedup.basis_size^2 + 128)")
        m *= 2
        (schedule,) = _levels(p, (m,), final_displacement, basis_size)
        i3, i2, i1 = i2, i1, schedule.integral()
    return schedule


def cycle_yield(cycles: int, per_cycle_fraction: float) -> float:
    """Fraction extracted after repeated melt/re-form cycles:
    1 - (1 - f)^cycles."""
    if cycles < 0:
        raise PhysicsDomainError("cycle count must be >= 0")
    if not 0.0 <= per_cycle_fraction <= 1.0:
        raise PhysicsDomainError("per-cycle fraction must lie in [0, 1]")
    return 1.0 - (1.0 - per_cycle_fraction) ** cycles
