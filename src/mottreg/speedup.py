"""Moving-focused-laser extraction: the double-Gaussian channel potential,
Newton tracking of its minimum, the gap and coupling profiles of every path
point from one stacked harmonic-basis eigensolve, the adiabatic moving-time
integral, excitation/scattering estimates, and the multi-cycle yield.

Units: lengths in the confinement waist sigma_c, energies in
hbar^2 / (2 m sigma_c^2), so hbar = 1 and the mass is 1/2; times come out in
hbar over the energy unit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite import hermgauss, hermvander

from .errors import NumericsError, PhysicsDomainError
from .units import HBAR

__all__ = [
    "MASS",
    "DoubleGaussianPotential",
    "BasisExpansion",
    "MovingSchedule",
    "SpeedupUnits",
    "track_minimum",
    "local_basis",
    "gap_and_element",
    "build_moving_schedule",
    "moving_time",
    "FocusLaserModel",
    "excitation_and_scattering",
    "cycle_yield",
]

MASS = 0.5  # in units where hbar = 1 and energies are hbar^2/(2 m sigma_c^2)

_GH_NODES, _GH_WEIGHTS = hermgauss(96)
_COUPLING_FLOOR = 1e-8  # relative threshold for "nonzero" transition elements
_NEWTON_ITERATIONS = 50
# a profile holds ~32 bytes per element of n_points x (basis_size^2 + 128), the
# stacks and each point's rows at the nodes: at most the pi pulse's ~110 MB
_MAX_PROFILE = 3_400_000


@dataclass(frozen=True)
class SpeedupUnits:
    """SI anchors for the (sigma_c, hbar^2/2m sigma_c^2) unit system."""

    sigma_c: float      # m
    mass: float         # kg

    @property
    def energy(self) -> float:
        return HBAR ** 2 / (2.0 * self.mass * self.sigma_c ** 2)

    @property
    def time(self) -> float:
        return HBAR / self.energy


@dataclass(frozen=True)
class DoubleGaussianPotential:
    """V(y) = -V_c exp(-2 y^2/s_c^2) - V_f exp(-2 (y-a)^2/s_f^2), with y
    broadcast against a when the displacement a is an array."""

    confine_depth: float
    focus_depth: float
    confine_waist: float = 1.0
    focus_waist: float = 0.5
    displacement: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.confine_depth < 0 or self.focus_depth < 0:
            raise PhysicsDomainError("well depths must be >= 0")
        if self.confine_waist <= 0 or self.focus_waist <= 0:
            raise PhysicsDomainError("waists must be positive")

    def at(self, a) -> "DoubleGaussianPotential":
        return DoubleGaussianPotential(self.confine_depth, self.focus_depth,
                                       self.confine_waist, self.focus_waist, a)

    def value(self, y):
        y = np.asarray(y, dtype=float)
        return (-self.confine_depth * np.exp(-2.0 * y ** 2 / self.confine_waist ** 2)
                - self.focus_depth * np.exp(-2.0 * (y - self.displacement) ** 2
                                            / self.focus_waist ** 2))

    def gradient(self, y):
        y = np.asarray(y, dtype=float)
        u = y - self.displacement
        return (self.confine_depth * (4.0 * y / self.confine_waist ** 2)
                * np.exp(-2.0 * y ** 2 / self.confine_waist ** 2)
                + self.focus_depth * (4.0 * u / self.focus_waist ** 2)
                * np.exp(-2.0 * u ** 2 / self.focus_waist ** 2))

    def curvature(self, y):
        y = np.asarray(y, dtype=float)
        u = y - self.displacement
        sc2, sf2 = self.confine_waist ** 2, self.focus_waist ** 2
        return (self.confine_depth * (4.0 / sc2) * (1.0 - 4.0 * y ** 2 / sc2)
                * np.exp(-2.0 * y ** 2 / sc2)
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
    started from the previous one, moved along the slope of the last two;
    if the tracked well merges away a NumericsError reports the last valid
    displacement.
    """
    a_path = np.asarray(a_path, dtype=float)
    if a_path[0] != 0.0 or np.any(np.diff(a_path) < 0):
        raise PhysicsDomainError("a_path must increase monotonically from 0")
    minima = np.empty_like(a_path)
    y_prev = slope = 0.0
    for i, a in enumerate(a_path):
        step = a_path[i] - a_path[i - 1] if i else 0.0
        root = _newton_minimum(p.at(float(a)), y_prev + slope * step)
        max_jump = max(3.0 * step, 0.1 * p.confine_waist)
        if root is None or (i and abs(root - y_prev) > max_jump):
            raise NumericsError(
                f"tracked well lost at a = {a}: the minimum merged away "
                f"(last valid a = {a_path[max(i - 1, 0)]})")
        if step > 0.0:
            slope = (root - y_prev) / step
        y_prev = root
        minima[i] = y_prev
    return minima


def _newton_minimum(pa: DoubleGaussianPotential, y: float) -> float | None:
    """Newton root of dV/dy from y, or None when an iterate has V'' <= 0 or
    the iteration does not converge (no local minimum to follow)."""
    for _ in range(_NEWTON_ITERATIONS):
        curv = float(pa.curvature(y))
        if curv <= 0.0:
            return None
        step = float(pa.gradient(y)) / curv
        y -= step
        if abs(step) <= 1e-12 * max(1.0, abs(y)):
            return y
    return None


@dataclass(frozen=True)
class BasisExpansion:
    """Hamiltonian and dH/da matrices of the full potential in a
    harmonic-oscillator basis around a potential minimum; with arrays of
    minima the matrices stack along leading axes."""

    hamiltonian: np.ndarray
    coupling_operator: np.ndarray = field(repr=False)


def local_basis(p: DoubleGaussianPotential, y_min, size: int = 11) -> BasisExpansion:
    """Basis of `size` oscillator states at y_min with H_nm by quadrature.

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
    x = _GH_NODES / np.sqrt(MASS * omega) + y

    # phi[k, n] = H_n(node_k) / sqrt(2^n n!), the point-independent part of psi_n;
    # column j of pairs is phi[:, m] phi[:, n] for the j-th upper-triangle (m, n)
    n = np.arange(size)
    phi = hermvander(_GH_NODES, size - 1) / np.sqrt(np.cumprod(np.maximum(2.0 * n, 1.0)))
    rows, cols = np.triu_indices(size)
    pairs = phi[:, rows] * phi[:, cols]
    weights = _GH_WEIGHTS / math.sqrt(math.pi)

    def matrix(f):
        """<psi_m| f |psi_n> at every point, filled symmetric from one product."""
        m = np.empty(x.shape[:-1] + (size, size))
        m[..., rows, cols] = m[..., cols, rows] = (weights * f(x)) @ pairs
        return m

    ladder = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0)) / 4.0
    kinetic = np.diag((2.0 * n + 1.0) / 4.0) - np.diag(ladder, 2) - np.diag(ladder, -2)
    return BasisExpansion(hamiltonian=matrix(p.value) + omega[..., None] * kinetic,
                          coupling_operator=matrix(p.displacement_gradient))


def gap_and_element(p: DoubleGaussianPotential, a, y_min, size: int = 11):
    """Diagonalise the local basis at displacement a and return the gap to
    the lowest excited state with a nonzero drive coupling, plus that
    coupling |<e| dH/da |g>|.

    a and y_min may be arrays of one shape; the gaps and couplings then come
    back as arrays of that shape from one stacked eigh call.
    """
    a = np.asarray(a, dtype=float)
    basis = local_basis(p.at(a[..., None]), y_min, size)
    energies, vectors = np.linalg.eigh(basis.hamiltonian)
    excited = np.swapaxes(vectors[..., 1:], -1, -2)
    couplings = np.abs(excited @ basis.coupling_operator @ vectors[..., :1])[..., 0]
    top = np.max(couplings, axis=-1, keepdims=True)
    if np.any(top == 0.0):
        uncoupled = np.broadcast_to(a, top.shape[:-1])[top[..., 0] == 0.0]
        raise PhysicsDomainError(f"all drive couplings vanish at a = {uncoupled[0]}")
    index = np.argmax(couplings > _COUPLING_FLOOR * top, axis=-1)[..., None]
    gap = np.take_along_axis(energies, 1 + index, axis=-1)[..., 0] - energies[..., 0]
    element = np.take_along_axis(couplings, index, axis=-1)[..., 0]
    if gap.ndim == 0:
        return float(gap), float(element)
    return gap, element


@dataclass(frozen=True)
class MovingSchedule:
    """Sampled gap/coupling profiles along the focus displacement path."""

    final_displacement: float
    adiabaticity: float
    displacements: np.ndarray
    minima: np.ndarray
    gap_profile: np.ndarray
    element_profile: np.ndarray
    depth_profile: np.ndarray   # |V(y_min)| along the path, for scattering

    def __post_init__(self):
        if np.any(self.gap_profile <= 0.0):
            raise PhysicsDomainError("gap profile must be strictly positive")


def build_moving_schedule(p: DoubleGaussianPotential, final_displacement: float,
                          adiabaticity: float, n_points: int = 161,
                          basis_size: int = 11) -> MovingSchedule:
    """Track the focus well over [0, a_f] and profile gap, coupling, depth."""
    if final_displacement < 0:
        raise PhysicsDomainError("final displacement must be >= 0")
    if adiabaticity <= 0:
        raise PhysicsDomainError("adiabaticity must be positive")
    if basis_size > len(_GH_NODES):
        raise NumericsError(f"speedup.basis_size = {basis_size} exceeds the "
                            f"{len(_GH_NODES)} Gauss-Hermite nodes")
    if n_points * (basis_size ** 2 + 128) > _MAX_PROFILE:
        raise NumericsError(f"speedup.profile_points x (speedup.basis_size^2 + 128) = "
                            f"{n_points * (basis_size ** 2 + 128)} exceeds {_MAX_PROFILE} "
                            "(about 110 MB of arrays)")
    a_grid = np.linspace(0.0, final_displacement, n_points)
    minima = track_minimum(p, a_grid)
    gaps, elements = gap_and_element(p, a_grid, minima, basis_size)
    depths = np.abs(p.at(a_grid).value(minima))
    return MovingSchedule(final_displacement=final_displacement,
                          adiabaticity=adiabaticity, displacements=a_grid,
                          minima=minima, gap_profile=gaps,
                          element_profile=elements, depth_profile=depths)


def moving_time(schedule: MovingSchedule) -> float:
    """T = int |<e|dH/da|g>| / (xi_bar gap^2) da by trapezoid, with a
    half-grid consistency check (< 1% change required)."""
    if schedule.final_displacement == 0.0:
        return 0.0
    integrand = schedule.element_profile / schedule.gap_profile ** 2
    a = schedule.displacements
    full = float(np.trapezoid(integrand, a))
    half = float(np.trapezoid(integrand[::2], a[::2]))
    if abs(full - half) > 0.01 * abs(full):
        raise NumericsError(
            f"moving-time integral not converged on this grid "
            f"(full {full:.6g} vs half {half:.6g}); increase profile points")
    return full / schedule.adiabaticity


@dataclass(frozen=True)
class FocusLaserModel:
    """Scattering model of the focused beam: an effective linewidth for the
    detuned transition (a calibrated constant, not derived) and the beam
    detuning, both rad/s."""

    effective_linewidth: float
    detuning: float

    def __post_init__(self):
        if self.effective_linewidth <= 0 or self.detuning == 0.0:
            raise PhysicsDomainError("laser model needs a linewidth and nonzero detuning")


def excitation_and_scattering(schedule: MovingSchedule,
                              laser: FocusLaserModel) -> tuple[float, float]:
    """(P_exc, P_scatter) for one extraction move.

    P_exc is the adiabatic amplitude ceiling 4 xi_bar^2.  P_scatter is
    int Gamma_eff V(t)/(hbar |Delta_0|) dt along the move; with dt taken from
    the adiabatic schedule this reduces to (Gamma_eff/|Delta_0|) times the
    natural-units integral of |V(y_min)| over time.
    """
    if laser is None:
        raise PhysicsDomainError("a focus laser model is required")
    p_exc = 4.0 * schedule.adiabaticity ** 2
    if schedule.final_displacement == 0.0:
        return p_exc, 0.0
    integrand = (schedule.depth_profile * schedule.element_profile
                 / schedule.gap_profile ** 2)
    depth_time = float(np.trapezoid(integrand, schedule.displacements))
    p_scatter = (laser.effective_linewidth / abs(laser.detuning)
                 * depth_time / schedule.adiabaticity)
    return p_exc, p_scatter


def cycle_yield(cycles: int, per_cycle_fraction: float = 1.0 / 3.0) -> float:
    """Fraction extracted after repeated melt/re-form cycles:
    1 - (1 - f)^cycles."""
    if cycles < 0:
        raise PhysicsDomainError("cycle count must be >= 0")
    if not 0.0 <= per_cycle_fraction <= 1.0:
        raise PhysicsDomainError("per-cycle fraction must lie in [0, 1]")
    return 1.0 - (1.0 - per_cycle_fraction) ** cycles
