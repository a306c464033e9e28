"""Moving-focused-laser extraction: the double-Gaussian channel potential,
harmonic-basis Hamiltonians along the displacement path, gap and coupling
profiles, the adiabatic moving-time integral, excitation/scattering
estimates, and the multi-cycle yield.

Units: lengths in the confinement waist sigma_c, energies in
hbar^2 / (2 m sigma_c^2), so hbar = 1 and the mass is 1/2; times come out in
hbar over the energy unit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import NumericsError, PhysicsDomainError
from .numerics import solve_scalar
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
    """V(y) = -V_c exp(-2 y^2/s_c^2) - V_f exp(-2 (y-a)^2/s_f^2)."""

    confine_depth: float
    focus_depth: float
    confine_waist: float = 1.0
    focus_waist: float = 0.5
    displacement: float = 0.0

    def __post_init__(self):
        if self.confine_depth < 0 or self.focus_depth < 0:
            raise PhysicsDomainError("well depths must be >= 0")
        if self.confine_waist <= 0 or self.focus_waist <= 0:
            raise PhysicsDomainError("waists must be positive")

    def at(self, a: float) -> "DoubleGaussianPotential":
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

    a_path must increase from 0.  Each step brackets the root of dV/dy
    nearest the previous minimum; if the tracked well merges away a
    NumericsError reports the last valid displacement.
    """
    a_path = np.asarray(a_path, dtype=float)
    if a_path[0] != 0.0 or np.any(np.diff(a_path) < 0):
        raise PhysicsDomainError("a_path must increase monotonically from 0")
    minima = np.empty_like(a_path)
    y_prev = 0.0
    window = 0.3 * p.focus_waist
    for i, a in enumerate(a_path):
        pa = p.at(float(a))
        if a == 0.0:
            root = 0.0 if pa.gradient(0.0) == 0.0 else _bracketed_root(pa, 0.0, window, a)
        else:
            root = _bracketed_root(pa, y_prev, window, float(a))
        step = a_path[i] - a_path[i - 1] if i else 0.0
        max_jump = max(3.0 * step, 0.1 * p.confine_waist)
        if pa.curvature(root) <= 0.0 or (i and abs(root - y_prev) > max_jump):
            raise NumericsError(
                f"tracked well lost at a = {a}: the minimum merged away "
                f"(last valid a = {a_path[max(i - 1, 0)]})")
        y_prev = root
        minima[i] = y_prev
    return minima


def _bracketed_root(pa: DoubleGaussianPotential, y_prev: float, window: float,
                    a: float) -> float:
    lo, hi = y_prev - window, y_prev + window
    grad = pa.gradient
    for _ in range(60):
        if grad(lo) < 0.0 <= grad(hi):
            return solve_scalar(lambda y: float(grad(y)), (lo, hi), tol=1e-14)
        if grad(lo) >= 0.0:
            lo -= 0.5 * window
        if grad(hi) < 0.0:
            hi += 0.25 * window
    raise NumericsError(f"minimum tracking lost its bracket at a = {a}")


@dataclass(frozen=True)
class BasisExpansion:
    """Harmonic-oscillator basis around a potential minimum and the
    Hamiltonian matrix of the full potential in that basis."""

    center: float
    size: int
    hamiltonian: np.ndarray
    coupling_operator: np.ndarray = field(repr=False, default=None)


def _hermite_values(size: int, x: np.ndarray) -> np.ndarray:
    h = np.zeros((size, x.size))
    h[0] = 1.0
    if size > 1:
        h[1] = 2.0 * x
    for n in range(2, size):
        h[n] = 2.0 * x * h[n - 1] - 2.0 * (n - 1) * h[n - 2]
    return h


def local_basis(p: DoubleGaussianPotential, y_min: float, size: int = 11) -> BasisExpansion:
    """Basis of `size` oscillator states at y_min with H_nm by quadrature.

    The local frequency is omega = sqrt(V''(y_min)/m); matrix elements of V
    and dV/da use Gauss-Hermite nodes matched to the basis Gaussian, the
    kinetic part is the exact ladder expression.
    """
    curv = float(p.curvature(y_min))
    if curv <= 0.0:
        raise PhysicsDomainError(f"V''({y_min}) <= 0: no local oscillator basis")
    omega = math.sqrt(curv / MASS)
    kappa = MASS * omega
    scale = 1.0 / math.sqrt(kappa)
    x = _GH_NODES * scale + y_min

    herm = _hermite_values(size, _GH_NODES)
    log_norm = np.array([-0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0))
                         for n in range(size)])
    psi = (kappa / math.pi) ** 0.25 * np.exp(log_norm)[:, None] * herm
    weights = _GH_WEIGHTS * scale

    h_pot = (psi * weights * p.value(x)) @ psi.T
    coupling = (psi * weights * p.displacement_gradient(x)) @ psi.T

    h_kin = np.zeros((size, size))
    for n in range(size):
        h_kin[n, n] = omega / 4.0 * (2 * n + 1)
        if n + 2 < size:
            h_kin[n, n + 2] = h_kin[n + 2, n] = -omega / 4.0 * math.sqrt((n + 1) * (n + 2))

    h = h_pot + h_kin
    h = 0.5 * (h + h.T)
    coupling = 0.5 * (coupling + coupling.T)
    return BasisExpansion(center=y_min, size=size, hamiltonian=h, coupling_operator=coupling)


def gap_and_element(p: DoubleGaussianPotential, a: float, y_min: float,
                    size: int = 11) -> tuple[float, float]:
    """Diagonalise the local basis at displacement a and return the gap to
    the lowest excited state with a nonzero drive coupling, plus that
    coupling |<e| dH/da |g>|."""
    basis = local_basis(p.at(a), y_min, size)
    energies, vectors = np.linalg.eigh(basis.hamiltonian)
    couplings = np.abs(vectors[:, 1:].T @ basis.coupling_operator @ vectors[:, 0])
    top = float(np.max(couplings))
    if top == 0.0:
        raise PhysicsDomainError(f"all drive couplings vanish at a = {a}")
    index = int(np.argmax(couplings > _COUPLING_FLOOR * top))
    return float(energies[1 + index] - energies[0]), float(couplings[index])


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
    a_grid = np.linspace(0.0, final_displacement, n_points)
    minima = track_minimum(p, a_grid)
    gaps = np.empty(n_points)
    elements = np.empty(n_points)
    for i, (a, ym) in enumerate(zip(a_grid, minima)):
        gaps[i], elements[i] = gap_and_element(p, float(a), float(ym), basis_size)
    depths = np.abs(np.array([p.at(float(a)).value(float(ym))
                              for a, ym in zip(a_grid, minima)]))
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
