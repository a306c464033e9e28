"""Short/long-period lattice geometry, site-resolved hyperfine detunings,
A/B site classification, the long-lattice turn-on ramp, and patterned
extraction counting.

The long lattice (LPOL) is formed by two beams intersecting at the angle
that makes its period exactly n short-lattice periods; its intensity
envelope cos^2(pi x / eta_l) peaks on the target (A) sites.  Its turn-on
is a transfer.HarmonicRamp of the A-site frequency, so the transfer module's
schedule and exact propagator serve it as they serve the microtrap handoff.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsDomainError
from .stark import light_shifts
from .transfer import HarmonicRamp
from .units import AtomSpecies, UnitSystem

__all__ = [
    "SuperlatticeConfig",
    "SiteDetunings",
    "lpol_period",
    "lpol_light_shifts",
    "site_hyperfine_detunings",
    "solve_intensity_for_delta",
    "lpol_ramp_time",
    "lpol_exposure",
    "pattern_yield",
]


@dataclass(frozen=True)
class SuperlatticeConfig:
    """Geometry and drive of the combined short + long lattice.

    spol_wavelength and lpol_wavelength in m, spol_depth in E_R,
    lpol_intensity in W/m^2, lpol_phase a length offset (m) of the LPOL
    antinode relative to site 0.
    """

    spol_wavelength: float = 850e-9
    spol_depth: float = 50.0
    pattern_period: int = 3
    lpol_wavelength: float = 787.6e-9
    lpol_intensity: float = 0.0
    lpol_phase: float = 0.0

    def __post_init__(self):
        if self.pattern_period < 3 or int(self.pattern_period) != self.pattern_period:
            raise PhysicsDomainError("pattern_period must be an integer >= 3")
        if self.spol_depth <= 0:
            raise PhysicsDomainError("spol_depth must be positive")
        if self.lpol_wavelength > self.pattern_period * self.spol_wavelength:
            raise PhysicsDomainError("no intersection angle exists: lambda_l > n lambda_s")
        if self.lpol_intensity < 0:
            raise PhysicsDomainError("lpol_intensity must be >= 0")


@dataclass(frozen=True)
class SiteDetunings:
    """Per-site A/B labels (A marks the extraction targets), positions (m) and
    logical-state shifts (E_R), and the worst-case A-B differential."""

    labels: tuple[str, ...]
    site_positions: tuple[float, ...]
    delta_e0: tuple[float, ...]
    delta_e1: tuple[float, ...]
    delta_diff: tuple[float, ...]
    delta: float


def lpol_period(n: int, lambda_s: float) -> float:
    """Long-lattice period eta_l = n lambda_s / 2."""
    return n * lambda_s / 2.0


def lpol_light_shifts(config: SuperlatticeConfig, species: AtomSpecies,
                      x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The LPOL shifts (dE0, dE1, dE1 - dE0) in E_R at positions x (m), under
    the envelope cos^2(pi (x - phase) / eta_l), 1 on the A sites at phase 0."""
    units = UnitSystem.for_lattice(species, config.spol_wavelength)
    eta_l = lpol_period(config.pattern_period, config.spol_wavelength)
    intensities = config.lpol_intensity * np.cos(np.pi * (x - config.lpol_phase) / eta_l) ** 2
    return tuple(units.energy_to_natural(shift) for shift in
                 light_shifts(species, config.lpol_wavelength, intensities)[:3])


def site_hyperfine_detunings(config: SuperlatticeConfig, species: AtomSpecies,
                             n_sites: int | None = None) -> SiteDetunings:
    """Evaluate the LPOL shifts at site centers and classify A/B sites.

    Sites sit at x_j = j lambda_s / 2.  The site with the largest
    differential shift in each period is the target A; delta is the A shift
    minus the largest B shift (worst case for microwave selectivity).
    Raises if the phase makes the per-period maximum ambiguous.
    """
    n = config.pattern_period
    count = n if n_sites is None else n_sites
    if count < n:
        raise PhysicsDomainError("need at least one full pattern period of sites")
    xs = np.arange(count) * config.spol_wavelength / 2.0
    e0, e1, diff = lpol_light_shifts(config, species, xs)

    # classify within the first period, then tile
    period_diff = diff[:n]
    a_index = int(np.argmax(period_diff))
    top = period_diff[a_index]
    scale = max(abs(top), 1e-30)
    tied = np.flatnonzero(np.abs(period_diff - top) <= 1e-9 * scale)
    if config.lpol_intensity > 0 and len(tied) > 1:
        raise PhysicsDomainError(
            f"ambiguous site pattern: sites {tied.tolist()} tie for the maximal shift; "
            "adjust lpol_phase")
    labels = np.where(np.arange(count) % n == a_index, "A", "B")
    delta = float(top - np.sort(period_diff)[-2])     # A minus the largest B shift

    return SiteDetunings(labels=tuple(labels.tolist()), site_positions=tuple(xs.tolist()),
                         delta_e0=tuple(e0.tolist()), delta_e1=tuple(e1.tolist()),
                         delta_diff=tuple(diff.tolist()), delta=delta)


def solve_intensity_for_delta(config: SuperlatticeConfig, species: AtomSpecies,
                              target_delta: float) -> float:
    """LPOL intensity (W/m^2) producing the requested A-B differential (E_R).

    delta is exactly linear in intensity, so a unit-intensity evaluation
    fixes the scale.
    """
    if target_delta < 0:
        raise PhysicsDomainError("target delta must be >= 0")
    if target_delta == 0:
        return 0.0
    per_unit = site_hyperfine_detunings(dataclasses.replace(config, lpol_intensity=1.0),
                                        species).delta
    if per_unit <= 0:
        raise PhysicsDomainError("differential shift is not positive at this wavelength")
    return target_delta / per_unit


def lpol_ramp_time(config: SuperlatticeConfig, species: AtomSpecies,
                   target_excitation: float = 1e-4,
                   delta_target: float | None = None) -> HarmonicRamp:
    """The LPOL turn-on ramp keeping band excitation below target, in natural
    units.

    The site-local frequency deepens from 2 sqrt(V_s) to 2 sqrt(V_s + |dE_A|)
    (E_R/hbar) where dE_A is the full differential shift on A sites, along
    the adiabatic schedule whose excitation ceiling is 4 xi^2 = target.
    """
    if not 0.0 < target_excitation < 0.1:
        raise PhysicsDomainError("target excitation must lie in (0, 0.1)")
    if delta_target is None:
        delta_target = site_hyperfine_detunings(config, species).delta
    if delta_target <= 0:
        raise PhysicsDomainError("ramp target unreachable: differential shift is zero")
    shift_a = delta_target / (1.0 - math.cos(math.pi / config.pattern_period) ** 2)
    return HarmonicRamp(initial_frequency=2.0 * math.sqrt(config.spol_depth),
                        adiabaticity=math.sqrt(target_excitation) / 2.0,
                        direction="deepen",
                        final_frequency=2.0 * math.sqrt(config.spol_depth + shift_a))


def lpol_exposure(ramp: HarmonicRamp) -> float:
    """Full-intensity-equivalent time int I dt / I_peak of one LPOL ramp, in
    natural units.

    The site depth omega^2/4 is linear in the LPOL intensity, so I / I_peak =
    (omega^2 - omega_i^2)/(omega_f^2 - omega_i^2), whose integral along the
    schedule is exactly T omega_i / (omega_i + omega_f).
    """
    w_i, w_f = ramp.initial_frequency, ramp.final_frequency
    return ramp.duration * w_i / (w_i + w_f)


def pattern_yield(total_sites: int, n: int, dimensions: int = 1) -> tuple[int, float]:
    """Extraction targets and their fraction for one atom per n sites.

    1-D keeps one site in n; 2-D keeps one site in n^2.
    """
    if total_sites < n:
        raise PhysicsDomainError("need at least one pattern period of sites")
    if dimensions not in (1, 2):
        raise PhysicsDomainError("dimensions must be 1 or 2")
    per = n if dimensions == 1 else n * n
    targets = total_sites // per
    return targets, targets / total_sites
