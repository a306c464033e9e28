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

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsDomainError
from .stark import light_shifts
from .transfer import HarmonicRamp, initial_frequency
from .units import RB87, recoil_energy

__all__ = [
    "SuperlatticeConfig",
    "SiteDetunings",
    "lpol_period",
    "lpol_light_shifts",
    "site_hyperfine_detunings",
    "lpol_ramp_time",
    "lpol_exposure",
    "pattern_yield",
]


@dataclass(frozen=True)
class SuperlatticeConfig:
    """Geometry of the combined short + long lattice.

    spol_wavelength and lpol_wavelength in m, spol_depth in E_R, lpol_phase
    a length offset (m) of the LPOL antinode relative to site 0.
    """

    spol_wavelength: float
    spol_depth: float
    pattern_period: int
    lpol_wavelength: float
    lpol_phase: float

    def __post_init__(self):
        if self.pattern_period < 3 or int(self.pattern_period) != self.pattern_period:
            raise PhysicsDomainError("pattern_period must be an integer >= 3")
        if self.spol_depth <= 0:
            raise PhysicsDomainError("spol_depth must be positive")
        if self.lpol_wavelength > self.pattern_period * self.spol_wavelength:
            raise PhysicsDomainError(
                "no intersection angle exists: lattice.lpol_wavelength_nm exceeds "
                "lattice.pattern_period x lattice.lambda_s_nm")


@dataclass(frozen=True)
class SiteDetunings:
    """Per-site A/B labels (A marks the extraction targets), positions (m) and
    logical-state shifts (E_R), the worst-case A-B differential, the A site's
    scattering rate max(gamma0, gamma1) (1/s), and the LPOL peak intensity
    (W/m^2) that gives them."""

    labels: tuple[str, ...]
    site_positions: tuple[float, ...]
    delta_e0: tuple[float, ...]
    delta_e1: tuple[float, ...]
    delta_diff: tuple[float, ...]
    delta: float
    gamma_a: float
    intensity: float


def lpol_period(n: int, lambda_s: float) -> float:
    """Long-lattice period eta_l = n lambda_s / 2."""
    return n * lambda_s / 2.0


def _envelope(config: SuperlatticeConfig, x: np.ndarray) -> np.ndarray:
    """The LPOL intensity envelope cos^2(pi (x - phase) / eta_l) at positions x (m)."""
    eta_l = lpol_period(config.pattern_period, config.spol_wavelength)
    return np.cos(np.pi * (x - config.lpol_phase) / eta_l) ** 2


def lpol_light_shifts(config: SuperlatticeConfig, intensity: float,
                      x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Rb-87 shifts (dE0, dE1, dE1 - dE0) in E_R and the scattering rate
    max(gamma0, gamma1) in 1/s at positions x (m) of an LPOL of peak
    `intensity` (W/m^2) under the envelope, 1 on the A sites at phase 0."""
    e_r = recoil_energy(config.spol_wavelength, RB87.mass)
    de0, de1, diff, gamma0, gamma1 = light_shifts(
        RB87, config.lpol_wavelength, intensity * _envelope(config, x))
    return (*(shift / e_r for shift in (de0, de1, diff)),
            np.maximum(gamma0, gamma1))


def site_hyperfine_detunings(config: SuperlatticeConfig, delta_target: float,
                             n_sites: int | None = None) -> SiteDetunings:
    """Classify A/B sites, solve the LPOL intensity for the A-B differential
    delta_target (E_R) and evaluate the shifts at the site centres.

    Sites sit at x_j = j lambda_s / 2.  The brightest site of each period
    under the LPOL envelope is the target A; delta is the A shift minus the
    largest B shift (worst case for microwave selectivity), and the A site's
    scattering rate is the largest of its period.  Shifts are linear in the
    intensity, so one unit-intensity shift fixes it.  A wavelength outside
    the D2-D1 band gives no positive differential shift, so the brightest
    site would be no target: that is refused before an ambiguous phase is.
    """
    if delta_target < 0:
        raise PhysicsDomainError("target delta must be >= 0")
    n = config.pattern_period
    count = n if n_sites is None else n_sites
    if count < n:
        raise PhysicsDomainError("need at least one full pattern period of sites")
    unit_diff = light_shifts(RB87, config.lpol_wavelength, 1.0)[2]
    if not unit_diff > 0:
        raise PhysicsDomainError(
            f"lattice.lpol_wavelength_nm = {config.lpol_wavelength * 1e9:.6g} gives no "
            "positive differential shift; it must lie between the D2 and D1 lines")

    # classify within the first period, then tile
    xs = np.arange(count) * config.spol_wavelength / 2.0
    envelope = _envelope(config, xs[:n])
    a_index = int(np.argmax(envelope))
    tied = np.flatnonzero(envelope >= (1.0 - 1e-9) * envelope[a_index])
    if len(tied) > 1:
        raise PhysicsDomainError(
            f"ambiguous site pattern: sites {tied.tolist()} tie for the brightest LPOL "
            "envelope; adjust lattice.lpol_phase_nm or lattice.pattern_period")
    b_sites = np.arange(n) != a_index
    contrast = envelope[a_index] - envelope.max(where=b_sites, initial=-np.inf)
    e_r = recoil_energy(config.spol_wavelength, RB87.mass)
    intensity = float(delta_target / (unit_diff / e_r * contrast))

    e0, e1, diff, gamma = lpol_light_shifts(config, intensity, xs)
    labels = np.where(np.arange(count) % n == a_index, "A", "B")
    delta = float(diff[a_index] - diff[:n].max(where=b_sites, initial=-np.inf))
    return SiteDetunings(labels=tuple(labels.tolist()), site_positions=tuple(xs.tolist()),
                         delta_e0=tuple(e0.tolist()), delta_e1=tuple(e1.tolist()),
                         delta_diff=tuple(diff.tolist()), delta=delta,
                         gamma_a=float(gamma[a_index]), intensity=intensity)


def lpol_ramp_time(config: SuperlatticeConfig, shift_a: float,
                   target_excitation: float) -> HarmonicRamp:
    """The LPOL turn-on ramp keeping band excitation below target, in natural
    units.

    The site-local frequency deepens from 2 sqrt(V_s) to 2 sqrt(V_s + shift_a)
    (E_R/hbar), where shift_a is the A site's full differential shift (E_R,
    the largest delta_diff of a pattern period), along the adiabatic schedule
    whose excitation ceiling is 4 xi^2 = target.
    """
    if not 0.0 < target_excitation < 0.1:
        raise PhysicsDomainError("target excitation must lie in (0, 0.1)")
    w_i = initial_frequency(config.spol_depth)
    # a NaN shift, or one within the rounding of V_s or of its root, leaves w_f = w_i
    w_f = initial_frequency(config.spol_depth + shift_a) if shift_a > 0 else w_i
    if not w_f > w_i:
        raise PhysicsDomainError(
            f"ramp target unreachable: the A-site shift {shift_a:.6g} E_R does not deepen "
            f"the {config.spol_depth:.6g} E_R site in floating point; raise "
            "lattice.delta_target_er or lower lattice.depth_er")
    return HarmonicRamp(initial_frequency=w_i, adiabaticity=math.sqrt(target_excitation) / 2.0,
                        final_frequency=w_f)


def lpol_exposure(ramp: HarmonicRamp) -> float:
    """Full-intensity-equivalent time int I dt / I_peak of one LPOL ramp, in
    natural units.

    The site depth omega^2/4 is linear in the LPOL intensity, so I / I_peak =
    (omega^2 - omega_i^2)/(omega_f^2 - omega_i^2), whose integral along the
    schedule is exactly T omega_i / (omega_i + omega_f).
    """
    w_i, w_f = ramp.initial_frequency, ramp.final_frequency
    return ramp.duration * w_i / (w_i + w_f)


def pattern_yield(total_sites: int, n: int) -> tuple[int, float]:
    """Extraction targets and their fraction for one atom per n sites of
    the 1-D lattice."""
    if total_sites < n:
        raise PhysicsDomainError("need at least one pattern period of sites")
    targets = total_sites // n
    return targets, targets / total_sites
