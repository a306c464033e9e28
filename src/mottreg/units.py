"""Physical constants, atomic species data, and the lattice recoil energy.

Internally every dynamics module works in natural units: the short-lattice
recoil energy E_R is the energy unit, hbar/E_R the time unit, the
short-lattice wavelength the length unit, and hbar = 1.  E_R is a plain
float in joules: an SI energy v enters as v / E_R and a natural time v
leaves as v * (HBAR / E_R).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsDomainError

__all__ = [
    "C_LIGHT",
    "H_PLANCK",
    "HBAR",
    "K_BOLTZMANN",
    "PI",
    "AtomSpecies",
    "RB87",
    "recoil_energy",
    "detuning_from_wavelength",
]

# exact SI-2019 defined values (hbar = h / 2 pi)
PI = math.pi
C_LIGHT = 299792458.0
H_PLANCK = 6.62607015e-34
HBAR = H_PLANCK / (2 * PI)
K_BOLTZMANN = 1.380649e-23


@dataclass(frozen=True)
class AtomSpecies:
    """Line and mass data for the simulated alkali atom.

    Decay rates and the hyperfine splitting are angular frequencies (rad/s);
    wavelengths are in meters, mass in kg.
    """

    mass: float
    d1_wavelength: float
    d2_wavelength: float
    gamma1: float
    gamma2: float
    hyperfine_splitting: float

    def __post_init__(self):
        for field in ("mass", "d1_wavelength", "d2_wavelength",
                      "gamma1", "gamma2", "hyperfine_splitting"):
            if getattr(self, field) <= 0:
                raise PhysicsDomainError(f"species.{field} must be positive")

    @property
    def d1_angular_frequency(self) -> float:
        return 2 * PI * C_LIGHT / self.d1_wavelength

    @property
    def d2_angular_frequency(self) -> float:
        return 2 * PI * C_LIGHT / self.d2_wavelength


# Rb-87 D-line values; mass from the 86.909180531 u isotope mass.
RB87 = AtomSpecies(
    mass=86.909180531 * 1.66053906660e-27,
    d1_wavelength=794.98e-9,
    d2_wavelength=780.24e-9,
    gamma1=2 * PI * 5.75e6,
    gamma2=2 * PI * 6.07e6,
    hyperfine_splitting=2 * PI * 6.8347e9,
)


def recoil_energy(wavelength: float) -> float:
    """Rb-87 photon-recoil energy h^2 / (2 m lambda^2) in joules."""
    if wavelength <= 0:
        raise PhysicsDomainError("recoil_energy needs a positive wavelength")
    return H_PLANCK ** 2 / (2.0 * RB87.mass * wavelength ** 2)


def detuning_from_wavelength(laser_wavelength, line_wavelength: float):
    """Angular detuning 2 pi c (1/laser - 1/line); negative when red of the
    line.  The laser wavelength may be an array."""
    if (np.asarray(laser_wavelength) <= 0).any() or line_wavelength <= 0:
        raise PhysicsDomainError("wavelengths must be positive")
    return 2 * PI * C_LIGHT * (1.0 / laser_wavelength - 1.0 / line_wavelength)
