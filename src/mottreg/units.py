"""Physical constants, atomic species data, and the lattice-recoil unit system.

Internally every dynamics module works in natural units: the short-lattice
recoil energy E_R is the energy unit, hbar/E_R the time unit, the
short-lattice wavelength the length unit, and hbar = 1.  SI values enter and
leave only through :class:`UnitSystem`.
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
    "UnitSystem",
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

    name: str
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
    name="Rb87",
    mass=86.909180531 * 1.66053906660e-27,
    d1_wavelength=794.98e-9,
    d2_wavelength=780.24e-9,
    gamma1=2 * PI * 5.75e6,
    gamma2=2 * PI * 6.07e6,
    hyperfine_splitting=2 * PI * 6.8347e9,
)


def recoil_energy(wavelength: float, mass: float) -> float:
    """Photon-recoil energy h^2 / (2 m lambda^2) in joules."""
    if wavelength <= 0 or mass <= 0:
        raise PhysicsDomainError("recoil_energy needs positive wavelength and mass")
    return H_PLANCK ** 2 / (2.0 * mass * wavelength ** 2)


def detuning_from_wavelength(laser_wavelength, line_wavelength: float):
    """Angular detuning 2 pi c (1/laser - 1/line); negative when red of the
    line.  The laser wavelength may be an array."""
    if (np.asarray(laser_wavelength) <= 0).any() or line_wavelength <= 0:
        raise PhysicsDomainError("wavelengths must be positive")
    return 2 * PI * C_LIGHT * (1.0 / laser_wavelength - 1.0 / line_wavelength)


@dataclass(frozen=True)
class UnitSystem:
    """Natural-unit conversions anchored on the lattice recoil energy.

    base_energy is E_R in joules, base_length the lattice wavelength in
    meters; base_time is hbar / E_R by construction.
    """

    base_energy: float
    base_length: float

    def __post_init__(self):
        if self.base_energy <= 0 or self.base_length <= 0:
            raise PhysicsDomainError("unit system scales must be positive")

    @classmethod
    def for_lattice(cls, species: AtomSpecies, lattice_wavelength: float) -> "UnitSystem":
        return cls(base_energy=recoil_energy(lattice_wavelength, species.mass),
                   base_length=lattice_wavelength)

    @property
    def base_time(self) -> float:
        return HBAR / self.base_energy

    # SI -> natural
    def energy_to_natural(self, value_joule: float) -> float:
        return value_joule / self.base_energy

    def time_to_natural(self, value_second: float) -> float:
        return value_second / self.base_time

    def length_to_natural(self, value_meter: float) -> float:
        return value_meter / self.base_length

    def angular_frequency_to_natural(self, value_rad_s: float) -> float:
        return value_rad_s * self.base_time

    # natural -> SI
    def energy_from_natural(self, value_er: float) -> float:
        return value_er * self.base_energy

    def time_from_natural(self, value_nat: float) -> float:
        return value_nat * self.base_time

    def length_from_natural(self, value_nat: float) -> float:
        return value_nat * self.base_length

    def angular_frequency_from_natural(self, value_nat: float) -> float:
        return value_nat / self.base_time
