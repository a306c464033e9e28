"""Constants, species data, and unit-system round trips."""
import math

import numpy as np
import pytest

from mottreg.errors import PhysicsDomainError
from mottreg.units import (RB87, AtomSpecies, UnitSystem, detuning_from_wavelength,
                           recoil_energy)

# independent oracle constants (CODATA 2018, h exact), deliberately not
# imported from the package or scipy; hbar is exactly h / 2 pi
H_ORACLE = 6.62607015e-34
HBAR_ORACLE = H_ORACLE / (2 * math.pi)
C_ORACLE = 299792458.0
RB87_MASS_ORACLE = 86.909180531 * 1.66053906660e-27


def test_recoil_energy_rb87_850nm():
    # oracle: direct evaluation of h^2 / (2 m lambda^2)
    expected = H_ORACLE ** 2 / (2 * RB87_MASS_ORACLE * 850e-9 ** 2)
    got = recoil_energy(850e-9, RB87.mass)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert got == pytest.approx(2.10e-30, rel=5e-3, abs=0.0)
    assert got / H_ORACLE == pytest.approx(3.18e3, rel=5e-3)


def test_recoil_energy_scalings():
    base = recoil_energy(850e-9, RB87.mass)
    assert recoil_energy(1700e-9, RB87.mass) == pytest.approx(base / 4, rel=1e-14, abs=0.0)
    assert recoil_energy(850e-9, 2 * RB87.mass) == pytest.approx(base / 2, rel=1e-14, abs=0.0)


def test_recoil_energy_domain_errors():
    with pytest.raises(PhysicsDomainError):
        recoil_energy(0.0, RB87.mass)
    with pytest.raises(PhysicsDomainError):
        recoil_energy(850e-9, -1.0)


def test_detuning_on_resonance_and_signs():
    assert detuning_from_wavelength(780.24e-9, 780.24e-9) == 0.0
    # red of D2
    d2 = detuning_from_wavelength(787.6e-9, RB87.d2_wavelength)
    assert d2 < 0
    # oracle: 2 pi c (1/787.6 - 1/780.24) nm^-1
    expected = 2 * np.pi * C_ORACLE * (1 / 787.6e-9 - 1 / 780.24e-9)
    assert d2 == pytest.approx(expected, rel=1e-12)
    assert d2 / (2 * np.pi) == pytest.approx(-3.59e12, rel=5e-3)
    # blue of D1
    assert detuning_from_wavelength(787.6e-9, RB87.d1_wavelength) > 0


@pytest.mark.parametrize("a_nm,b_nm", [(780.24, 794.98), (787.6, 780.24),
                                       (850.0, 787.6), (1064.0, 780.24)])
def test_detuning_antisymmetry(a_nm, b_nm):
    a, b = a_nm * 1e-9, b_nm * 1e-9
    assert detuning_from_wavelength(a, b) == pytest.approx(
        -detuning_from_wavelength(b, a), rel=1e-14)


def test_detuning_domain_error():
    with pytest.raises(PhysicsDomainError):
        detuning_from_wavelength(0.0, 780e-9)


def test_species_validation_and_defaults():
    assert RB87.d1_wavelength > RB87.d2_wavelength
    assert RB87.mass == pytest.approx(RB87_MASS_ORACLE, rel=1e-12, abs=0.0)
    with pytest.raises(PhysicsDomainError):
        AtomSpecies(name="bad", mass=-1.0, d1_wavelength=795e-9,
                    d2_wavelength=780e-9, gamma1=1.0, gamma2=1.0,
                    hyperfine_splitting=1.0)


def test_unit_system_base_time_identity():
    units = UnitSystem.for_lattice(RB87, 850e-9)
    assert units.base_time * units.base_energy == pytest.approx(HBAR_ORACLE, rel=1e-12, abs=0.0)
    assert units.base_time == pytest.approx(50.09e-6, rel=1e-3, abs=0.0)


@pytest.mark.parametrize("value", [1e-30, 2.105e-30, 52.0, 1e-4, 7.3e5])
def test_unit_round_trips(value):
    units = UnitSystem.for_lattice(RB87, 850e-9)
    assert units.energy_from_natural(units.energy_to_natural(value)) == \
        pytest.approx(value, rel=1e-12, abs=0.0)
    assert units.time_from_natural(units.time_to_natural(value)) == \
        pytest.approx(value, rel=1e-12, abs=0.0)
    assert units.length_from_natural(units.length_to_natural(value)) == \
        pytest.approx(value, rel=1e-12, abs=0.0)
    assert units.angular_frequency_from_natural(
        units.angular_frequency_to_natural(value)) == pytest.approx(value, rel=1e-12, abs=0.0)
