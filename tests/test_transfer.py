"""Microtrap handoff: frequency matching, the adiabatic ramp, excitation
probabilities, and the hopping-time bound."""
import math

import numpy as np
import pytest

from mottreg.errors import NumericsError, PhysicsDomainError
from mottreg.transfer import (HarmonicRamp, band_tunneling, excitation_analytic,
                              excitation_numeric, hopping_time, initial_frequency,
                              matched_microtrap_depth, max_excitation_analytic,
                              microtrap_depth_kelvin, ramp_schedule, transfer_time)
from mottreg.units import RB87, UnitSystem

UNITS = UnitSystem.for_lattice(RB87, 850e-9)


def _operating_ramp(xi=0.005, ratio=4.0):
    w0 = initial_frequency(50.0)
    return HarmonicRamp(initial_frequency=w0, adiabaticity=xi,
                        direction="deepen", final_frequency=ratio * w0)


def test_initial_frequency_values():
    w0 = initial_frequency(50.0)
    assert w0 == pytest.approx(2 * math.sqrt(50.0), rel=1e-14)
    # oracle: unit conversion to SI gives about 2 pi x 45 kHz
    si = w0 / UNITS.base_time
    assert si / (2 * math.pi) == pytest.approx(45e3, rel=2e-2)
    assert initial_frequency(1.0) == pytest.approx(2.0)
    assert initial_frequency(200.0) == pytest.approx(2 * initial_frequency(50.0))


def test_matched_microtrap_depth_reference_value():
    depth = matched_microtrap_depth(50.0, 1e-6, 850e-9)
    assert depth == pytest.approx(1366.0, rel=1e-2)
    # w -> 0 limit: depth vanishes quadratically
    assert matched_microtrap_depth(50.0, 1e-9, 850e-9) == pytest.approx(
        depth * 1e-6, rel=1e-12)
    kelvin = microtrap_depth_kelvin(depth, UNITS)
    assert kelvin * 1e6 == pytest.approx(104.0, rel=2e-2)


def _combined_frequency(microtrap_depth, lattice_depth, waist, lambda_s):
    """omega = sqrt((4 V_f / w^2 + 2 V_L k^2) / m) in natural units, where
    E_R = 1 makes the mass 2 pi^2 and the lattice wavevector 2 pi."""
    w_nat = waist / lambda_s
    return math.sqrt((4.0 * microtrap_depth / w_nat ** 2
                      + 2.0 * lattice_depth * (2.0 * math.pi) ** 2) / (2.0 * math.pi ** 2))


def test_matched_depth_frequency_round_trip():
    # feeding V_f back with V_L = 0 reproduces omega(0)
    depth = matched_microtrap_depth(50.0, 1e-6, 850e-9)
    w = _combined_frequency(depth, 0.0, 1e-6, 850e-9)
    assert w == pytest.approx(initial_frequency(50.0), rel=1e-10)


def test_ramp_schedule_start_and_domain():
    ramp = _operating_ramp()
    assert ramp_schedule(ramp, 0.0) == ramp.initial_frequency
    assert ramp_schedule(ramp, ramp.duration) == pytest.approx(
        ramp.final_frequency, rel=1e-12)
    with pytest.raises(PhysicsDomainError):
        ramp_schedule(ramp, 1.1 * ramp.duration)
    with pytest.raises(PhysicsDomainError):
        ramp_schedule(ramp, -0.1)
    # an array of times gives each time's value, and one time outside the
    # domain refuses the whole array
    ts = np.linspace(0.0, ramp.duration, 7)
    assert list(ramp_schedule(ramp, ts)) == [ramp.initial_frequency / (
        1.0 - ramp.rate_constant * float(t)) for t in ts]
    with pytest.raises(PhysicsDomainError):
        ramp_schedule(ramp, np.append(ts, 1.1 * ramp.duration))


def test_ramp_satisfies_adiabatic_identity_pointwise():
    # |d omega/dt| = xi (2 omega)^2 / (1/sqrt(2)) identically, that is
    # 1/omega(0) - 1/omega(t) = +-4 sqrt(2) xi t along the whole ramp
    w0 = initial_frequency(50.0)
    for direction, ratio, sign in (("deepen", 4.0, 1.0), ("shallow", 0.25, -1.0)):
        ramp = HarmonicRamp(w0, 0.005, direction, ratio * w0)
        for t in np.linspace(0.0, ramp.duration, 41):
            lhs = 1.0 / w0 - 1.0 / ramp_schedule(ramp, float(t))
            assert lhs == pytest.approx(sign * 4.0 * math.sqrt(2.0) * 0.005 * t, rel=1e-10)


def test_transfer_time_reference_value():
    ramp = _operating_ramp()
    t_us = UNITS.time_from_natural(ramp.duration) * 1e6
    assert t_us == pytest.approx(94.0, rel=0.02)


def test_transfer_time_limits():
    w0 = initial_frequency(50.0)
    assert transfer_time(w0, w0, 0.005) == 0.0
    limit = 1.0 / (4 * math.sqrt(2) * 0.005 * w0)
    assert transfer_time(w0, 1e12 * w0, 0.005) == pytest.approx(limit, rel=1e-10)


def test_ramp_direction_validation():
    w0 = initial_frequency(50.0)
    with pytest.raises(PhysicsDomainError):
        HarmonicRamp(w0, 0.005, "deepen", 0.5 * w0)
    with pytest.raises(PhysicsDomainError):
        HarmonicRamp(w0, 0.005, "shallow", 2.0 * w0)
    with pytest.raises(PhysicsDomainError):
        HarmonicRamp(w0, 0.5, "deepen", 2.0 * w0)
    # xi reaches sqrt(0.1)/2, the LPOL ramp's at a target just below 0.1
    xi_max = math.sqrt(0.1) / 2.0
    assert HarmonicRamp(w0, xi_max, "deepen", 2.0 * w0).adiabaticity == xi_max
    with pytest.raises(PhysicsDomainError):
        HarmonicRamp(w0, math.nextafter(xi_max, 1.0), "deepen", 2.0 * w0)


def test_excitation_analytic_start_and_ceiling():
    ramp = _operating_ramp()
    assert excitation_analytic(ramp, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert max_excitation_analytic(ramp) == 4 * 0.005 ** 2
    half = _operating_ramp(xi=0.0025)
    assert max_excitation_analytic(half) == pytest.approx(
        max_excitation_analytic(ramp) / 4, rel=1e-12, abs=0.0)


def test_excitation_numeric_matches_analytic_ceiling():
    result = excitation_numeric(_operating_ramp())
    assert result.max_excitation == pytest.approx(1e-4, rel=0.05, abs=0.0)
    assert result.norm_drift < 1e-9


def test_excitation_numeric_gap_shrinks_with_xi():
    gap_full = excitation_numeric(_operating_ramp(xi=0.005)).analytic_numeric_gap
    gap_half = excitation_numeric(_operating_ramp(xi=0.0025)).analytic_numeric_gap
    assert gap_full >= 4.0 * gap_half


@pytest.mark.parametrize("direction, ratio", [("deepen", 4.0), ("shallow", 0.25)])
def test_excitation_numeric_matches_dop853(direction, ratio):
    # the exact propagator against an independent integration of the
    # adiabatic-frame system: E_g = omega/2, E_e = 5 omega/2, coupling
    # i xi Delta E_g with Delta E_g = 2 omega
    from scipy.integrate import solve_ivp

    w0 = initial_frequency(50.0)
    xi = 0.005
    ramp = HarmonicRamp(w0, xi, direction, ratio * w0)

    def rhs(t, c):
        omega = ramp_schedule(ramp, t)
        coupling = 1j * xi * 2.0 * omega
        return -1j * np.array([0.5 * omega * c[0] + coupling * c[1],
                               -coupling * c[0] + 2.5 * omega * c[1]])

    result = excitation_numeric(ramp, n_samples=300)
    ref = solve_ivp(rhs, (0.0, ramp.duration), np.array([1.0 + 0j, 0j]), method="DOP853",
                    t_eval=result.times, rtol=1e-12, atol=1e-14)
    assert ref.success
    p_ref = np.abs(ref.y[1]) ** 2
    assert np.max(np.abs(result.excitation_numeric - p_ref)) < 1e-12
    assert result.norm_drift < 1e-13


def test_excitation_numeric_vanishes_in_adiabatic_limit():
    # frozen-frequency limit: the ceiling 4 xi^2 collapses to zero with xi
    for xi in (1e-3, 2e-4):
        result = excitation_numeric(_operating_ramp(xi=xi), n_samples=400)
        assert result.max_excitation <= 4 * xi ** 2 * 1.05 + 1e-12


def test_shallow_ramp_runs():
    w0 = initial_frequency(50.0)
    ramp = HarmonicRamp(w0, 0.005, "shallow", w0 / 4.0)
    assert ramp_schedule(ramp, ramp.duration) == pytest.approx(w0 / 4.0, rel=1e-12)
    result = excitation_numeric(ramp, n_samples=400)
    assert result.max_excitation <= 4 * 0.005 ** 2 * 1.05


def test_band_tunneling_vs_asymptotic_oracle():
    # oracle: J ~ (4/sqrt(pi)) (V/E_R)^(3/4) exp(-2 sqrt(V/E_R))
    j = band_tunneling(50.0)
    asym = (4 / math.sqrt(math.pi)) * 50.0 ** 0.75 * math.exp(-2 * math.sqrt(50.0))
    assert j == pytest.approx(asym, rel=0.2, abs=0.0)


def test_band_tunneling_refuses_unresolved_depths():
    # up to 200 E_R J tracks the asymptotic law; at 400 E_R the band-edge
    # difference was rounding, 1e4 times too large
    for depth in (100.0, 200.0):
        asym = (4 / math.sqrt(math.pi)) * depth ** 0.75 * math.exp(-2 * math.sqrt(depth))
        assert band_tunneling(depth) == pytest.approx(asym, rel=0.05, abs=0.0)
    for depth in (300.0, 400.0, 1e300):
        with pytest.raises(NumericsError, match="lattice.depth_er"):
            hopping_time(depth)


def test_hopping_time_seconds_scale_and_monotone():
    t50 = UNITS.time_from_natural(hopping_time(50.0))
    assert 0.5 < t50 < 50.0
    assert hopping_time(60.0) > hopping_time(50.0)


def test_shallow_lattice_warns():
    with pytest.warns(UserWarning, match="tight-binding"):
        band_tunneling(3.0)
