"""Microtrap handoff: frequency matching, the adiabatic ramp, excitation
probabilities, and the hopping-time bound."""
import math

import numpy as np
import pytest

from mottreg.errors import NumericsError, PhysicsDomainError
from mottreg.transfer import (HarmonicRamp, band_tunneling, excitation_numeric,
                              hopping_time, initial_frequency, matched_microtrap_depth,
                              max_excitation_analytic, microtrap_depth_kelvin,
                              ramp_schedule)
from mottreg.units import HBAR, recoil_energy

E_R = recoil_energy(850e-9)
TIME_UNIT = HBAR / E_R


def _operating_ramp(xi=0.005, ratio=4.0):
    w0 = initial_frequency(50.0)
    return HarmonicRamp(initial_frequency=w0, adiabaticity=xi, final_frequency=ratio * w0)


def test_initial_frequency_values():
    w0 = initial_frequency(50.0)
    assert w0 == pytest.approx(2 * math.sqrt(50.0), rel=1e-14)
    # oracle: unit conversion to SI gives about 2 pi x 45 kHz
    si = w0 / TIME_UNIT
    assert si / (2 * math.pi) == pytest.approx(45e3, rel=2e-2)
    assert initial_frequency(1.0) == pytest.approx(2.0)
    assert initial_frequency(200.0) == pytest.approx(2 * initial_frequency(50.0))
    for depth in (0.0, -50.0):
        with pytest.raises(PhysicsDomainError, match="depth must be positive"):
            initial_frequency(depth)


def test_matched_microtrap_depth_reference_value():
    depth = matched_microtrap_depth(50.0, 1e-6, 850e-9)
    assert depth == pytest.approx(1366.0, rel=1e-2)
    # w -> 0 limit: depth vanishes quadratically
    assert matched_microtrap_depth(50.0, 1e-9, 850e-9) == pytest.approx(
        depth * 1e-6, rel=1e-12)
    kelvin = microtrap_depth_kelvin(depth, E_R)
    assert kelvin * 1e6 == pytest.approx(104.0, rel=2e-2)
    for waist in (0.0, -1e-6):
        with pytest.raises(PhysicsDomainError, match="waist must be positive"):
            matched_microtrap_depth(50.0, waist, 850e-9)


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
    for ratio, sign in ((4.0, 1.0), (0.25, -1.0)):
        ramp = HarmonicRamp(w0, 0.005, ratio * w0)
        for t in np.linspace(0.0, ramp.duration, 41):
            lhs = 1.0 / w0 - 1.0 / ramp_schedule(ramp, float(t))
            assert lhs == pytest.approx(sign * 4.0 * math.sqrt(2.0) * 0.005 * t, rel=1e-10)


def test_transfer_time_reference_value():
    ramp = _operating_ramp()
    t_us = ramp.duration * TIME_UNIT * 1e6
    assert t_us == pytest.approx(94.0, rel=0.02)


def test_transfer_time_limits():
    # a final frequency far above the initial one takes 1 / b
    limit = 1.0 / (4 * math.sqrt(2) * 0.005 * initial_frequency(50.0))
    assert _operating_ramp(ratio=1e12).duration == pytest.approx(limit, rel=1e-10)


def test_ramp_direction_validation():
    # the direction is the sign of final - initial, so equal frequencies have none
    w0 = initial_frequency(50.0)
    with pytest.raises(PhysicsDomainError, match="must differ"):
        HarmonicRamp(w0, 0.005, w0)
    for initial, final in ((0.0, w0), (-w0, w0), (w0, 0.0), (w0, -w0)):
        with pytest.raises(PhysicsDomainError, match="frequencies must be positive"):
            HarmonicRamp(initial, 0.005, final)
    for final in (math.nextafter(w0, 0.0), math.nextafter(w0, math.inf)):
        HarmonicRamp(w0, 0.005, final)
    with pytest.raises(PhysicsDomainError):
        HarmonicRamp(w0, 0.5, 2.0 * w0)
    # xi reaches sqrt(0.1)/2, the LPOL ramp's at a target just below 0.1
    xi_max = math.sqrt(0.1) / 2.0
    assert HarmonicRamp(w0, xi_max, 2.0 * w0).adiabaticity == xi_max
    with pytest.raises(PhysicsDomainError):
        HarmonicRamp(w0, math.nextafter(xi_max, 1.0), 2.0 * w0)


def test_excitation_analytic_start_and_ceiling():
    ramp = _operating_ramp()
    assert excitation_numeric(ramp).excitation_analytic[0] == 0.0
    assert max_excitation_analytic(ramp) == 4 * 0.005 ** 2
    half = _operating_ramp(xi=0.0025)
    assert max_excitation_analytic(half) == pytest.approx(
        max_excitation_analytic(ramp) / 4, rel=1e-12, abs=0.0)


def test_excitation_numeric_matches_analytic_ceiling():
    result = excitation_numeric(_operating_ramp())
    assert result.max_excitation == pytest.approx(1e-4, rel=0.05, abs=0.0)


def test_excitation_numeric_gap_shrinks_with_xi():
    gap_full = excitation_numeric(_operating_ramp(xi=0.005)).analytic_numeric_gap
    gap_half = excitation_numeric(_operating_ramp(xi=0.0025)).analytic_numeric_gap
    assert gap_full >= 4.0 * gap_half


@pytest.mark.parametrize("direction, ratio", [("deepen", 4.0), ("shallow", 0.25)])
def test_excitation_numeric_matches_dop853(direction, ratio):
    # the closed form against an independent integration of the
    # adiabatic-frame system: E_g = omega/2, E_e = 5 omega/2, coupling
    # i xi Delta E_g with Delta E_g = 2 omega
    from scipy.integrate import solve_ivp

    w0 = initial_frequency(50.0)
    xi = 0.005
    ramp = HarmonicRamp(w0, xi, ratio * w0)
    # the direction follows from the frequencies: a deepening ramp rises
    assert (ramp_schedule(ramp, ramp.duration) > w0) == (direction == "deepen")

    def rhs(t, c):
        omega = ramp_schedule(ramp, t)
        coupling = 1j * xi * 2.0 * omega
        return -1j * np.array([0.5 * omega * c[0] + coupling * c[1],
                               -coupling * c[0] + 2.5 * omega * c[1]])

    result = excitation_numeric(ramp)
    ref = solve_ivp(rhs, (0.0, ramp.duration), np.array([1.0 + 0j, 0j]), method="DOP853",
                    t_eval=result.times, rtol=1e-12, atol=1e-14)
    assert ref.success
    p_ref = np.abs(ref.y[1]) ** 2
    assert np.max(np.abs(result.excitation_numeric - p_ref)) < 1e-12


def _two_state_propagator(ramp, times):
    """c(t) = exp(-i A tau) |g> of the adiabatic-frame system, A = [[1/2,
    2i xi], [-2i xi, 5/2]] and tau = int omega dt, by eigendecomposing A."""
    xi = ramp.adiabaticity
    a = np.array([[0.5, 2j * xi], [-2j * xi, 2.5]])
    energies, vectors = np.linalg.eigh(a)
    deepen = ramp.final_frequency > ramp.initial_frequency
    rate = ramp.rate_constant if deepen else -ramp.rate_constant
    tau = -(ramp.initial_frequency / rate) * np.log1p(-rate * times)
    weights = vectors[0].conj()   # V^dagger c0 for c0 = |g>
    return (np.exp(-1j * np.outer(tau, energies)) * weights) @ vectors.T


@pytest.mark.parametrize("ratio", [1.5, 4.0, 1e3, 1 / 1.5, 0.25, 1e-3])
@pytest.mark.parametrize("xi", [1e-3, 0.005, math.sqrt(0.1) / 2.0])
def test_excitation_numeric_meets_the_eigh_propagator(xi, ratio):
    # Rabi's formula against the eigendecomposed propagator, deepening and
    # opening, up to the ceiling 4 xi^2 = 0.1: a dropped 1/(1 + 4 xi^2) or
    # sqrt(1 + 4 xi^2) is off by 4e-6 of the maximum or more
    ramp = _operating_ramp(xi=xi, ratio=ratio)
    result = excitation_numeric(ramp)
    p_ref = np.abs(_two_state_propagator(ramp, result.times)[:, 1]) ** 2
    assert np.max(np.abs(result.excitation_numeric - p_ref)) <= 2e-12 * np.max(p_ref)


def test_excitation_numeric_vanishes_in_adiabatic_limit():
    # frozen-frequency limit: the ceiling 4 xi^2 collapses to zero with xi
    for xi in (1e-3, 2e-4):
        result = excitation_numeric(_operating_ramp(xi=xi))
        assert result.max_excitation <= 4 * xi ** 2 * 1.05 + 1e-12


def test_shallow_ramp_runs():
    w0 = initial_frequency(50.0)
    ramp = HarmonicRamp(w0, 0.005, w0 / 4.0)
    assert ramp_schedule(ramp, ramp.duration) == pytest.approx(w0 / 4.0, rel=1e-12)
    result = excitation_numeric(ramp)
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
    t50 = hopping_time(50.0) * TIME_UNIT
    assert 0.5 < t50 < 50.0
    assert hopping_time(60.0) > hopping_time(50.0)


def test_shallow_lattice_warns():
    with pytest.warns(UserWarning, match="tight-binding"):
        band_tunneling(3.0)
