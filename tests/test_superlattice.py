"""Superlattice geometry, site detunings, ramp time, and pattern counting."""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from mottreg.errors import PhysicsDomainError
from mottreg.superlattice import (SuperlatticeConfig, lpol_angle, lpol_period,
                                  lpol_ramp_time, pattern_yield,
                                  site_hyperfine_detunings,
                                  solve_intensity_for_delta)
from mottreg.stark import light_shifts
from mottreg.units import RB87, UnitSystem


def test_lpol_angle_counterpropagating_limit():
    assert lpol_angle(3, 850e-9, 3 * 850e-9) == pytest.approx(math.pi)


def test_lpol_angle_operating_geometry():
    theta = lpol_angle(3, 850e-9, 787.6e-9)
    assert math.degrees(theta) == pytest.approx(36.0, abs=0.1)


@pytest.mark.parametrize("n,lam_s,lam_l", [(3, 850e-9, 787.6e-9),
                                           (4, 850e-9, 787.6e-9),
                                           (5, 1064e-9, 800e-9)])
def test_lpol_commensurability_identity(n, lam_s, lam_l):
    theta = lpol_angle(n, lam_s, lam_l)
    eta_l = lam_l / (2 * math.sin(theta / 2))
    assert eta_l / (lam_s / 2) == pytest.approx(n, rel=1e-12)
    assert lpol_period(n, lam_s) == pytest.approx(eta_l, rel=1e-12, abs=0.0)


def test_lpol_angle_geometry_error():
    with pytest.raises(PhysicsDomainError):
        lpol_angle(3, 250e-9, 800e-9)


def _configured(intensity=0.0, n=3, phase=0.0):
    return SuperlatticeConfig(lpol_intensity=intensity, pattern_period=n,
                              lpol_phase=phase)


@pytest.mark.parametrize("n, phase", [(3, 0.0), (4, 0.0), (5, 30e-9)])
def test_site_detunings_equal_per_site_calls(n, phase):
    # reference: one scalar light-shift call per site, as the loop did
    intensity = solve_intensity_for_delta(_configured(n=n, phase=phase), RB87, 52.0)
    config = _configured(intensity, n=n, phase=phase)
    sites = site_hyperfine_detunings(config, RB87, n_sites=2 * n)
    units = UnitSystem.for_lattice(RB87, 850e-9)
    xs = np.array(sites.pattern.site_positions)
    envelope = np.cos(np.pi * (xs - phase) / (n * 850e-9 / 2)) ** 2
    for j, env in enumerate(envelope):
        d0, d1, diff = light_shifts(RB87, 787.6e-9, intensity * float(env))[:3]
        assert sites.delta_e0[j] == units.energy_to_natural(d0)
        assert sites.delta_e1[j] == units.energy_to_natural(d1)
        assert sites.delta_diff[j] == units.energy_to_natural(diff)


def test_site_detunings_cos2_pattern():
    # oracle: direct cos^2 envelope at x = 0, lambda_s/2, lambda_s gives
    # intensity factors 1, 1/4, 1/4 for n = 3
    intensity = solve_intensity_for_delta(_configured(), RB87, 52.0)
    sites = site_hyperfine_detunings(_configured(intensity), RB87, n_sites=9)
    units = UnitSystem.for_lattice(RB87, 850e-9)
    peak = units.energy_to_natural(
        light_shifts(RB87, 787.6e-9, intensity)[2])
    assert sites.delta == pytest.approx(0.75 * peak, rel=1e-12)
    assert sites.pattern.labels == ("A", "B", "B") * 3
    # the two B sites in each period are degenerate by cos^2 symmetry
    assert sites.delta_diff[1] == pytest.approx(sites.delta_diff[2], rel=1e-12)
    assert sites.delta_diff[1] == pytest.approx(0.25 * peak, rel=1e-12)


def test_site_detunings_zero_intensity():
    sites = site_hyperfine_detunings(_configured(0.0), RB87)
    assert sites.delta == 0.0


def test_site_detunings_periodicity():
    intensity = solve_intensity_for_delta(_configured(), RB87, 52.0)
    sites = site_hyperfine_detunings(_configured(intensity), RB87, n_sites=12)
    for j in range(9):
        assert sites.delta_diff[j] == pytest.approx(sites.delta_diff[j + 3], rel=1e-12)
        assert sites.pattern.labels[j] == sites.pattern.labels[j + 3]


def test_site_detunings_linearity_and_label_invariance():
    base = solve_intensity_for_delta(_configured(), RB87, 52.0)
    one = site_hyperfine_detunings(_configured(base), RB87)
    two = site_hyperfine_detunings(_configured(2 * base), RB87)
    assert two.delta == pytest.approx(2 * one.delta, rel=1e-12)
    assert one.pattern.labels == two.pattern.labels


def test_site_detunings_ambiguity_error():
    # an antinode midway between two sites makes them tie for the maximum
    intensity = solve_intensity_for_delta(_configured(), RB87, 52.0)
    with pytest.raises(PhysicsDomainError, match="ambiguous"):
        site_hyperfine_detunings(_configured(intensity, phase=850e-9 / 4), RB87)


def test_solve_intensity_trivial_and_linearity():
    assert solve_intensity_for_delta(_configured(), RB87, 0.0) == 0.0
    i1 = solve_intensity_for_delta(_configured(), RB87, 26.0)
    i2 = solve_intensity_for_delta(_configured(), RB87, 52.0)
    assert i2 == pytest.approx(2 * i1, rel=1e-12)


def test_solve_intensity_round_trip_52er():
    intensity = solve_intensity_for_delta(_configured(), RB87, 52.0)
    sites = site_hyperfine_detunings(_configured(intensity), RB87)
    assert sites.delta == pytest.approx(52.0, rel=1e-9)


def test_ramp_time_near_reference_value():
    intensity = solve_intensity_for_delta(_configured(), RB87, 52.0)
    plan = lpol_ramp_time(_configured(intensity), RB87, 1e-4)
    assert plan.duration * 1e6 == pytest.approx(44.0, rel=0.5)
    assert plan.xi == pytest.approx(0.005)


def test_ramp_time_monotone_in_target():
    intensity = solve_intensity_for_delta(_configured(), RB87, 52.0)
    cfg = _configured(intensity)
    tight = lpol_ramp_time(cfg, RB87, 1e-4)
    loose = lpol_ramp_time(cfg, RB87, 1e-2)
    assert loose.duration < tight.duration


def test_ramp_time_infeasible_target():
    intensity = solve_intensity_for_delta(_configured(), RB87, 52.0)
    with pytest.raises(PhysicsDomainError):
        lpol_ramp_time(_configured(intensity), RB87, 0.5)
    with pytest.raises(PhysicsDomainError):
        lpol_ramp_time(_configured(0.0), RB87, 1e-4)


def test_ramp_two_level_integration_stays_below_target():
    """Oracle: integrate the adiabatic-frame two-level system along the
    returned ramp; excitation must stay within 1.5x the design target."""
    target = 1e-4
    intensity = solve_intensity_for_delta(_configured(), RB87, 52.0)
    plan = lpol_ramp_time(_configured(intensity), RB87, target)
    units = UnitSystem.for_lattice(RB87, 850e-9)
    duration_nat = units.time_to_natural(plan.duration)
    xi = plan.xi

    def rhs(t, c):
        w = plan.omega_at(float(t))
        return np.array([-1j * (0.5 * w * c[0] + 1j * xi * 2 * w * c[1]),
                         -1j * (-1j * xi * 2 * w * c[0] + 2.5 * w * c[1])])

    sol = solve_ivp(rhs, (0.0, duration_nat), [1.0 + 0j, 0j],
                    method="DOP853", rtol=1e-11, atol=1e-13)
    assert sol.success
    p_exc = np.abs(sol.y[1]) ** 2
    assert float(np.max(p_exc)) <= 1.5 * target
    # the final frequency matches the plan
    assert plan.omega_at(duration_nat) == pytest.approx(plan.omega_final, rel=1e-12)


def test_ramp_intensity_fraction_endpoints():
    intensity = solve_intensity_for_delta(_configured(), RB87, 52.0)
    plan = lpol_ramp_time(_configured(intensity), RB87, 1e-4)
    assert plan.intensity_fraction(0.0) == pytest.approx(0.0, abs=1e-12)
    assert plan.intensity_fraction(plan.duration) == pytest.approx(1.0, rel=1e-12)
    assert 0.0 < plan.intensity_weight < plan.duration


def test_pattern_yield_reference_counts():
    assert pattern_yield(300, 3, 1) == (100, pytest.approx(1 / 3))
    targets, fraction = pattern_yield(90_000, 3, 2)
    assert targets == 10_000
    assert fraction == pytest.approx(1 / 9)
    assert pattern_yield(7, 7, 1)[0] == 1


def test_pattern_yield_validation():
    with pytest.raises(PhysicsDomainError):
        pattern_yield(2, 3, 1)
    with pytest.raises(PhysicsDomainError):
        pattern_yield(300, 3, 3)


def test_config_validation():
    with pytest.raises(PhysicsDomainError):
        SuperlatticeConfig(pattern_period=2)
    with pytest.raises(PhysicsDomainError):
        SuperlatticeConfig(spol_depth=-1.0)
