"""Superlattice geometry, site detunings, ramp time, and pattern counting."""
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from mottreg.errors import PhysicsDomainError
from mottreg.superlattice import (SuperlatticeConfig, lpol_exposure,
                                  lpol_period, lpol_ramp_time, pattern_yield,
                                  site_hyperfine_detunings)
from mottreg.stark import light_shifts
from mottreg.transfer import excitation_numeric, ramp_schedule
from mottreg.units import HBAR, RB87, recoil_energy


@pytest.mark.parametrize("n,lam_s,lam_l", [(3, 850e-9, 787.6e-9),
                                           (4, 850e-9, 787.6e-9),
                                           (5, 1064e-9, 800e-9)])
def test_lpol_commensurability_identity(n, lam_s, lam_l):
    # beams crossing at theta = 2 arcsin(lambda_l / (n lambda_s)) make a
    # lattice of period lambda_l / (2 sin(theta / 2))
    theta = 2.0 * math.asin(lam_l / (n * lam_s))
    eta_l = lam_l / (2 * math.sin(theta / 2))
    assert eta_l / (lam_s / 2) == pytest.approx(n, rel=1e-12)
    assert lpol_period(n, lam_s) == pytest.approx(eta_l, rel=1e-12, abs=0.0)


def test_lpol_angle_geometry_error():
    # lambda_l > n lambda_s: no beam angle gives the period n lambda_s / 2
    with pytest.raises(PhysicsDomainError, match="no intersection angle exists"):
        SuperlatticeConfig(spol_wavelength=850e-9, spol_depth=50.0, pattern_period=3,
                           lpol_wavelength=4 * 850e-9, lpol_phase=0.0)
    SuperlatticeConfig(spol_wavelength=850e-9, spol_depth=50.0, pattern_period=3,
                       lpol_wavelength=3 * 850e-9, lpol_phase=0.0)


def _configured(n=3, phase=0.0):
    return SuperlatticeConfig(spol_wavelength=850e-9, spol_depth=50.0, pattern_period=n,
                              lpol_wavelength=787.6e-9, lpol_phase=phase)


def _ramp(delta, target):
    """The LPOL ramp of the n = 3 lattice at phase 0, planned for its A site."""
    config = _configured()
    return lpol_ramp_time(config, max(site_hyperfine_detunings(config, delta).delta_diff),
                          target)


@pytest.mark.parametrize("n, phase", [(3, 0.0), (4, 0.0), (5, 30e-9)])
def test_site_detunings_equal_per_site_calls(n, phase):
    # reference: one scalar light-shift call per site, as the loop did
    sites = site_hyperfine_detunings(_configured(n, phase), 52.0, n_sites=2 * n)
    e_r = recoil_energy(850e-9, RB87.mass)
    xs = np.array(sites.site_positions)
    envelope = np.cos(np.pi * (xs - phase) / (n * 850e-9 / 2)) ** 2
    for j, env in enumerate(envelope):
        d0, d1, diff = light_shifts(RB87, 787.6e-9, sites.intensity * float(env))[:3]
        assert sites.delta_e0[j] == d0 / e_r
        assert sites.delta_e1[j] == d1 / e_r
        assert sites.delta_diff[j] == diff / e_r


def test_site_detunings_cos2_pattern():
    # oracle: direct cos^2 envelope at x = 0, lambda_s/2, lambda_s gives
    # intensity factors 1, 1/4, 1/4 for n = 3
    sites = site_hyperfine_detunings(_configured(), 52.0, n_sites=9)
    peak = light_shifts(RB87, 787.6e-9, sites.intensity)[2] / recoil_energy(850e-9, RB87.mass)
    assert sites.delta == pytest.approx(0.75 * peak, rel=1e-12)
    assert sites.labels == ("A", "B", "B") * 3
    # the two B sites in each period are degenerate by cos^2 symmetry
    assert sites.delta_diff[1] == pytest.approx(sites.delta_diff[2], rel=1e-12)
    assert sites.delta_diff[1] == pytest.approx(0.25 * peak, rel=1e-12)


def test_site_detunings_zero_intensity():
    # a zero delta target takes no LPOL light, so nothing shifts or scatters
    sites = site_hyperfine_detunings(_configured(), 0.0)
    assert (sites.intensity, sites.delta, sites.gamma_a) == (0.0, 0.0, 0.0)
    assert sites.labels == ("A", "B", "B")


def test_site_detunings_periodicity():
    sites = site_hyperfine_detunings(_configured(), 52.0, n_sites=12)
    for j in range(9):
        assert sites.delta_diff[j] == pytest.approx(sites.delta_diff[j + 3], rel=1e-12)
        assert sites.labels[j] == sites.labels[j + 3]


def test_site_detunings_linearity_and_label_invariance():
    one = site_hyperfine_detunings(_configured(), 52.0)
    two = site_hyperfine_detunings(_configured(), 104.0)
    assert two.intensity == 2 * one.intensity
    assert two.delta == pytest.approx(2 * one.delta, rel=1e-12)
    assert one.labels == two.labels


def test_site_detunings_ambiguity_error():
    # an antinode midway between two sites makes them tie for the maximum,
    # whatever the intensity, since the envelope alone picks the A site
    for delta in (52.0, 0.0):
        with pytest.raises(PhysicsDomainError,
                           match="ambiguous.*lattice.lpol_phase_nm.*lattice.pattern_period"):
            site_hyperfine_detunings(_configured(phase=850e-9 / 4), delta)


def test_site_detunings_refuse_a_negative_delta():
    with pytest.raises(PhysicsDomainError, match="target delta must be >= 0"):
        site_hyperfine_detunings(_configured(), -1.0)


@pytest.mark.parametrize("n, phase", [(3, 0.0), (4, 0.0), (3, 50e-9), (5, 30e-9)])
def test_site_labels_follow_the_envelope_where_the_shifts_underflow(n, phase):
    # the smallest delta target takes a subnormal intensity, where every
    # shift rounds to 0 or a few subnormal steps, and the labels stay those
    # of a working intensity
    working = site_hyperfine_detunings(_configured(n, phase), 52.0)
    faint = site_hyperfine_detunings(_configured(n, phase), 5e-324)
    assert 0.0 < faint.intensity < sys.float_info.min
    assert faint.labels == working.labels
    assert working.labels.count("A") == 1
    assert working.delta_diff[working.labels.index("A")] == max(working.delta_diff)


def test_solve_intensity_trivial_and_linearity():
    assert site_hyperfine_detunings(_configured(), 0.0).intensity == 0.0
    i1 = site_hyperfine_detunings(_configured(), 26.0).intensity
    i2 = site_hyperfine_detunings(_configured(), 52.0).intensity
    assert i1 > 0.0
    assert i2 == 2 * i1


def test_solve_intensity_round_trip_52er():
    sites = site_hyperfine_detunings(_configured(), 52.0)
    assert sites.delta == pytest.approx(52.0, rel=1e-12, abs=0.0)


_UNIT_GAMMA = max(light_shifts(RB87, 787.6e-9, 1.0)[3:])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(3, 12), phase_fraction=st.floats(0.0, 1.0),
       delta=st.floats(-3.0, 5.0).map(lambda e: 10.0 ** e))
def test_site_evaluation_over_generated_geometries(n, phase_fraction, delta):
    # phases across one LPOL period; a tie of the brightest sites is refused
    config = _configured(n, phase_fraction * lpol_period(n, 850e-9))
    try:
        sites = site_hyperfine_detunings(config, delta)
    except PhysicsDomainError as exc:
        assert "ambiguous site pattern" in str(exc)
        assume(False)
    a = sites.labels.index("A")
    env = np.cos(np.pi * (np.array(sites.site_positions) - config.lpol_phase)
                 / lpol_period(n, 850e-9)) ** 2
    # delta is the difference of two shifts of size delta / contrast, so it
    # keeps the target to a few ulps of those shifts
    contrast = env[a] - max(np.delete(env, a))
    assert sites.delta == pytest.approx(delta, rel=max(1e-12, 64 * 2.0 ** -52 / contrast),
                                        abs=0.0)
    assert sites.delta_diff[a] == max(sites.delta_diff)
    # the lattice report's longer site list solves the same intensity
    assert site_hyperfine_detunings(config, delta, n_sites=4 * n).intensity \
        == sites.intensity
    assert site_hyperfine_detunings(config, 2.0 * delta).intensity == 2.0 * sites.intensity
    assert sites.gamma_a == pytest.approx(sites.intensity * env[a] * _UNIT_GAMMA,
                                          rel=1e-12, abs=0.0)


def test_ramp_time_near_reference_value():
    ramp = _ramp(52.0, 1e-4)
    time_unit = HBAR / recoil_energy(850e-9, RB87.mass)
    assert ramp.duration * time_unit * 1e6 == pytest.approx(44.0, rel=0.5)
    assert ramp.adiabaticity == pytest.approx(0.005)
    # the A-site frequency deepens from 2 sqrt(V_s) by the full A shift,
    # delta / (1 - cos^2(pi/3)) at n = 3 and phase 0
    assert ramp.initial_frequency == pytest.approx(2.0 * math.sqrt(50.0), rel=1e-15)
    assert ramp.final_frequency == pytest.approx(2.0 * math.sqrt(50.0 + 52.0 / 0.75),
                                                 rel=1e-12)


def test_ramp_time_monotone_in_target():
    tight = _ramp(52.0, 1e-4)
    loose = _ramp(52.0, 1e-2)
    assert loose.duration < tight.duration


def test_ramp_time_infeasible_target():
    with pytest.raises(PhysicsDomainError):
        _ramp(52.0, 0.5)
    with pytest.raises(PhysicsDomainError, match="A-site shift"):
        _ramp(0.0, 1e-4)


@pytest.mark.parametrize("shift_a", [0.0, -1.0, 1e-15, 1e-300, math.nan])
def test_ramp_refuses_a_shift_lost_in_the_site_depth(shift_a):
    # 50 + 1e-15 rounds to 50: the ramp would not move, so it is refused
    # naming the fields that set the shift and the depth
    with pytest.raises(PhysicsDomainError,
                       match="A-site shift.*lattice.delta_target_er.*lattice.depth_er"):
        lpol_ramp_time(_configured(), shift_a, 1e-4)


def test_ramp_admits_the_smallest_shift_that_deepens_the_site():
    shift_a = 1e-13    # a few ulps of 50, which 2 sqrt(50 + shift_a) keeps
    ramp = lpol_ramp_time(_configured(), shift_a, 1e-4)
    assert ramp.final_frequency > ramp.initial_frequency


def test_lpol_ramp_admits_every_accepted_target():
    # xi = sqrt(target)/2 reaches 0.158 as the target nears 0.1
    for target in (0.09, math.nextafter(0.1, 0.0)):
        ramp = _ramp(52.0, target)
        assert ramp.adiabaticity == math.sqrt(target) / 2.0
        assert excitation_numeric(ramp, n_samples=200).max_excitation <= target
    with pytest.raises(PhysicsDomainError):
        _ramp(52.0, 0.1)


def test_ramp_two_level_integration_stays_below_target():
    """Oracle: integrate the adiabatic-frame two-level system along the
    returned ramp; excitation must stay within 1.5x the design target."""
    target = 1e-4
    ramp = _ramp(52.0, target)
    xi = ramp.adiabaticity

    def rhs(t, c):
        w = ramp_schedule(ramp, float(t))
        return np.array([-1j * (0.5 * w * c[0] + 1j * xi * 2 * w * c[1]),
                         -1j * (-1j * xi * 2 * w * c[0] + 2.5 * w * c[1])])

    sol = solve_ivp(rhs, (0.0, ramp.duration), [1.0 + 0j, 0j],
                    method="DOP853", rtol=1e-11, atol=1e-13)
    assert sol.success
    p_exc = np.abs(sol.y[1]) ** 2
    assert float(np.max(p_exc)) <= 1.5 * target
    # the final frequency matches the ramp's
    assert ramp_schedule(ramp, ramp.duration) == pytest.approx(ramp.final_frequency,
                                                               rel=1e-12)


def test_lpol_ramp_exact_propagator_stays_below_target():
    results = {target: excitation_numeric(_ramp(52.0, target))
               for target in (1e-4, 1e-2)}
    for target, result in results.items():
        assert result.max_excitation <= target
    # the charged 4 xi^2 = 1e-4 is reached to 1e-4 of itself, and the ramp
    # ends a tenth of the way up
    assert results[1e-4].max_excitation == pytest.approx(9.999e-5, abs=1e-9)
    assert results[1e-4].excitation_numeric[-1] == pytest.approx(1.046e-5, abs=5e-9)


def test_ramp_intensity_fraction_endpoints():
    ramp = _ramp(52.0, 1e-4)
    w_i, w_f = ramp.initial_frequency, ramp.final_frequency

    def fraction(t):
        return (ramp_schedule(ramp, t) ** 2 - w_i ** 2) / (w_f ** 2 - w_i ** 2)
    assert fraction(0.0) == pytest.approx(0.0, abs=1e-12)
    assert fraction(ramp.duration) == pytest.approx(1.0, rel=1e-12)
    assert 0.0 < lpol_exposure(ramp) < ramp.duration


@pytest.mark.parametrize("delta", [1e-3, 52.0, 1e5])
def test_lpol_exposure_matches_quadrature(delta):
    # oracle: int_0^T (omega(t)^2 - omega_i^2)/(omega_f^2 - omega_i^2) dt in
    # 40-digit arithmetic; at delta = 1e-3 E_R the old depth-integral form
    # cancelled to 1e-7 of the exposure.  The A site of n = 3 at phase 0
    # shifts by delta / (1 - cos^2(pi/3))
    ramp = lpol_ramp_time(_configured(), delta / 0.75, 1e-4)
    with mpmath.workdps(40):
        w_i, w_f, rate, duration = (mpmath.mpf(x) for x in (
            ramp.initial_frequency, ramp.final_frequency, ramp.rate_constant,
            ramp.duration))
        exact = mpmath.quad(lambda t: ((w_i / (1 - rate * t)) ** 2 - w_i ** 2)
                            / (w_f ** 2 - w_i ** 2), [0, duration])
    assert lpol_exposure(ramp) == pytest.approx(float(exact), rel=1e-10, abs=0.0)


def test_pattern_yield_reference_counts():
    assert pattern_yield(300, 3) == (100, pytest.approx(1 / 3))
    assert pattern_yield(301, 4) == (75, pytest.approx(75 / 301))
    assert pattern_yield(7, 7)[0] == 1


def test_pattern_yield_validation():
    with pytest.raises(PhysicsDomainError):
        pattern_yield(2, 3)


def test_config_validation():
    with pytest.raises(PhysicsDomainError):
        SuperlatticeConfig(spol_wavelength=850e-9, spol_depth=50.0, pattern_period=2,
                           lpol_wavelength=787.6e-9, lpol_phase=0.0)
    with pytest.raises(PhysicsDomainError):
        SuperlatticeConfig(spol_wavelength=850e-9, spol_depth=-1.0, pattern_period=3,
                           lpol_wavelength=787.6e-9, lpol_phase=0.0)
