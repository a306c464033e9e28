"""Microwave pi-pulse design, Rabi dynamics, and the step-II scattering
integral."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from mottreg.errors import NumericsError, PhysicsDomainError
from mottreg import pulse as pulse_mod
from mottreg.pulse import (GaussianPulse, _magnus_steps, _product, design_pi_pulse,
                           pi_pulse_amplitude, rabi_evolve, step2_scattering_probability)
from mottreg.units import RB87, UnitSystem


def test_pi_pulse_amplitude_reference_value():
    omega0 = 13.0
    amp = pi_pulse_amplitude(omega0, 5.0 / omega0)
    assert amp == pytest.approx(23.0, rel=5e-3)
    # within 1% of the infinite-cutoff Gaussian integral
    assert amp == pytest.approx(math.sqrt(math.pi) * omega0, rel=1e-2)


def test_pi_pulse_amplitude_infinite_cutoff_limit():
    # oracle: closed-form Gaussian integral; erf(12) = 1 to machine precision
    omega0 = 13.0
    amp = pi_pulse_amplitude(omega0, 12.0 / omega0)
    assert amp == pytest.approx(math.sqrt(math.pi) * omega0, rel=1e-12)


def test_pi_pulse_amplitude_scaling():
    omega0 = 13.0
    base = pi_pulse_amplitude(omega0, 5.0 / omega0)
    scaled = pi_pulse_amplitude(2 * omega0, 2.5 / omega0)
    assert scaled == pytest.approx(2 * base, rel=1e-12)


def test_pulse_cutoff_validation():
    with pytest.raises(PhysicsDomainError):
        GaussianPulse(peak_rabi=23.0, envelope_width=13.0, cutoff=0.1)
    with pytest.raises(PhysicsDomainError):
        pi_pulse_amplitude(13.0, 0.1)


def test_resonant_pulse_inverts():
    outcome = rabi_evolve(design_pi_pulse(52.0, detuning=0.0))
    assert outcome.p_flip >= 1.0 - 1e-6
    assert outcome.p_flip + outcome.p_stay == pytest.approx(1.0, abs=1e-10)


def test_detuned_flip_error_near_reference_value():
    outcome = rabi_evolve(design_pi_pulse(52.0, detuning=52.0))
    assert 0.5 * 5.9e-6 <= outcome.p_flip <= 2.0 * 5.9e-6


def test_far_detuned_flip_error_negligible():
    pulse = design_pi_pulse(52.0, detuning=13_000.0)
    outcome = rabi_evolve(pulse)
    assert outcome.p_flip < 1e-10


def test_norm_conservation_along_trajectory():
    outcome = rabi_evolve(design_pi_pulse(52.0, detuning=52.0), trajectory=True)
    states = outcome.states
    norms = np.abs(states[:, 0]) ** 2 + np.abs(states[:, 1]) ** 2
    assert np.max(np.abs(norms - 1.0)) < 1e-13


def test_flip_probability_even_in_detuning():
    plus = rabi_evolve(design_pi_pulse(52.0, detuning=52.0)).p_flip
    minus = rabi_evolve(design_pi_pulse(52.0, detuning=-52.0)).p_flip
    assert plus == pytest.approx(minus, rel=1e-9, abs=0.0)


def _flip(ratio):
    # omega_0 = 13 at the pi pulse of delta = 52, detuned by ratio * omega_0
    return rabi_evolve(design_pi_pulse(52.0, detuning=ratio * 13.0)).p_flip


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ratio=st.floats(2.0, 3.849), step=st.floats(1e-3, 1.85))
def test_flip_probability_falls_from_twice_width_to_the_dip(ratio, step):
    # between 2 omega_0 and the zero near 3.884 omega_0 the flip error falls;
    # beyond the zero it rises again (see the dip and tail test)
    assert _flip(ratio) > _flip(min(ratio + step, 3.85))


def test_flip_probability_dip_and_tail_maximum_vs_dop853():
    # the flip error passes through zero near Delta = 3.884 omega_0 and peaks
    # again near 4.537 omega_0, 6.6x above the operating point 4 omega_0
    dip, peak, operating = _flip(3.885), _flip(4.537), _flip(4.0)
    for ratio, value in ((3.885, dip), (4.537, peak)):
        pulse = design_pi_pulse(52.0, detuning=ratio * 13.0)
        assert value == pytest.approx(_dop853_flip(pulse, rtol=2.3e-14, atol=1e-22),
                                      rel=1e-8, abs=0.0)
    assert dip == pytest.approx(6.059e-10, rel=1e-3, abs=0.0)
    assert dip < 1e-3 * min(_flip(3.8), _flip(3.97))
    assert peak == pytest.approx(3.8909e-5, rel=1e-4, abs=0.0)
    assert peak > max(_flip(4.527), _flip(4.547))
    assert peak == pytest.approx(6.587 * operating, rel=1e-3, abs=0.0)


def test_rabi_evolve_solver_work_at_operating_point():
    # omega_0 t_f = 5 and |Delta| t_f = 20 take the 3200-step floor; the
    # half-grid gap is ~9.7e-9 of p_flip there, and no samples are built
    outcome = rabi_evolve(design_pi_pulse(52.0, detuning=52.0))
    assert outcome.n_steps == 3200
    assert 0.0 < outcome.flip_gap < 1e-8 * outcome.p_flip
    assert outcome.times is None and outcome.states is None
    sampled = rabi_evolve(design_pi_pulse(52.0, detuning=52.0), trajectory=True)
    assert sampled.states.shape == (801, 2)
    assert np.array_equal(sampled.times, np.linspace(-5 / 13, 5 / 13, 801))
    assert (sampled.p_flip, sampled.n_steps) == (outcome.p_flip, outcome.n_steps)
    # the floor holds for a short cutoff, and 1 rad of detuning phase per step
    # sets the count far off resonance: 2 |Delta| t_f = 10000, rounded up to 11200
    short = GaussianPulse(peak_rabi=pi_pulse_amplitude(13.0, 3.0 / 13.0),
                          envelope_width=13.0, cutoff=3.0 / 13.0, detuning=52.0)
    assert rabi_evolve(short).n_steps == 3200
    assert rabi_evolve(design_pi_pulse(52.0, detuning=13_000.0)).n_steps == 11200
    # just inside the operating point the 3200-step gap fails, and one doubling
    # passes it
    assert rabi_evolve(design_pi_pulse(52.0, detuning=50.0)).n_steps == 6400


def _dop853(pulse, times=None, rtol=1e-13, atol=1e-15):
    # oracle: scipy's 8th-order Dormand-Prince at tight tolerances
    def rhs(t, c):
        half = 0.5 * pulse.envelope(t)
        return [-1j * half * c[1], -1j * (half * c[0] - pulse.detuning * c[1])]

    ref = solve_ivp(rhs, (-pulse.cutoff, pulse.cutoff), [1.0 + 0j, 0j],
                    method="DOP853", rtol=rtol, atol=atol, t_eval=times)
    assert ref.success
    return ref.y.T


def _dop853_flip(pulse, **tolerances):
    return abs(_dop853(pulse, **tolerances)[-1, 1]) ** 2


def test_detuned_flip_error_vs_scipy_dop853():
    pulse = design_pi_pulse(52.0, detuning=52.0)
    outcome = rabi_evolve(pulse, trajectory=True)
    assert outcome.p_flip == pytest.approx(_dop853_flip(pulse), rel=1e-8, abs=0.0)
    # the sampled amplitudes, phases included, in the frame of H = diag(0, -Delta) + ...
    assert np.max(np.abs(outcome.states - _dop853(pulse, outcome.times))) < 1e-9


@pytest.mark.parametrize("detuning", [26.0, 52.0, 80.0, 104.0])
def test_flip_error_vs_fine_magnus_and_tight_dop853(detuning):
    pulse = design_pi_pulse(52.0, detuning=detuning)
    outcome = rabi_evolve(pulse, trajectory=True)
    p_flip = outcome.p_flip
    # 160,000 Magnus-4 steps leave an h^4 error near 1e-16 of p_flip
    fine = abs(_product(_magnus_steps(pulse, 160_000))[1]) ** 2
    assert p_flip == pytest.approx(fine, rel=1e-12, abs=0.0)
    # the sampled Richardson amplitudes against 160,000 steps; the 3200-step
    # amplitudes alone are off by 2e-12 to 7e-12
    phase = np.exp(0.5j * detuning * (outcome.times - outcome.times[0]))[:, None]
    sampled = (pulse_mod._sampled(pulse, 160_000) + [1.0, 0.0]) * phase
    assert np.max(np.abs(outcome.states - sampled)) < 1e-13
    # DOP853 at rtol 1e-13 is itself off by 3e-11 at Delta = 52
    tight = _dop853_flip(pulse, rtol=2.3e-14, atol=1e-22)
    assert p_flip == pytest.approx(tight, rel=2e-11, abs=0.0)


@settings(max_examples=15, deadline=None)
@given(omega0=st.floats(1.0, 50.0), width=st.floats(3.0, 8.0),
       ratio=st.floats(-8.0, 8.0))
def test_magnus_states_unitary_and_flip_matches_dop853(omega0, width, ratio):
    # omega0 t_f = width and Delta = ratio * omega0: the pulse width, its
    # truncation and its detuning in units of the width
    t_f = width / omega0
    pulse = GaussianPulse(peak_rabi=pi_pulse_amplitude(omega0, t_f),
                          envelope_width=omega0, cutoff=t_f, detuning=ratio * omega0)
    outcome = rabi_evolve(pulse, trajectory=True)
    norms = np.sum(np.abs(outcome.states) ** 2, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-13
    # abs: near a zero of p_flip, DOP853's amplitude error of ~3e-14 times
    # |c1| < 6e-6 exceeds rel * p_flip
    assert outcome.p_flip == pytest.approx(_dop853_flip(pulse), rel=1e-8, abs=1e-18)


def test_magnus_error_falls_fourth_order_at_operating_point():
    pulse = design_pi_pulse(52.0, detuning=52.0)

    def p_flip(n):
        return abs(_product(_magnus_steps(pulse, n))[1]) ** 2

    reference = p_flip(51200)
    errors = [abs(p_flip(n) - reference) for n in (800, 1600, 3200)]
    assert errors[0] > 12 * errors[1] > 144 * errors[2] > 0.0


def test_coarse_magnus_grid_fails_its_residual_check(monkeypatch):
    # a grid the step bound rejects is refused before it is allocated
    with pytest.raises(NumericsError, match="pulse.cutoff"):
        rabi_evolve(GaussianPulse(peak_rabi=23.0, envelope_width=13.0, cutoff=1e5,
                                  detuning=52.0))
    # at Delta = 50 the 3200-step gap fails; a cap of 3200 leaves no rung to climb
    monkeypatch.setattr(pulse_mod, "_MAX_STEPS", 3200)
    with pytest.raises(NumericsError, match="not converged at 3200 Magnus steps"):
        rabi_evolve(design_pi_pulse(52.0, detuning=50.0))


def test_step2_scattering_zero_intensity():
    assert step2_scattering_probability(0.0, RB87, 787.6e-9, 1e-4) == 0.0
    assert step2_scattering_probability(1e6, RB87, 787.6e-9, 0.0) == 0.0


def test_step2_scattering_linear_in_duration():
    p1 = step2_scattering_probability(2.8e6, RB87, 787.6e-9, 50e-6)
    p2 = step2_scattering_probability(2.8e6, RB87, 787.6e-9, 100e-6)
    assert p2 == pytest.approx(2 * p1, rel=1e-9, abs=0.0)


def test_step2_scattering_over_operating_timeline():
    # ramp up + pulse hold + ramp down at the delta = 52 E_R intensity
    from mottreg.superlattice import SuperlatticeConfig, lpol_ramp_time, \
        solve_intensity_for_delta

    base = SuperlatticeConfig()
    intensity = solve_intensity_for_delta(base, RB87, 52.0)
    cfg = SuperlatticeConfig(lpol_intensity=intensity)
    ramp = lpol_ramp_time(cfg, RB87, 1e-4)
    units = UnitSystem.for_lattice(RB87, 850e-9)
    hold = units.time_from_natural(10.0 / 13.0)
    exposure = 2 * ramp.intensity_weight + hold

    # oracle: the closed-form ramp exposure against the sampled schedule
    ts = np.linspace(0.0, ramp.duration, 20001)
    sampled = np.trapezoid([ramp.intensity_fraction(t) for t in ts], ts)
    assert ramp.intensity_weight == pytest.approx(sampled, rel=1e-7, abs=0.0)

    p = step2_scattering_probability(intensity, RB87, 787.6e-9, exposure)
    assert 0.5e-4 <= p <= 2e-4


def test_pulse_duration_matches_si_conversion():
    # 2 t_f at omega_0 = 13 E_R/hbar converts to the quoted 38.6 us window
    units = UnitSystem.for_lattice(RB87, 850e-9)
    t_f = 5.0 / 13.0
    assert units.time_from_natural(2 * t_f) * 1e6 == pytest.approx(38.6, rel=5e-3)
