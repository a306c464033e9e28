"""Microwave pi-pulse design and Rabi dynamics."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from mottreg.budget import pi_pulse
from mottreg.config import RunConfig
from mottreg.errors import NumericsError, PhysicsDomainError
from mottreg import pulse as pulse_mod
from mottreg.pulse import GaussianPulse, rabi_evolve
from mottreg.units import HBAR, recoil_energy

OMEGA0 = 13.0   # the envelope width of the delta = 52 E_R pulse, E_R/hbar


def _pi_pulse(delta: float, detuning: float = 0.0) -> GaussianPulse:
    """The budget's pulse rule omega_0 = delta/4, t_f = 5/omega_0, detuned by
    `detuning` E_R/hbar: the pair d = detuning/omega_0, s_f = 5."""
    return GaussianPulse(detuning=detuning / (delta / 4.0), cutoff=5.0)


def _full_magnus(pulse: GaussianPulse, n: int, blocks: int = 1) -> np.ndarray:
    """The time-ordered products of `blocks` equal runs of the n Magnus-4 steps
    on the whole pulse [-s_f, s_f], as 2x2 matrices in extended precision,
    shape (blocks, 2, 2).

    The oracle of the half grid and its reflection, which it does not use:
    every step of the interval is built and multiplied in order.  A step with
    Omega/2 = a1, a2 at its Gauss nodes is exp(-i v.sigma) = cos|v| I -
    i (sin|v|/|v|) v.sigma, v = (h (a1 + a2)/2, -(sqrt 3/12) h^2 (a2 - a1) d,
    h d/2), the traceless part of H = (Omega/2) sigma_x + (d/2) sigma_z.
    """
    s_f, d = np.longdouble(pulse.cutoff), np.longdouble(pulse.detuning)
    h, root3 = 2 * s_f / n, np.sqrt(np.longdouble(3))
    mid = -s_f + h * (np.arange(n, dtype=np.longdouble) + 0.5)
    a1, a2 = (0.5 * pulse.peak_rabi * np.exp(-(mid + node) ** 2)
              for node in (-root3 / 6 * h, root3 / 6 * h))
    vx, vy, vz = h * (a1 + a2) / 2, -root3 / 12 * h * h * (a2 - a1) * d, h * d / 2
    angle = np.sqrt(vx * vx + vy * vy + vz * vz)
    cos, sin = np.cos(angle), np.sin(angle) / angle
    steps = np.empty((n, 2, 2), dtype=np.clongdouble)
    steps[:, 0, 0], steps[:, 1, 1] = cos - 1j * sin * vz, cos + 1j * sin * vz
    steps[:, 0, 1], steps[:, 1, 0] = sin * (-vy - 1j * vx), sin * (vy - 1j * vx)
    steps = steps.reshape(blocks, -1, 2, 2)
    while (k := steps.shape[1]) > 1:
        paired = steps[:, 1:k:2] @ steps[:, 0:k - 1:2]
        steps = np.concatenate([paired, steps[:, k - 1:]], axis=1) if k % 2 else paired
    return steps[:, 0]


def _full_flip(pulse: GaussianPulse, n: int) -> float:
    """|c1|^2 of the n-step full-interval product, in extended precision."""
    return float(abs(_full_magnus(pulse, n)[0, 1, 0]) ** 2)


def test_pi_pulse_amplitude_reference_value():
    amp = OMEGA0 * _pi_pulse(52.0).peak_rabi
    assert amp == pytest.approx(23.0, rel=5e-3)
    # within 1% of the infinite-cutoff Gaussian integral
    assert amp == pytest.approx(math.sqrt(math.pi) * OMEGA0, rel=1e-2)


def test_pi_pulse_amplitude_infinite_cutoff_limit():
    # oracle: closed-form Gaussian integral; erf(12) = 1 to machine precision
    amp = GaussianPulse(detuning=0.0, cutoff=12.0).peak_rabi
    assert amp == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_pi_pulse_amplitude_scaling():
    # the configured pulse of twice the width and half the cutoff time has
    # twice the peak Rabi frequency in E_R/hbar
    amplitudes = []
    for omega0, t_f in ((OMEGA0, 5.0 / OMEGA0), (2 * OMEGA0, 2.5 / OMEGA0)):
        cfg = RunConfig()
        cfg.pulse.omega0_er, cfg.pulse.cutoff = omega0, t_f
        pulse, width, _, _ = pi_pulse(cfg)
        amplitudes.append(width * pulse.peak_rabi)
    assert amplitudes[1] == pytest.approx(2 * amplitudes[0], rel=1e-12)


def test_pulse_cutoff_validation():
    for cutoff in (1.3, 3.0 - 1e-15, float("nan")):
        with pytest.raises(PhysicsDomainError, match="pulse.cutoff"):
            GaussianPulse(detuning=4.0, cutoff=cutoff)
    assert GaussianPulse(detuning=4.0, cutoff=3.0).cutoff == 3.0


def test_resonant_pulse_inverts():
    outcome = rabi_evolve(_pi_pulse(52.0, detuning=0.0))
    assert outcome.p_flip >= 1.0 - 1e-6
    assert outcome.p_flip + outcome.p_stay == pytest.approx(1.0, abs=1e-10)


def test_detuned_flip_error_near_reference_value():
    outcome = rabi_evolve(_pi_pulse(52.0, detuning=52.0))
    assert 0.5 * 5.9e-6 <= outcome.p_flip <= 2.0 * 5.9e-6


def test_far_detuned_flip_error_negligible():
    pulse = _pi_pulse(52.0, detuning=13_000.0)
    outcome = rabi_evolve(pulse)
    assert outcome.p_flip < 1e-10


def test_norm_conservation_along_trajectory():
    outcome = rabi_evolve(_pi_pulse(52.0, detuning=52.0), trajectory=True)
    states = outcome.states
    norms = np.abs(states[:, 0]) ** 2 + np.abs(states[:, 1]) ** 2
    assert np.max(np.abs(norms - 1.0)) < 1e-13


def test_flip_probability_even_in_detuning():
    plus = rabi_evolve(_pi_pulse(52.0, detuning=52.0)).p_flip
    minus = rabi_evolve(_pi_pulse(52.0, detuning=-52.0)).p_flip
    assert plus == pytest.approx(minus, rel=1e-9, abs=0.0)


def _flip(ratio):
    # the pi pulse of the budget's rule, detuned by ratio * omega_0
    return rabi_evolve(GaussianPulse(detuning=ratio, cutoff=5.0)).p_flip


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
        pulse = GaussianPulse(detuning=ratio, cutoff=5.0)
        assert value == pytest.approx(_dop853_flip(pulse, rtol=2.3e-14, atol=1e-22),
                                      rel=1e-8, abs=0.0)
    assert dip == pytest.approx(6.059e-10, rel=1e-3, abs=0.0)
    assert dip < 1e-3 * min(_flip(3.8), _flip(3.97))
    assert peak == pytest.approx(3.8909e-5, rel=1e-4, abs=0.0)
    assert peak > max(_flip(4.527), _flip(4.547))
    assert peak == pytest.approx(6.587 * operating, rel=1e-3, abs=0.0)


def test_rabi_evolve_solver_work_at_operating_point():
    # s_f = omega_0 t_f = 5 and |d| s_f = 20 take the 3200-step floor; the
    # half-grid gap is ~9.7e-9 of p_flip there, and no samples are built
    outcome = rabi_evolve(_pi_pulse(52.0, detuning=52.0))
    assert outcome.n_steps == 3200
    assert 0.0 < outcome.flip_gap < 1e-8 * outcome.p_flip
    assert outcome.times is None and outcome.states is None
    sampled = rabi_evolve(_pi_pulse(52.0, detuning=52.0), trajectory=True)
    assert sampled.states.shape == (801, 2)
    assert np.array_equal(sampled.times, np.linspace(-5.0, 5.0, 801))
    assert (sampled.p_flip, sampled.n_steps) == (outcome.p_flip, outcome.n_steps)
    # the floor holds for a short cutoff, and 1 rad of detuning phase per step
    # sets the count far off resonance: 2 |d| s_f = 10000, rounded up to 11200
    short = GaussianPulse(detuning=4.0, cutoff=3.0)
    assert rabi_evolve(short).n_steps == 3200
    assert rabi_evolve(_pi_pulse(52.0, detuning=13_000.0)).n_steps == 11200
    # just inside the operating point the 3200-step gap fails, and one doubling
    # passes it
    assert rabi_evolve(_pi_pulse(52.0, detuning=50.0)).n_steps == 6400


def _dop853(pulse, omega0=OMEGA0, times=None, rtol=1e-13, atol=1e-15):
    # oracle: scipy's 8th-order Dormand-Prince at tight tolerances on the
    # Hamiltonian in natural units, H = diag(0, -Delta) + (Omega(t)/2) sigma_x
    # with Omega(t) = Omega_0 exp(-omega_0^2 t^2) on [-t_f, t_f] and the pi
    # area in closed form, Omega_0 = pi omega_0 / (sqrt(pi) erf(omega_0 t_f));
    # `times` are in hbar/E_R
    t_f, detuning = pulse.cutoff / omega0, pulse.detuning * omega0
    peak = math.pi * omega0 / (math.sqrt(math.pi) * math.erf(omega0 * t_f))

    def rhs(t, c):
        half = 0.5 * peak * math.exp(-(omega0 * t) ** 2)
        return [-1j * half * c[1], -1j * (half * c[0] - detuning * c[1])]

    ref = solve_ivp(rhs, (-t_f, t_f), [1.0 + 0j, 0j],
                    method="DOP853", rtol=rtol, atol=atol, t_eval=times)
    assert ref.success
    return ref.y.T


def _dop853_flip(pulse, **tolerances):
    return abs(_dop853(pulse, **tolerances)[-1, 1]) ** 2


def test_detuned_flip_error_vs_scipy_dop853():
    pulse = _pi_pulse(52.0, detuning=52.0)
    outcome = rabi_evolve(pulse, trajectory=True)
    assert outcome.p_flip == pytest.approx(_dop853_flip(pulse), rel=1e-8, abs=0.0)
    # the sampled amplitudes, phases included, in the frame of H = diag(0, -Delta) + ...
    reference = _dop853(pulse, times=outcome.times / OMEGA0)
    assert np.max(np.abs(outcome.states - reference)) < 1e-9


@pytest.mark.parametrize("detuning", [26.0, 52.0, 80.0, 104.0, 110.5])
def test_flip_error_vs_fine_magnus_and_tight_dop853(detuning):
    pulse = _pi_pulse(52.0, detuning=detuning)
    outcome = rabi_evolve(pulse, trajectory=True)
    p_flip = outcome.p_flip
    # 160,000 full-interval Magnus-4 steps in extended precision leave an h^4
    # error near 1e-16 of p_flip; a double product would carry ~1e-16 of the
    # mid-pulse amplitude, 5.5e-12 of p_flip at Delta = 8.5 omega_0
    prefix = [np.eye(2, dtype=np.clongdouble)]
    for block in _full_magnus(pulse, 160_000, blocks=800):
        prefix.append(block @ prefix[-1])
    assert p_flip == pytest.approx(float(abs(prefix[-1][1, 0]) ** 2), rel=1e-12, abs=0.0)
    # the sampled Richardson amplitudes against 160,000 steps; the 3200-step
    # amplitudes alone are off by 2e-12 to 7e-12
    phase = np.exp(0.5j * pulse.detuning * (outcome.times - outcome.times[0]))[:, None]
    sampled = np.array(prefix)[:, :, 0].astype(complex) * phase
    assert np.max(np.abs(outcome.states - sampled)) < 1e-13
    # DOP853 at rtol 1e-13 is itself off by 3e-11 at Delta = 52
    tight = _dop853_flip(pulse, rtol=2.3e-14, atol=1e-22)
    assert p_flip == pytest.approx(tight, rel=2e-11, abs=0.0)


@settings(max_examples=15, deadline=None)
@given(omega0=st.floats(1.0, 50.0), width=st.floats(3.0, 8.0),
       ratio=st.floats(-8.0, 8.0))
def test_magnus_states_unitary_and_flip_matches_dop853(omega0, width, ratio):
    # s_f = omega0 t_f = width and d = Delta/omega0 = ratio: the pulse's
    # truncation and detuning in units of its width, against DOP853 on the
    # natural-unit pulse of width omega0, which checks the scale invariance
    pulse = GaussianPulse(detuning=ratio, cutoff=width)
    outcome = rabi_evolve(pulse, trajectory=True)
    norms = np.sum(np.abs(outcome.states) ** 2, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-13
    # abs: near a zero of p_flip, DOP853's amplitude error of ~3e-14 times
    # |c1| < 6e-6 exceeds rel * p_flip
    assert outcome.p_flip == pytest.approx(_dop853_flip(pulse, omega0=omega0),
                                           rel=1e-8, abs=1e-18)
    # p(Delta) = p(-Delta)
    assert rabi_evolve(GaussianPulse(detuning=-ratio, cutoff=width)).p_flip == pytest.approx(
        outcome.p_flip, rel=1e-9, abs=1e-18)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ratio=st.floats(-10.0, 10.0), width=st.floats(3.0, 8.0))
def test_reflected_half_grid_meets_the_full_interval_product(ratio, width):
    # U = U_h^T U_h holds for the discretised product: the reflected first
    # half on n and n/2 steps against every step of [-s_f, s_f] multiplied in
    # order, per amplitude
    pulse = GaussianPulse(detuning=ratio, cutoff=width)
    n = rabi_evolve(pulse).n_steps
    full = np.array([_full_magnus(pulse, m)[0, :, 0] - [1, 0] for m in (n, n // 2)])
    # packed pairs: axis 0 (alpha - 1, beta), axis 1 the n and n/2 steps
    pairs = pulse_mod._reflect(pulse_mod._product(pulse_mod._grids(pulse, n)))
    assert np.max(np.abs(pairs.T - full.astype(complex))) < 1e-14


def test_operating_point_evaluates_each_half_grid_once(monkeypatch):
    # the n- and n/2-step half grids take 1600 + 800 Magnus steps, one sinc
    # each, where the two full grids would take 4800; n_steps still counts
    # the full-interval steps
    evaluated, sinc = [], np.sinc
    monkeypatch.setattr(np, "sinc", lambda x: evaluated.append(np.size(x)) or sinc(x))
    outcome = rabi_evolve(_pi_pulse(52.0, detuning=52.0))
    assert (sum(evaluated), outcome.n_steps) == (2400, 3200)


@pytest.mark.parametrize("ratio, entries", [(4.0, 2400), (8.0, 4800)])
def test_trajectory_reads_the_last_pass_grids(monkeypatch, ratio, entries):
    # the sampled amplitudes reuse the last pass's 1600 + 800 steps; at d = 8
    # that is the extended pass, made after the double one
    evaluated, sinc = [], np.sinc
    monkeypatch.setattr(np, "sinc", lambda x: evaluated.append(np.size(x)) or sinc(x))
    outcome = rabi_evolve(GaussianPulse(detuning=ratio, cutoff=5.0), trajectory=True)
    assert (sum(evaluated), outcome.n_steps) == (entries, 3200)
    assert (outcome.p_flip < 1e-6) == (ratio == 8.0)


@pytest.mark.parametrize("ratio, rel", [(8.0, 1e-12), (2.5, 1e-13)])
def test_long_pulse_flip_error_vs_extended_full_interval(ratio, rel):
    # 420,800 steps.  At d = 8 the double product of both grids is 2.1e-10 of
    # p_flip = 5.9e-9 off the same grids in extended precision, which every
    # step count the cap admits now takes below p_flip = 1e-6.  At d = 2.5 the
    # double half grids are 2.6e-14 off; midpoints counted from -s_f instead of
    # from the seam s = 0 would overlap the halves at the peak, 3.8e-13 off
    pulse = GaussianPulse(detuning=ratio, cutoff=700.0)
    outcome = rabi_evolve(pulse)
    assert outcome.n_steps == 420_800
    fine, coarse = (_full_magnus(pulse, n)[0, 1, 0] for n in (420_800, 210_400))
    reference = float(abs(fine + (fine - coarse) / 15) ** 2)
    assert outcome.p_flip == pytest.approx(reference, rel=rel, abs=0.0)


@pytest.mark.parametrize("ratio", [8.0, 8.5, 3.885])
def test_extended_trajectory_ends_on_the_reported_flip(ratio):
    # below p_flip = 1e-6 the sampled amplitudes are formed in extended
    # precision too; formed in double, the last |c1|^2 was 7.4e-12, 1.0e-11
    # and 1.4e-11 of p_flip off
    outcome = rabi_evolve(GaussianPulse(detuning=ratio, cutoff=5.0), trajectory=True)
    assert outcome.p_flip < 1e-6
    assert outcome.states.dtype == complex
    assert abs(outcome.states[-1, 1]) ** 2 == pytest.approx(outcome.p_flip, rel=1e-14, abs=0.0)


def test_magnus_error_falls_fourth_order_at_operating_point():
    pulse = _pi_pulse(52.0, detuning=52.0)
    reference = _full_flip(pulse, 51200)
    errors = [abs(_full_flip(pulse, n) - reference) for n in (800, 1600, 3200)]
    assert errors[0] > 12 * errors[1] > 144 * errors[2] > 0.0


def test_coarse_magnus_grid_fails_its_residual_check(monkeypatch):
    # a grid the step bound rejects is refused before it is allocated
    with pytest.raises(NumericsError, match="pulse.cutoff"):
        rabi_evolve(GaussianPulse(detuning=4.0, cutoff=1.3e6))
    # at Delta = 50 the 3200-step gap fails; a cap of 3200 leaves no rung to climb
    monkeypatch.setattr(pulse_mod, "_MAX_STEPS", 3200)
    with pytest.raises(NumericsError, match="not converged at 3200 Magnus steps"):
        rabi_evolve(_pi_pulse(52.0, detuning=50.0))


def test_pulse_duration_matches_si_conversion():
    # 2 t_f at omega_0 = 13 E_R/hbar converts to the quoted 38.6 us window
    time_unit = HBAR / recoil_energy(850e-9)
    t_f = 5.0 / 13.0
    assert 2 * t_f * time_unit * 1e6 == pytest.approx(38.6, rel=5e-3)
