"""Removing-laser Bloch dynamics, photon counting, and collision estimate."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import mottreg.removal as removal_mod
from mottreg.errors import PhysicsDomainError
from mottreg.numerics import expm
from mottreg.removal import (_bloch_generator, collision_probability,
                             photon_count, removal_photon_threshold,
                             resonant_photon_count, solve_removal_drive)
from mottreg.units import RB87

GAMMA = RB87.gamma2


def _bloch_trajectory(params, n_samples=400):
    """Times, rho_ee and the coherence (u + i v)/2 from the ground state at
    n_samples even times over params = (rabi_frequency, detuning, duration),
    stepped by the exact exponential of photon_count's Bloch
    generator."""
    *drive, duration = params
    times = np.linspace(0.0, duration, n_samples)
    z = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    states = [z]
    step = expm(_bloch_generator(*drive) * (times[1] - times[0]))
    for _ in range(n_samples - 1):
        states.append(step @ states[-1])
    states = np.array(states)
    return times, states[:, 2], 0.5 * (states[:, 0] + 1j * states[:, 1])


def _assert_physical(rho_ee, coherence):
    # a density matrix: 0 <= rho_ee <= 1 and |rho_eg|^2 <= rho_ee rho_gg
    assert np.all(rho_ee >= 0.0) and np.all(rho_ee <= 1.0)
    assert np.all(np.abs(coherence) ** 2 <= rho_ee * (1.0 - rho_ee) + 1e-12)


def test_obe_no_drive_stays_ground():
    _, rho_ee, _ = _bloch_trajectory((0.0, 0.0, 2e-6))
    assert np.all(np.abs(rho_ee) <= 1e-12)


def test_obe_resonant_steady_state_closed_form():
    # oracle: rho_ee -> s / (2 (1 + s)) with s = 2 Omega^2 / Gamma^2
    omega = 2.0 * GAMMA
    s = 2 * omega ** 2 / GAMMA ** 2
    _, rho_ee, _ = _bloch_trajectory((omega, 0.0, 60.0 / GAMMA))
    assert rho_ee[-1] == pytest.approx(s / (2 * (1 + s)), abs=1e-6)


def test_obe_detuned_steady_state_closed_form():
    omega = 1.5 * GAMMA
    delta = 4.0 * GAMMA
    s = 2 * omega ** 2 / GAMMA ** 2
    expected = (s / 2) / (1 + s + (2 * delta / GAMMA) ** 2)
    _, rho_ee, _ = _bloch_trajectory((omega, delta, 60.0 / GAMMA))
    assert rho_ee[-1] == pytest.approx(expected, rel=1e-5)


def test_obe_weak_decay_matches_rabi_oracle():
    # Gamma << Omega limit: undamped Rabi oscillation sin^2(Omega t / 2)
    omega = 1e4 * GAMMA
    times, rho_ee, _ = _bloch_trajectory((omega, 0.0, 4 * math.pi / omega), 801)
    expected = np.sin(0.5 * omega * times) ** 2
    assert np.max(np.abs(rho_ee - expected)) < 2e-3


def test_obe_trace_and_purity_along_trajectory():
    _assert_physical(*_bloch_trajectory(
        (3.0 * GAMMA, 0.5 * GAMMA, 20 / GAMMA))[1:])


@settings(max_examples=25, deadline=None)
@given(omega=st.floats(0.0, 20.0), delta=st.floats(-100.0, 100.0),
       duration=st.floats(0.0, 60.0))
def test_obe_trace_and_positivity_over_generated_drives(omega, delta, duration):
    # Omega and Delta in units of Gamma, the duration in units of 1/Gamma
    params = (omega * GAMMA, delta * GAMMA, duration / GAMMA)
    _assert_physical(*_bloch_trajectory(params, 41)[1:])
    assert photon_count(*params) >= 0.0


def _photon_count_mpmath(params):
    """Oracle: the (u, v, w, 1, N) Bloch system with N' = Gamma (1 + w)/2 for
    params = (rabi_frequency, detuning, duration), exponentiated in 80-digit
    arithmetic."""
    with mpmath.workdps(80):
        g, om, dt, t = (mpmath.mpf(x) for x in (GAMMA, *params))
        m = mpmath.matrix([[-g / 2, dt, 0, 0, 0],
                           [-dt, -g / 2, om, 0, 0],
                           [0, -om, -g, -g, 0],
                           [0, 0, 0, 0, 0],
                           [0, 0, g / 2, g / 2, 0]])
        z = mpmath.expm(m * t) * mpmath.matrix([0, 0, -1, 1, 0])
        return float(z[4])


@pytest.mark.parametrize("detuning, rel", [
    (RB87.hyperfine_splitting, 1e-10),
    (2 * math.pi * 1e3 * 1e9, 1e-8),
    (2 * math.pi * 1e4 * 1e9, 1e-7),
])
def test_photon_count_matches_high_precision_oracle(detuning, rel):
    plan = solve_removal_drive(25.0, 1e-6, 0.45)
    params = (plan.rabi_frequency, detuning, plan.duration)
    assert photon_count(*params) == pytest.approx(_photon_count_mpmath(params), rel=rel,
                                                   abs=0.0)


# Omega/Gamma from weak drives through critical damping (Gamma/4 and 1e-7 to
# either side) to deep saturation
_RESONANT_W = (1e-4, 1e-2, 0.2, 0.25 - 1e-7, 0.25, 0.25 + 1e-7, 0.3, 1.0, 10.0, 1e3)


# Gamma T from 1e-9 to 4000, with both sides of the short-window series
# switch at (3/4 + |kappa|) Gamma T = 1 (Gamma T = 1 for weak drives)
@pytest.mark.parametrize("gamma_t", [1e-9, 1e-4, 1e-3, 0.3, 0.999, 1.001, 4.0, 60.0, 4000.0])
def test_resonant_photon_count_matches_high_precision_oracle(gamma_t):
    for w in _RESONANT_W:
        omega, duration = w * GAMMA, gamma_t / GAMMA
        got = resonant_photon_count(omega, duration)
        assert math.isfinite(got)
        assert got == pytest.approx(_photon_count_mpmath((omega, 0.0, duration)),
                                    rel=1e-13, abs=0.0)


def test_resonant_photon_count_finite_and_rising_in_the_window():
    # rho_ee > 0 after t = 0, so the count rises with the window at any drive
    for w in np.logspace(-6, 6, 49):
        counts = [resonant_photon_count(w * GAMMA, gamma_t / GAMMA)
                  for gamma_t in np.logspace(-12, 9, 43)]
        assert all(math.isfinite(c) and c > 0.0 for c in counts)
        assert all(a < b for a, b in zip(counts, counts[1:]))


@pytest.mark.parametrize("gamma_t", [1e306, 8e307])
def test_resonant_photon_count_past_the_range_of_the_oscillation_phase(gamma_t):
    # kappa Gamma T overflows long after the oscillation has decayed to 0, and
    # the count is the steady-state rate w^2/(1 + 2 w^2) over the window
    w = 1e3
    assert resonant_photon_count(w * GAMMA, gamma_t / GAMMA) == pytest.approx(
        gamma_t * (w ** 2 / (1.0 + 2.0 * w ** 2)), rel=1e-12, abs=0.0)


def test_far_detuned_photon_count_stays_positive():
    plan = solve_removal_drive(25.0, 1e-6, 0.45)
    for ghz in (1e6, 1e10):
        assert photon_count(plan.rabi_frequency, 2 * math.pi * ghz * 1e9,
                            plan.duration) > 0.0


def test_obe_matches_rk45_kernel():
    """Cross-check the exact-exponential propagation against scipy's adaptive
    DOP853 on resonant and moderately detuned drives."""
    for delta in (0.0, 20.0 * GAMMA):
        omega, duration = 2.5 * GAMMA, 3.0 / GAMMA

        def rhs(t, z):
            u, v, w = z
            return np.array([
                delta * v - 0.5 * GAMMA * u,
                -delta * u + omega * w - 0.5 * GAMMA * v,
                -omega * v - GAMMA * (w + 1.0)])

        sol = solve_ivp(rhs, (0.0, duration), [0.0, 0.0, -1.0],
                        method="DOP853", rtol=1e-11, atol=1e-13)
        assert sol.success
        rho_rk = 0.5 * (1.0 + sol.y[2, -1])
        _, rho_ee, _ = _bloch_trajectory((omega, delta, duration), 3)
        assert rho_ee[-1] == pytest.approx(rho_rk, abs=1e-8)


def test_photon_count_zero_duration():
    assert photon_count(1e8, 0.0, 0.0) == 0.0


def test_photon_count_monotone_in_duration_and_drive():
    counts_t = [photon_count(8e7, 0.0, d * 1e-6)
                for d in (0.25, 0.5, 1.0, 2.0)]
    assert all(a < b for a, b in zip(counts_t, counts_t[1:]))
    counts_o = [photon_count(o, 0.0, 1e-6)
                for o in (1e7, 3e7, 8e7, 2e8)]
    assert all(a < b for a, b in zip(counts_o, counts_o[1:]))


def test_detuned_suppression_matches_steady_state_ratio():
    plan = solve_removal_drive(25.0, 1e-6, 0.45)
    resonant = photon_count(plan.rabi_frequency, 0.0, plan.duration)
    detuned = photon_count(plan.rabi_frequency, RB87.hyperfine_splitting,
                           plan.duration)
    s = 2 * plan.rabi_frequency ** 2 / GAMMA ** 2
    predicted = (1 + s) / (1 + s + (2 * RB87.hyperfine_splitting / GAMMA) ** 2)
    ratio = detuned / resonant
    assert 0.5 * predicted < ratio < 2.0 * predicted


def test_removal_threshold_values():
    assert removal_photon_threshold(50.0) == 25.0
    assert removal_photon_threshold(0.0) == 0.0
    assert removal_photon_threshold(100.0) == 50.0
    with pytest.raises(PhysicsDomainError):
        removal_photon_threshold(-1.0)


def test_collision_probability_values():
    assert collision_probability(1e-6, 100e-3) == pytest.approx(1e-5, rel=1e-6, abs=0.0)
    assert collision_probability(5.0, 5.0) == 1.0
    assert collision_probability(0.0, 1.0) == 0.0
    with pytest.raises(PhysicsDomainError):
        collision_probability(1.0, 0.0)


def test_solve_removal_drive_extends_infeasible_window():
    # 25 photons in 1 us exceeds the Gamma/2 ceiling (~19 photons/us)
    plan = solve_removal_drive(25.0, 1e-6, 0.45)
    assert not plan.feasible_at_request
    assert 1e-6 < plan.duration <= 1.5e-6
    resonant = photon_count(plan.rabi_frequency, 0.0, plan.duration)
    assert resonant == pytest.approx(25.0, rel=1e-9)


def test_solve_removal_drive_keeps_feasible_window():
    plan = solve_removal_drive(10.0, 2e-6, 0.45)
    assert plan.feasible_at_request
    assert plan.duration == 2e-6
    resonant = photon_count(plan.rabi_frequency, 0.0, plan.duration)
    assert resonant == pytest.approx(10.0, rel=1e-9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(log_depth=st.floats(-9.0, 3.0), log_window_us=st.floats(-2.0, 5.0),
       cap=st.floats(0.05, 0.49))
def test_solved_drive_meets_the_threshold_on_the_exact_propagator(log_depth, log_window_us,
                                                                   cap):
    threshold = removal_photon_threshold(10.0 ** log_depth)
    requested = 10.0 ** log_window_us * 1e-6
    plan = solve_removal_drive(threshold, requested, cap)
    assert plan.duration >= requested
    assert plan.feasible_at_request == (plan.duration == requested)
    resonant = photon_count(plan.rabi_frequency, 0.0, plan.duration)
    assert resonant == pytest.approx(threshold, rel=1e-9, abs=0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(depth=st.floats(1e-6, 1e3), window_us=st.floats(1e-2, 1e4))
@example(depth=1.0, window_us=1.0)
@example(depth=50.0, window_us=1.0)
def test_solved_log_drive_and_its_neighbour_bracket_the_threshold(depth, window_us):
    # the drive is the exact root of the closed-form count in log Omega: the
    # residual changes sign between it and a neighbouring float
    solve, roots = removal_mod.solve_scalar, []

    def recorded(f, bracket):
        roots.append(solve(f, bracket))
        return roots[-1]

    threshold = removal_photon_threshold(depth)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(removal_mod, "solve_scalar", recorded)
        plan = solve_removal_drive(threshold, window_us * 1e-6, 0.45)
    (log_omega,) = roots
    assert plan.rabi_frequency == math.exp(log_omega)

    def deficit(x):
        return resonant_photon_count(math.exp(x), plan.duration) - threshold

    here = deficit(log_omega)
    neighbours = [deficit(math.nextafter(log_omega, end)) for end in (-math.inf, math.inf)]
    assert here == 0.0 or any(n == 0.0 or (n > 0.0) != (here > 0.0) for n in neighbours)


def _bisection(f, bracket):
    """Oracle: bisection of a sign-changing bracket until the midpoint rounds
    to an end, then the end with the smaller |f|."""
    a, b = sorted(bracket)
    fa, fb = f(a), f(b)
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    while a < (m := 0.5 * a + 0.5 * b) < b:
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm > 0.0) == (fa > 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return a if abs(fa) <= abs(fb) else b


def _drive_roots(solve, threshold, duration):
    """The drive Omega_L with the root finder solve in place of solve_scalar."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(removal_mod, "solve_scalar", solve)
        return solve_removal_drive(threshold, duration, 0.45).rabi_frequency


@pytest.mark.parametrize("window_us", [1e-2, 1.0, 1e2, 1e4])
@pytest.mark.parametrize("depth", [1e-3, 1.0, 25.0, 50.0, 1e3])
def test_drive_is_the_bisection_root(depth, window_us):
    threshold = removal_photon_threshold(depth)
    drive = _drive_roots(removal_mod.solve_scalar, threshold, window_us * 1e-6)
    assert drive == _drive_roots(_bisection, threshold, window_us * 1e-6)


def test_solve_removal_drive_validation():
    for threshold, duration in ((-1.0, 1e-6), (25.0, 0.0)):
        with pytest.raises(PhysicsDomainError):
            solve_removal_drive(threshold, duration, 0.45)


def test_params_validation():
    for rabi_frequency, duration, field in ((1.0, -1.0, "duration"),
                                            (-1.0, 1.0, "rabi_frequency")):
        with pytest.raises(PhysicsDomainError, match=field):
            photon_count(rabi_frequency, 0.0, duration)
    # the refusals come before the empty window's count of 0
    with pytest.raises(PhysicsDomainError, match="rabi_frequency"):
        photon_count(-1.0, 0.0, 0.0)
