"""Removing-laser Bloch dynamics, photon counting, and collision estimate."""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from mottreg.errors import PhysicsDomainError
from mottreg.removal import (ObeParams, collision_probability, obe_evolve,
                             photon_count, removal_photon_threshold,
                             solve_removal_drive)
from mottreg.units import RB87

GAMMA = RB87.gamma2


def test_obe_no_drive_stays_ground():
    times, states = obe_evolve(ObeParams(GAMMA, 0.0, 0.0, 2e-6))
    assert all(s.population_excited == pytest.approx(0.0, abs=1e-12) for s in states)


def test_obe_resonant_steady_state_closed_form():
    # oracle: rho_ee -> s / (2 (1 + s)) with s = 2 Omega^2 / Gamma^2
    omega = 2.0 * GAMMA
    s = 2 * omega ** 2 / GAMMA ** 2
    _, states = obe_evolve(ObeParams(GAMMA, omega, 0.0, 60.0 / GAMMA))
    assert states[-1].population_excited == pytest.approx(s / (2 * (1 + s)), abs=1e-6)


def test_obe_detuned_steady_state_closed_form():
    omega = 1.5 * GAMMA
    delta = 4.0 * GAMMA
    s = 2 * omega ** 2 / GAMMA ** 2
    expected = (s / 2) / (1 + s + (2 * delta / GAMMA) ** 2)
    _, states = obe_evolve(ObeParams(GAMMA, omega, delta, 60.0 / GAMMA))
    assert states[-1].population_excited == pytest.approx(expected, rel=1e-5)


def test_obe_weak_decay_matches_rabi_oracle():
    # Gamma -> 0 limit: undamped Rabi oscillation sin^2(Omega t / 2)
    omega = 1e7
    gamma = 1e-4 * omega
    times, states = obe_evolve(ObeParams(gamma, omega, 0.0, 4 * math.pi / omega), 801)
    got = np.array([s.population_excited for s in states])
    expected = np.sin(0.5 * omega * times) ** 2
    assert np.max(np.abs(got - expected)) < 2e-3


def test_obe_trace_and_purity_along_trajectory():
    _, states = obe_evolve(ObeParams(GAMMA, 3.0 * GAMMA, 0.5 * GAMMA, 20 / GAMMA))
    for s in states:
        assert s.population_excited + s.population_ground == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= s.population_excited <= 1.0
        assert (abs(s.coherence) ** 2
                <= s.population_excited * s.population_ground + 1e-12)


def test_obe_matches_rk45_kernel():
    """Cross-check the exact-exponential propagation against scipy's adaptive
    DOP853 on resonant and moderately detuned drives."""
    for delta in (0.0, 20.0 * GAMMA):
        params = ObeParams(GAMMA, 2.5 * GAMMA, delta, 3.0 / GAMMA)

        def rhs(t, z):
            u, v, w = z
            return np.array([
                params.detuning * v - 0.5 * GAMMA * u,
                -params.detuning * u + params.rabi_frequency * w - 0.5 * GAMMA * v,
                -params.rabi_frequency * v - GAMMA * (w + 1.0)])

        sol = solve_ivp(rhs, (0.0, params.duration), [0.0, 0.0, -1.0],
                        method="DOP853", rtol=1e-11, atol=1e-13)
        assert sol.success
        rho_rk = 0.5 * (1.0 + sol.y[2, -1])
        _, states = obe_evolve(params, 3)
        assert states[-1].population_excited == pytest.approx(rho_rk, abs=1e-8)


def test_photon_count_zero_duration():
    assert photon_count(ObeParams(GAMMA, 1e8, 0.0, 0.0)) == 0.0


def test_photon_count_monotone_in_duration_and_drive():
    counts_t = [photon_count(ObeParams(GAMMA, 8e7, 0.0, d * 1e-6))
                for d in (0.25, 0.5, 1.0, 2.0)]
    assert all(a < b for a, b in zip(counts_t, counts_t[1:]))
    counts_o = [photon_count(ObeParams(GAMMA, o, 0.0, 1e-6))
                for o in (1e7, 3e7, 8e7, 2e8)]
    assert all(a < b for a, b in zip(counts_o, counts_o[1:]))


def test_detuned_suppression_matches_steady_state_ratio():
    plan = solve_removal_drive(GAMMA, 25.0, 1e-6)
    resonant = photon_count(ObeParams(GAMMA, plan.rabi_frequency, 0.0, plan.duration))
    detuned = photon_count(ObeParams(GAMMA, plan.rabi_frequency,
                                     RB87.hyperfine_splitting, plan.duration))
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
    assert collision_probability(1e-6, 100e-3) == pytest.approx(1e-5)
    assert collision_probability(5.0, 5.0) == 1.0
    assert collision_probability(0.0, 1.0) == 0.0
    with pytest.raises(PhysicsDomainError):
        collision_probability(1.0, 0.0)


def test_solve_removal_drive_extends_infeasible_window():
    # 25 photons in 1 us exceeds the Gamma/2 ceiling (~19 photons/us)
    plan = solve_removal_drive(GAMMA, 25.0, 1e-6)
    assert not plan.feasible_at_request
    assert 1e-6 < plan.duration <= 1.5e-6
    resonant = photon_count(ObeParams(GAMMA, plan.rabi_frequency, 0.0, plan.duration))
    assert resonant == pytest.approx(25.0, rel=1e-9)


def test_solve_removal_drive_keeps_feasible_window():
    plan = solve_removal_drive(GAMMA, 10.0, 2e-6)
    assert plan.feasible_at_request
    assert plan.duration == 2e-6
    resonant = photon_count(ObeParams(GAMMA, plan.rabi_frequency, 0.0, plan.duration))
    assert resonant == pytest.approx(10.0, rel=1e-9)


def test_params_validation():
    with pytest.raises(PhysicsDomainError):
        ObeParams(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(PhysicsDomainError):
        ObeParams(1.0, 1.0, 0.0, -1.0)
