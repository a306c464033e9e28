"""Optical-Bloch dynamics of the resonant removing laser: photon counting
for non-target atoms, the off-resonant impact on targets, and the collision
estimate.

All quantities here are SI (rates in 1/s, times in s).  The drive is
constant over the window, so the affine Bloch system is propagated by an
exact matrix exponential; an augmented component accumulates the photon
integral int Gamma rho_ee dt in the same exponential.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsDomainError
from .numerics import expm, solve_scalar

__all__ = [
    "ObeParams",
    "BlochState",
    "RemovalPlan",
    "obe_evolve",
    "photon_count",
    "removal_photon_threshold",
    "collision_probability",
    "solve_removal_drive",
]


@dataclass(frozen=True)
class ObeParams:
    """Two-level atom with decay: linewidth Gamma, drive Omega_L, detuning
    Delta (all rad/s) over a duration in seconds."""

    linewidth: float
    rabi_frequency: float
    detuning: float
    duration: float

    def __post_init__(self):
        if self.linewidth <= 0:
            raise PhysicsDomainError("linewidth must be positive")
        if self.duration < 0:
            raise PhysicsDomainError("duration must be >= 0")
        if self.rabi_frequency < 0:
            raise PhysicsDomainError("rabi_frequency must be >= 0")


@dataclass(frozen=True)
class BlochState:
    population_excited: float
    population_ground: float
    coherence: complex


def _bloch_generator(params: ObeParams) -> np.ndarray:
    """Affine generator for z = (u, v, w, 1, X) with X' = rho_ee."""
    g, om, dt = params.linewidth, params.rabi_frequency, params.detuning
    m = np.zeros((5, 5))
    m[0, 0] = -g / 2.0
    m[0, 1] = dt
    m[1, 0] = -dt
    m[1, 1] = -g / 2.0
    m[1, 2] = om
    m[2, 1] = -om
    m[2, 2] = -g
    m[2, 3] = -g
    m[4, 2] = 0.5
    m[4, 3] = 0.5
    return m


def _state_from_vector(z: np.ndarray) -> BlochState:
    u, v, w = z[0], z[1], z[2]
    return BlochState(population_excited=0.5 * (1.0 + w),
                      population_ground=0.5 * (1.0 - w),
                      coherence=0.5 * (u + 1j * v))


def obe_evolve(params: ObeParams, n_samples: int = 400,
               ) -> tuple[np.ndarray, list[BlochState]]:
    """Trajectory of the Bloch state from the ground state.

    Returns (times, states) at n_samples points including both endpoints;
    each sample is exact for the constant drive.
    """
    times = np.linspace(0.0, params.duration, n_samples)
    z = np.array([0.0, 0.0, -1.0, 1.0, 0.0])
    states = [_state_from_vector(z)]
    if params.duration > 0.0:
        step = expm(_bloch_generator(params) * (times[1] - times[0]))
        for _ in range(n_samples - 1):
            z = step @ z
            states.append(_state_from_vector(z))
    else:
        states = [states[0]] * n_samples
    return times, states


def photon_count(params: ObeParams) -> float:
    """n_p = int Gamma rho_ee dt over the window, from the exact propagator."""
    if params.duration == 0.0:
        return 0.0
    z = np.array([0.0, 0.0, -1.0, 1.0, 0.0])
    z = expm(_bloch_generator(params) * params.duration) @ z
    return params.linewidth * float(z[4])


def removal_photon_threshold(trap_depth_er: float) -> float:
    """Photons needed to heat an atom out of a trap of depth U0 (in E_R):
    n_p = U0 / 2E_R."""
    if trap_depth_er < 0:
        raise PhysicsDomainError("trap depth must be >= 0")
    return trap_depth_er / 2.0


def collision_probability(hot_atom_lifetime: float, tunneling_time: float) -> float:
    """Chance a hot atom tunnels next door before leaving: lifetime / t_tunnel."""
    if hot_atom_lifetime < 0 or tunneling_time <= 0:
        raise PhysicsDomainError("need lifetime >= 0 and tunneling time > 0")
    return min(1.0, hot_atom_lifetime / tunneling_time)


@dataclass(frozen=True)
class RemovalPlan:
    """Solved removing-laser drive: Omega_L and the window that yields the
    required photon number, with a flag when the requested window had to be
    extended past the Gamma/2 rate ceiling."""

    rabi_frequency: float
    duration: float
    requested_duration: float
    feasible_at_request: bool
    threshold: float


def solve_removal_drive(linewidth: float, threshold: float,
                        requested_duration: float,
                        excited_population_cap: float = 0.45) -> RemovalPlan:
    """Find Omega_L such that the resonant photon count hits the threshold.

    The scattering rate saturates at Gamma/2, so a request needing an average
    excited population above the cap is extended to the minimal feasible
    duration before the drive is solved by bisection (photon count is
    monotone in Omega_L on resonance).
    """
    if threshold < 0 or requested_duration <= 0:
        raise PhysicsDomainError("need threshold >= 0 and a positive duration")
    if threshold == 0.0:
        return RemovalPlan(rabi_frequency=0.0, duration=requested_duration,
                           requested_duration=requested_duration,
                           feasible_at_request=True, threshold=threshold)
    needed_population = threshold / (linewidth * requested_duration)
    feasible = needed_population <= excited_population_cap
    duration = (requested_duration if feasible
                else threshold / (linewidth * excited_population_cap))

    def deficit(log_omega: float) -> float:
        params = ObeParams(linewidth=linewidth, rabi_frequency=math.exp(log_omega),
                           detuning=0.0, duration=duration)
        return photon_count(params) - threshold

    lo, hi = math.log(linewidth * 1e-3), math.log(linewidth * 1e3)
    if deficit(hi) < 0:
        raise PhysicsDomainError(
            "photon threshold unreachable in the window even at saturation")
    log_omega = solve_scalar(deficit, (lo, hi), tol=1e-12)
    return RemovalPlan(rabi_frequency=math.exp(log_omega), duration=duration,
                       requested_duration=requested_duration,
                       feasible_at_request=feasible, threshold=threshold)
