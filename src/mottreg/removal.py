"""Optical-Bloch dynamics of the resonant removing laser: photon counting
for non-target atoms, the off-resonant impact on targets, and the collision
estimate.

All quantities here are SI (rates in 1/s, times in s).  Only photon counts
over the window are formed, never a Bloch trajectory.  On resonance the
damped Bloch equations have Torrey's closed-form transient (Phys. Rev. 76,
1059, 1949): the drive solver counts photons with it, and the non-target
count of the `remove` report is that same count.  At any detuning the drive
is constant over the window, so photon_count propagates the affine Bloch
system to its end by one exact matrix exponential, in which an augmented
component accumulates the photon integral int Gamma rho_ee dt; the targets'
off-resonant impact is counted this way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsDomainError
from .numerics import expm, solve_scalar

__all__ = [
    "RemovalPlan",
    "photon_count",
    "resonant_photon_count",
    "removal_photon_threshold",
    "collision_probability",
    "solve_removal_drive",
]


def _bloch_generator(linewidth: float, rabi_frequency: float,
                     detuning: float) -> np.ndarray:
    """Affine generator for z = (u, v, rho_ee, 1, X) with X' = rho_ee; rho_ee
    in place of w = 2 rho_ee - 1 keeps far-detuned counts free of cancellation.
    Linewidth Gamma, drive Omega_L and detuning Delta are all rad/s."""
    g, om, dt = linewidth, rabi_frequency, detuning
    m = np.zeros((5, 5))
    m[0, 0] = -g / 2.0
    m[0, 1] = dt
    m[1, 0] = -dt
    m[1, 1] = -g / 2.0
    m[1, 2] = 2.0 * om
    m[1, 3] = -om
    m[2, 1] = -om / 2.0
    m[2, 2] = -g
    m[4, 2] = 1.0
    return m


def photon_count(linewidth: float, rabi_frequency: float, detuning: float,
                 duration: float) -> float:
    """n_p = int Gamma rho_ee dt over a window of `duration` seconds, from the
    exact propagator of the two-level atom with decay (rates in rad/s)."""
    if linewidth <= 0:
        raise PhysicsDomainError("linewidth must be positive")
    if duration < 0:
        raise PhysicsDomainError("duration must be >= 0")
    if rabi_frequency < 0:
        raise PhysicsDomainError("rabi_frequency must be >= 0")
    if duration == 0.0:
        return 0.0
    generator = _bloch_generator(linewidth, rabi_frequency, detuning)
    if not math.isfinite(float(np.linalg.norm(generator, 1)) * duration):
        raise PhysicsDomainError("the removal window times the detuning overflows the float "
                                 "range; shorten removal.duration_us or removal.trap_depth_er")
    z = expm(generator * duration) @ np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    # at subnormal drives the Pade-13 rounding leaves z[4] a few ulps below
    # 0 (ROADMAP item 5); a photon count is never negative
    return max(0.0, linewidth * float(z[4]))


def resonant_photon_count(linewidth: float, rabi_frequency: float,
                          duration: float) -> float:
    """n_p = int Gamma rho_ee dt for a resonant drive from the ground state,
    in closed form (linewidth > 0, duration >= 0).

    On resonance rho'' + 2a rho' + g rho = w^2/2 in tau = Gamma t, with
    w = Omega/Gamma, a = 3/4, g = 1/2 + w^2 and rho(0) = rho'(0) = 0.  Its
    impulse response is h = e^{-a tau} S with S = sinh(kappa tau)/kappa and
    kappa^2 = 1/16 - w^2, and n_p = (w^2/2) J(tau), J = int_0^tau (tau - s) h ds
    = [tau - e^{-a tau} S - 2a (1 - e^{-a tau}(C + a S))/g]/g, C = cosh(kappa tau)
    (Torrey, Phys. Rev. 76, 1059, 1949); for kappa^2 < 0, C and S turn into
    cos and sin/|kappa|.  Below (a + |kappa|) tau = 1 that bracket cancels to O(tau^3), so J comes
    from its Taylor series instead.
    """
    tau = linewidth * duration
    w2 = (rabi_frequency / linewidth) ** 2
    g = 0.5 + w2
    kappa2 = 0.0625 - w2
    kappa = math.sqrt(abs(kappa2))
    if (0.75 + kappa) * tau < 1.0:
        # d_n = h_n tau^(n+2)/(n+2)! for the Taylor coefficients h_n of h,
        # h_(n+2) = -2a h_(n+1) - g h_n; scaled terms neither overflow nor
        # lose the O(tau^3) leading order, and 21 terms reach 1e-17
        d_prev, d = 0.0, tau ** 3 / 6.0
        j = d
        for n in range(20):
            d_prev, d = d, -(1.5 * tau * d + g * tau * tau * d_prev / (n + 3)) / (n + 4)
            j += d
    else:
        if kappa2 > 0.0:
            # e^{-a tau} cosh and e^{-a tau} sinh/kappa as
            # e^{(kappa - a) tau}(1 +- e^{-2 kappa tau})/2: no overflow at long
            # windows and no cancellation near critical damping
            half = 0.5 * math.exp((kappa - 0.75) * tau)
            m = math.expm1(-2.0 * kappa * tau)
            ec, es = half * (2.0 + m), -half * m / kappa
        elif kappa2 < 0.0:
            decay = math.exp(-0.75 * tau)
            phase = kappa * tau if decay else 0.0    # decayed long before it overflows
            ec = decay * math.cos(phase)
            es = decay * math.sin(phase) / kappa
        else:
            decay = math.exp(-0.75 * tau)
            ec, es = decay, decay * tau
        j = (tau - es - 1.5 * (1.0 - ec - 0.75 * es) / g) / g
    return 0.5 * w2 * j


def removal_photon_threshold(trap_depth_er: float) -> float:
    """Photons needed to heat an atom out of a trap of depth U0 (in E_R):
    n_p = U0 / 2E_R."""
    if trap_depth_er < 0:
        raise PhysicsDomainError("trap depth must be >= 0")
    return trap_depth_er / 2.0


def collision_probability(hot_atom_lifetime: float, tunneling_time: float) -> float:
    """Chance a hot atom tunnels next door before leaving: lifetime / t_tunnel."""
    if hot_atom_lifetime < 0 or tunneling_time <= 0:
        raise PhysicsDomainError("need a hot-atom lifetime >= 0 and a positive "
                                 "removal.tunneling_time_ms")
    return min(1.0, hot_atom_lifetime / tunneling_time)


@dataclass(frozen=True)
class RemovalPlan:
    """Solved removing-laser drive: Omega_L and the window that yields the
    required photon number, with a flag when the requested window had to be
    extended past the Gamma/2 rate ceiling."""

    rabi_frequency: float
    duration: float
    feasible_at_request: bool
    threshold: float


def solve_removal_drive(linewidth: float, threshold: float, requested_duration: float,
                        excited_population_cap: float) -> RemovalPlan:
    """Find Omega_L such that the resonant photon count hits the threshold.

    The scattering rate saturates at Gamma/2, so a request needing an average
    excited population above the cap is extended to the minimal feasible
    duration.  The drive is then solved by bisection in log Omega_L, each
    step one closed-form resonant_photon_count, between a lower end
    that scatters at most half the threshold and Omega_L = 1e3 Gamma.
    """
    if threshold < 0 or requested_duration <= 0 or linewidth <= 0:
        raise PhysicsDomainError(
            "need a photon threshold >= 0 (removal.trap_depth_er), a positive window "
            "(removal.duration_us) and a positive linewidth")
    if threshold == 0.0:
        return RemovalPlan(rabi_frequency=0.0, duration=requested_duration,
                           feasible_at_request=True, threshold=threshold)
    needed_population = threshold / (linewidth * requested_duration)
    feasible = needed_population <= excited_population_cap
    duration = (requested_duration if feasible
                else threshold / (linewidth * excited_population_cap))
    if not math.isfinite(2.0 * linewidth * duration):   # the count holds Gamma T / g, g >= 1/2
        raise PhysicsDomainError(
            ("removal.duration_us" if feasible else
             "removal.trap_depth_er at this removal.excited_population_cap")
            + " stretches the removal window beyond the float range")

    def deficit(log_omega: float) -> float:
        return resonant_photon_count(linewidth, math.exp(log_omega), duration) - threshold

    # below Omega = Gamma/4 rho_ee rises to rho_ss < Omega^2/Gamma^2 without
    # overshoot, so n_p < T Omega^2/Gamma: half the threshold at the lower end
    lo = math.log(min(linewidth * 1e-3,
                      math.sqrt(linewidth * threshold / (2.0 * duration))))
    hi = math.log(linewidth * 1e3)
    if deficit(hi) < 0:
        raise PhysicsDomainError(
            f"photon threshold {threshold:.6g} (removal.trap_depth_er / 2) is "
            f"unreachable in the {duration * 1e6:.6g} us window even at "
            f"Omega = 1e3 Gamma; lower removal.trap_depth_er or "
            f"removal.excited_population_cap, or lengthen removal.duration_us")
    log_omega = solve_scalar(deficit, (lo, hi))
    return RemovalPlan(rabi_frequency=math.exp(log_omega), duration=duration,
                       feasible_at_request=feasible, threshold=threshold)
