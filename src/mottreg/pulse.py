"""Gaussian microwave pi-pulse design and two-level Rabi dynamics for the
selective depopulation step, plus its spontaneous-scattering budget.

Works in natural units: Rabi and detuning frequencies in E_R/hbar, times in
hbar/E_R.  The rotating-frame Hamiltonian has the envelope Omega(t)/2 off
diagonal and the detuning splitting {0, -Delta} on the diagonal; with a
kHz-scale Rabi frequency on a 6.8 GHz carrier the rotating-wave
approximation is exact for all practical purposes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsDomainError
from .numerics import OdeProblem, Trajectory, integrate_ode
from .stark import FieldAtAtom, scattering_rates, TransitionSet
from .units import AtomSpecies

__all__ = [
    "GaussianPulse",
    "TwoLevelOutcome",
    "pi_pulse_amplitude",
    "design_pi_pulse",
    "rabi_evolve",
    "step2_scattering_probability",
]


@dataclass(frozen=True)
class GaussianPulse:
    """Microwave envelope Omega(t) = Omega_0 exp(-omega_0^2 t^2) on [-t_f, t_f]."""

    peak_rabi: float
    envelope_width: float
    cutoff: float
    detuning: float = 0.0

    def __post_init__(self):
        if self.peak_rabi <= 0 or self.envelope_width <= 0:
            raise PhysicsDomainError("pulse amplitudes must be positive")
        if self.cutoff < 3.0 / self.envelope_width:
            raise PhysicsDomainError("cutoff must be >= 3/omega_0 so truncation is negligible")

    def envelope(self, t: float) -> float:
        return self.peak_rabi * math.exp(-(self.envelope_width * t) ** 2)


@dataclass(frozen=True)
class TwoLevelOutcome:
    p_flip: float
    p_stay: float
    final_amplitudes: tuple[complex, complex]
    trajectory: Trajectory


def pi_pulse_amplitude(omega0: float, t_f: float) -> float:
    """Peak Rabi Omega_0 = pi / int_{-t_f}^{t_f} exp(-omega_0^2 t^2) dt, with
    the integral in closed form, sqrt(pi) erf(omega_0 t_f) / omega_0."""
    if t_f < 3.0 / omega0:
        raise PhysicsDomainError("cutoff must be >= 3/omega_0")
    return math.pi * omega0 / (math.sqrt(math.pi) * math.erf(omega0 * t_f))


def design_pi_pulse(delta: float, detuning: float = 0.0) -> GaussianPulse:
    """Pulse with omega_0 = delta/4 and t_f = 5/omega_0, pi area on resonance."""
    omega0 = delta / 4.0
    t_f = 5.0 / omega0
    return GaussianPulse(peak_rabi=pi_pulse_amplitude(omega0, t_f),
                         envelope_width=omega0, cutoff=t_f, detuning=detuning)


def rabi_evolve(pulse: GaussianPulse, rel_tol: float = 1e-11,
                abs_tol: float = 1e-13) -> TwoLevelOutcome:
    """Integrate the driven two-level system from |0> across the pulse."""
    delta = pulse.detuning

    def rhs(t, c):
        half = 0.5 * pulse.envelope(t)
        return np.array([-1j * half * c[1],
                         -1j * (half * c[0] - delta * c[1])])

    problem = OdeProblem(dimension=2, rhs=rhs,
                         initial_state=np.array([1.0 + 0.0j, 0.0 + 0.0j]),
                         time_span=(-pulse.cutoff, pulse.cutoff),
                         rel_tol=rel_tol, abs_tol=abs_tol)
    traj = integrate_ode(problem)
    c0, c1 = traj.final_state
    return TwoLevelOutcome(p_flip=float(abs(c1) ** 2), p_stay=float(abs(c0) ** 2),
                           final_amplitudes=(complex(c0), complex(c1)),
                           trajectory=traj)


def step2_scattering_probability(intensity: float, species: AtomSpecies,
                                 lpol_wavelength: float, exposure: float) -> float:
    """P = int gamma(t) dt with gamma = max(gamma0, gamma1) at the
    instantaneous LPOL intensity.  gamma is linear in intensity, so the
    integral is the rate at the peak `intensity` (W/m^2) times `exposure`,
    the full-intensity-equivalent time int I(t) dt / I_peak in seconds."""
    if exposure == 0.0:
        return 0.0
    transitions = TransitionSet.for_species(species, lpol_wavelength)
    g0, g1 = scattering_rates(FieldAtAtom(intensity=1.0, wavelength=lpol_wavelength),
                              transitions)
    return max(g0, g1) * intensity * exposure
