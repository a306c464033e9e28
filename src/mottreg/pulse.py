"""Gaussian microwave pi-pulse design and two-level Rabi dynamics for the
selective depopulation step, plus its spontaneous-scattering budget.

Works in natural units: Rabi and detuning frequencies in E_R/hbar, times in
hbar/E_R.  The rotating-frame Hamiltonian has the envelope Omega(t)/2 off
diagonal and the detuning splitting {0, -Delta} on the diagonal; with a
kHz-scale Rabi frequency on a 6.8 GHz carrier the rotating-wave
approximation is exact for all practical purposes.

rabi_evolve propagates this 2x2 problem by the two-point Gauss-Legendre
fourth-order Magnus method (Magnus 1954; Blanes, Casas, Oteo & Ros, Phys.
Rep. 470:151, 2009).  Each step's su(2) exponent has a closed-form
exponential, so all steps are built at once as Cayley-Klein pairs and
multiplied pairwise; the step count follows from the pulse, and the flip
probability at half the steps bounds the discretisation error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, PhysicsDomainError
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

    def envelope(self, t):
        return self.peak_rabi * np.exp(-(self.envelope_width * t) ** 2)


@dataclass(frozen=True)
class TwoLevelOutcome:
    """Rabi evolution from |0>: the amplitudes (c0, c1) at 801 even times on
    [-t_f, t_f], and the gap |p_flip(n) - p_flip(n/2)| of the n steps taken."""

    p_flip: float
    p_stay: float
    times: np.ndarray
    states: np.ndarray
    n_steps: int
    flip_gap: float


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


# Step counts are multiples of the 800 trajectory intervals, at least 8000,
# with at least 800 steps per 1/omega_0 and at most 1 rad of detuning phase
# per step; the upper bound keeps the step arrays to about 110 MB.
_SAMPLES, _MIN_STEPS, _MAX_STEPS = 800, 8000, 800_000
# accepted |p(n) - p(n/2)|: the Magnus-4 error falls 16x per doubling, so it
# is ~gap/15 at n; the absolute floor is the roundoff of |c1|^2
_GAP_REL, _GAP_ABS = 1e-8, 1e-15
_GAUSS = math.sqrt(3.0) / 6.0


def _magnus_steps(pulse: GaussianPulse, n: int) -> np.ndarray:
    """Pairs (alpha - 1, beta), shape (n, 2), of the n Magnus-4 steps.

    With a1, a2 = Omega/2 at the Gauss nodes of a step h, the traceless part
    of H = (Omega/2) sigma_x + (Delta/2) sigma_z integrates to -i v.sigma,
    v = (h (a1 + a2)/2, -(sqrt 3/12) h^2 (a2 - a1) Delta, h Delta/2), and
    exp(-i v.sigma) = [[alpha, -beta*], [beta, alpha*]] with alpha - 1 =
    -2 sin^2(|v|/2) - i sinc|v| v_z and beta = sinc|v| (v_y - i v_x).  Near
    the identity, alpha - 1 keeps the digits that a rounded cos|v| loses
    alike at every step.
    """
    h = 2.0 * pulse.cutoff / n
    mid = -pulse.cutoff + h * (np.arange(n) + 0.5)
    a1 = 0.5 * pulse.envelope(mid - _GAUSS * h)
    a2 = 0.5 * pulse.envelope(mid + _GAUSS * h)
    vx = 0.5 * h * (a1 + a2)
    vy = -0.5 * _GAUSS * h * h * (a2 - a1) * pulse.detuning
    vz = 0.5 * h * pulse.detuning
    angle = np.sqrt(vx * vx + vy * vy + vz * vz)
    sinc = np.sinc(angle / np.pi)
    return np.stack([-2.0 * np.sin(0.5 * angle) ** 2 - 1j * sinc * vz,
                     sinc * (vy - 1j * vx)], axis=-1)


def _compose(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Pairs (alpha - 1, beta) of the products later @ earlier."""
    a2, b2, a1, b1 = later[..., 0], later[..., 1], earlier[..., 0], earlier[..., 1]
    return np.stack([a2 + a1 + a2 * a1 - b2.conj() * b1,
                     b2 + b1 + b2 * a1 + a2.conj() * b1], axis=-1)


def _product(steps: np.ndarray) -> np.ndarray:
    """Time-ordered product of the pairs along axis -2, reduced pairwise."""
    while (k := steps.shape[-2]) > 1:
        paired = _compose(steps[..., 1:k:2, :], steps[..., 0:k - 1:2, :])
        steps = np.concatenate([paired, steps[..., k - 1:, :]], axis=-2) if k % 2 else paired
    return steps[..., 0, :]


def _magnus_evolve(pulse: GaussianPulse, n_steps: int) -> TwoLevelOutcome:
    """Propagate |0> over n_steps, a multiple of 800, and check p_flip
    against n_steps / 2 steps."""
    # the propagator of each sample interval, then their prefix products
    blocks = _product(_magnus_steps(pulse, n_steps).reshape(_SAMPLES, -1, 2))
    shift = 1
    while shift < _SAMPLES:
        blocks[shift:] = _compose(blocks[shift:], blocks[:-shift])
        shift *= 2
    times = np.linspace(-pulse.cutoff, pulse.cutoff, _SAMPLES + 1)
    # the states are the first columns (alpha, beta), times the phase of the
    # identity part -(Delta/2) I of H = diag(0, -Delta) + (Omega/2) sigma_x
    states = (np.concatenate([[[0.0j, 0.0j]], blocks]) + [1.0, 0.0]) * np.exp(
        0.5j * pulse.detuning * (times - times[0]))[:, None]
    p_flip = float(abs(states[-1, 1]) ** 2)
    gap = abs(p_flip - float(abs(_product(_magnus_steps(pulse, n_steps // 2))[1]) ** 2))
    if gap > _GAP_REL * p_flip + _GAP_ABS:
        raise NumericsError(f"pi pulse not converged at {n_steps} Magnus steps: "
                            f"|p(n) - p(n/2)| = {gap:.3g} for p_flip = {p_flip:.6g}")
    return TwoLevelOutcome(p_flip=p_flip, p_stay=float(abs(states[-1, 0]) ** 2),
                           times=times, states=states, n_steps=n_steps, flip_gap=gap)


def rabi_evolve(pulse: GaussianPulse) -> TwoLevelOutcome:
    """Evolve the driven two-level system from |0> across the pulse, on a
    Magnus grid worked out from omega_0 t_f and |Delta| t_f."""
    need = max(_MIN_STEPS, 1600.0 * pulse.envelope_width * pulse.cutoff,
               2.0 * abs(pulse.detuning) * pulse.cutoff)
    if need > _MAX_STEPS:
        raise NumericsError(f"the pi pulse needs {need:.3g} > {_MAX_STEPS} Magnus steps: "
                            "pulse.cutoff is too long for pulse.omega0_er or detuning_er")
    return _magnus_evolve(pulse, _SAMPLES * math.ceil(need / _SAMPLES))


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
