"""Lattice-to-microtrap handoff: frequency matching, the closed-form
adiabatic ramp, its analytic excitation probability, its exact two-level
propagator, and the depleted-lattice hopping-time bound.

Natural units throughout: frequencies in E_R/hbar, times in hbar/E_R,
depths in E_R, lengths in lattice wavelengths.  With E_R = h^2/(2 m
lambda_s^2) = 1 the atom mass is 2 pi^2 and the lattice wavevector 2 pi,
which makes omega(V) = 2 sqrt(V) for a lattice site of depth V.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, PhysicsDomainError
from .units import K_BOLTZMANN, PI

__all__ = [
    "HarmonicRamp",
    "TransferResult",
    "initial_frequency",
    "matched_microtrap_depth",
    "microtrap_depth_kelvin",
    "ramp_schedule",
    "excitation_analytic",
    "max_excitation_analytic",
    "excitation_numeric",
    "band_tunneling",
    "hopping_time",
]

# the largest xi admitted, where the excitation ceiling 4 xi^2 reaches 0.1:
# the LPOL ramp takes xi = sqrt(target)/2 for any target below 0.1
_MAX_XI = math.sqrt(0.1) / 2.0


@dataclass(frozen=True)
class HarmonicRamp:
    """Trapping-frequency schedule omega(t) = omega0 / (1 -/+ 4 sqrt(2) xi
    omega0 t), deepening (-) the trap when the final frequency is the higher
    and opening (+) it when it is the lower.  The lattice-to-microtrap
    transfer and the LPOL turn-on (superlattice.lpol_ramp_time) both follow it."""

    initial_frequency: float
    adiabaticity: float
    final_frequency: float

    def __post_init__(self):
        if not 0.0 < self.adiabaticity <= _MAX_XI:
            raise PhysicsDomainError("adiabaticity must lie in (0, sqrt(0.1)/2], "
                                     "an excitation ceiling 4 xi^2 of at most 0.1")
        if self.initial_frequency <= 0 or self.final_frequency <= 0:
            raise PhysicsDomainError("frequencies must be positive")
        if self.final_frequency == self.initial_frequency:
            raise PhysicsDomainError("final and initial frequency must differ")

    @property
    def rate_constant(self) -> float:
        """b = 4 sqrt(2) xi omega0, the inverse time scale of the schedule."""
        return 4.0 * math.sqrt(2.0) * self.adiabaticity * self.initial_frequency

    @property
    def duration(self) -> float:
        """Closed-form ramp duration T = |1 - omega0/omegaT| / b."""
        return abs(1.0 - self.initial_frequency / self.final_frequency) / self.rate_constant


def initial_frequency(lattice_depth: float) -> float:
    """Site frequency omega(0) = 2 sqrt(V_L / E_R) in E_R/hbar."""
    if lattice_depth <= 0:
        raise PhysicsDomainError("lattice depth must be positive")
    return 2.0 * math.sqrt(lattice_depth)


def matched_microtrap_depth(lattice_depth: float, waist: float, lambda_s: float) -> float:
    """Microtrap depth V_f = V_L k^2 w^2 / 2 (E_R) that matches the lattice
    site frequency for a beam waist w."""
    if waist <= 0:
        raise PhysicsDomainError("waist must be positive")
    k_w = 2.0 * PI * waist / lambda_s
    return lattice_depth * k_w ** 2 / 2.0


def microtrap_depth_kelvin(depth_er: float, e_r: float) -> float:
    """Equivalent temperature U / (2 kB) of a depth in units of e_r (J)."""
    return depth_er * e_r / (2.0 * K_BOLTZMANN)


def _signed_rate(ramp: HarmonicRamp) -> float:
    deepen = ramp.final_frequency > ramp.initial_frequency
    return ramp.rate_constant if deepen else -ramp.rate_constant


def ramp_schedule(ramp: HarmonicRamp, t) -> np.ndarray:
    """omega(t) along the ramp at each time; only defined for 0 <= t <= duration."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0) or np.any(t_arr > ramp.duration * (1.0 + 1e-12)):
        raise PhysicsDomainError(f"t outside the ramp domain [0, {ramp.duration}]")
    return ramp.initial_frequency / (1.0 - _signed_rate(ramp) * t_arr)


def _phase(ramp: HarmonicRamp, t) -> np.ndarray:
    """Argument of the sin^2 in the analytic excitation probability."""
    return np.log(1.0 - _signed_rate(ramp) * np.asarray(t, dtype=float)) / (
        4.0 * math.sqrt(2.0) * ramp.adiabaticity)


def excitation_analytic(ramp: HarmonicRamp, t) -> np.ndarray:
    """P_e(t) = 4 xi^2 sin^2(ln(1 -/+ 4 sqrt(2) xi omega0 t) / (4 sqrt(2) xi))."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0) or np.any(t_arr > ramp.duration * (1.0 + 1e-12)):
        raise PhysicsDomainError("t outside the ramp domain")
    return 4.0 * ramp.adiabaticity ** 2 * np.sin(_phase(ramp, t_arr)) ** 2


def max_excitation_analytic(ramp: HarmonicRamp) -> float:
    """Maximum of the analytic P_e over the ramp: exactly 4 xi^2 once the
    phase has swept past pi/2, the endpoint value otherwise."""
    phase_end = abs(float(_phase(ramp, ramp.duration)))
    ceiling = 4.0 * ramp.adiabaticity ** 2
    return ceiling if phase_end >= math.pi / 2.0 else ceiling * math.sin(phase_end) ** 2


@dataclass(frozen=True)
class TransferResult:
    max_excitation: float
    times: np.ndarray
    excitation_numeric: np.ndarray
    excitation_analytic: np.ndarray
    analytic_numeric_gap: float
    norm_drift: float


def excitation_numeric(ramp: HarmonicRamp, n_samples: int = 1500) -> TransferResult:
    """Evolve the two-state adiabatic-frame system exactly along the ramp.

    The states are the instantaneous ground and second excited levels with
    E_g = omega/2, E_e = 5 omega/2 and the Hermitian coupling i xi Delta E_g
    off diagonal, so dc/dt = -i omega(t) A c with the constant
    A = [[1/2, 2i xi], [-2i xi, 5/2]].  In tau = int omega dt =
    -(omega0/b) ln(1 - b t) the system has constant coefficients and
    c = exp(-i A tau) c0 at every sample.  The result reports the sampled
    P_e(t) and its sup-norm gap to the closed form.
    """
    xi = ramp.adiabaticity
    a = np.array([[0.5, 2j * xi], [-2j * xi, 2.5]])
    energies, vectors = np.linalg.eigh(a)
    ts = np.linspace(0.0, ramp.duration, n_samples)
    rate = _signed_rate(ramp)
    tau = -(ramp.initial_frequency / rate) * np.log1p(-rate * ts)
    weights = vectors[0].conj()   # V^dagger c0 for c0 = |g>
    states = (np.exp(-1j * np.outer(tau, energies)) * weights) @ vectors.T
    p_num = np.abs(states[:, 1]) ** 2
    p_ana = excitation_analytic(ramp, ts)
    norms = np.abs(states[:, 0]) ** 2 + p_num
    return TransferResult(max_excitation=float(np.max(p_num)),
                          times=ts, excitation_numeric=p_num,
                          excitation_analytic=p_ana,
                          analytic_numeric_gap=float(np.max(np.abs(p_num - p_ana))),
                          norm_drift=float(np.max(np.abs(norms - 1.0))))


def band_tunneling(lattice_depth: float, n_waves: int = 12) -> float:
    """Ground-band tunneling J (E_R) of the 1-D sinusoidal lattice from the
    central-equation matrix: J = (E0(band edge) - E0(0)) / 4."""
    if lattice_depth < 5.0:
        warnings.warn(f"lattice depth below the tight-binding regime: lattice.depth_er = "
                      f"{lattice_depth!r} < 5 leaves J = bandwidth/4 unreliable", stacklevel=2)

    def ground_energy(q: float) -> float:
        ms = np.arange(-n_waves, n_waves + 1)
        off = np.full(2 * n_waves, -lattice_depth / 4.0)
        mat = (np.diag((q + 2.0 * ms) ** 2 + lattice_depth / 2.0)
               + np.diag(off, 1) + np.diag(off, -1))
        return np.linalg.eigvalsh(mat)[0]

    bandwidth = ground_energy(1.0) - ground_energy(0.0)
    # the band edges are eigenvalues near V/2; beyond ~230 E_R their
    # difference keeps fewer than three digits above the rounding of V
    if bandwidth < 1e3 * np.finfo(float).eps * lattice_depth:
        raise NumericsError(f"lattice.depth_er = {lattice_depth:g} is too deep to resolve "
                            "the tunneling J from the band edges")
    return bandwidth / 4.0


def hopping_time(lattice_depth: float) -> float:
    """Characteristic hopping time hbar/J in natural time units (hbar/E_R)."""
    return 1.0 / band_tunneling(lattice_depth)
