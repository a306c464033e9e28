"""Gaussian microwave pi-pulse design and two-level Rabi dynamics for the
selective depopulation step.

Works in units of the pulse's own envelope width omega_0: time s = omega_0 t
and frequencies over omega_0.  The rotating-frame Hamiltonian then has the
envelope A exp(-s^2)/2 off diagonal and the detuning splitting {0, -d} on the
diagonal, d = Delta/omega_0, on [-s_f, s_f], s_f = omega_0 t_f; the pi area
fixes A = sqrt(pi)/erf(s_f), so a pulse is the pair (d, s_f) and its flip
error depends on nothing else.  With a kHz-scale Rabi frequency on a 6.8 GHz
carrier the rotating-wave approximation is exact for all practical purposes.

rabi_evolve propagates this 2x2 problem by the two-point Gauss-Legendre
fourth-order Magnus method (Magnus 1954; Blanes, Casas, Oteo & Ros, Phys.
Rep. 470:151, 2009).  Each step's su(2) exponent has a closed-form
exponential, so all steps are built at once as Cayley-Klein pairs and
multiplied pairwise.  Only the final pairs on n and n/2 steps are formed: n
starts at 3200 or more, set by the pulse, and doubles until the two flip
probabilities agree, and the reported amplitudes are their Richardson value
(16 U(n) - U(n/2))/15, which cancels the h^4 error; a flip probability below
1e-6 has its final pairs formed again in extended precision.  The amplitudes
at 801 sample times are built, the same way, only when a trajectory is asked
for.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, PhysicsDomainError

__all__ = [
    "GaussianPulse",
    "TwoLevelOutcome",
    "rabi_evolve",
]


@dataclass(frozen=True)
class GaussianPulse:
    """The pi pulse in units of its envelope width omega_0: the detuning
    d = Delta/omega_0 and the cutoff s_f = omega_0 t_f of the envelope
    A exp(-s^2) on [-s_f, s_f]."""

    detuning: float
    cutoff: float

    def __post_init__(self):
        if not self.cutoff >= 3.0:
            raise PhysicsDomainError("pulse.cutoff must be >= 3/pulse.omega0_er "
                                     "so truncation is negligible")

    @property
    def peak_rabi(self) -> float:
        """A = Omega_0/omega_0 = pi / int_{-s_f}^{s_f} exp(-s^2) ds = sqrt(pi)/erf(s_f)."""
        return math.sqrt(math.pi) / math.erf(self.cutoff)


@dataclass(frozen=True)
class TwoLevelOutcome:
    """Rabi evolution from |0>: the final probabilities, the amplitudes
    (c0, c1) at 801 even times s on [-s_f, s_f] when asked for (else None), and
    the gap |p_flip(n) - p_flip(n/2)| of the n steps taken."""

    p_flip: float
    p_stay: float
    times: np.ndarray | None
    states: np.ndarray | None
    n_steps: int
    flip_gap: float


# Step counts are multiples of 1600, so that both the n-step grid and its
# n/2-step check sample the 800 trajectory intervals.  The first rung has at
# least 3200 steps, at least 300 steps per unit of s and at most 1 rad of
# detuning phase per step; the cap keeps the step arrays to about 110 MB.
_SAMPLES, _RUNG, _MIN_STEPS, _MAX_STEPS = 800, 1600, 3200, 800_000
# accepted |p(n) - p(n/2)|: the Magnus-4 error falls 16x per doubling, so it
# is ~gap/15 at n, and the Richardson value removes it; the absolute floor is
# the roundoff of |c1|^2
_GAP_REL, _GAP_ABS = 1e-8, 1e-15
# below this p_flip, the double product's rounding (~1e-16 of the O(0.1)
# amplitude mid-pulse) passes 1e-13 of it, and the final pairs are formed
# again in extended precision (64-bit significands on x86-64) wherever their
# arrays, twice as large, fit in the memory of the step cap
_EXTENDED_BELOW = 1e-6
_GAUSS = math.sqrt(3.0) / 6.0


def _magnus_steps(pulse: GaussianPulse, n: int, dtype=float) -> np.ndarray:
    """Pairs (alpha - 1, beta), shape (n, 2), of the n Magnus-4 steps.

    With a1, a2 = Omega/2 at the Gauss nodes of a step h in s, the traceless
    part of H = (Omega/2) sigma_x + (d/2) sigma_z integrates to -i v.sigma,
    v = (h (a1 + a2)/2, -(sqrt 3/12) h^2 (a2 - a1) d, h d/2), and
    exp(-i v.sigma) = [[alpha, -beta*], [beta, alpha*]] with alpha - 1 =
    -2 sin^2(|v|/2) - i sinc|v| v_z and beta = sinc|v| (v_y - i v_x).  Near
    the identity, alpha - 1 keeps the digits that a rounded cos|v| loses
    alike at every step.
    """
    h = 2.0 * pulse.cutoff / n
    mid = -pulse.cutoff + h * (np.arange(n, dtype=dtype) + 0.5)
    a1, a2 = 0.5 * pulse.peak_rabi * np.exp(-np.stack([mid - _GAUSS * h, mid + _GAUSS * h]) ** 2)
    vx = 0.5 * h * (a1 + a2)
    vy = -0.5 * _GAUSS * (h * (a2 - a1)) * (h * pulse.detuning)   # no h^2 overflow
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


def _sampled(pulse: GaussianPulse, n_steps: int) -> np.ndarray:
    """Pairs (alpha - 1, beta) of the propagators from -s_f to the 801 sample
    times, over n_steps."""
    # the propagator of each sample interval, then their prefix products
    blocks = _product(_magnus_steps(pulse, n_steps).reshape(_SAMPLES, -1, 2))
    shift = 1
    while shift < _SAMPLES:
        blocks[shift:] = _compose(blocks[shift:], blocks[:-shift])
        shift *= 2
    return np.concatenate([[[0.0j, 0.0j]], blocks])


def _richardson(fine: np.ndarray, coarse: np.ndarray) -> np.ndarray:
    """First columns (alpha, beta) of U(n) + (U(n) - U(n/2))/15, from the
    pairs (alpha - 1, beta) on n and n/2 steps; it cancels the h^4 error."""
    return fine + (fine - coarse) / 15.0 + [1.0, 0.0]


def rabi_evolve(pulse: GaussianPulse, trajectory: bool = False) -> TwoLevelOutcome:
    """Evolve the driven two-level system from |0> across the pulse.

    The final pairs on n and n/2 Magnus steps give p(n) and p(n/2); n starts
    from s_f and |d| s_f and doubles, the old n-step pair serving as the new
    half grid, until |p(n) - p(n/2)| passes the gap check.  The
    probabilities are those of the Richardson pair U(n) + (U(n) - U(n/2))/15,
    which stay >= 0 where p_flip passes through zero; the amplitudes at the
    801 sample times are built only if `trajectory` asks for them.
    """
    width, phase = 600.0 * pulse.cutoff, 2.0 * abs(pulse.detuning) * pulse.cutoff
    need = max(_MIN_STEPS, width, phase)
    if need > _MAX_STEPS:
        cause = ("pulse.detuning_er (lattice.delta_target_er under its rule 'delta') is too "
                 "large for pulse.omega0_er" if phase > width
                 else "pulse.cutoff is too long for pulse.omega0_er")
        raise NumericsError(f"the pi pulse needs {need:.3g} > {_MAX_STEPS} Magnus steps: {cause}")
    n = _RUNG * math.ceil(need / _RUNG)
    # the fine grid reduced one level, stacked with the half grid: one product
    steps = _magnus_steps(pulse, n)
    pairs = _product(np.stack([_compose(steps[1::2], steps[0::2]), _magnus_steps(pulse, n // 2)]))
    while True:
        p_fine, p_coarse = np.abs(pairs[:, 1]) ** 2
        gap = abs(float(p_fine - p_coarse))
        if gap <= _GAP_REL * p_fine + _GAP_ABS:
            break
        if 2 * n > _MAX_STEPS:
            raise NumericsError(f"pi pulse not converged at {n} Magnus steps: "
                                f"|p(n) - p(n/2)| = {gap:.3g} for p_flip = {p_fine:.6g}; "
                                "shorten pulse.cutoff")
        n *= 2
        pairs = np.stack([_product(_magnus_steps(pulse, n)), pairs[0]])
    if p_fine < _EXTENDED_BELOW and 2 * n <= _MAX_STEPS:
        pairs = np.stack([_product(_magnus_steps(pulse, m, np.longdouble)) for m in (n, n // 2)])
    p_stay, p_flip = np.abs(_richardson(*pairs)) ** 2
    times = states = None
    if trajectory:
        times = np.linspace(-pulse.cutoff, pulse.cutoff, _SAMPLES + 1)
        # the states are the first columns (alpha, beta), times the phase of the
        # identity part -(d/2) I of H = diag(0, -d) + (Omega/2) sigma_x
        states = _richardson(_sampled(pulse, n), _sampled(pulse, n // 2)) * np.exp(
            0.5j * pulse.detuning * (times - times[0]))[:, None]
    return TwoLevelOutcome(p_flip=float(p_flip), p_stay=float(p_stay), times=times,
                           states=states, n_steps=n, flip_gap=gap)
