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
multiplied pairwise.  The envelope is even and H is real, so the second half
of the pulse is the transpose of the first, step by step too (a mirrored
Magnus-4 step flips v_y, which transposes it): only [-s_f, 0] is propagated,
and U = U_h^T U_h closes it; a chirp or a phase would break this.  Every
pass builds the half grids of n and n/2 steps in one evaluation and forms
their final pairs: n starts at 3200 or more, set by the pulse, and doubles
until the two flip probabilities agree, and the reported amplitudes are their
Richardson value (16 U(n) - U(n/2))/15, which cancels the h^4 error; a flip
probability below 1e-6 has its pass made again in extended precision, at any
n.  The amplitudes at 801 sample times are built from the last pass's grids
only when a trajectory is asked for.
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


# Step counts are multiples of 1600, so that the half grids [-s_f, 0] of both
# the n-step grid and its n/2-step check end on s = 0 and sample their 400
# trajectory intervals.  The first rung has at least 3200 steps, at least 300
# steps per unit of s and at most 1 rad of detuning phase per step; the cap
# keeps the arrays to about 110 MB (106 MB traced at 800,000 extended steps)
_SAMPLES, _RUNG, _MIN_STEPS, _MAX_STEPS = 800, 1600, 3200, 800_000
# accepted |p(n) - p(n/2)|: the Magnus-4 error falls 16x per doubling, so it
# is ~gap/15 at n, and the Richardson value removes it; the absolute floor is
# the roundoff of |c1|^2
_GAP_REL, _GAP_ABS = 1e-8, 1e-15
# below this p_flip, the double product's rounding (~1e-16 of the O(0.1)
# amplitude mid-pulse) passes 1e-13 of it, and the final pairs are formed
# again in extended precision (64-bit significands on x86-64)
_EXTENDED_BELOW = 1e-6
_GAUSS = math.sqrt(3.0) / 6.0
_SIGNS = np.array([-1.0, 1.0])   # of b2* b1 and a2* b1 in _compose


def _half_steps(pulse: GaussianPulse, n: int, dtype=float) -> np.ndarray:
    """Pairs (alpha - 1, beta), packed along the first axis, of the Magnus-4
    steps on the first half [-s_f, 0] of the n- and n/2-step grids, concatenated.

    Each step has its own h in s, and the midpoints count back from s = 0,
    the seam of the reflection, so the rounding of n h/2 against s_f falls
    where the envelope vanishes.  With a1, a2 = Omega/2 at the Gauss nodes of
    a step, the traceless part of H = (Omega/2) sigma_x + (d/2) sigma_z
    integrates to -i v.sigma, v = (h (a1 + a2)/2, -(sqrt 3/12) h^2 (a2 - a1) d,
    h d/2), and exp(-i v.sigma) = [[alpha, -beta*], [beta, alpha*]] with
    alpha - 1 = -2 sin^2(|v|/2) - i sinc|v| v_z and beta = sinc|v| (v_y - i v_x).
    Near the identity, alpha - 1 keeps the digits that a rounded cos|v| loses
    alike at every step.
    """
    counts = (n // 2, n // 4)
    h = np.repeat(2.0 * np.asarray(pulse.cutoff, dtype) / np.array((n, n // 2), dtype), counts)
    mid = h * np.concatenate([np.arange(0.5 - m, 0.0, dtype=dtype) for m in counts])
    node = _GAUSS * h
    a1, a2 = 0.5 * pulse.peak_rabi * np.exp(-np.stack([mid - node, mid + node]) ** 2)
    vx = 0.5 * h * (a1 + a2)
    vy = -0.5 * _GAUSS * (h * (a2 - a1)) * (h * pulse.detuning)   # no h^2 overflow
    vz = 0.5 * h * pulse.detuning
    del h, mid, node, a1, a2   # an extended pass at the step cap peaks ~50 MB lower
    angle = np.sqrt(vx * vx + vy * vy + vz * vz)
    sinc = np.sinc(angle / np.pi)
    x = np.empty((2, angle.size), np.result_type(angle, 1j))
    x[0].real, x[0].imag = -2.0 * np.sin(0.5 * angle) ** 2, -(sinc * vz)
    x[1].real, x[1].imag = sinc * vy, -(sinc * vx)
    return x


def _compose(x2: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """Packed pairs (alpha - 1, beta) of later @ earlier, from the packed
    pairs x2 and x1: (a2 + a1 + a2 a1 - b2* b1, b2 + b1 + b2 a1 + a2* b1)."""
    return x2 + x1 + x2 * x1[0] + x2[::-1].conj() * np.multiply.outer(_SIGNS, x1[1])


def _product(x: np.ndarray) -> np.ndarray:
    """Time-ordered product of packed pairs along their last axis, reduced pairwise."""
    while (k := x.shape[-1]) > 1:
        p = _compose(x[..., 1:k:2], x[..., 0:k - 1:2])
        x = np.concatenate([p, x[..., k - 1:]], axis=-1) if k % 2 else p
    return x[..., 0]


def _reflect(x: np.ndarray) -> np.ndarray:
    """Packed pairs (alpha - 1, beta) of U = U_h^T U_h, from the packed pairs
    of U_h = [[alpha, -beta*], [beta, alpha*]]: (alpha^2 + beta^2, alpha* beta - alpha beta*)."""
    a, b = x
    return np.stack([2.0 * a + a * a + b * b, (b - b.conj()) + (a.conj() * b - a * b.conj())])


def _grids(pulse: GaussianPulse, n: int, dtype=float) -> np.ndarray:
    """Packed pairs, shape (2, 2, n/4), of the half-grid steps of n and n/2
    steps from one evaluation, the n-step one reduced one level to match."""
    x = _half_steps(pulse, n, dtype)
    m = n // 2
    return np.stack([_compose(x[:, 1:m:2], x[:, 0:m:2]), x[:, m:]], axis=1)


def _sampled(x: np.ndarray) -> np.ndarray:
    """Packed pairs (alpha - 1, beta) of the propagators from -s_f to the 801
    sample times on n and n/2 steps, shape (2, 2, 801), from the _grids pairs."""
    # the propagators S_j of the first 400 sample intervals, then their prefix
    # products; S_0 is the identity and S_400 the half pulse U_h
    half = _SAMPLES // 2
    x = _product(x.reshape(2, 2, half, -1))
    shift = 1
    while shift < half:
        x[..., shift:] = _compose(x[..., shift:], x[..., :-shift])
        shift *= 2
    x = np.concatenate([np.zeros((2, 2, 1), x.dtype), x], axis=-1)
    # S_{800-j} = (U_h S_j^dagger)^T U_h, with U^dagger = (a*, -beta) and U^T = (a, -beta*)
    u = x[..., -1:]
    w = _compose(u, np.stack([x[0, :, :-1].conj(), -x[1, :, :-1]]))
    r = _compose(np.stack([w[0], -w[1].conj()]), u)
    return np.concatenate([x, r[..., ::-1]], axis=-1)


def _richardson(x: np.ndarray) -> np.ndarray:
    """First columns (alpha, beta) of U(n) + (U(n) - U(n/2))/15, from packed
    pairs on n and n/2 steps along the second axis; it cancels the h^4 error."""
    r = x[:, 0] + (x[:, 0] - x[:, 1]) / 15.0
    r[0] += 1.0
    return r


def rabi_evolve(pulse: GaussianPulse, trajectory: bool = False) -> TwoLevelOutcome:
    """Evolve the driven two-level system from |0> across the pulse.

    The final pairs on n and n/2 Magnus steps give p(n) and p(n/2); n starts
    from s_f and |d| s_f and doubles, each pass building both half grids
    [-s_f, 0] anew, until |p(n) - p(n/2)| passes the gap check.  Each pair is
    the reflected product of its half grid.  The probabilities are
    those of the Richardson pair U(n) + (U(n) - U(n/2))/15, which stay >= 0
    where p_flip passes through zero, clamped at the 1 that a full flip or
    stay may pass by an ulp; the amplitudes at the 801 sample times
    are built only if `trajectory` asks for them.
    """
    width, phase = 600.0 * pulse.cutoff, 2.0 * abs(pulse.detuning) * pulse.cutoff
    need = max(_MIN_STEPS, width, phase)
    if need > _MAX_STEPS:
        cause = ("pulse.detuning_er (lattice.delta_target_er under its rule 'delta') is too "
                 "large for pulse.omega0_er" if phase > width
                 else "pulse.cutoff is too long for pulse.omega0_er")
        raise NumericsError(f"the pi pulse needs {need:.3g} > {_MAX_STEPS} Magnus steps: {cause}")
    n = _RUNG * math.ceil(need / _RUNG)
    while True:
        grids = _grids(pulse, n)
        pairs = _reflect(_product(grids))
        p_fine, p_coarse = np.abs(pairs[1]) ** 2
        gap = abs(float(p_fine - p_coarse))
        if gap <= _GAP_REL * p_fine + _GAP_ABS:
            break
        if 2 * n > _MAX_STEPS:
            raise NumericsError(f"pi pulse not converged at {n} Magnus steps: "
                                f"|p(n) - p(n/2)| = {gap:.3g} for p_flip = {p_fine:.6g}; "
                                "shorten pulse.cutoff")
        n *= 2
    if p_fine < _EXTENDED_BELOW:
        del grids   # before the extended grids, so that the step cap's peak holds
        grids = _grids(pulse, n, np.longdouble)
        pairs = _reflect(_product(grids))
    p_stay, p_flip = np.abs(_richardson(pairs)) ** 2
    times = states = None
    if trajectory:
        times = np.linspace(-pulse.cutoff, pulse.cutoff, _SAMPLES + 1)
        # the states are the first columns (alpha, beta), times the phase of the
        # identity part -(d/2) I of H = diag(0, -d) + (Omega/2) sigma_x
        states = (_richardson(_sampled(grids)).T * np.exp(
            0.5j * pulse.detuning * (times - times[0]))[:, None]).astype(complex)
    return TwoLevelOutcome(p_flip=min(1.0, float(p_flip)), p_stay=min(1.0, float(p_stay)),
                           times=times, states=states, n_steps=n, flip_gap=gap)
