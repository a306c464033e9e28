"""Small dense numerical kernels behind the physics modules.

integrate_ode is an embedded Dormand-Prince 4(5) pair with the classic
quartic dense output; its seven stages live in one array, so each stage
combination is one small matrix product.  solve_scalar / minimize_scalar are
Brent root finding and golden-section search, and expm is a Pade-13 matrix
exponential.  Eigenproblems go straight to numpy.linalg.  All kernels are
pure and reentrant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NumericsError, PhysicsDomainError

__all__ = [
    "OdeProblem",
    "Trajectory",
    "integrate_ode",
    "solve_scalar",
    "minimize_scalar",
    "expm",
]


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) tableau
# ---------------------------------------------------------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
# zero-padded so that row i combines the stages k[:i]
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# difference between the 5th order propagating weights and the embedded 4th
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                  -17253 / 339200, 22 / 525, -1 / 40])
# dense-output correction vector (Hairer's rcont5 coefficients)
_DP_D = np.array([
    -12715105075 / 11282082432,
    0.0,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
])


@dataclass
class OdeProblem:
    """Initial value problem dy/dt = rhs(t, y) on a finite span."""

    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    initial_state: np.ndarray
    time_span: tuple[float, float]
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        self.initial_state = np.asarray(self.initial_state)
        if self.dimension < 1 or self.initial_state.shape != (self.dimension,):
            raise PhysicsDomainError("dimension must match the initial state")
        t0, t1 = self.time_span
        if not t1 > t0:
            raise PhysicsDomainError("time_span must have t1 > t0")
        for tol in (self.rel_tol, self.abs_tol):
            if not 0.0 < tol < 1.0:
                raise PhysicsDomainError("tolerances must lie in (0, 1)")


@dataclass
class Trajectory:
    """Accepted steps of an integration plus a dense interpolant."""

    ts: np.ndarray
    states: np.ndarray
    final_state: np.ndarray
    n_steps: int
    n_rhs: int
    _segments: list = field(repr=False, default_factory=list)

    def sample(self, t):
        """Evaluate the dense interpolant at scalar or array times."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        starts = np.array([s[0] for s in self._segments])
        out = np.empty((t_arr.size, self.states.shape[1]), dtype=self.states.dtype)
        idx = np.clip(np.searchsorted(starts, t_arr, side="right") - 1,
                      0, len(self._segments) - 1)
        for j, (ti, i) in enumerate(zip(t_arr, idx)):
            t0, h, r1, r2, r3, r4, r5 = self._segments[i]
            th = (ti - t0) / h
            th1 = 1.0 - th
            out[j] = r1 + th * (r2 + th1 * (r3 + th * (r4 + th1 * r5)))
        return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out


def _error_norm(err, y_old, y_new, rel_tol, abs_tol):
    scale = abs_tol + rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))


def integrate_ode(problem: OdeProblem) -> Trajectory:
    """Adaptive Dormand-Prince 4(5) integration with dense output.

    The final state satisfies the requested tolerance in the usual local
    per-step sense; a persistent step-size underflow raises NumericsError
    with the failure location.
    """
    t0, t1 = problem.time_span
    span = t1 - t0
    y = np.asarray(problem.initial_state,
                   dtype=complex if np.iscomplexobj(problem.initial_state) else float)
    rtol, atol = problem.rel_tol, problem.abs_tol
    rhs = problem.rhs

    f0 = np.asarray(rhs(t0, y))
    n_rhs = 1
    # standard cheap initial-step guess
    scale = atol + rtol * np.abs(y)
    d0 = float(np.sqrt(np.mean(np.abs(y / scale) ** 2)))
    d1 = float(np.sqrt(np.mean(np.abs(f0 / scale) ** 2)))
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6 * span
    h = min(h, span)

    ts = [t0]
    states = [y.copy()]
    segments = []
    k = np.empty((7, y.size), dtype=np.result_type(y, f0))
    k[0] = f0
    # the tableau in the stages' dtype, so no product mixes real and complex
    a, b, e, d = (c.astype(k.dtype) for c in (_DP_A, _DP_B, _DP_E, _DP_D))
    t = t0
    n_steps = 0
    min_h = 1e-14 * max(abs(t0), abs(t1), span)

    while t < t1:
        if h < min_h:
            raise NumericsError(
                f"step size underflow at t={t!r} (h={h!r}) after {n_steps} steps; "
                "the problem looks stiff for this explicit 4(5) pair")
        h = min(h, t1 - t)
        for i in range(1, 7):
            k[i] = rhs(t + _DP_C[i] * h, y + h * (a[i, :i] @ k[:i]))
        n_rhs += 6
        y_new = y + h * (b @ k)
        err = h * (e @ k)
        enorm = _error_norm(err, y, y_new, rtol, atol)
        if enorm <= 1.0:
            ydiff = y_new - y
            bspl = h * k[0] - ydiff
            segments.append((t, h, y.copy(), ydiff, bspl,
                             ydiff - h * k[6] - bspl, h * (d @ k)))
            t += h
            y = y_new
            k[0] = k[6]  # FSAL
            ts.append(t)
            states.append(y.copy())
            n_steps += 1
        factor = 0.8 * enorm ** -0.2 if enorm > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))

    return Trajectory(ts=np.array(ts), states=np.array(states),
                      final_state=y, n_steps=n_steps, n_rhs=n_rhs,
                      _segments=segments)


# ---------------------------------------------------------------------------
# Scalar root finding and minimisation
# ---------------------------------------------------------------------------

def solve_scalar(f: Callable[[float], float], bracket: Sequence[float],
                 tol: float = 1e-13) -> float:
    """Brent root of f inside a sign-changing bracket."""
    a, b = float(bracket[0]), float(bracket[1])
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise PhysicsDomainError(f"no sign change on bracket [{a}, {b}]")
    c, fc = a, fa
    d = e = b - a
    for _ in range(200):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * np.finfo(float).eps * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
    raise NumericsError("solve_scalar exceeded its iteration budget")


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def minimize_scalar(f: Callable[[float], float], bracket: Sequence[float],
                    tol: float = 1e-9) -> tuple[float, float]:
    """Golden-section minimum of a unimodal f on a bracket.

    Returns (argmin, min).  tol is relative to the bracket width; the
    unimodality assumption is the caller's responsibility.
    """
    a, b = float(bracket[0]), float(bracket[1])
    if not b > a:
        raise PhysicsDomainError("minimize_scalar needs a nonempty bracket")
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    width0 = b - a
    while (b - a) > tol * width0:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x)


# ---------------------------------------------------------------------------
# Matrix exponential (scaling and squaring, Pade 13)
# ---------------------------------------------------------------------------

_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)


def expm(matrix: np.ndarray) -> np.ndarray:
    """exp(A) for a small dense real matrix, used for constant-coefficient
    linear propagation (optical Bloch steps)."""
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise PhysicsDomainError("expm needs a square matrix")
    norm = float(np.linalg.norm(a, 1))
    squarings = max(0, int(math.ceil(math.log2(norm / 2.0))) if norm > 2.0 else 0)
    a = a / (2.0 ** squarings)
    b = _PADE13
    ident = np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r
