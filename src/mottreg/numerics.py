"""Small dense numerical kernels behind the physics modules.

solve_scalar is root finding by Brent's method (the removing-laser drive) and expm a
Pade-13 matrix exponential (the off-resonant photon count).
Eigenproblems go straight to numpy.linalg, the pi pulse has its own Magnus
propagator in pulse, and the LPOL wavelength optimum is taken from its exact
candidates in stark.  All kernels are pure and reentrant.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import NumericsError, PhysicsDomainError

__all__ = [
    "solve_scalar",
    "expm",
]


# ---------------------------------------------------------------------------
# Scalar root finding
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps


def _same_sign(x: float, y: float) -> bool:
    # not x * y > 0, which underflows to 0 once |x y| < 2.2e-308
    return (x > 0.0 and y > 0.0) or (x < 0.0 and y < 0.0)


def solve_scalar(f: Callable[[float], float], bracket: Sequence[float]) -> float:
    """Root of f inside a sign-changing bracket, given in either order, by
    Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 4) until the bracket ends are adjacent floats: of the two, the one
    with the smaller |f|.  A NaN from f raises NumericsError: it compares
    false with every sign test and would otherwise end the search at an
    arbitrary point."""
    a, b = sorted(float(x) for x in bracket)
    fa, fb = f(a), f(b)
    if math.isnan(fa) or math.isnan(fb):
        raise NumericsError(f"solve_scalar: f is NaN at an end of [{a}, {b}]")
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if _same_sign(fa, fb):
        raise PhysicsDomainError(f"no sign change on bracket [{a}, {b}]")
    # b is the best iterate, c the bracket end across the root and a the
    # previous b; d is the last step and e the one before
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        mid = 0.5 * b + 0.5 * c     # halves before adding: no overflow
        if not min(b, c) < mid < max(b, c):
            (lo, f_lo), (hi, f_hi) = sorted(((b, fb), (c, fc)))
            return lo if abs(f_lo) <= abs(f_hi) else hi
        m, tol = mid - b, 2.0 * _EPS * abs(b)
        if abs(e) >= tol and abs(fa) > abs(fb):
            # secant step, or inverse quadratic through a, b and c
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            previous, e = e, d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * previous * q):
                d = p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        if not min(a, c) < b < max(a, c):   # a step of tol onto or past c
            b, d, e = mid, m, m
        fb = f(b)
        if math.isnan(fb):
            raise NumericsError(f"solve_scalar: f is NaN at {b}")
        if fb == 0.0:
            return b
        if _same_sign(fb, fc):
            c, fc = a, fa
            d = e = b - a


# ---------------------------------------------------------------------------
# Matrix exponential (scaling and squaring, Pade 13)
# ---------------------------------------------------------------------------

_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)


def expm(matrix: np.ndarray) -> np.ndarray:
    """exp(A) for a small dense real matrix, used for constant-coefficient
    linear propagation (the photon count's optical Bloch window)."""
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
