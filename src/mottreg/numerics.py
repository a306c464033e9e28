"""Small dense numerical kernels behind the physics modules.

solve_scalar is root finding by bisection (the removing-laser drive) and expm a
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

def _same_sign(x: float, y: float) -> bool:
    # not x * y > 0, which underflows to 0 once |x y| < 2.2e-308
    return (x > 0.0 and y > 0.0) or (x < 0.0 and y < 0.0)


def solve_scalar(f: Callable[[float], float], bracket: Sequence[float]) -> float:
    """Root of f inside a sign-changing bracket, given in either order, by
    bisection until the midpoint rounds to an end: of the last two adjacent
    floats, the one with the smaller |f|.  A NaN from f raises
    NumericsError: it compares false with every sign test and would
    otherwise end the search at an arbitrary point."""
    a, b = sorted(float(x) for x in bracket)
    fa, fb = f(a), f(b)
    if math.isnan(fa) or math.isnan(fb):
        raise NumericsError(f"solve_scalar: f is NaN at an end of [{a}, {b}]")
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if _same_sign(fa, fb):
        raise PhysicsDomainError(f"no sign change on bracket [{a}, {b}]")
    while a < (m := 0.5 * a + 0.5 * b) < b:     # halves before adding: no overflow
        fm = f(m)
        if math.isnan(fm):
            raise NumericsError(f"solve_scalar: f is NaN at {m}")
        if fm == 0.0:
            return m
        if _same_sign(fm, fa):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return a if abs(fa) <= abs(fb) else b


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
