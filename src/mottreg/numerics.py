"""Small dense numerical kernels behind the physics modules.

solve_scalar is Brent root finding and expm a Pade-13 matrix exponential.
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
