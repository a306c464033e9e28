"""AC Stark shifts and scattering rates of the two logical states, and the
long-period-lattice wavelength that maximises their ratio.

The two-line model couples the 5S ground manifold to the D1 and D2 lines
for sigma+ light.  With the line strengths alpha_q = 3 pi c^2 Gamma_q I /
(2 omega_q^3) and the detunings Delta_q, the fine-structure ground states
shift by dE+ = alpha2/Delta2 and dE- = (2/3) alpha1/Delta1 + (1/3)
alpha2/Delta2; the logical states weigh them as |0> = 1/4 |-> + 3/4 |+>
and |1> = |->, so dE = dE1 - dE0 = alpha1/(2 Delta1) - alpha2/(2 Delta2).
Shifts come out in joules and scattering rates in 1/s, broadcast over
wavelength and intensity; eta = dE / (hbar max(gamma0, gamma1)) is
dimensionless and independent of intensity.
"""
from __future__ import annotations

import numpy as np

from .errors import PhysicsDomainError
from .units import C_LIGHT, HBAR, PI, RB87, AtomSpecies, detuning_from_wavelength

__all__ = [
    "light_shifts",
    "eta",
    "optimize_lpol_wavelength",
    "default_search_band",
    "wavelength_scan",
]


def light_shifts(species: AtomSpecies, wavelength, intensity):
    """(dE0, dE1, dE, gamma0, gamma1) of the logical states at the laser
    wavelength (m) and intensity (W/m^2): shifts in J, dE = dE1 - dE0, and
    scattering rates in 1/s."""
    if (np.asarray(intensity) < 0).any():
        raise PhysicsDomainError("laser intensity must be >= 0")
    d1 = detuning_from_wavelength(wavelength, species.d1_wavelength)
    d2 = detuning_from_wavelength(wavelength, species.d2_wavelength)
    if (np.asarray(d1) == 0.0).any() or (np.asarray(d2) == 0.0).any():
        raise PhysicsDomainError("laser on resonance: detuning vanishes for a line")
    pref = 3.0 * PI * C_LIGHT ** 2 * intensity / 2.0
    g1, g2 = species.gamma1, species.gamma2
    a1 = pref * g1 / species.d1_angular_frequency ** 3
    a2 = pref * g2 / species.d2_angular_frequency ** 3
    plus = a2 / d2
    minus = (2.0 / 3.0) * a1 / d1 + plus / 3.0
    de0 = 0.25 * minus + 0.75 * plus
    gamma0 = (a1 * g1 / (6.0 * d1 ** 2) + 5.0 * a2 * g2 / (6.0 * d2 ** 2)) / HBAR
    gamma1 = (2.0 * a1 * g1 / (3.0 * d1 ** 2) + a2 * g2 / (3.0 * d2 ** 2)) / HBAR
    return de0, minus, minus - de0, gamma0, gamma1


def eta(species: AtomSpecies, wavelength):
    """Shift-to-scattering ratio dE / (hbar max(gamma0, gamma1))."""
    _, _, diff, gamma0, gamma1 = light_shifts(species, wavelength, 1.0)
    return diff / (HBAR * np.maximum(gamma0, gamma1))


def default_search_band(species: AtomSpecies, exclusion: float) -> tuple[float, float]:
    """Wavelength band between the D2 and D1 lines minus resonance margins."""
    return (species.d2_wavelength + exclusion, species.d1_wavelength - exclusion)


def optimize_lpol_wavelength(species: AtomSpecies, exclusion: float) -> tuple[float, float]:
    """Wavelength maximising eta inside the default_search_band, and eta there.

    In the scaled D1 detuning x = Delta1 / (omega2 - omega1), which runs
    over (0, 1) between the lines, eta = min(eta0, eta1) with eta_k =
    c_k N(x) / D_k(x): N = (1 + (r - 1) x) x (1 - x) is a cubic, r =
    alpha2/alpha1, and D_k a quadratic from hbar gamma_k.  Its maximum on
    the band is at a band end, at the gamma0 = gamma1 crossover
    |Delta2|/|Delta1| = (Gamma2/Gamma1) (omega1/omega2)^(3/2), or at a root
    of one of the quartics N' D_k - N D_k' that make eta_k stationary; eta
    is evaluated at these at most 11 points.
    """
    from numpy.polynomial import polynomial as P
    lo, hi = default_search_band(species, exclusion)
    if not (species.d2_wavelength < lo < hi < species.d1_wavelength):
        raise PhysicsDomainError("the exclusion leaves no band between the D2 and D1 lines")

    w1, w2 = species.d1_angular_frequency, species.d2_angular_frequency
    gammas = species.gamma2 / species.gamma1
    r = gammas * (w1 / w2) ** 3
    cubic = P.polymul([1.0, r - 1.0], [0.0, 1.0, -1.0])
    xs = [np.array([1.0 / (1.0 + gammas * (w1 / w2) ** 1.5)])]
    for quadratic in ([1.0, -2.0, 1.0 + 5.0 * r * gammas], [2.0, -4.0, 2.0 + r * gammas]):
        roots = P.polyroots(P.polysub(P.polymul(P.polyder(cubic), quadratic),
                                      P.polymul(cubic, P.polyder(quadratic))))
        # the real part of every root: a complex one only adds a point below the maximum
        xs.append(roots.real)
    lams = 2.0 * PI * C_LIGHT / (w1 + (w2 - w1) * np.concatenate(xs))
    candidates = np.concatenate([[lo, hi], lams[(lams > lo) & (lams < hi)]])
    etas = eta(species, candidates)
    best = int(np.argmax(etas))
    return float(candidates[best]), float(etas[best])


def wavelength_scan(search_band: tuple[float, float], n_points: int,
                    recoil_energy_j: float) -> dict[str, np.ndarray]:
    """Columns of Rb-87 shifts and rates at unit intensity on an even grid
    across the band, for the stark-scan CSV."""
    lams = np.linspace(search_band[0], search_band[1], n_points)
    _, _, diff, gamma0, gamma1 = light_shifts(RB87, lams, 1.0)
    return {"lambda_nm": lams * 1e9,
            "deltaE_per_ER": diff / recoil_energy_j,
            "gamma0": gamma0,
            "gamma1": gamma1,
            "eta": diff / (HBAR * np.maximum(gamma0, gamma1))}
