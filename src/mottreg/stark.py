"""Fine- and hyperfine-resolved AC Stark shifts, scattering rates, and the
long-period-lattice wavelength optimisation.

The two-line model couples the 5S ground manifold to the D1 and D2 lines
with fixed transition coefficients for sigma+ light.  Shifts come out in
joules and scattering rates in 1/s; eta = dE / (hbar * max(gamma0, gamma1))
is dimensionless and independent of intensity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PhysicsDomainError
from .numerics import minimize_scalar
from .units import C_LIGHT, HBAR, PI, AtomSpecies, detuning_from_wavelength

__all__ = [
    "FieldAtAtom",
    "TransitionSet",
    "HyperfineComposition",
    "ShiftReport",
    "fine_structure_shifts",
    "hyperfine_shifts",
    "scattering_rates",
    "shift_report",
    "optimize_lpol_wavelength",
    "default_search_band",
    "wavelength_scan",
]

# sigma+ transition coefficients for the (|->, |+>) fine-structure ground
# states against the (D1, D2) lines; each row satisfies sum |c|^2 = 1
_C_PLUS = (0.0, 1.0)
_C_MINUS = (-np.sqrt(2.0 / 3.0), np.sqrt(1.0 / 3.0))


@dataclass(frozen=True)
class FieldAtAtom:
    """Local laser field: intensity in W/m^2, wavelength in m."""

    intensity: float
    wavelength: float

    def __post_init__(self):
        if self.intensity < 0:
            raise PhysicsDomainError("field intensity must be >= 0")
        if self.wavelength <= 0:
            raise PhysicsDomainError("field wavelength must be positive")


@dataclass(frozen=True)
class TransitionSet:
    """Transition coefficients and line data for one laser wavelength."""

    c_plus: tuple[float, float]
    c_minus: tuple[float, float]
    omega1: float
    omega2: float
    gamma1: float
    gamma2: float
    detuning1: float
    detuning2: float

    def __post_init__(self):
        for cs in (self.c_plus, self.c_minus):
            if abs(cs[0] ** 2 + cs[1] ** 2 - 1.0) > 1e-12:
                raise PhysicsDomainError("transition coefficients must satisfy sum |c|^2 = 1")

    @classmethod
    def for_species(cls, species: AtomSpecies, laser_wavelength: float) -> "TransitionSet":
        d1 = detuning_from_wavelength(laser_wavelength, species.d1_wavelength)
        d2 = detuning_from_wavelength(laser_wavelength, species.d2_wavelength)
        return cls(c_plus=_C_PLUS, c_minus=_C_MINUS,
                   omega1=species.d1_angular_frequency,
                   omega2=species.d2_angular_frequency,
                   gamma1=species.gamma1, gamma2=species.gamma2,
                   detuning1=d1, detuning2=d2)

    def alphas(self, intensity: float) -> tuple[float, float]:
        """Per-line strength alpha_q = 3 pi c^2 Gamma_q I / (2 omega_q^3)."""
        pref = 3.0 * PI * C_LIGHT ** 2 * intensity / 2.0
        return (pref * self.gamma1 / self.omega1 ** 3,
                pref * self.gamma2 / self.omega2 ** 3)


@dataclass(frozen=True)
class HyperfineComposition:
    """Population weights (w_minus, w_plus) of each logical state on the
    fine-structure ground states; defaults are the clock pair used here."""

    state0: tuple[float, float] = (0.25, 0.75)
    state1: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        for ws in (self.state0, self.state1):
            if not (0.0 <= ws[0] <= 1.0 and 0.0 <= ws[1] <= 1.0):
                raise PhysicsDomainError("hyperfine weights must lie in [0, 1]")
            if abs(ws[0] + ws[1] - 1.0) > 1e-12:
                raise PhysicsDomainError("hyperfine weights must sum to 1 per state")


@dataclass(frozen=True)
class ShiftReport:
    """Shifts (J), scattering rates (1/s), and their dimensionless ratio."""

    deltaE_plus: float
    deltaE_minus: float
    deltaE_0: float
    deltaE_1: float
    deltaE_diff: float
    gamma_0: float
    gamma_1: float
    eta: float


def _check_detunings(transitions: TransitionSet):
    if transitions.detuning1 == 0.0 or transitions.detuning2 == 0.0:
        raise PhysicsDomainError("laser on resonance: detuning vanishes for a line")


def fine_structure_shifts(field: FieldAtAtom, transitions: TransitionSet) -> tuple[float, float]:
    """Light shifts (dE_plus, dE_minus) of the fine-structure ground states in J."""
    _check_detunings(transitions)
    pref = 3.0 * PI * C_LIGHT ** 2 * field.intensity / 2.0
    lines = ((transitions.gamma1, transitions.omega1, transitions.detuning1),
             (transitions.gamma2, transitions.omega2, transitions.detuning2))
    d_plus = pref * sum(g * c ** 2 / (w ** 3 * d)
                        for c, (g, w, d) in zip(transitions.c_plus, lines))
    d_minus = pref * sum(g * c ** 2 / (w ** 3 * d)
                         for c, (g, w, d) in zip(transitions.c_minus, lines))
    return d_plus, d_minus


def hyperfine_shifts(delta_e_plus: float, delta_e_minus: float,
                     composition: HyperfineComposition = HyperfineComposition(),
                     ) -> tuple[float, float, float]:
    """Logical-state shifts (dE0, dE1) and their difference dE = dE1 - dE0."""
    w0m, w0p = composition.state0
    w1m, w1p = composition.state1
    d0 = w0m * delta_e_minus + w0p * delta_e_plus
    d1 = w1m * delta_e_minus + w1p * delta_e_plus
    return d0, d1, d1 - d0


def scattering_rates(field: FieldAtAtom, transitions: TransitionSet) -> tuple[float, float]:
    """Spontaneous scattering rates (gamma0, gamma1) of the logical states, 1/s."""
    _check_detunings(transitions)
    a1, a2 = transitions.alphas(field.intensity)
    g1, g2 = transitions.gamma1, transitions.gamma2
    d1sq = transitions.detuning1 ** 2
    d2sq = transitions.detuning2 ** 2
    gamma_0 = (a1 * g1 / (6.0 * d1sq) + 5.0 * a2 * g2 / (6.0 * d2sq)) / HBAR
    gamma_1 = (2.0 * a1 * g1 / (3.0 * d1sq) + a2 * g2 / (3.0 * d2sq)) / HBAR
    return gamma_0, gamma_1


def shift_report(field: FieldAtAtom, species: AtomSpecies,
                 composition: HyperfineComposition = HyperfineComposition(),
                 ) -> ShiftReport:
    """Full shift/rate report at one field; cross-checks the closed form."""
    transitions = TransitionSet.for_species(species, field.wavelength)
    d_plus, d_minus = fine_structure_shifts(field, transitions)
    d0, d1, diff = hyperfine_shifts(d_plus, d_minus, composition)
    if composition == HyperfineComposition() and field.intensity > 0:
        # closed form dE = alpha1/(2 D1) - alpha2/(2 D2) must agree
        a1, a2 = transitions.alphas(field.intensity)
        closed = a1 / (2.0 * transitions.detuning1) - a2 / (2.0 * transitions.detuning2)
        if abs(diff - closed) > 1e-10 * max(abs(diff), abs(closed)):
            raise PhysicsDomainError("hyperfine shift disagrees with its closed form")
    g0, g1 = scattering_rates(field, transitions)
    gmax = max(g0, g1)
    eta = diff / (HBAR * gmax) if gmax > 0 else float("inf")
    return ShiftReport(deltaE_plus=d_plus, deltaE_minus=d_minus,
                       deltaE_0=d0, deltaE_1=d1, deltaE_diff=diff,
                       gamma_0=g0, gamma_1=g1, eta=eta)


def default_search_band(species: AtomSpecies, exclusion: float = 0.2e-9) -> tuple[float, float]:
    """Wavelength band between the D2 and D1 lines minus resonance margins."""
    return (species.d2_wavelength + exclusion, species.d1_wavelength - exclusion)


def _eta_at(species: AtomSpecies, wavelength: float) -> float:
    report = shift_report(FieldAtAtom(intensity=1.0, wavelength=wavelength), species)
    return report.eta


def optimize_lpol_wavelength(species: AtomSpecies,
                             search_band: tuple[float, float] | None = None,
                             exclusion: float = 0.2e-9) -> tuple[float, float]:
    """Wavelength maximising eta = dE / (hbar gamma) inside the band.

    eta is intensity independent, so the scan runs at unit intensity.  The
    maximum sits at the gamma0 = gamma1 crossover, a kink, which
    golden-section handles after a coarse bracketing scan.
    """
    if search_band is None:
        search_band = default_search_band(species, exclusion)
    lo, hi = search_band
    if not (species.d2_wavelength < lo < hi < species.d1_wavelength):
        raise PhysicsDomainError("search band must lie strictly between the D2 and D1 lines")
    if (lo - species.d2_wavelength < exclusion - 1e-15
            or species.d1_wavelength - hi < exclusion - 1e-15):
        raise PhysicsDomainError("search band touches a resonance neighbourhood")

    grid = np.linspace(lo, hi, 257)
    etas = [_eta_at(species, w) for w in grid]
    i = int(np.argmax(etas))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    lam, neg_eta = minimize_scalar(lambda w: -_eta_at(species, w), (a, b), tol=1e-12)
    return lam, -neg_eta


def wavelength_scan(species: AtomSpecies, search_band: tuple[float, float],
                    n_points: int, recoil_energy_j: float,
                    intensity: float = 1.0) -> list[dict]:
    """Grid of shift/rate rows across the band, for the stark-scan CSV."""
    rows = []
    for lam in np.linspace(search_band[0], search_band[1], n_points):
        rep = shift_report(FieldAtAtom(intensity=intensity, wavelength=float(lam)), species)
        rows.append({"lambda_nm": float(lam) * 1e9,
                     "deltaE_per_ER": rep.deltaE_diff / recoil_energy_j,
                     "gamma0": rep.gamma_0,
                     "gamma1": rep.gamma_1,
                     "eta": rep.eta})
    return rows
