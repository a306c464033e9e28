"""Light shifts, scattering rates, and the wavelength optimisation."""
import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mottreg.errors import PhysicsDomainError
from mottreg.stark import (default_search_band, eta, light_shifts,
                           optimize_lpol_wavelength, wavelength_scan)
from mottreg.units import RB87

# independent oracle constants (CODATA 2018, h exact)
C_ORACLE = 299792458.0
HBAR_ORACLE = 6.62607015e-34 / (2 * math.pi)


def _oracle_terms(lam_l, intensity):
    """Term-by-term evaluation with an independent constant set."""
    w1 = 2 * math.pi * C_ORACLE / 794.98e-9
    w2 = 2 * math.pi * C_ORACLE / 780.24e-9
    g1 = 2 * math.pi * 5.75e6
    g2 = 2 * math.pi * 6.07e6
    d1 = 2 * math.pi * C_ORACLE * (1 / lam_l - 1 / 794.98e-9)
    d2 = 2 * math.pi * C_ORACLE * (1 / lam_l - 1 / 780.24e-9)
    pref = 3 * math.pi * C_ORACLE ** 2 * intensity / 2
    a1 = pref * g1 / w1 ** 3
    a2 = pref * g2 / w2 ** 3
    d_plus = a2 / d2
    d_minus = (2 / 3) * a1 / d1 + (1 / 3) * a2 / d2
    gamma0 = (a1 * g1 / (6 * d1 ** 2) + 5 * a2 * g2 / (6 * d2 ** 2)) / HBAR_ORACLE
    gamma1 = (2 * a1 * g1 / (3 * d1 ** 2) + a2 * g2 / (3 * d2 ** 2)) / HBAR_ORACLE
    closed_diff = a1 / (2 * d1) - a2 / (2 * d2)
    return d_plus, d_minus, gamma0, gamma1, closed_diff


def _plus_shift(species, lam, intensity):
    """dE+ from the logical shifts, dE0 = dE-/4 + 3 dE+/4 with dE1 = dE-."""
    de0, de1 = light_shifts(species, lam, intensity)[:2]
    return (de0 - 0.25 * de1) / 0.75


def test_fine_shift_plus_depends_only_on_d2():
    altered = dataclasses.replace(RB87, gamma1=RB87.gamma1 * 3.0,
                                  d1_wavelength=RB87.d1_wavelength * 1.01)
    assert _plus_shift(altered, 787.6e-9, 1e3) == pytest.approx(
        _plus_shift(RB87, 787.6e-9, 1e3), rel=1e-13, abs=0.0)


def test_fine_shifts_linear_in_intensity():
    one = light_shifts(RB87, 787.6e-9, 1e3)
    two = light_shifts(RB87, 787.6e-9, 2e3)
    for a, b in zip(one, two):
        assert b == pytest.approx(2 * a, rel=1e-14, abs=0.0)


def test_fine_shifts_against_term_oracle():
    d0, d1 = light_shifts(RB87, 787.6e-9, 1e3)[:2]
    o_plus, o_minus, _, _, _ = _oracle_terms(787.6e-9, 1e3)
    assert d1 == pytest.approx(o_minus, rel=1e-10, abs=0.0)
    assert d0 == pytest.approx(0.25 * o_minus + 0.75 * o_plus, rel=1e-10, abs=0.0)


def test_fine_shifts_resonance_error():
    with pytest.raises(PhysicsDomainError, match="resonance"):
        light_shifts(RB87, RB87.d2_wavelength, 1.0)
    with pytest.raises(PhysicsDomainError, match="resonance"):
        light_shifts(RB87, np.array([787.6e-9, RB87.d1_wavelength]), 1.0)


def test_hyperfine_equal_shifts_degenerate():
    # one line instead of two: both fine-structure states shift alike
    merged = dataclasses.replace(RB87, d1_wavelength=RB87.d2_wavelength,
                                 gamma1=RB87.gamma2)
    d0, d1, diff, _, _ = light_shifts(merged, 787.6e-9, 1e3)
    assert d0 == pytest.approx(d1, rel=1e-14, abs=0.0)
    assert abs(diff) <= 1e-14 * abs(d0)


def test_hyperfine_stated_mixture():
    # |0> = 1/4 |-> + 3/4 |+> and |1> = |->, at wavelengths across the band
    lams = np.linspace(781e-9, 794e-9, 7)
    d0, d1, diff, _, _ = light_shifts(RB87, lams, 1e3)
    for lam, e0, e1 in zip(lams, d0, d1):
        o_plus, o_minus, _, _, _ = _oracle_terms(lam, 1e3)
        assert e1 == pytest.approx(o_minus, rel=1e-10, abs=0.0)
        assert e0 == pytest.approx(0.25 * o_minus + 0.75 * o_plus, rel=1e-10, abs=0.0)
    assert np.array_equal(diff, d1 - d0)


def test_hyperfine_closed_form_oracle():
    d0, d1, diff, _, _ = light_shifts(RB87, 787.6e-9, 2.5e6)
    closed = _oracle_terms(787.6e-9, 2.5e6)[4]
    assert diff == pytest.approx(closed, rel=1e-10, abs=0.0)
    assert diff == d1 - d0


def test_negative_intensity_rejected():
    with pytest.raises(PhysicsDomainError, match="intensity"):
        light_shifts(RB87, 787.6e-9, np.array([1.0, -1.0]))
    with pytest.raises(PhysicsDomainError, match="positive"):
        light_shifts(RB87, np.array([787.6e-9, 0.0]), 1.0)


def test_light_shifts_broadcast_equals_scalar_calls():
    lams = np.linspace(781e-9, 794e-9, 5)[:, None]
    intensities = np.array([0.0, 1.0, 2.5e6])
    grid = light_shifts(RB87, lams, intensities)
    for i, lam in enumerate(lams[:, 0]):
        for j, intensity in enumerate(intensities):
            point = light_shifts(RB87, float(lam), float(intensity))
            for column, value in zip(grid, point):
                assert column.shape == (5, 3)
                assert column[i, j] == value


def test_scattering_zero_intensity():
    assert light_shifts(RB87, 787.6e-9, 0.0)[3:] == (0.0, 0.0)


def test_scattering_positive_and_oracle():
    g0, g1 = light_shifts(RB87, 787.6e-9, 1e3)[3:]
    assert g0 > 0 and g1 > 0
    _, _, o0, o1, _ = _oracle_terms(787.6e-9, 1e3)
    assert g0 == pytest.approx(o0, rel=1e-10, abs=0.0)
    assert g1 == pytest.approx(o1, rel=1e-10, abs=0.0)


def test_scattering_monotone_in_d2_detuning():
    # move away from D2 with D1 essentially fixed far away: both rates drop
    lams = np.array([781.5, 782.5, 784.0, 786.0]) * 1e-9
    g0s, g1s = light_shifts(RB87, lams, 1e3)[3:]
    assert np.all(np.diff(g0s) < 0)
    assert np.all(np.diff(g1s) < 0)


@pytest.mark.parametrize("lam_nm", [781.0, 784.0, 787.6, 790.0, 794.0])
def test_plus_shift_sign_follows_d2_detuning(lam_nm):
    lam = lam_nm * 1e-9
    d_plus = _plus_shift(RB87, lam, 1e3)
    assert math.copysign(1.0, d_plus) == math.copysign(1.0, 1 / lam - 1 / RB87.d2_wavelength)


def test_eta_intensity_invariant():
    for lam_nm in (783.0, 787.6, 791.0):
        _, _, diff, g0, g1 = light_shifts(RB87, lam_nm * 1e-9, np.array([1.0, 2.0]))
        eta1, eta2 = diff / (HBAR_ORACLE * np.maximum(g0, g1))
        assert abs(eta1 / eta2 - 1.0) < 1e-12


def test_optimum_wavelength_near_reference_value():
    lam, eta_max = optimize_lpol_wavelength(RB87, 0.2e-9)
    assert abs(lam - 787.6e-9) < 1.5e-9
    assert eta_max > 0


def test_optimum_equals_golden_section_value():
    # the value the former golden-section search converged to
    lam, eta_max = optimize_lpol_wavelength(RB87, 0.2e-9)
    assert lam == pytest.approx(787.6371593189065e-9, rel=1e-15, abs=0.0)
    assert eta_max == eta(RB87, lam)


def test_optimum_at_1nm_exclusion_returns_at_once():
    # golden section below one ulp of the wavelength never ended here
    start = time.perf_counter()
    lam, _ = optimize_lpol_wavelength(RB87, exclusion=1e-9)
    assert time.perf_counter() - start < 1.0
    assert lam == pytest.approx(787.6371593189065e-9, rel=1e-15, abs=0.0)


def test_optimum_matches_dense_grid_oracle():
    band = default_search_band(RB87, 0.2e-9)
    grid = np.linspace(band[0], band[1], 10_000)
    lam_grid = grid[int(np.argmax(eta(RB87, grid)))]
    lam, _ = optimize_lpol_wavelength(RB87, 0.2e-9)
    assert abs(lam - lam_grid) <= 2 * (grid[1] - grid[0])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gamma1_exp=st.floats(-2.0, 2.0), gamma2_exp=st.floats(-2.0, 2.0),
       d1_nm=st.floats(781.0, 1200.0))
def test_optimum_beats_dense_grid_over_species(gamma1_exp, gamma2_exp, d1_nm):
    # the gamma0 = gamma1 crossover alone misses the maximum for many of
    # these species, where a branch of eta peaks inside its own side
    species = dataclasses.replace(RB87, gamma1=RB87.gamma1 * 10 ** gamma1_exp,
                                  gamma2=RB87.gamma2 * 10 ** gamma2_exp,
                                  d1_wavelength=d1_nm * 1e-9)
    band = default_search_band(species, 0.2e-9)
    lam, eta_max = optimize_lpol_wavelength(species, 0.2e-9)
    assert band[0] <= lam <= band[1]
    grid_max = float(np.max(eta(species, np.linspace(band[0], band[1], 20_001))))
    assert eta_max >= grid_max * (1.0 - 1e-12)


def test_optimum_argmax_invariant_under_intensity():
    # argmax does not move when every shift and rate scales together
    band = default_search_band(RB87, 0.2e-9)
    grid = np.linspace(band[0], band[1], 801)
    _, _, diff, g0, g1 = light_shifts(RB87, grid[:, None], np.array([1.0, 7.0]))
    etas = diff / np.maximum(g0, g1)
    assert int(np.argmax(etas[:, 0])) == int(np.argmax(etas[:, 1]))


def test_wavelength_scan_columns():
    band = default_search_band(RB87, 0.2e-9)
    columns = wavelength_scan(band, 11, 1.0)
    assert list(columns) == ["lambda_nm", "deltaE_per_ER", "gamma0", "gamma1", "eta"]
    assert np.array_equal(columns["eta"], eta(RB87, np.linspace(band[0], band[1], 11)))


def test_band_validation():
    # the exclusion must leave a band strictly between the D2 and D1 lines
    half_gap = (RB87.d1_wavelength - RB87.d2_wavelength) / 2.0
    for exclusion in (0.0, -1e-9, half_gap, 1e-6):
        with pytest.raises(PhysicsDomainError, match="no band"):
            optimize_lpol_wavelength(RB87, exclusion)
    lo, hi = default_search_band(RB87, 0.99 * half_gap)
    assert lo <= optimize_lpol_wavelength(RB87, 0.99 * half_gap)[0] <= hi
