"""Moving-focus extraction: potential, minimum tracking, basis spectra
against finite-difference oracles, the Gauss-Legendre moving time, and
cycle yield."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh_tridiagonal

from mottreg import speedup
from mottreg.budget import moving_focus
from mottreg.config import RunConfig, validate_config
from mottreg.errors import ConfigError, NumericsError, PhysicsDomainError
from mottreg.speedup import (MASS, DoubleGaussianPotential, MovingSchedule,
                             build_moving_schedule, cycle_yield, gap_and_element,
                             local_basis, path_profile, track_minimum)

WELLS = DoubleGaussianPotential(confine_depth=400.0, focus_depth=560.0, focus_waist=0.5)


def _gradient(p, y):
    """Oracle: dV/dy of p, the analytic derivative of both Gaussians."""
    y = np.asarray(y, dtype=float)
    u = y - p.displacement
    return (p.confine_depth * 4.0 * y * np.exp(-2.0 * y ** 2)
            + p.focus_depth * (4.0 * u / p.focus_waist ** 2)
            * np.exp(-2.0 * u ** 2 / p.focus_waist ** 2))


def _fd_levels(pot, a, n_levels=5, span=(-4.0, 5.5), n=6000):
    """Oracle: dense-grid finite-difference Schrodinger spectrum."""
    ys = np.linspace(span[0], span[1], n)
    h = ys[1] - ys[0]
    diag = 1.0 / (MASS * h * h) + pot.at(a).value(ys)
    off = -0.5 / (MASS * h * h) * np.ones(n - 1)
    return eigh_tridiagonal(diag, off, select="i",
                            select_range=(0, n_levels - 1))[0]


def test_potential_depth_at_origin():
    assert WELLS.at(0.0).value(0.0) == pytest.approx(-960.0, rel=1e-14)


def test_potential_single_gaussian_when_focus_off():
    single = DoubleGaussianPotential(confine_depth=400.0, focus_depth=0.0, focus_waist=0.5)
    ys = np.linspace(-2.0, 2.0, 401)
    vals = single.value(ys)
    assert int(np.argmin(vals)) == 200
    assert vals[200] == pytest.approx(-400.0, rel=1e-14)
    # a switched-off well is admitted; a negative depth or waist is not
    for depths, waist in (((-400.0, 0.0), 0.5), ((400.0, -560.0), 0.5),
                          ((400.0, 560.0), 0.0), ((400.0, 560.0), -0.5)):
        with pytest.raises(PhysicsDomainError):
            DoubleGaussianPotential(*depths, focus_waist=waist)


def test_double_well_emerges_with_displacement():
    # count strict sign changes of V' from - to + on a fine grid
    def minima_count(a):
        ys = np.linspace(-1.5, a + 1.5, 4001)
        g = _gradient(WELLS.at(a), ys)
        return int(np.sum((g[:-1] < 0) & (g[1:] > 0)))

    assert minima_count(0.2) == 1
    assert minima_count(1.5) == 2


def test_track_minimum_start_and_asymptote():
    a_path = np.linspace(0.0, 3.0, 241)
    minima = track_minimum(WELLS, a_path)
    assert minima[0] == 0.0
    assert abs(minima[-1] - 3.0) < 0.01
    # continuity: no jumps beyond a few grid steps
    assert np.max(np.abs(np.diff(minima))) < 3 * (a_path[1] - a_path[0])


def test_track_minimum_matches_grid_argmin_of_focus_branch():
    a_path = np.linspace(0.0, 0.8, 65)
    minima = track_minimum(WELLS, a_path)
    # oracle: dense scan restricted to the focus-well neighbourhood
    ys = np.linspace(0.3, 1.3, 1_000_001)
    vals = WELLS.at(0.8).value(ys)
    y_oracle = ys[int(np.argmin(vals))]
    assert abs(minima[-1] - y_oracle) <= 2 * (ys[1] - ys[0])


def test_track_minimum_requires_monotone_path():
    with pytest.raises(PhysicsDomainError):
        track_minimum(WELLS, [0.0, 0.5, 0.3])
    with pytest.raises(PhysicsDomainError):
        track_minimum(WELLS, [0.1, 0.2])


def test_track_minimum_reports_branch_merge():
    # a focus well too weak to survive the confinement gradient merges away
    weak = DoubleGaussianPotential(confine_depth=400.0, focus_depth=120.0,
                                   focus_waist=0.35)
    with pytest.raises(NumericsError, match="last valid a"):
        track_minimum(weak, np.linspace(0.0, 3.0, 241))


def test_track_minimum_halves_a_step_that_loses_the_well():
    # a wide focus pulls the minimum from 0.48 to 1.14 between a = 1.0 and
    # 1.25, past the jump check of a 0.1 step; halved steps keep the well
    wide = DoubleGaussianPotential(confine_depth=400.0, focus_depth=560.0, focus_waist=1.33)
    coarse = track_minimum(wide, np.linspace(0.0, 2.0, 9))
    dense = track_minimum(wide, np.linspace(0.0, 2.0, 161))[::20]
    assert np.all(np.abs(coarse - dense) <= 1e-15 * np.maximum(1.0, np.abs(dense)))


# a focus well whose peak restoring force V_f/s_f exceeds the confinement's
# (ratio > 1) survives the whole move; 1.5 leaves margin for its curvature
@settings(max_examples=40, deadline=None, derandomize=True)
@given(confine_depth=st.floats(50.0, 1000.0), ratio=st.floats(1.5, 3.0),
       focus_waist=st.floats(0.3, 0.8), a_final=st.floats(0.1, 3.0),
       n_points=st.integers(65, 321))
def test_tracked_minima_are_newton_fixed_points(confine_depth, ratio, focus_waist,
                                                a_final, n_points):
    wells = DoubleGaussianPotential(confine_depth=confine_depth,
                                    focus_depth=ratio * confine_depth * focus_waist,
                                    focus_waist=focus_waist)
    a = np.linspace(0.0, a_final, n_points)
    minima = track_minimum(wells, a)
    assert minima[0] == 0.0
    gradient = _gradient(wells.at(a), minima)
    curvature = wells.at(a).curvature(minima)
    assert np.all(curvature > 0.0)
    force_scale = wells.confine_depth + wells.focus_depth / focus_waist
    assert np.max(np.abs(gradient)) <= 1e-12 * force_scale
    newton_step = gradient / curvature
    assert np.all(np.abs(newton_step) <= 1e-12 * np.maximum(1.0, np.abs(minima)))


class _Harmonic:
    """Pure harmonic test potential with the same duck-typed surface."""

    def __init__(self, omega):
        self.omega = omega

    def value(self, y):
        return 0.5 * MASS * self.omega ** 2 * np.asarray(y) ** 2

    def curvature(self, y):
        return MASS * self.omega ** 2 * np.ones_like(np.asarray(y, dtype=float))

    def displacement_gradient(self, y):
        return -MASS * self.omega ** 2 * np.asarray(y)


def test_local_basis_exact_on_pure_harmonic():
    omega = 7.3
    hamiltonian, _ = local_basis(_Harmonic(omega), 0.0, size=11)
    levels = np.sort(np.diagonal(hamiltonian))
    expected = omega * (np.arange(11) + 0.5)
    off_diag = hamiltonian - np.diag(np.diagonal(hamiltonian))
    assert np.max(np.abs(off_diag)) < 1e-10 * omega
    assert np.max(np.abs(levels / expected - 1.0)) < 1e-10


def test_local_basis_hermitian_and_bound():
    minima = track_minimum(WELLS, np.linspace(0.0, 0.2, 17))
    hamiltonian, _ = local_basis(WELLS.at(0.2), float(minima[-1]), size=11)
    assert np.array_equal(hamiltonian, hamiltonian.T)
    energies, _ = np.linalg.eigh(hamiltonian)
    # ground state bound below the confinement depth alone
    assert energies[0] < -400.0
    assert energies[1] - energies[0] > 0


def test_local_basis_matches_fd_oracle():
    minima = track_minimum(WELLS, np.linspace(0.0, 0.2, 17))
    hamiltonian, _ = local_basis(WELLS.at(0.2), float(minima[-1]), size=14)
    energies, _ = np.linalg.eigh(hamiltonian)
    fd = _fd_levels(WELLS, 0.2, n_levels=3)
    assert energies[0] == pytest.approx(fd[0], abs=0.05)
    assert energies[1] == pytest.approx(fd[1], abs=0.2)


def test_local_basis_tables_are_cached_read_only():
    tables = speedup._basis_tables(11)
    assert speedup._basis_tables(11) is tables
    for table in tables:
        assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        tables[3][0, 0] = 0.0


def test_local_basis_rejects_concave_point():
    with pytest.raises(PhysicsDomainError):
        local_basis(WELLS.at(1.5), 0.75, size=11)  # near the barrier top


def test_gap_parity_at_zero_displacement():
    # dV/da is odd at a = 0, so the first excited state carries the coupling
    hamiltonian, coupling = local_basis(WELLS.at(0.0), 0.0, size=11)
    energies, vectors = np.linalg.eigh(hamiltonian)
    couplings = np.abs(vectors[:, 1:].T @ coupling @ vectors[:, 0])
    gap, element = gap_and_element(WELLS, 0.0, 0.0, size=11)
    assert gap == pytest.approx(energies[1] - energies[0], rel=1e-12)
    assert element == pytest.approx(couplings[0], rel=1e-12)
    # even-parity states are uncoupled at the symmetric point
    assert couplings[1] < 1e-8 * couplings[0]


def test_gap_far_displacement_matches_isolated_focus_well():
    # harmonic-expansion oracle: omega_f = sqrt(4 V_f / (m sigma_f^2)),
    # softened by the Gaussian well's anharmonicity
    minima = track_minimum(WELLS, np.linspace(0.0, 4.0, 321))
    gap, _ = gap_and_element(WELLS, 4.0, float(minima[-1]), size=11)
    omega_f = math.sqrt(4 * 560.0 / (MASS * 0.5 ** 2))
    assert gap == pytest.approx(omega_f, rel=0.15)
    # tight oracle: finite-difference gap of the isolated focus well
    isolated = DoubleGaussianPotential(confine_depth=0.0, focus_depth=560.0,
                                       focus_waist=0.5)
    fd = _fd_levels(isolated, 0.0, n_levels=2, span=(-2.0, 2.0))
    assert gap == pytest.approx(fd[1] - fd[0], rel=5e-3)


def _per_point_gap_and_element(p, a, y_min, size):
    """Reference: one oscillator basis, Hamiltonian and eigh per point, with
    the Hermite recurrence, normalisation and ladder matrix written out."""
    nodes, weights = np.polynomial.hermite.hermgauss(96)
    pa = p.at(a)
    kappa = MASS * math.sqrt(pa.curvature(y_min) / MASS)
    x = nodes / math.sqrt(kappa) + y_min
    herm = [np.ones_like(nodes), 2.0 * nodes]
    for n in range(2, size):
        herm.append(2.0 * nodes * herm[n - 1] - 2.0 * (n - 1) * herm[n - 2])
    psi = np.array([herm[n] / math.sqrt(2.0 ** n * math.factorial(n))
                    for n in range(size)]) * (kappa / math.pi) ** 0.25
    w = weights / math.sqrt(kappa)
    h = (psi * w * pa.value(x)) @ psi.T
    coupling = (psi * w * pa.displacement_gradient(x)) @ psi.T
    omega = kappa / MASS
    for n in range(size):
        h[n, n] += omega / 4.0 * (2 * n + 1)
        if n + 2 < size:
            h[n, n + 2] -= omega / 4.0 * math.sqrt((n + 1) * (n + 2))
            h[n + 2, n] -= omega / 4.0 * math.sqrt((n + 1) * (n + 2))
    energies, vectors = np.linalg.eigh(h)
    couplings = np.abs(vectors[:, 1:].T @ coupling @ vectors[:, 0])
    index = int(np.argmax(couplings > 1e-8 * np.max(couplings)))
    return energies[1 + index] - energies[0], couplings[index]


@pytest.mark.parametrize("basis_size", [11, 15])
def test_schedule_profiles_match_per_point_reference(basis_size):
    sched = build_moving_schedule(WELLS, 2.0, basis_size=basis_size)
    for a, y_min, gap, element in zip(sched.displacements, sched.minima,
                                      sched.gap_profile, sched.element_profile):
        ref_gap, ref_element = _per_point_gap_and_element(WELLS, a, y_min, basis_size)
        assert gap == pytest.approx(ref_gap, rel=1e-12)
        assert element == pytest.approx(ref_element, rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(a_final=st.floats(0.1, 2.5), size=st.integers(3, 16))
def test_gap_and_element_arrays_match_scalar_calls(a_final, size):
    a = np.linspace(0.0, a_final, 33)
    minima = track_minimum(WELLS, a)
    gaps, elements = gap_and_element(WELLS, a, minima, size)
    for i in range(a.size):
        gap, element = gap_and_element(WELLS, float(a[i]), float(minima[i]), size)
        assert gaps[i] == pytest.approx(gap, rel=1e-13)
        assert elements[i] == pytest.approx(element, rel=1e-13)


def test_schedule_makes_one_eigh_call(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    sched = build_moving_schedule(WELLS, 2.0, basis_size=11)
    # the 8, 16 and 32 node levels share one stack, and 32 nodes converge
    assert calls == [(56, 11, 11)]
    assert sched.displacements.shape == (32,)


def test_gap_basis_size_convergence():
    for a in (0.2, 0.8, 1.5):
        minima = track_minimum(WELLS, np.linspace(0.0, a, 33))
        g11, _ = gap_and_element(WELLS, a, float(minima[-1]), size=11)
        g16, _ = gap_and_element(WELLS, a, float(minima[-1]), size=16)
        assert abs(g11 / g16 - 1.0) < 0.01


def test_ground_energy_variational_monotone():
    minima = track_minimum(WELLS, np.linspace(0.0, 0.8, 65))
    energies = []
    for size in (6, 11, 16):
        hamiltonian, _ = local_basis(WELLS.at(0.8), float(minima[-1]), size=size)
        energies.append(np.linalg.eigh(hamiltonian)[0][0])
    assert energies[0] >= energies[1] - 1e-9
    assert energies[1] >= energies[2] - 1e-9


def _move(target_excitation=7e-3, focus_depth=560.0):
    """The moving-focus move of the default config at xi_bar = sqrt(target / 4)."""
    cfg = RunConfig()
    cfg.speedup.target_excitation = target_excitation
    cfg.speedup.focus_depth = focus_depth
    return moving_focus(cfg)


def test_moving_time_linearity_and_trivial_zero():
    # four times the target doubles xi_bar and halves the move; a move of
    # no displacement takes no time
    move, fast = _move(), _move(4 * 7e-3)
    assert fast.xi_bar == pytest.approx(2 * move.xi_bar, rel=1e-15, abs=0.0)
    assert fast.move_time == pytest.approx(move.move_time / 2, rel=1e-12, abs=0.0)
    assert build_moving_schedule(WELLS, 0.0, basis_size=11).integral() == 0.0
    with pytest.raises(PhysicsDomainError, match="final displacement"):
        build_moving_schedule(WELLS, -1e-3, basis_size=11)


@settings(max_examples=10, deadline=None)
@given(xi=st.floats(1e-3, 0.3), focus_depth=st.floats(300.0, 1200.0))
def test_moving_time_inverse_in_adiabaticity(xi, focus_depth):
    unit = _move(4.0 * 0.25 ** 2, focus_depth)
    assert unit.move_time > 0.0
    move = _move(4.0 * xi ** 2, focus_depth)
    assert move.move_time == pytest.approx(unit.move_time * 0.25 / move.xi_bar,
                                           rel=1e-12, abs=0.0)


def test_moving_time_grid_refinement_invariance(monkeypatch):
    # starting the doubling at 64 or 128 nodes changes the move-time
    # integral by rounding alone
    times = []
    for first in (32, 64, 128):
        monkeypatch.setattr(speedup, "_FIRST_NODES", first)
        sched = build_moving_schedule(WELLS, 2.0, basis_size=11)
        assert sched.displacements.shape == (first,)
        times.append(sched.integral())
    assert times[1] == pytest.approx(times[0], rel=1e-12, abs=0.0)
    assert times[2] == pytest.approx(times[0], rel=1e-12, abs=0.0)


def test_default_move_time_matches_64_nodes(monkeypatch):
    cfg = RunConfig()
    move = moving_focus(cfg)
    assert move.schedule.displacements.shape == (32,)
    monkeypatch.setattr(speedup, "_FIRST_NODES", 64)
    reference = moving_focus(cfg)
    assert move.move_time == pytest.approx(reference.move_time, rel=1e-12, abs=0.0)
    assert move.p_scatter == pytest.approx(reference.p_scatter, rel=1e-12, abs=0.0)


def test_node_doubling_continues_past_a_kinked_integrand():
    # |<e|dH/da|g>| passes through zero along this path, so the integrand has
    # kinks, 32 and 16 nodes differ by more than 1% and the levels double on
    wells = DoubleGaussianPotential(confine_depth=1000.0, focus_depth=580.0,
                                    focus_waist=0.5)
    sched = build_moving_schedule(wells, 2.0, basis_size=11)
    assert sched.displacements.size > 32
    a = np.linspace(0.0, 2.0, 4001)
    _, gaps, elements = path_profile(wells, a, basis_size=11)
    reference = np.trapezoid(elements / gaps ** 2, a)
    assert sched.integral() == pytest.approx(reference, rel=0.01)


def test_unconverged_node_doubling_is_a_numerics_error(monkeypatch):
    # room for the first stack of 8 + 16 + 32 nodes only
    monkeypatch.setattr(speedup, "_MAX_PROFILE", 56 * (15 ** 2 + 128))
    wells = DoubleGaussianPotential(confine_depth=400.0, focus_depth=300.0,
                                    focus_waist=0.5)
    with pytest.raises(NumericsError, match=r"not converged: 32 Gauss-Legendre nodes .*"
                                            r"speedup\.basis_size"):
        build_moving_schedule(wells, 2.0, basis_size=15)


def test_chance_agreement_of_two_levels_is_not_convergence(monkeypatch):
    # a narrow dip of the gap near a = 1.28: 128 and 256 nodes agree to 0.05%
    # while both are 7% off; 512 nodes move 9% and 1024 another 2%, and the
    # companion matrix of 2048 nodes would pass the real memory guard
    sizes = []
    monkeypatch.setattr(speedup, "_leggauss", lambda m: sizes.append(m) or leggauss(m))
    wells = DoubleGaussianPotential(confine_depth=400.0, focus_depth=200.78102451888083,
                                    focus_waist=0.5)
    with pytest.raises(NumericsError, match=r"not converged: 1024 Gauss-Legendre nodes"):
        build_moving_schedule(wells, 5.192438247232971, basis_size=15)
    assert max(sizes) == 1024
    assert 1024 ** 2 <= speedup._MAX_PROFILE < 2048 ** 2


# tracking through the nodes alone, in steps of at most 0.1 s_c, finds the
# minima of a dense uniform track; both end on a Newton step below 1e-12, so
# they agree to rounding
@settings(max_examples=30, deadline=None, derandomize=True)
@given(confine_depth=st.floats(50.0, 1000.0), ratio=st.floats(1.5, 3.0),
       focus_waist=st.floats(0.3, 0.8), a_final=st.floats(0.1, 10.0))
def test_node_minima_match_a_dense_uniform_track(confine_depth, ratio, focus_waist,
                                                 a_final):
    wells = DoubleGaussianPotential(confine_depth=confine_depth,
                                    focus_depth=ratio * confine_depth * focus_waist,
                                    focus_waist=focus_waist)
    sched = build_moving_schedule(wells, a_final, basis_size=11)
    path = np.union1d(np.linspace(0.0, a_final, 4001), sched.displacements)
    dense = track_minimum(wells, path)[np.searchsorted(path, sched.displacements)]
    assert np.all(np.abs(sched.minima - dense) <= 1e-15 * np.maximum(1.0, np.abs(dense)))


def test_schedule_validation_rejects_vanishing_gap():
    with pytest.raises(PhysicsDomainError, match="gap"):
        MovingSchedule(displacements=np.array([0.0, 1.0]),
                       weights=np.array([0.5, 0.5]),
                       minima=np.array([0.0, 1.0]),
                       gap_profile=np.array([100.0, 0.0]),
                       element_profile=np.array([1.0, 1.0]),
                       depth_profile=np.array([500.0, 500.0]))


def test_excitation_and_scattering_limits():
    assert _move(4e-8).p_exc == pytest.approx(4e-8, rel=1e-12, abs=0.0)
    # halving xi_bar doubles the move duration and hence the scattering
    full, half = _move(), _move(7e-3 / 4.0)
    assert half.xi_bar == full.xi_bar / 2
    assert half.p_scatter == pytest.approx(2 * full.p_scatter, rel=1e-12, abs=0.0)


def test_excitation_refuses_zero_detuning():
    # the focus needs a linewidth and a detuning beyond it; the config check
    # refuses the rest before any move is built
    linewidth, detuning = 2 * math.pi * 5e6, -2 * math.pi * 780e9
    for pair in ((linewidth, 0.0), (0.0, detuning), (-linewidth, detuning)):
        cfg = RunConfig()
        cfg.speedup.effective_linewidth_rad_s, cfg.speedup.focus_detuning_rad_s = pair
        with pytest.raises(ConfigError, match="far-detuned focus"):
            validate_config(cfg)


def test_operating_point_orders_of_magnitude():
    move = _move()
    assert move.p_exc == pytest.approx(7e-3, rel=1e-12, abs=0.0)
    assert 1e-3 < move.p_scatter < 1e-1


def test_cycle_yield_values():
    assert cycle_yield(5, 1 / 3) == pytest.approx(0.8683, abs=1e-4)
    assert cycle_yield(0, 1 / 3) == 0.0
    assert cycle_yield(1, 1 / 9) == pytest.approx(1 / 9, rel=1e-14)
    with pytest.raises(PhysicsDomainError):
        cycle_yield(-1, 1 / 3)
    with pytest.raises(PhysicsDomainError):
        cycle_yield(3, 1.5)
