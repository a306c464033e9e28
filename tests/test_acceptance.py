"""Acceptance suite: every headline criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""
import contextlib
import math
import time

import numpy as np
import pytest

from mottreg.budget import run_scheme1, run_scheme2
from mottreg.cli import main
from mottreg.config import RunConfig
from mottreg.pulse import GaussianPulse, rabi_evolve
from mottreg.removal import photon_count, removal_photon_threshold, solve_removal_drive
from mottreg import speedup as sp
from mottreg.speedup import DoubleGaussianPotential
from mottreg.stark import light_shifts, optimize_lpol_wavelength
from mottreg.transfer import (HarmonicRamp, band_tunneling, excitation_numeric,
                              hopping_time, initial_frequency,
                              matched_microtrap_depth, max_excitation_analytic,
                              microtrap_depth_kelvin)
from mottreg.units import HBAR, RB87, detuning_from_wavelength, recoil_energy

E_R = recoil_energy(850e-9)
TIME_UNIT = HBAR / E_R


def _pi_pulse(delta: float, detuning: float = 0.0) -> GaussianPulse:
    """The budget's pulse rule omega_0 = delta/4, t_f = 5/omega_0, detuned by
    `detuning` E_R/hbar: the pair d = detuning/omega_0, s_f = 5."""
    return GaussianPulse(detuning=detuning / (delta / 4.0), cutoff=5.0)


def _two_state_propagator(ramp: HarmonicRamp, times: np.ndarray) -> np.ndarray:
    """c(t) = exp(-i A tau) |g> of the adiabatic-frame system, A = [[1/2,
    2i xi], [-2i xi, 5/2]] and tau = int omega dt, by eigendecomposing A."""
    xi = ramp.adiabaticity
    a = np.array([[0.5, 2j * xi], [-2j * xi, 2.5]])
    energies, vectors = np.linalg.eigh(a)
    deepen = ramp.final_frequency > ramp.initial_frequency
    rate = ramp.rate_constant if deepen else -ramp.rate_constant
    tau = -(ramp.initial_frequency / rate) * np.log1p(-rate * times)
    weights = vectors[0].conj()   # V^dagger c0 for c0 = |g>
    return (np.exp(-1j * np.outer(tau, energies)) * weights) @ vectors.T


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except AssertionError:
        print(f"ACCEPTANCE {number:2d} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} [{name}]: PASS")


def test_criterion_01_pi_pulse_selectivity():
    with criterion(1, "pi-pulse selectivity"):
        start = time.perf_counter()
        detuned = rabi_evolve(_pi_pulse(52.0, detuning=52.0)).p_flip
        resonant_error = 1.0 - rabi_evolve(_pi_pulse(52.0, detuning=0.0)).p_flip
        elapsed = time.perf_counter() - start
        assert 3e-6 <= detuned <= 1.2e-5
        assert resonant_error <= 1e-6
        assert elapsed < 1.0


def test_criterion_02_pulse_amplitude():
    with criterion(2, "pi-pulse amplitude"):
        # the scheme-1 budget's pulse at delta = 52 E_R: omega_0 = 13 E_R/hbar
        omega0 = 13.0
        extras = run_scheme1(RunConfig()).extras
        assert extras["pulse_omega0_er"] == omega0
        amp = extras["pulse_peak_rabi_er"]
        assert amp == pytest.approx(23.0, rel=5e-3)
        assert abs(amp / (math.sqrt(math.pi) * omega0) - 1.0) < 0.01


def test_criterion_03_transfer_ramp():
    with criterion(3, "adiabatic transfer"):
        start = time.perf_counter()
        w0 = initial_frequency(50.0)
        ramp = HarmonicRamp(w0, 0.005, 4 * w0)
        t_us = ramp.duration * TIME_UNIT * 1e6
        assert t_us == pytest.approx(94.0, rel=0.02)
        assert max_excitation_analytic(ramp) == 4 * 0.005 ** 2
        result = excitation_numeric(ramp)
        assert result.max_excitation == pytest.approx(4 * 0.005 ** 2, rel=0.05, abs=0.0)
        half = HarmonicRamp(w0, 0.0025, 4 * w0)
        gap_half = excitation_numeric(half).analytic_numeric_gap
        assert result.analytic_numeric_gap >= 4.0 * gap_half
        assert time.perf_counter() - start < 5.0


def test_criterion_04_microtrap_matching():
    with criterion(4, "microtrap depth matching"):
        depth = matched_microtrap_depth(50.0, 1e-6, 850e-9)
        assert depth == pytest.approx(1366.0, rel=0.01)
        assert microtrap_depth_kelvin(depth, E_R) * 1e6 == pytest.approx(104.0, rel=0.02)


def test_criterion_05_stark_optimisation():
    with criterion(5, "stark optimisation"):
        lam, _ = optimize_lpol_wavelength(RB87, 0.2e-9)
        assert abs(lam - 787.6e-9) <= 1.5e-9
        d2 = detuning_from_wavelength(787.6e-9, RB87.d2_wavelength)
        assert d2 == pytest.approx(-2 * math.pi * 3608e9, rel=0.01)
        for lam_probe in (783.0e-9, 787.6e-9, 791.0e-9):
            _, _, diff, g0, g1 = light_shifts(RB87, lam_probe, np.array([1.0, 3.0]))
            eta1, eta2 = diff / (HBAR * np.maximum(g0, g1))
            assert abs(eta1 / eta2 - 1.0) < 1e-12


def test_criterion_06_removal():
    with criterion(6, "removal photon counting"):
        threshold = removal_photon_threshold(50.0)
        assert threshold == 25.0
        plan = solve_removal_drive(threshold, 1e-6, 0.45)
        assert plan.duration <= 1.5e-6
        resonant = photon_count(plan.rabi_frequency, 0.0, plan.duration)
        assert resonant == pytest.approx(threshold, rel=1e-6)
        detuned = photon_count(plan.rabi_frequency, RB87.hyperfine_splitting, plan.duration)
        assert 1e-6 <= detuned <= 1e-4


def test_criterion_07_step2_scattering_budget():
    with criterion(7, "step-II scattering budget"):
        budget = run_scheme1(RunConfig())
        channels = {lbl: p for s in budget.steps for lbl, p in s.failure_channels}
        assert 5e-5 <= channels["step2_scattering"] <= 2e-4


def test_criterion_08_scheme1_aggregate():
    with criterion(8, "scheme-1 aggregate"):
        budget = run_scheme1(RunConfig())
        assert budget.total_time < 300e-6
        assert 1e-4 <= budget.total_failure <= 5e-4
        assert budget.atoms_extracted == 100


def test_criterion_09_speedup():
    with criterion(9, "speedup scheme"):
        cfg = RunConfig()
        budget = run_scheme2(cfg)
        move_ms = budget.extras["move_time_ms"]
        assert budget.extras["p_exc"] == pytest.approx(7e-3, rel=1e-9)
        assert 2.5 <= move_ms <= 10.0
        pot = DoubleGaussianPotential(400.0, 560.0, focus_waist=0.5)
        minima = sp.track_minimum(pot, np.linspace(0.0, 0.8, 65))
        g11, _ = sp.gap_and_element(pot, 0.8, float(minima[-1]), size=11)
        g16, _ = sp.gap_and_element(pot, 0.8, float(minima[-1]), size=16)
        assert abs(g11 / g16 - 1.0) < 0.01

        class Harmonic:
            def __init__(self, omega):
                self.omega = omega

            def value(self, y):
                return 0.5 * sp.MASS * self.omega ** 2 * np.asarray(y) ** 2

            def curvature(self, y):
                return sp.MASS * self.omega ** 2 * np.ones_like(np.asarray(y, float))

            def displacement_gradient(self, y):
                return -sp.MASS * self.omega ** 2 * np.asarray(y)

        hamiltonian, _ = sp.local_basis(Harmonic(7.3), 0.0, size=11)
        levels = np.sort(np.diagonal(hamiltonian))
        exact = 7.3 * (np.arange(11) + 0.5)
        assert np.max(np.abs(levels / exact - 1.0)) < 1e-10
        assert sp.cycle_yield(5, 1 / 3) == pytest.approx(0.8683, abs=1e-4)


def test_criterion_10_hopping_time():
    with criterion(10, "hopping-time sanity"):
        j = band_tunneling(50.0)
        asym = (4 / math.sqrt(math.pi)) * 50.0 ** 0.75 * math.exp(-2 * math.sqrt(50.0))
        assert abs(j / asym - 1.0) < 0.2
        hop_seconds = hopping_time(50.0) * TIME_UNIT
        assert 0.5 <= hop_seconds <= 50.0


def test_criterion_11_properties(tmp_path, capsys, monkeypatch):
    with criterion(11, "norm conservation and determinism"):
        rel_tol = 1e-11
        # norm conservation: driven Rabi pulse
        for detuning in (0.0, 52.0):
            out = rabi_evolve(_pi_pulse(52.0, detuning=detuning), trajectory=True)
            states = out.states
            norms = np.abs(states[:, 0]) ** 2 + np.abs(states[:, 1]) ** 2
            assert np.max(np.abs(norms - 1.0)) <= 10 * rel_tol
        # norm conservation: adiabatic two-level ramp, on the eigh propagator
        # that excitation_numeric's closed form (norm 1 by construction) meets
        w0 = initial_frequency(50.0)
        ramp = HarmonicRamp(w0, 0.005, 4 * w0)
        result = excitation_numeric(ramp)
        states = _two_state_propagator(ramp, result.times)
        norms = np.abs(states[:, 0]) ** 2 + np.abs(states[:, 1]) ** 2
        assert np.max(np.abs(norms - 1.0)) <= 10 * rel_tol
        p_ref = np.abs(states[:, 1]) ** 2
        assert np.max(np.abs(result.excitation_numeric - p_ref)) <= 10 * rel_tol
        # trace preservation: the removing laser's Bloch vector (u, v, 2 rho_ee - 1)
        # stays in the unit ball along the exact propagator of photon_count
        from mottreg.numerics import expm
        from mottreg.removal import _bloch_generator
        generator = _bloch_generator(8e7, 0.0)
        for t in np.linspace(0.0, 1.5e-6, 41):
            u, v, rho_ee = (expm(generator * t) @ [0.0, 0.0, 0.0, 1.0, 0.0])[:3]
            assert u * u + v * v + (2.0 * rho_ee - 1.0) ** 2 <= 1.0 + 1e-10

        # determinism: byte-identical reruns of every subcommand
        monkeypatch.setenv("MOTTREG_OUTDIR", str(tmp_path))
        commands = [
            ["stark-scan", "--points", "51"],
            ["lattice"],
            ["pulse"],
            ["remove"],
            ["transfer"],
            ["speedup"],
            ["scheme1"],
            ["scheme2"],
            ["sweep", "--parameter", "transfer.xi", "--values", "0.005", "0.01"],
        ]
        for cmd in commands:
            artifacts = []
            for _ in range(2):
                name = f"det_{cmd[0]}.out"
                code = main(["--out", name] + cmd)
                assert code == 0
                capsys.readouterr()
                artifacts.append((tmp_path / name).read_bytes())
            assert artifacts[0] == artifacts[1], f"{cmd[0]} not deterministic"
