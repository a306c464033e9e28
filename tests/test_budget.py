"""Scheme orchestration: step durations, channel aggregation, sweeps."""
import copy
import dataclasses
import dis
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mottreg.budget as budget_mod
from mottreg import pulse as pulse_mod
from mottreg import stark as stark_mod
from mottreg import superlattice as lattice_mod
from mottreg.budget import resolved_config_echo, run_scheme1, run_scheme2, sweep
from mottreg.config import (RunConfig, resolve_pulse_rules, set_by_path, set_field,
                            validate_config)
from mottreg.errors import ConfigError, PhysicsDomainError
from mottreg.pulse import rabi_evolve
from mottreg.stark import light_shifts
from mottreg.superlattice import (SuperlatticeConfig, lpol_exposure, lpol_period, lpol_ramp_time,
                                  site_hyperfine_detunings)
from mottreg.transfer import ramp_schedule
from mottreg.units import HBAR, RB87


@pytest.fixture(scope="module")
def scheme1():
    return run_scheme1(RunConfig())


def _sites(cfg: RunConfig):
    """The step-two site evaluation of the configured lattice and delta target."""
    return site_hyperfine_detunings(budget_mod.patterned_lattice(cfg), cfg.lattice.delta_target_er)


def test_scheme1_headline_numbers(scheme1):
    assert scheme1.total_time < 300e-6
    assert 1e-4 <= scheme1.total_failure <= 5e-4
    assert scheme1.atoms_extracted == 100
    assert scheme1.extraction_fraction == pytest.approx(1 / 3)


@pytest.mark.parametrize("phase_nm", [0.0, 50.0, 100.0])
def test_lpol_ramp_reaches_the_a_site_shift(monkeypatch, phase_nm):
    # the ramp is planned for the shift the A site receives at every LPOL
    # phase, not for the phase-0 closed form delta / (1 - cos^2(pi/n))
    original, ramps = lattice_mod.lpol_ramp_time, []
    monkeypatch.setattr(lattice_mod, "lpol_ramp_time",
                        lambda *args, **kw: ramps.append(original(*args, **kw)) or ramps[-1])
    cfg = RunConfig()
    cfg.lattice.lpol_phase_nm = phase_nm
    run_scheme1(cfg)
    sites = _sites(cfg)
    shift_a = sites.delta_diff[sites.labels.index("A")]
    (ramp,) = ramps
    assert ramp.final_frequency == pytest.approx(
        2.0 * math.sqrt(cfg.lattice.depth_er + shift_a), rel=1e-12, abs=0.0)


def test_step_two_evaluates_the_sites_once(monkeypatch):
    # one unit-intensity call fixes the sign and the intensity, and one call
    # over the sites gives every shift and the A site's rate
    original, calls = lattice_mod.light_shifts, []
    monkeypatch.setattr(lattice_mod, "light_shifts",
                        lambda *args: calls.append(args) or original(*args))
    cfg = RunConfig()
    budget_mod._step_two(cfg, HBAR / budget_mod.lattice_recoil(cfg), {})
    assert [np.shape(intensity) for _, _, intensity in calls] == [(), (3,)]
    assert calls[0][2] == 1.0


def test_scheme1_channel_labels(scheme1):
    labels = [lbl for s in scheme1.steps for lbl, _ in s.failure_channels]
    assert labels == ["lpol_ramp_excitation", "pulse_flip_error",
                      "step2_scattering", "removal_target_impact",
                      "collision", "transfer_excitation"]


def test_scheme1_durations_come_from_modules(scheme1):
    by_name = {s.name: s.duration for s in scheme1.steps}
    assert by_name["mott_prep"] == 0.0
    # ramp + hold + ramp (about 44 + 38.5 + 44 us)
    assert by_name["selective_depop"] * 1e6 == pytest.approx(126.9, rel=0.02)
    assert by_name["removal"] * 1e6 == pytest.approx(1.46, rel=0.05)
    assert by_name["transfer"] * 1e6 == pytest.approx(94.0, rel=0.02)
    assert scheme1.total_time == pytest.approx(sum(by_name.values()), rel=1e-12, abs=0.0)


def test_scheme1_runs_at_the_largest_ramp_targets(scheme1):
    # a target of 0.09 takes the LPOL ramp to xi = 0.15, 30x the default
    cfg = RunConfig()
    cfg.lattice.ramp_target_excitation = 0.09
    budget = run_scheme1(cfg)
    channels = {lbl: p for s in budget.steps for lbl, p in s.failure_channels}
    assert channels["lpol_ramp_excitation"] == 0.09
    assert budget.extras["lpol_ramp_us"] * 30.0 == pytest.approx(
        scheme1.extras["lpol_ramp_us"], rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# step-II scattering: the A site's rate times the full-intensity exposure
# ---------------------------------------------------------------------------

def _step2_scattering(budget) -> float:
    return dict(budget.steps[1].failure_channels)["step2_scattering"]


def _step2_exposure(cfg: RunConfig) -> float:
    """Full-intensity-equivalent LPOL time (s) of step II: ramp up, the
    pulse hold and ramp down."""
    time_unit = HBAR / budget_mod.lattice_recoil(cfg)
    ramp = lpol_ramp_time(cfg.lattice.depth_er, max(_sites(cfg).delta_diff),
                          cfg.lattice.ramp_target_excitation)
    _, _, t_f, _ = budget_mod.pi_pulse(cfg)
    hold = 2.0 * t_f * time_unit
    return 2.0 * (lpol_exposure(ramp) * time_unit) + hold


@pytest.mark.parametrize("phase_nm", [0.0, 50.0, 100.0])
def test_step2_scattering_is_the_a_site_rate_over_the_exposure(phase_nm):
    # the A site sees cos^2(pi (x_A - phase)/eta_l) of the LPOL peak, 0.98
    # at 50 nm and 0.94 at 100 nm, and its rate is linear in intensity
    cfg = RunConfig()
    cfg.lattice.lpol_phase_nm = phase_nm
    lattice = budget_mod.patterned_lattice(cfg)
    sites = _sites(cfg)
    x_a = sites.site_positions[sites.labels.index("A")]
    eta_l = lpol_period(lattice.pattern_period, lattice.spol_wavelength)
    _, _, _, gamma0, gamma1 = light_shifts(RB87, lattice.lpol_wavelength, 1.0)
    expected = (max(gamma0, gamma1) * sites.intensity
                * math.cos(math.pi * (x_a - lattice.lpol_phase) / eta_l) ** 2
                * _step2_exposure(cfg))
    assert _step2_scattering(run_scheme1(cfg)) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_step2_scattering_zero_intensity(monkeypatch):
    # no LPOL light scatters nothing, and a zero rate charges exactly 0
    lattice = SuperlatticeConfig(spol_wavelength=850e-9, spol_depth=50.0, pattern_period=3,
                                 lpol_wavelength=787.6e-9, lpol_phase=0.0)
    assert site_hyperfine_detunings(lattice, 0.0).gamma_a == 0.0
    original = lattice_mod.site_hyperfine_detunings
    monkeypatch.setattr(lattice_mod, "site_hyperfine_detunings",
                        lambda *args: dataclasses.replace(original(*args), gamma_a=0.0))
    assert _step2_scattering(run_scheme1(RunConfig())) == 0.0


def test_step2_scattering_linear_in_exposure():
    # a longer pulse hold adds its own exposure at the same A-site rate
    charges, exposures = [], []
    for cutoff in (0.5, 1.0):
        cfg = RunConfig()
        cfg.pulse.cutoff = cutoff
        charges.append(_step2_scattering(run_scheme1(cfg)))
        exposures.append(_step2_exposure(cfg))
    gamma_a = _sites(RunConfig()).gamma_a
    assert charges[1] - charges[0] == pytest.approx(gamma_a * (exposures[1] - exposures[0]),
                                                    rel=1e-9, abs=0.0)
    assert charges[1] / exposures[1] == pytest.approx(charges[0] / exposures[0],
                                                      rel=1e-12, abs=0.0)


def test_step2_scattering_over_operating_timeline(scheme1):
    # ramp up + pulse hold + ramp down at the delta = 52 E_R intensity
    cfg = RunConfig()
    ramp = lpol_ramp_time(cfg.lattice.depth_er, max(_sites(cfg).delta_diff),
                          cfg.lattice.ramp_target_excitation)

    # oracle: the closed-form ramp exposure against the sampled schedule,
    # whose intensity fraction is (omega^2 - omega_i^2)/(omega_f^2 - omega_i^2)
    w_i, w_f = ramp.initial_frequency, ramp.final_frequency
    ts = np.linspace(0.0, ramp.duration, 20001)
    fraction = [(ramp_schedule(ramp, float(t)) ** 2 - w_i ** 2) / (w_f ** 2 - w_i ** 2)
                for t in ts]
    sampled = np.trapezoid(fraction, ts)
    assert lpol_exposure(ramp) == pytest.approx(sampled, rel=1e-7, abs=0.0)

    assert 0.5e-4 <= _step2_scattering(scheme1) <= 2e-4


@pytest.mark.parametrize("overrides", [
    {"lattice.ramp_target_excitation": 1e-300},
    {"lattice.pattern_period": 1000, "lattice.total_sites": 1000},
])
@pytest.mark.parametrize("run", [run_scheme1, run_scheme2])
def test_step2_scattering_is_clamped_to_certain_failure(overrides, run):
    # an exposure beyond 1/gamma_A charges certain loss, as the other rate x
    # time channels do
    cfg = RunConfig()
    for path, value in overrides.items():
        set_field(cfg, path, value)
    validate_config(cfg)
    budget = run(cfg)
    assert _step2_scattering(budget) == 1.0
    assert budget.total_failure == 1.0


def test_a_full_flip_charges_certain_failure():
    # a pulse far broader than delta flips the A atom as well; at the cutoff
    # omega0 t_f = 5.8 its Richardson flip probability passes 1 by an ulp,
    # which rabi_evolve clamps
    cfg = RunConfig()
    cfg.pulse.omega0_er, cfg.pulse.cutoff = 1e30, 5.8e-30
    assert rabi_evolve(budget_mod.pi_pulse(cfg)[0]).p_flip == 1.0
    budget = run_scheme1(cfg)
    assert dict(budget.steps[1].failure_channels)["pulse_flip_error"] == 1.0
    assert budget.total_failure == 1.0


def test_scheme1_product_rule_vs_sum(scheme1):
    assert scheme1.total_failure <= scheme1.channel_sum
    # all channels < 1e-3, so the two composition rules agree to first order
    assert abs(scheme1.total_failure / scheme1.channel_sum - 1.0) < 1e-2


@settings(max_examples=200, deadline=None, derandomize=True)
@given(probs=st.lists(st.floats(0.0, 1e-2), min_size=1, max_size=12))
def test_composed_failure_bounds_over_generated_channels(probs):
    # independent channels: sum(p) - sum(p)^2/2 <= 1 - prod(1 - p) <= sum(p).
    # -expm1(sum log1p(-p)) rounds each of the n logarithms relative to
    # itself, so it is within n ulps of the exact value relative to that value
    steps = [("removal", 0.0, tuple((f"c{i}", p) for i, p in enumerate(probs)))]
    budget = budget_mod._compose(steps, 1, 1.0, {})
    total, channel_sum = budget.total_failure, budget.channel_sum
    exact = 1 - math.prod(1 - Fraction(p) for p in probs)
    slack = len(probs) * sys.float_info.epsilon * float(exact)
    assert abs(total - exact) <= slack
    assert -slack <= channel_sum - total <= channel_sum ** 2 / 2.0 + slack
    assert total <= channel_sum + slack


@pytest.mark.parametrize("run", [run_scheme1, run_scheme2])
def test_composed_failure_matches_the_exact_product(run):
    # the cancelling 1 - prod(1 - p) was 5.3e-13 relative off at scheme 1
    budget = run(RunConfig())
    probs = [p for step in budget.steps for _, p in step.failure_channels]
    exact = 1 - math.prod(1 - Fraction(p) for p in probs)
    assert budget.total_failure == pytest.approx(float(exact), rel=1e-15, abs=0.0)


def test_a_lone_tiny_channel_survives_composition():
    # 1 - (1 - 3.7e-81) is 0 in floats; the logarithmic form keeps the channel
    budget = budget_mod._compose([("removal", 0.0, (("collision", 3.7e-81),))], 1, 1.0, {})
    assert budget.total_failure == 3.7e-81


def test_a_certain_channel_composes_to_certain_failure():
    steps = [("removal", 0.0, (("collision", 1e-5), ("removal_target_impact", 1.0)))]
    assert budget_mod._compose(steps, 1, 1.0, {}).total_failure == 1.0


@pytest.mark.parametrize("p", [-1e-312, 1.0 + 2.2e-16, math.nan])
def test_compose_refuses_a_probability_outside_the_unit_interval(p):
    steps = [("removal", 1e-6, (("collision", 1e-5), ("removal_target_impact", p)))]
    with pytest.raises(PhysicsDomainError,
                       match=r"channel 'removal_target_impact' probability outside \[0, 1\]"):
        budget_mod._compose(steps, 1, 1.0, {})


def test_compose_refuses_a_negative_step_duration():
    with pytest.raises(PhysicsDomainError, match="step duration must be >= 0"):
        budget_mod._compose([("transfer", -1e-9, ())], 1, 1.0, {})


def test_scheme1_deterministic():
    a = run_scheme1(RunConfig()).to_dict()
    b = run_scheme1(RunConfig()).to_dict()
    assert a == b


def test_scheme2_headline_numbers():
    budget = run_scheme2(RunConfig())
    assert budget.extraction_fraction == pytest.approx(0.8683, abs=1e-4)
    assert 3e-3 < budget.total_failure < 3e-2
    assert budget.cycles == 5
    per_cycle = sum(s.duration for s in budget.steps)
    assert budget.total_time == pytest.approx(5 * per_cycle, rel=1e-12)
    # the move dominates each cycle and sits at the few-ms scale
    assert 2.5e-3 < budget.extras["move_time_ms"] * 1e-3 < 10e-3


def test_scheme2_single_cycle_yield():
    cfg = RunConfig()
    cfg.speedup.cycles = 1
    budget = run_scheme2(cfg)
    assert budget.extraction_fraction == pytest.approx(1 / 3, rel=1e-12)


def test_sweep_xi_rows_follow_closed_form():
    rows = sweep(RunConfig(), "transfer.xi", [0.0025, 0.005, 0.01])
    for row, xi in zip(rows, (0.0025, 0.005, 0.01)):
        assert row["p_transfer_excitation"] == pytest.approx(4 * xi ** 2, rel=1e-12, abs=0.0)


def test_sweep_pattern_period_fractions():
    rows = sweep(RunConfig(), "lattice.pattern_period", [3, 4, 5])
    for row, n in zip(rows, (3, 4, 5)):
        assert row["extraction_fraction"] == pytest.approx(1 / n, abs=1e-2)
        assert row["atoms_extracted"] == 300 // n


def test_sweep_detuning_flip_error_monotone():
    cfg = RunConfig()
    cfg.pulse.omega0_er = 13.0  # pin the pulse so only the detuning moves
    rows = sweep(cfg, "pulse.detuning_er", [32.0, 39.0, 45.0, 52.0])
    flips = [row["p_pulse_flip_error"] for row in rows]
    assert all(a > b for a, b in zip(flips, flips[1:]))


def test_sweep_rejects_bad_path():
    with pytest.raises(ConfigError, match="valid"):
        sweep(RunConfig(), "lattice.nonsense", [1.0])


def test_resolved_echo_expands_rules():
    echo = resolved_config_echo(RunConfig())
    assert echo["pulse"]["omega0_er"] == pytest.approx(13.0)
    assert echo["pulse"]["cutoff"] == pytest.approx(5 / 13)
    assert echo["pulse"]["detuning_er"] == pytest.approx(52.0)
    # xi_bar is no config key: the move runs at sqrt(target_excitation / 4)
    assert "xi_bar" not in echo["speedup"]
    assert run_scheme2(RunConfig()).extras["xi_bar"] == math.sqrt(7e-3 / 4)


def test_echo_resolves_the_lpol_optimum_itself():
    # one resolver: the echo writes the optimum into its own dict, and no
    # resolved copy of the config is handed back to the stages
    assert not hasattr(budget_mod, "resolve_lpol_wavelength")
    cfg = _optimizing()
    echo = resolved_config_echo(cfg)
    assert cfg.lattice.lpol_wavelength_nm == "optimize"
    assert echo["lattice"]["lpol_wavelength_nm"] == budget_mod.patterned_lattice(
        cfg).lpol_wavelength * 1e9


# ---------------------------------------------------------------------------
# stage reuse within one sweep
# ---------------------------------------------------------------------------

def _independent_row(cfg, parameter, value):
    trial = copy.deepcopy(cfg)
    set_by_path(trial, parameter, repr(value))
    budget = run_scheme1(trial)
    row = {"parameter": parameter, "value": value,
           "total_time_us": budget.total_time * 1e6,
           "total_failure": budget.total_failure,
           "atoms_extracted": budget.atoms_extracted,
           "extraction_fraction": budget.extraction_fraction}
    row.update({f"p_{label}": p for step in budget.steps
                for label, p in step.failure_channels})
    return row


def _optimizing():
    cfg = RunConfig()
    cfg.lattice.lpol_wavelength_nm = "optimize"
    return cfg


@pytest.mark.parametrize("cfg, parameter, values", [
    (RunConfig(), "transfer.xi", [0.0025, 0.005, 0.0025, 0.01]),
    (RunConfig(), "lattice.delta_target_er", [44.0, 52.0, 44.0]),
    (RunConfig(), "pulse.detuning_er", [45.0, 52.0]),
    (RunConfig(), "removal.trap_depth_er", [30.0, 50.0, 30.0]),
    (_optimizing(), "transfer.xi", [0.0025, 0.01]),
], ids=["xi", "delta", "detuning", "depth", "xi-optimize"])
def test_sweep_rows_equal_independent_runs(cfg, parameter, values):
    rows = sweep(cfg, parameter, values)
    assert rows == [_independent_row(cfg, parameter, v) for v in values]


@pytest.mark.parametrize("parameter, value", [
    ("lattice.delta_target_er", 44.0),
    ("pulse.detuning_er", 45.0),
    ("removal.duration_us", 2.0),
    ("transfer.xi", 0.0025),
    ("speedup.cycles", 3),
    ("output.float_digits", 8),
])
def test_sweep_leaves_the_callers_config_unchanged(parameter, value):
    cfg = RunConfig()
    before = copy.deepcopy(cfg)
    rows = sweep(cfg, parameter, [value])
    assert cfg == before
    assert rows == [_independent_row(before, parameter, value)]


def _counting(monkeypatch, module, name):
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_sweep_integrates_the_pulse_once_per_distinct_step_two(monkeypatch):
    calls = _counting(monkeypatch, pulse_mod, "rabi_evolve")
    sweep(RunConfig(), "transfer.xi", [0.0025, 0.005, 0.01])
    assert len(calls) == 1
    calls.clear()
    # under the default rules every delta gives the pulse (d, s_f) = (4, 5)
    deltas = [30.0, 40.0, 41.3, 52.0, 55.5, 63.9, 80.0]
    rows = sweep(RunConfig(), "lattice.delta_target_er", deltas)
    assert len(calls) == 1
    assert rows == [_independent_row(RunConfig(), "lattice.delta_target_er", v) for v in deltas]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(delta=st.floats(1e-300, 1e6))
def test_default_pulse_rules_give_one_pair_at_every_delta(delta):
    # omega0 = delta/4, t_f = 5/omega0 and Delta = delta are the pulse
    # (d, s_f) = (4, 5) exactly, while the echo keeps the E_R values
    cfg = RunConfig()
    cfg.lattice.delta_target_er = delta
    assert resolve_pulse_rules(cfg) == (4.0, 5.0, delta / 4.0, 5.0 / (delta / 4.0), delta)


def _numeric_width():
    cfg = RunConfig()
    cfg.pulse.omega0_er = 13.0
    return cfg


@pytest.mark.parametrize("cfg, parameter, values, pairs", [
    (RunConfig(), "pulse.omega0_er", [10.0, 13.0, 10.0, 16.0], 3),
    (RunConfig(), "pulse.cutoff", [0.4, 0.5, 0.4, 0.6], 3),
    (RunConfig(), "pulse.detuning_er", [45.0, 52.0, 60.0, 45.0], 3),
    # with a numeric width, d = delta/omega0 moves with the delta target
    (_numeric_width(), "lattice.delta_target_er", [44.0, 52.0, 44.0], 2),
], ids=["omega0", "cutoff", "detuning", "delta-at-numeric-width"])
def test_sweep_keys_the_pulse_by_every_input_it_reads(monkeypatch, cfg, parameter, values,
                                                     pairs):
    # one integration per distinct pair (d, s_f), and rows equal to independent runs
    calls = _counting(monkeypatch, pulse_mod, "rabi_evolve")
    rows = sweep(cfg, parameter, values)
    assert len(calls) == len({pulse for pulse, in calls}) == pairs
    monkeypatch.undo()
    assert rows == [_independent_row(cfg, parameter, v) for v in values]


@pytest.mark.parametrize("values", [[0.005], [0.0025, 0.005, 0.01, 0.02, 0.04]])
def test_sweep_validates_the_whole_config_once(monkeypatch, values):
    # a later row differs from the first in the swept field alone, so it
    # checks that field and the cross-field combinations only
    calls = _counting(monkeypatch, budget_mod, "validate_config")
    rows = sweep(RunConfig(), "transfer.xi", values)
    assert len(calls) == 1
    monkeypatch.undo()
    assert rows == [_independent_row(RunConfig(), "transfer.xi", v) for v in values]


@pytest.mark.parametrize("function", [budget_mod._scheme1, budget_mod._step_two,
                                      budget_mod.pi_pulse, budget_mod.transfer_ramp],
                         ids=lambda function: function.__name__)
def test_sweep_row_functions_import_absolutely(function):
    # every sweep row runs these imports; a relative one resolves the package
    # and runs importlib's fromlist handling each time, an absolute one does not
    instructions = list(dis.get_instructions(function))
    levels = [instructions[i - 2].argval for i, instruction in enumerate(instructions)
              if instruction.opname == "IMPORT_NAME"]
    assert levels and levels == [0] * len(levels)


def test_sweep_keeps_nothing_between_calls(monkeypatch):
    calls = _counting(monkeypatch, pulse_mod, "rabi_evolve")
    first = sweep(RunConfig(), "transfer.xi", [0.005, 0.01])
    second = sweep(RunConfig(), "transfer.xi", [0.005, 0.01])
    assert len(calls) == 2
    assert first == second


def test_sweep_optimizes_lpol_wavelength_once(monkeypatch):
    calls = _counting(monkeypatch, stark_mod, "optimize_lpol_wavelength")
    sweep(_optimizing(), "transfer.xi", [0.0025, 0.005, 0.01])
    assert len(calls) == 1
