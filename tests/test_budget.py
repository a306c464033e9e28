"""Scheme orchestration: step durations, channel aggregation, sweeps."""
import copy
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mottreg.budget as budget_mod
from mottreg.budget import resolved_config_echo, run_scheme1, run_scheme2, sweep
from mottreg.config import RunConfig, set_by_path
from mottreg.errors import ConfigError


@pytest.fixture(scope="module")
def scheme1():
    return run_scheme1(RunConfig())


def test_scheme1_headline_numbers(scheme1):
    assert scheme1.total_time < 300e-6
    assert 1e-4 <= scheme1.total_failure <= 5e-4
    assert scheme1.atoms_extracted == 100
    assert scheme1.extraction_fraction == pytest.approx(1 / 3)


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


def test_scheme1_product_rule_vs_sum(scheme1):
    assert scheme1.total_failure <= scheme1.channel_sum
    # all channels < 1e-3, so the two composition rules agree to first order
    assert abs(scheme1.total_failure / scheme1.channel_sum - 1.0) < 1e-2


@settings(max_examples=200, deadline=None, derandomize=True)
@given(probs=st.lists(st.floats(0.0, 1e-2), min_size=1, max_size=12))
def test_composed_failure_bounds_over_generated_channels(probs):
    # independent channels: sum(p) - sum(p)^2/2 <= 1 - prod(1 - p) <= sum(p).
    # The float 1 - prod(1 - p) rounds each of the n factors near 1, so it
    # is within n ulps of 1 of the exact value, and below ~1e-16 it is 0
    steps = [("removal", 0.0, tuple((f"c{i}", p) for i, p in enumerate(probs)))]
    budget = budget_mod._compose(steps, 1, 1.0, {})
    total, channel_sum = budget.total_failure, budget.channel_sum
    slack = len(probs) * sys.float_info.epsilon
    exact = 1 - math.prod(1 - Fraction(p) for p in probs)
    assert abs(total - exact) <= slack
    assert -slack <= channel_sum - total <= channel_sum ** 2 / 2.0 + slack
    assert total <= channel_sum + slack


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
    ("species.gamma2_rad_s", 4.0e7),
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


def _counting(monkeypatch, name):
    original = getattr(budget_mod, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(budget_mod, name, counted)
    return calls


def test_sweep_integrates_the_pulse_once_per_distinct_step_two(monkeypatch):
    calls = _counting(monkeypatch, "rabi_evolve")
    sweep(RunConfig(), "transfer.xi", [0.0025, 0.005, 0.01])
    assert len(calls) == 1
    calls.clear()
    sweep(RunConfig(), "lattice.delta_target_er", [44.0, 52.0, 60.0])
    assert len(calls) == 3


def test_sweep_keeps_nothing_between_calls(monkeypatch):
    calls = _counting(monkeypatch, "rabi_evolve")
    first = sweep(RunConfig(), "transfer.xi", [0.005, 0.01])
    second = sweep(RunConfig(), "transfer.xi", [0.005, 0.01])
    assert len(calls) == 2
    assert first == second


def test_sweep_optimizes_lpol_wavelength_once(monkeypatch):
    calls = _counting(monkeypatch, "optimize_lpol_wavelength")
    sweep(_optimizing(), "transfer.xi", [0.0025, 0.005, 0.01])
    assert len(calls) == 1
