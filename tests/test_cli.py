"""Config loading, serialization, CLI subcommands, determinism, exit codes."""
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mottreg import config as config_mod
from mottreg import transfer as transfer_mod
from mottreg.budget import run_scheme1, run_scheme2
from mottreg.cli import emit, main
from mottreg.config import (RunConfig, config_from_dict, config_to_dict,
                            load_config, set_by_path, validate_config)
from mottreg.errors import ConfigError
from mottreg.pulse import rabi_evolve
from mottreg.speedup import DoubleGaussianPotential, gap_and_element, track_minimum
from mottreg.units import RB87


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_empty_file_gives_operating_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.lattice.delta_target_er == 52.0
    assert cfg.transfer.xi == 0.005
    assert cfg.lattice.pattern_period == 3
    assert cfg.lattice.lambda_s_nm == 850.0
    assert cfg.removal.trap_depth_er == 50.0


def test_invalid_pattern_period_rejected():
    with pytest.raises(ConfigError, match="pattern_period"):
        config_from_dict({"lattice": {"pattern_period": 2}})


def test_unknown_key_rejected_with_location():
    with pytest.raises(ConfigError, match="lattice.depth_typo"):
        config_from_dict({"lattice": {"depth_typo": 50.0}})
    with pytest.raises(ConfigError, match="unknown section"):
        config_from_dict({"lettuce": {}})
    # keys that only ever held one value are gone, and so is the species
    # section: the atom is always Rb-87
    with pytest.raises(ConfigError, match="unknown section 'species'"):
        config_from_dict({"species": {"name": "Rb87"}})
    with pytest.raises(ConfigError, match="unknown key 'speedup.xi_bar'"):
        set_by_path(RunConfig(), "speedup.xi_bar", "calibrate")


def test_parse_error_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"lattice": {,}}', encoding="utf-8")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(path)


def test_cli_unreadable_config_file_is_a_config_error(capsys, tmp_path):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"output": {"directory": "caf\u00e9"}}'.encode("latin-1"))
    for path in (tmp_path / "missing.json", tmp_path, latin1):
        assert main(["--config", str(path), "pulse"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config '{path}'")
        assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["--set", "transfer.xi=" + "[" * 5000, "transfer"], "transfer.xi must be a number"),
    (["sweep", "--parameter", "transfer.xi", "--values", "[" * 5000], "--values entry"),
    (["--config", "{path}", "pulse"], "{path}: parse error"),
])
def test_cli_json_nested_beyond_the_parser_is_a_config_error(capsys, tmp_path, argv,
                                                             message):
    # the parser recurses once per level and gives up long before these depths
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000, encoding="utf-8")
    argv = [a.replace("{path}", str(path)) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + message.replace("{path}", str(path)))
    assert "Traceback" not in err


def test_config_round_trip(tmp_path):
    cfg = RunConfig()
    cfg.transfer.xi = 0.0025
    cfg.lattice.pattern_period = 4
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
    again = load_config(path)
    assert config_to_dict(again) == config_to_dict(cfg)


def test_set_by_path_and_validation():
    cfg = RunConfig()
    set_by_path(cfg, "transfer.xi", "0.0025")
    assert cfg.transfer.xi == 0.0025
    set_by_path(cfg, "lattice.lpol_wavelength_nm", "optimize")
    assert cfg.lattice.lpol_wavelength_nm == "optimize"
    with pytest.raises(ConfigError):
        set_by_path(cfg, "transfer.xi", "0.5")
    with pytest.raises(ConfigError, match="valid keys"):
        set_by_path(cfg, "transfer.squeeze", "1")
    with pytest.raises(ConfigError):
        set_by_path(cfg, "xi", "1")


NUMBER_FIELDS = [(f"{section}.{f.name}", f.type.split(" | "))
                 for section in config_to_dict(RunConfig())
                 for f in dataclasses.fields(getattr(RunConfig(), section))
                 if {"int", "float"} & set(f.type.split(" | "))]

JSON_SCALARS = st.one_of(st.integers(), st.floats(), st.booleans(), st.text(max_size=8),
                         st.none())


@settings(max_examples=400, deadline=None)
@given(field=st.sampled_from(NUMBER_FIELDS), value=JSON_SCALARS)
def test_set_by_path_number_fields_hold_finite_values_of_their_kind(field, value):
    path, kinds = field
    cfg = RunConfig()
    try:
        set_by_path(cfg, path, json.dumps(value))
    except ConfigError as exc:
        assert path in str(exc)
        return
    section, key = path.split(".")
    held = getattr(getattr(cfg, section), key)
    if isinstance(held, str):
        assert "str" in kinds
    else:
        assert not isinstance(held, bool) and math.isfinite(held)
        assert isinstance(held, (int, float) if "float" in kinds else int)


# the interval of every number field, as the models admit it; a changed end
# in config._RANGES is a change of what runs
EXPECTED_RANGES = {
    "lattice.lambda_s_nm": "[100, 1e5]",
    "lattice.depth_er": "(0, inf)",
    "lattice.pattern_period": "[3, inf)",
    "lattice.lpol_wavelength_nm": "[100, 1e5]",
    "lattice.delta_target_er": "(0, 1e6]",
    "lattice.ramp_target_excitation": "(0, 0.1)",
    "lattice.dimensions": "[1, 2]",
    "pulse.omega0_er": "(0, inf)",
    "pulse.cutoff": "(0, inf)",
    "pulse.detuning_er": "(0, inf)",
    "removal.trap_depth_er": "[0, inf)",
    "removal.duration_us": "(0, inf)",
    "removal.excited_population_cap": "(0, 0.5)",
    "removal.tunneling_time_ms": "(0, inf)",
    "transfer.xi": "(0, 0.1)",
    "transfer.frequency_ratio": "(1, 1e6]",
    "transfer.waist_um": "[1e-3, 1e3]",
    "speedup.confine_depth": "[0, 1e6]",
    "speedup.focus_depth": "[0, 1e6]",
    "speedup.sigma_c_um": "[1e-3, 1e3]",
    "speedup.focus_waist_ratio": "[1e-3, 1e3]",
    "speedup.final_displacement_sigma": "[0, 100]",
    "speedup.target_excitation": "(0, 1)",
    "speedup.cycles": "[0, inf)",
    "speedup.per_cycle_fraction": "[0, 1]",
    "speedup.profile_points": "[9, inf)",
    "speedup.basis_size": "[3, inf)",
    "output.float_digits": "[6, 17]",
}

# the number fields that only the three cross-field checks of validate_config
# bound, and the one that any finite value serves
CROSS_FIELD = {"lattice.band_exclusion_nm", "lattice.total_sites",
               "lattice.pattern_period", "speedup.focus_detuning_rad_s",
               "speedup.effective_linewidth_rad_s"}
FREE = {"lattice.lpol_phase_nm"}


def test_every_number_field_has_a_range_row():
    fields = {path for path, _ in NUMBER_FIELDS}
    assert fields - set(config_mod._RANGES) - CROSS_FIELD == FREE
    assert set(config_mod._RANGES) == set(EXPECTED_RANGES)
    all_fields = {f"{section}.{key}" for section, keys in config_to_dict(RunConfig()).items()
                  for key in keys}
    assert set(config_mod._WORDS) <= all_fields


def _range_cases():
    kinds = dict(NUMBER_FIELDS)
    for path, interval in EXPECTED_RANGES.items():
        lo, hi = (float(end) for end in interval[1:-1].split(","))
        integer = "float" not in kinds[path]
        for bound, closed, outward in ((lo, interval[0] == "[", -math.inf),
                                       (hi, interval[-1] == "]", math.inf)):
            if math.isinf(bound):
                continue
            if integer:
                step = 1 if outward > 0 else -1
                values = (int(bound) + step, int(bound), int(bound) - step)
            else:
                values = (math.nextafter(bound, outward), bound,
                          math.nextafter(bound, -outward))
            for value, accepted in zip(values, (False, closed, True)):
                yield pytest.param(path, value, accepted, id=f"{path}={value!r}")


@pytest.mark.parametrize("path, value, accepted", _range_cases())
def test_range_row_ends(path, value, accepted):
    # another field's check may refuse an accepted value (d1 = 100 nm lies
    # below the D2 line), but only this row refuses with its interval
    cfg = RunConfig()
    section, key = path.split(".")
    setattr(getattr(cfg, section), key, value)
    try:
        validate_config(cfg)
    except ConfigError as exc:
        message = str(exc)
    else:
        message = ""
    refused = message.startswith(f"{path} must lie in {EXPECTED_RANGES[path]}")
    assert refused != accepted, message


# ---------------------------------------------------------------------------
# emit
# ---------------------------------------------------------------------------

def test_emit_json_deterministic_and_reparsable(tmp_path):
    report = {"a": 1 / 3, "b": [1.0, 2.5e-7], "c": {"d": True, "e": "x"}}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    emit(report, "json", p1)
    emit(report, "json", p2)
    assert p1.read_bytes() == p2.read_bytes()
    parsed = json.loads(p1.read_text())
    assert parsed["a"] == float(format(1 / 3, ".12g"))
    assert parsed["c"]["d"] is True


def test_emit_csv_shape(tmp_path):
    table = {"x": [1.0, 2.0], "label": ["A", "B"]}
    path = tmp_path / "rows.csv"
    emit(table, "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,label"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------

def _run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cli_pulse_json(capsys):
    code, out = _run(capsys, "pulse")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["Omega0"] == pytest.approx(23.04, rel=1e-3)
    assert payload["config"]["pulse"]["omega0_er"] == 13.0


def test_cli_remove_json(capsys):
    code, out = _run(capsys, "remove")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["threshold"] == 25.0
    assert report["n_p_B"] == pytest.approx(25.0, rel=1e-6)
    assert report["feasible"] is False


@pytest.mark.parametrize("settings", [
    # drives below the 1e-3 Gamma end of the operating-point bracket
    ("removal.trap_depth_er=1e-9",),
    ("removal.trap_depth_er=7e-5",),
    ("removal.duration_us=1e6",),
    ("removal.duration_us=1e7",),
    ("removal.duration_us=1e6", "removal.trap_depth_er=1e-9"),
    # residuals near 1e-280, whose products underflow in the root finder
    ("removal.trap_depth_er=1e-280",),
    ("removal.duration_us=1e4",),
])
def test_cli_remove_solves_weak_drives(capsys, settings):
    argv = [a for s in settings for a in ("--set", s)]
    code, out = _run(capsys, "--set", "output.float_digits=17", *argv, "remove")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["feasible"] is True
    assert report["n_p_B"] == pytest.approx(report["threshold"], rel=1e-12, abs=0.0)


def test_cli_remove_short_window_drive(capsys):
    # Gamma T = 3.8e-4: the photon count comes from the short-window series
    code, out = _run(capsys, "--set", "output.float_digits=17",
                     "--set", "removal.duration_us=1e-5",
                     "--set", "removal.trap_depth_er=1e-6", "remove")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["rabi_frequency_rad_s"] == pytest.approx(12548544730.939957,
                                                           rel=1e-11, abs=0.0)
    assert report["n_p_B"] == pytest.approx(5e-7, rel=1e-12, abs=0.0)


def test_cli_remove_unreachable_threshold_names_the_fields(capsys):
    assert main(["--set", "removal.excited_population_cap=0.4999999", "remove"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("physics domain error: photon threshold")
    for field in ("removal.trap_depth_er", "removal.duration_us",
                  "removal.excited_population_cap"):
        assert field in err


def test_cli_lattice_csv(capsys, tmp_path):
    out_csv = tmp_path / "sites.csv"
    code, _ = _run(capsys, "--out", str(out_csv), "lattice", "--sites", "6")
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "index,position_um,deltaE0_ER,deltaE1_ER,label"
    assert len(lines) == 7
    assert lines[1].endswith(",A")


def test_cli_sweep_csv_row_count(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code, _ = _run(capsys, "--out", str(out_csv), "sweep",
                   "--parameter", "transfer.xi", "--values", "0.0025", "0.005")
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 3


@pytest.mark.parametrize("value, message", [
    ("NaN", "transfer.xi must be finite, got nan"),
    ('"0.005"', "transfer.xi must be a number, got '0.005'"),
])
def test_cli_sweep_values_are_checked_as_set_values(capsys, value, message):
    # a sweep value is written as it was parsed, so it meets the check that
    # the same value meets through --set
    assert main(["sweep", "--parameter", "transfer.xi", "--values", value]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"
    assert main(["--set", f"transfer.xi={value}", "transfer"]) == 2
    assert capsys.readouterr().err == err


def test_cli_transfer_trajectory_side_file(capsys, tmp_path):
    traj = tmp_path / "traj.csv"
    code, _ = _run(capsys, "--out", str(tmp_path / "t.json"), "transfer",
                   "--trajectory-out", str(traj))
    assert code == 0
    lines = traj.read_text().splitlines()
    assert lines[0] == "t,omega,Pe_analytic,Pe_numeric"
    assert len(lines) == 1501


def test_cli_pulse_trajectory_side_file(capsys, tmp_path):
    traj = tmp_path / "amps.csv"
    code, _ = _run(capsys, "--out", str(tmp_path / "p.json"), "pulse",
                   "--trajectory-out", str(traj))
    assert code == 0
    report = json.loads((tmp_path / "p.json").read_text())
    lines = traj.read_text().splitlines()
    assert lines[0] == "t,re_c0,im_c0,re_c1,im_c1"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    t_f = 5.0 / 13.0   # the default cutoff, unrounded
    assert [r[0] for r in rows] == [float(format(t, ".12g"))
                                    for t in np.linspace(-t_f, t_f, 801)]
    assert rows[0][1:] == [1.0, 0.0, 0.0, 0.0]
    assert rows[-1][3] ** 2 + rows[-1][4] ** 2 == pytest.approx(report["p_flip"], rel=1e-9, abs=0.0)


def test_cli_speedup_side_files(capsys, tmp_path):
    prof = tmp_path / "profile.csv"
    pot = tmp_path / "potential.csv"
    code, _ = _run(capsys, "--out", str(tmp_path / "s.json"), "speedup",
                   "--profile-out", str(prof), "--potential-out", str(pot))
    assert code == 0
    assert prof.read_text().splitlines()[0] == "a,y_min,gap,element"
    assert pot.read_text().splitlines()[0] == "y,v_a_0p2,v_a_0p8,v_a_1p5"
    summary = json.loads((tmp_path / "s.json").read_text())
    assert 2.5 <= summary["T_ms"] <= 10.0
    assert summary["yield_5_cycles"] == pytest.approx(0.8683, abs=1e-4)


def test_cli_speedup_profile_is_the_uniform_grid_of_profile_points(capsys, tmp_path):
    # the side file is the 161-point uniform profile, tracked and
    # diagonalised point by point on that grid alone, whatever rule the move
    # time uses
    prof = tmp_path / "profile.csv"
    code, _ = _run(capsys, "--out", str(tmp_path / "s.json"), "speedup",
                   "--profile-out", str(prof))
    assert code == 0
    wells = DoubleGaussianPotential(400.0, 560.0, focus_waist=0.5)
    a = np.linspace(0.0, 2.0, 161)
    minima = track_minimum(wells, a)
    gaps, elements = gap_and_element(wells, a, minima, 11)
    table = {"a": a, "y_min": minima, "gap": gaps, "element": elements}
    assert prof.read_bytes() == emit(table, "csv", None).encode()


@pytest.mark.parametrize("command", ["speedup", "scheme2"])
def test_cli_unconverged_move_time_is_a_numerics_error(capsys, monkeypatch, command):
    # at focus depth 300 and basis 15, 32 and 16 nodes differ by 2.9%; with
    # room for the first stack alone the doubling cannot go on
    monkeypatch.setattr("mottreg.speedup._MAX_PROFILE", 56 * (15 ** 2 + 128))
    assert main(["--set", "speedup.focus_depth=300", "--set", "speedup.basis_size=15",
                 command]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerics error: moving-time integral not converged: "
                          "32 Gauss-Legendre nodes")
    assert "speedup.basis_size" in err


def test_cli_flag_overrides_win(capsys):
    # each handler's flags write their config fields after every --set
    for argv, key, expected in [
            ("--set transfer.xi=0.004 transfer --xi 0.0025", "max_Pe_analytic",
             4 * 0.0025 ** 2),
            ("--set removal.trap_depth_er=30 remove --trap-depth 45", "threshold", 22.5),
            ("--set pulse.omega0_er=13 pulse --omega0 12", "omega0", 12.0)]:
        code, out = _run(capsys, *argv.split())
        assert code == 0
        report = json.loads(out)["report"]
        assert report[key] == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_cli_exit_codes(capsys, tmp_path):
    # config error: unknown override key
    assert main(["--set", "transfer.junk=1", "pulse"]) == 2
    capsys.readouterr()
    # config error: invalid value from a file
    bad = tmp_path / "bad.json"
    bad.write_text('{"lattice": {"pattern_period": 2}}', encoding="utf-8")
    assert main(["--config", str(bad), "pulse"]) == 2
    capsys.readouterr()
    # config error: xi = 0.1 lies outside transfer.xi's range, though a
    # HarmonicRamp admits xi up to sqrt(0.1)/2 for the LPOL ramp
    assert main(["--set", "transfer.xi=0.1", "transfer"]) == 2
    assert "transfer.xi" in capsys.readouterr().err
    # physics domain error: cutoff below 3/omega0
    assert main(["pulse", "--tf", "0.01"]) == 3
    capsys.readouterr()
    # physics domain error: lambda_l > 3 lambda_s leaves no LPOL beam angle
    assert main(["--set", "lattice.lpol_wavelength_nm=3000", "scheme1"]) == 3
    assert "no intersection angle exists" in capsys.readouterr().err
    # numerics error: the tracked focus well merges away
    assert main(["--set", "speedup.focus_depth=120",
                 "--set", "speedup.focus_waist_ratio=0.35",
                 "--set", "speedup.final_displacement_sigma=3.0", "speedup"]) == 4
    capsys.readouterr()


def test_cli_refuses_the_species_section(capsys, tmp_path):
    # the atom is always Rb-87, so no config section describes it
    path = tmp_path / "species.json"
    path.write_text('{"species": {"mass_kg": 1e-25}}', encoding="utf-8")
    for argv in (["--config", str(path), "pulse"], ["--set", "species.mass_kg=1e-25", "pulse"]):
        assert main(argv) == 2
        assert "unknown section 'species'" in capsys.readouterr().err


def test_cli_set_order_does_not_matter(capsys):
    # every --set is written before the one validation, so two overrides
    # that only hold together pass in either order
    period, sites = "lattice.pattern_period=400", "lattice.total_sites=1000"
    first = _run(capsys, "--set", period, "--set", sites, "pulse")
    assert first[0] == 0
    assert _run(capsys, "--set", sites, "--set", period, "pulse") == first
    assert main(["--set", "lattice.total_sites=2", "pulse"]) == 2
    assert capsys.readouterr().err.startswith("config error: lattice.total_sites")


@pytest.mark.parametrize("depth", ["1e-305", "1e-307"])
def test_cli_subnormal_trap_depth_scatters_no_target_photons(capsys, depth):
    # the Pade-13 exponential leaves these photon counts a few ulps below 0
    setting = ("--set", f"removal.trap_depth_er={depth}", "--set", "output.float_digits=17")
    code, out = _run(capsys, *setting, "scheme1")
    assert code == 0
    steps = json.loads(out)["report"]["steps"]
    impact = [c["p"] for s in steps for c in s["channels"]
              if c["label"] == "removal_target_impact"]
    assert impact == [0.0]
    code, out = _run(capsys, *setting, "remove")
    assert code == 0
    assert json.loads(out)["report"]["n_p_A"] == 0.0


def test_cli_byte_identical_reruns(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MOTTREG_OUTDIR", str(tmp_path))
    outputs = {}
    for tag in ("a", "b"):
        code, out = _run(capsys, "--out", f"pulse_{tag}.json", "pulse")
        assert code == 0
        outputs[tag] = (out, (tmp_path / f"pulse_{tag}.json").read_bytes())
    assert outputs["a"][1] == outputs["b"][1]
    # stdout envelopes differ only in the echoed output path
    assert outputs["a"][0].replace("pulse_a", "pulse_x") == \
        outputs["b"][0].replace("pulse_b", "pulse_x")


def test_cli_non_numeric_value_is_a_config_error(capsys):
    assert main(["--set", "lattice.depth_er=abc", "scheme1"]) == 2
    assert "lattice.depth_er must be a number" in capsys.readouterr().err
    assert main(["--set", 'removal.duration_us="x"', "pulse"]) == 2
    assert "removal.duration_us must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("setting, command", [
    ("lattice.depth_er=Infinity", "scheme1"),
    ("lattice.lpol_phase_nm=NaN", "scheme1"),
    ("lattice.total_sites=300.5", "scheme1"),
    ("speedup.cycles=2.5", "scheme1"),
    ("removal.tunneling_time_ms=Infinity", "scheme1"),
    ("output.float_digits=8.5", "pulse"),
    ("speedup.basis_size=11.5", "scheme2"),
    ("output.float_digits=100000000000", "pulse"),
    ("output.directory=5", "--out x.json remove"),
    ("transfer.direction=5", "transfer"),
    # a bare field is written by the command's own flag, not by --set
    ("removal.trap_depth_er", "remove --trap-depth inf"),
    ("pulse.omega0_er", "pulse --omega0 nan"),
    ("transfer.xi", "transfer --xi nan"),
    ("transfer.direction", "transfer --direction sideways"),
    # a flag that is no config field is named itself
    ("--points", "stark-scan --points 0"),
    ("--values", "sweep --parameter transfer.xi --values x"),
    ("--detuning-ghz", "remove --detuning-ghz nan"),
    ("--sites", "lattice --sites 2"),
    # an empty or reversed band, and values whose derived scales overflow
    ("lattice.band_exclusion_nm=-5", "stark-scan"),
    ("lattice.band_exclusion_nm=1e300", "stark-scan"),
    ("lattice.lambda_s_nm=1e-300", "scheme1"),
    ("speedup.sigma_c_um=1e300", "speedup"),
    ("transfer.waist_um=1e300", "transfer"),
    ("transfer.frequency_ratio=1e300", "transfer"),
    ("--detuning-ghz", "remove --detuning-ghz 1e100"),
])
def test_cli_non_finite_or_fractional_value_is_a_config_error(capsys, setting, command):
    field, sep, _ = setting.partition("=")
    assert main((["--set", setting] if sep else []) + command.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + field)
    assert "Traceback" not in err


@pytest.mark.parametrize("setting, command, field", [
    # the tunneling of a deeper lattice is below the rounding of its bands
    ("lattice.depth_er=1e300", "transfer", "lattice.depth_er"),
    ("speedup.basis_size=200", "speedup", "speedup.basis_size"),
    ("speedup.profile_points=100000000", "speedup", "speedup.profile_points"),
    # refused before allocating 7.45 GiB, 74.5 GiB and 72.8 TiB
    ("--points", "stark-scan --points 1000000000", "--points"),
    ("--sites", "lattice --sites 10000000000", "--sites"),
    ("lattice.total_sites=100000000000000",
     "--set lattice.pattern_period=10000000000000 scheme1", "lattice.pattern_period"),
])
def test_cli_unresolvable_or_oversized_run_is_a_numerics_error(capsys, setting, command, field):
    assert main((["--set", setting] if "=" in setting else []) + command.split()) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerics error: " + field)


def test_cli_refuses_a_non_finite_report_value(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("mottreg.cli.rabi_evolve", lambda pulse, **kw: dataclasses.replace(
        rabi_evolve(pulse, **kw), p_flip=float("nan")))
    monkeypatch.setenv("MOTTREG_OUTDIR", str(tmp_path))
    assert main(["--out", "pulse.json", "pulse"]) == 4
    assert capsys.readouterr().err.startswith("numerics error: report value 'p_flip' is nan")
    assert not (tmp_path / "pulse.json").exists()


def test_cli_refuses_a_non_finite_side_table_value(capsys, monkeypatch, tmp_path):
    original = transfer_mod.excitation_numeric

    def with_nan(ramp, **kw):
        result = original(ramp, **kw)
        pe = result.excitation_numeric.copy()
        pe[700] = float("nan")
        return dataclasses.replace(result, excitation_numeric=pe)

    monkeypatch.setattr(transfer_mod, "excitation_numeric", with_nan)
    monkeypatch.setenv("MOTTREG_OUTDIR", str(tmp_path))
    assert main(["--out", "t.json", "transfer", "--trajectory-out", "traj.csv"]) == 4
    assert capsys.readouterr().err.startswith(
        "numerics error: report value 'Pe_numeric' is nan")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["scheme1", "scheme2"])
def test_cli_csv_of_a_nested_report_is_a_config_error(capsys, monkeypatch, tmp_path, command):
    monkeypatch.setenv("MOTTREG_OUTDIR", str(tmp_path))
    for argv in (["--format", "csv", command], ["--format", "csv", "--out", "b.csv", command]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --format csv")
        assert "'steps'" in captured.err
        assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_cli_csv_of_a_flat_report_is_one_row(capsys):
    code, out = _run(capsys, "--format", "csv", "--set", "removal.trap_depth_er=1e-9", "remove")
    assert code == 0
    header, row = out.splitlines()
    assert header == "n_p_B,n_p_A,threshold,feasible,duration_used,rabi_frequency_rad_s"
    assert row.split(",")[3] == "true"


def test_cli_json_of_a_table_is_one_object_per_row(capsys, tmp_path):
    code, _ = _run(capsys, "--out", str(tmp_path / "sites.csv"), "lattice", "--sites", "6")
    assert code == 0
    code, out = _run(capsys, "--format", "json", "lattice", "--sites", "6")
    assert code == 0
    rows = json.loads(out)["report"]
    lines = (tmp_path / "sites.csv").read_text().splitlines()
    assert len(rows) == len(lines) - 1 == 6
    for row, line in zip(rows, lines[1:]):
        assert list(row) == ["index", "position_um", "deltaE0_ER", "deltaE1_ER", "label"]
        index, position, e0, e1, label = line.split(",")
        assert row["index"] == int(index)
        assert row["label"] == label
        for key, text in (("position_um", position), ("deltaE0_ER", e0), ("deltaE1_ER", e1)):
            assert isinstance(row[key], float)
            assert row[key] == float(format(row[key], ".12g")) == float(text)


@pytest.mark.parametrize("phase_nm", [0, 50])
def test_cli_lattice_profile_holds_the_site_shifts(capsys, tmp_path, phase_nm):
    # the profile's LPOL shifts at the site centres are the sites file's,
    # whatever the LPOL phase
    sites, prof = tmp_path / "sites.csv", tmp_path / "profile.csv"
    code, _ = _run(capsys, "--set", "output.float_digits=17",
                   "--set", f"lattice.lpol_phase_nm={phase_nm}",
                   "--out", str(sites), "lattice", "--profile-out", str(prof))
    assert code == 0
    site_rows = [line.split(",") for line in sites.read_text().splitlines()[1:]]
    grid = [[float(v) for v in line.split(",")] for line in prof.read_text().splitlines()[1:]]
    assert len(site_rows) == 9 and len(grid) == 601
    depth, lambda_s_um = RunConfig().lattice.depth_er, RunConfig().lattice.lambda_s_nm * 1e-3
    for j, (_, position, e0, e1, _) in enumerate(site_rows):
        x_um, v0, v1 = grid[75 * j]
        assert x_um == pytest.approx(float(position), rel=1e-12, abs=1e-12)
        v_s = depth * math.sin(2 * math.pi * x_um / lambda_s_um) ** 2
        assert v0 - v_s == pytest.approx(float(e0), rel=1e-12, abs=0.0)
        assert v1 - v_s == pytest.approx(float(e1), rel=1e-12, abs=0.0)


FUZZ_COMMANDS = ["stark-scan --points 5", "lattice", "pulse", "remove", "transfer",
                 "speedup", "scheme1", "scheme2",
                 "sweep --parameter transfer.xi --values 0.005 0.004"]
FUZZ_VALUES = st.one_of(
    st.sampled_from([0, -1, 1e-300, -1e-300, 1e300, -1e300, 10 ** 20, 2 ** 70]),
    st.integers(-10 ** 30, 10 ** 30), st.floats(-1e300, 1e300))


def _no_constant(name):
    raise ValueError(f"{name} in JSON output")


# a depth below the tight-binding regime warns by design; any other warning
# stays an error
@pytest.mark.filterwarnings("default:lattice depth below:UserWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(field=st.sampled_from(NUMBER_FIELDS), value=FUZZ_VALUES,
       command=st.sampled_from(FUZZ_COMMANDS))
def test_cli_fuzz_number_fields(field, value, command):
    _assert_runs_or_exits_cleanly([(field[0], value)], command)


# pairs reach sizes that only overflow together, such as pattern_period and
# total_sites, or profile_points and basis_size
@pytest.mark.filterwarnings("default:lattice depth below:UserWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(first=st.sampled_from(NUMBER_FIELDS), first_value=FUZZ_VALUES,
       second=st.sampled_from(NUMBER_FIELDS), second_value=FUZZ_VALUES,
       command=st.sampled_from(FUZZ_COMMANDS))
def test_cli_fuzz_pairs_of_number_fields(first, first_value, second, second_value,
                                         command):
    _assert_runs_or_exits_cleanly([(first[0], first_value), (second[0], second_value)],
                                  command)


def _assert_runs_or_exits_cleanly(overrides, command):
    out, err = io.StringIO(), io.StringIO()
    argv = [a for path, value in overrides for a in ("--set", f"{path}={json.dumps(value)}")]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", "json", *argv, *command.split()])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_no_constant)


def test_cli_reports_agree_with_the_budgets(capsys):
    def report(command):
        code, out = _run(capsys, command)
        assert code == 0
        return json.loads(out)["report"]

    def at_12_digits(value):
        return float(format(value, ".12g"))

    one = run_scheme1(RunConfig()).extras
    two = run_scheme2(RunConfig()).extras
    assert report("transfer")["T_us"] == at_12_digits(one["transfer_time_us"])
    remove = report("remove")
    assert remove["duration_used"] == at_12_digits(one["removal_duration_us"] / 1e6)
    assert remove["rabi_frequency_rad_s"] == at_12_digits(one["removal_rabi_rad_s"])
    assert report("pulse")["Omega0"] == at_12_digits(one["pulse_peak_rabi_er"])
    speedup = report("speedup")
    assert speedup["T_ms"] == at_12_digits(two["move_time_ms"])
    assert speedup["P_exc"] == at_12_digits(two["p_exc"])
    assert speedup["P_scatter"] == at_12_digits(two["p_scatter"])


def test_cli_tiny_delta_target_runs(capsys):
    # the step-II scattering exposure is closed form, so a 7e-9 s pulse
    # window no longer stalls a numerical integral
    code, out = _run(capsys, "--set", "lattice.delta_target_er=1e-9", "scheme1")
    assert code == 0
    assert 0.0 < json.loads(out)["report"]["total_failure"] < 1.0


def test_cli_optimizes_lpol_wavelength_once(capsys, monkeypatch):
    import mottreg.budget as budget_mod

    original = budget_mod.optimize_lpol_wavelength
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(budget_mod, "optimize_lpol_wavelength", counted)
    optimum_nm = original(RB87)[0] * 1e9
    for command in ("lattice", "scheme1"):
        calls.clear()
        code, out = _run(capsys, "--set", "lattice.lpol_wavelength_nm=optimize", command)
        assert code == 0
        assert len(calls) == 1
    payload = json.loads(out)
    echoed = payload["config"]["lattice"]["lpol_wavelength_nm"]
    assert echoed == payload["report"]["lpol_wavelength_nm"]
    assert echoed == float(format(optimum_nm, ".12g"))


def test_cli_import_leaves_scipy_solvers_unloaded():
    # scipy is no runtime dependency, and importing any of it adds to every
    # run's start-up
    import mottreg

    code = ("import sys, mottreg.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(mottreg.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
