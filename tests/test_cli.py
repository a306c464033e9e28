"""Config loading, serialization, CLI subcommands, determinism, exit codes."""
import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mottreg import config as config_mod
from mottreg import superlattice as lattice_mod
from mottreg import transfer as transfer_mod
from mottreg.budget import run_scheme1, run_scheme2
from mottreg.cli import emit, main
from mottreg.config import (RunConfig, config_to_dict, load_config, set_by_path,
                            validate_config)
from mottreg.errors import ConfigError
from mottreg.pulse import rabi_evolve
from mottreg.speedup import DoubleGaussianPotential, gap_and_element, track_minimum
from mottreg.stark import optimize_lpol_wavelength
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


def _config_file(tmp_path, data) -> Path:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_invalid_pattern_period_rejected(tmp_path):
    path = _config_file(tmp_path, {"lattice": {"pattern_period": 2}})
    with pytest.raises(ConfigError, match="pattern_period"):
        validate_config(load_config(path))


def test_unknown_key_rejected_with_location(tmp_path):
    # keys that only ever held one value are gone, and so is the species
    # section: the atom is always Rb-87
    for data, message in [({"lattice": {"depth_typo": 50.0}}, "unknown key 'lattice.depth_typo'"),
                          ({"lettuce": {}}, "unknown section"),
                          ({"species": {"name": "Rb87"}}, "unknown section 'species'")]:
        path = _config_file(tmp_path, data)
        with pytest.raises(ConfigError) as refused:
            load_config(path)
        assert str(refused.value).startswith(f"{path}: {message}")
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
    (["sweep", "--parameter", "transfer.xi", "--values", "[" * 5000],
     "transfer.xi must be a number"),
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


# an int of more digits than the interpreter converts to text and back (4300
# by default); with no limit it parses, and is refused beyond the float range
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_HUGE_INT = "1" + "0" * ((_DIGIT_LIMIT or 4300) + 700)


@pytest.mark.parametrize("argv, message", [
    (["--set", f"lattice.total_sites={_HUGE_INT}", "scheme1"], "lattice.total_sites must be"),
    (["sweep", "--parameter", "lattice.total_sites", "--values", _HUGE_INT],
     "lattice.total_sites must be"),
    (["--config", "{path}", "scheme1"],
     "{path}: parse error" if _DIGIT_LIMIT else "lattice.total_sites must be"),
], ids=["set", "sweep", "config"])
def test_cli_int_beyond_the_digit_limit_is_a_config_error(capsys, tmp_path, argv, message):
    path = tmp_path / "huge.json"
    path.write_text(f'{{"lattice": {{"total_sites": {_HUGE_INT}}}}}', encoding="utf-8")
    argv = [a.replace("{path}", str(path)) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + message.replace("{path}", str(path)))
    assert err.count("\n") == 1
    # the value is echoed cut, and a file's refusal names the limit, not Python's remedy
    assert len(err) <= 200
    assert "set_int_max_str_digits" not in err
    if argv[0] == "--config" and _DIGIT_LIMIT:
        assert err.endswith(f"an integer has more than {_DIGIT_LIMIT} digits\n")


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


def test_check_combinations_formats_no_refusal_when_the_checks_pass(monkeypatch):
    # a sweep's later rows run little besides this check
    def refuse(value):
        raise AssertionError(f"a passing check formatted {value!r}")

    monkeypatch.setattr(config_mod, "brief", refuse)
    config_mod.check_combinations(RunConfig())


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

# the number fields that only the three cross-field checks of check_combinations
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


def _attributes_read() -> set[str]:
    """The attribute names that src/mottreg loads anywhere outside
    config's checks (check_fields, check_combinations, validate_config), which
    alone make no field do anything."""
    read = set()
    for path in Path(config_mod.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        checks = {id(node) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef)
                  and f.name in {"check_fields", "check_combinations", "validate_config"}
                  for node in ast.walk(f)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                 and id(node) not in checks}
    return read


def test_every_field_is_read_and_every_table_key_is_a_field():
    # a field that nothing reads does nothing, and a table row of a deleted
    # field would be skipped without a word
    fields = {(section, key) for section, keys in config_to_dict(RunConfig()).items()
              for key in keys}
    assert {key for _, key in fields} - _attributes_read() == set()
    paths = {f"{section}.{key}" for section, key in fields}
    assert set(config_mod._RANGES) | set(config_mod._WORDS) <= paths


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
    p1.write_text(emit(report, "json", 12), encoding="utf-8")
    p2.write_text(emit(report, "json", 12), encoding="utf-8")
    assert p1.read_bytes() == p2.read_bytes()
    parsed = json.loads(p1.read_text())
    assert parsed["a"] == float(format(1 / 3, ".12g"))
    assert parsed["c"]["d"] is True


def test_emit_csv_shape(tmp_path):
    table = {"x": [1.0, 2.0], "label": ["A", "B"]}
    path = tmp_path / "rows.csv"
    path.write_text(emit(table, "csv", 12), encoding="utf-8")
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


def test_cli_remove_underflowing_window_names_the_field(capsys):
    # 1e-320 us rounds to a window of 0 s; no config field sets the linewidth
    assert main(["--set", "removal.duration_us=1e-320", "remove"]) == 3
    err = capsys.readouterr().err
    assert "removal.duration_us" in err
    assert "linewidth" not in err


def test_cli_lattice_csv(capsys, tmp_path):
    out_csv = tmp_path / "sites.csv"
    code, _ = _run(capsys, "--out", str(out_csv), "lattice", "--sites", "6")
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "index,position_um,deltaE0_ER,deltaE1_ER,label"
    assert len(lines) == 7
    assert lines[1].endswith(",A")


def test_cli_lattice_lists_one_period_beyond_nine_sites(capsys, tmp_path):
    # without --sites the report lists 9 sites, or one pattern period if longer
    for period, rows in ((4, 9), (10, 10), (12, 12)):
        out_csv = tmp_path / f"sites_{period}.csv"
        code, _ = _run(capsys, "--set", f"lattice.pattern_period={period}",
                       "--out", str(out_csv), "lattice")
        assert code == 0
        labels = [line.rsplit(",", 1)[1] for line in out_csv.read_text().splitlines()[1:]]
        assert len(labels) == rows
        assert [j for j, label in enumerate(labels) if label == "A"] == list(range(0, rows, period))


@pytest.mark.parametrize("extra, calls", [((), 2), (("--profile-out", "profile.csv"), 3)])
def test_cli_lattice_evaluates_the_sites_once(capsys, monkeypatch, tmp_path, extra, calls):
    # one unit-intensity call and one over the sites; the profile adds its grid
    original, shapes = lattice_mod.light_shifts, []
    monkeypatch.setattr(lattice_mod, "light_shifts",
                        lambda *args: shapes.append(np.shape(args[2])) or original(*args))
    monkeypatch.setenv("MOTTREG_OUTDIR", str(tmp_path))
    code, _ = _run(capsys, "--out", "sites.csv", "lattice", "--sites", "12", *extra)
    assert code == 0
    assert shapes == [(), (12,), (601,)][:calls]


def test_cli_sweep_csv_row_count(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code, _ = _run(capsys, "--out", str(out_csv), "sweep",
                   "--parameter", "transfer.xi", "--values", "0.0025", "0.005")
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 3


@pytest.mark.parametrize("fmt, count", [(["--format", "json"], 60_001), ([], 150_001)])
def test_cli_sweep_refuses_more_values_than_report_rows(capsys, monkeypatch, fmt, count):
    # refused before any row runs, like stark-scan --points and lattice --sites
    def no_sweep(*args):
        raise AssertionError("sweep ran")

    monkeypatch.setattr("mottreg.cli.sweep", no_sweep)
    argv = [*fmt, "sweep", "--parameter", "transfer.xi", "--values", *["0.005"] * count]
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith(f"numerics error: --values = {count} exceeds")


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


@pytest.mark.parametrize("parameter, first, later", [
    ("transfer.xi", "0.005", "0.2"),
    # past lattice.total_sites = 300
    ("lattice.pattern_period", "4", "400"),
    # 787.6 nm lies within 8 nm of the D2 line
    ("lattice.band_exclusion_nm", "0.2", "8"),
])
def test_cli_sweep_later_row_gets_the_first_row_refusal(capsys, parameter, first, later):
    # a later row checks the swept field and the cross-field combinations
    # alone, and is refused as the same value is in the first row
    assert main(["sweep", "--parameter", parameter, "--values", later]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and parameter in err
    assert main(["sweep", "--parameter", parameter, "--values", first, later]) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("parameter, values", [
    ("transfer.direction", ["deepen", "shallow"]),
    ("lattice.lpol_wavelength_nm", ["optimize", 790]),
])
def test_cli_sweep_words_equal_their_set_budgets(capsys, parameter, values):
    # a bare word is a string after --values as after --set
    digits = ("--set", "output.float_digits=17", "--format", "json")
    code, out = _run(capsys, *digits, "sweep", "--parameter", parameter,
                     "--values", *map(str, values))
    assert code == 0
    rows = json.loads(out)["report"]
    assert len(rows) == len(values)
    for row, value in zip(rows, values):
        code, out = _run(capsys, *digits, "--set", f"{parameter}={value}", "scheme1")
        assert code == 0
        budget = json.loads(out)["report"]
        channels = {f"p_{c['label']}": c["p"] for step in budget["steps"]
                    for c in step["channels"]}
        assert row == {"parameter": parameter, "value": value,
                       **{key: budget[key] for key in ("total_time_us", "total_failure",
                                                       "atoms_extracted",
                                                       "extraction_fraction")},
                       **channels}


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
    assert prof.read_bytes() == emit(table, "csv", 12).encode()


@pytest.mark.parametrize("command", ["speedup", "scheme2"])
def test_cli_unconverged_move_time_is_a_numerics_error(capsys, monkeypatch, command):
    # at focus depth 300 and basis 15, 32 and 16 nodes differ by 2.9%; with
    # room for the first stack alone the doubling cannot go on
    monkeypatch.setattr("mottreg.speedup._MAX_PROFILE", 56 * (15 ** 2 + 128))
    # a profile grid of 9 points passes that guard, which speedup applies first
    assert main(["--set", "speedup.focus_depth=300", "--set", "speedup.basis_size=15",
                 "--set", "speedup.profile_points=9", command]) == 4
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


def test_cli_refuses_the_dimensions_key(capsys):
    # no detuning of a 2-D cell is modelled, so the lattice has no dimensions
    assert main(["--set", "lattice.dimensions=2", "scheme1"]) == 2
    assert "unknown key 'lattice.dimensions'" in capsys.readouterr().err


@pytest.mark.parametrize("wavelength", ["780.24", "794.98", "780.3"])
def test_cli_refuses_an_lpol_wavelength_near_a_d_line(capsys, wavelength):
    # within lattice.band_exclusion_nm of a line, the margin the optimiser
    # keeps; 780.24 * 1e-9 is one ulp off the D2 line, so no detuning vanishes
    for command in ("lattice", "scheme1"):
        assert main(["--set", f"lattice.lpol_wavelength_nm={wavelength}", command]) == 2
        assert capsys.readouterr().err.startswith("config error: lattice.lpol_wavelength_nm")


@pytest.mark.parametrize("wavelength", ["775", "800", "1064"])
@pytest.mark.parametrize("phase", ["0", "50", "212.5"])
def test_cli_refuses_an_lpol_wavelength_without_a_positive_shift(capsys, wavelength, phase):
    # outside the D2-D1 band the differential shift is negative, so the
    # brightest site would get the smallest shift; the sign is refused
    # before the sites are classified, at any phase
    assert main(["--set", f"lattice.lpol_wavelength_nm={wavelength}",
                 "--set", f"lattice.lpol_phase_nm={phase}", "scheme1"]) == 3
    assert capsys.readouterr().err.startswith(
        f"physics domain error: lattice.lpol_wavelength_nm = {wavelength} ")


def test_cli_lpol_wavelength_in_the_band_runs(capsys):
    for setting in ("lattice.lpol_wavelength_nm=787.6", "lattice.lpol_wavelength_nm=optimize"):
        assert main(["--set", setting, "scheme1"]) == 0
    # 780.3 nm lies outside a 0.01 nm margin of the D2 line
    assert main(["--set", "lattice.band_exclusion_nm=0.01",
                 "--set", "lattice.lpol_wavelength_nm=780.3", "lattice"]) == 0
    capsys.readouterr()


def test_cli_set_order_does_not_matter(capsys):
    # every --set is written before the one validation, so two overrides
    # that only hold together pass in either order
    period, sites = "lattice.pattern_period=400", "lattice.total_sites=1000"
    first = _run(capsys, "--set", period, "--set", sites, "pulse")
    assert first[0] == 0
    assert _run(capsys, "--set", sites, "--set", period, "pulse") == first
    assert main(["--set", "lattice.total_sites=2", "pulse"]) == 2
    assert capsys.readouterr().err.startswith("config error: lattice.total_sites")


# one final config by each route: a config file, --set and a flag write their
# values before the one validation, so a file value that an override mends
# runs as the same config given by --set alone
@pytest.mark.parametrize("file, routes", [
    ({"lattice": {"pattern_period": 400}},
     ["--config {file} --set lattice.total_sites=1200 scheme1",
      "--set lattice.pattern_period=400 --set lattice.total_sites=1200 scheme1"]),
    ({"transfer": {"xi": 0.5}},
     ["--config {file} transfer --xi 0.004",
      "--config {file} --set transfer.xi=0.004 transfer",
      "--set transfer.xi=0.5 transfer --xi 0.004",
      "transfer --xi 0.004"]),
])
def test_cli_config_file_is_validated_once_every_override_is_written(capsys, tmp_path, file,
                                                                     routes):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(file), encoding="utf-8")
    runs = [_run(capsys, *argv.replace("{file}", str(path)).split()) for argv in routes]
    assert runs[0][0] == 0
    assert all(run == runs[0] for run in runs)


@pytest.mark.parametrize("text, argv, message", [
    # a file value that no override mends, or a cross-field check it fails
    ('{"transfer": {"xi": 0.5}}', "--config {file} --set lattice.total_sites=1200 transfer",
     "transfer.xi must lie in"),
    ('{"lattice": {"pattern_period": 400}}', "--config {file} scheme1",
     "lattice.total_sites must cover"),
    # a file's structure is refused as it is walked, naming the file
    ("[1, 2]", "--config {file} pulse", "{file}: config root must be an object"),
    ('{"lattice": 5}', "--config {file} pulse", "{file}: section 'lattice' must be an object"),
    ('{"lettuce": {}}', "--config {file} pulse", "{file}: unknown section 'lettuce'"),
    ('{"lattice": {"depth_typo": 1}}', "--config {file} pulse",
     "{file}: unknown key 'lattice.depth_typo'"),
    ("", "--out {dir}/missing/r.json remove", "cannot write output '{dir}/missing/r.json'"),
])
def test_cli_refusal_of_a_file_names_it(capsys, tmp_path, text, argv, message):
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    fill = {"{file}": str(path), "{dir}": str(tmp_path)}
    for key, value in fill.items():
        argv, message = argv.replace(key, value), message.replace(key, value)
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + message)
    assert "Traceback" not in err


@pytest.mark.parametrize("depth", ["1e-305", "1e-307", "0"])
def test_cli_subnormal_trap_depth_scatters_no_target_photons(capsys, depth):
    # the Pade-13 exponential leaves these photon counts a few ulps below 0;
    # a zero depth needs no photon and is driven at Omega = 0
    setting = ("--set", f"removal.trap_depth_er={depth}", "--set", "output.float_digits=17")
    code, out = _run(capsys, *setting, "scheme1")
    assert code == 0
    steps = json.loads(out)["report"]["steps"]
    impact = [c["p"] for s in steps for c in s["channels"]
              if c["label"] == "removal_target_impact"]
    assert impact == [0.0]
    code, out = _run(capsys, *setting, "remove")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["n_p_A"] == 0.0
    assert report["n_p_B"] == pytest.approx(report["threshold"], rel=1e-12, abs=0.0)
    assert (report["rabi_frequency_rad_s"] == 0.0) == (depth == "0")


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


@pytest.mark.parametrize("variable", [False, True])
def test_cli_relative_out_goes_under_the_outdir_variable_or_output_directory(
        capsys, monkeypatch, tmp_path, variable):
    # $MOTTREG_OUTDIR, when set, wins over output.directory
    configured, environment = tmp_path / "configured", tmp_path / "environment"
    configured.mkdir()
    environment.mkdir()
    if variable:
        monkeypatch.setenv("MOTTREG_OUTDIR", str(environment))
    else:
        monkeypatch.delenv("MOTTREG_OUTDIR", raising=False)
    code, out = _run(capsys, "--set", f"output.directory={configured}",
                     "--out", "r.json", "remove")
    assert code == 0
    expected = (environment if variable else configured) / "r.json"
    assert json.loads(out)["out"] == str(expected)
    assert [*tmp_path.glob("*/*")] == [expected]


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
    # a sweep value is checked as the swept field
    ("transfer.xi", "sweep --parameter transfer.xi --values x"),
    # a flag that is no config field is named itself
    ("--points", "stark-scan --points 0"),
    ("--detuning-ghz", "remove --detuning-ghz nan"),
    ("--sites", "lattice --sites 2"),
    # an empty or reversed band, and values whose derived scales overflow
    ("lattice.band_exclusion_nm=-5", "stark-scan"),
    ("lattice.band_exclusion_nm=1e300", "stark-scan"),
    ("lattice.lambda_s_nm=1e-300", "scheme1"),
    ("speedup.sigma_c_um=1e300", "speedup"),
    ("transfer.waist_um=1e300", "transfer"),
    ("transfer.frequency_ratio=1e300", "transfer"),
    # an int past the float range
    ("lattice.total_sites=1" + "0" * 400, "scheme1"),
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
    # a JSON row object costs 2.6 times a CSV row, so JSON holds fewer rows
    ("--points", "--format json stark-scan --points 60001", "--points"),
    ("--sites", "--format json lattice --sites 60001", "--sites"),
    ("lattice.total_sites=100000000000000",
     "--set lattice.pattern_period=10000000000000 scheme1", "lattice.pattern_period"),
    # without --sites a report row per site of one period
    ("lattice.pattern_period=200000", "--set lattice.total_sites=300000 lattice",
     "lattice.pattern_period"),
    # the profile passes the row limit but not the profile's memory guard
    ("speedup.profile_points=20000", "--out s.json speedup --profile-out g.csv",
     "speedup.profile_points"),
    # and is refused whether or not --profile-out writes it
    ("speedup.profile_points=20000", "--out s.json speedup", "speedup.profile_points"),
])
def test_cli_unresolvable_or_oversized_run_is_a_numerics_error(capsys, setting, command, field):
    assert main((["--set", setting] if "=" in setting else []) + command.split()) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerics error: " + field)


@pytest.mark.parametrize("command, code, field", [
    ("--set lattice.lambda_s_nm=100 lattice", 3, "lattice.lambda_s_nm"),
    # the band end rounds onto the D2 line
    ("--set lattice.band_exclusion_nm=1e-300 stark-scan", 2, "lattice.band_exclusion_nm"),
    ("--set pulse.cutoff=1e-300 pulse", 3, "pulse.cutoff"),
    ("pulse --tf 60", 4, "pulse.cutoff"),
    ("--set speedup.focus_depth=0 speedup", 3, "speedup.focus_depth"),
    ("--set speedup.focus_waist_ratio=0.001 speedup", 4, "speedup.focus_waist_ratio"),
    # the A-site shift is lost in the rounding of the site depth, or underflows
    ("--set lattice.delta_target_er=1e-15 scheme1", 3, "lattice.delta_target_er"),
    ("--set lattice.delta_target_er=1e-40 scheme1", 3, "lattice.delta_target_er"),
    ("--set lattice.delta_target_er=1e-300 scheme1", 3, "lattice.delta_target_er"),
    ("--set lattice.delta_target_er=5e-324 scheme1", 3, "lattice.delta_target_er"),
    ("--set lattice.depth_er=1e20 scheme1", 3, "lattice.depth_er"),
    # 21 sites lie within 1e-9 of the envelope's peak
    ("--set lattice.pattern_period=1000000 --set lattice.total_sites=1000000 scheme1", 3,
     "lattice.pattern_period"),
    # the smallest subnormal underflows or overflows a derived scale; the
    # resolved echo of a JSON report expands the pulse rules
    ("--format json --set lattice.delta_target_er=5e-324 stark-scan", 2,
     "lattice.delta_target_er"),
    ("--format json --set pulse.omega0_er=5e-324 stark-scan", 2, "pulse.omega0_er"),
    ("--set removal.duration_us=5e-324 remove", 3, "removal.duration_us"),
    ("--set removal.excited_population_cap=5e-324 remove", 3,
     "removal.excited_population_cap"),
    ("--set removal.tunneling_time_ms=5e-324 scheme1", 3, "removal.tunneling_time_ms"),
    ("--set transfer.xi=5e-324 transfer", 3, "transfer.xi"),
    ("--set speedup.target_excitation=5e-324 speedup", 3, "speedup.target_excitation"),
    # a removal window of Gamma T past half the float range overflows the count
    ("--set removal.duration_us=1e308 remove", 3, "removal.duration_us"),
    ("--set removal.duration_us=1e308 scheme1", 3, "removal.duration_us"),
    ("--set removal.trap_depth_er=1e308 remove", 3, "removal.trap_depth_er"),
    ("--set removal.trap_depth_er=1e308 scheme1", 3, "removal.trap_depth_er"),
    # or whose product with the detuning overflows the off-resonant count
    ("--set removal.duration_us=1e305 remove", 3, "removal.duration_us"),
    ("--set removal.duration_us=1e300 remove --detuning-ghz 300000", 3, "removal.duration_us"),
    ("--set removal.trap_depth_er=1e307 scheme1", 3, "removal.trap_depth_er"),
    # the Magnus step count is set by the detuning phase 2 |d| s_f, here with
    # the detuning of the rule "delta", or by the cutoff s_f = omega0 t_f
    ("pulse --omega0 1e-300", 4, "lattice.delta_target_er"),
    ("pulse --detuning 1e9", 4, "pulse.detuning_er"),
    ("pulse --tf 1e5", 4, "pulse.cutoff"),
    # an override without a value
    ("--set lattice.depth_er scheme1", 2, "override 'lattice.depth_er' must look like KEY=VALUE"),
])
def test_cli_refusal_names_the_field(capsys, command, code, field):
    assert main(command.split()) == code
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


def test_cli_refuses_a_non_finite_report_value(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("mottreg.pulse.rabi_evolve", lambda pulse, **kw: dataclasses.replace(
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
    st.sampled_from([0, -1, 1e-300, 5e-324, -1e-300, 1e300, -1e300, 1e308, -1e308,
                     sys.float_info.max, -sys.float_info.max, 10 ** 20, 2 ** 70]),
    st.integers(-10 ** 30, 10 ** 30), st.floats(-1e300, 1e300))


def _no_constant(name):
    raise ValueError(f"{name} in JSON output")


@pytest.mark.filterwarnings("default:lattice depth below:UserWarning")
def test_cli_shallow_lattice_warning_is_one_line_naming_the_field(capsys):
    assert main(["transfer", "--depth", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ("warning: lattice depth below the tight-binding regime: "
                            "lattice.depth_er = 3.0 < 5 leaves J = bandwidth/4 unreliable\n")
    assert json.loads(captured.out)["config"]["lattice"]["depth_er"] == 3.0


# a depth below the tight-binding regime warns by design; any other warning
# stays an error
@pytest.mark.filterwarnings("default:lattice depth below:UserWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(field=st.sampled_from(NUMBER_FIELDS), value=FUZZ_VALUES,
       command=st.sampled_from(FUZZ_COMMANDS))
def test_cli_fuzz_number_fields(field, value, command):
    _assert_runs_or_exits_cleanly([(field[0], value)], command, named=True)


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


CONFIG_PATHS = [f"{section}.{key}" for section, keys in config_to_dict(RunConfig()).items()
                for key in keys]


def _assert_runs_or_exits_cleanly(overrides, command, named=False):
    """The run exits 0 with finite JSON, or 2, 3 or 4 without a traceback;
    when `named`, a refusal names a dotted config path or a -- flag."""
    out, err = io.StringIO(), io.StringIO()
    argv = [a for path, value in overrides for a in ("--set", f"{path}={json.dumps(value)}")]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", "json", *argv, *command.split()])
    assert code in (0, 2, 3, 4)
    message = err.getvalue()
    assert "Traceback" not in message
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_no_constant)
    elif named:
        assert "--" in message or any(path in message for path in CONFIG_PATHS), message


# the removal window past the float range, which the fuzz draws above do not
# pair with the commands that solve the removing drive
@pytest.mark.parametrize("field", ["removal.duration_us", "removal.trap_depth_er"])
@pytest.mark.parametrize("value", [1e308, -1e308, sys.float_info.max, -sys.float_info.max])
@pytest.mark.parametrize("command", ["remove", "scheme1", FUZZ_COMMANDS[-1]])
def test_cli_removal_window_extremes_exit_cleanly(field, value, command):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--format", "json", "--set", f"{field}={json.dumps(value)}",
                     *command.split()])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code:
        assert field in err.getvalue()


def test_cli_scattering_probability_is_clamped_where_it_is_formed(capsys):
    # the move's rate x time scattering passes 1 here; the speedup report, the
    # scheme-2 extra and the scheme-2 channel all carry the clamped value
    overrides = ["--set", "speedup.target_excitation=1e-7"]
    assert main(overrides + ["speedup"]) == 0
    speedup = json.loads(capsys.readouterr().out)["report"]
    assert main(overrides + ["scheme2"]) == 0
    scheme2 = json.loads(capsys.readouterr().out)["report"]
    channels = dict((c["label"], c["p"]) for c in scheme2["steps"][2]["channels"])
    assert speedup["P_scatter"] == scheme2["p_scatter"] == channels["move_scattering"] == 1.0


@pytest.mark.parametrize("argv", [
    # a full flip, and a far-detuned stay at (d, s_f) = (5000, 5)
    ["--set", "pulse.omega0_er=1e30", "--set", "pulse.cutoff=5.8e-30", "pulse"],
    ["pulse", "--detuning", "65000"],
])
def test_cli_pulse_probabilities_are_at_most_one(capsys, argv):
    # their Richardson values pass 1 by an ulp, which rabi_evolve clamps
    code, out = _run(capsys, "--set", "output.float_digits=17", *argv)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["p_flip"] <= 1.0 and report["p_stay"] <= 1.0
    assert max(report["p_flip"], report["p_stay"]) == 1.0


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


def test_cli_echoes_the_optimized_lpol_wavelength(capsys):
    optimum_nm = optimize_lpol_wavelength(RB87, 0.2e-9)[0] * 1e9
    for command in ("lattice", "scheme1"):
        code, out = _run(capsys, "--set", "lattice.lpol_wavelength_nm=optimize", command)
        assert code == 0
    payload = json.loads(out)
    echoed = payload["config"]["lattice"]["lpol_wavelength_nm"]
    assert echoed == payload["report"]["lpol_wavelength_nm"]
    assert echoed == float(format(optimum_nm, ".12g"))


def _readme_examples() -> list[tuple[str, str]]:
    """(command, comment) of each `mottreg` line in the README's CLI block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [tuple(part.strip() for part in (line + "#").split("#")[:2])
            for line in block.splitlines() if line.startswith("mottreg ")]


@pytest.mark.parametrize("command, comment", _readme_examples())
def test_cli_readme_examples_run(capsys, monkeypatch, tmp_path, command, comment):
    # a comment of comma-separated names lists the report's keys, in order
    monkeypatch.setenv("MOTTREG_OUTDIR", str(tmp_path))
    argv = shlex.split(command)[1:]
    code, out = _run(capsys, *argv)
    assert code == 0
    names = comment.strip("{}").split(", ")
    if len(names) > 1 and all(name.isidentifier() for name in names):
        if "--out" in argv:
            text = (tmp_path / argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
            keys = text.splitlines()[0].split(",")
        else:
            keys = list(json.loads(out)["report"])
        assert keys == names


# the modules of mottreg that `import mottreg.cli` loads; each subcommand
# adds the physics modules it runs
_CLI_IMPORT = {"mottreg", "mottreg.budget", "mottreg.cli", "mottreg.config", "mottreg.errors",
               "mottreg.units"}


@pytest.mark.parametrize("command, physics, polynomial", [
    ("", set(), False),
    ("stark-scan", {"stark"}, False),
    ("pulse", {"pulse"}, False),
    ("remove", {"removal", "numerics"}, False),
    ("transfer", {"transfer"}, False),
    ("speedup", {"speedup"}, True),
    ("scheme1", {"stark", "superlattice", "transfer", "pulse", "removal", "numerics"}, False),
], ids=["import", "stark-scan", "pulse", "remove", "transfer", "speedup", "scheme1"])
def test_cli_subcommand_imports_only_the_modules_it_runs(tmp_path, command, physics, polynomial):
    # every module a run imports adds to its start-up; scipy is no runtime
    # dependency, and numpy.polynomial serves only the Gauss-Hermite and
    # Gauss-Legendre tables of speedup and the LPOL optimum
    import mottreg

    code = ("import json, sys, mottreg.cli\n"
            "if sys.argv[1:]:\n"
            "    assert mottreg.cli.main(sys.argv[1:]) == 0\n"
            "print(json.dumps(sorted(sys.modules)))")
    argv = ["--out", str(tmp_path / "report"), command] if command else []
    env = {**os.environ, "PYTHONPATH": str(Path(mottreg.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code, *argv], check=True, env=env,
                         capture_output=True, text=True).stdout
    loaded = json.loads(out.splitlines()[-1])
    assert {m for m in loaded if m.split(".")[0] == "mottreg"} == (
        _CLI_IMPORT | {f"mottreg.{name}" for name in physics})
    # importing any part of numpy.polynomial loads all of its bases
    bases = {m for m in loaded if m.startswith("numpy.polynomial")}
    if polynomial:
        assert bases >= {"numpy.polynomial.hermite", "numpy.polynomial.legendre"}
    else:
        assert bases == set()
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
