"""Command-line front end: one subcommand per reported quantity, one config
file plus --set overrides, deterministic JSON/CSV emission.  A subcommand
flag that names a quantity is an alias of its config field, applied after
every --set, so the flag wins.

The primary artifact goes to --out (relative paths under $MOTTREG_OUTDIR),
and stdout then carries a JSON envelope of the resolved config and the path;
without --out, a JSON report is printed in that envelope and a CSV report
bare.  Every output is formatted and checked before any file is written.
Exit codes: 0 ok, 2 config error, 3 physics domain error, 4 numerics error.

Importing this module loads config, budget, errors and units alone; each
handler imports the physics module it reports on, and budget's builders
import theirs, so a subcommand loads only the modules it runs.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .budget import (lattice_recoil, moving_focus, patterned_lattice, pi_pulse, removal_drive,
                     resolved_config_echo, run_scheme1, run_scheme2, sweep, transfer_ramp)
from .config import RunConfig, brief, load_config, parse_value, set_field, validate_config
from .errors import ConfigError, NumericsError, PhysicsDomainError
from .units import HBAR, RB87

__all__ = ["main"]

# a report row costs about 700 bytes on its way out as CSV and 1.8 kB as a
# JSON object (tracemalloc peaks of stark-scan --points 20000 at 17 digits),
# so a report holds at most the ~110 MB the pi pulse and the moving-focus
# profile may hold
_MAX_ROWS = {"csv": 150_000, "json": 60_000}


def _finite(value, key: str):
    if not math.isfinite(value):
        raise NumericsError(f"report value '{key}' is {value}, not a finite number")
    return value


def _plain(obj, digits: int, key: str = "report"):
    """obj as JSON data with every float at `digits` significant digits; a
    NaN or infinity is refused, naming its key."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(format(float(_finite(obj, key)), f".{digits}g"))
    if isinstance(obj, dict):
        return {k: _plain(v, digits, k) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v, digits, key) for v in obj]
    return obj


def _json_text(report, digits: int) -> str:
    return json.dumps(_plain(report, digits), indent=2) + "\n"


def _csv_text(table, digits: int) -> str:
    """CSV of a table, a dict of name -> column: bools as true/false, floats
    at `digits` significant digits, any other cell (ints too) by str; a NaN
    or infinity, or a nested value, is refused, naming its column."""
    fmt = f"%.{digits}g"

    def cell(value, name):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (float, np.floating)):
            return fmt % _finite(value, name)
        if isinstance(value, (dict, list, tuple)):
            raise ConfigError(f"--format csv cannot hold the nested report value '{name}'")
        return str(value)

    columns = [[cell(v, name) for v in (c.tolist() if isinstance(c, np.ndarray) else c)]
               for name, c in table.items()]
    return "\n".join([",".join(table), *map(",".join, zip(*columns))]) + "\n"


def _write(path, text: str):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write output '{path}': {exc}") from exc


def emit(report, fmt: str, digits: int) -> str:
    """Serialize a report deterministically: a dict or list as JSON, or a
    table (name -> column) as CSV.  Floats carry `digits` significant digits,
    so identical reports give byte-identical text."""
    return _json_text(report, digits) if fmt == "json" else _csv_text(report, digits)


def _resolve_out(cfg: RunConfig, out):
    """out, when relative, under $MOTTREG_OUTDIR or else output.directory."""
    if out is None:
        return None
    out = Path(out)
    if not out.is_absolute():
        base = os.environ.get("MOTTREG_OUTDIR", cfg.output.directory)
        out = Path(base) / out
    return out


def _deliver(args, cfg: RunConfig, report, default_fmt: str, side_files=()):
    """Format the side tables (path, table), the primary artifact and the
    stdout text, then write them.  report is a table (name -> column) when
    default_fmt is csv and a dict when it is json; in the other format a
    table is one JSON object per row and a dict is one CSV row."""
    digits = cfg.output.float_digits
    fmt = args.format or default_fmt
    if fmt == "json" and default_fmt == "csv":
        report = [dict(zip(report, row)) for row in zip(*report.values())]
    elif fmt == "csv" and default_fmt == "json":
        report = {key: (value,) for key, value in report.items()}
    files = [(_resolve_out(cfg, path), _csv_text(table, digits)) for path, table in side_files]
    out = _resolve_out(cfg, args.out)
    if out is not None:
        files.append((out, emit(report, fmt, digits)))
        stdout = _json_text({"config": resolved_config_echo(cfg), "out": str(out)}, digits)
    elif fmt == "json":
        stdout = _json_text({"config": resolved_config_echo(cfg), "report": report}, digits)
    else:
        stdout = _csv_text(report, digits)
    for path, text in files:
        _write(path, text)
    sys.stdout.write(stdout)


def _require_rows(flag: str, rows: int, fmt: str):
    if rows > _MAX_ROWS[fmt]:
        raise NumericsError(f"{flag} = {rows} exceeds {_MAX_ROWS[fmt]} report rows "
                            f"as {fmt} (about 110 MB)")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_stark_scan(args, cfg: RunConfig):
    from .stark import default_search_band, wavelength_scan
    if args.points < 1:
        raise ConfigError(f"--points must be >= 1, got {args.points}")
    _require_rows("--points", args.points, args.format or "csv")
    band = default_search_band(RB87, cfg.lattice.band_exclusion_nm * 1e-9)
    _deliver(args, cfg, wavelength_scan(band, args.points, lattice_recoil(cfg)), "csv")


def _cmd_lattice(args, cfg: RunConfig):
    from . import superlattice as lattice_mod
    period = cfg.lattice.pattern_period
    n_sites = max(9, period) if args.sites is None else args.sites
    if n_sites < period:
        raise ConfigError(f"--sites must be >= {period} (one pattern period), "
                          f"got {n_sites}")
    _require_rows("lattice.pattern_period" if args.sites is None else "--sites", n_sites,
                  args.format or "csv")
    config = patterned_lattice(cfg)
    sites = lattice_mod.site_hyperfine_detunings(config, cfg.lattice.delta_target_er, n_sites)
    table = {"index": range(n_sites), "position_um": np.multiply(sites.site_positions, 1e6),
             "deltaE0_ER": sites.delta_e0, "deltaE1_ER": sites.delta_e1, "label": sites.labels}
    side = []
    if args.profile_out:
        xs = np.linspace(0.0, sites.site_positions[-1], 601)
        vs = cfg.lattice.depth_er * np.sin(2 * np.pi * xs / config.spol_wavelength) ** 2
        e0, e1, _, _ = lattice_mod.lpol_light_shifts(config, sites.intensity, xs)
        side.append((args.profile_out, {"x_um": xs * 1e6, "v0_er": vs + e0, "v1_er": vs + e1}))
    _deliver(args, cfg, table, "csv", side_files=side)


def _cmd_pulse(args, cfg: RunConfig):
    from .pulse import rabi_evolve
    pulse, omega0, t_f, detuning = pi_pulse(cfg)
    outcome = rabi_evolve(pulse, trajectory=bool(args.trajectory_out))
    report = {"omega0": omega0, "t_f": t_f, "Omega0": omega0 * pulse.peak_rabi,
              "detuning": detuning, "p_flip": outcome.p_flip,
              "p_stay": outcome.p_stay,
              "pulse_duration_us": 2 * t_f * (HBAR / lattice_recoil(cfg)) * 1e6}
    side = []
    if args.trajectory_out:
        c0, c1 = outcome.states[:, 0], outcome.states[:, 1]
        # the pulse runs in s = omega0 t; the table's t is in hbar/E_R
        side.append((args.trajectory_out,
                     {"t": outcome.times / omega0, "re_c0": c0.real, "im_c0": c0.imag,
                      "re_c1": c1.real, "im_c1": c1.imag}))
    _deliver(args, cfg, report, "json", side_files=side)


def _cmd_remove(args, cfg: RunConfig):
    from . import removal as removal_mod
    detuning = (2 * np.pi * args.detuning_ghz * 1e9 if args.detuning_ghz is not None
                else RB87.hyperfine_splitting)
    # the rotating-wave model of the drive ends near the optical frequency
    if not abs(detuning) <= RB87.d2_angular_frequency:
        raise ConfigError(f"--detuning-ghz must lie within the D2 optical frequency, "
                          f"{RB87.d2_angular_frequency / (2e9 * np.pi):.6g} GHz, "
                          f"got {args.detuning_ghz}")
    plan = removal_drive(cfg)
    report = {"n_p_B": removal_mod.resonant_photon_count(plan.rabi_frequency, plan.duration),
              "n_p_A": removal_mod.photon_count(plan.rabi_frequency, detuning, plan.duration),
              "threshold": plan.threshold,
              "feasible": plan.feasible_at_request,
              "duration_used": plan.duration,
              "rabi_frequency_rad_s": plan.rabi_frequency}
    _deliver(args, cfg, report, "json")


def _cmd_transfer(args, cfg: RunConfig):
    from . import transfer as transfer_mod
    e_r = lattice_recoil(cfg)
    ramp = transfer_ramp(cfg)
    result = transfer_mod.excitation_numeric(ramp)
    matched = transfer_mod.matched_microtrap_depth(
        cfg.lattice.depth_er, cfg.transfer.waist_um * 1e-6,
        cfg.lattice.lambda_s_nm * 1e-9)
    report = {"T_us": ramp.duration * (HBAR / e_r) * 1e6,
              "max_Pe_analytic": transfer_mod.max_excitation_analytic(ramp),
              "max_Pe_numeric": result.max_excitation,
              "gap": result.analytic_numeric_gap,
              "matched_microtrap_depth_er": matched,
              "matched_microtrap_depth_uK":
                  transfer_mod.microtrap_depth_kelvin(matched, e_r) * 1e6,
              "hopping_time_s": transfer_mod.hopping_time(cfg.lattice.depth_er) * (HBAR / e_r)}
    side = []
    if args.trajectory_out:
        side.append((args.trajectory_out,
                     {"t": result.times,
                      "omega": transfer_mod.ramp_schedule(ramp, result.times),
                      "Pe_analytic": result.excitation_analytic,
                      "Pe_numeric": result.excitation_numeric}))
    _deliver(args, cfg, report, "json", side_files=side)


def _cmd_speedup(args, cfg: RunConfig):
    from . import speedup as speedup_mod
    spd = cfg.speedup
    # the profile grid is refused whether or not --profile-out writes it
    speedup_mod.require_profile(spd.profile_points, spd.basis_size)
    move = moving_focus(cfg)
    report = {"T_ms": move.move_time * 1e3, "P_exc": move.p_exc,
              "P_scatter": move.p_scatter, "xi_bar_used": move.xi_bar,
              "yield_5_cycles": speedup_mod.cycle_yield(5, spd.per_cycle_fraction)}
    side = []
    if args.profile_out:
        grid = np.linspace(0.0, spd.final_displacement_sigma, spd.profile_points)
        y_min, gap, element = speedup_mod.path_profile(move.potential, grid, spd.basis_size)
        side.append((args.profile_out,
                     {"a": grid, "y_min": y_min, "gap": gap, "element": element}))
    if args.potential_out:
        ys = np.linspace(-2.0, 3.5, 551)
        curves = {f"v_a_{a}".replace(".", "p"): move.potential.at(a).value(ys)
                  for a in (0.2, 0.8, 1.5)}
        side.append((args.potential_out, {"y": ys, **curves}))
    _deliver(args, cfg, report, "json", side_files=side)


def _cmd_scheme(args, cfg: RunConfig):
    _deliver(args, cfg, args.budget(cfg).to_dict(), "json")


def _cmd_sweep(args, cfg: RunConfig):
    _require_rows("--values", len(args.values), args.format or "csv")
    # a value is parsed as after --set, so a bare word is a string
    rows = sweep(cfg, args.parameter, [parse_value(value) for value in args.values])
    _deliver(args, cfg, {key: [row[key] for row in rows] for key in rows[0]}, "csv")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _alias(parser, flag: str, path: str, meaning: str, kind=float):
    """A subcommand flag that writes the config field at path; its dest is
    the path, which is how main tells it from the flags that are no field."""
    parser.add_argument(flag, dest=path, type=kind, metavar=flag[2:].upper(),
                        help=f"{meaning}; alias of {path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mottreg",
        description="Simulator and error budget for initialising a neutral-atom "
                    "register by extraction from a lattice into microtraps.")
    parser.add_argument("--config", help="JSON config file (empty = defaults)")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config value, e.g. transfer.xi=0.0025")
    parser.add_argument("--out", help="primary output path")
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stark-scan", help="shift/rate/eta scan across the band")
    p.add_argument("--points", type=int, default=501)
    p.set_defaults(handler=_cmd_stark_scan)

    p = sub.add_parser("lattice", help="per-site shifts and A/B labels")
    p.add_argument("--sites", type=int, help="default 9, or one pattern period if longer")
    p.add_argument("--profile-out", help="potential-profile CSV path")
    p.set_defaults(handler=_cmd_lattice)

    p = sub.add_parser("pulse", help="microwave pi-pulse flip probabilities")
    _alias(p, "--omega0", "pulse.omega0_er", "envelope width, E_R/hbar")
    _alias(p, "--tf", "pulse.cutoff", "cutoff time, hbar/E_R")
    _alias(p, "--detuning", "pulse.detuning_er", "detuning, E_R/hbar")
    p.add_argument("--trajectory-out", help="amplitude trajectory CSV path")
    p.set_defaults(handler=_cmd_pulse)

    p = sub.add_parser("remove", help="removing-laser photon counts")
    _alias(p, "--trap-depth", "removal.trap_depth_er", "trap depth, E_R")
    _alias(p, "--duration", "removal.duration_us", "requested window, us")
    p.add_argument("--detuning-ghz", type=float,
                   help="target-atom detuning over 2 pi, GHz")
    p.set_defaults(handler=_cmd_remove)

    p = sub.add_parser("transfer", help="lattice-to-microtrap adiabatic ramp")
    _alias(p, "--xi", "transfer.xi", "adiabaticity")
    _alias(p, "--ratio", "transfer.frequency_ratio", "final/initial frequency ratio")
    _alias(p, "--direction", "transfer.direction", "deepen or shallow", kind=str)
    _alias(p, "--depth", "lattice.depth_er", "lattice depth, E_R")
    p.add_argument("--trajectory-out", help="ramp trajectory CSV path")
    p.set_defaults(handler=_cmd_transfer)

    p = sub.add_parser("speedup", help="moving-focus extraction estimates")
    p.add_argument("--profile-out", help="gap/element profile CSV path")
    p.add_argument("--potential-out", help="potential curves CSV path")
    p.set_defaults(handler=_cmd_speedup)

    p = sub.add_parser("scheme1", help="full four-step budget")
    p.set_defaults(handler=_cmd_scheme, budget=run_scheme1)

    p = sub.add_parser("scheme2", help="cyclic speedup budget")
    p.set_defaults(handler=_cmd_scheme, budget=run_scheme2)

    p = sub.add_parser("sweep", help="scheme-1 budgets over a parameter grid")
    p.add_argument("--parameter", required=True, metavar="SECTION.KEY")
    p.add_argument("--values", nargs="+", required=True)
    p.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        # every --set, then every flag, is written before the one validation,
        # so the order of the overrides does not matter
        for override in args.set or []:
            key, sep, value = override.partition("=")
            if not sep:
                raise ConfigError(f"override {brief(override)} must look like KEY=VALUE")
            set_field(cfg, key, parse_value(value))
        for path, value in vars(args).items():
            if "." in path and value is not None:
                set_field(cfg, path, value)
        validate_config(cfg)
        with warnings.catch_warnings(record=True) as caught:
            args.handler(args, cfg)
        sys.stderr.writelines(f"warning: {w.message}\n" for w in caught)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PhysicsDomainError as exc:
        print(f"physics domain error: {exc}", file=sys.stderr)
        return 3
    except NumericsError as exc:
        print(f"numerics error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
