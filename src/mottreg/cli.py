"""Command-line front end: one subcommand per reported quantity, one config
file plus --set overrides, deterministic JSON/CSV emission.  A subcommand
flag that names a quantity is an alias of its config field, applied after
every --set, so the flag wins.

Every run prints a JSON envelope with the fully resolved configuration; the
primary artifact goes to --out (resolved against $MOTTREG_OUTDIR for
relative paths) or to stdout.  Exit codes: 0 ok, 2 config error, 3 physics
domain error, 4 numerics error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import removal as removal_mod
from . import speedup as speedup_mod
from . import superlattice as lattice_mod
from . import transfer as transfer_mod
from .budget import (moving_focus, patterned_lattice, pi_pulse, removal_drive,
                     removal_photons, resolve_lpol_wavelength, resolved_config_echo,
                     run_scheme1, run_scheme2, species_and_units, sweep, transfer_ramp)
from .config import RunConfig, load_config, set_by_path, set_field, validate_config
from .errors import ConfigError, NumericsError, PhysicsDomainError
from .pulse import rabi_evolve
from .stark import default_search_band, wavelength_scan

__all__ = ["main"]

# a report row costs about 700 bytes on its way out (floats, row dicts, text),
# so a report holds at most the ~110 MB the pi pulse and the moving-focus
# profile may hold
_MAX_ROWS = 150_000


def _fmt_float(value: float, digits: int) -> float:
    return float(format(float(value), f".{digits}g"))


def _round_floats(obj, digits: int):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj, digits)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _json_text(report, digits: int) -> str:
    return json.dumps(_round_floats(report, digits), indent=2) + "\n"


def _csv_text(rows, digits: int) -> str:
    if isinstance(rows, dict):
        rows = [rows]
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for key in header:
            value = row[key]
            if isinstance(value, bool):
                cells.append(str(value).lower())
            elif isinstance(value, (float, np.floating)):
                cells.append(format(float(value), f".{digits}g"))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def emit(report, fmt: str, path, digits: int = 12) -> str:
    """Serialize a report (dict or list of dicts) deterministically.

    Returns the text; writes it to path when given.  Floats carry `digits`
    significant digits, so identical reports give byte-identical files.
    """
    text = _json_text(report, digits) if fmt == "json" else _csv_text(report, digits)
    if path is not None:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write output '{path}': {exc}") from exc
    return text


def _resolve_out(args, cfg: RunConfig, name: str | None = None):
    out = name if name is not None else args.out
    if out is None:
        return None
    out = Path(out)
    if not out.is_absolute():
        base = os.environ.get("MOTTREG_OUTDIR", cfg.output.directory)
        out = Path(base) / out
    return out


def _require_finite(report, key: str = "report"):
    """Refuse a report that holds NaN or infinity, naming the value's key."""
    if isinstance(report, dict):
        for k, value in report.items():
            _require_finite(value, k)
    elif isinstance(report, (list, tuple)):
        for value in report:
            _require_finite(value, key)
    elif isinstance(report, (float, np.floating)) and not math.isfinite(report):
        raise NumericsError(f"report value '{key}' is {report}, not a finite number")


def _deliver(args, cfg: RunConfig, report, default_fmt: str, side_files=()):
    """Write the primary artifact and print the envelope with the resolved
    config; report may be a dict (json) or rows (csv).  Nothing is written
    when a value is not finite."""
    _require_finite([report, *(rows for _, rows in side_files)])
    digits = cfg.output.float_digits
    fmt = args.format or default_fmt
    out = _resolve_out(args, cfg)
    for side_path, side_rows in side_files:
        emit(side_rows, "csv", side_path, digits)
    if out is not None:
        emit(report, fmt, out, digits)
        envelope = {"config": resolved_config_echo(cfg), "out": str(out)}
        sys.stdout.write(_json_text(envelope, digits))
    elif fmt == "json":
        envelope = {"config": resolved_config_echo(cfg), "report": report}
        sys.stdout.write(_json_text(envelope, digits))
    else:
        sys.stdout.write(_csv_text(report, digits))


def _require_rows(flag: str, rows: int):
    if rows > _MAX_ROWS:
        raise NumericsError(f"{flag} = {rows} exceeds {_MAX_ROWS} report rows "
                            "(about 110 MB)")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_stark_scan(args, cfg: RunConfig):
    if args.points < 1:
        raise ConfigError(f"--points must be >= 1, got {args.points}")
    _require_rows("--points", args.points)
    species, units = species_and_units(cfg)
    band = default_search_band(species, cfg.lattice.band_exclusion_nm * 1e-9)
    columns = wavelength_scan(species, band, args.points, units.base_energy)
    _deliver(args, cfg, [dict(zip(columns, row)) for row in zip(*columns.values())], "csv")


def _cmd_lattice(args, cfg: RunConfig):
    period = cfg.lattice.pattern_period
    if args.sites < period:
        raise ConfigError(f"--sites must be >= {period} (one pattern period), "
                          f"got {args.sites}")
    _require_rows("--sites", args.sites)
    cfg = resolve_lpol_wavelength(cfg)
    species, _ = species_and_units(cfg)
    config = patterned_lattice(cfg, species)
    sites = lattice_mod.site_hyperfine_detunings(config, species, n_sites=args.sites)
    rows = [{"index": j,
             "position_um": sites.pattern.site_positions[j] * 1e6,
             "deltaE0_ER": sites.delta_e0[j],
             "deltaE1_ER": sites.delta_e1[j],
             "label": sites.pattern.labels[j]}
            for j in range(len(sites.pattern.labels))]

    side = []
    if args.profile_out:
        lam_s = config.spol_wavelength
        span = sites.pattern.site_positions[-1]
        xs = np.linspace(0.0, span if span > 0 else lam_s, 601)
        shift0 = sites.delta_e0[0]
        shift1 = sites.delta_e1[0]
        envelope = lattice_mod.intensity_envelope(config, xs)
        vs = cfg.lattice.depth_er * np.sin(2 * np.pi * xs / lam_s) ** 2
        profile = [{"x_um": x * 1e6,
                    "v0_er": float(v + shift0 * e),
                    "v1_er": float(v + shift1 * e)}
                   for x, v, e in zip(xs, vs, envelope)]
        side.append((_resolve_out(args, cfg, args.profile_out), profile))
    _deliver(args, cfg, rows, "csv", side_files=side)


def _cmd_pulse(args, cfg: RunConfig):
    _, units = species_and_units(cfg)
    pulse = pi_pulse(cfg)
    t_f = pulse.cutoff
    outcome = rabi_evolve(pulse, trajectory=bool(args.trajectory_out))
    report = {"omega0": pulse.envelope_width, "t_f": t_f, "Omega0": pulse.peak_rabi,
              "detuning": pulse.detuning, "p_flip": outcome.p_flip,
              "p_stay": outcome.p_stay,
              "pulse_duration_us": units.time_from_natural(2 * t_f) * 1e6}
    side = []
    if args.trajectory_out:
        rows = [{"t": float(t),
                 "re_c0": float(a[0].real), "im_c0": float(a[0].imag),
                 "re_c1": float(a[1].real), "im_c1": float(a[1].imag)}
                for t, a in zip(outcome.times, outcome.states)]
        side.append((_resolve_out(args, cfg, args.trajectory_out), rows))
    _deliver(args, cfg, report, "json", side_files=side)


def _cmd_remove(args, cfg: RunConfig):
    species, _ = species_and_units(cfg)
    detuning = (2 * np.pi * args.detuning_ghz * 1e9 if args.detuning_ghz is not None
                else species.hyperfine_splitting)
    # the rotating-wave model of the drive ends near the optical frequency
    if not abs(detuning) <= species.d2_angular_frequency:
        raise ConfigError(f"--detuning-ghz must lie within the D2 optical frequency, "
                          f"{species.d2_angular_frequency / (2e9 * np.pi):.6g} GHz, "
                          f"got {args.detuning_ghz}")
    plan = removal_drive(cfg, species)
    report = {"n_p_B": removal_mod.resonant_photon_count(species.gamma2, plan.rabi_frequency,
                                                         plan.duration),
              "n_p_A": removal_photons(species, plan, detuning),
              "threshold": plan.threshold,
              "feasible": plan.feasible_at_request,
              "duration_used": plan.duration,
              "rabi_frequency_rad_s": plan.rabi_frequency}
    _deliver(args, cfg, report, "json")


def _cmd_transfer(args, cfg: RunConfig):
    _, units = species_and_units(cfg)
    ramp = transfer_ramp(cfg)
    result = transfer_mod.excitation_numeric(ramp)
    matched = transfer_mod.matched_microtrap_depth(
        cfg.lattice.depth_er, cfg.transfer.waist_um * 1e-6,
        cfg.lattice.lambda_s_nm * 1e-9)
    report = {"T_us": units.time_from_natural(ramp.duration) * 1e6,
              "max_Pe_analytic": transfer_mod.max_excitation_analytic(ramp),
              "max_Pe_numeric": result.max_excitation,
              "gap": result.analytic_numeric_gap,
              "matched_microtrap_depth_er": matched,
              "matched_microtrap_depth_uK":
                  transfer_mod.microtrap_depth_kelvin(matched, units) * 1e6,
              "hopping_time_s":
                  units.time_from_natural(transfer_mod.hopping_time(cfg.lattice.depth_er))}
    side = []
    if args.trajectory_out:
        omegas = transfer_mod.ramp_schedule(ramp, result.times)
        rows = [{"t": float(t), "omega": float(w),
                 "Pe_analytic": float(pa), "Pe_numeric": float(pn)}
                for t, w, pa, pn in zip(result.times, omegas, result.excitation_analytic,
                                        result.excitation_numeric)]
        side.append((_resolve_out(args, cfg, args.trajectory_out), rows))
    _deliver(args, cfg, report, "json", side_files=side)


def _cmd_speedup(args, cfg: RunConfig):
    species, _ = species_and_units(cfg)
    move = moving_focus(cfg, species)
    schedule = move.schedule
    report = {"T_ms": move.move_time * 1e3, "P_exc": move.p_exc,
              "P_scatter": move.p_scatter, "xi_bar_used": schedule.adiabaticity,
              "yield_5_cycles": speedup_mod.cycle_yield(5, cfg.speedup.per_cycle_fraction)}
    side = []
    if args.profile_out:
        rows = [{"a": float(a), "y_min": float(y), "gap": float(g),
                 "element": float(m)}
                for a, y, g, m in zip(schedule.displacements, schedule.minima,
                                      schedule.gap_profile,
                                      schedule.element_profile)]
        side.append((_resolve_out(args, cfg, args.profile_out), rows))
    if args.potential_out:
        ys = np.linspace(-2.0, 3.5, 551)
        curves = {a: move.potential.at(a).value(ys) for a in (0.2, 0.8, 1.5)}
        rows = [{"y": float(y),
                 "v_a_0p2": float(curves[0.2][i]),
                 "v_a_0p8": float(curves[0.8][i]),
                 "v_a_1p5": float(curves[1.5][i])}
                for i, y in enumerate(ys)]
        side.append((_resolve_out(args, cfg, args.potential_out), rows))
    _deliver(args, cfg, report, "json", side_files=side)


def _cmd_scheme1(args, cfg: RunConfig):
    cfg = resolve_lpol_wavelength(cfg)
    budget = run_scheme1(cfg)
    _deliver(args, cfg, budget.to_dict(), "json")


def _cmd_scheme2(args, cfg: RunConfig):
    cfg = resolve_lpol_wavelength(cfg)
    budget = run_scheme2(cfg)
    _deliver(args, cfg, budget.to_dict(), "json")


def _cmd_sweep(args, cfg: RunConfig):
    try:
        values = [json.loads(v) for v in args.values]
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--values entry {exc.doc!r} is not a JSON value") from exc
    rows = sweep(cfg, args.parameter, values)
    _deliver(args, cfg, rows, "csv")


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
    p.add_argument("--sites", type=int, default=9)
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
    p.set_defaults(handler=_cmd_scheme1)

    p = sub.add_parser("scheme2", help="cyclic speedup budget")
    p.set_defaults(handler=_cmd_scheme2)

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
        for override in args.set or []:
            key, sep, value = override.partition("=")
            if not sep:
                raise ConfigError(f"override '{override}' must look like KEY=VALUE")
            set_by_path(cfg, key, value)
        for path, value in vars(args).items():
            if "." in path and value is not None:
                set_field(cfg, path, value)
        validate_config(cfg)
        args.handler(args, cfg)
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
