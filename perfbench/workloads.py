"""The three workloads: their operations, how one runs, and their checks.

The seed picks grid values and the order of operations within a round; it
never changes the mix, so runs on different seeds cost the same.  Every
round repeats the same operations in the same order.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import checks
from checks import close, equal, failure_aggregation


def _rounded(rng: random.Random, lo: float, hi: float, digits: int) -> float:
    return round(rng.uniform(lo, hi), digits)


def _same_rounds(name: str, rounds: list) -> list:
    """Every round returns byte-for-byte what the first one returned."""
    first = json.dumps(rounds[0], sort_keys=True, default=repr).encode()
    return [equal(f"{name}: round {r} repeats round 0",
                  json.dumps(out, sort_keys=True, default=repr).encode(), first)
            for r, out in enumerate(rounds[1:], start=1)]


class InProcess:
    """A workload whose operations are calls in the benchmark's own process."""

    min_rounds = 1
    traced = False
    trace_files = ()

    def prepare(self):
        from mottreg import budget, config
        self.budget, self.config = budget, config

    def start_round(self, r: int):
        pass

    def warm_up(self):
        self.execute(self.warm_up_op)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PatternedSweep(InProcess):
    """Scheme-1 budget rows from budget.sweep, grouped by delta target."""

    name = "patterned_sweep"
    groups = 4
    xi_per_group = 3

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        deltas = sorted({_rounded(rng, 40.0, 64.0, 3) for _ in range(self.groups)})
        while len(deltas) < self.groups:
            deltas = sorted(set(deltas) | {_rounded(rng, 40.0, 64.0, 3)})
        self.ops = [(delta, tuple(_rounded(rng, 0.0025, 0.01, 6)
                                  for _ in range(self.xi_per_group)))
                    for delta in deltas]
        rng.shuffle(self.ops)
        self.warm_up_op = self.ops[0]

    def execute(self, op):
        delta, xis = op
        cfg = self.config.RunConfig()
        self.config.set_by_path(cfg, "lattice.delta_target_er", repr(delta))
        rows = self.budget.sweep(cfg, "transfer.xi", list(xis))
        return rows, len(rows)

    def checks(self, rounds: list) -> list:
        found = _same_rounds(self.name, rounds)
        for (delta, xis), rows in zip(self.ops, rounds[0]):
            label = f"delta={delta}"
            found.append(equal(f"{label}: one row per xi", len(rows), len(xis)))
            omega0 = delta / 4.0
            reference = checks.pulse_flip_reference(omega0, 5.0 / omega0, delta)
            for xi, row in zip(xis, rows):
                channels = [v for k, v in row.items() if k.startswith("p_")]
                found += failure_aggregation(f"{label} xi={xi}", row["total_failure"],
                                             channels)
                found.append(close(f"{label} xi={xi}: P_exc = 4 xi^2",
                                   row["p_transfer_excitation"], 4.0 * xi * xi,
                                   rtol=1e-12))
                found.append(close(f"{label} xi={xi}: pulse flip error vs DOP853",
                                   row["p_pulse_flip_error"], reference, rtol=1e-6))
        return found


class MovingFocus(InProcess):
    """budget.run_scheme2 at basis sizes 11 and 15."""

    name = "moving_focus"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        d1 = _rounded(rng, 520.0, 640.0, 1)
        d2 = _rounded(rng, 520.0, 640.0, 1)
        if d2 == d1:
            d2 = round(d1 + 10.0 if d1 < 630.0 else d1 - 10.0, 1)
        t1 = _rounded(rng, 5e-3, 1e-2, 6)
        t2 = _rounded(rng, 5e-3, 1e-2, 6)
        if t2 == t1:
            t2 = round(t1 * 1.1, 6)
        # (focus depth, target excitation, basis size): half at 11, half at 15.
        # The first pair fixes the potential and changes xi_bar; the third
        # repeats the first at the larger basis.
        self.base, self.other_xi = (d1, t1, 11), (d1, t2, 11)
        self.larger_basis, self.other_depth = (d1, t1, 15), (d2, t2, 15)
        self.ops = [self.base, self.other_xi, self.larger_basis, self.other_depth]
        rng.shuffle(self.ops)
        self.warm_up_op = self.base

    def _config(self, op):
        depth, target, basis = op
        cfg = self.config.RunConfig()
        self.config.set_by_path(cfg, "speedup.focus_depth", repr(depth))
        self.config.set_by_path(cfg, "speedup.target_excitation", repr(target))
        self.config.set_by_path(cfg, "speedup.basis_size", str(basis))
        return cfg

    def execute(self, op):
        return self.budget.run_scheme2(self._config(op)), 1

    def checks(self, rounds: list) -> list:
        rounds = [[b.to_dict() for b in outputs] for outputs in rounds]
        found = _same_rounds(self.name, rounds)
        by_op = dict(zip(self.ops, rounds[0]))
        spd = self.config.RunConfig().speedup
        for (depth, target, basis), d in by_op.items():
            label = f"depth={depth} target={target} basis={basis}"
            found.append(close(f"{label}: xi_bar = sqrt(target/4)", d["xi_bar"],
                               math.sqrt(target / 4.0), rtol=1e-12))
            found.append(close(f"{label}: P_exc = 4 xi_bar^2", d["p_exc"],
                               4.0 * d["xi_bar"] ** 2, rtol=1e-12))
            found.append(close(f"{label}: yield = 1 - (1 - f)^cycles",
                               d["yield_after_cycles"],
                               1.0 - (1.0 - spd.per_cycle_fraction) ** spd.cycles,
                               rtol=1e-12))
            channels = [c["p"] for s in d["steps"] for c in s["channels"]]
            found += failure_aggregation(label, d["total_failure"], channels)
        base, other_xi = by_op[self.base], by_op[self.other_xi]
        found.append(close(f"depth={self.base[0]}: T xi_bar constant",
                           other_xi["move_time_ms"] * other_xi["xi_bar"],
                           base["move_time_ms"] * base["xi_bar"], rtol=1e-12))
        # basis 11 is converged to 1.5e-5 at depth 520, falling to 6e-6 by 640
        found.append(close(f"depth={self.base[0]}: T agrees between basis 11 and 15",
                           by_op[self.larger_basis]["move_time_ms"], base["move_time_ms"],
                           rtol=5e-5))
        from mottreg.units import RB87
        for op in (self.base, self.other_depth):
            d = by_op[op]
            reference = checks.moving_time_reference(
                spd.confine_depth, op[0], spd.focus_waist_ratio,
                spd.final_displacement_sigma, d["xi_bar"], spd.profile_points,
                spd.sigma_c_um * 1e-6, RB87.mass)
            found.append(close(f"depth={op[0]} basis={op[2]}: moving time vs "
                               "finite-difference grid", d["move_time_ms"], reference,
                               rtol=1e-3))
        return found


class CliReports:
    """One fresh `python -m mottreg.cli` process per operation."""

    name = "cli_reports"
    min_rounds = 2   # byte-identity is checked between rounds

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.workdir = workdir
        sweep_values = [repr(_rounded(rng, 0.0025, 0.01, 6)) for _ in range(3)]
        self.ops = [
            ("stark-scan", ["--out", "scan.csv", "stark-scan", "--points", "501"]),
            ("lattice", ["--out", "sites.csv", "lattice", "--sites",
                         str(rng.randint(9, 15)), "--profile-out", "profile.csv"]),
            ("pulse", ["--out", "pulse.json", "pulse",
                       "--trajectory-out", "pulse_traj.csv"]),
            ("remove", ["--out", "remove.json", "remove", "--trap-depth",
                        repr(_rounded(rng, 40.0, 60.0, 3))]),
            ("transfer", ["--out", "transfer.json", "transfer",
                          "--trajectory-out", "transfer_traj.csv"]),
            ("speedup", ["--out", "speedup.json", "speedup", "--profile-out", "gap.csv",
                         "--potential-out", "wells.csv"]),
            ("scheme1", ["--set", f"transfer.xi={_rounded(rng, 0.0025, 0.01, 6)!r}",
                         "--out", "scheme1.json", "scheme1"]),
            ("scheme1-optimize", ["--set", "lattice.lpol_wavelength_nm=optimize",
                                  "--out", "scheme1_opt.json", "scheme1"]),
            ("scheme2", ["--out", "scheme2.json", "scheme2"]),
            ("sweep", ["--out", "sweep.csv", "sweep", "--parameter", "transfer.xi",
                       "--values", *sweep_values]),
        ]
        rng.shuffle(self.ops)
        self.round = 0
        self.traced = False
        self.trace_files: list[Path] = []
        self.child_rss_kb = 0

    def prepare(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def warm_up(self):
        """Import the CLI and run its cheapest report in this process."""
        from mottreg import cli
        args = dict(self.ops)["remove"]
        out = self.workdir / "warm-up" / "remove.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--out", str(out), *args[2:]])
        if code != 0:
            raise RuntimeError(f"warm-up report exited {code}")

    def round_dir(self, r: int) -> Path:
        return self.workdir / f"round{r}"

    def start_round(self, r: int):
        self.round = r
        self.round_dir(r).mkdir(parents=True, exist_ok=True)

    def execute(self, op):
        label, args = op
        out_dir = self.round_dir(self.round)
        env = dict(self.env, MOTTREG_OUTDIR=str(out_dir))
        if self.traced:
            spans = out_dir / f"{label}.spans.json"
            self.trace_files.append(spans)
            cmd = [sys.executable, str(Path(__file__).resolve().parent / "cli_child.py"),
                   str(spans), *args]
        else:
            cmd = [sys.executable, "-m", "mottreg.cli", *args]
        with open(out_dir / f"{label}.stderr", "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                    env=env, cwd=str(self.workdir))
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        if code != 0:   # a failed operation: the run reports it and is not correct
            err = (out_dir / f"{label}.stderr").read_text(errors="replace")
            raise RuntimeError(f"{label} exited {code}: {err.strip()[-300:]}")
        return code, 1

    def _file(self, name: str, r: int = 0) -> bytes:
        path = self.round_dir(r) / name
        return path.read_bytes() if path.is_file() else b""

    def _json(self, name: str) -> dict:
        return json.loads(self._file(name))

    def checks(self, rounds: list) -> list:
        found = []
        outputs = sorted(p.name for p in self.round_dir(0).iterdir()
                         if p.suffix in (".csv", ".json") and ".spans." not in p.name)
        for r in range(1, len(rounds)):
            found += [equal(f"{name}: round {r} byte-identical to round 0",
                            self._file(name, r), self._file(name))
                      for name in outputs]

        pulse = self._json("pulse.json")
        found.append(close("pulse: flip error vs DOP853", pulse["p_flip"],
                           checks.pulse_flip_reference(pulse["omega0"], pulse["t_f"],
                                                       pulse["detuning"]), rtol=1e-6))
        remove = self._json("remove.json")
        found.append(close("remove: resonant photon count = threshold",
                           remove["n_p_B"], remove["threshold"], rtol=1e-8))
        transfer = self._json("transfer.json")
        found.append(close("transfer: max_Pe_numeric vs exact propagator",
                           transfer["max_Pe_numeric"],
                           checks.transfer_max_excitation_reference(50.0, 0.005, 4.0),
                           atol=1e-10))
        speedup = self._json("speedup.json")
        found.append(close("speedup: P_exc = 4 xi_bar^2", speedup["P_exc"],
                           4.0 * speedup["xi_bar_used"] ** 2, rtol=1e-9))
        found.append(close("speedup: yield = 1 - (1 - f)^5", speedup["yield_5_cycles"],
                           1.0 - (2.0 / 3.0) ** 5, rtol=1e-9))
        for name in ("scheme1.json", "scheme1_opt.json", "scheme2.json"):
            d = self._json(name)
            channels = [c["p"] for s in d["steps"] for c in s["channels"]]
            found += failure_aggregation(name, d["total_failure"], channels, rtol=1e-9)
        found.append(close("scheme1 optimize: LPOL wavelength near 787.6 nm",
                           self._json("scheme1_opt.json")["lpol_wavelength_nm"], 787.6,
                           atol=1.5))
        scheme2 = self._json("scheme2.json")
        found.append(close("scheme2: P_exc = 4 xi_bar^2", scheme2["p_exc"],
                           4.0 * scheme2["xi_bar"] ** 2, rtol=1e-9))
        found.append(close("scheme2: yield = 1 - (1 - f)^cycles",
                           scheme2["yield_after_cycles"], 1.0 - (2.0 / 3.0) ** 5,
                           rtol=1e-9))
        rows = list(csv.DictReader(io.StringIO(self._file("sweep.csv").decode())))
        found.append(equal("sweep: three rows", len(rows), 3))
        for row in rows:
            xi = float(row["value"])
            channels = [float(v) for k, v in row.items() if k.startswith("p_")]
            found += failure_aggregation(f"sweep xi={xi}", float(row["total_failure"]),
                                         channels, rtol=1e-9)
            found.append(close(f"sweep xi={xi}: P_exc = 4 xi^2",
                               float(row["p_transfer_excitation"]), 4.0 * xi * xi,
                               rtol=1e-9))
        return found

    def peak_rss_mb(self) -> float:
        return self.child_rss_kb / 1024.0


WORKLOADS = {w.name: w for w in (PatternedSweep, MovingFocus, CliReports)}
