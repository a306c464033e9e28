"""Run configuration: defaults, JSON loading with strict key checking,
rule resolution (omega0 = delta/4 and friends), and serialization.

Every physics default equals the reference operating point, so an empty
config file reproduces the headline numbers.  Unknown keys are rejected
with their dotted path; rule strings are expanded to numbers in the
resolved echo that accompanies every report.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .units import PI, RB87, AtomSpecies

__all__ = [
    "SpeciesConfig",
    "LatticeConfig",
    "PulseConfig",
    "RemovalConfig",
    "TransferConfig",
    "SpeedupConfig",
    "OutputConfig",
    "RunConfig",
    "load_config",
    "config_from_dict",
    "config_to_dict",
    "set_by_path",
    "validate_config",
    "build_species",
]


@dataclass
class SpeciesConfig:
    """Atomic species; None fields fall back to the named builtin."""

    name: str = "Rb87"
    mass_kg: float | None = None
    d1_wavelength_nm: float | None = None
    d2_wavelength_nm: float | None = None
    gamma1_rad_s: float | None = None
    gamma2_rad_s: float | None = None
    hyperfine_splitting_rad_s: float | None = None


@dataclass
class LatticeConfig:
    lambda_s_nm: float = 850.0
    depth_er: float = 50.0
    pattern_period: int = 3
    lpol_wavelength_nm: float | str = 787.6    # or "optimize"
    delta_target_er: float = 52.0
    lpol_phase_nm: float = 0.0
    ramp_target_excitation: float = 1e-4
    band_exclusion_nm: float = 0.2
    total_sites: int = 300
    dimensions: int = 1


@dataclass
class PulseConfig:
    omega0_er: float | str = "delta/4"
    cutoff: float | str = "5/omega0"
    detuning_er: float | str = "delta"


@dataclass
class RemovalConfig:
    trap_depth_er: float = 50.0
    duration_us: float = 1.0
    excited_population_cap: float = 0.45
    tunneling_time_ms: float = 100.0


@dataclass
class TransferConfig:
    xi: float = 0.005
    frequency_ratio: float = 4.0
    direction: str = "deepen"
    waist_um: float = 1.0


@dataclass
class SpeedupConfig:
    confine_depth: float = 400.0      # hbar^2 / (2 m sigma_c^2) units
    focus_depth: float = 560.0
    sigma_c_um: float = 0.93
    focus_waist_ratio: float = 0.5
    final_displacement_sigma: float = 2.0
    xi_bar: float | str = "calibrate"
    target_excitation: float = 7e-3
    effective_linewidth_rad_s: float = 2.0 * PI * 5.0e6   # calibrated, not derived
    focus_detuning_rad_s: float = -2.0 * PI * 780.0e9
    cycles: int = 5
    per_cycle_fraction: float = 1.0 / 3.0
    profile_points: int = 161
    basis_size: int = 11


@dataclass
class OutputConfig:
    directory: str = "."
    float_digits: int = 12


@dataclass
class RunConfig:
    species: SpeciesConfig = field(default_factory=SpeciesConfig)
    lattice: LatticeConfig = field(default_factory=LatticeConfig)
    pulse: PulseConfig = field(default_factory=PulseConfig)
    removal: RemovalConfig = field(default_factory=RemovalConfig)
    transfer: TransferConfig = field(default_factory=TransferConfig)
    speedup: SpeedupConfig = field(default_factory=SpeedupConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)}


def _fill_section(cls, data: dict, path: str):
    names = {f.name for f in dataclasses.fields(cls)}
    section = cls()
    for key, value in data.items():
        if key not in names:
            valid = ", ".join(sorted(names))
            raise ConfigError(f"unknown key '{path}.{key}' (valid keys: {valid})")
        setattr(section, key, value)
    return section


def config_from_dict(data: dict) -> RunConfig:
    """Build a validated RunConfig from a nested dict, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    cfg = RunConfig()
    for key, value in data.items():
        if key not in _SECTIONS:
            valid = ", ".join(sorted(_SECTIONS))
            raise ConfigError(f"unknown section '{key}' (valid sections: {valid})")
        if not isinstance(value, dict):
            raise ConfigError(f"section '{key}' must be an object")
        setattr(cfg, key, _fill_section(_SECTIONS[key], value, key))
    validate_config(cfg)
    return cfg


def config_to_dict(cfg: RunConfig) -> dict:
    return {name: dataclasses.asdict(getattr(cfg, name)) for name in _SECTIONS}


def load_config(path) -> RunConfig:
    """Parse a JSON config file; parse errors carry line and column."""
    text = Path(path).read_text(encoding="utf-8")
    if not text.strip():
        return RunConfig()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return config_from_dict(data)


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:   # an int beyond the float range
        return False


# (section, field, the kinds its annotation admits) of every config field
_FIELD_KINDS = tuple((section_name, f.name, frozenset(f.type.split(" | ")))
                     for section_name, cls in _SECTIONS.items()
                     for f in dataclasses.fields(cls))


def _require_types(cfg: RunConfig):
    """Every field holds a value of its annotated kind: a string where the
    annotation admits one (or None where it admits None), else a finite real
    number (not a bool), and an int where the annotation has no float."""
    for section_name, name, kinds in _FIELD_KINDS:
        value = getattr(getattr(cfg, section_name), name)
        if (value is None and "None" in kinds) or (isinstance(value, str)
                                                  and "str" in kinds):
            continue
        if "float" not in kinds and "int" not in kinds:
            problem = "a string"
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            problem = "a number"
        elif not _finite(value):
            problem = "finite"
        elif "float" not in kinds and not isinstance(value, int):
            problem = "an integer"
        else:
            continue
        raise ConfigError(f"{section_name}.{name} must be {problem}, got {value!r}")


# the closed range of each number the models describe, beyond which a derived
# scale overflows or underflows; None and rule strings are not numbers here
_RANGES = {
    "species.mass_kg": (1e-27, 1e-24, "an atomic mass"),
    "species.d1_wavelength_nm": (100.0, 1e5, "an optical line"),
    "species.d2_wavelength_nm": (100.0, 1e5, "an optical line"),
    "species.gamma1_rad_s": (1.0, 1e12, "far below the optical frequency"),
    "species.gamma2_rad_s": (1.0, 1e12, "far below the optical frequency"),
    "species.hyperfine_splitting_rad_s": (1.0, 1e12, "far below the optical frequency"),
    "lattice.lambda_s_nm": (100.0, 1e5, "an optical wavelength"),
    "lattice.lpol_wavelength_nm": (100.0, 1e5, "an optical wavelength"),
    "transfer.waist_um": (1e-3, 1e3, "a nanometre to a millimetre"),
    "speedup.confine_depth": (0.0, 1e6, "in hbar^2/(2 m sigma_c^2)"),
    "speedup.focus_depth": (0.0, 1e6, "in hbar^2/(2 m sigma_c^2)"),
    "speedup.sigma_c_um": (1e-3, 1e3, "a nanometre to a millimetre"),
    "speedup.focus_waist_ratio": (1e-3, 1e3, "a waist on the scale of sigma_c"),
    "speedup.final_displacement_sigma": (0.0, 100.0, "in sigma_c"),
}


def validate_config(cfg: RunConfig):
    """Reject physically invalid values with their field path."""
    _require_types(cfg)
    for path, (lo, hi, why) in _RANGES.items():
        section, key = path.split(".")
        value = getattr(getattr(cfg, section), key)
        if not isinstance(value, (str, type(None))) and not lo <= value <= hi:
            raise ConfigError(f"{path} must lie in [{lo:g}, {hi:g}] ({why}), got {value!r}")
    species = build_species(cfg.species)
    _require(species.d2_wavelength < species.d1_wavelength,
             "species.d2_wavelength_nm must be below species.d1_wavelength_nm")

    lat = cfg.lattice
    _require(lat.depth_er > 0, "lattice.depth_er must be positive")
    _require(lat.pattern_period >= 3, "lattice.pattern_period must be an integer >= 3")
    _require(0 < lat.delta_target_er <= 1e6, "lattice.delta_target_er must lie in (0, 1e6] "
             "(a light shift far below the optical detunings)")
    gap_nm = (species.d1_wavelength - species.d2_wavelength) * 1e9
    if not 0 < 2 * lat.band_exclusion_nm < gap_nm:
        raise ConfigError(f"lattice.band_exclusion_nm must be positive and below half "
                          f"the {gap_nm:.6g} nm D1-D2 gap, got {lat.band_exclusion_nm!r}")
    _require(0.0 < lat.ramp_target_excitation < 0.1,
             "lattice.ramp_target_excitation must lie in (0, 0.1)")
    _require(lat.dimensions in (1, 2), "lattice.dimensions must be 1 or 2")
    _require(lat.total_sites >= lat.pattern_period,
             "lattice.total_sites must cover at least one lattice.pattern_period")
    if isinstance(lat.lpol_wavelength_nm, str):
        _require(lat.lpol_wavelength_nm == "optimize",
                 "lattice.lpol_wavelength_nm must be a number or 'optimize'")

    rem = cfg.removal
    _require(rem.trap_depth_er >= 0, "removal.trap_depth_er must be >= 0")
    _require(rem.duration_us > 0, "removal.duration_us must be positive")
    _require(0.0 < rem.excited_population_cap < 0.5,
             "removal.excited_population_cap must lie in (0, 0.5)")
    _require(rem.tunneling_time_ms > 0, "removal.tunneling_time_ms must be positive")

    tra = cfg.transfer
    _require(0.0 < tra.xi < 0.1, "transfer.xi must lie in (0, 0.1)")
    _require(1 < tra.frequency_ratio <= 1e6, "transfer.frequency_ratio must lie in (1, 1e6]")
    _require(tra.direction in ("deepen", "shallow"),
             "transfer.direction must be 'deepen' or 'shallow'")

    spd = cfg.speedup
    _require(spd.cycles >= 0, "speedup.cycles must be >= 0")
    _require(0.0 <= spd.per_cycle_fraction <= 1.0,
             "speedup.per_cycle_fraction must lie in [0, 1]")
    _require(0 < spd.target_excitation < 1, "speedup.target_excitation must lie in (0, 1)")
    _require(abs(spd.focus_detuning_rad_s) > spd.effective_linewidth_rad_s > 0,
             "speedup.focus_detuning_rad_s must exceed the positive "
             "speedup.effective_linewidth_rad_s in magnitude (a far-detuned focus)")
    _require(spd.profile_points >= 9, "speedup.profile_points must be >= 9")
    _require(spd.basis_size >= 3, "speedup.basis_size must be >= 3")
    if isinstance(spd.xi_bar, str):
        _require(spd.xi_bar == "calibrate", "speedup.xi_bar must be a number or 'calibrate'")
    else:
        _require(0 < spd.xi_bar < 0.5, "speedup.xi_bar must lie in (0, 0.5), so that "
                 "P_exc = 4 xi_bar^2 < 1")

    _require(6 <= cfg.output.float_digits <= 17, "output.float_digits must lie in [6, 17]")

    pul = cfg.pulse
    for name in ("omega0_er", "cutoff", "detuning_er"):
        val = getattr(pul, name)
        if isinstance(val, str):
            allowed = {"omega0_er": "delta/4", "cutoff": "5/omega0",
                       "detuning_er": "delta"}[name]
            _require(val == allowed, f"pulse.{name} must be a number or '{allowed}'")
        else:
            _require(val > 0, f"pulse.{name} must be positive")


def set_by_path(cfg: RunConfig, dotted: str, raw_value: str):
    """Apply a --set override like 'transfer.xi=0.0025'; values are parsed
    as JSON scalars so strings, ints and floats all work."""
    parts = dotted.split(".")
    if len(parts) != 2:
        raise ConfigError(f"override path '{dotted}' must look like section.key")
    section_name, key = parts
    if section_name not in _SECTIONS:
        raise ConfigError(f"unknown section '{section_name}' in override "
                          f"(valid: {', '.join(sorted(_SECTIONS))})")
    section = getattr(cfg, section_name)
    names = {f.name for f in dataclasses.fields(section)}
    if key not in names:
        raise ConfigError(f"unknown key '{dotted}' (valid keys: "
                          f"{', '.join(sorted(names))})")
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value  # bare string
    setattr(section, key, value)
    validate_config(cfg)


def build_species(cfg: SpeciesConfig) -> AtomSpecies:
    """Materialise the species, overriding builtin fields where given."""
    if cfg.name != "Rb87":
        raise ConfigError(f"unknown species '{cfg.name}' (builtin: Rb87)")
    base = RB87
    return AtomSpecies(
        name=base.name,
        mass=cfg.mass_kg if cfg.mass_kg is not None else base.mass,
        d1_wavelength=(cfg.d1_wavelength_nm * 1e-9 if cfg.d1_wavelength_nm is not None
                       else base.d1_wavelength),
        d2_wavelength=(cfg.d2_wavelength_nm * 1e-9 if cfg.d2_wavelength_nm is not None
                       else base.d2_wavelength),
        gamma1=cfg.gamma1_rad_s if cfg.gamma1_rad_s is not None else base.gamma1,
        gamma2=cfg.gamma2_rad_s if cfg.gamma2_rad_s is not None else base.gamma2,
        hyperfine_splitting=(cfg.hyperfine_splitting_rad_s
                             if cfg.hyperfine_splitting_rad_s is not None
                             else base.hyperfine_splitting),
    )


def resolve_pulse_rules(cfg: RunConfig) -> tuple[float, float, float]:
    """Expand the pulse rules against the lattice delta target.

    Returns (omega0, t_f, detuning) in natural units (E_R/hbar and hbar/E_R).
    """
    delta = cfg.lattice.delta_target_er
    omega0 = (delta / 4.0 if cfg.pulse.omega0_er == "delta/4"
              else float(cfg.pulse.omega0_er))
    t_f = (5.0 / omega0 if cfg.pulse.cutoff == "5/omega0"
           else float(cfg.pulse.cutoff))
    detuning = (delta if cfg.pulse.detuning_er == "delta"
                else float(cfg.pulse.detuning_er))
    return omega0, t_f, detuning


def resolve_xi_bar(cfg: RunConfig) -> float:
    if cfg.speedup.xi_bar == "calibrate":
        return math.sqrt(cfg.speedup.target_excitation / 4.0)
    return float(cfg.speedup.xi_bar)
