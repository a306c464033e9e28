"""Run configuration: defaults, JSON loading with strict key checking,
one table of admissible values, rule resolution (omega0 = delta/4 and
friends), and serialization.

Every physics default equals the reference operating point, so an empty
config file reproduces the headline numbers.  Each field is declared once:
its annotation gives its kind, _WORDS the words of a rule-or-word field, and
_RANGES the interval of a number.  Every refusal, of a value or of an
unknown key, names the field's dotted path.  Rule strings are expanded to
numbers in the resolved echo that accompanies every report.
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
    "set_field",
    "validate_config",
    "build_species",
]


@dataclass
class SpeciesConfig:
    """Rb-87 line and mass data; a None field keeps the builtin value."""

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
_KEYS = {name: frozenset(f.name for f in dataclasses.fields(cls))
         for name, cls in _SECTIONS.items()}


def _keys(section: str) -> frozenset:
    """The keys of a RunConfig section; a section it lacks is refused."""
    if section not in _KEYS:
        raise ConfigError(f"unknown section '{section}' "
                          f"(valid sections: {', '.join(sorted(_KEYS))})")
    return _KEYS[section]


def set_field(cfg: RunConfig, dotted: str, value):
    """Write one field by its 'section.key' path, refusing a path that
    RunConfig lacks; the caller validates the result."""
    section, _, key = dotted.partition(".")
    keys = _keys(section)
    if key not in keys:
        raise ConfigError(f"unknown key '{dotted}' (valid keys: {', '.join(sorted(keys))})")
    setattr(getattr(cfg, section), key, value)


def config_from_dict(data: dict) -> RunConfig:
    """Build a validated RunConfig from a nested dict, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    cfg = RunConfig()
    for section, values in data.items():
        _keys(section)
        if not isinstance(values, dict):
            raise ConfigError(f"section '{section}' must be an object")
        for key, value in values.items():
            set_field(cfg, f"{section}.{key}", value)
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


# the words a rule-or-word field accepts; a field whose annotation admits a
# number takes a number in place of its rule
_WORDS = {
    "lattice.lpol_wavelength_nm": ("optimize",),
    "pulse.omega0_er": ("delta/4",),
    "pulse.cutoff": ("5/omega0",),
    "pulse.detuning_er": ("delta",),
    "transfer.direction": ("deepen", "shallow"),
}

# the interval each number lies in, with "(" ")" open and "[" "]" closed
# ends, and why where a finite end marks the edge of the model: beyond it a
# derived scale overflows or underflows.  band_exclusion_nm, total_sites and
# the focus detuning and linewidth have no row, as only the cross-field
# checks in validate_config bound them; lattice.lpol_phase_nm has none, as
# any finite offset serves.
_RANGES = {
    "species.mass_kg": ("[1e-27, 1e-24]", "an atomic mass"),
    "species.d1_wavelength_nm": ("[100, 1e5]", "an optical line"),
    "species.d2_wavelength_nm": ("[100, 1e5]", "an optical line"),
    "species.gamma1_rad_s": ("[1, 1e12]", "far below the optical frequency"),
    "species.gamma2_rad_s": ("[1, 1e12]", "far below the optical frequency"),
    "species.hyperfine_splitting_rad_s": ("[1, 1e12]", "far below the optical frequency"),
    "lattice.lambda_s_nm": ("[100, 1e5]", "an optical wavelength"),
    "lattice.depth_er": ("(0, inf)", ""),
    "lattice.pattern_period": ("[3, inf)", ""),
    "lattice.lpol_wavelength_nm": ("[100, 1e5]", "an optical wavelength"),
    "lattice.delta_target_er": ("(0, 1e6]", "a light shift far below the optical detunings"),
    "lattice.ramp_target_excitation": ("(0, 0.1)", ""),
    "lattice.dimensions": ("[1, 2]", ""),
    "pulse.omega0_er": ("(0, inf)", ""),
    "pulse.cutoff": ("(0, inf)", ""),
    "pulse.detuning_er": ("(0, inf)", ""),
    "removal.trap_depth_er": ("[0, inf)", ""),
    "removal.duration_us": ("(0, inf)", ""),
    "removal.excited_population_cap": ("(0, 0.5)", ""),
    "removal.tunneling_time_ms": ("(0, inf)", ""),
    "transfer.xi": ("(0, 0.1)", ""),
    "transfer.frequency_ratio": ("(1, 1e6]", ""),
    "transfer.waist_um": ("[1e-3, 1e3]", "a nanometre to a millimetre"),
    "speedup.confine_depth": ("[0, 1e6]", "in hbar^2/(2 m sigma_c^2)"),
    "speedup.focus_depth": ("[0, 1e6]", "in hbar^2/(2 m sigma_c^2)"),
    "speedup.sigma_c_um": ("[1e-3, 1e3]", "a nanometre to a millimetre"),
    "speedup.focus_waist_ratio": ("[1e-3, 1e3]", "a waist on the scale of sigma_c"),
    "speedup.final_displacement_sigma": ("[0, 100]", "in sigma_c"),
    "speedup.target_excitation": ("(0, 1)", "P_exc = 4 xi_bar^2 below 1"),
    "speedup.cycles": ("[0, inf)", ""),
    "speedup.per_cycle_fraction": ("[0, 1]", ""),
    "speedup.profile_points": ("[9, inf)", ""),
    "speedup.basis_size": ("[3, inf)", ""),
    "output.float_digits": ("[6, 17]", ""),
}


def _field_rule(section: str, f: dataclasses.Field) -> tuple:
    """(section, key, path, the kinds its annotation admits, its words, its
    bounds) of one field, the path split once at import; the bounds are (lo,
    hi, lo closed, hi closed, the message's tail) of its _RANGES row."""
    path = f"{section}.{f.name}"
    bounds = None
    if path in _RANGES:
        interval, why = _RANGES[path]
        lo, hi = (float(end) for end in interval[1:-1].split(","))
        bounds = (lo, hi, interval[0] == "[", interval[-1] == "]",
                  interval + (f" ({why})" if why else ""))
    return section, f.name, path, frozenset(f.type.split(" | ")), _WORDS.get(path), bounds


_FIELDS = tuple(_field_rule(section, f)
                for section, cls in _SECTIONS.items() for f in dataclasses.fields(cls))


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:   # an int beyond the float range
        return False


def validate_config(cfg: RunConfig):
    """Refuse, with a message that starts with a field's dotted path, a value
    not of its annotated kind (a string, None, a finite real number that is
    no bool, an int where no float is admitted), not one of its words or
    outside its interval, then the combinations the models cannot take."""
    for section, key, path, kinds, words, bounds in _FIELDS:
        value = getattr(getattr(cfg, section), key)
        if isinstance(value, str) and "str" in kinds:
            if words is not None and value not in words:
                admitted = ["a number"] * ("float" in kinds) + [repr(w) for w in words]
                raise ConfigError(f"{path} must be {' or '.join(admitted)}, got {value!r}")
            continue
        if value is None and "None" in kinds:
            continue
        if "float" not in kinds and "int" not in kinds:
            problem = "a string"
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            problem = "a number"
        elif not _finite(value):
            problem = "finite"
        elif "float" not in kinds and not isinstance(value, int):
            problem = "an integer"
        elif bounds is None:
            continue
        else:
            lo, hi, lo_closed, hi_closed, interval = bounds
            if ((lo < value or lo_closed and value == lo)
                    and (value < hi or hi_closed and value == hi)):
                continue
            raise ConfigError(f"{path} must lie in {interval}, got {value!r}")
        raise ConfigError(f"{path} must be {problem}, got {value!r}")

    species = build_species(cfg.species)
    _require(species.d2_wavelength < species.d1_wavelength,
             "species.d2_wavelength_nm must be below species.d1_wavelength_nm")
    lat = cfg.lattice
    gap_nm = (species.d1_wavelength - species.d2_wavelength) * 1e9
    if not 0 < 2 * lat.band_exclusion_nm < gap_nm:
        raise ConfigError(f"lattice.band_exclusion_nm must be positive and below half "
                          f"the {gap_nm:.6g} nm D1-D2 gap, got {lat.band_exclusion_nm!r}")
    _require(lat.total_sites >= lat.pattern_period,
             "lattice.total_sites must cover at least one lattice.pattern_period")
    spd = cfg.speedup
    _require(abs(spd.focus_detuning_rad_s) > spd.effective_linewidth_rad_s > 0,
             "speedup.focus_detuning_rad_s must exceed the positive "
             "speedup.effective_linewidth_rad_s in magnitude (a far-detuned focus)")


def set_by_path(cfg: RunConfig, dotted: str, raw_value: str):
    """Apply a --set override like 'transfer.xi=0.0025'; values are parsed
    as JSON scalars so strings, ints and floats all work."""
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value  # bare string
    set_field(cfg, dotted, value)
    validate_config(cfg)


def build_species(cfg: SpeciesConfig) -> AtomSpecies:
    """Materialise the species, overriding builtin fields where given."""
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

