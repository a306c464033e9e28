"""Run configuration: defaults, JSON loading with strict key checking,
one table of admissible values, rule resolution (omega0 = delta/4 and
friends), and serialization.

Every physics default equals the reference operating point, so an empty
config file reproduces the headline numbers.  The atom is always Rb-87
(units.RB87), so no section describes it.  Each field is declared once:
its annotation gives its kind, _WORDS the words of a rule-or-word field, and
_RANGES the interval of a number.  Every refusal, of a value or of an
unknown key, names the field's dotted path.  Rule strings are expanded to
numbers in the resolved echo that accompanies every report.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .units import PI, RB87

__all__ = [
    "LatticeConfig",
    "PulseConfig",
    "RemovalConfig",
    "TransferConfig",
    "SpeedupConfig",
    "OutputConfig",
    "RunConfig",
    "load_config",
    "config_to_dict",
    "parse_value",
    "set_by_path",
    "set_field",
    "validate_config",
]


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
    lattice: LatticeConfig = field(default_factory=LatticeConfig)
    pulse: PulseConfig = field(default_factory=PulseConfig)
    removal: RemovalConfig = field(default_factory=RemovalConfig)
    transfer: TransferConfig = field(default_factory=TransferConfig)
    speedup: SpeedupConfig = field(default_factory=SpeedupConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


def brief(value) -> str:
    """repr(value), cut after 40 characters: a refusal stays one short line."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)}
_KEYS = {name: frozenset(f.name for f in dataclasses.fields(cls))
         for name, cls in _SECTIONS.items()}


def _keys(section: str) -> frozenset:
    """The keys of a RunConfig section; a section it lacks is refused."""
    if section not in _KEYS:
        raise ConfigError(f"unknown section {brief(section)} "
                          f"(valid sections: {', '.join(sorted(_KEYS))})")
    return _KEYS[section]


def set_field(cfg: RunConfig, dotted: str, value):
    """Write one field by its 'section.key' path, refusing a path that
    RunConfig lacks; the caller validates the result."""
    section, _, key = dotted.partition(".")
    keys = _keys(section)
    if key not in keys:
        raise ConfigError(f"unknown key {brief(dotted)} (valid keys: {', '.join(sorted(keys))})")
    setattr(getattr(cfg, section), key, value)


def config_to_dict(cfg: RunConfig) -> dict:
    return {name: dataclasses.asdict(getattr(cfg, name)) for name in _SECTIONS}


def load_config(path) -> RunConfig:
    """The defaults with every field of a JSON config file written, its values
    left for the caller to validate.  Every refusal names the file: one that
    cannot be read as UTF-8 text, a parse error (with line and column), a root
    or section that is no object, and an unknown section or key."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    try:
        data = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: parse error: {exc}") from exc
    except ValueError as exc:   # an int past the interpreter's digit limit
        raise ConfigError(f"{path}: parse error: an integer has more than "
                          f"{sys.get_int_max_str_digits()} digits") from exc
    cfg = RunConfig()
    try:
        if not isinstance(data, dict):
            raise ConfigError("config root must be an object")
        for section, values in data.items():
            _keys(section)
            if not isinstance(values, dict):
                raise ConfigError(f"section '{section}' must be an object")
            for key, value in values.items():
                set_field(cfg, f"{section}.{key}", value)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg


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
# checks in check_combinations bound them; lattice.lpol_phase_nm has none, as
# any finite offset serves.
_RANGES = {
    "lattice.lambda_s_nm": ("[100, 1e5]", "an optical wavelength"),
    "lattice.depth_er": ("(0, inf)", ""),
    "lattice.pattern_period": ("[3, inf)", ""),
    "lattice.lpol_wavelength_nm": ("[100, 1e5]", "an optical wavelength"),
    "lattice.delta_target_er": ("(0, 1e6]", "a light shift far below the optical detunings"),
    "lattice.ramp_target_excitation": ("(0, 0.1)", ""),
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


# the Rb-87 D lines and their gap in nm; the LPOL search band is the gap
# less band_exclusion_nm at each end, and no LPOL wavelength comes nearer a line
_D_LINES_NM = (RB87.d2_wavelength * 1e9, RB87.d1_wavelength * 1e9)
_D_GAP_NM = (RB87.d1_wavelength - RB87.d2_wavelength) * 1e9


def _field_rule(section: str, f: dataclasses.Field) -> tuple:
    """(section, key, the kinds its annotation admits, its words, its bounds)
    of one field, its path split once at import; the bounds are (lo, hi, lo
    closed, hi closed, the message's tail) of its _RANGES row."""
    path = f"{section}.{f.name}"
    bounds = None
    if path in _RANGES:
        interval, why = _RANGES[path]
        lo, hi = (float(end) for end in interval[1:-1].split(","))
        bounds = (lo, hi, interval[0] == "[", interval[-1] == "]",
                  interval + (f" ({why})" if why else ""))
    return section, f.name, frozenset(f.type.split(" | ")), _WORDS.get(path), bounds


_FIELDS = {f"{section}.{f.name}": _field_rule(section, f)
           for section, cls in _SECTIONS.items() for f in dataclasses.fields(cls)}


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:   # an int beyond the float range
        return False


def check_fields(cfg: RunConfig, paths):
    """Refuse, with a message that starts with its dotted path, the first of
    the fields at `paths` whose value is not of its annotated kind (a string,
    a finite real number that is no bool, an int where no float is
    admitted), not one of its words or outside its interval."""
    for path in paths:
        section, key, kinds, words, bounds = _FIELDS[path]
        value = getattr(getattr(cfg, section), key)
        if isinstance(value, str) and "str" in kinds:
            if words is not None and value not in words:
                admitted = ["a number"] * ("float" in kinds) + [repr(w) for w in words]
                raise ConfigError(f"{path} must be {' or '.join(admitted)}, got {brief(value)}")
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
            raise ConfigError(f"{path} must lie in {interval}, got {brief(value)}")
        raise ConfigError(f"{path} must be {problem}, got {brief(value)}")


def check_combinations(cfg: RunConfig):
    """Refuse the combinations of valid fields that the models cannot take."""
    lat = cfg.lattice
    if not 0 < 2 * lat.band_exclusion_nm < _D_GAP_NM:
        raise ConfigError(f"lattice.band_exclusion_nm must be positive and below half "
                          f"the {_D_GAP_NM:.6g} nm D1-D2 gap, got {brief(lat.band_exclusion_nm)}")
    # a band end's detuning 2 pi c (1/lambda - 1/line) is 0 when the reciprocals round equal
    exclusion = lat.band_exclusion_nm * 1e-9
    if not (1.0 / (RB87.d2_wavelength + exclusion) != 1.0 / RB87.d2_wavelength
            and 1.0 / (RB87.d1_wavelength - exclusion) != 1.0 / RB87.d1_wavelength):
        raise ConfigError(f"lattice.band_exclusion_nm = {brief(lat.band_exclusion_nm)} leaves an "
                          "end of the search band on a D line in floating point")
    lam = lat.lpol_wavelength_nm
    if lam != "optimize" and min(abs(lam - line) for line in _D_LINES_NM) < lat.band_exclusion_nm:
        raise ConfigError(f"lattice.lpol_wavelength_nm must lie at least lattice.band_exclusion_nm "
                          f"= {brief(lat.band_exclusion_nm)} nm from the D lines at "
                          f"{_D_LINES_NM[0]:.6g} and {_D_LINES_NM[1]:.6g} nm, got {brief(lam)}")
    if not lat.total_sites >= lat.pattern_period:
        raise ConfigError("lattice.total_sites must cover at least one lattice.pattern_period")
    spd = cfg.speedup
    if not abs(spd.focus_detuning_rad_s) > spd.effective_linewidth_rad_s > 0:
        raise ConfigError("speedup.focus_detuning_rad_s must exceed the positive "
                          "speedup.effective_linewidth_rad_s in magnitude (a far-detuned focus)")


def validate_config(cfg: RunConfig):
    """check_fields on every field in declaration order, then check_combinations."""
    check_fields(cfg, _FIELDS)
    check_combinations(cfg)


def parse_value(raw_value: str):
    """A --set value or sweep --values entry as a JSON scalar, so strings,
    ints and floats all work; text that is no JSON, nests too deep to parse
    or holds an int past the interpreter's digit limit is a bare string."""
    try:
        return json.loads(raw_value)
    except (ValueError, RecursionError):   # a JSONDecodeError is a ValueError
        return raw_value


def set_by_path(cfg: RunConfig, dotted: str, raw_value: str):
    """Parse raw_value as a --set value, write it to the dotted field and
    validate the whole config.  The CLI does not call this: it writes every
    override through set_field and validates once; perfbench's workloads and
    the tests apply single overrides here."""
    set_field(cfg, dotted, parse_value(raw_value))
    validate_config(cfg)


def resolve_pulse_rules(cfg: RunConfig) -> tuple[float, float, float, float, float]:
    """Expand the pulse rules against the lattice delta target: the pulse in
    units of its width, d = Delta/omega0 and s_f = omega0 t_f, then omega0,
    t_f and Delta as the rules give them (E_R/hbar and hbar/E_R).  "5/omega0"
    is s_f = 5 exactly, and "delta" under "delta/4" is d = 4 exactly wherever
    delta/4 is a normal float, as it is wherever 5/omega0 is finite."""
    delta, rules = cfg.lattice.delta_target_er, cfg.pulse
    omega0 = delta / 4.0 if rules.omega0_er == "delta/4" else float(rules.omega0_er)
    if not omega0 > 0:
        raise ConfigError(f"pulse.omega0_er = delta/4 is 0 at lattice.delta_target_er = {delta!r}")
    t_f = 5.0 / omega0 if rules.cutoff == "5/omega0" else float(rules.cutoff)
    if not math.isfinite(t_f):
        raise ConfigError(f"pulse.cutoff = 5/omega0 overflows at pulse.omega0_er = {omega0!r}")
    s_f = 5.0 if rules.cutoff == "5/omega0" else omega0 * t_f
    detuning = delta if rules.detuning_er == "delta" else float(rules.detuning_er)
    return detuning / omega0, s_f, omega0, t_f, detuning
