"""Orchestration of the two extraction schemes: wires the lattice, pulse,
removal, and transfer modules along the protocol time sequence, aggregates
per-step failure channels, and sweeps parameters.

Failure channels combine as independent events (1 - prod(1 - p)); with every
p well below 1e-3 this matches the plain channel sum to first order, and the
report carries both.  Budgets are fully deterministic.
"""
from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass, field

from . import removal as removal_mod
from . import speedup as speedup_mod
from . import superlattice as lattice_mod
from . import transfer as transfer_mod
from .config import RunConfig, build_species, config_to_dict, resolve_pulse_rules, set_by_path
from .errors import NumericsError, PhysicsDomainError
from .pulse import GaussianPulse, pi_pulse_amplitude, rabi_evolve, step2_scattering_probability
from .stark import optimize_lpol_wavelength
from .units import AtomSpecies, UnitSystem

__all__ = [
    "StepReport",
    "ProtocolBudget",
    "run_scheme1",
    "run_scheme2",
    "sweep",
    "resolve_lpol_wavelength",
    "resolved_config_echo",
    "species_and_units",
    "patterned_lattice",
    "pi_pulse",
    "removal_drive",
    "removal_photons",
    "transfer_ramp",
    "FocusMove",
    "moving_focus",
]

# the site arrays of one pattern period cost about 90 bytes per site, so a
# period holds at most the ~110 MB the pi pulse and the moving-focus profile
# may hold
_MAX_PERIOD = 1_200_000

STEP_NAMES = ("mott_prep", "selective_depop", "removal", "transfer", "speedup_move")


@dataclass(frozen=True)
class StepReport:
    """One protocol step: duration in seconds and its failure channels."""

    name: str
    duration: float
    failure_channels: tuple[tuple[str, float], ...]

    def __post_init__(self):
        if self.name not in STEP_NAMES:
            raise PhysicsDomainError(f"unknown step name '{self.name}'")
        if self.duration < 0:
            raise PhysicsDomainError("step duration must be >= 0")
        for label, p in self.failure_channels:
            if not 0.0 <= p <= 1.0:
                raise PhysicsDomainError(f"channel '{label}' probability outside [0, 1]")


@dataclass(frozen=True)
class ProtocolBudget:
    """Aggregate timing and failure budget of one scheme run.

    For the cyclic scheme the steps describe one representative cycle and
    total_time = cycles * sum(step durations); failure stays per extracted
    atom (each atom passes through one cycle).
    """

    steps: tuple[StepReport, ...]
    total_time: float
    total_failure: float
    channel_sum: float
    atoms_extracted: int
    extraction_fraction: float
    cycles: int = 1
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "steps": [{"name": s.name, "duration_us": s.duration * 1e6,
                       "channels": [{"label": lbl, "p": p}
                                    for lbl, p in s.failure_channels]}
                      for s in self.steps],
            "total_time_us": self.total_time * 1e6,
            "total_failure": self.total_failure,
            "channel_sum": self.channel_sum,
            "atoms_extracted": self.atoms_extracted,
            "extraction_fraction": self.extraction_fraction,
            "cycles": self.cycles,
            **self.extras,
        }


def _compose(steps: list[tuple[str, float, tuple]], atoms: int, fraction: float,
             extras: dict, cycles: int = 1) -> ProtocolBudget:
    """Budget of (name, duration, channels) steps."""
    reports = tuple(StepReport(name=name, duration=duration, failure_channels=channels)
                    for name, duration, channels in steps)
    probs = [p for s in reports for _, p in s.failure_channels]
    return ProtocolBudget(steps=reports,
                          total_time=cycles * sum(s.duration for s in reports),
                          total_failure=1.0 - math.prod(1.0 - p for p in probs),
                          channel_sum=sum(probs), atoms_extracted=atoms,
                          extraction_fraction=fraction, cycles=cycles, extras=extras)


def _lpol_wavelength_m(cfg: RunConfig, species) -> float:
    lam = cfg.lattice.lpol_wavelength_nm
    if lam == "optimize":
        exclusion = cfg.lattice.band_exclusion_nm * 1e-9
        return optimize_lpol_wavelength(species, exclusion=exclusion)[0]
    return float(lam) * 1e-9


def resolve_lpol_wavelength(cfg: RunConfig) -> RunConfig:
    """cfg itself, or for lpol_wavelength_nm = "optimize" a copy holding the
    optimum in nm, so that a run which needs the wavelength twice (budget
    and echo) optimises once."""
    if cfg.lattice.lpol_wavelength_nm != "optimize":
        return cfg
    resolved = copy.deepcopy(cfg)
    resolved.lattice.lpol_wavelength_nm = (
        _lpol_wavelength_m(cfg, build_species(cfg.species)) * 1e9)
    return resolved


# ---------------------------------------------------------------------------
# one builder per protocol step, shared by the budgets and the CLI reports
# ---------------------------------------------------------------------------

def species_and_units(cfg: RunConfig) -> tuple[AtomSpecies, UnitSystem]:
    """The species and the natural units of its short lattice."""
    species = build_species(cfg.species)
    return species, UnitSystem.for_lattice(species, cfg.lattice.lambda_s_nm * 1e-9)


def patterned_lattice(cfg: RunConfig, species: AtomSpecies) -> lattice_mod.SuperlatticeConfig:
    """The superlattice with the LPOL intensity that gives the delta target."""
    if cfg.lattice.pattern_period > _MAX_PERIOD:
        raise NumericsError(f"lattice.pattern_period = {cfg.lattice.pattern_period} "
                            f"exceeds {_MAX_PERIOD} sites (about 110 MB of arrays)")
    base = lattice_mod.SuperlatticeConfig(
        spol_wavelength=cfg.lattice.lambda_s_nm * 1e-9,
        spol_depth=cfg.lattice.depth_er,
        pattern_period=cfg.lattice.pattern_period,
        lpol_wavelength=_lpol_wavelength_m(cfg, species),
        lpol_phase=cfg.lattice.lpol_phase_nm * 1e-9)
    intensity = lattice_mod.solve_intensity_for_delta(base, species,
                                                      cfg.lattice.delta_target_er)
    return dataclasses.replace(base, lpol_intensity=intensity)


def pi_pulse(cfg: RunConfig) -> GaussianPulse:
    """The Gaussian pi pulse of the resolved pulse rules (natural units)."""
    omega0, t_f, detuning = resolve_pulse_rules(cfg)
    return GaussianPulse(peak_rabi=pi_pulse_amplitude(omega0, t_f),
                         envelope_width=omega0, cutoff=t_f, detuning=detuning)


def removal_drive(cfg: RunConfig, species: AtomSpecies) -> removal_mod.RemovalPlan:
    """The removing-laser drive that scatters the trap depth's photon threshold."""
    threshold = removal_mod.removal_photon_threshold(cfg.removal.trap_depth_er)
    return removal_mod.solve_removal_drive(
        species.gamma2, threshold, cfg.removal.duration_us * 1e-6,
        cfg.removal.excited_population_cap)


def removal_photons(species: AtomSpecies, plan: removal_mod.RemovalPlan,
                    detuning: float) -> float:
    """Photons an atom at `detuning` (rad/s) scatters under the drive."""
    return removal_mod.photon_count(removal_mod.ObeParams(
        linewidth=species.gamma2, rabi_frequency=plan.rabi_frequency,
        detuning=detuning, duration=plan.duration))


def transfer_ramp(cfg: RunConfig) -> transfer_mod.HarmonicRamp:
    """The lattice-to-microtrap frequency ramp (natural units)."""
    omega_i = transfer_mod.initial_frequency(cfg.lattice.depth_er)
    ratio = cfg.transfer.frequency_ratio
    omega_f = omega_i * ratio if cfg.transfer.direction == "deepen" else omega_i / ratio
    return transfer_mod.HarmonicRamp(initial_frequency=omega_i,
                                     adiabaticity=cfg.transfer.xi,
                                     direction=cfg.transfer.direction,
                                     final_frequency=omega_f)


@dataclass(frozen=True)
class FocusMove:
    """One moving-focus extraction: the channel potential, its schedule, the
    move time in seconds, and the excitation and scattering probabilities."""

    potential: speedup_mod.DoubleGaussianPotential
    schedule: speedup_mod.MovingSchedule
    move_time: float
    p_exc: float
    p_scatter: float


def moving_focus(cfg: RunConfig, species: AtomSpecies) -> FocusMove:
    """The focus move over the configured displacement at xi_bar = sqrt(target / 4)."""
    spd = cfg.speedup
    potential = speedup_mod.DoubleGaussianPotential(
        confine_depth=spd.confine_depth, focus_depth=spd.focus_depth,
        confine_waist=1.0, focus_waist=spd.focus_waist_ratio)
    schedule = speedup_mod.build_moving_schedule(
        potential, spd.final_displacement_sigma, math.sqrt(spd.target_excitation / 4.0),
        n_points=spd.profile_points, basis_size=spd.basis_size)
    sp_units = speedup_mod.SpeedupUnits(sigma_c=spd.sigma_c_um * 1e-6,
                                        mass=species.mass)
    move_time = speedup_mod.moving_time(schedule) * sp_units.time
    laser = speedup_mod.FocusLaserModel(
        effective_linewidth=spd.effective_linewidth_rad_s,
        detuning=spd.focus_detuning_rad_s)
    p_exc, p_scatter = speedup_mod.excitation_and_scattering(schedule, laser)
    return FocusMove(potential, schedule, move_time, p_exc, p_scatter)


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _StepTwo:
    """Shared selective-depopulation results (used by both schemes)."""

    step: tuple[str, float, tuple]
    lattice_config: lattice_mod.SuperlatticeConfig
    delta_realized: float
    ramp_time: float
    pulse: GaussianPulse


def _run_step_two(cfg: RunConfig, species: AtomSpecies, units: UnitSystem) -> _StepTwo:
    lattice_config = patterned_lattice(cfg, species)
    delta_realized = lattice_mod.site_hyperfine_detunings(lattice_config, species).delta
    ramp = lattice_mod.lpol_ramp_time(lattice_config, species,
                                      cfg.lattice.ramp_target_excitation,
                                      delta_target=delta_realized)
    pulse = pi_pulse(cfg)
    p_flip = rabi_evolve(pulse).p_flip

    # ramp up, hold at full intensity for the pulse, ramp down (time-reversed)
    ramp_time = units.time_from_natural(ramp.duration)
    hold = units.time_from_natural(2.0 * pulse.cutoff)
    duration = 2.0 * ramp_time + hold
    p_scatter = step2_scattering_probability(
        lattice_config.lpol_intensity, species, lattice_config.lpol_wavelength,
        2.0 * units.time_from_natural(lattice_mod.lpol_exposure(ramp)) + hold)
    channels = (("lpol_ramp_excitation", cfg.lattice.ramp_target_excitation),
                ("pulse_flip_error", p_flip),
                ("step2_scattering", p_scatter))
    return _StepTwo(step=("selective_depop", duration, channels),
                    lattice_config=lattice_config, delta_realized=delta_realized,
                    ramp_time=ramp_time, pulse=pulse)


def _reuse(stages: dict, cfg: RunConfig, stage: str, sections: tuple[str, ...], compute):
    """The stage's result, computed on first use.  It is keyed by the values
    of the config sections the stage reads, so every later call whose
    sections match gets the same result.  Section fields are scalars or
    strings, so a shallow tuple of their values is the key."""
    key = (stage,) + tuple(tuple(vars(getattr(cfg, name)).values()) for name in sections)
    if key not in stages:
        stages[key] = compute()
    return stages[key]


def _removal_stage(cfg: RunConfig, species: AtomSpecies):
    plan = removal_drive(cfg, species)
    return plan, min(1.0, removal_photons(species, plan, species.hyperfine_splitting))


def _scheme1(cfg: RunConfig, stages: dict) -> ProtocolBudget:
    species, units = species_and_units(cfg)
    two = _reuse(stages, cfg, "step_two", ("species", "lattice", "pulse"),
                 lambda: _run_step_two(cfg, species, units))
    plan, p_impact = _reuse(stages, cfg, "removal", ("species", "removal"),
                            lambda: _removal_stage(cfg, species))
    p_collision = removal_mod.collision_probability(
        plan.duration, cfg.removal.tunneling_time_ms * 1e-3)

    ramp = transfer_ramp(cfg)
    transfer_duration = units.time_from_natural(ramp.duration)
    p_transfer = transfer_mod.max_excitation_analytic(ramp)

    steps = [
        ("mott_prep", 0.0, ()),
        two.step,
        ("removal", plan.duration, (("removal_target_impact", p_impact),
                                    ("collision", p_collision))),
        ("transfer", transfer_duration, (("transfer_excitation", p_transfer),)),
    ]
    targets, fraction = lattice_mod.pattern_yield(cfg.lattice.total_sites,
                                                  cfg.lattice.pattern_period,
                                                  cfg.lattice.dimensions)
    extras = {
        "lpol_wavelength_nm": two.lattice_config.lpol_wavelength * 1e9,
        "lpol_intensity_w_m2": two.lattice_config.lpol_intensity,
        "delta_realized_er": two.delta_realized,
        "lpol_ramp_us": two.ramp_time * 1e6,
        "pulse_omega0_er": two.pulse.envelope_width,
        "pulse_peak_rabi_er": two.pulse.peak_rabi,
        "removal_rabi_rad_s": plan.rabi_frequency,
        "removal_duration_us": plan.duration * 1e6,
        "removal_feasible_at_request": plan.feasible_at_request,
        "transfer_time_us": transfer_duration * 1e6,
    }
    return _compose(steps, targets, fraction, extras)


def run_scheme1(cfg: RunConfig) -> ProtocolBudget:
    """Four-step extraction: selective depopulation, removal, transfer.

    Each step duration comes from its module; channels cover LPOL ramp
    excitation, pulse flip error, step-II scattering, removal impact on
    targets, collision, and transfer excitation.
    """
    return _scheme1(cfg, {})


def run_scheme2(cfg: RunConfig) -> ProtocolBudget:
    """Cyclic moving-focus extraction: steps I-II plus the adiabatic move,
    repeated over melt/re-form cycles; per-atom failure is dominated by the
    move's excitation and scattering."""
    species, units = species_and_units(cfg)
    two = _run_step_two(cfg, species, units)
    move = moving_focus(cfg, species)

    spd = cfg.speedup
    steps = [
        ("mott_prep", 0.0, ()),
        two.step,
        ("speedup_move", move.move_time, (("move_excitation", move.p_exc),
                                          ("move_scattering", min(1.0, move.p_scatter)))),
    ]
    fraction = speedup_mod.cycle_yield(spd.cycles, spd.per_cycle_fraction)
    atoms = int(math.floor(fraction * cfg.lattice.total_sites))
    extras = {
        "xi_bar": move.schedule.adiabaticity,
        "move_time_ms": move.move_time * 1e3,
        "p_exc": move.p_exc,
        "p_scatter": move.p_scatter,
        "yield_after_cycles": fraction,
    }
    return _compose(steps, atoms, fraction, extras, cycles=spd.cycles)


def sweep(cfg: RunConfig, parameter: str, values) -> list[dict]:
    """One scheme-1 budget per grid value of a dotted config parameter.

    Rows are returned in grid order, and each equals the row of an
    independent run_scheme1 on that row's config.  Within one call, the
    selective-depopulation step (lattice, LPOL ramp, pi pulse, step-II
    scattering) is computed once per distinct species, lattice and pulse
    sections, and the removal drive once per distinct species and removal
    sections; a transfer.xi sweep thus integrates its pulse once.  Nothing
    is kept between calls.
    """
    stages: dict = {}
    rows = []
    section = parameter.partition(".")[0]
    known = section in {f.name for f in dataclasses.fields(cfg)}
    for value in values:
        # set_by_path writes one field of the named section, so only that
        # section needs a copy of its own
        trial = copy.copy(cfg)
        if known:
            setattr(trial, section, copy.copy(getattr(cfg, section)))
        set_by_path(trial, parameter, repr(value) if not isinstance(value, str) else value)
        budget = _scheme1(trial, stages)
        row = {"parameter": parameter, "value": value,
               "total_time_us": budget.total_time * 1e6,
               "total_failure": budget.total_failure,
               "atoms_extracted": budget.atoms_extracted,
               "extraction_fraction": budget.extraction_fraction}
        for step in budget.steps:
            for label, p in step.failure_channels:
                row[f"p_{label}"] = p
        rows.append(row)
    return rows


def resolved_config_echo(cfg: RunConfig) -> dict:
    """Config dict with every rule string expanded to its numeric value."""
    echo = config_to_dict(resolve_lpol_wavelength(cfg))
    omega0, t_f, detuning = resolve_pulse_rules(cfg)
    echo["pulse"]["omega0_er"] = omega0
    echo["pulse"]["cutoff"] = t_f
    echo["pulse"]["detuning_er"] = detuning
    return echo
