"""Orchestration of the two extraction schemes: wires the lattice, pulse,
removal, and transfer modules along the protocol time sequence, aggregates
per-step failure channels, and sweeps parameters.

Failure channels combine as independent events (1 - prod(1 - p)); with every
p well below 1e-3 this matches the plain channel sum to first order, and the
report carries both.  Budgets are fully deterministic.

Every CLI report echoes its config through this module, so it imports no
physics module at load time: each builder and scheme function imports the
modules it calls, by absolute import (the cheaper form once loaded) in each
function that a sweep row runs (_scheme1, _step_two, pi_pulse, transfer_ramp).
"""
from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass, field

from .config import (RunConfig, check_combinations, check_fields, config_to_dict,
                     resolve_pulse_rules, set_field, validate_config)
from .errors import NumericsError, PhysicsDomainError
from .units import HBAR, RB87, recoil_energy

__all__ = [
    "StepReport",
    "ProtocolBudget",
    "run_scheme1",
    "run_scheme2",
    "sweep",
    "resolved_config_echo",
    "lattice_recoil",
    "patterned_lattice",
    "pi_pulse",
    "removal_drive",
    "transfer_ramp",
    "FocusMove",
    "moving_focus",
]

# the site arrays of one pattern period cost about 90 bytes per site, so a
# period holds at most the ~110 MB the pi pulse and the moving-focus profile
# may hold
_MAX_PERIOD = 1_200_000

@dataclass(frozen=True)
class StepReport:
    """One protocol step: duration in seconds and its failure channels."""

    name: str
    duration: float
    failure_channels: tuple[tuple[str, float], ...]

    def __post_init__(self):
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
    # 1 - prod(1 - p) as -expm1(sum log1p(-p)), which does not cancel against 1
    survival = math.fsum(math.log1p(-p) if p < 1.0 else -math.inf for p in probs)
    return ProtocolBudget(steps=reports,
                          total_time=cycles * sum(s.duration for s in reports),
                          total_failure=0.0 - math.expm1(survival),  # never -0.0
                          channel_sum=sum(probs), atoms_extracted=atoms,
                          extraction_fraction=fraction, cycles=cycles, extras=extras)


def _lpol_wavelength_m(cfg: RunConfig) -> float:
    lam = cfg.lattice.lpol_wavelength_nm
    if lam == "optimize":
        from .stark import optimize_lpol_wavelength
        exclusion = cfg.lattice.band_exclusion_nm * 1e-9
        return optimize_lpol_wavelength(RB87, exclusion=exclusion)[0]
    return float(lam) * 1e-9


# ---------------------------------------------------------------------------
# one builder per protocol step, shared by the budgets and the CLI reports;
# the atom is always Rb-87
# ---------------------------------------------------------------------------

def lattice_recoil(cfg: RunConfig) -> float:
    """The short-lattice recoil energy E_R in J; hbar/E_R is the time unit."""
    return recoil_energy(cfg.lattice.lambda_s_nm * 1e-9)


def patterned_lattice(cfg: RunConfig) -> lattice_mod.SuperlatticeConfig:
    """The superlattice geometry of the configured pattern."""
    from . import superlattice as lattice_mod
    if cfg.lattice.pattern_period > _MAX_PERIOD:
        raise NumericsError(f"lattice.pattern_period = {cfg.lattice.pattern_period} "
                            f"exceeds {_MAX_PERIOD} sites (about 110 MB of arrays)")
    return lattice_mod.SuperlatticeConfig(
        spol_wavelength=cfg.lattice.lambda_s_nm * 1e-9,
        spol_depth=cfg.lattice.depth_er,
        pattern_period=cfg.lattice.pattern_period,
        lpol_wavelength=_lpol_wavelength_m(cfg),
        lpol_phase=cfg.lattice.lpol_phase_nm * 1e-9)


def pi_pulse(cfg: RunConfig) -> tuple[pulse_mod.GaussianPulse, float, float, float]:
    """The pi pulse of the resolved rules in units of its width, and the width
    omega0, cutoff t_f and detuning that the rules give in natural units."""
    import mottreg.pulse as pulse_mod
    d, s_f, omega0, t_f, detuning = resolve_pulse_rules(cfg)
    return pulse_mod.GaussianPulse(detuning=d, cutoff=s_f), omega0, t_f, detuning


def removal_drive(cfg: RunConfig) -> removal_mod.RemovalPlan:
    """The removing-laser drive that scatters the trap depth's photon threshold."""
    from . import removal as removal_mod
    threshold = removal_mod.removal_photon_threshold(cfg.removal.trap_depth_er)
    return removal_mod.solve_removal_drive(
        threshold, cfg.removal.duration_us * 1e-6, cfg.removal.excited_population_cap)


def transfer_ramp(cfg: RunConfig) -> transfer_mod.HarmonicRamp:
    """The lattice-to-microtrap frequency ramp (natural units)."""
    import mottreg.transfer as transfer_mod
    omega_i = transfer_mod.initial_frequency(cfg.lattice.depth_er)
    ratio = cfg.transfer.frequency_ratio
    omega_f = omega_i * ratio if cfg.transfer.direction == "deepen" else omega_i / ratio
    ramp = transfer_mod.HarmonicRamp(initial_frequency=omega_i, adiabaticity=cfg.transfer.xi,
                                     final_frequency=omega_f)
    if not math.isfinite(ramp.duration):
        raise PhysicsDomainError(f"transfer.xi = {cfg.transfer.xi!r} makes the transfer ramp "
                                 "longer than the float range")
    return ramp


@dataclass(frozen=True)
class FocusMove:
    """One moving-focus extraction: the channel potential, its schedule, the
    adiabaticity xi_bar, the move time in seconds, and the excitation and
    scattering probabilities."""

    potential: speedup_mod.DoubleGaussianPotential
    schedule: speedup_mod.MovingSchedule
    xi_bar: float
    move_time: float
    p_exc: float
    p_scatter: float


def moving_focus(cfg: RunConfig) -> FocusMove:
    """The focus move over the configured displacement at xi_bar = sqrt(target / 4):
    T = int |<e|dH/da|g>| / (xi_bar gap^2) da, the amplitude ceiling P_exc =
    4 xi_bar^2, and P_scatter = (Gamma_eff/|Delta_0|) int |V(y_min)| dt along
    the move, for the focus detuning Delta_0 and its calibrated linewidth,
    clamped at 1."""
    from . import speedup as speedup_mod
    spd = cfg.speedup
    xi_bar = math.sqrt(spd.target_excitation / 4.0)
    if not xi_bar > 0:
        raise PhysicsDomainError(f"speedup.target_excitation = {spd.target_excitation!r} "
                                 "underflows to xi_bar = 0")
    potential = speedup_mod.DoubleGaussianPotential(
        confine_depth=spd.confine_depth, focus_depth=spd.focus_depth,
        focus_waist=spd.focus_waist_ratio)
    schedule = speedup_mod.build_moving_schedule(
        potential, spd.final_displacement_sigma, basis_size=spd.basis_size)
    move_time = (schedule.integral() / xi_bar
                 * speedup_mod.time_unit(spd.sigma_c_um * 1e-6))
    p_scatter = min(1.0, spd.effective_linewidth_rad_s / abs(spd.focus_detuning_rad_s)
                    * schedule.integral(schedule.depth_profile) / xi_bar)
    return FocusMove(potential, schedule, xi_bar, move_time, 4.0 * xi_bar ** 2, p_scatter)


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------

def _reuse(stages: dict, key: tuple, compute):
    """The result stored under key, computed on first use; a key holds every
    value its stage reads (the atom is always Rb-87)."""
    if key not in stages:
        stages[key] = compute()
    return stages[key]


def _lattice_stage(cfg: RunConfig):
    """The site evaluation at the delta target and the LPOL ramp to the A
    site's shift; both read the lattice section alone."""
    from . import superlattice as lattice_mod
    config = patterned_lattice(cfg)
    sites = lattice_mod.site_hyperfine_detunings(config, cfg.lattice.delta_target_er)
    return config, sites, lattice_mod.lpol_ramp_time(config.spol_depth, max(sites.delta_diff),
                                                     cfg.lattice.ramp_target_excitation)


def _step_two(cfg: RunConfig, time_unit: float, stages: dict) -> tuple[tuple, dict]:
    """The selective-depopulation step (name, duration, channels) of both
    schemes and its scheme-1 extras; rows share the lattice stage of equal
    lattice sections and the pulse of equal pairs (d, s_f)."""
    import mottreg.pulse as pulse_mod, mottreg.superlattice as lattice_mod
    lattice_config, sites, ramp = _reuse(stages, ("lattice", *vars(cfg.lattice).values()),
                                         lambda: _lattice_stage(cfg))
    pulse, omega0, t_f, _ = pi_pulse(cfg)
    p_flip = _reuse(stages, ("pulse", pulse), lambda: pulse_mod.rabi_evolve(pulse)).p_flip

    # ramp up, hold at full intensity for the pulse, ramp down (time-reversed)
    ramp_time = ramp.duration * time_unit
    hold = 2.0 * t_f * time_unit
    # the A site's rate is linear in intensity: its peak rate x full-intensity time
    exposure = 2.0 * (lattice_mod.lpol_exposure(ramp) * time_unit) + hold
    channels = (("lpol_ramp_excitation", cfg.lattice.ramp_target_excitation),
                ("pulse_flip_error", p_flip),
                ("step2_scattering", min(1.0, sites.gamma_a * exposure)))
    extras = {
        "lpol_wavelength_nm": lattice_config.lpol_wavelength * 1e9,
        "lpol_intensity_w_m2": sites.intensity,
        "delta_realized_er": sites.delta,
        "lpol_ramp_us": ramp_time * 1e6,
        "pulse_omega0_er": omega0,
        "pulse_peak_rabi_er": omega0 * pulse.peak_rabi,
    }
    return ("selective_depop", 2.0 * ramp_time + hold, channels), extras


def _removal_stage(cfg: RunConfig):
    from . import removal as removal_mod
    plan = removal_drive(cfg)
    return plan, min(1.0, removal_mod.photon_count(plan.rabi_frequency,
                                                   RB87.hyperfine_splitting, plan.duration))


def _scheme1(cfg: RunConfig, stages: dict) -> ProtocolBudget:
    import mottreg.removal as removal_mod, mottreg.transfer as transfer_mod
    import mottreg.superlattice as lattice_mod
    time_unit = HBAR / lattice_recoil(cfg)
    step_two, extras = _step_two(cfg, time_unit, stages)
    plan, p_impact = _reuse(stages, ("removal", *vars(cfg.removal).values()),
                            lambda: _removal_stage(cfg))
    p_collision = removal_mod.collision_probability(
        plan.duration, cfg.removal.tunneling_time_ms * 1e-3)

    ramp = transfer_ramp(cfg)
    transfer_duration = ramp.duration * time_unit
    p_transfer = transfer_mod.max_excitation_analytic(ramp)

    steps = [
        ("mott_prep", 0.0, ()),
        step_two,
        ("removal", plan.duration, (("removal_target_impact", p_impact),
                                    ("collision", p_collision))),
        ("transfer", transfer_duration, (("transfer_excitation", p_transfer),)),
    ]
    targets, fraction = lattice_mod.pattern_yield(cfg.lattice.total_sites,
                                                  cfg.lattice.pattern_period)
    extras = {
        **extras,
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
    from . import speedup as speedup_mod
    step_two, _ = _step_two(cfg, HBAR / lattice_recoil(cfg), {})
    move = moving_focus(cfg)

    spd = cfg.speedup
    steps = [
        ("mott_prep", 0.0, ()),
        step_two,
        ("speedup_move", move.move_time, (("move_excitation", move.p_exc),
                                          ("move_scattering", move.p_scatter))),
    ]
    fraction = speedup_mod.cycle_yield(spd.cycles, spd.per_cycle_fraction)
    atoms = int(math.floor(fraction * cfg.lattice.total_sites))
    extras = {
        "xi_bar": move.xi_bar,
        "move_time_ms": move.move_time * 1e3,
        "p_exc": move.p_exc,
        "p_scatter": move.p_scatter,
        "yield_after_cycles": fraction,
    }
    return _compose(steps, atoms, fraction, extras, cycles=spd.cycles)


def sweep(cfg: RunConfig, parameter: str, values) -> list[dict]:
    """One scheme-1 budget per grid value of a dotted config parameter.

    Rows are returned in grid order, and each equals the row of an
    independent run_scheme1 on that row's config.  Within one call, the site
    evaluation and LPOL ramp are computed once per distinct lattice section,
    the pi pulse once per distinct pair (d, s_f), and the removal drive once
    per distinct removal section; a transfer.xi sweep, and a delta sweep
    under the default pulse rules, thus integrate one pulse.  Nothing is
    kept between calls.  Later rows check only the swept field and the
    cross-field combinations, as they differ from the first in that field.
    """
    stages: dict = {}
    rows = []
    section = parameter.partition(".")[0]
    known = section in {f.name for f in dataclasses.fields(cfg)}
    for value in values:
        # set_field writes one field of the named section, so only that
        # section needs a copy of its own
        trial = copy.copy(cfg)
        if known:
            setattr(trial, section, copy.copy(getattr(cfg, section)))
        set_field(trial, parameter, value)
        if rows:
            check_fields(trial, (parameter,))
            check_combinations(trial)
        else:
            validate_config(trial)
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
    echo = config_to_dict(cfg)
    if cfg.lattice.lpol_wavelength_nm == "optimize":
        echo["lattice"]["lpol_wavelength_nm"] = _lpol_wavelength_m(cfg) * 1e9
    _, _, omega0, t_f, detuning = resolve_pulse_rules(cfg)
    echo["pulse"]["omega0_er"] = omega0
    echo["pulse"]["cutoff"] = t_f
    echo["pulse"]["detuning_er"] = detuning
    return echo
