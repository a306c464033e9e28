"""Every name a mottreg module exports in __all__ exists, and the physics
layer declares neither the operating point nor the atom a second time."""
import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import mottreg
from mottreg import cli, removal, speedup, stark, superlattice, transfer, units


def test_every_exported_name_exists():
    modules = [mottreg] + [importlib.import_module(f"mottreg.{info.name}")
                           for info in pkgutil.iter_modules(mottreg.__path__)]
    assert len(modules) > 10
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


# the parameters and fields whose value config.RunConfig sets: each caller
# passes the configured value, so none has a default of its own
_CONFIGURED = [
    *((superlattice.SuperlatticeConfig, name) for name in (
        "spol_wavelength", "spol_depth", "pattern_period", "lpol_wavelength", "lpol_phase")),
    (superlattice.lpol_ramp_time, "depth"),
    (speedup.DoubleGaussianPotential, "focus_waist"),
    (speedup.local_basis, "size"),
    (speedup.gap_and_element, "size"),
    (speedup.path_profile, "basis_size"),
    (speedup.build_moving_schedule, "basis_size"),
    (speedup.cycle_yield, "per_cycle_fraction"),
    (removal.solve_removal_drive, "excited_population_cap"),
    (stark.default_search_band, "exclusion"),
    (stark.optimize_lpol_wavelength, "exclusion"),
    (cli.emit, "digits"),
]


@pytest.mark.parametrize("owner, name", _CONFIGURED,
                         ids=[f"{owner.__name__}.{name}" for owner, name in _CONFIGURED])
def test_configured_value_has_no_default(owner, name):
    if dataclasses.is_dataclass(owner):
        (field,) = [f for f in dataclasses.fields(owner) if f.name == name]
        assert field.default is dataclasses.MISSING
        assert field.default_factory is dataclasses.MISSING
    else:
        assert inspect.signature(owner).parameters[name].default is inspect.Parameter.empty


@pytest.mark.parametrize("function", [superlattice.lpol_light_shifts,
                                      superlattice.site_hyperfine_detunings,
                                      stark.wavelength_scan])
def test_rb87_only_function_takes_no_species(function):
    # these read units.RB87 themselves; stark's substitutable functions keep theirs
    assert "species" not in inspect.signature(function).parameters


@pytest.mark.parametrize("function, name", [(speedup.time_unit, "mass"),
                                            (units.recoil_energy, "mass"),
                                            (removal.photon_count, "linewidth"),
                                            (removal.resonant_photon_count, "linewidth"),
                                            (removal.solve_removal_drive, "linewidth"),
                                            (removal._bloch_generator, "linewidth"),
                                            (transfer.band_tunneling, "n_waves"),
                                            (transfer.excitation_numeric, "n_samples")])
def test_parameter_with_one_value_is_gone(function, name):
    # these read units.RB87's mass or D2 linewidth, and band_tunneling's
    # plane-wave count and excitation_numeric's sample count are constants
    assert name not in inspect.signature(function).parameters
