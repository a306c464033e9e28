"""mottreg: simulator and error-budget engine for initialising a
neutral-atom quantum register by extracting single atoms from a
lattice-bound Mott insulator into microtrap arrays."""

__version__ = "0.1.0"

from .units import RB87, AtomSpecies, recoil_energy  # noqa: F401
from .errors import ConfigError, NumericsError, PhysicsDomainError, ProtocolError  # noqa: F401
