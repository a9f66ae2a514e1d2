"""Confinement regions, normal modes and geometric phases for a charged
particle in a Penning-trap quadrupole superposed with a rotating magnetic
field, computed in the rotating frame."""

__version__ = "0.1.0"

from . import errors, model, phases, spectral, sweep
from .errors import *
from .model import *
from .phases import *
from .spectral import *
from .sweep import *

__all__ = ["__version__"] + [
    name for module in (errors, model, spectral, phases, sweep) for name in module.__all__
]
