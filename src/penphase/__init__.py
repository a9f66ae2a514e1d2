"""Confinement regions, normal modes and geometric phases for a charged
particle in a Penning-trap quadrupole superposed with a rotating magnetic
field, computed in the rotating frame."""

__version__ = "0.1.0"

from .errors import (
    DegeneracyError,
    DomainError,
    MultiCrossingError,
    NoCyclicStatesError,
    NumericalError,
    SaturationError,
)
from .model import (
    J6,
    BindingPotential,
    IsotropicOscillator,
    PenningQuadrupole,
    QuadraticForm,
    SystemParams,
    build_G,
    build_L3_form,
    classical_energy,
    make_params_adiabatic,
    make_params_dimensionless,
)
from .spectral import (
    Classification,
    Mode,
    ModeSpectrum,
    NormalModeBasis,
    ProbeResult,
    boundedness_probe,
    classify,
    krein_sign,
    normal_mode_basis,
    propagate,
    stable_modes,
    track_modes,
)
from .phases import (
    FockLabel,
    PhaseReport,
    ResonanceShift,
    aa_phase,
    berry_phase_adiabatic,
    cos_theta,
    dmode_domega,
    expectation_quadratic,
    quasienergy,
    resonance_shift,
)
from .sweep import (
    CurveTable,
    GridSpec,
    KcrResult,
    RegionMap,
    curve_fig2,
    find_kcr,
    refine_boundary,
    sweep_fig1,
)

__all__ = [
    "__version__",
    # errors
    "DomainError", "NumericalError", "DegeneracyError", "SaturationError",
    "MultiCrossingError", "NoCyclicStatesError",
    # model
    "J6", "SystemParams", "PenningQuadrupole", "IsotropicOscillator",
    "BindingPotential", "QuadraticForm",
    "make_params_dimensionless", "make_params_adiabatic",
    "build_G", "build_L3_form", "classical_energy",
    # spectral
    "Classification", "Mode", "ModeSpectrum", "NormalModeBasis",
    "classify", "stable_modes", "krein_sign", "normal_mode_basis", "track_modes",
    "propagate", "boundedness_probe", "ProbeResult",
    # phases
    "FockLabel", "PhaseReport", "ResonanceShift", "quasienergy",
    "expectation_quadratic", "dmode_domega", "aa_phase", "berry_phase_adiabatic",
    "cos_theta", "resonance_shift",
    # sweep
    "GridSpec", "RegionMap", "CurveTable", "KcrResult", "sweep_fig1",
    "refine_boundary", "find_kcr", "curve_fig2",
]
