"""Rotating-frame model of a charged spinless particle in a Penning trap
superposed with a rotating magnetic field.

Unit conventions (hbar = m = 1): magnetic couplings enter only through the
Larmor frequencies b = |e|B/(2mc) and b0 = |e|B0/(2mc); the sign of the
charge is absorbed into those magnitudes. The canonical phase-space ordering
is u = (x1, x2, x3, p1, p2, p3) everywhere, with the symplectic unit J fixed
as the module constant ``J6``.

The rotating-frame generator is built from the static field configuration
(B, 0, B0) minus omega times the axial angular momentum L3; all dynamics in
the rest of the package derives from the symmetric 6x6 coefficient matrix
assembled here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError

__all__ = [
    "J6",
    "SystemParams",
    "PenningQuadrupole",
    "IsotropicOscillator",
    "BindingPotential",
    "BINDINGS",
    "QuadraticForm",
    "make_params_dimensionless",
    "make_params_adiabatic",
    "build_G",
    "build_L3_form",
    "classical_energy",
]

#: Symplectic unit in the (x, p) block ordering.
J6 = np.block([[np.zeros((3, 3)), np.eye(3)], [-np.eye(3), np.zeros((3, 3))]])
J6.setflags(write=False)


@dataclass(frozen=True)
class SystemParams:
    """Physical frequencies of the trap/field configuration.

    Attributes
    ----------
    b : float
        Larmor frequency of the transverse (rotating) field component.
    b0 : float
        Larmor frequency of the axial field component.
    w0 : float
        Binding-potential frequency.
    omega : float
        Rotation frequency of the transverse field (0 = static/adiabatic).

    Physical frequencies are stored, not the dimensionless ratios, because
    omega-derivatives must be taken at fixed fields; the dimensionless
    combinations are exposed as derived accessors.
    """

    b: float
    b0: float
    w0: float
    omega: float = 0.0

    def __post_init__(self):
        # field magnitudes: sign of the field direction is absorbed
        object.__setattr__(self, "b", abs(float(self.b)))
        object.__setattr__(self, "b0", abs(float(self.b0)))
        object.__setattr__(self, "w0", float(self.w0))
        object.__setattr__(self, "omega", float(self.omega))
        if self.w0 < 0:
            raise DomainError(f"binding frequency w0 must be >= 0, got {self.w0}")
        if self.omega < 0:
            raise DomainError(f"rotation frequency omega must be >= 0, got {self.omega}")
        if not all(math.isfinite(v) for v in (self.b, self.b0, self.w0, self.omega)):
            raise DomainError("parameters must be finite")

    @property
    def alpha(self) -> float:
        """b/omega; defined only for omega > 0."""
        if self.omega <= 0:
            raise DomainError("alpha is undefined at omega = 0")
        return self.b / self.omega

    @property
    def alpha0(self) -> float:
        """b0/omega; defined only for omega > 0."""
        if self.omega <= 0:
            raise DomainError("alpha0 is undefined at omega = 0")
        return self.b0 / self.omega

    @property
    def w(self) -> float:
        """w0/omega; defined only for omega > 0."""
        if self.omega <= 0:
            raise DomainError("w is undefined at omega = 0")
        return self.w0 / self.omega

    @property
    def k(self) -> float:
        """Field ratio B/B0; defined only for b0 > 0."""
        if self.b0 <= 0:
            raise DomainError("k is undefined at b0 = 0")
        return self.b / self.b0

    @property
    def is_penning_loop(self) -> bool:
        """True when w0 = (4/3) b0 (the commensurate static configuration)."""
        return math.isclose(self.w0, 4.0 * self.b0 / 3.0, rel_tol=1e-12, abs_tol=1e-15)

    @classmethod
    def penning_loop(cls, b0: float, b: float = 0.0, omega: float = 0.0) -> "SystemParams":
        """Construct with the loop constraint w0 = (4/3) b0 enforced exactly."""
        return cls(b=b, b0=b0, w0=4.0 * abs(float(b0)) / 3.0, omega=omega)


def make_params_dimensionless(alpha: float, alpha0: float, w: float) -> SystemParams:
    """Parameters from the dimensionless triple (alpha, alpha0, w), omega = 1.

    The rotation frequency is taken as the time unit, so b = alpha,
    b0 = alpha0 and w0 = w.
    """
    if alpha < 0 or alpha0 < 0 or w < 0:
        raise DomainError(
            f"dimensionless parameters must be >= 0, got ({alpha}, {alpha0}, {w})"
        )
    return SystemParams(b=alpha, b0=alpha0, w0=w, omega=1.0)


def make_params_adiabatic(k: float, omega: float = 0.0) -> SystemParams:
    """Parameters for the adiabatic sweep: b0 = 1 (field unit), b = k, loop binding.

    omega = 0 is the exact adiabatic point.
    """
    if k <= 0:
        raise DomainError(f"field ratio k must be > 0, got {k}")
    if omega < 0:
        raise DomainError(f"omega must be >= 0, got {omega}")
    return SystemParams(b=k, b0=1.0, w0=4.0 / 3.0, omega=omega)


@dataclass(frozen=True)
class PenningQuadrupole:
    """Quadrupole binding V = (w0^2/2) (x3^2 - (x1^2 + x2^2)/2).

    The transverse curvature is negative.
    """

    w0: float

    def curvatures(self):
        w2 = self.w0 * self.w0
        return (-0.5 * w2, -0.5 * w2, w2)

    def potential(self, x) -> float:
        return 0.5 * self.w0**2 * (x[2] ** 2 - (x[0] ** 2 + x[1] ** 2) / 2.0)


@dataclass(frozen=True)
class IsotropicOscillator:
    """Spherical binding V = (w0^2/2) (x1^2 + x2^2 + x3^2)."""

    w0: float

    def curvatures(self):
        w2 = self.w0 * self.w0
        return (w2, w2, w2)

    def potential(self, x) -> float:
        return 0.5 * self.w0**2 * (x[0] ** 2 + x[1] ** 2 + x[2] ** 2)


BindingPotential = Union[PenningQuadrupole, IsotropicOscillator]

#: Binding kinds by name, each constructed from its frequency w0.
BINDINGS = {"penning": PenningQuadrupole, "oscillator": IsotropicOscillator}


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric coefficient matrix S of a quadratic observable (1/2) u^T S u."""

    S: np.ndarray

    def __post_init__(self):
        S = np.asarray(self.S, dtype=float)
        if S.shape != (6, 6):
            raise DomainError(f"expected a 6x6 matrix, got {S.shape}")
        if not np.array_equal(S, S.T):
            raise DomainError("coefficient matrix must be exactly symmetric")
        S.setflags(write=False)
        object.__setattr__(self, "S", S)

    def value(self, u) -> float:
        """Scalar (1/2) u^T S u."""
        u = np.asarray(u, dtype=float)
        return 0.5 * float(u @ self.S @ u)


def _as_matrix(Q) -> np.ndarray:
    """The coefficient matrix of a QuadraticForm, or an array-like as floats."""
    return Q.S if isinstance(Q, QuadraticForm) else np.asarray(Q, dtype=float)


def classical_energy(u, params: SystemParams, binding: BindingPotential) -> float:
    """Rotating-frame energy evaluated directly from its defining expression.

    Kinetic term for the static field orientation (B, 0, B0), plus the binding
    potential, minus omega * (x1 p2 - x2 p1). Serves as the independent oracle
    for the matrix build.
    """
    x1, x2, x3, p1, p2, p3 = np.asarray(u, dtype=float)
    b, b0, om = params.b, params.b0, params.omega
    kinetic = 0.5 * ((p1 - b0 * x2) ** 2 + (p2 + b0 * x1 - b * x3) ** 2 + (p3 + b * x2) ** 2)
    return kinetic + binding.potential((x1, x2, x3)) - om * (x1 * p2 - x2 * p1)


def build_G(params: SystemParams, binding: BindingPotential | None = None) -> QuadraticForm:
    """Coefficient matrix of the rotating-frame generator.

    Parameters
    ----------
    params : SystemParams
    binding : BindingPotential, optional
        Defaults to the Penning quadrupole at params.w0.

    Returns
    -------
    QuadraticForm
        S such that (1/2) u^T S u equals :func:`classical_energy`.
    """
    if binding is None:
        binding = PenningQuadrupole(params.w0)
    return QuadraticForm(_generator(params.b, params.b0, params.omega, binding.curvatures()))


def _generator(b, b0, omega, curvatures, shape=()) -> np.ndarray:
    """Entries of S, broadcast over a stack of the given shape.

    Scalars give one 6x6 matrix; arrays of ``shape`` (e.g. the cells of a
    grid) give ``shape + (6, 6)``, each slice bit-identical to the scalar
    build at that point. Squares are written as products because a float's
    ``x**2`` calls C ``pow``, which can differ from NumPy's array square in
    the last bit.
    """
    k1, k2, k3 = curvatures
    S = np.zeros(shape + (6, 6))
    S[..., 0, 0] = b0 * b0 + k1
    S[..., 1, 1] = b0 * b0 + b * b + k2
    S[..., 2, 2] = b * b + k3
    S[..., 0, 2] = S[..., 2, 0] = -b * b0
    S[..., 0, 4] = S[..., 4, 0] = b0 - omega
    S[..., 1, 3] = S[..., 3, 1] = omega - b0
    S[..., 1, 5] = S[..., 5, 1] = b
    S[..., 2, 4] = S[..., 4, 2] = -b
    S[..., 3, 3] = S[..., 4, 4] = S[..., 5, 5] = 1.0
    return S


def build_L3_form() -> QuadraticForm:
    """Axial angular momentum L3 = x1 p2 - x2 p1 as a quadratic form."""
    S = np.zeros((6, 6))
    S[0, 4] = S[4, 0] = 1.0
    S[1, 3] = S[3, 1] = -1.0
    return QuadraticForm(S)
