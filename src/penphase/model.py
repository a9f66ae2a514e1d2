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
assembled here. ``_generator`` writes the layout of that matrix S and
``_mu_cubic`` reads it, so no other module indexes S's entries.
"""

from __future__ import annotations

import sys
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
]


def _read_only(a: np.ndarray) -> np.ndarray:
    """A copy of a on an immutable bytes buffer: neither it nor any array on
    its ``base`` chain can have its write flag set back."""
    return np.frombuffer(a.tobytes(), dtype=a.dtype).reshape(a.shape)


#: Symplectic unit in the (x, p) block ordering.
J6 = _read_only(np.block([[np.zeros((3, 3)), np.eye(3)], [-np.eye(3), np.zeros((3, 3))]]))

#: Largest magnitude accepted for a frequency, field ratio or grid coordinate,
#: about 1.8e19. The generator's entries are quadratic in these, the
#: mu-cubic's c0 is cubic in the entries, and the grid's discriminant squares
#: c0: a polynomial of degree 12. At |x| <= max**(1/16) it stays near
#: max**(3/4), so no product along the way overflows to inf.
_MAX_MAGNITUDE = sys.float_info.max ** (1.0 / 16.0)


def _check_range(what: str, values) -> None:
    """Raise DomainError unless every value is finite and at most _MAX_MAGNITUDE.
    A tuple of Python floats is checked without NumPy, with the same outcome."""
    if type(values) is tuple and all(type(x) is float for x in values):
        ok = all(-_MAX_MAGNITUDE <= x <= _MAX_MAGNITUDE for x in values)
    else:
        ok = np.all(np.abs(np.asarray(values, dtype=float)) <= _MAX_MAGNITUDE)
    if not ok:
        raise DomainError(f"{what} must be finite and at most {_MAX_MAGNITUDE:.2g} in magnitude")


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
    omega-derivatives must be taken at fixed fields; the field ratio ``k``
    is a derived accessor.
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
        _check_range("parameters", (self.b, self.b0, self.w0, self.omega))

    @property
    def k(self) -> float:
        """Field ratio B/B0; defined only for b0 > 0."""
        if self.b0 <= 0:
            raise DomainError("k is undefined at b0 = 0")
        return self.b / self.b0

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


@dataclass(frozen=True)
class IsotropicOscillator:
    """Spherical binding V = (w0^2/2) (x1^2 + x2^2 + x3^2)."""

    w0: float

    def curvatures(self):
        w2 = self.w0 * self.w0
        return (w2, w2, w2)


BindingPotential = Union[PenningQuadrupole, IsotropicOscillator]

#: Binding kinds by name, each constructed from its frequency w0.
BINDINGS = {"penning": PenningQuadrupole, "oscillator": IsotropicOscillator}


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """Symmetric coefficient matrix S of a quadratic observable (1/2) u^T S u, copied."""

    S: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.S):
            raise DomainError("coefficient matrix must be real")
        S = np.asarray(self.S, dtype=float)
        if S.shape != (6, 6):
            raise DomainError(f"expected a 6x6 matrix, got {S.shape}")
        if not np.isfinite(S).all():
            raise DomainError("coefficient matrix must be finite")
        if not (S == S.T).all():
            raise DomainError("coefficient matrix must be exactly symmetric")
        object.__setattr__(self, "S", _read_only(S))


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
        S such that (1/2) u^T S u is the rotating-frame energy: the kinetic
        term for the static field orientation (B, 0, B0), plus the binding
        potential, minus omega * (x1 p2 - x2 p1).
    """
    if binding is None:
        binding = PenningQuadrupole(params.w0)
    return QuadraticForm(_generator(params.b, params.b0, params.omega, binding.curvatures()))


def _generator(b, b0, omega, curvatures, shape=()) -> np.ndarray:
    """S = [[K, B], [B^T, I]] over a stack of the given shape, B skew with
    axial vector (g0, 0, g2) = (S[2, 4], 0, S[1, 3]).

    This is the one place the entry formulas are written; K01, K12 and g1
    vanish for the field (B, 0, B0) and keep the zeros of ``np.zeros``.
    Scalars give one 6x6 matrix; arrays of ``shape`` (e.g. the cells of a
    grid) give ``shape + (6, 6)``, each slice bit-identical to the scalar
    build at that point. Squares are written as products because a float's
    ``x**2`` calls C ``pow``, which can differ from NumPy's array square in
    the last bit.
    """
    k1, k2, k3 = curvatures
    b_sq, b0_sq = b * b, b0 * b0
    g0, g2 = -b, omega - b0
    S = np.zeros(shape + (6, 6))
    S[..., 0, 0], S[..., 1, 1], S[..., 2, 2] = b0_sq + k1, b0_sq + b_sq + k2, b_sq + k3
    S[..., 0, 2] = S[..., 2, 0] = -b * b0
    # B has rows (0, -g2, 0), (g2, 0, -g0), (0, g0, 0); 0.0 - g keeps a zero +0.0
    S[..., 2, 4] = S[..., 4, 2] = g0
    S[..., 1, 3] = S[..., 3, 1] = g2
    S[..., 1, 5] = S[..., 5, 1] = 0.0 - g0
    S[..., 0, 4] = S[..., 4, 0] = 0.0 - g2
    S[..., 3, 3] = S[..., 4, 4] = S[..., 5, 5] = 1.0
    return S


def _mu_cubic(S: np.ndarray):
    """Coefficients (c2, c1, c0) of det(lambda I - J S) = mu^3 + c2 mu^2 + c1 mu + c0
    in mu = lambda^2, over a stack S of shape (..., 6, 6) that ``_generator``
    wrote: it reads g0, g2, K00, K11, K22 and K02 and takes the other entries
    of K and g as the zeros they are there.

    With M = K + g g^T - |g|^2 I, symmetric: c2 = tr M + 4|g|^2,
    c1 = m2(M) + 4 g^T M g and c0 = det M, where m2 is the sum of the principal
    2x2 minors of M; M01 = M12 = 0. Every operation is a polynomial in the
    entries, so a complex S gives the analytic continuation. Caller:
    ``phases._omega_cubic``, on its complex omega-step; loop points take
    its closed form ``sweep._loop_cubic``.
    """
    g0, g2 = S[..., 2, 4], S[..., 1, 3]
    k00, k11, k22, k02 = S[..., 0, 0], S[..., 1, 1], S[..., 2, 2], S[..., 0, 2]
    g00, g22 = g0 * g0, g2 * g2
    gg = g00 + g22
    m00, m11, m22 = k00 + g00 - gg, k11 - gg, k22 + g22 - gg
    m02 = k02 + g0 * g2
    minor0, minor1, minor2 = m11 * m22, m00 * m22 - m02 * m02, m00 * m11
    c2 = m00 + m11 + m22 + 4.0 * gg
    c1 = minor0 + minor1 + minor2 + 4.0 * (g00 * m00 + g22 * m22 + 2.0 * (g0 * g2 * m02))
    c0 = m00 * minor0 - m02 * (m11 * m02)
    return c2, c1, c0


def build_L3_form() -> QuadraticForm:
    """Axial angular momentum L3 = x1 p2 - x2 p1 as a quadratic form."""
    S = np.zeros((6, 6))
    S[0, 4] = S[4, 0] = 1.0
    S[1, 3] = S[3, 1] = -1.0
    return QuadraticForm(S)
