"""Dynamics oracle (test-only): the classical flow map exp(Lambda t), a
boundedness probe that samples it, and the rotating-frame energy written out
from its defining expression, so that classification and the matrix build
can be checked against the motion they predict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from penphase import DomainError, NumericalError, PenningQuadrupole


class SaturationError(NumericalError):
    """Propagation overflowed on an unstable trajectory."""

    def __init__(self, message, growth_exponent=None):
        super().__init__(message)
        self.growth_exponent = growth_exponent


def quadratic_value(Q, u) -> float:
    """Scalar (1/2) u^T S u of a QuadraticForm."""
    u = np.asarray(u, dtype=float)
    return 0.5 * float(u @ Q.S @ u)


def classical_energy(u, params, binding) -> float:
    """Rotating-frame energy evaluated directly from its defining expression.

    Kinetic term for the static field orientation (B, 0, B0), plus the binding
    potential, minus omega * (x1 p2 - x2 p1). Serves as the independent oracle
    for the matrix build.
    """
    x1, x2, x3, p1, p2, p3 = np.asarray(u, dtype=float)
    b, b0, om = params.b, params.b0, params.omega
    kinetic = 0.5 * ((p1 - b0 * x2) ** 2 + (p2 + b0 * x1 - b * x3) ** 2 + (p3 + b * x2) ** 2)
    if isinstance(binding, PenningQuadrupole):
        potential = 0.5 * binding.w0**2 * (x3**2 - (x1**2 + x2**2) / 2.0)
    else:
        potential = 0.5 * binding.w0**2 * (x1**2 + x2**2 + x3**2)
    return kinetic + potential - om * (x1 * p2 - x2 * p1)


def flow_map(lam, t: float) -> np.ndarray:
    """Flow map exp(Lambda t), by scaling-and-squaring."""
    return scipy.linalg.expm(np.asarray(lam, dtype=float) * t)


def propagate(lam, u0, t: float) -> np.ndarray:
    """Flow map u(t) = exp(Lambda t) u0, by scaling-and-squaring."""
    L = np.asarray(lam, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    ev = np.linalg.eigvals(L)
    growth = float(np.max(ev.real))
    if growth * t > 500.0:
        raise SaturationError(
            f"propagation over t={t} overflows (growth exponent {growth:.3e})",
            growth_exponent=growth,
        )
    return flow_map(L, t) @ u0


@dataclass(frozen=True)
class ProbeResult:
    bounded: bool
    growth_exponent: float
    max_ratio: float
    horizon_periods: int


def boundedness_probe(lam, u0, horizon: int = 1000) -> ProbeResult:
    """Sample ||u(t)|| over `horizon` characteristic periods and decide boundedness.

    A trajectory is reported bounded when the sup-norm ratio stays within 10x
    of the initial norm, or when the norm envelope shows no sustained growth
    between the two halves of the horizon (linear phase-mixing transients on
    confined spectra can overshoot a fixed ratio without any actual growth).
    The growth exponent is the fitted slope of log||u|| over the second half.
    """
    if horizon < 1:
        raise DomainError("horizon must be >= 1 period")
    L = np.asarray(lam, dtype=float)
    u = np.asarray(u0, dtype=float).copy()
    rho = float(np.max(np.abs(np.linalg.eigvals(L))))
    period = 2.0 * math.pi / rho if rho > 1e-12 else 2.0 * math.pi
    samples_per_period = 4
    dt = period / samples_per_period
    step = scipy.linalg.expm(L * dt)
    n_steps = horizon * samples_per_period
    norms = np.empty(n_steps + 1)
    norms[0] = np.linalg.norm(u)
    if norms[0] == 0:
        raise DomainError("initial vector must be nonzero")
    taken = n_steps
    for i in range(1, n_steps + 1):
        u = step @ u
        norms[i] = np.linalg.norm(u)
        if norms[i] > 1e12 * norms[0]:
            taken = i
            break
    norms = norms[: taken + 1]
    ratio = float(np.max(norms) / norms[0])
    half = len(norms) // 2
    env1 = float(np.max(norms[:half])) if half else norms[0]
    env2 = float(np.max(norms[half:]))
    sustained = env2 > 1.2 * env1
    t = np.arange(len(norms)) * dt
    sel = slice(half, None)
    slope = float(np.polyfit(t[sel], np.log(norms[sel]), 1)[0]) if len(norms) - half > 2 else 0.0
    bounded = (ratio <= 10.0 or not sustained) and taken == n_steps
    return ProbeResult(
        bounded=bounded,
        growth_exponent=0.0 if bounded else slope,
        max_ratio=ratio,
        horizon_periods=horizon,
    )
