"""Closed forms of the isotropic binding at omega = 0 (test-only).

With V = (w0^2 / 2) |x|^2 the binding has no preferred axis, so the static
field (b, 0, b0) enters only through the Larmor term omega_L L_B, with
omega_L = b0 sqrt(1 + k^2) and k = b / b0 (Larmor's theorem). The three
normal modes are the two circular modes about the field, at
sqrt(w0^2 + omega_L^2) +- omega_L, and the oscillation along it, at w0; all
three carry Krein sign +1, since S is positive definite. Rotating the field
at omega adds -omega L_3, whose projection on the field axis is
-omega cos(theta) L_B with cos(theta) = 1 / sqrt(1 + k^2), so to first order
in omega the circular modes move by -+cos(theta) and the axial one not at
all. These values are independent of the generator, the mu-cubic and the
eigensolver that the tests compare them with.
"""

from __future__ import annotations

import math


def isotropic_freqs(k: float, w0: float):
    """Frequencies of the isotropic binding w0 in the field (k, 0, 1) at
    omega = 0, descending as ``classify`` gives them. The slow mode is
    written w0^2 / (sqrt(w0^2 + omega_L^2) + omega_L): the difference form
    loses about 1e-12 to cancellation at k = 100."""
    larmor = math.sqrt(1.0 + k * k)
    fast = math.sqrt(w0 * w0 + larmor * larmor) + larmor
    return fast, w0, w0 * w0 / fast


def isotropic_dw(k: float):
    """d(freq)/d(omega) of ``isotropic_freqs``' modes at omega = 0, in their
    order: (-1, 0, +1) cos(theta)."""
    cos_theta = 1.0 / math.sqrt(1.0 + k * k)
    return -cos_theta, 0.0, cos_theta
