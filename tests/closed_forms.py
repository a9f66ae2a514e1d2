"""Closed forms the tests compare the package with (test-only): the critical
ratio of the loop and the modes of the isotropic binding, both at omega = 0.

On the loop (w0 = 4 b0 / 3) at omega = 0 the quadrupole binding's slow mode
pair collides at the field ratio K_CR, whose square is a root of a cubic
with integer coefficients.

With V = (w0^2 / 2) |x|^2 the isotropic binding has no preferred axis, so
the static field (b, 0, b0) enters only through the Larmor term
omega_L L_B, with omega_L = b0 sqrt(1 + k^2) and k = b / b0 (Larmor's
theorem). The three normal modes are the two circular modes about the
field, at sqrt(w0^2 + omega_L^2) +- omega_L, and the oscillation along it,
at w0; all three carry Krein sign +1, since S is positive definite.
Rotating the field at omega adds -omega L_3, whose projection on the field
axis is -omega cos(theta) L_B with cos(theta) = 1 / sqrt(1 + k^2), so to
first order in omega the circular modes move by -+cos(theta) and the axial
one not at all.

These values are independent of the generator, the mu-cubic and the 6x6
eigensolves that the tests compare them with.
"""

from __future__ import annotations

import math

import numpy as np

#: Critical ratio in closed form: at omega = 0 on the loop, k^2 is the small
#: positive root of 9 x^3 - 14 x^2 - 119 x + 8.
K_CR = math.sqrt(min(r.real for r in np.roots([9.0, -14.0, -119.0, 8.0]) if r.real > 0))


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
