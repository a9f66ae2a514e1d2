"""Truncated-Fock oracle (test-only): represents quadratic observables in an
explicit product harmonic-oscillator basis and diagonalizes them directly,
independently of the ladder-operator algebra under test.

Every x_i and p_i flips the total parity (-1)^(m1+m2+m3) of a basis state,
so a quadratic operator has no entries between the even and odd states: its
matrix splits exactly into two blocks, each diagonalized on its own.

The per-axis reference frequencies may be matched to the target's vacuum
covariance; that choice only conditions the basis (any complete basis is
valid), while every verified number comes from the explicit matrix
diagonalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def matched_reference(basis):
    """Per-axis oscillator frequencies matched to the vacuum covariance.

    The ground-state covariance of the target generator follows from the
    ladder coefficients via u = C^-1 (A, A^dag); matching Omega_i =
    sqrt(<p_i^2>/<x_i^2>) keeps the Fock expansion of the low states compact.
    """
    C = np.vstack([basis.coeffs, np.conj(basis.coeffs)])
    Ci = np.linalg.inv(C)
    M0 = 0.5 * np.block([[np.zeros((3, 3)), np.eye(3)], [np.eye(3), np.zeros((3, 3))]])
    Sig = np.real(Ci @ M0 @ Ci.T)
    return tuple(np.sqrt(np.diag(Sig)[3:] / np.diag(Sig)[:3]))


@dataclass
class DenseSpectrum:
    energies: np.ndarray
    vectors: np.ndarray
    tail_weight: np.ndarray
    mean_ref_quanta: np.ndarray


class TruncatedFockOracle:
    """Product Fock basis with per-axis cutoff and reference frequencies."""

    def __init__(self, cutoff=12, omega_ref=(1.0, 1.0, 1.0)):
        if np.isscalar(omega_ref):
            omega_ref = (float(omega_ref),) * 3
        self.cutoff = cutoff
        self.omega_ref = tuple(float(o) for o in omega_ref)
        N = cutoff
        a = sp.diags(np.sqrt(np.arange(1, N)), 1)
        ad = a.T.copy()
        I = sp.identity(N, format="csr")

        def lift(op, axis):
            ops = [I, I, I]
            ops[axis] = op
            return sp.kron(sp.kron(ops[0], ops[1]), ops[2], format="csr")

        self.ops = []
        for axis, Om in enumerate(self.omega_ref):
            x = ((a + ad) / np.sqrt(2.0 * Om)).tocsr()
            self.ops.append(lift(x, axis))
        for axis, Om in enumerate(self.omega_ref):
            p = (1j * np.sqrt(Om / 2.0) * (ad - a)).tocsr()
            self.ops.append(lift(p, axis))
        m = np.arange(N)
        m1, m2, m3 = np.meshgrid(m, m, m, indexing="ij")
        self.total_quanta = (m1 + m2 + m3).ravel()
        self.tail_mask = ((m1 >= N - 2) | (m2 >= N - 2) | (m3 >= N - 2)).ravel()
        #: basis indices of the even and of the odd total-parity states
        self.parity_blocks = tuple(np.flatnonzero(self.total_quanta % 2 == p) for p in (0, 1))

    def matrix(self, S) -> sp.csr_matrix:
        """Operator (1/2) u^T S u in the truncated basis (symmetric S: no
        ordering ambiguity, the commutator trace tr(S J) vanishes)."""
        S = np.asarray(S, dtype=float)
        M = None
        for i in range(6):
            for j in range(6):
                if S[i, j] != 0.0:
                    t = 0.5 * S[i, j] * (self.ops[i] @ self.ops[j])
                    M = t if M is None else M + t
        return M.tocsr()

    def dense_spectrum(self, S) -> DenseSpectrum:
        """Every level in ascending order, from one eigh per parity block,
        with the block eigenvectors embedded in the full basis."""
        G = self.matrix(S)
        assert abs(G - G.conj().T).max() < 1e-10
        even, odd = self.parity_blocks
        assert G[even][:, odd].count_nonzero() == 0
        n = G.shape[0]
        w = np.empty(n)
        V = np.zeros((n, n), dtype=complex)
        col = 0
        for idx in self.parity_blocks:
            cols = slice(col, col + len(idx))
            w[cols], V[idx, cols] = np.linalg.eigh(G[idx][:, idx].toarray())
            col += len(idx)
        order = np.argsort(w, kind="stable")
        w, V = w[order], V[:, order]
        P = np.abs(V) ** 2
        return DenseSpectrum(
            energies=w,
            vectors=V,
            tail_weight=P.T @ self.tail_mask.astype(float),
            mean_ref_quanta=P.T @ self.total_quanta,
        )

    def ground_state(self, spectrum: DenseSpectrum, tail_tol=1e-8):
        """Converged eigenpair with the least reference-basis excitation.

        Identification is prediction-free: adding a quantum to any mode adds
        a positive amount of the (positive-definite) reference number
        operator, so the joint vacuum minimizes it.
        """
        sel = np.where(spectrum.tail_weight < tail_tol)[0]
        if len(sel) == 0:
            raise AssertionError("no converged eigenpairs at this cutoff")
        i = sel[int(np.argmin(spectrum.mean_ref_quanta[sel]))]
        return spectrum.energies[i], spectrum.vectors[:, i]

    def match_level(self, spectrum: DenseSpectrum, target, tail_tol=1e-8,
                    unique_window=1e-4):
        """Converged eigenpair nearest to `target`, unique within the window."""
        sel = np.where(spectrum.tail_weight < tail_tol)[0]
        if len(sel) == 0:
            raise AssertionError("no converged eigenpairs at this cutoff")
        order = np.argsort(np.abs(spectrum.energies[sel] - target))
        best = sel[order[0]]
        if len(order) > 1:
            second = sel[order[1]]
            gap = abs(spectrum.energies[second] - spectrum.energies[best])
            if gap < unique_window:
                raise AssertionError(
                    f"ambiguous level match near {target}: "
                    f"{spectrum.energies[best]} vs {spectrum.energies[second]}"
                )
        return spectrum.energies[best], spectrum.vectors[:, best]

    def expectation(self, S_obs, vec) -> float:
        M = self.matrix(S_obs)
        return float(np.real(np.conj(vec) @ (M @ vec)))

    def eigenvalue_near(self, S, sigma, parity, k=3) -> float:
        """Nearest eigenvalue to `sigma` among the states of total parity
        (-1)^parity, via shift-invert (for cutoff doubling)."""
        idx = self.parity_blocks[parity % 2]
        G = self.matrix(S)[idx][:, idx].tocsc()
        w, _ = spla.eigsh(G, k=k, sigma=sigma, which="LM")
        return float(w[np.argmin(np.abs(w - sigma))])
