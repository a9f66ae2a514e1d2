import math

import numpy as np
import pytest

from conftest import (
    ORACLE_POINTS,
    SLOW_MODE_POINT,
    sample_confined_loop_points,
    sample_unconfined_loop_points,
)
from dynamics_oracle import SaturationError, boundedness_probe, propagate
from penphase import (
    Classification,
    DegeneracyError,
    DomainError,
    IsotropicOscillator,
    J6,
    PenningQuadrupole,
    SystemParams,
    build_G,
    build_L3_form,
    classify,
    NumericalError,
    make_params_adiabatic,
    make_params_dimensionless,
    normal_mode_basis,
    quasienergy,
    track_modes,
)
from penphase.phases import FockLabel
from penphase.spectral import (
    RE_FACTOR,
    _gap_tol,
    _mu_cubic,
    _simple_imaginary,
    _forms,
    _stack_entries,
)


def _spectral_propagate(L, u0, t):
    """exp(Lambda t) u0 reconstructed from the eigendecomposition
    (diagonalizable Lambda only): the reference for ``propagate``."""
    evs, V = np.linalg.eig(L)
    coeff = np.linalg.solve(V, u0.astype(complex))
    return np.real(V @ (np.exp(evs * t) * coeff))


def loop_lambda(b, b0, omega):
    p = SystemParams.penning_loop(b0=b0, b=b, omega=omega)
    return J6 @ build_G(p).S


class TestClassify:
    def test_isotropic_degenerate_is_boundary(self):
        p = SystemParams(b=0, b0=0, w0=1.0, omega=0)
        spec = classify(J6 @ build_G(p, IsotropicOscillator(1.0)).S)
        assert spec.classification is Classification.BOUNDARY

    def test_static_loop_boundary_lifted_by_rotation(self):
        assert classify(loop_lambda(0.0, 1.0, 0.0)).classification is Classification.BOUNDARY
        spec = classify(loop_lambda(0.0, 1.0, 0.05))
        assert spec.classification is Classification.CONFINED
        # rotating-frame shift of the analytic roots
        assert np.allclose(spec.freqs, [4 / 3, 4 / 3 - 0.05, 2 / 3 - 0.05], atol=1e-12)

    def test_beyond_critical_ratio_unconfined(self):
        p = make_params_adiabatic(0.3, 0.0)
        spec = classify(J6 @ build_G(p).S)
        assert spec.classification is Classification.UNCONFINED
        assert spec.modes == ()

    def test_confined_modes_sorted_with_residuals(self):
        spec = classify(loop_lambda(0.2, 1.0, 0.0))
        assert spec.classification is Classification.CONFINED
        freqs = spec.freqs
        assert np.all(np.diff(freqs) < 0) and np.all(freqs > 0)
        L = loop_lambda(0.2, 1.0, 0.0)
        for m in spec.modes:
            res = np.linalg.norm(L @ m.eigvec - 1j * m.freq * m.eigvec)
            assert res <= 1e-9 * np.linalg.norm(L)

    def test_time_unit_scaling_invariance(self):
        base = SystemParams.penning_loop(b0=0.55, b=0.12, omega=1.0)
        spec0 = classify(J6 @ build_G(base).S)
        for c in (0.1, 10.0):
            scaled = SystemParams(b=c * base.b, b0=c * base.b0, w0=c * base.w0,
                                  omega=c * base.omega)
            spec = classify(J6 @ build_G(scaled).S)
            assert spec.classification is spec0.classification
            assert np.allclose(spec.freqs, c * spec0.freqs, rtol=1e-9)
            assert np.array_equal(spec.krein_signs, spec0.krein_signs)


class TestKreinSign:
    def test_positive_definite_modes(self):
        # decoupled oscillators V = sum w_i^2 x_i^2 / 2, w = (0.7, 1.1, 1.9)
        S = np.diag([0.7**2, 1.1**2, 1.9**2, 1.0, 1.0, 1.0])
        spec = classify(J6 @ S)
        assert spec.classification is Classification.CONFINED
        assert list(spec.krein_signs) == [1, 1, 1]

    def test_fast_rotation_flips_slow_circular_mode(self):
        # omega > w0: the co-rotating circular mode descends the ladder
        S = build_G(SystemParams(b=0, b0=0, w0=1.0, omega=1.4),
                    IsotropicOscillator(1.0)).S
        spec = classify(J6 @ S)
        assert spec.classification is Classification.CONFINED
        assert np.allclose(spec.freqs, [2.4, 1.0, 0.4], atol=1e-12)
        assert list(spec.krein_signs) == [1, 1, -1]

    def test_magnetron_mode_negative(self):
        spec = classify(loop_lambda(0.0, 1.0, 0.05))
        # slowest branch is the magnetron-like mode
        assert spec.krein_signs[2] == -1
        assert list(spec.krein_signs) == [1, 1, -1]

    def test_slow_mode_keeps_its_sign(self):
        # the sign is read from the symplectic form, which is first order in
        # the frequency; the energy form is second order and falls below
        # 1e-10 ||S||
        spec = classify(loop_lambda(*SLOW_MODE_POINT, 1.0))
        assert spec.classification is Classification.CONFINED
        assert list(spec.krein_signs) == [1, 1, -1]
        assert spec.freqs[2] == pytest.approx(1.7353e-5, rel=1e-4)

    def test_degenerate_symplectic_form_below_guard(self):
        # free particle, S = diag(0, 0, 0, 1, 1, 1): the position vector is
        # a zero mode with v^T S v = 0 and no symplectic form either
        v = np.array([[1.0, 0, 0, 0, 0, 0]], dtype=complex).T
        form = _forms(J6, v).imag
        assert np.abs(form) < 1e-10 * np.sum(np.abs(v) ** 2, axis=0)

    def test_sign_is_the_energy_sign(self, rng):
        # S v = -i freq J v, so the energy form v^H S v, whose sign is the
        # Krein sign by definition, equals freq Im(v^H J v)
        for params in sample_confined_loop_points(rng, 5):
            S = build_G(params).S
            spec = classify(J6 @ S)
            V = np.stack([m.eigvec for m in spec.modes], axis=1)
            energy = np.real(np.sum(np.conj(V) * (S @ V), axis=0))
            assert np.allclose(energy, spec.freqs * _forms(J6, V).imag, rtol=1e-10, atol=0)
            assert np.array_equal(np.sign(energy), spec.krein_signs)


class TestNormalModeBasis:
    def test_analytic_ladder_recovery(self):
        # decoupled oscillators: A_i = (w_i x_i + i p_i)/sqrt(2 w_i)
        ws = (1.3, 1.7, 2.3)
        S = np.diag([w**2 for w in ws] + [1.0, 1.0, 1.0])
        spec = classify(J6 @ S)
        basis = normal_mode_basis(spec, S)
        for mode_idx in range(3):
            w = basis.freqs[mode_idx]
            axis = int(np.argmax([abs(basis.coeffs[mode_idx][a]) for a in range(3)]))
            assert w == pytest.approx(ws[axis], abs=1e-12)
            expected = np.zeros(6, dtype=complex)
            expected[axis] = w / math.sqrt(2 * w)
            expected[axis + 3] = 1j / math.sqrt(2 * w)
            assert np.abs(basis.coeffs[mode_idx] - expected).max() < 1e-9

    def test_commutator_normalization(self, rng):
        for params in sample_confined_loop_points(rng, 5):
            S = build_G(params).S
            basis = normal_mode_basis(classify(J6 @ S), S)
            C, D = basis.ladder_commutators()
            assert np.abs(C - np.diag(basis.signs)).max() < 1e-9
            assert np.abs(D).max() < 1e-9

    def test_near_krein_collision_names_modes_and_forms(self):
        # alpha = 0, alpha0 = 1e-5, w = 4 alpha0 / 3: the two fast modes, of
        # Krein signs +1 and -1, have symplectic forms +-6.67e-6 and a cross
        # form 2.08e-14, whose ratio breaks the 1e-9 commutator check
        S = build_G(make_params_dimensionless(0.0, 1e-5, 1.3333333333333333e-05)).S
        spec = classify(J6 @ S)
        assert spec.classification is Classification.CONFINED
        assert list(spec.krein_signs[:2]) == [1, -1]
        with pytest.raises(NumericalError) as info:
            normal_mode_basis(spec, S)
        message = str(info.value)
        assert "err=3.12e-09" in message
        assert "at modes 1 and 2" in message
        assert "symplectic forms 6.67e-06 and -6.67e-06" in message
        assert "cross form 2.08e-14" in message

    def test_requires_confined(self):
        p = SystemParams(b=0, b0=0, w0=1.0, omega=0)
        S = build_G(p, IsotropicOscillator(1.0)).S
        with pytest.raises(DomainError):
            normal_mode_basis(classify(J6 @ S), S)

    def test_ground_energy_matches_fock_oracle(self, oracle_case):
        basis = oracle_case["basis"]
        expected = quasienergy(basis, FockLabel(0, 0, 0))
        energy, _ = oracle_case["oracle"].ground_state(oracle_case["dense"])
        assert energy == pytest.approx(expected, abs=1e-6)

    def test_one_quantum_gaps_match_fock_oracle(self, oracle_case):
        basis = oracle_case["basis"]
        oracle, dense = oracle_case["oracle"], oracle_case["dense"]
        e0 = quasienergy(basis, FockLabel(0, 0, 0))
        for i, label in enumerate([FockLabel(1, 0, 0), FockLabel(0, 1, 0), FockLabel(0, 0, 1)]):
            target = quasienergy(basis, label)
            energy, _ = oracle.match_level(dense, target)
            gap = energy - oracle.ground_state(dense)[0]
            assert gap == pytest.approx(basis.signs[i] * basis.freqs[i], abs=1e-6)

    @pytest.mark.parametrize("params", ORACLE_POINTS)
    def test_parity_blocked_spectrum_matches_dense(self, params):
        from fock_oracle import TruncatedFockOracle, matched_reference

        S = build_G(params).S
        basis = normal_mode_basis(classify(J6 @ S), S)
        oracle = TruncatedFockOracle(cutoff=6, omega_ref=matched_reference(basis))
        blocked = oracle.dense_spectrum(S)
        G = oracle.matrix(S).toarray()
        assert np.abs(blocked.energies - np.linalg.eigvalsh(G)).max() <= 1e-12
        residual = G @ blocked.vectors - blocked.vectors * blocked.energies
        assert np.abs(residual).max() <= 1e-12


class TestTrackModes:
    def test_identity_on_identical_spectra(self):
        spec = classify(loop_lambda(0.15, 1.0, 0.0))
        assert track_modes(spec, spec) == (0, 1, 2)

    def test_adjacent_grid_points(self):
        s1 = classify(loop_lambda(0.10, 1.0, 0.0))
        s2 = classify(loop_lambda(0.101, 1.0, 0.0))
        assert track_modes(s1, s2) == (0, 1, 2)

    def test_collision_region_flags_refinement(self):
        # just below the critical ratio the colliding pair mixes strongly
        s1 = classify(loop_lambda(0.25825, 1.0, 0.0))
        s2 = classify(loop_lambda(0.2583, 1.0, 0.0))
        with pytest.raises(DegeneracyError):
            track_modes(s1, s2)


class TestPropagate:
    def test_identity_at_t0(self, rng):
        L = loop_lambda(0.2, 1.0, 0.0)
        u0 = rng.normal(size=6)
        assert np.allclose(propagate(L, u0, 0.0), u0, atol=0)

    def test_full_period_return(self):
        w0 = 1.1
        S = build_G(SystemParams(b=0, b0=0, w0=0, omega=0),
                    IsotropicOscillator(w0)).S
        u0 = np.array([1.0, 0, 0, 0, 0, 0])
        u = propagate(J6 @ S, u0, 2 * math.pi / w0)
        assert np.abs(u - u0).max() < 1e-10

    def test_group_law(self, rng):
        L = loop_lambda(0.2, 1.0, 1.0)
        u0 = rng.normal(size=6)
        t1, t2 = 0.7, 2.3
        direct = propagate(L, u0, t1 + t2)
        composed = propagate(L, propagate(L, u0, t1), t2)
        assert np.abs(direct - composed).max() < 1e-9

    def test_symplecticity(self):
        L = loop_lambda(0.2, 1.0, 1.0)
        period = 2 * math.pi / np.abs(np.linalg.eigvals(L).imag).max()
        for t in (period, 10 * period):
            import scipy.linalg

            M = scipy.linalg.expm(L * t)
            assert np.abs(M.T @ J6 @ M - J6).max() < 1e-9

    def test_spectral_route_agreement(self, rng):
        L = loop_lambda(0.18, 0.9, 1.0)
        period = 2 * math.pi / np.abs(np.linalg.eigvals(L).imag).max()
        u0 = rng.normal(size=6)
        for t in (period, 100 * period):
            a = propagate(L, u0, t)
            b = _spectral_propagate(L, u0, t)
            assert np.abs(a - b).max() < 1e-8

    def test_growth_exponent_matches_spectrum(self, rng):
        p = make_params_adiabatic(0.5, 0.0)
        L = J6 @ build_G(p).S
        gmax = np.max(np.linalg.eigvals(L).real)
        u0 = rng.normal(size=6)
        ts = np.linspace(30.0, 60.0, 16)
        norms = [np.linalg.norm(propagate(L, u0, t)) for t in ts]
        slope = np.polyfit(ts, np.log(norms), 1)[0]
        assert slope == pytest.approx(gmax, rel=0.01)

    def test_saturation_error(self):
        p = make_params_adiabatic(0.5, 0.0)
        L = J6 @ build_G(p).S
        with pytest.raises(SaturationError) as err:
            propagate(L, np.ones(6), 1e5)
        assert err.value.growth_exponent > 0


class TestBoundednessProbe:
    def test_confined_points_bounded(self, rng):
        for params in sample_confined_loop_points(rng, 10):
            L = J6 @ build_G(params).S
            res = boundedness_probe(L, rng.normal(size=6), horizon=1000)
            assert res.bounded

    def test_beyond_critical_unbounded(self, rng):
        p = make_params_adiabatic(0.3, 0.0)
        L = J6 @ build_G(p).S
        res = boundedness_probe(L, rng.normal(size=6), horizon=1000)
        assert not res.bounded
        assert res.growth_exponent > 0

    def test_free_particle_linear_growth(self, rng):
        S = np.zeros((6, 6))
        S[3, 3] = S[4, 4] = S[5, 5] = 1.0
        L = J6 @ S
        res = boundedness_probe(L, rng.normal(size=6), horizon=1000)
        assert not res.bounded
        assert abs(res.growth_exponent) < 1e-2

    def test_agrees_with_classification(self, rng):
        points = sample_confined_loop_points(rng, 8) + sample_unconfined_loop_points(rng, 8)
        for params in points:
            L = J6 @ build_G(params).S
            spec = classify(L)
            res = boundedness_probe(L, rng.normal(size=6), horizon=1000)
            assert res.bounded == (spec.classification is Classification.CONFINED)


def _stable_mode_loop(ev, scale):
    """Per-eigenvalue reference for ``_simple_imaginary``: the stable-mode
    rule as the deleted ``stable_modes`` applied it."""
    tau_re = RE_FACTOR * (1 + scale)
    tau_gap = _gap_tol(scale)
    mask = np.zeros(6, dtype=bool)
    for i in range(6):
        if abs(ev[i].real) > tau_re or ev[i].imag <= tau_gap:
            continue
        if np.min(np.abs(np.delete(ev, i) - ev[i])) <= tau_gap:
            continue
        mask[i] = True
    return mask


class TestStableModes:
    def test_survivor_beyond_collision(self):
        L = loop_lambda(0.5, 1.0, 0.0)
        spec = classify(L)
        assert spec.classification is Classification.UNCONFINED
        ev = spec.raw_eigenvalues
        survivors = ev.imag[_simple_imaginary(ev, np.linalg.norm(L))]
        assert len(survivors) == 1
        assert survivors[0] > 1.5  # the fast branch survives

    def test_mask_matches_per_eigenvalue_rule(self, rng):
        # both bindings, omega = 0 and random; at b = b0 = omega = 0 the
        # oscillator's three modes coincide
        draws = rng.uniform(0.0, 3.0, (200, 4))
        draws[:40, 3] = 0.0
        draws[40:60, [0, 1, 3]] = 0.0
        stacks = [
            np.array([build_G(SystemParams(b=b, b0=b0, w0=w0, omega=om), cls(w0)).S
                      for b, b0, w0, om in draws])
            for cls in (PenningQuadrupole, IsotropicOscillator)
        ]
        # a simple mode at 0.7 gap tolerances: too slow to count as stable
        S = np.diag([1.0, 4.0, 0.0, 1.0, 1.0, 1.0])
        S[2, 2] = (0.7 * _gap_tol(np.linalg.norm(J6 @ S))) ** 2
        stacks.append(S[None])
        for S in stacks:
            L = J6 @ S
            ev = np.linalg.eigvals(L)
            scale = np.sqrt((L**2).sum(axis=(-2, -1)))
            got = _simple_imaginary(ev, scale)
            want = np.array([_stable_mode_loop(e, s) for e, s in zip(ev, scale)])
            assert np.array_equal(got, want)
            assert 0 < got.sum() < got.size

    def test_krein_sum_invariant_along_sweep(self):
        # no sign flips without a Boundary crossing inside (0, k_cr)
        sums = []
        for k in np.linspace(0.02, 0.25, 60):
            spec = classify(loop_lambda(k, 1.0, 0.0))
            assert spec.classification is Classification.CONFINED
            sums.append(int(spec.krein_signs.sum()))
        assert set(sums) == {1}


class TestMuCubic:
    @staticmethod
    def _assert_matches_poly(S):
        poly = np.poly(J6 @ S)
        c2, c1, c0 = _mu_cubic(*_stack_entries(S))
        scale = np.abs(poly).max()
        # odd powers of lambda vanish: the spectrum is symmetric under lambda -> -lambda
        assert np.abs(poly[1::2]).max() <= 1e-12 * scale
        assert np.abs(poly[::2] - [1.0, c2, c1, c0]).max() <= 1e-12 * scale

    @staticmethod
    def _generators(rng, binding_cls):
        draws = rng.uniform(0.0, 3.0, (40, 4))
        draws[:10, 3] = 0.0  # omega = 0
        draws[10:20, 3] = 1.0
        for b, b0, w0, omega in draws:
            yield build_G(SystemParams(b=b, b0=b0, w0=w0, omega=omega), binding_cls(w0)).S

    @pytest.mark.parametrize("binding_cls", [PenningQuadrupole, IsotropicOscillator])
    def test_matches_characteristic_polynomial(self, rng, binding_cls):
        for S in self._generators(rng, binding_cls):
            self._assert_matches_poly(S)

    @pytest.mark.parametrize("binding_cls", [PenningQuadrupole, IsotropicOscillator])
    def test_matches_characteristic_polynomial_off_real_axis(self, rng, binding_cls):
        # S(omega + d) = S - d S_L3 at the complex step d = i h: the analytic
        # continuation that the implicit derivative route differentiates
        S_L3 = build_L3_form().S
        for S in self._generators(rng, binding_cls):
            self._assert_matches_poly(S - 1j * 1e-3 * S_L3)
