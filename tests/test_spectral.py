import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy_reference
from conftest import (
    ORACLE_POINTS,
    SLOW_MODE_POINT,
    assert_write_flag_refused,
    sample_confined_loop_points,
    sample_unconfined_loop_points,
)
from dynamics_oracle import SaturationError, boundedness_probe, propagate
from penphase import (
    Classification,
    DomainError,
    IsotropicOscillator,
    J6,
    NumericalError,
    PenningQuadrupole,
    SystemParams,
    aa_phase,
    build_G,
    build_L3_form,
    classify,
    make_params_adiabatic,
    make_params_dimensionless,
    normal_mode_basis,
    quasienergy,
)
from penphase import spectral
from penphase.model import _mu_cubic
from penphase.phases import FockLabel
from penphase.spectral import (
    _gap_tol,
    _simple_imaginary,
    _forms,
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


loop_lambdas = st.tuples(st.floats(min_value=0.0, max_value=3.0),
                         st.floats(min_value=0.0, max_value=3.0),
                         st.floats(min_value=0.0, max_value=2.0)).map(lambda p: loop_lambda(*p))


def _fields(spec):
    return (spec.classification, spec.freqs.tolist(), spec.krein_signs.tolist(),
            spec.raw_eigenvalues.tobytes())


class TestClassifyMemo:
    """``classify`` keeps the last matrix's spectrum, keyed on its bytes."""

    @settings(max_examples=60, deadline=None)
    @given(A=loop_lambdas, B=loop_lambdas)
    def test_kept_spectrum_equals_a_fresh_one(self, A, B):
        for L in (A, B, A):
            kept = _fields(classify(L))
            spectral._classify_bytes.cache_clear()
            assert kept == _fields(classify(L))

    def test_input_written_after_a_call(self):
        L = loop_lambda(0.2, 1.0, 0.0)
        other = loop_lambda(2.0, 0.2, 1.0)
        spectral._classify_bytes.cache_clear()
        expected = _fields(classify(other))
        spectral._classify_bytes.cache_clear()
        assert classify(L).classification is Classification.CONFINED
        L[...] = other
        assert _fields(classify(L)) == expected
        # the key is the C-order bytes, whatever the input's memory layout
        assert _fields(classify(np.asfortranarray(other))) == expected

    def test_returned_arrays_reject_writes(self):
        # no kept array, nor its base, takes the write flag back, so the
        # next call returns the decomposed values
        L = loop_lambda(0.2, 1.0, 0.0)
        spectral._classify_bytes.cache_clear()
        spec = classify(L)
        assert spec.classification is Classification.CONFINED
        expected = _fields(spec)
        for array in (spec.raw_eigenvalues, *(m.eigvec for m in spec.modes)):
            with pytest.raises(ValueError):
                array[...] = 0
            assert_write_flag_refused(array)
        assert classify(L) is spec
        assert _fields(spec) == expected

    def test_errors_are_not_kept(self):
        spectral._classify_bytes.cache_clear()
        for bad in (np.full((6, 6), np.nan), np.zeros((5, 5)), "abc", [[1, 2], [3]]):
            with pytest.raises(DomainError):
                classify(bad)
        assert spectral._classify_bytes.cache_info().currsize == 0

    @pytest.mark.parametrize("bad", ["abc", [[1, 2], [3]], [["1"] * 6] * 6, [[1j, None] * 3] * 6])
    def test_input_that_is_not_an_array_of_reals_raises(self, bad):
        # np.asarray(..., dtype=float) once raised a bare ValueError or TypeError,
        # or parsed the strings
        with pytest.raises(DomainError, match="^dynamical matrix must be a sequence of real"):
            classify(bad)

    def test_complex_input_raises(self):
        L = loop_lambda(0.2, 1.0, 0.0).astype(complex)
        L[0, 1] += 5j
        with pytest.raises(DomainError, match="real"):
            classify(L)
        with pytest.raises(DomainError, match="real"):
            classify(L.tolist())
        assert classify(L.real).classification is Classification.CONFINED


def _bits(spec, basis):
    """A spectrum's class, modes, eigenvalue and eigenvector bytes and, when
    Confined, its ladder basis's dtypes and bytes from basis(spec) (or the
    error that raises)."""
    fields = (spec.classification, spec.raw_eigenvalues.tobytes(),
              [(m.freq, m.krein_sign, m.eigvec.tobytes()) for m in spec.modes])
    if spec.classification is Classification.CONFINED:
        try:
            b = basis(spec)
            fields += tuple((a.dtype.str, a.tobytes()) for a in (b.coeffs, b.signs, b.freqs))
        except NumericalError as exc:
            fields += (str(exc),)
    return fields


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


# loop points anywhere in [0, 3]^2, in the alpha0 -> 0 corner (alpha0 near
# 1e-5, where the fast pair is 7e-6 apart), on both zero-mode rows, and near
# the Krein collisions of modes 2 and 3 around alpha0 = 0.35
loop_points = st.one_of(
    st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
    st.tuples(st.floats(0.0, 1e-3), st.floats(1e-6, 1e-4)),
    st.tuples(st.floats(0.0, 10.0), st.sampled_from([0.75, 1.5])),
    st.tuples(st.floats(0.0, 1.2), st.floats(0.33, 0.37)),
)


class TestNumpyReference:
    """``classify``'s Confined branch and ``_rule`` give the bits of their
    NumPy formulations in ``numpy_reference``."""

    @settings(max_examples=300, deadline=None)
    @given(point=loop_points, omega=st.one_of(st.just(1.0), st.floats(0.0, 2.0)),
           transpose=st.booleans())
    @example(point=(0.0, 1e-5), omega=1.0, transpose=False)
    @example(point=SLOW_MODE_POINT, omega=1.0, transpose=False)
    @example(point=(1.004194013496052, 0.34906544603570067), omega=1.0, transpose=False)
    def test_classify_matches_reference(self, point, omega, transpose):
        L = loop_lambda(*point, omega)
        L = L.T if transpose else L
        spectral._classify_bytes.cache_clear()
        assert _bits(classify(L), normal_mode_basis) == _bits(
            numpy_reference.classify(L), numpy_reference.basis)

    @pytest.mark.parametrize("layout", [(0, 3, 1, 4, 2, 5), (0, 1, 2, 3, 4, 5)])
    @pytest.mark.parametrize("drift", [0.0, 1e-8])
    def test_rotations_match_reference(self, layout, drift):
        # three planar rotations (drift +- i w): in the (x_a, p_a) planes the
        # forms are +-1, in other planes they vanish and demote to Boundary;
        # a drift within the gap tolerance but beyond 1e-9 ||Lambda|| fails
        # the eigenvector residual check
        L = np.zeros((6, 6))
        for (i, j), w in zip(np.reshape(layout, (3, 2)), (1.0, 1.7, 2.9)):
            L[i, i] = L[j, j] = drift
            L[i, j], L[j, i] = w, -w
        spectral._classify_bytes.cache_clear()
        got = _outcome(lambda: _bits(classify(L), normal_mode_basis))
        want = _outcome(lambda: _bits(numpy_reference.classify(L), numpy_reference.basis))
        assert got == want
        expected = (NumericalError if drift else Classification.CONFINED if layout[1] == 3
                    else Classification.BOUNDARY)
        assert got[0] is expected

    @settings(max_examples=100, deadline=None)
    @given(rows=st.sampled_from([None, 1, 9]), floor=st.sampled_from([0.0, 1e-7, 0.02, 0.5]),
           seed=st.integers(0, 2**32 - 1))
    def test_rule_matches_reference(self, rows, floor, seed):
        # eigenvalues of loop matrices, a third of them on a zero-mode row
        rng = np.random.default_rng(seed)
        n = rows or 1
        a0 = np.where(rng.random(n) < 1 / 3, rng.choice([0.75, 1.5], n), rng.uniform(0, 3, n))
        L = np.array([loop_lambda(a, b0, rng.choice([0.0, 1.0]))
                      for a, b0 in zip(rng.uniform(0, 3, n), a0)])
        ev, scale = np.linalg.eigvals(L), np.linalg.norm(L, axis=(1, 2))
        if rows is None:
            ev, scale = ev[0], float(scale[0])
        got, want = spectral._rule(ev, scale, floor), numpy_reference.rule(ev, scale, floor)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w) and np.array_equal(g, w)


class TestArrayDataclasses:
    def test_compare_by_identity_and_hash(self):
        L = loop_lambda(0.2, 1.0, 1.0)
        spectral._classify_bytes.cache_clear()
        spec = classify(L)
        spectral._classify_bytes.cache_clear()
        again = classify(L)
        basis, basis_again = normal_mode_basis(spec), normal_mode_basis(spec)
        # equal values, separate objects: == is identity, and every one hashes
        assert spec == spec and spec != again
        assert spec.modes[0] == spec.modes[0] and spec.modes[0] != again.modes[0]
        assert basis == basis and basis != basis_again
        assert len({spec, again, *spec.modes, *again.modes, basis, basis_again, spec}) == 10


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

    def test_S_is_optional_and_ignored(self, rng):
        for params in sample_confined_loop_points(rng, 3):
            S = build_G(params).S
            spec = classify(J6 @ S)
            with_S, without = normal_mode_basis(spec, S), normal_mode_basis(spec)
            for field in ("coeffs", "signs", "freqs"):
                assert np.array_equal(getattr(with_S, field), getattr(without, field))

    def test_near_krein_collision_gets_a_basis(self):
        # alpha = 0, alpha0 = 1e-5, w = 4 alpha0 / 3: the two fast modes, of
        # Krein signs +1 and -1, have symplectic forms +-6.67e-6; the
        # eigensolver's cross form between them (1e-14 to 1e-13) divided by
        # those forms broke the 1e-9 commutator check before the modes were
        # J-orthogonalised
        params = make_params_dimensionless(0.0, 1e-5, 1.3333333333333333e-05)
        S = build_G(params).S
        spec = classify(J6 @ S)
        assert spec.classification is Classification.CONFINED
        assert list(spec.krein_signs[:2]) == [1, -1]
        basis = normal_mode_basis(spec, S)
        C, D = basis.ladder_commutators()
        assert np.abs(C - np.diag(basis.signs)).max() <= 1e-9
        assert np.abs(D).max() <= 1e-9
        # aa_phase raises unless eq7 = eq8 within 1e-6 (1 + |eq8|)
        report = aa_phase(params, PenningQuadrupole(params.w0), FockLabel(1, 0, 0))
        eq7, eq8 = report.aa_phase_eq7, report.aa_phase_eq8
        assert abs(eq7 - eq8) <= 1e-6 * (1.0 + abs(eq8))
        assert eq7 == pytest.approx(-2.0 * math.pi, abs=1e-9)

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
    rule as the deleted ``stable_modes`` applied it, with one tolerance."""
    tau = _gap_tol(scale)
    mask = np.zeros(6, dtype=bool)
    for i in range(6):
        if abs(ev[i].real) > tau or ev[i].imag <= tau:
            continue
        if np.min(np.abs(np.delete(ev, i) - ev[i])) <= tau:
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
        c2, c1, c0 = _mu_cubic(S)
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
