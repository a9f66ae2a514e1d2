import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import numpy_reference
from conftest import (
    SLOW_MODE_POINT,
    assert_write_flag_refused,
    route_spread,
    sample_confined_loop_points,
)
from penphase import (
    Classification,
    DegeneracyError,
    DomainError,
    IsotropicOscillator,
    J6,
    NoCyclicStatesError,
    NormalModeBasis,
    NumericalError,
    PenningQuadrupole,
    SystemParams,
    aa_phase,
    berry_phase_adiabatic,
    build_G,
    build_L3_form,
    classify,
    cos_theta,
    dmode_domega,
    expectation_quadratic,
    make_params_adiabatic,
    normal_mode_basis,
    quasienergy,
    resonance_shift,
)
from penphase import phases, spectral
from penphase.phases import FockLabel


def loop_binding():
    return PenningQuadrupole(4.0 / 3.0)


class TestFockLabel:
    def test_validation(self):
        FockLabel(0, 0, 0)
        with pytest.raises(DomainError):
            FockLabel(-1, 0, 0)
        with pytest.raises(DomainError):
            FockLabel(0, 0.5, 0)
        for bad in (2.5, math.inf, -math.inf, math.nan, 10**400):
            with pytest.raises(DomainError):
                FockLabel(bad, 0, 0)
            with pytest.raises(DomainError):
                FockLabel(0, 0, bad)
        FockLabel(2.0, np.int64(1), 0)


class TestQuasienergy:
    def test_all_positive_ground(self):
        basis = NormalModeBasis(
            coeffs=np.zeros((3, 6), dtype=complex),
            signs=np.array([1, 1, 1]),
            freqs=np.array([1.4, 0.9, 0.3]),
        )
        assert quasienergy(basis, FockLabel(0, 0, 0)) == pytest.approx((1.4 + 0.9 + 0.3) / 2)

    def test_textbook_isotropic_level(self):
        w0 = 0.8
        basis = NormalModeBasis(
            coeffs=np.zeros((3, 6), dtype=complex),
            signs=np.array([1, 1, 1]),
            freqs=np.array([w0, w0, w0]),
        )
        assert quasienergy(basis, FockLabel(1, 0, 0)) == pytest.approx(w0 * (1.5 + 1.0))

    def test_matches_fock_oracle_low_levels(self, oracle_case):
        basis = oracle_case["basis"]
        oracle, dense = oracle_case["oracle"], oracle_case["dense"]
        for label in [FockLabel(0, 0, 0), FockLabel(1, 0, 0),
                      FockLabel(0, 1, 0), FockLabel(0, 0, 1)]:
            target = quasienergy(basis, label)
            energy, _ = oracle.match_level(dense, target)
            assert energy == pytest.approx(target, abs=1e-6)


finite = st.floats(min_value=-1e10, max_value=1e10)
triple = st.lists(finite, min_size=3, max_size=3).map(np.array)
big_label = st.builds(FockLabel, *[st.integers(min_value=0, max_value=10**300)] * 3)


class TestSumsAreBitIdentical:
    """The reports add three Python floats in NumPy's order; the pinned CLI
    digests rest on that order, so a reordered sum shows here first."""

    @settings(max_examples=300, deadline=None)
    @given(signs=st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=3).map(np.array),
           freqs=triple, dfreq=triple, l3=triple, tie=st.booleans(), n=big_label)
    def test_report_equals_np_sum(self, signs, freqs, dfreq, l3, tie, n):
        if tie:  # eq7 = eq8 to the bit, so the report is returned
            l3 = -signs * dfreq
        basis = NormalModeBasis(coeffs=np.zeros((3, 6), dtype=complex), signs=signs,
                                freqs=freqs)
        assert _outcome(phases._assemble_report, basis, n, dfreq, l3) == _outcome(
            numpy_reference.report, basis, n, dfreq, l3)
        with np.errstate(over="ignore", invalid="ignore"):
            energy = float(np.sum(signs * freqs * (n.as_array() + 0.5)))
        assert repr(quasienergy(basis, n)) == repr(energy)

    def test_zero_terms_sum_to_positive_zero(self):
        # np.sum starts from +0.0, so three -0.0 terms give +0.0
        basis = NormalModeBasis(coeffs=np.zeros((3, 6), dtype=complex),
                                signs=np.array([1, 1, -1]), freqs=np.array([-0.0, -0.0, 0.0]))
        assert repr(quasienergy(basis, FockLabel(0, 0, 0))) == repr(0.0)


class TestExpectationQuadratic:
    def test_generator_self_consistency(self, rng):
        for params in sample_confined_loop_points(rng, 3):
            S = build_G(params).S
            basis = normal_mode_basis(classify(J6 @ S), S)
            for label in [FockLabel(0, 0, 0), FockLabel(2, 1, 3)]:
                direct = quasienergy(basis, label)
                viaQ = expectation_quadratic(S, basis, label)
                assert viaQ == pytest.approx(direct, abs=1e-10 * (1 + abs(direct)))

    def test_circular_basis_integer_angular_momentum(self):
        # isotropic oscillator with rotation: modes are L3 eigenmodes, so the
        # expectation is the exact integer n_slow - n_fast
        p = SystemParams(b=0, b0=0, w0=1.0, omega=0.3)
        S = build_G(p, IsotropicOscillator(1.0)).S
        basis = normal_mode_basis(classify(J6 @ S), S)
        L3 = build_L3_form().S
        for n in [(0, 0, 0), (1, 0, 0), (0, 0, 2), (3, 1, 1)]:
            got = expectation_quadratic(L3, basis, FockLabel(*n))
            assert got == pytest.approx(round(got), abs=1e-10)
        # fast mode (w0 + omega) carries -1, slow mode (w0 - omega) carries +1
        assert expectation_quadratic(L3, basis, FockLabel(1, 0, 0)) == pytest.approx(-1.0, abs=1e-10)
        assert expectation_quadratic(L3, basis, FockLabel(0, 0, 1)) == pytest.approx(1.0, abs=1e-10)

    def test_q_is_checked_as_a_quadratic_form(self):
        S = build_G(SystemParams(b=0, b0=0, w0=1.0, omega=0.3), IsotropicOscillator(1.0)).S
        basis = normal_mode_basis(classify(J6 @ S))
        label = FockLabel(1, 0, 2)
        L3 = build_L3_form()
        assert expectation_quadratic(L3, basis, label) == expectation_quadratic(
            L3.S, basis, label) == expectation_quadratic(L3.S.tolist(), basis, label)
        for Q, message in [(np.eye(5), "6x6"), (np.eye(6) + 1e-3j, "real"),
                           (np.full((6, 6), np.nan), "finite"),
                           (np.triu(np.ones((6, 6))), "symmetric")]:
            with pytest.raises(DomainError, match=message):
                expectation_quadratic(Q, basis, label)

    def test_matches_fock_oracle(self, oracle_case):
        basis = oracle_case["basis"]
        oracle, dense = oracle_case["oracle"], oracle_case["dense"]
        L3 = build_L3_form().S
        for label in [FockLabel(0, 0, 0), FockLabel(1, 0, 0),
                      FockLabel(0, 1, 0), FockLabel(0, 0, 1)]:
            target_E = quasienergy(basis, label)
            _, vec = oracle.match_level(dense, target_E)
            got = oracle.expectation(L3, vec)
            assert got == pytest.approx(expectation_quadratic(L3, basis, label), abs=1e-6)


class TestCosTheta:
    def test_values(self):
        assert cos_theta(0.0) == 1.0
        assert cos_theta(1.0) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert cos_theta(1e6) < 2e-6
        with pytest.raises(DomainError):
            cos_theta(-0.1)
        with pytest.raises(DomainError):
            cos_theta(math.nan)


class TestDerivatives:
    def test_method_triangle(self, rng):
        for params in sample_confined_loop_points(rng, 20):
            results = {
                m: dmode_domega(params, PenningQuadrupole(params.w0), method=m)
                for m in ("implicit", "perturbative", "finite_diff")
            }
            vals = list(results.values())
            for i in range(3):
                for j in range(i + 1, 3):
                    rel = np.abs(vals[i] - vals[j]) / (1.0 + np.abs(vals[i]))
                    assert rel.max() < 1e-6

    def test_static_loop_shift_pattern(self):
        # b = 0 limit: axial unshifted, both circulating branches shift -1
        params = SystemParams.penning_loop(b0=1.0, b=0.0, omega=0.05)
        d = dmode_domega(params, loop_binding())
        assert np.allclose(d, [0.0, -1.0, -1.0], atol=1e-9)

    def test_oscillator_cosine_pattern(self):
        # spherical binding: derivatives at omega = 0 are (-1, 0, +1) cos(theta)
        for k in (0.05, 0.5, 2.0):
            params = SystemParams(b=k, b0=1.0, w0=4.0 / 3.0, omega=0.0)
            d = dmode_domega(params, IsotropicOscillator(4.0 / 3.0))
            ct = cos_theta(k)
            assert np.allclose(d / ct, [-1.0, 0.0, 1.0], atol=1e-9)

    def test_penning_loop_not_cosine(self):
        # the quadrupole binding bends the curves away from plain cos(theta)
        ratios = []
        for k in (0.05, 0.24):
            params = SystemParams.penning_loop(b0=1.0, b=k, omega=0.0)
            d = dmode_domega(params, loop_binding())
            ratios.append(d / cos_theta(k))
        drift = np.abs(ratios[1] - ratios[0]) / np.abs(ratios[0])
        assert drift.max() > 0.01

    def test_degenerate_static_point_rejected(self):
        params = SystemParams.penning_loop(b0=1.0, b=0.0, omega=0.0)
        with pytest.raises(DegeneracyError):
            dmode_domega(params, loop_binding())

    def test_unknown_method_rejected(self):
        params = SystemParams.penning_loop(b0=1.0, b=0.1, omega=0.0)
        with pytest.raises(DomainError):
            dmode_domega(params, loop_binding(), method="chebyshev")


class TestAAPhase:
    def test_requires_rotation(self):
        params = SystemParams.penning_loop(b0=1.0, b=0.1, omega=0.0)
        with pytest.raises(DomainError):
            aa_phase(params, loop_binding(), FockLabel(0, 0, 0))

    def test_unconfined_has_no_cyclic_states(self):
        params = make_params_dimensionless = SystemParams.penning_loop(b0=0.2, b=2.0, omega=1.0)
        with pytest.raises(NoCyclicStatesError):
            aa_phase(params, PenningQuadrupole(params.w0), FockLabel(0, 0, 0))

    @pytest.mark.parametrize("n", [FockLabel(10**308, 0, 0), FockLabel(10**308, 10**308, 0)])
    def test_overflowing_phase_raises(self, n):
        # eq7 and eq8 overflow to inf, where |eq7 - eq8| is nan and passes the
        # route check
        params = make_params_adiabatic(0.1, 0.01)
        with pytest.raises(DomainError, match="occupations too large"):
            aa_phase(params, PenningQuadrupole(params.w0), n)

    def test_hellmann_feynman_consistency(self, rng):
        # the headline cross-check: the <L3> route equals the derivative route,
        # and the three derivative routes agree at the same points
        for params in sample_confined_loop_points(rng, 20):
            binding = PenningQuadrupole(params.w0)
            for _ in range(5):
                n = FockLabel(*(int(v) for v in rng.integers(0, 4, 3)))
                report = aa_phase(params, binding, n)
                assert report.aa_phase_eq7 is not None
                assert abs(report.aa_phase_eq7 - report.aa_phase_eq8) <= 1e-6 * (
                    1 + abs(report.aa_phase_eq8)
                )
            assert route_spread(params, binding) < 1e-6

    def test_label_linearity_via_expectation_route(self, rng):
        params = sample_confined_loop_points(rng, 1)[0]
        binding = PenningQuadrupole(params.w0)
        base = aa_phase(params, binding, FockLabel(1, 1, 1))
        spec = classify(J6 @ build_G(params, binding).S)
        for i, bump in enumerate([(2, 1, 1), (1, 2, 1), (1, 1, 2)]):
            bumped = aa_phase(params, binding, FockLabel(*bump))
            slope = bumped.aa_phase_eq7 - base.aa_phase_eq7
            expected = -2 * math.pi * spec.krein_signs[i] * base.dfreq_domega[i]
            assert slope == pytest.approx(expected, abs=1e-6 * (1 + abs(expected)))

    def test_static_loop_ground_phase_is_integer_pi(self):
        # (0, -1, -1) shifts with signs (+, +, -) cancel for the ground state
        params = SystemParams.penning_loop(b0=1.0, b=0.0, omega=0.05)
        report = aa_phase(params, loop_binding(), FockLabel(0, 0, 0))
        assert report.aa_phase_eq8 == pytest.approx(0.0, abs=1e-9)
        assert report.aa_phase_eq7 == pytest.approx(0.0, abs=1e-9)


class TestBerryPhaseAdiabatic:
    def test_inside_stable_interval(self):
        report = berry_phase_adiabatic(0.2, loop_binding(), FockLabel(0, 0, 0))
        assert report.aa_phase_eq7 is None
        assert np.isfinite(report.aa_phase_eq8)
        assert len(report.dfreq_domega) == 3

    def test_beyond_critical_ratio_fails(self):
        with pytest.raises(NoCyclicStatesError):
            berry_phase_adiabatic(0.26, loop_binding(), FockLabel(0, 0, 0))

    def test_oscillator_binding_any_ratio(self):
        report = berry_phase_adiabatic(0.26, IsotropicOscillator(4.0 / 3.0), FockLabel(0, 0, 0))
        d_over_ct = np.array(report.dfreq_domega) / cos_theta(0.26)
        assert np.allclose(d_over_ct, [-1.0, 0.0, 1.0], atol=1e-9)

    def test_matches_small_omega_cross_check(self):
        # test-only cross-check: finite rotation at omega = 1e-4 approaches the
        # omega = 0 perturbative value linearly
        k = 0.15
        report0 = berry_phase_adiabatic(k, loop_binding(), FockLabel(0, 0, 0))
        params = SystemParams.penning_loop(b0=1.0, b=k, omega=1e-4)
        d_small = dmode_domega(params, loop_binding(), method="finite_diff")
        assert np.abs(np.array(report0.dfreq_domega) - d_small).max() < 1e-2


class TestResonanceShift:
    def test_overflowing_label_raises(self):
        params = make_params_adiabatic(0.1, 0.01)
        with pytest.raises(DomainError, match="occupations too large"):
            resonance_shift(params, PenningQuadrupole(params.w0), FockLabel(10**308, 0, 0),
                            FockLabel(0, 0, 0), 1e-3)

    def test_overflowing_shift_raises(self):
        # each report is finite, beta_n near +9.2e307 and beta_n' near
        # -9.4e307, but their difference overflows, so omega_p_linear is -inf
        params = make_params_adiabatic(0.1, 0.01)
        binding = PenningQuadrupole(params.w0)
        n, n_prime = FockLabel(29 * 10**306, 0, 0), FockLabel(0, 0, 145 * 10**305)
        assert all(math.isfinite(aa_phase(params, binding, label).aa_phase_eq8)
                   for label in (n, n_prime))
        with pytest.raises(DomainError, match="finite shift"):
            resonance_shift(params, binding, n, n_prime, 1e-3)

    def test_matches_two_aa_phase_calls(self, rng):
        for params in sample_confined_loop_points(rng, 4):
            binding = PenningQuadrupole(params.w0)
            n, np_ = FockLabel(2, 0, 1), FockLabel(0, 1, 0)
            res = resonance_shift(params, binding, n, np_, 1e-3)
            rep_n, rep_np = aa_phase(params, binding, n), aa_phase(params, binding, np_)
            assert res.omega_p == rep_n.quasienergy - rep_np.quasienergy
            assert res.beta_n == rep_n.aa_phase_eq8
            assert res.beta_n_prime == rep_np.aa_phase_eq8

    def test_zero_shift(self, rng):
        params = sample_confined_loop_points(rng, 1)[0]
        res = resonance_shift(
            params, PenningQuadrupole(params.w0),
            FockLabel(1, 0, 0), FockLabel(0, 0, 0), 0.0,
        )
        assert res.omega_p_linear == res.omega_p
        assert res.omega_p_exact == pytest.approx(res.omega_p, abs=1e-12)

    def test_identical_labels(self, rng):
        params = sample_confined_loop_points(rng, 1)[0]
        res = resonance_shift(
            params, PenningQuadrupole(params.w0),
            FockLabel(1, 2, 0), FockLabel(1, 2, 0), 1e-3,
        )
        assert res.omega_p == 0.0
        assert res.omega_p_linear == pytest.approx(0.0, abs=1e-15)
        assert res.omega_p_exact == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_convergence(self, rng):
        params = sample_confined_loop_points(rng, 1)[0]
        binding = PenningQuadrupole(params.w0)
        n, np_ = FockLabel(1, 0, 0), FockLabel(0, 0, 1)
        errs = []
        deltas = [1e-3 * params.omega, 1e-4 * params.omega, 1e-5 * params.omega]
        for d in deltas:
            res = resonance_shift(params, binding, n, np_, d)
            errs.append(abs(res.omega_p_exact - res.omega_p_linear))
        # halving delta by 10 shrinks the linearization error by ~100
        assert errs[0] / errs[1] == pytest.approx(100.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(100.0, rel=0.3)

    def test_near_krein_collision_pairs_by_prediction(self):
        # modes 2 and 3 (Krein signs +1, -1, gap 0.023) have unit eigenvectors
        # whose overlap is within 1e-3 of 1 across the shift, yet each
        # prediction misses its shifted frequency by 1.4e-4 against a half-gap
        # of 9.7e-3; the error's coefficient is large (144 delta^2), its order two
        params = SystemParams.penning_loop(
            b0=0.34906544603570067, b=1.004194013496052, omega=1.0
        )
        r1, r2 = _error_ratios(params, FockLabel(1, 0, 0), FockLabel(0, 1, 0))
        assert 30.0 < r1 < 300.0 and 30.0 < r2 < 300.0

    def test_overlap_ambiguous_points_pair_and_converge(self):
        # of 3,000 uniform loop points in [0, 3]^2, the Confined ones whose
        # shifted point is Confined and whose eigenvector overlaps cannot
        # tell two modes apart (best and runner-up within 1e-3)
        def overlap_ambiguous(s1, s2):
            V = np.array([[m.eigvec for m in s.modes] for s in (s1, s2)])
            V = V / np.linalg.norm(V, axis=-1, keepdims=True)
            best = np.sort(np.abs(np.conj(V[0]) @ V[1].T), axis=1)
            return bool(np.any(best[:, -1] - best[:, -2] < 1e-3))

        points = []
        for a, a0 in np.random.default_rng(7).uniform(0.0, 3.0, (3000, 2)):
            params = SystemParams.penning_loop(b0=a0, b=a, omega=1.0)
            S = build_G(params).S
            spec, shifted = (classify(J6 @ M) for M in (S, S - 1e-3 * phases._SL3))
            if (spec.classification is Classification.CONFINED
                    and shifted.classification is Classification.CONFINED
                    and overlap_ambiguous(spec, shifted)):
                points.append(params)
        assert len(points) == 6
        for params in points:
            r1, r2 = _error_ratios(params, FockLabel(1, 0, 0), FockLabel(0, 1, 0))
            assert 30.0 < r1 < 300.0 and 30.0 < r2 < 300.0

    @staticmethod
    def _raises_ambiguous(alpha, alpha0, delta):
        params = SystemParams.penning_loop(b0=alpha0, b=alpha, omega=1.0)
        with pytest.raises(DegeneracyError, match="ambiguous mode pairing"):
            resonance_shift(
                params, PenningQuadrupole(params.w0),
                FockLabel(1, 0, 0), FockLabel(0, 1, 0), delta,
            )

    def test_ambiguous_pairing_raises(self):
        # the shift moves modes 2 and 3 by 0.04; their predictions land 0.018
        # from the other mode's shifted frequency, half-gap 0.0073
        self._raises_ambiguous(0.1660630532429236, 0.3491215753239909, -0.05)

    def test_two_predictions_on_one_frequency_raise(self):
        # all three predictions lie within the half-gap 0.030, but modes 2 and
        # 3 (both Krein +1, so the sign check cannot tell) pick one frequency
        self._raises_ambiguous(0.31058966167873037, 0.9662454150662392, -0.1)

    def test_krein_sign_change_raises(self):
        # inside the shift the slow mode meets its mirror at zero, turns into a
        # real pair near delta = -0.08 and returns with the opposite Krein sign;
        # its prediction lands 0.023 from it, half-gap 0.38: only the signs see it
        params = SystemParams.penning_loop(b0=1.3517536066552864, b=0.2982333537979224, omega=1.0)
        with pytest.raises(NumericalError, match="Krein signs changed"):
            resonance_shift(
                params, PenningQuadrupole(params.w0),
                FockLabel(1, 0, 0), FockLabel(0, 0, 1), -0.1,
            )


def _error_ratios(params, n, n_prime):
    """|exact - linear| at delta = 1e-3 over 1e-4, and 1e-4 over 1e-5."""
    errs = []
    for d in (1e-3, 1e-4, 1e-5):
        res = resonance_shift(params, PenningQuadrupole(params.w0), n, n_prime, d)
        errs.append(abs(res.omega_p_exact - res.omega_p_linear))
    return errs[0] / errs[1], errs[1] / errs[2]


def _outcome(f, *args):
    """repr of f's result (exact for floats) or the type and text of its error."""
    try:
        return repr(f(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


fock_label = st.builds(FockLabel, *[st.integers(min_value=0, max_value=3)] * 3)


label_up_to = st.integers(min_value=0, max_value=10**300).flatmap(
    lambda top: st.builds(FockLabel, *[st.integers(min_value=0, max_value=top)] * 3))


class TestNumpyReference:
    """The point query's bookkeeping on Python floats (occupations, the
    pairing, the spectrum and basis it reads) gives the bits of the NumPy
    formulations in ``numpy_reference``, and the same errors."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.one_of(big_label, fock_label))
    @example(n=FockLabel(2**53 + 1, 10**300, 2**53 + 1))
    @example(n=FockLabel(3.0, np.int64(2**62 + 1), True))
    def test_occupation_matches_reference(self, n):
        assert repr(phases._occupation(n)) == repr(numpy_reference.occupation(n).tolist())

    @settings(max_examples=250, deadline=None)
    @given(point=st.one_of(
               st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
               st.tuples(st.floats(0.0, 1e-3), st.floats(1e-6, 1e-4)),
               st.tuples(st.floats(0.0, 1.2), st.floats(0.33, 0.37))),
           omega=st.one_of(st.just(1.0), st.floats(0.01, 2.0)),
           n=label_up_to, n_prime=st.one_of(fock_label, label_up_to),
           delta=st.one_of(st.sampled_from([1e-3, -1e-3, -0.05, -0.1]),
                           st.floats(-0.3, 0.3)))
    @example(point=(0.0, 1e-5), omega=1.0, n=FockLabel(1, 0, 0), n_prime=FockLabel(0, 1, 0),
             delta=1e-3)
    @example(point=SLOW_MODE_POINT, omega=1.0, n=FockLabel(0, 0, 1), n_prime=FockLabel(0, 0, 0),
             delta=1e-9)
    @example(point=(1.004194013496052, 0.34906544603570067), omega=1.0,
             n=FockLabel(1, 0, 0), n_prime=FockLabel(0, 1, 0), delta=1e-3)
    @example(point=(0.1660630532429236, 0.3491215753239909), omega=1.0,
             n=FockLabel(1, 0, 0), n_prime=FockLabel(0, 1, 0), delta=-0.05)
    @example(point=(0.31058966167873037, 0.9662454150662392), omega=1.0,
             n=FockLabel(1, 0, 0), n_prime=FockLabel(0, 1, 0), delta=-0.1)
    @example(point=(0.2982333537979224, 1.3517536066552864), omega=1.0,
             n=FockLabel(1, 0, 0), n_prime=FockLabel(0, 0, 1), delta=-0.1)
    @example(point=(0.3, 0.5), omega=1.0, n=FockLabel(10**308, 0, 0),
             n_prime=FockLabel(0, 10**308, 0), delta=1e-3)
    @example(point=(0.3, 0.5), omega=1.0, n=FockLabel(10**308, 10**308, 10**308),
             n_prime=FockLabel(0, 0, 0), delta=1e-3)
    def test_point_query_matches_reference(self, point, omega, n, n_prime, delta):
        # the examples: the alpha0 -> 0 corner, the slow-mode point, a near
        # Krein collision, both ambiguous pairings, a Krein sign change,
        # overflowing phases and occupations near the float maximum
        params = SystemParams.penning_loop(b0=point[1], b=point[0], omega=omega)
        binding = PenningQuadrupole(params.w0)
        phases._point_record.cache_clear()
        spectral._classify_bytes.cache_clear()
        assert _outcome(aa_phase, params, binding, n) == _outcome(
            numpy_reference.aa_phase, params, binding, n)
        assert _outcome(resonance_shift, params, binding, n, n_prime, delta) == _outcome(
            numpy_reference.resonance_shift, params, binding, n, n_prime, delta)


class TestPointRecord:
    """The last point's record, kept by ``phases._point_record``."""

    def test_aa_phase_then_resonance_shift_classify_twice(self, rng, monkeypatch):
        phases._point_record.cache_clear()
        params = sample_confined_loop_points(rng, 1)[0]
        binding = PenningQuadrupole(params.w0)
        calls = []

        def counted(lam):
            calls.append(1)
            return classify(lam)

        monkeypatch.setattr(phases, "classify", counted)
        aa_phase(params, binding, FockLabel(1, 0, 0))
        resonance_shift(params, binding, FockLabel(1, 0, 0), FockLabel(0, 1, 0), 1e-3)
        # one for the point, one for the shifted point; one entry is kept
        assert len(calls) == 2
        assert phases._point_record.cache_info().maxsize == 1

    def test_point_query_decomposes_two_matrices(self, rng, monkeypatch):
        # classify keeps Lambda's spectrum for the record; the shifted point
        # is the other decomposition
        params = sample_confined_loop_points(rng, 1)[0]
        binding = PenningQuadrupole(params.w0)
        phases._point_record.cache_clear()
        spectral._classify_bytes.cache_clear()
        calls = []
        eig = np.linalg.eig

        def counted(a):
            calls.append(1)
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counted)
        classify(J6 @ build_G(params, binding).S)
        aa_phase(params, binding, FockLabel(1, 0, 0))
        resonance_shift(params, binding, FockLabel(1, 0, 0), FockLabel(0, 1, 0), 1e-3)
        assert len(calls) == 2

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(min_value=0.0, max_value=3.0),
           alpha0=st.floats(min_value=0.0, max_value=3.0),
           n=fock_label, n_prime=fock_label)
    def test_cold_and_warm_reports_are_bit_identical(self, alpha, alpha0, n, n_prime):
        params = SystemParams.penning_loop(b0=alpha0, b=alpha, omega=1.0)
        assume(classify(J6 @ build_G(params).S).classification is Classification.CONFINED)
        binding = PenningQuadrupole(params.w0)
        # the shifted point may still raise; its error must repeat as well
        phases._point_record.cache_clear()
        cold_phase = _outcome(aa_phase, params, binding, n)
        phases._point_record.cache_clear()
        cold_shift = _outcome(resonance_shift, params, binding, n, n_prime, 1e-3)
        assert _outcome(resonance_shift, params, binding, n, n_prime, 1e-3) == cold_shift
        assert _outcome(aa_phase, params, binding, n) == cold_phase

    @pytest.mark.parametrize("b, b0, error", [(2.0, 0.2, NoCyclicStatesError),
                                              (0.5, 0.75, DegeneracyError)])
    def test_errors_are_not_kept(self, b, b0, error):
        # Unconfined, then Boundary on the alpha0 = 3/4 zero-mode line
        phases._point_record.cache_clear()
        params = SystemParams.penning_loop(b0=b0, b=b, omega=1.0)
        for _ in range(2):
            with pytest.raises(error):
                aa_phase(params, PenningQuadrupole(params.w0), FockLabel(0, 0, 0))
        info = phases._point_record.cache_info()
        assert (info.misses, info.currsize) == (2, 0)

    def test_bindings_do_not_share_an_entry(self):
        phases._point_record.cache_clear()
        params = SystemParams(b=0.1, b0=1.0, w0=4.0 / 3.0, omega=0.3)
        n = FockLabel(1, 0, 0)
        penning = aa_phase(params, PenningQuadrupole(params.w0), n)
        spherical = aa_phase(params, IsotropicOscillator(params.w0), n)
        assert phases._point_record.cache_info().misses == 2
        assert spherical != penning
        phases._point_record.cache_clear()
        assert aa_phase(params, IsotropicOscillator(params.w0), n) == spherical

    def test_changed_binding_misses(self):
        class Spring:
            """A mutable, unhashable binding with spherical curvatures."""

            __hash__ = None

            def __init__(self, w0):
                self.w0 = w0

            def curvatures(self):
                return [self.w0 * self.w0] * 3

        params = SystemParams(b=0.1, b0=1.0, w0=4.0 / 3.0, omega=0.3)
        n = FockLabel(0, 1, 0)
        expected = {}
        for w0 in (1.0, 1.5):
            phases._point_record.cache_clear()
            expected[w0] = aa_phase(params, IsotropicOscillator(w0), n)
        assert expected[1.0] != expected[1.5]
        phases._point_record.cache_clear()
        spring = Spring(1.0)
        assert aa_phase(params, spring, n) == expected[1.0]
        spring.w0 = 1.5
        assert aa_phase(params, spring, n) == expected[1.5]
        assert phases._point_record.cache_info().misses == 2

    @pytest.mark.parametrize("omega", [0.0, 1.0])
    def test_record_is_read_only(self, omega):
        params = SystemParams.penning_loop(b0=1.0, b=0.1, omega=omega)
        S, spec, basis, dfreq, l3 = phases._point_record(
            params, PenningQuadrupole(params.w0).curvatures())
        stored = [S, spec.raw_eigenvalues, *(m.eigvec for m in spec.modes),
                  basis.coeffs, basis.signs, basis.freqs, dfreq, l3]
        assert len(stored) == 10
        for array in stored:
            with pytest.raises(ValueError):
                array[...] = 0
            assert_write_flag_refused(array)
