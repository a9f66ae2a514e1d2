import math

import numpy as np
import pytest

from conftest import BIG_INTS, assert_write_flag_refused
from dynamics_oracle import classical_energy, quadratic_value
from penphase import (
    DomainError,
    IsotropicOscillator,
    J6,
    PenningQuadrupole,
    QuadraticForm,
    SystemParams,
    build_G,
    build_L3_form,
    make_params_adiabatic,
    make_params_dimensionless,
)
from penphase import model


def hessian_fd(f, n=6, h=1e-5):
    """Finite-difference Hessian of a scalar function at the origin."""
    H = np.zeros((n, n))
    e = np.eye(n)
    for i in range(n):
        for j in range(n):
            H[i, j] = (
                f(h * e[i] + h * e[j])
                - f(h * e[i] - h * e[j])
                - f(-h * e[i] + h * e[j])
                + f(-h * e[i] - h * e[j])
            ) / (4.0 * h * h)
    return H


class TestParams:
    def test_dimensionless_factory(self):
        p = make_params_dimensionless(0.0, 0.0, 0.0)
        assert (p.b, p.b0, p.w0, p.omega) == (0.0, 0.0, 0.0, 1.0)

    def test_dimensionless_rejects_negative(self):
        with pytest.raises(DomainError):
            make_params_dimensionless(-0.1, 0.5, 0.1)

    def test_penning_loop_accessor(self):
        p = make_params_dimensionless(0.1, 0.5, 2.0 / 3.0)
        assert p.w0 == 4.0 * p.b0 / 3.0
        assert p.k == pytest.approx(0.2, abs=0)
        q = make_params_dimensionless(0.7, 0.9, 4.0 * 0.9 / 3.0)
        assert q.w0 == 4.0 * q.b0 / 3.0
        loop = SystemParams.penning_loop(b0=-0.9, b=0.7, omega=1.0)
        assert loop.w0 == 4.0 * loop.b0 / 3.0

    def test_adiabatic_factory(self):
        p = make_params_adiabatic(1.0, 0.0)
        assert (p.b, p.b0, p.omega) == (1.0, 1.0, 0.0)
        assert p.w0 == pytest.approx(4.0 / 3.0, abs=0)
        assert p.w0 == 4.0 * p.b0 / 3.0
        with pytest.raises(DomainError):
            make_params_adiabatic(0.0, 0.0)
        with pytest.raises(DomainError):
            make_params_adiabatic(-0.3, 0.0)

    @pytest.mark.parametrize("factory, args, message", [
        (make_params_dimensionless, ("1", 1, 1), "alpha must be a real number"),
        (make_params_dimensionless, (1, 1j, 1), "alpha0 must be a real number"),
        (make_params_dimensionless, (1, 1, np.complex128(1.0)), "w must be a real number"),
        (make_params_adiabatic, ("0.2",), "field ratio k must be a real number"),
        (make_params_adiabatic, (0.2 + 0j,), "field ratio k must be a real number"),
        (make_params_adiabatic, (0.2, "0"), "omega must be a real number"),
        # ints beyond the float range, rejected as inf is
        (make_params_dimensionless, (10**400, 1, 1), "parameters must be finite"),
        (make_params_dimensionless, (1, 1, -10**400), "must be >= 0"),
        (make_params_adiabatic, (10**400,), "parameters must be finite"),
        (make_params_adiabatic, (0.2, 10**400), "parameters must be finite"),
    ])
    def test_factories_reject_what_is_not_a_real_number(self, factory, args, message):
        with pytest.raises(DomainError, match=message):
            factory(*args)

    @pytest.mark.parametrize("value", ["1", 1j, np.complex128(1.0), None])
    @pytest.mark.parametrize("field", ["b", "b0", "w0", "omega"])
    def test_params_reject_what_is_not_a_real_number(self, field, value):
        # a string is not parsed: SystemParams(b="1", ...) once gave b = 1.0
        args = {"b": 0.5, "b0": 1.0, "w0": 1.0, "omega": 0.0, field: value}
        with pytest.raises(DomainError, match=f"^{field} must be a real number"):
            SystemParams(**args)
        if field != "w0":
            with pytest.raises(DomainError, match=f"^{field} must be a real number"):
                SystemParams.penning_loop(**{k: v for k, v in args.items() if k != "w0"})

    @pytest.mark.parametrize("value", BIG_INTS)
    @pytest.mark.parametrize("field", ["b", "b0", "w0", "omega"])
    def test_params_reject_ints_beyond_the_float_range(self, field, value):
        # such an int once raised a bare OverflowError from float()
        args = {"b": 0.5, "b0": 1.0, "w0": 1.0, "omega": 0.0, field: value}
        message = "must be >= 0" if field in ("w0", "omega") and value < 0 else "must be finite"
        with pytest.raises(DomainError, match=message):
            SystemParams(**args)
        if field != "w0":
            with pytest.raises(DomainError, match=message):
                SystemParams.penning_loop(**{k: v for k, v in args.items() if k != "w0"})

    @pytest.mark.parametrize("field, message", [
        ("w0", "binding frequency w0 must be >= 0, got -0.5"),
        ("omega", "rotation frequency omega must be >= 0, got -0.5"),
    ])
    def test_params_reject_negative_frequencies(self, field, message):
        args = {"b": 0.5, "b0": 1.0, "w0": 1.0, "omega": 0.0, field: -0.5}
        with pytest.raises(DomainError, match=f"^{message}$"):
            SystemParams(**args)

    def test_adiabatic_factory_rejects_negative_omega(self):
        with pytest.raises(DomainError, match="^omega must be >= 0, got -0.1$"):
            make_params_adiabatic(0.2, -0.1)

    def test_params_accept_ints_and_numpy_reals(self):
        p = SystemParams(b=np.int64(-2), b0=np.float32(0.5), w0=3, omega=np.float64(1.0))
        assert (p.b, p.b0, p.w0, p.omega) == (2.0, 0.5, 3.0, 1.0)
        assert all(type(x) is float for x in (p.b, p.b0, p.w0, p.omega))

    def test_field_sign_absorbed(self):
        p = SystemParams(b=-0.4, b0=-1.2, w0=0.5, omega=0.0)
        assert p.b == 0.4 and p.b0 == 1.2

    def test_k_accessor_requires_axial_field(self):
        p = SystemParams(b=1.0, b0=0.0, w0=1.0, omega=0.0)
        with pytest.raises(DomainError):
            _ = p.k
        p1 = SystemParams(b=1.0, b0=2.0, w0=1.0, omega=2.0)
        assert p1.k == 0.5


_ABOVE_MAX = math.nextafter(model._MAX_MAGNITUDE, math.inf)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, _ABOVE_MAX, -_ABOVE_MAX, 1e300])
def test_check_range_float_path_raises_as_the_array_path(bad, monkeypatch):
    # a tuple of Python floats is checked without NumPy (with model.np gone,
    # any NumPy call fails), a list or an array through NumPy; all raise the
    # one DomainError text
    values = (0.5, bad, -1.0)
    messages = []
    for form in (list(values), np.array(values)):
        with pytest.raises(DomainError) as raised:
            model._check_range("parameters", form)
        messages.append(str(raised.value))
    monkeypatch.setattr(model, "np", None)
    with pytest.raises(DomainError) as raised:
        model._check_range("parameters", values)
    assert messages == [str(raised.value)] * 2
    assert messages[0] == "parameters must be finite and at most 1.8e+19 in magnitude"


def test_check_range_accepts_the_largest_magnitude(monkeypatch):
    edge = (model._MAX_MAGNITUDE, -model._MAX_MAGNITUDE, -0.0)
    model._check_range("parameters", np.array(edge))
    monkeypatch.setattr(model, "np", None)
    model._check_range("parameters", edge)
    model._check_range("parameters", ())


@pytest.mark.parametrize("value, finite", [
    (0.5, True), (math.inf, False), (math.nan, False), (10**400, True), (np.float64(-math.inf), False),
    (np.int64(3), True), (True, True),
])
def test_finite_of_real_numbers(value, finite):
    assert model._finite("x", value) is finite


@pytest.mark.parametrize("value, want", [
    (0.5, 0.5), (-3, -3.0), (np.float64(2.5), 2.5), (math.nan, math.nan),
    pytest.param(10**400, math.inf, id="10**400"), pytest.param(-10**400, -math.inf, id="-10**400"),
])
def test_float_of_real_numbers(value, want):
    # an int beyond the float range is the infinity of its sign, not an OverflowError
    got = model._float("x", value)
    assert type(got) is float
    assert got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("value", ["1", 1 + 0j, np.complex128(1.0), None])
def test_finite_rejects_what_is_not_a_real_number(value):
    with pytest.raises(DomainError, match="x must be a real number"):
        model._finite("x", value)


class TestBuildG:
    def test_isotropic_decoupled(self):
        p = SystemParams(b=0, b0=0, w0=0.8, omega=0)
        S = build_G(p, IsotropicOscillator(0.8)).S
        assert np.allclose(S, np.diag([0.64, 0.64, 0.64, 1, 1, 1]), atol=0)

    def test_transverse_field_off(self):
        p = SystemParams(b=0.0, b0=0.7, w0=1.1, omega=0.4)
        S = build_G(p, PenningQuadrupole(1.1)).S
        assert S[0, 2] == 0 and S[1, 5] == 0 and S[2, 4] == 0
        assert S[2, 2] == pytest.approx(1.1**2, rel=0, abs=0)

    @pytest.mark.parametrize(
        "binding_cls",
        [PenningQuadrupole, IsotropicOscillator],
    )
    def test_hessian_oracle(self, binding_cls, rng):
        # every entry of S must match the finite-difference Hessian of the
        # defining scalar expression
        for _ in range(4):
            b, b0, w0, om = rng.uniform(0.1, 2.0, 4)
            p = SystemParams(b=b, b0=b0, w0=w0, omega=om)
            binding = binding_cls(w0)
            S = build_G(p, binding).S
            H = hessian_fd(lambda u: classical_energy(u, p, binding))
            assert np.abs(S - H).max() < 1e-8

    def test_scalar_consistency(self, rng):
        p = SystemParams(b=0.6, b0=1.2, w0=1.6, omega=0.9)
        binding = PenningQuadrupole(1.6)
        G = build_G(p, binding)
        for _ in range(100):
            u = rng.normal(size=6)
            direct = classical_energy(u, p, binding)
            assert quadratic_value(G, u) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_quadratic_form_requires_symmetry(self):
        M = np.zeros((6, 6))
        M[0, 1] = 1.0
        with pytest.raises(DomainError):
            QuadraticForm(M)

    def test_quadratic_form_rejects_complex(self):
        S = np.eye(6) + 1j * np.eye(6)
        with pytest.raises(DomainError, match="real"):
            QuadraticForm(S)
        with pytest.raises(DomainError, match="real"):
            QuadraticForm(np.eye(6) + 0j)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_quadratic_form_rejects_non_finite(self, value):
        S = np.eye(6)
        S[2, 2] = value
        with pytest.raises(DomainError, match="must be finite"):
            QuadraticForm(S)

    def test_quadratic_forms_compare_by_identity_and_hash(self):
        # an array field has no truth value, so == is identity, and hash works
        a, b = QuadraticForm(np.eye(6)), QuadraticForm(np.eye(6))
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_quadratic_form_keeps_a_read_only_copy(self):
        M = np.eye(6)
        form = QuadraticForm(M)
        M[0, 0] = 5.0  # the caller's array stays its own
        assert form.S[0, 0] == 1.0
        assert_write_flag_refused(form.S)
        assert_write_flag_refused(J6)


class TestL3Form:
    def test_scalar_values(self):
        L3 = build_L3_form()
        assert quadratic_value(L3, [1, 0, 0, 0, 1, 0]) == 1.0
        assert quadratic_value(L3, [0, 1, 0, 1, 0, 0]) == -1.0
        assert quadratic_value(L3, [0, 0, 1, 0, 0, 1]) == 0.0

    def test_matches_generator_omega_dependence(self):
        # S(omega) = S(0) - omega * S_L3
        p0 = SystemParams(b=0.4, b0=0.8, w0=1.0, omega=0.0)
        p1 = SystemParams(b=0.4, b0=0.8, w0=1.0, omega=0.6)
        S0 = build_G(p0).S
        S1 = build_G(p1).S
        assert np.allclose(S1, S0 - 0.6 * build_L3_form().S, atol=0)


class TestLambda:
    def test_isotropic_eigenvalues(self):
        w0 = 1.3
        S = QuadraticForm(np.diag([w0**2] * 3 + [1.0] * 3))
        ev = np.sort_complex(np.linalg.eigvals(J6 @ S.S))
        expected = np.sort_complex(np.array([1j * w0, -1j * w0] * 3))
        assert np.allclose(ev, expected, atol=1e-12)

    def test_free_particle_nilpotent(self):
        S = QuadraticForm(np.diag([0.0] * 3 + [1.0] * 3))
        lam = J6 @ S.S
        assert np.allclose(lam @ lam, 0.0, atol=0)

    def test_hamilton_equations_oracle(self, rng):
        # udot = (dG/dp, -dG/dx) must equal Lambda @ u
        p = SystemParams.penning_loop(b0=0.9, b=0.35, omega=1.0)
        binding = PenningQuadrupole(p.w0)
        lam = J6 @ build_G(p, binding).S
        h = 1e-6
        for _ in range(10):
            u = rng.normal(size=6)
            udot = np.empty(6)
            for i in range(6):
                e = np.zeros(6)
                e[i] = h
                d = (classical_energy(u + e, p, binding) - classical_energy(u - e, p, binding)) / (2 * h)
                if i < 3:
                    udot[i + 3] = -d  # pdot = -dG/dx
                else:
                    udot[i - 3] = d  # xdot = +dG/dp
            assert np.abs(lam @ u - udot).max() < 1e-6

    def test_hamiltonian_matrix_property(self, rng):
        # J @ Lambda symmetric, for both binding variants
        for binding_cls in (PenningQuadrupole, IsotropicOscillator):
            b, b0, w0, om = rng.uniform(0.0, 2.0, 4)
            p = SystemParams(b=b, b0=b0, w0=w0, omega=om)
            lam = J6 @ build_G(p, binding_cls(w0)).S
            JL = J6 @ lam
            assert np.abs(JL - JL.T).max() < 1e-12

    def test_eigenvalue_quadruples(self, rng):
        for _ in range(5):
            b, b0, w0, om = rng.uniform(0.0, 2.0, 4)
            p = SystemParams(b=b, b0=b0, w0=w0, omega=om)
            ev = np.linalg.eigvals(J6 @ build_G(p).S)
            for target in (-ev, np.conj(ev), -np.conj(ev)):
                # multiset match under the symmetry
                taken = np.zeros(6, dtype=bool)
                for z in ev:
                    d = np.abs(target - z)
                    d[taken] = np.inf
                    j = int(np.argmin(d))
                    assert d[j] < 1e-9
                    taken[j] = True


class TestStaticClosedForm:
    def test_penning_roots_generic(self):
        # b = 0, omega = 0: axial at w0, transverse at b0 +- sqrt(b0^2 - w0^2/2)
        b0, w0 = 1.0, 0.9
        p = SystemParams(b=0.0, b0=b0, w0=w0, omega=0.0)
        ev = np.linalg.eigvals(J6 @ build_G(p).S)
        root = math.sqrt(b0**2 - w0**2 / 2.0)
        expected = sorted([w0, b0 + root, b0 - root])
        got = sorted(np.abs(ev.imag))[::2]
        assert np.allclose(got, expected, atol=1e-12)
        assert np.abs(ev.real).max() < 1e-12

    def test_loop_roots(self):
        # under w0 = (4/3) b0 the roots are (4/3, 4/3, 2/3) b0
        p = SystemParams.penning_loop(b0=1.0, omega=0.0)
        ev = np.linalg.eigvals(J6 @ build_G(p).S)
        freqs = np.sort(np.abs(ev.imag))
        expected = np.array([2, 2, 4, 4, 4, 4]) / 3.0
        assert np.abs(freqs - expected).max() < 1e-10
