"""Acceptance criteria, one test per criterion, each printing a PASS line on
success (pytest -s shows them; a failure prints the offending numbers)."""

import math
import time

import numpy as np
import pytest

from conftest import (
    ORACLE_POINTS,
    sample_confined_loop_points,
    sample_unconfined_loop_points,
)
from dynamics_oracle import boundedness_probe
from penphase import (
    Classification,
    IsotropicOscillator,
    J6,
    PenningQuadrupole,
    SystemParams,
    aa_phase,
    build_G,
    build_L3_form,
    classify,
    cos_theta,
    dmode_domega,
    find_kcr,
    normal_mode_basis,
    resonance_shift,
    sweep_fig1,
)
from penphase.phases import FockLabel, expectation_quadratic, quasienergy


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_critical_ratio():
    t0 = time.time()
    res = find_kcr(tol=1e-7)
    elapsed = time.time() - t0
    ok = abs(res.k_cr - 0.25831) <= 5e-4 and elapsed < 5.0
    report(1, ok, f"k_cr = {res.k_cr:.7f} (target 0.25831 +- 5e-4), {elapsed:.2f}s")


def test_criterion_02_four_confined_regions():
    t0 = time.time()
    rm = sweep_fig1()  # default 600-step window with auto-extension
    elapsed = time.time() - t0
    ok = rm.n_components == 4 and rm.n_unconfined_regions == 2 and elapsed < 120.0
    report(
        2,
        ok,
        f"confined components = {rm.n_components} (want 4), unconfined regions = "
        f"{rm.n_unconfined_regions} (want 2), grid {rm.grid.alpha_steps}x"
        f"{rm.grid.alpha0_steps}, {elapsed:.1f}s",
    )


def test_criterion_03_hellmann_feynman():
    rng = np.random.default_rng(3)
    worst = 0.0
    for params in sample_confined_loop_points(rng, 20):
        binding = PenningQuadrupole(params.w0)
        for _ in range(5):
            n = FockLabel(*(int(v) for v in rng.integers(0, 4, 3)))
            rep = aa_phase(params, binding, n)
            rel = abs(rep.aa_phase_eq7 - rep.aa_phase_eq8) / (1 + abs(rep.aa_phase_eq8))
            worst = max(worst, rel)
    ok = worst <= 1e-6
    report(3, ok, f"max |2pi<L3> - (-2pi dE/domega)| = {worst:.2e} (tol 1e-6, "
                  "20 points x 5 labels)")


def test_criterion_04_fock_oracle_equivalence():
    from fock_oracle import TruncatedFockOracle, matched_reference

    L3 = build_L3_form().S
    labels = [FockLabel(0, 0, 0), FockLabel(1, 0, 0), FockLabel(0, 1, 0), FockLabel(0, 0, 1)]
    worst_E = worst_L3 = worst_double = 0.0
    for params in ORACLE_POINTS:
        S = build_G(params, PenningQuadrupole(params.w0)).S
        spec = classify(J6 @ S)
        basis = normal_mode_basis(spec, S)
        oracle = TruncatedFockOracle(cutoff=12, omega_ref=matched_reference(basis))
        dense = oracle.dense_spectrum(S)
        doubled = TruncatedFockOracle(cutoff=24, omega_ref=matched_reference(basis))
        e_ground, _ = oracle.ground_state(dense)
        worst_E = max(worst_E, abs(e_ground - quasienergy(basis, labels[0])))
        for label in labels:
            target = quasienergy(basis, label)
            energy, vec = oracle.match_level(dense, target)
            worst_E = max(worst_E, abs(energy - target))
            got_L3 = oracle.expectation(L3, vec)
            worst_L3 = max(worst_L3, abs(got_L3 - expectation_quadratic(L3, basis, label)))
            parity = (label.n1 + label.n2 + label.n3) % 2
            refined = doubled.eigenvalue_near(S, energy, parity)
            worst_double = max(worst_double, abs(refined - energy))
    ok = worst_E <= 1e-6 and worst_L3 <= 1e-6 and worst_double <= 1e-6
    report(4, ok, f"quasienergy dev {worst_E:.2e}, <L3> dev {worst_L3:.2e}, "
                  f"cutoff-doubling shift {worst_double:.2e} (tol 1e-6, 3 points)")


def test_criterion_05_derivative_triangle():
    rng = np.random.default_rng(5)
    worst = 0.0
    for params in sample_confined_loop_points(rng, 20):
        binding = PenningQuadrupole(params.w0)
        vals = [dmode_domega(params, binding, method=m)
                for m in ("implicit", "perturbative", "finite_diff")]
        for i in range(3):
            for j in range(i + 1, 3):
                rel = np.abs(vals[i] - vals[j]) / (1.0 + np.abs(vals[i]))
                worst = max(worst, float(rel.max()))
    ok = worst <= 1e-6
    report(5, ok, f"max pairwise derivative disagreement = {worst:.2e} "
                  "(tol 1e-6, 20 points)")


def test_criterion_06_symmetry_contrast():
    ks_osc = np.linspace(0.05, 3.0, 40)
    ratios = []
    for k in ks_osc:
        params = SystemParams(b=k, b0=1.0, w0=4.0 / 3.0, omega=0.0)
        d = dmode_domega(params, IsotropicOscillator(4.0 / 3.0))
        ratios.append(d / cos_theta(k))
    ratios = np.array(ratios)
    osc_dev = float(np.abs(ratios - ratios[0]).max())

    ks_pen = np.linspace(0.05, 0.24, 30)
    pratios = []
    for k in ks_pen:
        params = SystemParams.penning_loop(b0=1.0, b=k, omega=0.0)
        d = dmode_domega(params, PenningQuadrupole(4.0 / 3.0))
        pratios.append(d / cos_theta(k))
    pratios = np.array(pratios)
    span = np.abs(pratios.max(axis=0) - pratios.min(axis=0)) / np.abs(pratios).max(axis=0)
    pen_var = float(span.max())
    ok = osc_dev <= 1e-8 and pen_var > 0.01
    report(6, ok, f"oscillator ratio deviation {osc_dev:.2e} (tol 1e-8); "
                  f"loop-binding ratio variation {100 * pen_var:.1f}% (want > 1%)")


def test_criterion_07_stability_window():
    results = {}
    for k in (0.25, 0.26):
        params = SystemParams.penning_loop(b0=1.0, b=k, omega=0.0)
        results[k] = classify(J6 @ build_G(params).S).classification
    ok = (results[0.25] is Classification.CONFINED
          and results[0.26] is Classification.UNCONFINED)
    report(7, ok, f"k=0.25 -> {results[0.25].name}, k=0.26 -> {results[0.26].name}")


def test_criterion_08_dynamics_consistency():
    import scipy.linalg

    rng = np.random.default_rng(8)
    points = sample_confined_loop_points(rng, 25) + sample_unconfined_loop_points(rng, 25)
    mismatches = 0
    for params in points:
        L = J6 @ build_G(params).S
        spec = classify(L)
        res = boundedness_probe(L, rng.normal(size=6), horizon=1000)
        if res.bounded != (spec.classification is Classification.CONFINED):
            mismatches += 1
    worst_symp = 0.0
    for params in sample_confined_loop_points(rng, 10):
        L = J6 @ build_G(params).S
        period = 2 * math.pi / np.abs(np.linalg.eigvals(L).imag).max()
        M = scipy.linalg.expm(L * 10 * period)
        worst_symp = max(worst_symp, float(np.abs(M.T @ J6 @ M - J6).max()))
    ok = mismatches == 0 and worst_symp <= 1e-9
    report(8, ok, f"probe/classification mismatches = {mismatches}/50, "
                  f"symplecticity defect {worst_symp:.2e} (tol 1e-9)")


def test_criterion_09_resonance_shift_convergence():
    rng = np.random.default_rng(9)
    params = sample_confined_loop_points(rng, 1)[0]
    binding = PenningQuadrupole(params.w0)
    n, n_prime = FockLabel(1, 0, 0), FockLabel(0, 0, 1)
    errs = []
    for scale in (1e-3, 1e-4, 1e-5):
        res = resonance_shift(params, binding, n, n_prime, scale * params.omega)
        errs.append(abs(res.omega_p_exact - res.omega_p_linear))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    ok = 30.0 < r1 < 300.0 and 30.0 < r2 < 300.0
    report(9, ok, f"linearization error ratios per decade: {r1:.1f}, {r2:.1f} "
                  "(want ~100: O(delta^2) scaling)")


def test_criterion_10_static_loop_closed_form():
    params = SystemParams.penning_loop(b0=1.0, b=0.0, omega=0.0)
    ev = np.linalg.eigvals(J6 @ build_G(params).S)
    freqs = np.sort(np.abs(ev.imag))
    expected = np.array([2, 2, 4, 4, 4, 4]) / 3.0
    dev = float(np.abs(freqs - expected).max())
    ok = dev <= 1e-10 and float(np.abs(ev.real).max()) <= 1e-10
    report(10, ok, f"static loop eigenfrequencies differ from (4/3, 4/3, 2/3) "
                   f"by {dev:.2e} (tol 1e-10)")
