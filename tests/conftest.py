import numpy as np
import pytest

from penphase import (
    J6,
    Classification,
    PenningQuadrupole,
    SystemParams,
    build_G,
    classify,
    dmode_domega,
    normal_mode_basis,
)

SEED = 20260810

# A Confined loop point (alpha, alpha0) at omega = 1, 5e-10 below the
# alpha0 = 3/4 zero-mode line: its slow mode has frequency 1.74e-5, 28 times
# the zero-mode tolerance, and a symplectic form Im(v^H J v) of -1.3e-5 (first
# order in the frequency), which gives its Krein sign and its ladder
# normalisation.
SLOW_MODE_POINT = (1.4223919813286268, 0.7499999994924763)


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def sample_confined_loop_points(rng, n, window=3.0, min_gap=0.05, min_freq=0.05):
    """Random Confined loop points at omega = 1, kept clear of region edges.

    The margin (spectral gap and smallest frequency above `min_gap`/`min_freq`)
    keeps finite differences and the boundedness probe well away from
    collision curves.
    """
    out = []
    while len(out) < n:
        a, a0 = rng.uniform(0.0, window, 2)
        params = SystemParams.penning_loop(b0=a0, b=a, omega=1.0)
        spec = classify(J6 @ build_G(params).S)
        if spec.classification is not Classification.CONFINED:
            continue
        ims = np.sort(spec.raw_eigenvalues.imag)
        if np.min(np.diff(ims)) < min_gap or spec.freqs.min() < min_freq:
            continue
        out.append(params)
    return out


def route_spread(params, binding):
    """Largest pairwise disagreement of the three derivative routes of
    ``dmode_domega``, each difference over (1 + |perturbative|)."""
    dp, di, df = (
        dmode_domega(params, binding, method=m)
        for m in ("perturbative", "implicit", "finite_diff")
    )
    return max(
        float(np.max(np.abs(a - b) / (1.0 + np.abs(dp))))
        for a, b in ((dp, di), (dp, df), (di, df))
    )


def assert_write_flag_refused(array):
    """The array, and every array on its ``base`` chain, refuses
    ``setflags(write=True)``, so no caller can write into what it views."""
    while isinstance(array, np.ndarray):
        with pytest.raises(ValueError, match="WRITEABLE"):
            array.setflags(write=True)
        array = array.base


def sample_unconfined_loop_points(rng, n, window=3.0, min_growth=0.01):
    """Random Unconfined loop points with a definite growth rate."""
    out = []
    while len(out) < n:
        a, a0 = rng.uniform(0.0, window, 2)
        params = SystemParams.penning_loop(b0=a0, b=a, omega=1.0)
        L = J6 @ build_G(params).S
        spec = classify(L)
        if spec.classification is not Classification.UNCONFINED:
            continue
        if np.max(spec.raw_eigenvalues.real) < min_growth:
            continue
        out.append(params)
    return out


# Points where the truncated-Fock expansion of the low states converges well
# below the 12-per-axis cutoff (all squeeze factors mild); frozen for
# determinism.
ORACLE_POINTS = (
    SystemParams.penning_loop(b0=0.55, b=0.12, omega=1.0),
    SystemParams.penning_loop(b0=2.0, b=0.1, omega=1.0),
    SystemParams(b=0.1, b0=1.0, w0=4.0 / 3.0, omega=0.3),
)


@pytest.fixture(scope="session")
def oracle_case():
    """Dense truncated-Fock data for the first oracle point (shared)."""
    from fock_oracle import TruncatedFockOracle, matched_reference

    params = ORACLE_POINTS[0]
    S = build_G(params, PenningQuadrupole(params.w0)).S
    spec = classify(J6 @ S)
    basis = normal_mode_basis(spec, S)
    oracle = TruncatedFockOracle(cutoff=12, omega_ref=matched_reference(basis))
    dense = oracle.dense_spectrum(S)
    return {
        "params": params,
        "S": S,
        "spectrum": spec,
        "basis": basis,
        "oracle": oracle,
        "dense": dense,
    }
