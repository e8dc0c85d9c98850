import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subdiff.frac_weights import beta_interval
from subdiff.taylor_expansion import (
    ExpansionParams,
    phi_coeffs,
    psi_coeffs,
    tilde_beta,
)


def test_expansion_params_validation():
    p = ExpansionParams(r=4, eta=0.5)
    assert p.error_factor(0.5) == pytest.approx(2.0**1.5 * 5 * 0.25**4)
    with pytest.raises(ValueError):
        ExpansionParams(r=0, eta=0.5)
    with pytest.raises(ValueError):
        ExpansionParams(r=3, eta=0.0)
    with pytest.raises(ValueError):
        ExpansionParams(r=3, eta=1.5)


def test_psi_degenerate_geometry():
    # centered interval: the linear moment vanishes
    psi = psi_coeffs(3, 0.0, -0.5, 0.5)
    assert psi[0] == pytest.approx(1.0)
    assert psi[1] == pytest.approx(0.0, abs=1e-16)
    # unit interval about zero: psi_2 is the average of s over (0,1]
    psi = psi_coeffs(2, 0.0, 0.0, 1.0)
    assert psi[1] == pytest.approx(0.5)


def test_psi_are_monomial_averages():
    """psi_p equals 1/(p-1)! times the integral of (s - sbar)^(p-1)."""
    from scipy.integrate import quad

    sbar, a, b = 0.7, 1.1, 1.9
    psi = psi_coeffs(6, sbar, a, b)
    for p in range(1, 7):
        want, _ = quad(lambda s: (s - sbar) ** (p - 1) / math.factorial(p - 1), a, b,
                       epsabs=1e-14)
        assert psi[p - 1] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_phi_matches_kernel_average_differences():
    """phi_p reproduces the p-th kernel derivative average computed from the
    local averages of the order-(nu-p) kernel: phi_p = (-1)^p B_{nu-p}."""
    from subdiff.frac_weights import b_mu

    nu, sbar = 0.5, 0.0
    t_prev, t_next = 4.0, 5.0
    phi = phi_coeffs(nu, 4, sbar, t_prev, t_next)
    kn = t_next - t_prev
    for p in range(1, 5):
        want = (-1.0) ** p * b_mu(nu - p, 0.5 * (t_prev + t_next) - sbar, kn)
        assert phi[p - 1] == pytest.approx(want, rel=1e-12)


def test_phi_requires_separation():
    with pytest.raises(ValueError):
        phi_coeffs(0.5, 3, 1.0, 0.5, 1.0)


def test_tilde_beta_length_check():
    with pytest.raises(ValueError):
        tilde_beta(np.ones(3), np.ones(4))


def test_tilde_beta_converges_to_exact_weight():
    nu = 0.5
    source, target = (1.0, 2.0), (8.0, 9.0)
    sbar = 1.5
    exact = beta_interval(nu, source, target)
    errs = []
    for r in (2, 4, 6, 8):
        phi = phi_coeffs(nu, r, sbar, *target)
        psi = psi_coeffs(r, sbar, *source)
        errs.append(abs(tilde_beta(phi, psi) - exact) / exact)
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-8


@pytest.mark.parametrize("nu", [0.25, 0.5, 0.75])
def test_relative_error_bound_randomized(nu):
    """|beta~ - beta| <= 2^(2-nu) (r+1) (eta/2)^r beta over random admissible
    geometries (the acceptance suite runs a larger sample)."""
    rng = np.random.default_rng(11)
    for _ in range(500):
        eta = rng.uniform(0.05, 1.0)
        dist = rng.uniform(0.1, 10.0)
        length = eta * dist * rng.uniform(0.1, 1.0)
        a = rng.uniform(0.0, 5.0)
        b = a + length
        sbar = 0.5 * (a + b)
        kn = rng.uniform(0.01, 1.0)
        t_prev = b + dist
        target = (t_prev, t_prev + kn)
        exact = beta_interval(nu, (a, b), target)
        for r in (1, 3, 6):
            phi = phi_coeffs(nu, r, sbar, *target)
            psi = psi_coeffs(r, sbar, a, b)
            bound = ExpansionParams(r, eta).error_factor(nu) * exact
            assert abs(tilde_beta(phi, psi) - exact) <= bound


def test_array_arguments_match_stacked_scalar_calls():
    """One call over K midpoints or K intervals equals K scalar calls; a
    scalar call keeps shape (r,)."""
    rng = np.random.default_rng(5)
    for r in (1, 4, 17):
        sbar = rng.uniform(0.0, 3.0, 9)
        t_prev, t_next = 3.5, 3.5 + rng.uniform(0.01, 0.5)
        phi = phi_coeffs(0.3, r, sbar, t_prev, t_next)
        want = np.stack([phi_coeffs(0.3, r, float(s), t_prev, t_next) for s in sbar])
        assert phi.shape == (9, r) and want.shape == (9, r)
        np.testing.assert_allclose(phi, want, rtol=1e-14, atol=0.0)

        psi = psi_coeffs(r, sbar, t_prev, t_next)
        want = np.stack([psi_coeffs(r, float(s), t_prev, t_next) for s in sbar])
        assert psi.shape == (9, r)
        np.testing.assert_allclose(psi, want, rtol=1e-14, atol=1e-300)

        lo = np.sort(rng.uniform(0.0, 2.0, 6))
        hi = lo + rng.uniform(0.01, 0.3, 6)
        psi = psi_coeffs(r, 1.0, lo, hi)
        want = np.stack([psi_coeffs(r, 1.0, float(a), float(b)) for a, b in zip(lo, hi)])
        np.testing.assert_allclose(psi, want, rtol=1e-14, atol=1e-300)

        # midpoints down one axis, target intervals along the other
        table = phi_coeffs(0.3, r, sbar[:, None], lo + 4.0, hi + 4.0)
        assert table.shape == (9, 6, r)
        np.testing.assert_allclose(table[2, 3], phi_coeffs(0.3, r, sbar[2], lo[3] + 4.0,
                                                            hi[3] + 4.0), rtol=1e-14)


def test_phi_array_requires_separation_everywhere():
    with pytest.raises(ValueError, match="strictly right"):
        phi_coeffs(0.5, 3, np.array([0.1, 0.2, 1.0]), 1.0, 1.5)
    with pytest.raises(ValueError, match="strictly right"):
        phi_coeffs(0.5, 3, np.array([0.1, 1.2]), 1.0, 1.5)


def psi_recursion(r, sbar, t_prev, t_next):
    """The recursion psi_coeffs evaluated before it updated one array in
    place, kept as its oracle: psi_1 = k_j and
    psi_{p+1} = ((t_prev - sbar) psi_p + (k_j / p!) (t_next - sbar)^p) / (p+1)."""
    sbar, t_prev, t_next = np.broadcast_arrays(sbar, t_prev, t_next)
    kj = t_next - t_prev
    a = t_prev - sbar
    b = t_next - sbar
    out = [kj]
    fact = 1.0
    for p in range(1, r):
        out.append((a * out[-1] + (kj / fact) * b**p) / (p + 1))
        fact *= p + 1
    return np.stack(out, axis=-1)


@settings(max_examples=400, deadline=None)
@given(r=st.integers(1, 30), lo=st.floats(-2.0, 2.0), length=st.floats(1e-6, 1.0),
       place=st.sampled_from(["left", "inside", "right"]), gap=st.floats(1e-6, 10.0),
       frac=st.floats(0.0, 1.0))
def test_psi_matches_recursion(r, lo, length, place, gap, frac):
    """psi_coeffs agrees with the recursion for sbar left of, inside and
    right of the interval, order by order, to 64 eps times the bound on
    |psi_p|."""
    hi = lo + length
    sbar = {"left": lo - gap, "inside": lo + frac * length, "right": hi + gap}[place]
    got, want = psi_coeffs(r, sbar, lo, hi), psi_recursion(r, sbar, lo, hi)
    assert got.shape == want.shape == (r,)
    # |psi_p| <= k_j max(|a|, |b|)^(p-1) / (p-1)!, scaled to a few roundings
    reach = max(abs(lo - sbar), abs(hi - sbar))
    bound = [(hi - lo) * reach**q / math.factorial(q) for q in range(r)]
    assert np.all(np.abs(got - want) <= 64 * np.finfo(float).eps * np.array(bound))

