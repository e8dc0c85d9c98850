import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gamma, gammaln

from subdiff import frac_weights, history_engine
from subdiff.dg_stepper import RunConfig
from subdiff.frac_weights import (
    KernelParams,
    SeriesConvergenceError,
    WeightEngine,
    beta_adjacent,
    beta_interval,
    beta_offdiag,
    omega,
)
from subdiff.history_engine import HistoryEngine
from subdiff.spatial_fem import SpatialGrid
from subdiff.time_mesh import mesh_from_levels, uniform_mesh
from test_clustering import perturbed_levels
from weight_oracles import (
    b_mu,
    beta_diag,
    beta_direct,
    beta_half,
    beta_separated_series,
    d_mu,
    series_allocating,
)


def beta_quadrature(nu, source, target):
    """Independent oracle: beta = int over the source interval of
    w_nu(t_prev - s) - w_nu(t_next - s) ds.

    The j = n-1 endpoint singularity is split off analytically as the
    power-rule integral of u^(nu-1)."""
    s0, s1 = source
    t_prev, t_next = target
    if s1 == t_prev:  # adjacent: substitute u = t_prev - s
        kj = s1 - s0
        singular = kj**nu / (nu * gamma(nu))
        smooth, _ = quad(lambda u: omega(nu, u + (t_next - t_prev)), 0.0, kj,
                         epsabs=1e-15, epsrel=1e-13, limit=200)
        return singular - smooth
    val, _ = quad(lambda s: omega(nu, t_prev - s) - omega(nu, t_next - s),
                  s0, s1, epsabs=1e-15, epsrel=1e-13, limit=200)
    return val


def test_omega_and_d_mu():
    assert omega(1.0, 0.7) == pytest.approx(1.0)
    assert omega(0.5, 4.0) == pytest.approx(4.0**-0.5 / gamma(0.5))
    with pytest.raises(ValueError):
        omega(0.5, 0.0)
    assert d_mu(0.5, 0.0) == 0.0
    assert d_mu(2.0, 0.5) == pytest.approx(0.75)
    # no cancellation for tiny arguments
    assert d_mu(0.5, 1e-17) == pytest.approx(0.5e-17, rel=1e-12)
    with pytest.raises(ValueError):
        d_mu(0.5, 1.0)


def test_b_mu_branches_agree():
    # integer orders use the exact product-sum polynomial branch
    for p, t, k in [(1, 2.0, 0.5), (2, 3.0, 1.0), (3, 0.7, 0.3)]:
        direct = (omega(1 + p, t + k / 2) - omega(1 + p, t - k / 2))
        assert b_mu(float(p), t, k) == pytest.approx(direct, rel=1e-14)
    # fractional orders: singular-kernel branch
    val = b_mu(0.5, 2.0, 0.5)
    direct = omega(1.5, 2.25) - omega(1.5, 1.75)
    assert val == pytest.approx(direct, rel=1e-13)
    with pytest.raises(ValueError):
        b_mu(0.5, 0.2, 0.5)  # t <= k/2


def test_diag_weight():
    mesh = uniform_mesh(4, 2.0)
    params = KernelParams(0.75)
    assert beta_diag(params, mesh, 2) == pytest.approx(0.5**0.75 / gamma(1.75))


def test_gamma_is_bitwise_scipy_gamma():
    """The package's gamma evaluates scipy.special.gamma's Cephes path:
    equal bit for bit on a dense grid of (0, 33] and of non-integer
    [-33, 0), near 0 included."""
    rng = np.random.default_rng(14)
    pos = np.concatenate([np.linspace(0.0, 33.0, 100_001)[1:], rng.uniform(0.0, 33.0, 20_000),
                          np.geomspace(1e-300, 1e-6, 500), np.arange(1.0, 34.0)])
    neg = np.concatenate([-np.linspace(0.0, 33.0, 40_001)[1:] + 1e-7,
                          rng.uniform(-33.0, 0.0, 20_000), -np.geomspace(1e-300, 1e-6, 500),
                          np.arange(-33.0, 0.0) + 0.5])
    neg = neg[neg != np.floor(neg)]
    for x in (pos, neg):
        got = np.array([frac_weights.gamma(v) for v in x])
        bad = np.flatnonzero(got != gamma(x))
        assert bad.size == 0, x[bad[:5]]
    for pole in (0.0, -1.0, -7.0):
        with pytest.raises(ValueError, match="pole"):
            frac_weights.gamma(pole)
    for x in (172.0, -200.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            frac_weights.gamma(x)


@pytest.mark.parametrize("nu", [0.02, 0.3, 0.5, 0.98])
def test_series_coefficients_match_gammaln(nu):
    orders, log_coef = frac_weights._series_coefficients(nu, frac_weights._MAX_TERMS)
    p = np.arange(frac_weights._MAX_TERMS)
    ref = -(gammaln(nu - 2.0 * p) + gammaln(2.0 * p + 2.0) + p * math.log(4.0))
    np.testing.assert_allclose(log_coef, ref - ref[0], rtol=0.0, atol=2e-13)
    assert np.array_equal(orders, 2.0 * p + 1.0 - nu)


@pytest.mark.parametrize("nu", [1e-6, 1e-3, 5e-3, 0.25, 0.5, 0.75])
def test_adjacent_weight_against_quadrature(nu):
    for k_prev, k_cur in [(1.0, 1.0), (0.5, 1.0), (1.0, 0.5), (0.3, 0.45)]:
        got = beta_adjacent(nu, k_prev, k_cur)
        want = beta_quadrature(nu, (0.0, k_prev), (k_prev, k_prev + k_cur))
        assert got == pytest.approx(want, rel=1e-11)


def test_separated_series_matches_direct():
    for nu in (0.25, 0.5, 0.75, 0.9):
        for source, target in [((0.0, 1.0), (4.0, 5.0)), ((1.0, 1.5), (4.0, 4.5)),
                               ((0.0, 0.5), (1.25, 2.0))]:
            s = beta_separated_series(nu, source, target)
            d = beta_direct(nu, source, target)
            assert s == pytest.approx(d, rel=1e-12)


def short_series(monkeypatch, rel_tol, max_terms):
    """Truncate the weight series to max_terms terms at rel_tol."""
    monkeypatch.setattr(frac_weights, "_REL_TOL", rel_tol)
    monkeypatch.setattr(frac_weights, "_MAX_TERMS", max_terms)


def test_separated_series_convergence_error(monkeypatch):
    # barely separated intervals converge too slowly for a tiny term budget
    short_series(monkeypatch, 1e-15, 3)
    with pytest.raises(SeriesConvergenceError) as info:
        beta_separated_series(0.5, (0.0, 1.0), (1.05, 2.05))
    assert 0.0 < info.value.last_ratio


def test_half_order_closed_form():
    for source, target in [((0.0, 1.0), (3.0, 4.0)), ((0.5, 1.0), (1.0, 1.75)),
                           ((0.0, 0.25), (0.5, 1.0))]:
        got = beta_half(source, target)
        want = beta_quadrature(0.5, source, target)
        assert got == pytest.approx(want, rel=1e-11)


def test_beta_interval_dispatch_consistency():
    src, tgt = (1.0, 2.0), (5.0, 6.0)
    assert beta_interval(0.5, src, tgt) == pytest.approx(beta_half(src, tgt), rel=1e-13)
    assert beta_interval(0.3, src, tgt) == pytest.approx(
        beta_separated_series(0.3, src, tgt), rel=1e-14)
    adj = beta_interval(0.3, (0.0, 1.0), (1.0, 2.0))
    assert adj == pytest.approx(beta_adjacent(0.3, 1.0, 1.0), rel=1e-14)


@pytest.mark.parametrize("nu", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("perturbed", [False, True])
def test_weights_match_quadrature_oracle(nu, perturbed):
    N = 24
    if perturbed:
        rng = np.random.default_rng(42)
        steps = 1.0 + 0.2 * (2.0 * rng.random(N) - 1.0)
        mesh = mesh_from_levels(np.concatenate([[0.0], np.cumsum(steps)]))
    else:
        mesh = uniform_mesh(N, float(N))
    params = KernelParams(nu)
    lv = mesh.levels
    for n in range(2, N + 1):
        for j in range(1, n):
            got = beta_offdiag(params, mesh, n, j)
            want = beta_quadrature(nu, (lv[j - 1], lv[j]), (lv[n - 1], lv[n]))
            assert got == pytest.approx(want, rel=1e-12), (n, j)


@pytest.mark.parametrize("nu", [0.25, 0.5, 0.75])
def test_row_and_column_sum_identities(nu):
    rng = np.random.default_rng(3)
    steps = 1.0 + 0.2 * (2.0 * rng.random(16) - 1.0)
    mesh = mesh_from_levels(np.concatenate([[0.0], np.cumsum(steps)]))
    params = KernelParams(nu)
    engine = WeightEngine(params, mesh)
    lv, N, T = mesh.levels, mesh.N, mesh.T
    g = gamma(nu + 1.0)
    for n in range(2, N + 1):
        row = sum(engine.offdiag(n, j) for j in range(1, n))
        want = (mesh.step(n) ** nu - (lv[n] ** nu - lv[n - 1] ** nu)) / g
        assert row == pytest.approx(want, rel=1e-12, abs=1e-14)
    for j in range(1, N):
        col = sum(engine.offdiag(n, j) for n in range(j + 1, N + 1))
        want = (mesh.step(j) ** nu - ((T - lv[j - 1]) ** nu - (T - lv[j]) ** nu)) / g
        assert col == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_weight_engine_caching_by_lag():
    mesh = uniform_mesh(32, 1.0)
    engine = WeightEngine(KernelParams(0.6), mesh)
    a = engine.offdiag(10, 3)
    b = engine.offdiag(17, 10)  # same lag on a uniform mesh
    assert a == b


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(0.0)
    with pytest.raises(ValueError):
        KernelParams(1.0)


@settings(max_examples=200, deadline=None)
@given(
    nu=st.floats(0.05, 0.95),
    gap_scale=st.floats(1.0, 5.0),
    kj=st.floats(0.05, 1.0),
    kn=st.floats(0.05, 1.0),
)
def test_weight_positivity_and_monotone_decay(nu, gap_scale, kj, kn):
    """Weights are positive and shrink as the source block recedes."""
    gap = gap_scale * (kj + kn)  # keep the blocks well separated
    near = beta_interval(nu, (0.0, kj), (kj + gap, kj + gap + kn))
    far = beta_interval(
        nu, (0.0, kj), (kj + 2 * gap + kn, kj + 2 * gap + 2 * kn)
    )
    assert near > 0.0
    assert far > 0.0
    assert far < near


def quasiuniform_mesh(N, seed):
    """Steps of length 1 perturbed by up to +-30%."""
    steps = 1.0 + 0.3 * np.random.default_rng(seed).uniform(-1.0, 1.0, N)
    return mesh_from_levels(np.concatenate([[0.0], np.cumsum(steps)]))


@settings(max_examples=30, deadline=None)
@given(nu=st.floats(0.02, 0.98), seed=st.integers(0, 2**32 - 1))
def test_array_weights_match_oracles(nu, seed):
    """One array offdiag call over every pair of a small +-30% mesh agrees
    with the quadrature oracle, and with the direct difference wherever
    that difference loses under two digits to cancellation."""
    N = 10
    mesh = quasiuniform_mesh(N, seed)
    lv = mesh.levels
    n, j = np.tril_indices(N + 1, -1)
    keep = j >= 1
    n, j = n[keep], j[keep]
    got = WeightEngine(KernelParams(nu), mesh).offdiag(n, j)
    assert got.shape == n.shape
    for nn, jj, g in zip(n, j, got):
        source, target = (lv[jj - 1], lv[jj]), (lv[nn - 1], lv[nn])
        assert g == pytest.approx(beta_quadrature(nu, source, target), rel=1e-12), (nn, jj)
        if jj < nn - 1:
            kj, kn = source[1] - source[0], target[1] - target[0]
            delta = 0.5 * (sum(target) - sum(source))
            lead = abs(b_mu(nu, delta - 0.5 * kj, kn))
            if lead <= 100.0 * g:
                assert g == pytest.approx(beta_direct(nu, source, target), rel=1e-12), (nn, jj)


def test_array_series_reports_the_pair_that_fails_to_converge(monkeypatch):
    short_series(monkeypatch, 1e-6, 3)
    s0 = np.array([0.0, 0.0, 0.0])
    t0 = np.array([20.0, 40.0, 1.05])  # the last pair is barely separated
    assert beta_separated_series(0.5, (s0[:2], s0[:2] + 1.0),
                                 (t0[:2], t0[:2] + 1.0)).shape == (2,)
    with pytest.raises(SeriesConvergenceError, match="1 pair") as info:
        beta_separated_series(0.5, (s0, s0 + 1.0), (t0, t0 + 1.0))
    assert info.value.last_ratio > 0.0


@pytest.mark.parametrize("uniform", [False, True])
def test_out_of_range_pairs_name_the_first_bad_pair(uniform):
    mesh = uniform_mesh(8, 1.0) if uniform else quasiuniform_mesh(8, 5)
    engine = WeightEngine(KernelParams(0.3), mesh)
    for n, j, bad in [([5, 6, 7], [2, 6, 8], "n=6, j=6"), ([4, 4], [1, 0], "n=4, j=0"),
                      ([9], [1], "n=9, j=1")]:
        with pytest.raises(ValueError, match=bad):
            engine.offdiag(np.array(n), np.array(j))
        with pytest.raises(ValueError, match=bad):
            beta_offdiag(engine.params, mesh, np.array(n), np.array(j))


def test_uniform_weights_do_not_depend_on_query_order():
    mesh = uniform_mesh(40, 3.0)
    n, j = np.tril_indices(41, -1)
    n, j = n[j >= 1], j[j >= 1]
    first, second = (WeightEngine(KernelParams(0.3), mesh) for _ in range(2))
    scalar = first.offdiag(17, 10)
    assert isinstance(scalar, float)
    forward = first.offdiag(n, j)
    backward = second.offdiag(n[::-1], j[::-1])[::-1]
    assert np.array_equal(forward, backward)
    assert second.offdiag(8, 1) == scalar  # same lag 7
    # every lag's weight is that of the pair (L+1, 1)
    lags = np.arange(1, 40)
    assert np.array_equal(first.offdiag(n, j),
                          beta_offdiag(first.params, mesh, lags + 1, 1)[n - j - 1])


@pytest.mark.parametrize("N", [2000, 65536])
@pytest.mark.parametrize("nu", [0.02, 0.3, 0.5, 0.98])
def test_uniform_lag_table_grows_by_doubling(nu, N, monkeypatch):
    """A query past the lag table's end evaluates only the pairs (L+1, 1)
    of the lags added: up to that lag, or to twice the table's length if
    more, at most N-1.  Pieces grown so equal the one-call table bitwise."""
    mesh = uniform_mesh(N, 1.0)
    whole = beta_offdiag(KernelParams(nu), mesh, np.arange(2, N + 1), 1)
    calls = []

    def spy(params, mesh_, n, j):
        calls.append((int(n[0]) - 1, int(n[-1]) - 1))  # the lags, first and last
        return beta_offdiag(params, mesh_, n, j)

    monkeypatch.setattr(frac_weights, "beta_offdiag", spy)
    engine = WeightEngine(KernelParams(nu), mesh)
    assert engine.offdiag(4, np.arange(1, 4)).tolist() == whole[2::-1].tolist()
    assert engine.offdiag(np.array([5, 9, 8]), 2).tolist() == whole[[2, 6, 5]].tolist()
    assert engine.offdiag(np.empty(0, dtype=int), 1).size == 0
    engine.offdiag(9, 3)  # lag 6, held
    assert calls == [(1, 3), (4, 7)]
    for n in (40, 41, 1000, N):
        engine.offdiag(n, np.arange(1, n))
    assert calls[2:] == [(8, 39), (40, 78), (79, 999), (1000, N - 1)]
    assert engine.offdiag(N, np.arange(N - 1, 0, -1)).tobytes() == whole.tobytes()


def series_loop(nu, source, target):
    """The scalar term-by-term series the array form replaced: terms in
    ascending order, stopping at the first below _REL_TOL times the sum."""
    (s0, s1), (t0, t1) = source, target
    kj, kn = s1 - s0, t1 - t0
    delta = 0.5 * (t0 + t1) - 0.5 * (s0 + s1)
    total = 0.0
    for p in range(frac_weights._MAX_TERMS):
        term = -b_mu(nu - 2 * p - 1, delta, kn) * kj ** (2 * p + 1) / (
            math.factorial(2 * p + 1) * 4**p)
        total += term
        if abs(term) < frac_weights._REL_TOL * abs(total):
            return total
    raise SeriesConvergenceError("no convergence", last_ratio=0.0)


@settings(max_examples=100, deadline=None)
@given(nu=st.floats(0.02, 0.98), kj=st.floats(0.3, 2.0), kn=st.floats(0.3, 2.0),
       gaps=st.lists(st.floats(0.5, 40.0), min_size=1, max_size=8))
def test_array_series_matches_scalar_loop(nu, kj, kn, gaps):
    """Both forms sum the same terms in the same order; only the rounding of
    the terms after the first differs (the array forms them from
    log-ratios), so the sums agree to a few ulps.  Gaps of at least k_j/2
    keep the term ratio at most 1/4, inside _MAX_TERMS."""
    source = (0.0, kj)
    starts = kj + kj * np.array(gaps)
    got = beta_separated_series(nu, source, (starts, starts + kn))
    for start, g in zip(starts, got):
        assert g == pytest.approx(series_loop(nu, source, (start, start + kn)),
                                  rel=16 * np.finfo(float).eps)


def test_series_over_many_pairs_equals_one_pair_at_a_time(monkeypatch):
    """An array call over hundreds of pairs, which stop at different
    terms, gives bit for bit what one call per pair gives, although the
    stopped pairs stay in its arrays for some orders, and a pair that
    fails to converge after all the others have stopped still raises."""
    rng = np.random.default_rng(11)
    pairs = 401
    kj, kn = rng.uniform(0.5, 1.5, pairs), rng.uniform(0.5, 1.5, pairs)
    starts = kj + rng.uniform(0.6, 30.0, pairs) * kj
    got = beta_separated_series(0.3, (0.0, kj), (starts, starts + kn))
    want = [beta_separated_series(0.3, (0.0, a), (s, s + b)) for a, b, s in zip(kj, kn, starts)]
    assert np.array_equal(got, want)
    starts = 40.0 * kj  # far enough for three terms
    starts[-1] = kj[-1] + 0.05  # barely separated: too slow for three terms
    short_series(monkeypatch, 1e-6, 3)
    with pytest.raises(SeriesConvergenceError, match="1 pair"):
        beta_separated_series(0.5, (0.0, kj), (starts, starts + kn))


def test_series_failure_counts_every_failing_pair(monkeypatch):
    """Pairs that fail to converge, spread through a long array call: the
    error counts every one of them."""
    pairs = 401
    kj = np.ones(pairs)
    starts = 40.0 * kj  # far enough for three terms
    for i in (130, 137, 385):
        starts[i] = 1.05  # barely separated: too slow for three terms
    short_series(monkeypatch, 1e-6, 3)
    with pytest.raises(SeriesConvergenceError, match="for 3 pair"):
        beta_separated_series(0.5, (0.0, kj), (starts, starts + kj))


@functools.cache
def first_block_arguments():
    """The levels, the exact pairs (n, j) and the phi_coeffs arguments of
    the first block of leaves of the long1d-fast run on seed 1 (N = 4096,
    nu = 0.3, m = 8, automatic depth and (r, eta)), as its engine passes
    them when its first commit enters the block."""
    config = RunConfig(nu=0.3, mesh=mesh_from_levels(perturbed_levels(4096, seed=1)),
                       grid=SpatialGrid(dim=1, m=8), Q=2)
    r, eta = config.resolved_params()
    weights = WeightEngine(KernelParams(config.nu), config.mesh)
    engine = HistoryEngine(config.tree(), weights, r, eta, config.grid.M)
    calls = {}

    def spy(name, f):
        def call(*args):
            calls[name] = args
            return f(*args)
        return call

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weights, "offdiag", spy("pairs", weights.offdiag))
        patch.setattr(history_engine, "phi_coeffs", spy("phi", history_engine.phi_coeffs))
        engine.commit_step(1, np.zeros(config.grid.M))
    return config.mesh.levels, calls["pairs"], calls["phi"]


def separated_geometry(levels, n, j):
    """k_j, k_n and the centre distance of the pairs (n, j) with j < n - 1,
    formed as beta_interval forms them."""
    sep = n - j > 1
    s0, s1, t0, t1 = (levels[i[sep]] for i in (j - 1, j, n - 1, n))
    return s1 - s0, t1 - t0, 0.5 * (t0 + t1) - 0.5 * (s0 + s1)


def series_cases():
    """Named separated pair sets, as (k_j, k_n, Delta): one pair; none;
    pairs whose series stops at its first term after the leading one;
    lag-2 pairs of a +-30% mesh, which need 16 to 20 terms; three sets of
    100 in which 24, 25 or 26 lag-2 pairs sit among pairs that stop at
    once, so the arrays are compacted at the first stops or not (three
    quarters stopped is the threshold); and the 9,089 separated pairs of
    the 9,344 in long1d-fast's first block."""
    rng = np.random.default_rng(5)
    quick = (rng.uniform(0.5, 1.5, 100) * 1e-9, rng.uniform(0.5, 1.5, 100),
             rng.uniform(2.0, 9.0, 100))
    n = np.arange(3, 65)
    lag2 = separated_geometry(perturbed_levels(64, seed=3), n, n - 2)
    cases = {"one": (np.array([1.0]), np.array([1.2]), np.array([5.0])),
             "none": (np.empty(0),) * 3, "quick": quick, "lag-2": lag2}
    for slow in (24, 25, 26):
        order = rng.permutation(100)
        cases[f"{slow} lag-2 of 100"] = tuple(
            np.concatenate([a[:slow], b[slow:]])[order] for a, b in zip(lag2, quick))
    levels, (n, j), _ = first_block_arguments()
    cases["first block"] = separated_geometry(levels, n, j)
    return cases


@pytest.mark.parametrize("nu", [0.02, 0.3, 0.5, 0.98])
def test_buffered_series_keeps_the_allocating_bytes(nu, monkeypatch):
    """_series writes each order's intermediates into buffers it reuses,
    and compacts the summing pairs in place; every value it returns has
    the bytes of the form that allocated them anew, on every pair set of
    series_cases.  The quick pairs converge in two terms."""
    cases = series_cases()
    for name, (kj, kn, delta) in cases.items():
        want = series_allocating(nu, kj, kn, delta).tobytes()
        assert frac_weights._series(nu, kj, kn, delta).tobytes() == want, name
    short_series(monkeypatch, frac_weights._REL_TOL, 2)
    quick = cases["quick"]
    assert frac_weights._series(nu, *quick).tobytes() == series_allocating(nu, *quick).tobytes()


def test_buffered_series_fails_as_the_allocating_one(monkeypatch):
    """Cut to six terms, the pair sets with pairs still summing raise in
    both forms with the same message, which counts the failing pairs,
    and the same last_ratio, whether the arrays were compacted or not."""
    cases = series_cases()  # the first block's pairs are found with the whole series
    short_series(monkeypatch, frac_weights._REL_TOL, 6)
    failing = []
    for name, (kj, kn, delta) in cases.items():
        try:
            series_allocating(0.3, kj, kn, delta)
        except SeriesConvergenceError as error:
            want = error
        else:
            continue
        with pytest.raises(SeriesConvergenceError) as got:
            frac_weights._series(0.3, kj, kn, delta)
        assert str(got.value) == str(want), name
        assert got.value.last_ratio == want.last_ratio > 0.0, name
        failing.append(name)
    assert failing == [name for name in cases if name not in ("none", "quick")]


def test_series_heap_peak_is_no_higher_than_the_allocating_forms():
    """One _series call over the first block's 9,089 separated pairs peaks
    at no more Python heap than the form that allocated each order's
    intermediates anew: 956,073 bytes, its tracemalloc peak for this call
    (inputs made before tracing, caches filled by an earlier call; numpy
    2.4.6, Python 3.11, x86-64).  Buffers allocated on top of the old
    temporaries would exceed it."""
    _, (n, _), _ = first_block_arguments()
    *_, (kj, kn, delta) = series_cases().values()
    assert n.size == 9344 and kj.size == 9089
    frac_weights._series(0.3, kj, kn, delta)  # caches filled before tracing
    tracemalloc.start()
    try:
        frac_weights._series(0.3, kj, kn, delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 956_073, peak
