import math

import numpy as np
import pytest

from subdiff import reference_solution
from subdiff.frac_weights import KernelParams, WeightEngine
from subdiff.history_engine import fold_rows
from subdiff.reference_solution import (
    ContourAccuracyError,
    _u11_terms,
    direct_history_sum,
    max_nodal_error,
    mittag_leffler_series,
    u11,
    u11_classical,
)
from subdiff.time_mesh import uniform_mesh
from weight_oracles import history_sum_per_pair


def contour_sum(nu, t, forced, nodes, lam=1.0):
    """The contour sum with nodes nodes at each time of the 1D array t."""
    terms, pole_part = _u11_terms(nu, t, forced, nodes, lam)
    return np.sum(terms, axis=1).real + pole_part


@pytest.mark.parametrize("nu", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
def test_homogeneous_case_matches_mittag_leffler(nu, t):
    """Unforced, the mode of eigenvalue lam relaxes as E_nu(-lam t^nu)."""
    assert u11(nu, t, forced=False) == pytest.approx(mittag_leffler_series(nu, -(t**nu)),
                                                     abs=1e-10)
    assert u11(nu, t, forced=False, lam=0.5) == pytest.approx(
        mittag_leffler_series(nu, -0.5 * t**nu), abs=1e-10)


def test_forced_case_matches_classical_limit():
    """At nu = 1 the model reduces to an ODE with a closed-form solution."""
    for t in (0.05, 0.5, 1.0, 3.0, 6.0):
        assert u11(1.0, t) == pytest.approx(u11_classical(t), abs=1e-10)


def test_u11_initial_value_and_positivity():
    assert u11(0.5, 1e-6) == pytest.approx(1.0, abs=5e-3)
    for t in np.linspace(0.1, 6.0, 13):
        val = u11(0.5, float(t))
        assert 0.0 < val < 2.5


def test_node_doubling_invariance():
    """u11's sum (64 nodes) agrees with one of twice the nodes on the same
    contour."""
    t = np.array([3.75e-4, 0.01, 1.0, 6.0])
    np.testing.assert_allclose(contour_sum(0.5, t, True, 64), contour_sum(0.5, t, True, 128),
                               rtol=0, atol=5e-10)
    np.testing.assert_array_equal(u11(0.5, t), contour_sum(0.5, t, True, 64))


def test_u11_validation():
    with pytest.raises(ValueError):
        u11(0.5, 0.0)


def test_u11_array_form_matches_scalar_calls():
    """One call for every level of the desk mesh (several blocks) agrees
    with a scalar call per level; the shape of t is kept and a scalar
    gives a float."""
    t = uniform_mesh(2000, 6.0).levels[1:]
    got = u11(0.5, t)
    want = np.array([u11(0.5, float(x)) for x in t])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(u11(0.25, t[:6].reshape(2, 3), forced=False),
                               [[u11(0.25, float(x), forced=False) for x in row]
                                for row in t[:6].reshape(2, 3)], rtol=0, atol=1e-12)
    assert type(u11(0.5, 1.5)) is float and type(u11(0.5, np.float64(1.5))) is float
    with pytest.raises(ValueError):
        u11(0.5, np.array([1.0, 0.0]))


def test_contour_error_names_first_failing_time(monkeypatch):
    """With 9 nodes the estimate passes at t = 0.1 and fails from t = 0.5
    on; the first failure in array order is named, past a block boundary.
    A time at which the contour overflows fails with a NaN estimate."""
    monkeypatch.setattr(reference_solution, "_NODES", 9)
    with pytest.raises(ContourAccuracyError, match=r"at t=2\.0$"):
        u11(0.5, np.r_[np.full(1800, 0.1), 2.0, 0.5])
    with pytest.raises(ContourAccuracyError, match=r"at t=0\.5$"):
        u11(0.5, 0.5)
    # times the contour overflows at give a NaN estimate, which fails too
    with pytest.raises(ContourAccuracyError, match=r"nan at t=1e-300$"):
        u11(0.5, np.r_[0.1, 1e-300])
    with pytest.raises(ContourAccuracyError, match=r"nan at t=1e\+300$"):
        u11(0.5, 1e300)


def test_mittag_leffler_series_known_values():
    # E_1(x) = exp(x)
    assert mittag_leffler_series(1.0, -0.5) == pytest.approx(math.exp(-0.5), rel=1e-12)
    # E_{1/2}(-x) = exp(x^2) erfc(x)
    from scipy.special import erfc

    x = 0.7
    want = math.exp(x * x) * erfc(x)
    assert mittag_leffler_series(0.5, -x) == pytest.approx(want, rel=1e-10)


def test_max_nodal_error():
    a = [np.array([0.0, 1.0]), np.array([2.0, 2.0])]
    b = [np.array([0.0, 1.5]), np.array([2.0, 1.0])]
    assert max_nodal_error(a, b) == 1.0
    with pytest.raises(ValueError):
        max_nodal_error(a, b[:1])


def test_max_nodal_error_propagates_nan():
    """A NaN in any step, after a finite error or not, makes the error NaN;
    Python's max(0.0, nan) would have kept 0.0."""
    zeros = [np.zeros(2)] * 3
    assert np.isnan(max_nodal_error([np.array([np.nan, 1.0])], zeros[:1]))
    later = [np.array([0.0, 2.0]), np.zeros(2), np.array([1.0, np.nan])]
    assert np.isnan(max_nodal_error(later, zeros))


def test_direct_history_sum_matches_manual_loop():
    mesh = uniform_mesh(8, 1.0)
    weights = WeightEngine(KernelParams(0.5), mesh)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((8, 3))
    got = direct_history_sum(weights, vals, 5)
    want = sum(weights.offdiag(5, j) * vals[j - 1] for j in range(1, 5))
    np.testing.assert_allclose(got, want, rtol=1e-15)
    assert np.all(direct_history_sum(weights, vals, 1) == 0.0)


class _FixedWeights:
    """Weights whose offdiag row holds the given beta_nj at every n."""

    def __init__(self, row):
        self.row = row

    def offdiag(self, n, js):
        return self.row[js - 1]


@pytest.mark.parametrize("m", [1, 2, 3, 7, 1521])
def test_direct_history_sum_chunks_keep_the_per_pair_bits(m):
    """The fold adds the same products in the same order as one
    multiply-accumulate per pair, so its bits are the same, through
    einsum for m >= 2 and through the running sum of a single column:
    over no rows, one, 31 to 33 and 65 (the edges of the 32-row chunks in
    which the sum once took its history at m = 1521) and 2001."""
    lengths = [0, 1, 31, 32, 33, 65, 2001]  # n - 1
    weights = WeightEngine(KernelParams(0.3), uniform_mesh(max(lengths) + 1, 1.0))
    vals = np.random.default_rng(m).standard_normal((max(lengths), m))
    for n in [k + 1 for k in lengths]:
        want = history_sum_per_pair(weights, vals, n).tobytes()
        assert direct_history_sum(weights, vals, n).tobytes() == want, n


@pytest.mark.parametrize("m", [1, 2, 1521])
def test_fold_of_any_layout_keeps_the_per_pair_bits(m):
    """A Fortran-ordered history, one whose rows or values are strided, and
    a strided weight vector give the per-pair bytes too: einsum over a
    Fortran-ordered history would sum each column with a dot-product
    kernel, so fold_rows makes the rows C-ordered first."""
    rng = np.random.default_rng(m)
    L = 70
    w = rng.uniform(0.5, 2.0, 2 * L)[::2]
    vals = rng.standard_normal((2 * L, 2 * m)) * 10.0 ** rng.integers(-5, 5, (2 * L, 1))
    want = history_sum_per_pair(_FixedWeights(w), vals[::2, ::2], L + 1).tobytes()
    for rows in (vals[::2, ::2], np.ascontiguousarray(vals[::2, ::2]),
                 np.asfortranarray(vals[::2, ::2])):
        assert fold_rows(w, rows).tobytes() == want
        assert direct_history_sum(_FixedWeights(w), rows, L + 1).tobytes() == want


def test_fold_takes_einsum_only_over_rows_of_two_or_more_values(monkeypatch):
    """Without a carried sum, rows of two or more values go to one einsum
    call; a single column, whose einsum would use a dot-product kernel,
    and a fold that carries a sum keep the products and the ordered
    reduction, and give the per-pair bytes at every length.  Either path
    starts from +0.0, so a first product of -0.0 sums to +0.0."""
    calls = []

    def spy(*args):
        calls.append(args[0])
        return einsum(*args)

    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", spy)
    rng = np.random.default_rng(1)
    w = rng.uniform(0.5, 2.0, 200)
    for m in (1, 2, 5):
        vals = rng.standard_normal((200, m)) * 10.0 ** rng.integers(-5, 5, (200, 1))
        for k in (1, 2, 33, 200):
            calls.clear()
            want = history_sum_per_pair(_FixedWeights(w), vals, k + 1).tobytes()
            assert fold_rows(w[:k], vals[:k]).tobytes() == want, (m, k)
            assert calls == ([] if m == 1 else ["j,jm->m"])
            calls.clear()
            if k > 1:
                assert fold_rows(w[1:k], vals[1:k], w[0] * vals[0]).tobytes() == want, (m, k)
            assert calls == []
        assert fold_rows(np.ones(1), np.full((1, m), -0.0)).tobytes() == np.zeros(m).tobytes()


@pytest.mark.parametrize("m", [1, 2, 1521])
def test_fold_rounds_each_product_before_adding_it(m):
    """-(1 + 2^-29) + (1 + 2^-30)^2 is 0 when the square is rounded first,
    as one multiply-accumulate per pair rounds it, but 2^-60 under a fused
    multiply-add: a numpy build whose einsum fuses fails here."""
    x, y = 1.0 + 2.0**-30, 1.0 + 2.0**-29
    got = fold_rows(np.array([-1.0, x]), np.array([[y] * m, [x] * m]))
    assert got.tobytes() == np.zeros(m).tobytes()


@pytest.mark.parametrize("m", [1, 2, 1521])
def test_fold_split_and_carried_on_gives_the_whole_fold(m):
    """A fold over a run's first rows, carried into a fold over the rest,
    as the engine carries the sum from one exact run into the next, gives
    the bytes of one fold over the whole run, and of the per-pair loop."""
    rng = np.random.default_rng(m)
    L = 70
    w = rng.uniform(0.5, 2.0, L)
    vals = rng.standard_normal((L, m)) * 10.0 ** rng.integers(-5, 5, (L, 1))
    whole = fold_rows(w, vals).tobytes()
    assert whole == history_sum_per_pair(_FixedWeights(w), vals, L + 1).tobytes()
    for k in (1, 2, 31, 32, 33, L - 1):
        assert fold_rows(w[k:], vals[k:], fold_rows(w[:k], vals[:k])).tobytes() == whole, k


def test_direct_history_sum_of_empty_history_is_m_zeros():
    weights = WeightEngine(KernelParams(0.5), uniform_mesh(8, 1.0))
    got = direct_history_sum(weights, np.empty((0, 4)), 1)
    np.testing.assert_array_equal(got, np.zeros(4))
    with pytest.raises(ValueError):  # step 3 needs two past values
        direct_history_sum(weights, np.ones((1, 4)), 3)


@pytest.mark.parametrize("m", [1, 2, 1521])
def test_direct_history_sum_bits_do_not_depend_on_the_buffer_size(m):
    """Whatever ufunc buffer size the caller has set, the sum has the
    per-pair loop's bytes, over exact-zero rows (some -0.0), products in
    the subnormal range and products that cancel exactly."""
    rng = np.random.default_rng(m)
    L = 70
    w = rng.uniform(0.5, 2.0, L)
    vals = rng.standard_normal((L, m))
    vals[:10] = 0.0
    vals[5:10] = -0.0
    w[10:30] *= 1e-10
    vals[10:30] *= 1e-300
    w[31:50:2] = w[30:50:2]
    vals[31:50:2] = -vals[30:50:2]
    prods = w[:, None] * vals
    assert np.any((prods != 0.0) & (np.abs(prods) < np.finfo(float).tiny))
    assert np.all(prods[30:50:2] + prods[31:50:2] == 0.0)
    weights = _FixedWeights(w)
    wants = [history_sum_per_pair(weights, vals, n).tobytes() for n in range(1, L + 2)]
    for size in (16, 1024, 8192):
        saved = np.setbufsize(size)
        try:
            for n, want in enumerate(wants, start=1):
                assert direct_history_sum(weights, vals, n).tobytes() == want, (size, n)
        finally:
            np.setbufsize(saved)


def test_direct_history_sum_leaves_the_buffer_size_alone(monkeypatch):
    """The fold runs under the caller's own ufunc buffer size, and leaves it
    as it was, also when it raises."""
    seen, fail = [], False

    def spy(w, rows, acc=None):
        seen.append(np.getbufsize())
        if fail:
            raise ValueError("simulated")
        return fold_rows(w, rows, acc)

    monkeypatch.setattr(reference_solution, "fold_rows", spy)
    weights = WeightEngine(KernelParams(0.3), uniform_mesh(40, 1.0))
    saved = np.setbufsize(4096)
    try:
        for m in (1, 1521):
            direct_history_sum(weights, np.ones((33, m)), 34)
        assert seen == [4096, 4096] and np.getbufsize() == 4096
        seen.clear()
        fail = True
        with pytest.raises(ValueError, match="simulated"):
            direct_history_sum(weights, np.ones((33, 1521)), 34)
        assert seen == [4096] and np.getbufsize() == 4096
    finally:
        np.setbufsize(saved)


@pytest.mark.parametrize("forced", [True, False])
@pytest.mark.parametrize("nu", [0.02, 0.3, 0.5, 0.98])
def test_one_contour_evaluation_gives_both_sums(nu, forced):
    """u11 evaluates the contour once per block of times, at twice the
    nodes, and reads the sum at the nodes from every other point with
    twice the weight: on the desk levels both sums equal the separate
    evaluations bit for bit, and u11 the finer one."""
    t = 6.0 * np.arange(1, 2001) / 2000
    nodes = reference_solution._NODES
    block = reference_solution._BLOCK_BYTES // (16 * (4 * nodes + 1))
    fine = []
    for tb in np.split(t, range(block, t.size, block)):
        terms, pole_part = _u11_terms(nu, tb, forced, 2 * nodes)
        coarse = np.sum(2 * terms[:, ::2], axis=1).real + pole_part
        np.testing.assert_array_equal(coarse, contour_sum(nu, tb, forced, nodes))
        fine.append(contour_sum(nu, tb, forced, 2 * nodes))
        np.testing.assert_array_equal(np.sum(terms, axis=1).real + pole_part, fine[-1])
    np.testing.assert_array_equal(u11(nu, t, forced=forced), np.concatenate(fine))
