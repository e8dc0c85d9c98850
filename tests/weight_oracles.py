"""Scalar and closed-form cross-checks of the history weights, used only
by the tests: the diagonal weight beta_nn, the local kernel averages
B_mu, the direct difference of two of them, the nu = 1/2 square-root
form and the separated-interval series as a function of interval
endpoints; the history sum as one multiply-accumulate per pair; and the
forms of the weight series and of phi_coeffs that allocated each order's
intermediates anew, whose bytes the buffered forms keep."""

from __future__ import annotations

import math

import numpy as np

from subdiff import frac_weights
from subdiff.frac_weights import (
    KernelParams,
    SeriesConvergenceError,
    _common,
    _result,
    _series,
    _series_coefficients,
    gamma,
    omega,
)
from subdiff.taylor_expansion import _finite_coeffs
from subdiff.time_mesh import TimeMesh


def beta_diag(params: KernelParams, mesh: TimeMesh, n: int) -> float:
    """Diagonal weight beta_nn = k_n^nu / Gamma(1+nu)."""
    k = mesh.step(n)
    return k**params.nu / gamma(1.0 + params.nu)


def d_mu(mu: float, x: float) -> float:
    """D_mu(x) = 1 - (1-x)^mu, evaluated without cancellation for small x."""
    if not 0.0 <= x < 1.0:
        raise ValueError(f"d_mu requires 0 <= x < 1, got {x}")
    return -math.expm1(mu * math.log1p(-x))


def b_mu(mu: float, t: float, k: float) -> float:
    """Local kernel average B_mu(t, k) = w_{1+mu}(t+k/2) - w_{1+mu}(t-k/2).

    For positive integer mu the result is a polynomial in t, valid for any
    real t; otherwise the interval (t-k/2, t+k/2) must avoid the kernel
    singularity, i.e. t > k/2, and the difference is computed through
    D_mu to avoid cancellation when k << t.
    """
    if k <= 0.0:
        raise ValueError(f"b_mu requires k > 0, got {k}")
    if mu >= 1.0 and mu == math.floor(mu):
        return _b_int(int(mu), t, k)
    if t <= 0.5 * k:
        raise ValueError(f"b_mu singular branch requires t > k/2, got t={t}, k={k}")
    a = t + 0.5 * k
    return omega(1.0 + mu, a) * d_mu(mu, k / a)


def _b_int(p: int, t: float, k: float) -> float:
    # B_p(t,k) = [(t+k/2)^p - (t-k/2)^p] / p! written as a product sum,
    # which is exact for any t and free of cancellation.
    a = t + 0.5 * k
    b = t - 0.5 * k
    acc = 0.0
    for q in range(p):
        acc += a**q * b ** (p - 1 - q)
    return k * acc / math.factorial(p)


def _geometry(source, target):
    """Source step k_j, target step k_n and centre distance Delta, of the
    endpoints' common shape."""
    s0, s1, t0, t1 = _common(*source, *target)
    return s1 - s0, t1 - t0, 0.5 * (t0 + t1) - 0.5 * (s0 + s1)


def beta_direct(nu: float, source: tuple[float, float], target: tuple[float, float]) -> float:
    """Direct difference beta = B_nu(Delta - k_j/2, k_n) - B_nu(Delta + k_j/2, k_n).

    Exact in real arithmetic but loses precision for well-separated
    intervals; an independent cross-check of the series branch.
    """
    s0, s1 = source
    t0, t1 = target
    kj = s1 - s0
    kn = t1 - t0
    delta = 0.5 * (t0 + t1) - 0.5 * (s0 + s1)
    return b_mu(nu, delta - 0.5 * kj, kn) - b_mu(nu, delta + 0.5 * kj, kn)


def beta_half(source, target):
    """Closed form for nu = 1/2 built from the four corner square roots;
    an independent cross-check of the series branch at that order."""
    kj, kn, delta = _geometry(source, target)
    rpp = np.sqrt(delta + 0.5 * kj + 0.5 * kn)
    rpm = np.sqrt(delta + 0.5 * kj - 0.5 * kn)
    rmp = np.sqrt(delta - 0.5 * kj + 0.5 * kn)
    rmm = np.sqrt(delta - 0.5 * kj - 0.5 * kn)
    return _result(kn * kj / gamma(1.5)
                   / ((rmp + rmm) * (rpp + rpm))
                   * (1.0 / (rpp + rmp) + 1.0 / (rpm + rmm)))


def beta_separated_series(nu: float, source, target):
    """The series branch of the weights for separated pairs given by their
    endpoints, source = (t_{j-1}, t_j) and target = (t_{n-1}, t_n), which
    broadcast against each other; frac_weights._series describes it."""
    kj, kn, delta = _geometry(source, target)
    return _result(_series(nu, kj.ravel(), kn.ravel(), delta.ravel()).reshape(kj.shape))


def history_sum_per_pair(weights, values: np.ndarray, n: int) -> np.ndarray:
    """Sum over j < n of beta_nj * U^j, the rows of the (N, m) array
    values, as one multiply-accumulate per pair (n, j), in ascending j
    from m zeros: the order history_engine.fold_rows, and so both history
    sums, must keep bit for bit."""
    acc = np.zeros(values.shape[1])
    if n > 1:
        row = weights.offdiag(n, np.arange(1, n)).tolist()
        for w, value in zip(row, values[:n - 1], strict=True):
            acc += w * value
    return acc


def series_allocating(nu: float, kj, kn, delta) -> np.ndarray:
    """frac_weights._series as it was before its buffers: each order's
    intermediates are new arrays, and compaction copies the summing pairs
    into new arrays.  The limits are read from frac_weights at each call,
    so a test that shortens the series shortens this one too."""
    if np.any(delta <= 0.5 * (kj + kn)):
        raise ValueError("series branch requires disjoint source left of target")
    orders, log_coef = _series_coefficients(nu, frac_weights._MAX_TERMS)
    a = delta + 0.5 * kn
    log1p_x = np.log1p(-kn / a)
    lead = a ** (nu - 1.0) / gamma(nu) * np.expm1((nu - 1.0) * log1p_x) * kj  # term 0
    log_q = 2.0 * np.log(kj / (a - kn))  # term p's log-ratio has p of these
    # a^mu (-D_mu(x)) = (a - k_n)^mu h_p with h_p = -expm1(-mu log1p(-x)) in (0, 1)
    log_h0 = np.log(-np.expm1(log1p_x * orders[0]))
    out, total, term = np.empty(kj.shape), np.zeros(kj.shape), np.zeros(kj.shape)
    rows = np.arange(kj.size)  # the pairs in the arrays; a stopped one's total is -inf
    summing = kj.size
    for p in range(frac_weights._MAX_TERMS):
        log_h = log1p_x * orders[p]  # then log_h - log_h0, in place
        np.log(np.negative(np.expm1(log_h, out=log_h), out=log_h), out=log_h)
        log_h -= log_h0
        prev, term = term, lead * np.exp(log_coef[p] + p * log_q + log_h)
        total += term
        done = term < frac_weights._REL_TOL * total
        stopped = np.count_nonzero(done)
        if stopped:
            out[rows[done]] = total[done]
            total[done] = -np.inf  # so that the pair never stops again
            summing -= stopped
            if summing and 4 * summing <= rows.size:  # three quarters have stopped
                go = total != -np.inf
                rows, total, term, prev, lead, log1p_x, log_q, log_h0 = (
                    x[go] for x in (rows, total, term, prev, lead, log1p_x, log_q, log_h0))
        if not summing:
            return out
    first = np.argmax(total != -np.inf)  # the first pair still summing
    ratio = term[first] / prev[first]
    raise SeriesConvergenceError(
        f"weight series did not reach rel_tol={frac_weights._REL_TOL} in "
        f"{frac_weights._MAX_TERMS} terms for {summing} pair(s) (last term ratio {ratio:.3g})",
        last_ratio=float(ratio),
    )


def phi_coeffs_negating(nu: float, r: int, sbar, t_prev, t_next) -> np.ndarray:
    """taylor_expansion.phi_coeffs as it was before it carried -kappa: each
    order negates its expm1 before the product with kappa."""
    gap = np.asarray(t_prev, dtype=float) - sbar
    if np.any(gap <= 0.0):
        raise ValueError("target interval must lie strictly right of sbar")
    x = (t_next - t_prev) / (t_next - np.asarray(sbar, dtype=float))
    mu = np.arange(1, r + 1) - nu  # the orders p - nu of D_{p-nu}
    log1p_x = np.log1p(-x)
    out = np.empty((*np.shape(x), r))
    kappa = gap ** (nu - 1.0) / gamma(nu)
    for p in range(r):  # one order at a time, times D_mu(x) = 1 - (1-x)^mu
        if p:
            kappa = kappa * (mu[p - 1] / gap)
        out[..., p] = kappa * -np.expm1(mu[p] * log1p_x)
    return _finite_coeffs("phi", out, sbar, t_prev, t_next)
