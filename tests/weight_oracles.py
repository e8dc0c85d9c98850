"""Scalar and closed-form cross-checks of the history weights, used only
by the tests: the diagonal weight beta_nn, the local kernel averages
B_mu, the direct difference of two of them, the nu = 1/2 square-root
form and the separated-interval series as a function of interval
endpoints; and the history sum as one multiply-accumulate per pair."""

from __future__ import annotations

import math

import numpy as np

from subdiff.frac_weights import KernelParams, _common, _result, _series, gamma, omega
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
