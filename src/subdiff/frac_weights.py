"""Cancellation-safe kernel primitives and history quadrature weights.

The memory kernel is w_mu(t) = t^(mu-1) / Gamma(mu).  The time stepping
scheme couples step n to past step j through the weight

    beta_nj = integral over I_j of [w_nu(t_{n-1}-s) - w_nu(t_n-s)] ds > 0,

with diagonal weight beta_nn = k_n^nu / Gamma(1+nu).  Direct evaluation of
beta_nj loses precision once the step sizes are small relative to the
separation of the intervals, so three stable routes are provided:

* an exact closed form for adjacent intervals (j = n-1),
* an even-power series in the source step for separated intervals,
* a square-root closed form special to nu = 1/2.

The weight functions take arrays: the interval endpoints given to
beta_interval, and the indices n, j given to beta_offdiag and
WeightEngine.offdiag, broadcast against each other, and the result has
their common shape, so one call evaluates a whole block of pairs.
Scalar arguments give a float.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import gammaln as _gammaln

from .time_mesh import TimeMesh


class SeriesConvergenceError(RuntimeError):
    """Raised when the separated-interval series fails to meet tolerance.

    Attributes:
        last_ratio: magnitude of the last successive-term ratio observed.
    """

    def __init__(self, msg: str, last_ratio: float):
        super().__init__(msg)
        self.last_ratio = last_ratio


@dataclass(frozen=True)
class KernelParams:
    """Fractional order of the memory kernel, 0 < nu < 1."""

    nu: float

    def __post_init__(self):
        if not 0.0 < self.nu < 1.0:
            raise ValueError(f"nu must lie in (0, 1), got {self.nu}")


@dataclass(frozen=True)
class SeriesControl:
    """Truncation control for the separated-interval series."""

    rel_tol: float = 1e-15
    max_terms: int = 50

    def __post_init__(self):
        if self.rel_tol <= 0.0:
            raise ValueError("rel_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


def omega(mu: float, t: float) -> float:
    """Kernel w_mu(t) = t^(mu-1) / Gamma(mu) for t > 0."""
    if t <= 0.0:
        raise ValueError(f"omega requires t > 0, got {t}")
    if mu <= 0.0 and mu == math.floor(mu):
        raise ValueError(f"Gamma pole at mu = {mu}")
    return t ** (mu - 1.0) / _gamma(mu)


def beta_diag(params: KernelParams, mesh: TimeMesh, n: int) -> float:
    """Diagonal weight beta_nn = k_n^nu / Gamma(1+nu)."""
    k = mesh.step(n)
    return k**params.nu / _gamma(1.0 + params.nu)


def _result(x: np.ndarray):
    """A float for a 0-d result, the array otherwise."""
    return float(x) if x.ndim == 0 else x


def _common(*arrays) -> list[np.ndarray]:
    """The arrays as float arrays of their common shape."""
    arrays = [np.asarray(x, dtype=float) for x in arrays]
    if len({x.shape for x in arrays}) > 1:
        arrays = np.broadcast_arrays(*arrays)
    return arrays


def beta_adjacent(nu: float, k_prev, k_cur):
    """Exact weight for adjacent intervals.

    beta = w_{1+nu}(k_max) * [1 + x^nu - (1+x)^nu] with x = k_min/k_max,
    the bracket evaluated through expm1/log1p to avoid cancellation.
    """
    k_prev, k_cur = np.asarray(k_prev, dtype=float), np.asarray(k_cur, dtype=float)
    k_hi = np.maximum(k_prev, k_cur)
    x = np.minimum(k_prev, k_cur) / k_hi
    # (1+x)^nu = 1 + y^nu with y < x, so the bracket is y^nu * ((x/y)^nu - 1).
    y = np.exp(np.log(np.expm1(nu * np.log1p(x))) / nu)
    bracket = y**nu * np.expm1(nu * np.log(x / y))
    return _result(k_hi**nu / _gamma(1.0 + nu) * bracket)


@functools.lru_cache(maxsize=16)
def _series_coefficients(nu: float, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p, the orders 2p+1-nu = -mu, and the log of the p-th coefficient
    1/(Gamma(nu-2p) (2p+1)! 4^p) over the first, for p < count; computed
    once for all the series calls of one kernel order."""
    p = np.arange(count)
    log_coef = -(_gammaln(nu - 2.0 * p) + _gammaln(2.0 * p + 2.0) + p * math.log(4.0))
    shared = p, 2.0 * p + 1.0 - nu, log_coef - log_coef[0]
    for x in shared:
        x.flags.writeable = False
    return shared


_SERIES_CHUNK = 128  # pairs per (pairs, max_terms) block of series terms


def _series(nu: float, kj, kn, delta, ctl: SeriesControl) -> np.ndarray:
    """Series evaluation of beta for 1-d arrays of separated interval pairs:
    source steps kj, target steps kn and centre distances delta.

    Each source interval must lie strictly left of its target, disjoint
    from it.  The expansion is in even powers of the source step about
    the centre distance Delta,

        beta = sum_p a^mu (-D_mu(k_n/a)) k_j^(2p+1) / (Gamma(nu-2p) (2p+1)! 4^p)

    with mu = nu-2p-1, a = Delta + k_n/2 and D_mu(x) = 1 - (1-x)^mu.  Its
    terms are all positive, with successive ratios approaching
    (k_j / (2*Delta - k_n))^2 < 1.  The first max_terms terms of up to
    _SERIES_CHUNK pairs at a time form one (pairs, max_terms) array, each
    the leading term times the exponential of its log-ratio to it, so no
    power over- or underflows and the array stays small however many pairs
    one call asks for.  A pair's value is its partial sum up to the first
    term below rel_tol times that sum; the first chunk with a pair that
    gets there in no term raises SeriesConvergenceError.
    """
    if np.any(delta <= 0.5 * (kj + kn)):
        raise ValueError("series branch requires disjoint source left of target")
    out = np.empty(kj.shape)
    p, orders, log_coef = _series_coefficients(nu, ctl.max_terms)
    for i in range(0, kj.size, _SERIES_CHUNK):
        part = slice(i, i + _SERIES_CHUNK)
        k_j, k_n, dist = kj[part, None], kn[part, None], delta[part, None]
        a = dist + 0.5 * k_n
        log1p_x = np.log1p(-k_n / a)
        lead = a ** (nu - 1.0) / _gamma(nu) * np.expm1((nu - 1.0) * log1p_x) * k_j  # term 0
        # a^mu (-D_mu(x)) = (a - k_n)^mu h_p with h_p = -expm1(-mu log1p(-x)) in (0, 1)
        log_h = np.log(-np.expm1(log1p_x * orders))
        log_ratio = log_coef + p * (2.0 * np.log(k_j / (a - k_n))) + (log_h - log_h[:, :1])
        terms = lead * np.exp(log_ratio)
        totals = np.cumsum(terms, axis=1)
        done = terms < ctl.rel_tol * totals
        stop = done.argmax(axis=1)
        rows = np.arange(stop.size)
        failed = np.flatnonzero(~done[rows, stop])
        if failed.size:
            j = failed[0]
            ratio = (terms[j, -1] / terms[j, -2] if ctl.max_terms > 1
                     else (k_j[j, 0] / (2.0 * dist[j, 0] - k_n[j, 0])) ** 2)  # the limit
            raise SeriesConvergenceError(
                f"weight series did not reach rel_tol={ctl.rel_tol} in {ctl.max_terms} terms "
                f"for {failed.size} pair(s) (last term ratio {ratio:.3g})",
                last_ratio=float(ratio),
            )
        out[part] = totals[rows, stop]
    return out


def _half(kj, kn, delta):
    rpp = np.sqrt(delta + 0.5 * kj + 0.5 * kn)
    rpm = np.sqrt(delta + 0.5 * kj - 0.5 * kn)
    rmp = np.sqrt(delta - 0.5 * kj + 0.5 * kn)
    rmm = np.sqrt(delta - 0.5 * kj - 0.5 * kn)
    g32 = _gamma(1.5)
    return (
        kn * kj / g32
        / ((rmp + rmm) * (rpp + rpm))
        * (1.0 / (rpp + rmp) + 1.0 / (rpm + rmm))
    )


def beta_interval(nu: float, source, target, ctl: SeriesControl = SeriesControl()):
    """Stable weight for source/target interval pairs.

    Dispatch per pair: adjacent closed form where the intervals touch,
    otherwise the nu = 1/2 square-root form when applicable, else the
    even-power series.
    """
    s0, s1, t0, t1 = _common(*source, *target)
    kj, kn, delta = s1 - s0, t1 - t0, 0.5 * (t0 + t1) - 0.5 * (s0 + s1)
    out = np.empty(kj.shape)
    adj = s1 == t0
    if adj.any():
        out[adj] = beta_adjacent(nu, kj[adj], kn[adj])
    sep = ~adj
    if sep.any():
        pairs = kj[sep], kn[sep], delta[sep]
        out[sep] = _half(*pairs) if nu == 0.5 else _series(nu, *pairs, ctl)
    return _result(out)


def _pairs(mesh: TimeMesh, n, j) -> tuple[np.ndarray, np.ndarray]:
    """n and j as integer arrays, checked to satisfy 1 <= j < n <= N.

    The check reduces instead of building boolean arrays: a slow run would
    allocate those anew at every step, growing with its rows, and they
    raised the desk-scale slow run's peak RSS by 2%."""
    n, j = np.asarray(n), np.asarray(j)
    lag = n - j
    if lag.size and (lag.min() < 1 or j.min() < 1 or n.max() > mesh.N):
        n, j = np.broadcast_arrays(n, j)
        i = np.flatnonzero((lag < 1) | (j < 1) | (n > mesh.N))[0]
        raise ValueError("history weights require 1 <= j <= n-1 and n <= N = "
                         f"{mesh.N}, got n={n.flat[i]}, j={j.flat[i]}")
    return n, j


def beta_offdiag(params: KernelParams, mesh: TimeMesh, ctl: SeriesControl, n, j):
    """History weights beta_nj for 1 <= j <= n-1; n and j broadcast, and
    the result has their common shape."""
    n, j = _pairs(mesh, n, j)
    lv = mesh.levels
    return beta_interval(params.nu, (lv[j - 1], lv[j]), (lv[n - 1], lv[n]), ctl)


class WeightEngine:
    """Weight evaluation for one mesh and kernel order.

    offdiag(n, j) takes integer arrays that broadcast against each other
    and returns beta_nj with their common shape (a float for scalars), so
    callers ask for a whole row or block at once.  On uniform meshes
    beta_nj depends only on the lag n - j: the first query builds a lag
    table with one beta_offdiag call over the pairs (L+1, 1), L = 1..N-1,
    and every query reads it, so a weight never depends on the order of
    the queries.  Other meshes evaluate each query's pairs directly.
    """

    def __init__(self, params: KernelParams, mesh: TimeMesh,
                 ctl: SeriesControl = SeriesControl()):
        self.params = params
        self.mesh = mesh
        self.ctl = ctl
        self._lags: np.ndarray | None = None  # uniform meshes: entry L is lag L's weight

    def diag(self, n: int) -> float:
        return beta_diag(self.params, self.mesh, n)

    def offdiag(self, n, j):
        if not self.mesh.uniform:
            return beta_offdiag(self.params, self.mesh, self.ctl, n, j)
        n, j = _pairs(self.mesh, n, j)
        if self._lags is None:
            targets = np.arange(2, self.mesh.N + 1)  # n = L+1 for j = 1
            self._lags = np.concatenate(
                [[np.nan], beta_offdiag(self.params, self.mesh, self.ctl, targets, 1)])
        return _result(self._lags[n - j])
