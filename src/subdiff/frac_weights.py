"""Cancellation-safe kernel primitives and history quadrature weights.

The memory kernel is w_mu(t) = t^(mu-1) / Gamma(mu).  The time stepping
scheme couples step n to past step j through the weight

    beta_nj = integral over I_j of [w_nu(t_{n-1}-s) - w_nu(t_n-s)] ds > 0,

with diagonal weight beta_nn = k_n^nu / Gamma(1+nu).  Direct evaluation of
beta_nj loses precision once the step sizes are small relative to the
separation of the intervals, so two stable routes are provided, for
every nu alike:

* an exact closed form for adjacent intervals (j = n-1),
* an even-power series in the source step for separated intervals.

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

from .time_mesh import TimeMesh

# Cephes' rational approximation P(x)/Q(x) of Gamma(2 + x) on 0 <= x < 1,
# highest power first: the one scipy.special.gamma evaluates.
_GAMMA_P = (1.60119522476751861407e-4, 1.19135147006586384913e-3, 1.04213797561761569935e-2,
            4.76367800457137231464e-2, 2.07448227648435975150e-1, 4.94214826801497100753e-1,
            9.99999999999999996796e-1)
_GAMMA_Q = (-2.31581873324120129819e-5, 5.39605580493303397842e-4, -4.45641913851797240494e-3,
            1.18139785222060435552e-2, 3.58236398605498653373e-2, -2.34591795718243348568e-1,
            7.14304917030273074085e-2, 1.00000000000000000320e0)
_EULER = 0.5772156649015329


def gamma(x: float) -> float:
    """Gamma(x) for real x off the poles, |x| <= 171: Cephes' rational
    approximation on [2, 3], reached through Gamma(x+1) = x Gamma(x), or
    1/((1 + Euler x) x) once the recurrence brings x within 1e-9 of 0,
    near a pole.  For |x| <= 33 this is the evaluation of
    scipy.special.gamma, bit for bit; beyond, Cephes switches to
    Stirling's formula and the two may differ in the last bits."""
    x = float(x)
    if not abs(x) <= 171.0:
        raise ValueError(f"gamma is evaluated for |x| <= 171, got {x}")
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"Gamma pole at x = {x}")
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        if -1e-9 < x < 1e-9:
            return z / ((1.0 + _EULER * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    p = q = 0.0
    for c in _GAMMA_P:
        p = p * x + c
    for c in _GAMMA_Q:
        q = q * x + c
    return z * p / q


class SeriesConvergenceError(RuntimeError):
    """Raised when the separated-interval series fails to meet tolerance.

    Attributes:
        last_ratio: magnitude of the last successive-term ratio observed.
    """

    def __init__(self, msg: str, last_ratio: float):
        super().__init__(msg)
        self.last_ratio = last_ratio


class NonFiniteWeightError(RuntimeError):
    """Raised when a history weight or an expansion coefficient is not
    finite; the message names the pair it belongs to."""


@dataclass(frozen=True)
class KernelParams:
    """Fractional order of the memory kernel, 0 < nu < 1."""

    nu: float

    def __post_init__(self):
        if not 0.0 < self.nu < 1.0:
            raise ValueError(f"nu must lie in (0, 1), got {self.nu}")


def omega(mu: float, t: float) -> float:
    """Kernel w_mu(t) = t^(mu-1) / Gamma(mu) for t > 0."""
    if t <= 0.0:
        raise ValueError(f"omega requires t > 0, got {t}")
    return t ** (mu - 1.0) / gamma(mu)


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
    # For small nu, y underflows (nu = 0.005: y < 1e-308), and the bracket
    # is formed from e = y^nu instead.
    e = np.expm1(nu * np.log1p(x))
    y = np.exp(np.log(e) / nu)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # in the form not taken
        bracket = np.where(y < np.finfo(float).tiny, e * np.expm1(nu * np.log(x) - np.log(e)),
                           y**nu * np.expm1(nu * np.log(x / y)))
    return _result(k_hi**nu / gamma(1.0 + nu) * bracket)


@functools.lru_cache(maxsize=16)
def _series_coefficients(nu: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The orders 2p+1-nu = -mu and the log of the p-th coefficient
    1/(Gamma(nu-2p) (2p+1)! 4^p) over the first, for p < count; computed
    once for all the series calls of one kernel order."""
    log_coef = np.array([-(math.lgamma(nu - 2.0 * q) + math.lgamma(2.0 * q + 2.0)
                           + q * math.log(4.0)) for q in range(count)])
    shared = 2.0 * np.arange(count) + 1.0 - nu, log_coef - log_coef[0]
    for x in shared:
        x.flags.writeable = False
    return shared


_REL_TOL = 1e-15  # a pair's series stops at its first term below _REL_TOL times its sum
_MAX_TERMS = 50


def _series(nu: float, kj, kn, delta) -> np.ndarray:
    """Series evaluation of beta for 1-d arrays of separated interval pairs:
    source steps kj, target steps kn and centre distances delta.

    Each source interval must lie strictly left of its target, disjoint
    from it.  The expansion is in even powers of the source step about
    the centre distance Delta,

        beta = sum_p a^mu (-D_mu(k_n/a)) k_j^(2p+1) / (Gamma(nu-2p) (2p+1)! 4^p)

    with mu = nu-2p-1, a = Delta + k_n/2 and D_mu(x) = 1 - (1-x)^mu.  Its
    terms are all positive, with successive ratios approaching
    (k_j / (2*Delta - k_n))^2 < 1.  Each term is the leading term times
    the exponential of its log-ratio to it, so no power over- or
    underflows.  A pair's value is its partial sum up to the first term
    below _REL_TOL times that sum.  The terms are added one order at a
    time over one value per pair; a pair's sum is taken at its stopping
    term, and the stopped pairs leave the arrays only once three quarters
    of those in them have stopped, since copying the arrays costs more
    than summing a few terms too many.  If pairs are still summing after
    _MAX_TERMS terms, SeriesConvergenceError counts them.
    """
    if np.any(delta <= 0.5 * (kj + kn)):
        raise ValueError("series branch requires disjoint source left of target")
    orders, log_coef = _series_coefficients(nu, _MAX_TERMS)
    a = delta + 0.5 * kn
    log1p_x = np.log1p(-kn / a)
    lead = a ** (nu - 1.0) / gamma(nu) * np.expm1((nu - 1.0) * log1p_x) * kj  # term 0
    log_q = 2.0 * np.log(kj / (a - kn))  # term p's log-ratio has p of these
    # a^mu (-D_mu(x)) = (a - k_n)^mu h_p with h_p = -expm1(-mu log1p(-x)) in (0, 1)
    log_h0 = np.log(-np.expm1(log1p_x * orders[0]))
    out, total, term = np.empty(kj.shape), np.zeros(kj.shape), np.zeros(kj.shape)
    rows = np.arange(kj.size)  # the pairs in the arrays; a stopped one's total is -inf
    summing = kj.size
    for p in range(_MAX_TERMS):
        log_h = log1p_x * orders[p]  # then log_h - log_h0, in place
        np.log(np.negative(np.expm1(log_h, out=log_h), out=log_h), out=log_h)
        log_h -= log_h0
        prev, term = term, lead * np.exp(log_coef[p] + p * log_q + log_h)
        total += term
        done = term < _REL_TOL * total
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
        f"weight series did not reach rel_tol={_REL_TOL} in {_MAX_TERMS} terms "
        f"for {summing} pair(s) (last term ratio {ratio:.3g})",
        last_ratio=float(ratio),
    )


def beta_interval(nu: float, source, target):
    """Stable weight for source/target interval pairs.

    Dispatch per pair: adjacent closed form where the intervals touch,
    otherwise the even-power series.
    """
    s0, s1, t0, t1 = _common(*source, *target)
    kj, kn, delta = s1 - s0, t1 - t0, 0.5 * (t0 + t1) - 0.5 * (s0 + s1)
    out = np.empty(kj.shape)
    adj = s1 == t0
    if adj.any():
        out[adj] = beta_adjacent(nu, kj[adj], kn[adj])
    sep = ~adj
    if sep.any():
        out[sep] = _series(nu, kj[sep], kn[sep], delta[sep])
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


def beta_offdiag(params: KernelParams, mesh: TimeMesh, n, j):
    """History weights beta_nj for 1 <= j <= n-1; n and j broadcast, and
    the result has their common shape."""
    n, j = _pairs(mesh, n, j)
    lv = mesh.levels
    return beta_interval(params.nu, (lv[j - 1], lv[j]), (lv[n - 1], lv[n]))


class WeightEngine:
    """Weight evaluation for one mesh and kernel order.

    offdiag(n, j) takes integer arrays that broadcast against each other
    and returns beta_nj with their common shape (a float for scalars), so
    callers ask for a whole row or block at once.  On uniform meshes
    beta_nj depends only on the lag n - j, and every query reads a lag
    table whose entry L is the weight of the pair (L+1, 1): a query with a
    lag past the table's end grows it, to the larger of that lag and twice
    its length (at most N-1), with one beta_offdiag call over the pairs
    added.  A pair's weight does not depend on the others of its call, so
    a weight never depends on the order of the queries, and a run that
    asks only for short lags evaluates only those.  Other meshes evaluate
    each query's pairs directly.  A weight that is not finite raises
    NonFiniteWeightError naming its pair (n, j): the table's pair
    (L+1, 1), checked once when the table grows to hold it, or the query's.
    """

    def __init__(self, params: KernelParams, mesh: TimeMesh):
        self.params = params
        self.mesh = mesh
        self._lags = np.array([np.nan])  # uniform meshes: entry L is lag L's weight

    def offdiag(self, n, j):
        if not self.mesh.uniform:
            return _finite_weights(beta_offdiag(self.params, self.mesh, n, j), n, j)
        n, j = _pairs(self.mesh, n, j)
        lag = n - j
        have = len(self._lags) - 1
        if lag.size and lag.max() > have:
            targets = np.arange(have + 2, min(max(lag.max(), 2 * have), self.mesh.N - 1) + 2)
            lags = beta_offdiag(self.params, self.mesh, targets, 1)  # n = L+1 for j = 1
            self._lags = np.concatenate([self._lags, _finite_weights(lags, targets, 1)])
        return _result(self._lags[lag])


def _finite_weights(w, n, j):
    """w, the weights of the pairs (n, j) broadcast; raises
    NonFiniteWeightError naming the first pair whose weight is not finite."""
    finite = np.isfinite(w)
    if not finite.all():
        i = int(np.argmin(finite))
        n, j = (np.broadcast_to(x, finite.shape).flat[i] for x in (n, j))
        raise NonFiniteWeightError(f"the history weight of (n, j) = ({n}, {j}) is not finite")
    return w
