"""Rank-r degenerate-kernel approximation of the history weights.

For a source interval contained in (a, b] and a target interval strictly
to the right, the weight beta_nj separates into target-side coefficients
phi_p (kernel averages about the source midpoint sbar) and source-side
moments psi_p (polynomial averages), giving

    beta_nj ~ sum_{p=1}^r phi_pn * psi_pj

with relative error at most 2^(2-nu) (r+1) (eta/2)^r when the source
block length is at most eta times its distance to the target block.
Both coefficient families avoid the cancellation-prone direct
differences: phi through a running product of kernel factors, psi
through a recursion over the orders.  Both take arrays, so one call
evaluates the coefficients of many cluster/interval pairs, and both fill
one preallocated result an order at a time, so a call over many pairs
needs no other temporary of the result's size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frac_weights import NonFiniteWeightError, gamma


@dataclass(frozen=True)
class ExpansionParams:
    """Expansion order r >= 1 and admissibility parameter 0 < eta <= 1."""

    r: int
    eta: float

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("expansion order r must be at least 1")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")

    def error_factor(self, nu: float) -> float:
        """Relative error bound factor 2^(2-nu) (r+1) (eta/2)^r."""
        return 2.0 ** (2.0 - nu) * (self.r + 1) * (self.eta / 2.0) ** self.r


def phi_coeffs(nu: float, r: int, sbar, t_prev, t_next) -> np.ndarray:
    """Target-side coefficients phi_1..phi_r for the interval (t_prev, t_next].

    phi_p = kappa_p * D_{p-nu}(x) with x = k_n / (t_next - sbar), where the
    kappa recursion is kappa_1 = (t_prev - sbar)^(nu-1) / Gamma(nu) and
    kappa_{p+1} = (p - nu) / (t_prev - sbar) * kappa_p.  Requires the
    target to lie strictly right of the source midpoint.

    The arguments broadcast against each other; the result has their
    common shape plus a trailing axis of length r, so scalar arguments
    give shape (r,) and an array of K midpoints gives shape (K, r).
    Each order costs a few operations on arrays of the common shape.  A
    coefficient that is not finite raises NonFiniteWeightError naming its
    midpoint and interval.
    """
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


def psi_coeffs(r: int, sbar, t_prev, t_next) -> np.ndarray:
    """Source-side moments psi_1..psi_r for the interval (t_prev, t_next].

    psi_p is the integral of (s - sbar)^(p-1) / (p-1)! over the interval.
    With a = t_prev - sbar, b = t_next - sbar and k_j = t_next - t_prev,
    psi_1 = k_j and psi_{p+1} = (a psi_p + k_j b^p / p!) / (p+1), valid
    for any placement of sbar relative to the interval.  Each order
    extends the running product b^p / (p+1)! and costs one multiply and
    one add into its row of the result.

    The arguments broadcast against each other like those of phi_coeffs:
    scalars give shape (r,), K midpoints or K intervals give (K, r), and
    a coefficient that is not finite raises NonFiniteWeightError.
    """
    kj = np.subtract(t_next, t_prev, dtype=float)
    a = np.subtract(t_prev, sbar, dtype=float)
    b = np.subtract(t_next, sbar, dtype=float)
    out = np.empty((r, *np.broadcast(a, b).shape))
    out[0] = kj
    power = 1.0
    for p in range(1, r):
        power = power * (b / (p + 1))  # b^p / (p+1)!
        row = out[p, ...]  # a view even for scalar arguments
        np.multiply(a / (p + 1), out[p - 1], out=row)
        row += power * kj
    return _finite_coeffs("psi", out.transpose(*range(1, out.ndim), 0), sbar, t_prev, t_next)


def _finite_coeffs(name: str, out: np.ndarray, sbar, t_prev, t_next) -> np.ndarray:
    """out, the coefficients of the pairs (sbar, (t_prev, t_next]) broadcast,
    orders last; raises NonFiniteWeightError naming the first pair with a
    coefficient that is not finite."""
    if np.isfinite(out).all():  # a flat pass: a reduction over the short last axis is slower
        return out
    finite = np.isfinite(out).all(axis=-1)
    i = np.unravel_index(np.argmin(finite), finite.shape)
    s, a, b = (np.broadcast_to(x, finite.shape)[i] for x in (sbar, t_prev, t_next))
    raise NonFiniteWeightError(f"a {name} coefficient of the midpoint {s:.17g} and "
                               f"the interval ({a:.17g}, {b:.17g}] is not finite")


def tilde_beta(phi: np.ndarray, psi: np.ndarray) -> float:
    """Rank-r approximate weight: the inner product of phi and psi."""
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if phi.shape != psi.shape:
        raise ValueError(f"coefficient length mismatch: {phi.shape} vs {psi.shape}")
    return float(phi @ psi)
