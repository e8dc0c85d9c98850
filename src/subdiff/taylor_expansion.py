"""Rank-r degenerate-kernel approximation of the history weights.

For a source interval contained in (a, b] and a target interval strictly
to the right, the weight beta_nj separates into target-side coefficients
phi_p (kernel averages about the source midpoint sbar) and source-side
moments psi_p (polynomial averages), giving

    beta_nj ~ sum_{p=1}^r phi_pn * psi_pj

with relative error at most 2^(2-nu) (r+1) (eta/2)^r when the source
block length is at most eta times its distance to the target block.
Both coefficient families are generated by short recursions that avoid
the cancellation-prone direct differences, and both take arrays, so one
call evaluates the coefficients of many cluster/interval pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma


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
    """
    gap = np.asarray(t_prev, dtype=float) - sbar
    if np.any(gap <= 0.0):
        raise ValueError("target interval must lie strictly right of sbar")
    x = (t_next - t_prev) / (t_next - np.asarray(sbar, dtype=float))
    mu = np.arange(1, r + 1) - nu  # the orders p - nu of D_{p-nu}
    d = -np.expm1(mu * np.log1p(-x)[..., None])  # D_mu(x) = 1 - (1-x)^mu
    factors = np.empty(d.shape)
    factors[..., 0] = gap ** (nu - 1.0) / _gamma(nu)
    factors[..., 1:] = mu[:-1] / gap[..., None]
    return np.cumprod(factors, axis=-1) * d


def psi_coeffs(r: int, sbar, t_prev, t_next) -> np.ndarray:
    """Source-side moments psi_1..psi_r for the interval (t_prev, t_next].

    Polynomial recursion: psi_1 = k_j and
    psi_{p+1} = ((t_prev - sbar) psi_p + (k_j / p!) (t_next - sbar)^p) / (p+1),
    valid for any placement of sbar relative to the interval.

    The arguments broadcast against each other like those of phi_coeffs:
    scalars give shape (r,), K midpoints or K intervals give (K, r).
    """
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


def tilde_beta(phi: np.ndarray, psi: np.ndarray) -> float:
    """Rank-r approximate weight: the inner product of phi and psi."""
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if phi.shape != psi.shape:
        raise ValueError(f"coefficient length mismatch: {phi.shape} vs {psi.shape}")
    return float(phi @ psi)
