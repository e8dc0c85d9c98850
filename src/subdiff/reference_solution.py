"""Independent oracles: the exact separable benchmark solution and the
direct quadratic-cost history summation.

The benchmark problem (unit-coefficient initial mode of eigenvalue lam,
forcing 1 + sin(pi t)) has the Laplace transform

    uhat(z) = (1 + 1/z + pi/(z^2 + pi^2)) / (z + lam z^(1-nu)),

inverted numerically on a hyperbolic contour wrapped around the negative
real axis.  The imaginary-axis pole pair from the forcing is removed
analytically and restored as residues, so the contour quadrature only
sees the branch cut.
"""

from __future__ import annotations

import math

import numpy as np

from .frac_weights import gamma
from .history_engine import fold_rows


class ContourAccuracyError(RuntimeError):
    """Raised when the contour quadrature's error estimate is too large."""


# Hyperbolic contour z(x) = scale/t * (1 + sin(i x - angle)) with the
# standard optimized parameters for integrands analytic off the negative
# real axis: scale 4.4921 * nodes, asymptotic half-angle 1.1721, uniform
# step 1.0818 / nodes.  u11 sums it at 2 * _NODES nodes, and at _NODES
# from every other point.
_NODES = 32
_SCALE = 4.4921
_ANGLE = 1.1721


def _quadrature(t, nodes: int):
    """Contour points and trapezoid weights (z, w), 2 * nodes + 1 of each,
    for time t; the inversion is sum of Re(w * e^{z t} * fhat(z)).  An
    array of times gives one row of points and weights per time.

    The contour size is set from _NODES, not from nodes, so raising nodes
    refines the rule on a fixed contour: the exponential factor on the
    contour grows like exp((1 - sin(angle)) * scale * _NODES), and a
    larger contour would amplify roundoff (near 1e-11 at 32 nodes).
    """
    hstep = 1.0818 / nodes
    mu = _SCALE * _NODES / np.asarray(t, dtype=float)[..., None]
    x = hstep * np.arange(-nodes, nodes + 1)
    z = mu * (1.0 + np.sin(1j * x - _ANGLE))
    dz = 1j * mu * np.cos(1j * x - _ANGLE)
    w = hstep * dz / (2j * np.pi)
    return z, w


def _u11_hat(nu: float, z, forced: bool, lam: float):
    """uhat at the contour points z (a complex scalar or array)."""
    num = 1.0 + (1.0 / z + np.pi / (z * z + np.pi**2) if forced else 0.0)
    return num / (z + lam * z ** (1.0 - nu))


def _forcing_residue(nu: float, lam: float) -> complex:
    # residue of uhat at z = i pi, from the pi/(z^2+pi^2) forcing term
    zp = 1j * math.pi
    return 1.0 / (2j * (zp + lam * zp ** (1.0 - nu)))


# u11 evaluates its times in blocks small enough that each complex
# temporary (one row of contour points per time) stays near this size:
# all of a block's temporaries then fit in under 1 MB, and larger blocks
# run no faster.
_BLOCK_BYTES = 2**17


def u11(nu: float, t, forced: bool = True, lam: float = 1.0):
    """Time factor of the exact benchmark solution at time t > 0: a float
    for a scalar t, an array of the same shape for an array of times.

    lam is the eigenvalue of the initial mode under -K Laplace, K dim pi^2
    for the principal sine mode; the default 1 is the benchmark's.
    forced=False gives the homogeneous relaxation (the Mittag-Leffler
    function of -lam t^nu).  Raises ContourAccuracyError, naming the first
    failing time, if the internal half-node-count estimate of the
    quadrature error exceeds 1e-8, or is not finite, at any time.
    """
    ts = np.asarray(t, dtype=float)
    flat = ts.reshape(-1)
    if np.any(flat <= 0.0):
        raise ValueError("u11 requires t > 0")
    out = np.empty(flat.size)
    block = max(1, _BLOCK_BYTES // (16 * (4 * _NODES + 1)))
    for lo in range(0, flat.size, block):
        tb = flat[lo:lo + block]
        # a time too small or too large for the contour overflows it, and
        # the estimate, then NaN or inf, fails below
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            terms, pole_part = _u11_terms(nu, tb, forced, 2 * _NODES, lam)
            fine = np.sum(terms, axis=1).real + pole_part
            # the _NODES rule's terms are exactly twice every other one of these
            err = np.abs(fine - (np.sum(2 * terms[:, ::2], axis=1).real + pole_part))
        bad = np.flatnonzero(~(err <= 1e-8))  # NaN fails too
        if bad.size:
            i = bad[0]
            raise ContourAccuracyError(
                f"contour error estimate {err[i]:.3g} at t={tb[i]}"
            )
        out[lo:lo + block] = fine
    return float(out[0]) if ts.ndim == 0 else out.reshape(ts.shape)


def _u11_terms(nu: float, t: np.ndarray, forced: bool, nodes: int, lam: float = 1.0):
    """The contour sum's terms with nodes nodes, one row per time of the 1D
    array t, and the restored pole part at each time."""
    z, w = _quadrature(t, nodes)
    vals = _u11_hat(nu, z, forced, lam)
    pole_part = 0.0
    if forced:
        res = _forcing_residue(nu, lam)
        zp = 1j * math.pi
        vals = vals - res / (z - zp) - res.conjugate() / (z + zp)
        pole_part = 2.0 * (res * np.exp(zp * t)).real
    return w * np.exp(z * t[:, None]) * vals, pole_part


_ML_TERMS = 60


def mittag_leffler_series(nu: float, x: float) -> float:
    """Power series of E_nu(x) to _ML_TERMS terms; adequate for |x| <= 1."""
    ks = np.arange(_ML_TERMS)
    return float(np.sum(x**ks / np.array([gamma(1.0 + nu * k) for k in range(_ML_TERMS)])))


def u11_classical(t: float) -> float:
    """Closed form of the benchmark time factor at nu = 1 (ordinary ODE)."""
    return (
        math.exp(-t)
        + (1.0 - math.exp(-t))
        + (math.pi * math.exp(-t) + math.sin(math.pi * t) - math.pi * math.cos(math.pi * t))
        / (1.0 + math.pi**2)
    )


def max_nodal_error(numeric: list[np.ndarray] | np.ndarray,
                    exact: list[np.ndarray] | np.ndarray) -> float:
    """max over steps and nodes of |numeric - exact|; NaN if any value is."""
    err = 0.0
    for un, ue in zip(numeric, exact, strict=True):
        err = np.maximum(err, np.max(np.abs(un - ue)))  # keeps a NaN, unlike max()
    return float(err)


def direct_history_sum(weights, values: np.ndarray, n: int) -> np.ndarray:
    """Literal sum over j < n of beta_nj * U^j with exact weights, U^j
    being row j - 1 of the (N, m) array values (N >= n - 1; m zeros at n = 1).

    The slow scheme's history sum and the O(n M) equivalence oracle for
    the fast engine: one offdiag call for the weights of row n and one
    history_engine.fold_rows call, which adds the products row after row
    in ascending j, so the arithmetic matches the engine's near-field path
    and a multiply-accumulate per pair bit for bit.
    """
    if n < 1:
        raise ValueError("step index must be at least 1")
    if len(values) < n - 1:
        raise ValueError(f"step {n} needs {n - 1} past values, got {len(values)}")
    if n == 1:
        return np.zeros(values.shape[1])
    return fold_rows(weights.offdiag(n, np.arange(1, n)), values[:n - 1])
