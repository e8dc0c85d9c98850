"""Time-stepping drivers: the quadratic-cost reference scheme, the fast
clustered scheme, and stability/accuracy parameter selection.

Each step solves (mass + beta_nn * stiffness) U^n = mass U^{n-1}
+ k_n * load_n + stiffness * H_n, where H_n is the weighted sum over the
past steps.  The march takes it in the sine basis (see spatial_fem),
where it is elementwise:

    u^_n = (mu * u^_{n-1} + k_n fbar_n mu * s^ + sigma * H^_n)
           / (mu + beta_nn * sigma),    U^n = S u^_n,

with S the DST-I and s^ = S spatial.  The history is kept in that basis
too: H^_n = S H_n is the same weighted sum over the past coefficients
u^_j, as the sum is linear, so the march hands u^_n back to the history
and transforms only for output, U^n once per step into a sink, or an
in-memory run's rows all together after its last step.  Both schemes
take that same step; they differ only in how H^_n is computed.  The
slow scheme evaluates it directly over every retained coefficient
vector; the fast scheme delegates it to the history engine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .clustering import ClusterTree, max_depth
from .frac_weights import KernelParams, WeightEngine, gamma
from .history_engine import HistoryEngine, NonFiniteSolutionError, SolutionSink, predicted_ops
from .reference_solution import direct_history_sum
from .spatial_fem import EllipticSolver, SeparableSource, SpatialGrid, load_average
from .taylor_expansion import ExpansionParams, phi_coeffs, psi_coeffs
from .time_mesh import TimeMesh


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one solver run."""

    nu: float
    mesh: TimeMesh
    grid: SpatialGrid
    r: int | None = None
    eta: float | None = None
    Q: int = 2
    G: int | None = None

    def tree(self) -> ClusterTree:
        """The run's (Q, G)-uniform cluster tree.  With G None, of the
        depths 1..max_depth(N, Q), the one whose fast run at the run's
        (r, eta) does the fewest history ops, counted by predicted_ops, and
        the shallowest of equal ones (fewer leaves, less per-leaf work);
        the tree holds the lifetimes for eta that the engine then reads.
        An N that Q does not divide has no tree."""
        if self.G is not None:
            return ClusterTree(self.mesh, self.Q, self.G)
        N, Q = self.mesh.N, self.Q
        deepest = max_depth(N, Q)
        if deepest < 1:
            raise ValueError(f"N={N} is not divisible by Q={Q}, so it has no cluster tree")
        r, eta = self.resolved_params()
        # min keeps the first of equal keys, and holds one tree besides it
        return min((ClusterTree(self.mesh, Q, G) for G in range(1, deepest + 1)),
                   key=lambda tree: predicted_ops(tree, r, eta))

    def resolved_params(self) -> tuple[int, float]:
        """Validated expansion order and admissibility parameter: those of
        select_params, with an explicit eta overriding the cost-optimal
        one.  An explicit eta requires an explicit r."""
        if self.eta is not None and self.r is None:
            raise ValueError("an explicit eta requires an explicit expansion order r")
        r, eta = select_params(self.nu, self.mesh, self.r)
        params = ExpansionParams(r, eta if self.eta is None else self.eta)
        return params.r, params.eta


@dataclass
class RunResult:
    """Solutions plus phase accounting for one run.

    solutions holds U^1..U^N, in nodal values, as the rows of an (N, M)
    float64 array: in memory, or, for a run given a SolutionSink, the
    sink's read-only memory map of its records.  An in-memory array holds
    the sine coefficients u^_n while the run marches, and the nodal values
    once it returns.  G is the depth of the fast run's cluster tree; a
    slow run has none.
    """

    solutions: np.ndarray
    setup_seconds: float = 0.0
    rhs_seconds: float = 0.0
    solver_seconds: float = 0.0
    rhs_ops: int = 0
    peak_values: int = 0
    r: int | None = None
    eta: float | None = None
    G: int | None = None

    @property
    def total_seconds(self) -> float:
        return self.setup_seconds + self.rhs_seconds + self.solver_seconds


def rho_nu(nu: float) -> float:
    """Coercivity constant of the memory form,
    pi^(1-nu) (1-nu)^(1-nu) / (2-nu)^(2-nu) * sin(pi nu / 2)."""
    if not 0.0 < nu < 1.0:
        raise ValueError("nu must lie in (0, 1)")
    return (
        math.pi ** (1.0 - nu)
        * (1.0 - nu) ** (1.0 - nu)
        / (2.0 - nu) ** (2.0 - nu)
        * math.sin(0.5 * math.pi * nu)
    )


def optimal_eta(r: int) -> float:
    """Cost-optimal admissibility parameter 2 exp(-(r+2)/(r+1))."""
    if r < 1:
        raise ValueError("r must be at least 1")
    return 2.0 * math.exp(-(r + 2.0) / (r + 1.0))


def stability_threshold(nu: float, mesh: TimeMesh) -> float:
    """Bound on (r+1)(eta/2)^r below which the perturbed scheme is provably
    stable: 2^(nu-2) Gamma(nu+1) rho_nu (k_min/T)^(1-nu)."""
    return (
        2.0 ** (nu - 2.0)
        * gamma(nu + 1.0)
        * rho_nu(nu)
        * (mesh.k_min / mesh.T) ** (1.0 - nu)
    )


def accuracy_threshold(nu: float, mesh: TimeMesh) -> float:
    """Bound on (r+1)(eta/2)^r keeping the perturbation error O(k):
    C N^(nu-2), with accuracy constant C = 1."""
    return mesh.N ** (nu - 2.0)


_R_CAP = 30  # the highest expansion order the automatic choice tries


def select_params(nu: float, mesh: TimeMesh, r: int | None = None) -> tuple[int, float]:
    """Expansion order and admissibility parameter.

    With r given, eta is the cost-optimal value.  Otherwise r grows from 1
    until (r+1)(eta(r)/2)^r clears both the stability and the accuracy
    threshold.
    """
    if r is not None:
        return r, optimal_eta(r)
    gate = min(stability_threshold(nu, mesh), accuracy_threshold(nu, mesh))
    for r_try in range(1, _R_CAP + 1):
        eta = optimal_eta(r_try)
        if (r_try + 1) * (eta / 2.0) ** r_try <= gate:
            return r_try, eta
    raise ValueError(
        f"no expansion order up to {_R_CAP} meets the threshold {gate:.3g}; "
        "the mesh is too fine for the accuracy constant 1"
    )


# An in-memory run's rows are transformed to nodal values in stacks of
# about this many values.  Its solutions are its largest array, so the
# stack's two temporaries add to its peak unless they are small enough to
# come from freed heap: stacks of 2^17 values raised a desk slow run's max
# RSS by 2 MB, stacks of 2^14 by nothing measurable.
_CONVERT_VALUES = 1 << 14


def _march(config: RunConfig, source: SeparableSource | None, u0: np.ndarray | None,
           sink: SolutionSink | None, res: RunResult, t0: float, drive) -> RunResult:
    """The DG step both schemes share, driven by drive(step).

    drive must call step(n, H^_n) for n = 1..N in order, with H^_n the
    history's sine coefficients; step solves for the coefficients u^_n,
    writes the nodal U^n = S u^_n to the sink if there is one, or u^_n to
    row n - 1 of the (N, M) array res.solutions otherwise, and returns
    u^_n for the history.  After the last step those rows are transformed
    in place, in stacks of about _CONVERT_VALUES values, each row bitwise
    the per-step transform a sink gets.  step reads k_n from one np.diff of
    the levels, which has TimeMesh.step's bits, and forms beta_nn =
    k_n^nu / Gamma(1+nu), computed only here, as a Python power.
    Set-up time runs from t0 to the first step; solver_seconds covers each
    solve, the transforms to nodal values and the final conversion,
    rhs_seconds all time between two of those (history work in drive
    included), so the three phases add up to the whole run.
    """
    mesh, grid = config.mesh, config.grid
    for name, v in (("u0", u0), ("source.spatial", None if source is None else source.spatial)):
        finite = None if v is None else np.isfinite(np.asarray(v, dtype=float))
        if finite is not None and (finite.size != grid.M or not finite.all()):
            raise ValueError(f"{name} must hold M={grid.M} finite values; "
                             f"got {finite.size}, {int(finite.sum())} of them finite")
    solver = EllipticSolver(grid)
    mu, sigma = solver.mu, solver.sigma
    load_hat = solver.sine_load(source)
    u_hat = np.zeros(grid.M) if u0 is None else solver.transform(np.ravel(u0).astype(float))
    # bound as the run starts, so a tracer installed before it sees every call
    transform, solve, clock = solver.transform, solver.solve, time.perf_counter
    sols, write = res.solutions, None if sink is None else sink.write
    steps, nu, gamma_diag = np.diff(mesh.levels), config.nu, gamma(1.0 + config.nu)
    mark = clock()
    res.setup_seconds = mark - t0

    def step(n: int, hist_hat: np.ndarray) -> np.ndarray:
        nonlocal u_hat, mark
        k = steps.item(n - 1)  # mesh.step(n); k ** nu / gamma_diag is beta_nn
        rhs = mu * u_hat
        rhs += k * load_average(mesh, n, source, load_hat)
        rhs += sigma * hist_hat
        t = clock()
        res.rhs_seconds += t - mark
        u_hat = solve(k ** nu / gamma_diag, rhs)
        u = u_hat if write is None else transform(u_hat)
        mark = clock()
        res.solver_seconds += mark - t
        if write is None:
            sols[n - 1] = u
        else:
            write(u)
        return u_hat

    drive(step)
    t = clock()
    res.rhs_seconds += t - mark
    chunk = max(1, _CONVERT_VALUES // grid.M)
    for lo in range(0, len(sols), chunk):
        sols[lo:lo + chunk] = transform(sols[lo:lo + chunk])
    res.solver_seconds += clock() - t
    return res


def slow_run(config: RunConfig, source: SeparableSource | None,
             u0: np.ndarray | None) -> RunResult:
    """Reference scheme with exact weights and full history retention.
    Raises NonFiniteSolutionError, naming n, at the first U^n that holds
    a NaN or an infinity."""
    t0 = time.perf_counter()
    mesh, M = config.mesh, config.grid.M
    weights = WeightEngine(KernelParams(config.nu), mesh)
    res = RunResult(solutions=np.empty((mesh.N, M)), peak_values=mesh.N * M)

    def drive(step) -> None:
        for n in range(1, mesh.N + 1):
            res.rhs_ops += (n - 1) * M
            u = step(n, direct_history_sum(weights, res.solutions, n))
            if not np.isfinite(u).all():
                raise NonFiniteSolutionError(f"the slow run's solution at step {n} is not finite")

    return _march(config, source, u0, None, res, t0, drive)


def fast_run(config: RunConfig, source: SeparableSource | None,
             u0: np.ndarray | None, sink: SolutionSink | None = None) -> RunResult:
    """Clustered scheme with low-rank far-field history.  The sink, if
    given, must hold no records yet; it receives every U^n instead of the
    result, whose solutions then map the records back from it, and the
    caller that opened it closes it.  Raises NonFiniteSolutionError at the
    last step of the first leaf whose U^n holds a NaN or an infinity,
    naming the first such n."""
    t0 = time.perf_counter()
    if sink is not None and sink.records:
        raise ValueError(f"the sink already holds {sink.records} records")
    r, eta = config.resolved_params()
    weights = WeightEngine(KernelParams(config.nu), config.mesh)
    engine = HistoryEngine(config.tree(), weights, r, eta, config.grid.M)
    sols = np.empty((config.mesh.N if sink is None else 0, config.grid.M))
    res = _march(config, source, u0, sink,
                 RunResult(solutions=sols, r=r, eta=eta, G=engine.tree.G), t0, engine.run_schedule)
    if sink is not None:
        res.solutions = sink.read()
    res.rhs_ops = engine.counters.rhs_ops + engine.counters.update_ops
    res.peak_values = engine.counters.high_water
    return res


@dataclass
class StabilityReport:
    """Perturbation-sum ratios against the provable stability budget."""

    row_ratio: float
    col_ratio: float
    r: int
    eta: float

    @property
    def certified(self) -> bool:
        return self.row_ratio <= 1.0 and self.col_ratio <= 1.0


def stability_diagnostic(config: RunConfig) -> StabilityReport:
    """Quadratic-cost check of the perturbation-sum stability criterion.

    Computes max_n sum_j |beta~_nj - beta_nj| / (rho_nu T^(nu-1) k_n) and
    the column analog; both at most 1 certifies stability of the
    perturbed scheme.
    """
    mesh = config.mesh
    r, eta = config.resolved_params()
    weights = WeightEngine(KernelParams(config.nu), mesh)
    tree = config.tree()

    N = mesh.N
    row = np.zeros(N + 1)
    col = np.zeros(N + 1)
    lv = mesh.levels
    for leaf in tree.leaves():
        far = np.array(tree.minimal_cover(leaf, eta).far_ids, dtype=int)
        steps = np.arange(leaf.lo, leaf.hi + 1)
        sbar = tree.midpoint(far)
        # phi of every far member at every step of the leaf, in one call
        phi = phi_coeffs(config.nu, r, sbar[:, None], lv[leaf.lo - 1:leaf.hi],
                         lv[leaf.lo:leaf.hi + 1])
        for lo, hi, s, phi_c in zip(tree.lo[far].tolist(), tree.hi[far].tolist(), sbar, phi):
            psi = psi_coeffs(r, s, lv[lo - 1:hi], lv[lo:hi + 1])
            exact = weights.offdiag(steps[:, None], np.arange(lo, hi + 1)[None, :])
            diff = np.abs(phi_c @ psi.T - exact)
            row[leaf.lo:leaf.hi + 1] += diff.sum(axis=1)
            col[lo:hi + 1] += diff.sum(axis=0)
    # budget[n - 1] is step n's; np.max keeps a NaN sum, so it cannot certify
    budget = rho_nu(config.nu) * mesh.T ** (config.nu - 1.0) * mesh.steps
    return StabilityReport(row_ratio=float(np.max(row[2:] / budget[1:])),
                           col_ratio=float(np.max(col[1:N] / budget[:N - 1])), r=r, eta=eta)
