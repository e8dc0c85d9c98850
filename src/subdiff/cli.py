"""Experiment runner.

Parses a run configuration from the command line, executes the slow
and/or fast scheme on the standard forced test problem, and writes
report.csv (per-run cost and error summary), errors.csv (deterministic
per-step L2 errors), binary solution streams, and optional diagnostic
dumps into the output directory.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from .dg_stepper import RunConfig, fast_run, slow_run, stability_diagnostic
from .history_engine import SolutionSink
from .reference_solution import u11
from .spatial_fem import EllipticSolver, SpatialGrid, benchmark_source
from .time_mesh import uniform_mesh


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("list must be nonempty")
    if len(set(values)) < len(values):  # two runs would write one stream file
        raise argparse.ArgumentTypeError(f"values must be distinct, got {text!r}")
    return values


class _Once(argparse.Action):
    """Store an option's value, or const for an option that takes none,
    and reject its second occurrence, which would replace the first."""

    _namespace = None  # the one the option was last stored into

    def __call__(self, parser, namespace, values, option_string=None):
        if self._namespace is namespace:
            raise argparse.ArgumentError(self, "given more than once")
        self._namespace = namespace
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="subdiff",
        description="Run the subdiffusion solver on the forced sine-mode test problem.",
    )
    p.register("action", None, _Once)  # every option below, help aside
    p.add_argument("--nu", type=float, default=0.5, help="fractional order in (0,1)")
    p.add_argument("--T", type=float, default=6.0, help="final time")
    p.add_argument("--N", type=_int_list, default=[2000],
                   help="number of time steps; a comma-separated list runs each")
    p.add_argument("--dim", type=int, choices=(1, 2), default=2, help="spatial dimension")
    p.add_argument("--m", type=int, default=40, help="spatial subdivisions per axis")
    p.add_argument("--K", type=float, default=None,
                   help="diffusivity (default: 1/(dim*pi^2), first eigenvalue 1)")
    p.add_argument("--mode", choices=("slow", "fast", "both"), default="both")
    p.add_argument("--r", type=_int_list, default=None,
                   help="expansion order; a comma-separated list runs each (default: auto)")
    p.add_argument("--eta", type=float, default=None,
                   help="admissibility parameter (default: auto; requires --r)")
    p.add_argument("--Q", type=int, default=None,
                   help="cluster tree branching factor (default: 2)")
    p.add_argument("--G", type=int, default=None,
                   help="cluster tree depth (default: the one with the fewest predicted "
                        "history ops)")
    p.add_argument("--diag-stability", nargs=0, const=True, default=False,
                   help="run the quadratic-cost stability diagnostic and dump the tree")
    p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    return p


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The parsed command line, with Q and K given their defaults."""
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, value in (("--eta", args.eta), ("--r", args.r)):
        if value is not None and args.mode == "slow":
            parser.error(f"{flag} applies to the fast scheme only and conflicts with --mode slow")
    if args.eta is not None and args.r is None:
        parser.error("--eta requires an explicit --r")
    for flag, value in (("--Q", args.Q), ("--G", args.G)):
        if value is not None and args.mode == "slow" and not args.diag_stability:
            parser.error(f"{flag} applies to the fast scheme and --diag-stability only; "
                         "with --mode slow it needs --diag-stability")
    if not 0.0 < args.nu < 1.0:
        parser.error("--nu must lie in (0, 1)")
    if args.Q is None:
        args.Q = 2
    if args.Q < 2:
        parser.error("--Q must be at least 2")
    if args.K is None:
        # puts the lowest eigenvalue of -K Laplace at 1, the benchmark's
        args.K = 1.0 / (args.dim * math.pi**2)
    return args


REPORT_COLUMNS = ["mode", "r", "eta", "G", "N", "max_nodal_error", "setup_s",
                  "rhs_s", "solver_s", "total_s", "rhs_ops", "peak_values"]
CHUNK_VALUES = 1 << 17  # solution values read back at a time for the errors


def _config(spec: argparse.Namespace, N: int, r: int | None) -> RunConfig:
    """The configuration of one run with N steps and expansion order r."""
    grid = SpatialGrid(dim=spec.dim, m=spec.m, K=spec.K)
    return RunConfig(nu=spec.nu, mesh=uniform_mesh(N, spec.T), grid=grid, r=r,
                     eta=spec.eta, Q=spec.Q, G=spec.G)


def _single_run(mode: str, config: RunConfig,
                out: Path) -> tuple[dict, list[tuple[int, float, float]]]:
    """Execute one run and return its report row and per-step L2 errors."""
    mesh, grid, N = config.mesh, config.grid, config.mesh.N
    source = benchmark_source(grid)
    u0 = source.spatial  # the principal sine mode, the shape of the exact solution
    if mode == "slow":
        result = slow_run(config, source, u0)
        r_used, eta_used = "", ""

        def read(lo: int, hi: int) -> np.ndarray:
            return result.solutions[lo:hi]
    else:
        tag = f"_r{config.r}" if config.r is not None else ""
        sink = SolutionSink(out / f"solution_fast_N{N}{tag}.bin",
                            {"nu": config.nu, "T": mesh.T, "N": N,
                             "dim": grid.dim, "m": grid.m, "M": grid.M})
        try:
            result = fast_run(config, source, u0, sink=sink)
        except BaseException:  # a failed run's stream is never called complete
            sink.close(failed=True)
            raise
        sink.close()
        r_used, eta_used = result.r, f"{result.eta:.12g}"
        read = sink.read  # the stream, not result.solutions: its map would stay resident

    solver = EllipticSolver(grid)
    # the principal sine mode's eigenvalue under -K Laplace: 1 at the default K
    mode_vals = u11(config.nu, mesh.levels[1:], lam=grid.K * grid.dim * math.pi**2)
    max_err = 0.0
    step_errors = []
    chunk = max(1, CHUNK_VALUES // grid.M)
    for lo in range(0, N, chunk):
        hi = min(lo + chunk, N)
        diff = read(lo, hi) - np.outer(mode_vals[lo:hi], u0)
        max_err = np.maximum(max_err, np.max(np.abs(diff)))  # keeps a NaN, unlike max()
        # every step's sine coefficients at once, for the Parseval sums of l2_norm
        c = solver.transform(diff)
        step_errors += zip(range(lo + 1, hi + 1), mesh.levels[lo + 1:hi + 1].tolist(),
                           np.sqrt((c * c) @ solver.mu).tolist())
    row = {
        "mode": mode, "r": r_used, "eta": eta_used, "G": "" if result.G is None else result.G,
        "N": N,
        "max_nodal_error": f"{max_err:.12e}",
        "setup_s": f"{result.setup_seconds:.6f}",
        "rhs_s": f"{result.rhs_seconds:.6f}",
        "solver_s": f"{result.solver_seconds:.6f}",
        "total_s": f"{result.total_seconds:.6f}",
        "rhs_ops": result.rhs_ops,
        "peak_values": result.peak_values,
    }
    return row, step_errors


def run(spec: argparse.Namespace) -> int:
    out = spec.out
    modes = ["slow", "fast"] if spec.mode == "both" else [spec.mode]
    runs = [(mode, _config(spec, N, r)) for N in spec.N for mode in modes
            for r in ((spec.r or [None]) if mode == "fast" else [None])]
    fast = [config for mode, config in runs if mode == "fast"]
    # one block per (N, r) of the fast runs; a slow-only run's trees are those of auto r
    diagnostics = (fast or [config for _, config in runs]) if spec.diag_stability else []
    # a bad fast or diagnostic setup fails before any run starts
    for config in fast or diagnostics:
        config.resolved_params()
        config.tree()
    out.mkdir(parents=True, exist_ok=True)
    # a run that fails partway must leave no summary of an earlier run
    for name in ("report.csv", "errors.csv", "tree_dump.txt"):
        (out / name).unlink(missing_ok=True)
    rows: list[dict] = []
    error_rows: list[tuple] = []
    for mode, config in runs:
        try:
            row, step_errors = _single_run(mode, config, out)
        except MemoryError as exc:
            raise RuntimeError(f"out of memory for a grid with m={spec.m}, dim={spec.dim} "
                               f"at N={config.mesh.N}: {exc}") from exc
        rows.append(row)
        error_rows += [(mode, row["r"], row["N"], n, f"{t:.12g}", f"{err:.12e}")
                       for n, t, err in step_errors]
    with (out / "report.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    with (out / "errors.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "r", "N", "step", "t", "l2_error"])
        writer.writerows(error_rows)

    if diagnostics:
        lines = []
        for config in diagnostics:
            report = stability_diagnostic(config)
            tree = config.tree()
            lines += [
                f"N {config.mesh.N}",
                f"r {report.r}",
                f"eta {report.eta:.12g}",
                f"row_ratio {report.row_ratio:.6e}",
                f"col_ratio {report.col_ratio:.6e}",
                f"certified {report.certified}",
                "",
                tree.dump(),
            ]
            for leaf in tree.leaves():
                cover = tree.minimal_cover(leaf, report.eta)
                near, far = ("".join(f" C({c.lo},{c.hi})" for c in part)
                             for part in (cover.near, cover.far))
                lines.append(f"leaf C({leaf.lo},{leaf.hi}) near{near} far{far}")
            lines.append("")
        (out / "tree_dump.txt").write_text("\n".join(lines))
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        return run(parse_args(argv))
    except (MemoryError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
