"""One solve of one workload in a fresh process.

    python3 bench/worker.py WORKLOAD SEED MODE SOLVE_ID OUTDIR

MODE is plain (end-to-end timing, calibrated), bare (uncalibrated, the
baseline of a traced run), traced (spans around every module call) or
tracemalloc (Python heap peak of the entry call).  The exact
time factors u11(t_n) are read from OUTDIR/exact.npy after the timed
region.  Prints one JSON object on its last line of standard output.
"""

import time

T0 = time.perf_counter()  # the worker's start, before subdiff is imported

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import subdiff  # noqa: E402
from subdiff import cli, dg_stepper  # noqa: E402
from subdiff.spatial_fem import SeparableSource  # noqa: E402

from tracer import ENTRY, Tracer  # noqa: E402
from workloads import CLI, DESK_ARGV, SLOW, error_gate, problem  # noqa: E402


# Host-speed calibration.  This host's speed drifts by up to 1.7x in spells
# of seconds to minutes (other tenants; CPU time drifts the same way), so
# on plain solves every step also times a fixed pure-Python kernel, run
# twice so that the timed pass is warm.  Steps are rescaled to the speed
# at which that pass takes KERNEL_NOMINAL_S, which is about what it takes
# on a calm core of the reference host (see NOTES.md).
KERNEL_NOMINAL_S = 12e-6
WINDOW = 65  # steps in the rolling median of the kernel time


def kernel() -> int:
    total = 0
    for i in range(256):
        total += i * i
    return total


def stamped(source: SeparableSource, stamps: list, calib: list | None) -> SeparableSource:
    """The same source, recording when each step asks for its time average
    and, when calib is a list, appending (kernel time, time spent on
    calibration) for that step."""
    inner, clock = source.time_average, time.perf_counter

    def time_average(t0: float, t1: float) -> float:
        if calib is not None:
            a = clock()
            kernel()
            b = clock()
            kernel()
            c = clock()
            calib.append((c - b, c - a))
        stamps.append(clock())
        return inner(t0, t1)

    return SeparableSource(spatial=source.spatial, time_average=time_average)


def timings(stamps: list, calib: list, t0: float, end: float) -> dict:
    """Set-up, solve and per-step times: raw wall time with the calibration
    removed, and rescaled to the nominal host speed."""
    st = np.asarray(stamps)
    kern, spent = np.asarray(calib).T if calib else (np.full(st.size, KERNEL_NOMINAL_S),
                                                     np.zeros(st.size))
    work = np.diff(st) - spent[1:]
    tail = end - st[-1]
    # the window shrinks at both ends rather than repeating an end sample
    padded = np.pad(kern, WINDOW // 2, constant_values=np.nan)
    speed = np.nanmedian(np.lib.stride_tricks.sliding_window_view(padded, WINDOW), axis=1)
    scale = KERNEL_NOMINAL_S / speed  # per step; 1 when not calibrated
    setup = st[0] - spent[0] - t0
    return {
        "setup_wall_s": setup, "solve_wall_s": work.sum() + tail,
        "setup_s": setup * scale[0],
        "solve_s": float((work * scale[1:]).sum() + tail * scale[-1]),
        "step_ms": list(work * scale[1:] * 1e3),
        "host_slowdown": float(np.median(speed) / KERNEL_NOMINAL_S),
        "calibration_s": float(spent.sum()),
    }


def check_cli_output(out: Path, N: int, M: int) -> tuple[list[str], dict]:
    """Completeness of the CLI's files, plus the report row."""
    problems = []
    rows = (out / "report.csv").read_text().splitlines()
    if len(rows) != 2:
        return [f"report.csv has {len(rows) - 1} rows, expected 1"], {}
    row = dict(zip(rows[0].split(","), rows[1].split(",")))
    errors = (out / "errors.csv").read_text().splitlines()
    if len(errors) != N + 1:
        problems.append(f"errors.csv has {len(errors) - 1} rows, expected {N}")
    bins = sorted(out.glob("solution_fast_*.bin"))
    if len(bins) != 1:
        return problems + [f"expected one solution stream, found {len(bins)}"], row
    if bins[0].stat().st_size != N * M * 8:
        problems.append(f"{bins[0].name} holds {bins[0].stat().st_size} bytes, "
                        f"expected {N * M * 8}")
    hdr = bins[0].with_suffix(".bin.hdr")
    if not hdr.is_file() or f"records {N}" not in hdr.read_text().splitlines():
        problems.append(f"{hdr.name} missing or without 'records {N}'")
    return problems, row


def main() -> None:
    workload, seed, mode, solve_id, outdir = sys.argv[1:6]
    out = Path(outdir)
    if not Path(subdiff.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"subdiff imported from {subdiff.__file__}, not from {ROOT / 'src'}")
    prob = problem(workload, int(seed))
    tracer = Tracer(solve_id) if mode == "traced" else None
    if tracer is not None:
        tracer.install()
    stamps: list[float] = []
    calib = [] if mode == "plain" else None
    captured: dict = {}

    if workload == CLI:
        cli_out = out / f"cli-{solve_id}"
        make_source, run_fast = cli.benchmark_source, cli.fast_run
        cli.benchmark_source = lambda grid: stamped(make_source(grid), stamps, calib)

        def capture(*args, **kwargs):
            start = time.perf_counter()
            captured["result"] = run_fast(*args, **kwargs)
            captured["wall"] = time.perf_counter() - start
            return captured["result"]

        cli.fast_run = capture
        entry = cli.main
        args = (DESK_ARGV + ["--out", str(cli_out)],)
    else:
        mesh = (subdiff.uniform_mesh(prob.N, float(prob.levels[-1])) if prob.uniform
                else subdiff.mesh_from_levels(prob.levels))
        grid = subdiff.SpatialGrid(dim=prob.dim, m=prob.m, K=prob.K)
        source = stamped(subdiff.benchmark_source(grid), stamps, calib)
        u0 = subdiff.sine_mode(grid, 1, 1 if prob.dim == 2 else None)
        config = subdiff.RunConfig(nu=prob.nu, mesh=mesh, grid=grid, r=prob.r, eta=prob.eta,
                                   Q=prob.Q, G=prob.G)
        entry = dg_stepper.slow_run if workload == SLOW else dg_stepper.fast_run
        args = (config, source, u0)
    if tracer is not None:
        entry = tracer.wrap(ENTRY[workload], entry, True)
    if mode == "tracemalloc":
        tracemalloc.start()

    start = time.perf_counter()
    value = entry(*args)
    end = time.perf_counter()

    rec: dict = {"solve": solve_id, "mode": mode, "gate": []}
    if mode == "tracemalloc":
        rec["tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    if tracer is not None:
        tracer.uninstall()
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gate = rec["gate"]
    if workload == CLI:
        if value != 0:
            gate.append(f"cli.main returned {value}")
        result, rec["entry_wall_s"] = captured["result"], captured["wall"]
        problems, row = check_cli_output(cli_out, prob.N, prob.M)
        gate += problems
        err = float(row.get("max_nodal_error", "nan"))
        rec["bytes_written"] = sum(p.stat().st_size for p in cli_out.iterdir())
    else:
        result, rec["entry_wall_s"] = value, end - start
        exact = np.load(out / "exact.npy")
        mode_shape = subdiff.sine_mode(grid, 1, 1 if prob.dim == 2 else None)
        err = float(np.max(np.abs(np.asarray(result.solutions) - np.outer(exact, mode_shape))))
    gate += error_gate(prob, err)
    if len(stamps) != prob.N:
        gate.append(f"source called {len(stamps)} times for {prob.N} steps")
    if len(result.solutions) != prob.N:
        gate.append(f"{len(result.solutions)} solutions for {prob.N} steps")
    rec.update(
        max_nodal_error=err,
        **timings(stamps, calib, T0, end),
        reported_total_s=result.total_seconds,
        rhs_ops=result.rhs_ops,
        peak_values=result.peak_values,
        solutions_values=sum(u.size for u in result.solutions),
    )
    if tracer is not None:
        gate += [f"traced name {n} was never called" for n in tracer.missing(workload)]
        rec["layers"] = tracer.summary()
        # self times must partition the entry call's wall time
        entry_s = tracer.stats[ENTRY[workload]][1]
        self_s = sum(s["self_s"] for s in rec["layers"].values())
        if abs(self_s - entry_s) > 1e-6 * max(1.0, entry_s):
            gate.append(f"self times add to {self_s:.6f} s, entry call took {entry_s:.6f} s")
        gate += [f"negative self time in {n}" for n, s in rec["layers"].items()
                 if s["min_self_s"] < -1e-9]
        engine = tracer.engine
        if engine is not None:
            covers = [engine.cover_for(n) for n in range(1, prob.N + 1)]
            rec["update_ops"] = engine.counters.update_ops
            rec["cover_near_mean"] = sum(len(c.near) for c in covers) / prob.N
            rec["cover_far_mean"] = sum(len(c.far) for c in covers) / prob.N
        tracer.write_spans(out / "spans.jsonl")
    print(json.dumps(rec))


if __name__ == "__main__":
    main()
