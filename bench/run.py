"""The subdiff benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each solve runs in a fresh single-threaded
worker process (bench/worker.py), one at a time, in a closed loop that
starts a new solve only while it still fits in S seconds; at least one
solve always runs.  End-to-end times are taken from outside the program,
never from RunResult's phase timings, which miss the engine's work, and
are rescaled to a nominal host speed (bench/NOTES.md).

--trace 0 prints the end-to-end metrics; --trace 1 alternates
uncalibrated and span-traced solves, adds one tracemalloc solve on the
CLI workload and prints the per-layer metrics.  Every solve passes the
correctness gate in bench/workloads.py or counts as failed.  The last line of standard output is one JSON
object; a fuller record with the machine information and every solve's
numbers goes to bench/out/, with the spans of the traced solves.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0  # no worker outlives this; a run must end within 180 s
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

sys.path.insert(0, str(HERE))
from tracer import ENTRY, SCHEDULE, STEP  # noqa: E402
from workloads import CLI, SLOW, WORKLOADS, problem  # noqa: E402

E2E_UNITS = {"setup_s": "s", "solve_s": "s", "step_ms_p50": "ms", "step_ms_p99": "ms",
             "peak_rss_mb": "MB", "max_nodal_error": "1"}


def machine_info() -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {"cpu": cpu, "cores": os.cpu_count(), "caches": caches,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "threads": THREAD_ENV, "workers_at_once": 1}


def src_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "subdiff").glob("*.py"))


class Runner:
    """Starts one worker at a time and collects what each one reports."""

    def __init__(self, workload: str, seed: int, out: Path):
        self.workload, self.seed, self.out = workload, seed, out
        self.start = time.perf_counter()
        self.count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def solve(self, mode: str) -> dict:
        solve_id = f"{self.workload}-s{self.seed}-{self.count}-{mode}"
        self.count += 1
        rec: dict = {"solve": solve_id, "mode": mode, "gate": []}
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload, str(self.seed), mode,
               solve_id, str(self.out)]
        began = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **THREAD_ENV},
                                  capture_output=True, text=True,
                                  timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            rec["gate"].append("worker timed out")
            return rec
        finally:
            shutil.rmtree(self.out / f"cli-{solve_id}", ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
            rec["gate"].append(f"worker failed: {tail[0]}")
            return rec
        rec = json.loads(lines[-1])
        rec["worker_wall_s"] = time.perf_counter() - began
        return rec


def median(recs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in recs)


def end_to_end(recs: list[dict]) -> dict:
    # each step's latency is its median over the run's solves
    steps = np.median([r["step_ms"] for r in recs], axis=0)
    return {"setup_s": median(recs, "setup_s"), "solve_s": median(recs, "solve_s"),
            "step_ms_p50": float(np.percentile(steps, 50)),
            "step_ms_p99": float(np.percentile(steps, 99)),
            "peak_rss_mb": median(recs, "peak_rss_mb"),
            "max_nodal_error": median(recs, "max_nodal_error")}


def exact_counts(rec: dict) -> dict:
    """The traced solve's exact, machine-independent counts."""
    layers = rec["layers"]
    counts = {name: s["calls"] for name, s in layers.items()}
    counts.update({k: rec.get(k, 0) for k in ("rhs_ops", "update_ops", "peak_values",
                                              "solutions_values", "cover_near_mean",
                                              "cover_far_mean")})
    return counts


def layer_metrics(traced: list[dict], plain: list[dict], heap: list[dict]) -> dict:
    """Per-layer metrics: time medians over the traced solves, counts from
    the last one (all traced solves must agree on them)."""
    rec = traced[-1]

    def calls(name):
        return rec["layers"][name]["calls"]

    def med(name, field):
        return statistics.median(r["layers"][name][field] for r in traced)

    offdiag, evals = calls("frac_weights.offdiag"), calls("frac_weights.beta_offdiag")
    update_ops = rec.get("update_ops", 0)
    dg_names = [ENTRY[SLOW], "dg_stepper.fast_run", STEP]
    return {
        "frac_weights.offdiag_calls": (offdiag, "count"),
        "frac_weights.offdiag_s": (med("frac_weights.offdiag", "total_s"), "s"),
        "frac_weights.weight_evals": (evals, "count"),
        "frac_weights.cache_hit_ratio": (1.0 - evals / offdiag if offdiag else 0.0, "ratio"),
        "taylor_expansion.phi_calls": (calls("taylor_expansion.phi_coeffs"), "count"),
        "taylor_expansion.psi_calls": (calls("taylor_expansion.psi_coeffs"), "count"),
        "taylor_expansion.coeff_s": (med("taylor_expansion.phi_coeffs", "total_s")
                                     + med("taylor_expansion.psi_coeffs", "total_s"), "s"),
        "clustering.cover_builds": (calls("clustering.minimal_cover"), "count"),
        "clustering.cover_s": (med("clustering.minimal_cover", "total_s"), "s"),
        "clustering.cover_near_mean": (rec.get("cover_near_mean", 0.0), "count"),
        "clustering.cover_far_mean": (rec.get("cover_far_mean", 0.0), "count"),
        "history_engine.history_sum_self_s": (med("history_engine.history_sum", "self_s"), "s"),
        "history_engine.commit_self_s": (med("history_engine.commit_step", "self_s"), "s"),
        "history_engine.schedule_self_s": (med(SCHEDULE, "self_s"), "s"),
        "history_engine.free_calls": (calls("history_engine.free_cluster"), "count"),
        "history_engine.free_s": (med("history_engine.free_cluster", "self_s"), "s"),
        "history_engine.history_ops": (rec["rhs_ops"] - update_ops, "count"),
        "history_engine.update_ops": (update_ops, "count"),
        "history_engine.bytes_moved_computed": (24 * rec["rhs_ops"], "B"),
        "history_engine.peak_values": (rec["peak_values"], "count"),
        "spatial_fem.solve_calls": (calls("spatial_fem.solve"), "count"),
        "spatial_fem.elliptic_solve_s": (med("spatial_fem.solve", "total_s"), "s"),
        "spatial_fem.load_s": (med("spatial_fem.load_average", "total_s"), "s"),
        "dg_stepper.self_s": (sum(med(n, "self_s") for n in dg_names), "s"),
        "dg_stepper.reported_total_s": (median(plain, "reported_total_s"), "s"),
        "dg_stepper.unreported_s": (statistics.median(
            r["entry_wall_s"] - r["reported_total_s"] for r in plain), "s"),
        "reference_solution.u11_calls": (calls("reference_solution.u11"), "count"),
        "reference_solution.u11_s": (med("reference_solution.u11", "total_s"), "s"),
        "cli.sink_write_s": (med("cli.sink_write", "total_s") + med("cli.sink_close", "total_s"),
                             "s"),
        "cli.self_s": (med(ENTRY[CLI], "self_s"), "s"),
        "cli.bytes_written": (rec.get("bytes_written", 0), "B"),
        "mem.tracemalloc_peak_mb": (median(heap, "tracemalloc_peak_mb") if heap else 0.0, "MB"),
        "mem.solutions_values": (rec["solutions_values"], "count"),
        "trace.overhead_s": (median(traced, "solve_wall_s") - median(plain, "solve_wall_s"), "s"),
        "src.loc": (src_loc(), "lines"),
    }


def reserve(workload: str, traced: list[dict]) -> float:
    """Time to keep for the tracemalloc solve, which runs on the CLI workload
    only: tracing every allocation makes a solve about five times slower
    there, and ten times slower on the Python-bound long run."""
    if workload != CLI or not traced:
        return 0.0
    return 5.0 * max(r.get("worker_wall_s", 0.0) for r in traced)


def baseline_lines(workload: str, seed: int, counts: dict) -> list[str]:
    """Where a count differs from the committed baseline run, say so."""
    path = HERE / "baseline.json"
    if not path.is_file():
        return []
    by_seed = json.loads(path.read_text())["counts"].get(workload, {})
    base = by_seed.get(str(seed), by_seed.get("*"))
    if base is None:
        return [f"counts: no baseline for {workload} seed {seed}"]
    changed = [f"{k} {base.get(k)} -> {v}" for k, v in counts.items() if base.get(k) != v]
    return [f"counts vs baseline: {'; '.join(changed) if changed else 'all equal'}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="subdiff benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "subdiff" / "__init__.py").is_file():
        print(f"error: no subdiff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    prob = problem(args.workload, args.seed)
    out = HERE / "out" / f"{args.workload}-s{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, out)
    if args.workload != CLI:  # the CLI computes its own error against u11
        sys.path.insert(0, str(ROOT / "src"))
        from subdiff import u11

        np.save(out / "exact.npy", np.array([u11(prob.nu, float(t)) for t in prob.levels[1:]]))

    plain: list[dict] = []
    traced: list[dict] = []
    heap: list[dict] = []
    rounds: list[float] = []
    while True:  # closed loop: one solve (or plain/traced pair) at a time
        began = time.perf_counter()
        plain.append(runner.solve("bare" if args.trace else "plain"))
        if args.trace:
            traced.append(runner.solve("traced"))
        rounds.append(time.perf_counter() - began)
        if runner.elapsed() + max(rounds) + reserve(args.workload, traced) > args.seconds:
            break
    if traced and args.workload == CLI:
        heap.append(runner.solve("tracemalloc"))

    attempted = plain + traced + heap
    ok = {id(r) for r in attempted if not r["gate"] and "solve_s" in r}
    for r in attempted:
        for problem_text in r["gate"]:
            print(f"FAILED {r['solve']}: {problem_text}", file=sys.stderr)
    good = [[r for r in group if id(r) in ok] for group in (plain, traced, heap)]
    if not good[0] or (args.trace and not good[1]):
        print("error: no solve of a required kind passed; nothing to report", file=sys.stderr)
        return 1
    failed = len(attempted) - len(ok)
    if args.trace:
        counts = [exact_counts(r) for r in good[1]]
        if any(c != counts[0] for c in counts):
            print("FAILED: traced solves disagree on exact counts", file=sys.stderr)
            failed += 1
        metrics = layer_metrics(good[1], good[0], good[2])
        extra = baseline_lines(args.workload, args.seed, counts[-1])
    else:
        metrics = {k: (v, E2E_UNITS[k]) for k, v in end_to_end(good[0]).items()}
        extra = baseline_lines(args.workload, args.seed,
                               {k: good[0][-1][k] for k in ("rhs_ops", "peak_values")})
    info = machine_info()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(attempted)} solves, failed_share {failed / len(attempted):.3f}, "
          f"wall solve_s {median(good[0], 'solve_wall_s'):.4f}"
          + ("" if args.trace else f", host slowdown {median(good[0], 'host_slowdown'):.3f}"))
    print("machine: " + json.dumps(info))
    for line in extra:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    result = {"correct": failed == 0, "attempted": len(attempted), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": info, "solves": attempted}
    if args.trace:
        record["counts"] = counts[-1]
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
