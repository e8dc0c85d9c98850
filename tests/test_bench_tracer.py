"""The traced benchmark (bench/tracer.py) wraps package names from outside,
where their callers look them up.  A refactor that removes or moves one
of those names breaks the benchmark; this test catches it first."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    from subdiff.history_engine import HistoryEngine

    original = HistoryEngine.run_schedule
    tracer = Tracer("t")
    try:
        tracer.install()  # raises LookupError if a wrapped name is gone
        assert HistoryEngine.run_schedule is not original
    finally:
        tracer.uninstall()
    assert HistoryEngine.run_schedule is original


def test_traced_fast_solve_reaches_every_name(monkeypatch):
    """A small run shaped like the long1d-fast workload (perturbed mesh,
    automatic (r, eta) and depth) calls every name the traced benchmark
    expects that workload to reach."""
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer
    from workloads import LONG, long_levels

    from subdiff import dg_stepper
    from subdiff.spatial_fem import SpatialGrid, benchmark_source, sine_mode
    from subdiff.time_mesh import mesh_from_levels

    grid = SpatialGrid(dim=1, m=4)
    config = dg_stepper.RunConfig(nu=0.3, mesh=mesh_from_levels(long_levels(1, N=128)),
                                  grid=grid)
    tracer = Tracer("t")
    try:
        tracer.install()
        dg_stepper.fast_run(config, benchmark_source(grid), sine_mode(grid, 1))
    finally:
        tracer.uninstall()
    assert tracer.missing(LONG) == []


def test_traced_uniform_slow_solve_reaches_every_name(monkeypatch):
    """On a uniform mesh only the lag table reaches beta_offdiag, which the
    traced benchmark expects the desk2d-slow workload to call."""
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer
    from workloads import SLOW

    from subdiff import dg_stepper
    from subdiff.spatial_fem import SpatialGrid, benchmark_source, sine_mode
    from subdiff.time_mesh import uniform_mesh

    grid = SpatialGrid(dim=1, m=4)
    config = dg_stepper.RunConfig(nu=0.5, mesh=uniform_mesh(32, 1.0), grid=grid)
    tracer = Tracer("t")
    try:
        tracer.install()
        dg_stepper.slow_run(config, benchmark_source(grid), sine_mode(grid, 1))
    finally:
        tracer.uninstall()
    assert tracer.missing(SLOW) == []


def test_traced_cli_run_reaches_every_name(monkeypatch, tmp_path):
    """A small fast CLI run, shaped like the desk2d-fast-cli workload
    (explicit Q, G, r and eta), calls every name the traced benchmark
    expects that workload to reach."""
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer
    from workloads import CLI

    from subdiff import cli

    argv = ["--mode", "fast", "--nu", "0.5", "--T", "6", "--N", "64", "--dim", "2",
            "--m", "6", "--Q", "4", "--G", "2", "--r", "4", "--eta", "0.4",
            "--out", str(tmp_path)]
    tracer = Tracer("t")
    try:
        tracer.install()
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing(CLI) == []


def test_cli_fast_run_passes_the_benchmark_gate(monkeypatch, tmp_path):
    """bench/worker.py runs the desk2d-fast-cli workload as cli.main with
    cli.fast_run captured, then requires complete output files and N
    solutions in the captured result.  A small run of the desk command
    (fewer steps, a coarser grid and a shallower tree) must pass both."""
    monkeypatch.syspath_prepend(str(BENCH))
    from worker import check_cli_output
    from workloads import DESK_ARGV

    from subdiff import cli

    run_fast, results = cli.fast_run, []

    def capture(*args, **kwargs):
        results.append(run_fast(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "fast_run", capture)
    N, m = 200, 8
    argv = list(DESK_ARGV)  # each option once, as the parser requires
    for flag, value in (("--N", N), ("--m", m), ("--G", 2)):
        argv[argv.index(flag) + 1] = str(value)
    argv += ["--out", str(tmp_path)]
    assert cli.main(argv) == 0
    problems, row = check_cli_output(tmp_path, N, (m - 1) ** 2)
    assert problems == []
    assert 0.0 < float(row["max_nodal_error"]) < 0.05
    result, = results
    assert len(result.solutions) == N


def test_traced_fast_solve_calls_each_step_name_once_per_step(monkeypatch):
    """The traced benchmark's per-layer metrics read history_sum,
    commit_step, the elliptic solve and the load as one call per step, and
    free_cluster as one per leaf entry.  A traced long1d-shaped fast solve
    makes exactly those counts."""
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer
    from workloads import long_levels

    from subdiff import dg_stepper
    from subdiff.spatial_fem import SpatialGrid, benchmark_source, sine_mode
    from subdiff.time_mesh import mesh_from_levels

    N, grid = 256, SpatialGrid(dim=1, m=8)
    config = dg_stepper.RunConfig(nu=0.3, mesh=mesh_from_levels(long_levels(1, N=N)),
                                  grid=grid)
    tree = config.tree()
    tracer = Tracer("t")
    try:
        tracer.install()
        dg_stepper.fast_run(config, benchmark_source(grid), sine_mode(grid, 1))
    finally:
        tracer.uninstall()
    calls = {name: s[0] for name, s in tracer.stats.items()}
    assert tree.G >= 4
    for name in ("history_engine.history_sum", "history_engine.commit_step",
                 "spatial_fem.solve", "spatial_fem.load_average", "dg_stepper.step"):
        assert calls[name] == N, name
    assert calls["history_engine.free_cluster"] == tree.Q ** tree.G
    assert calls["history_engine.run_schedule"] == 1
