import csv
import math
import re
from pathlib import Path

import numpy as np
import pytest

from subdiff import cli, dg_stepper, frac_weights, history_engine
from subdiff.cli import build_parser, main, parse_args, run
from subdiff.frac_weights import SeriesConvergenceError
from subdiff.spatial_fem import EllipticSolver, SeparableSource


def test_parse_defaults():
    spec = parse_args([])
    assert spec.nu == 0.5
    assert spec.T == 6.0
    assert spec.N == [2000]
    assert spec.dim == 2
    assert spec.m == 40
    assert spec.mode == "both"
    assert spec.r is None and spec.eta is None
    assert spec.Q == 2 and spec.G is None
    assert spec.K == pytest.approx(1.0 / (2 * np.pi**2))


def test_parse_full_flag_set():
    spec = parse_args(
        "--nu 0.25 --T 2 --N 128 --dim 1 --m 16 --K 0.5 --mode fast "
        "--r 5 --eta 0.4 --Q 4 --G 3 --diag-stability --out /tmp/x".split()
    )
    assert spec.nu == 0.25
    assert spec.K == 0.5
    assert spec.Q == 4 and spec.G == 3
    assert spec.N == [128] and spec.r == [5]
    lists = parse_args("--mode fast --N 64,128 --r 4,5".split())
    assert lists.N == [64, 128] and lists.r == [4, 5]
    assert spec.diag_stability


@pytest.mark.parametrize("argv, option", [
    ("--N 80 --N 32,48", "--N"),
    ("--r 3 --mode fast --r 4", "--r"),
    ("--r 3 --eta 0.5 --eta 0.3", "--eta"),
    ("--N=32 --N 48", "--N"),
    ("--nu 0.3 --n 0.4", "--nu"),  # an abbreviation is the same option
    ("--diag-stability --diag-stab", "--diag-stability"),
    ("--dim 2 --dim 2", "--dim"),  # also when the value repeats
])
def test_repeated_option_is_rejected(capsys, argv, option):
    """A second occurrence of an option would silently replace the first,
    so the parser exits 2 and names the option."""
    with pytest.raises(SystemExit) as exc:
        parse_args(argv.split())
    assert exc.value.code == 2
    assert f"argument {option}: given more than once" in capsys.readouterr().err


def test_readme_command_line_section_names_every_option():
    """README's "## Command line" section names every option of the
    parser, and no option the parser does not define."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = re.search(r"^## Command line$(.*?)^## ", readme, re.M | re.S).group(1)
    options = [o for a in build_parser()._actions if a.dest != "help" for o in a.option_strings]
    missing = [o for o in options if not re.search(re.escape(o) + r"(?![\w-])", section)]
    assert not missing
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", section))
    assert named - set(options) == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["--eta", "0.5", "--mode", "slow"],
        ["--eta", "0.5", "--mode", "fast"],  # eta without r
        ["--r", "4", "--mode", "slow"],
        ["--r", "3,4", "--mode", "slow"],
        ["--nu", "1.5"],
        ["--mode", "bogus"],
        ["--frobnicate"],
        ["--N", "a,b"],
        ["--Q", "1"],
        ["--Q", "0"],
        ["--Q", "3", "--mode", "slow"],
        ["--G", "2", "--mode", "slow"],
        ["--N", "16,16"],  # both runs would write solution_fast_N16.bin
        ["--r", "3,4,3", "--mode", "fast"],
        ["--sweep-N", "32,64"],  # one flag per run parameter: --N and --r take the lists
        ["--sweep-r", "3,5"],
    ],
)
def test_usage_errors(argv):
    with pytest.raises(SystemExit) as info:
        parse_args(argv)
    assert info.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["--eta", "0.5", "--r", "4"], "--eta"),
    (["--r", "4"], "--r"),
    (["--r", "3,4"], "--r"),
])
def test_fast_only_flags_with_slow_mode_name_the_first_one(argv, flag, capsys):
    with pytest.raises(SystemExit) as info:
        parse_args(argv + ["--mode", "slow"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"subdiff: error: {flag} applies to the fast scheme only "
        "and conflicts with --mode slow\n")


def test_tree_flags_with_slow_mode_need_the_diagnostic(capsys, tmp_path):
    """--Q and --G shape only the fast runs' tree and the diagnostic's, so
    --mode slow rejects them unless --diag-stability is given."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(f"--mode slow --Q 3 --G 2 --N 16 --dim 1 --m 4 --out {out}".split())
    assert info.value.code == 2
    assert "--Q applies to the fast scheme and --diag-stability only" in capsys.readouterr().err
    assert not out.exists()
    spec = parse_args("--mode slow --Q 3 --G 2 --N 16 --diag-stability".split())
    assert (spec.Q, spec.G) == (3, 2)


def test_bad_diagnostic_setup_fails_before_any_run(capsys, tmp_path, monkeypatch):
    """A --diag-stability tree that cannot be built is an error before the
    slow run starts, and no file is written."""
    def no_slow_run(*args):
        raise AssertionError("slow_run called")

    monkeypatch.setattr(cli, "slow_run", no_slow_run)
    out = tmp_path / "out"
    code = main(f"--mode slow --N 16 --T 1 --G 5 --dim 1 --m 4 --diag-stability "
                f"--out {out}".split())
    assert code == 1
    assert "largest admissible G is 4" in capsys.readouterr().err
    assert not out.exists()


def test_run_writes_artifacts(tmp_path):
    spec = parse_args(
        f"--nu 0.5 --T 1 --N 32 --dim 1 --m 8 --mode both --r 4 "
        f"--Q 2 --G 3 --out {tmp_path}".split()
    )
    assert run(spec) == 0
    with (tmp_path / "report.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["mode"] for r in rows] == ["slow", "fast"]
    fast = rows[1]
    assert fast["r"] == "4"
    assert float(fast["eta"]) == pytest.approx(0.6024, abs=5e-5)
    assert int(fast["rhs_ops"]) > 0
    assert float(fast["max_nodal_error"]) < 0.05
    # errors agree between the modes at this expansion order
    assert float(rows[0]["max_nodal_error"]) == pytest.approx(
        float(fast["max_nodal_error"]), rel=1e-2)
    with (tmp_path / "errors.csv").open() as fh:
        erows = list(csv.DictReader(fh))
    assert len(erows) == 2 * 32
    assert all(set(r) == {"mode", "r", "N", "step", "t", "l2_error"} for r in erows)
    stream = tmp_path / "solution_fast_N32_r4.bin"
    data = np.fromfile(stream, dtype="<f8")
    assert data.shape == (32 * 7,)
    hdr = (stream.parent / "solution_fast_N32_r4.bin.hdr").read_text().splitlines()
    assert hdr[-2:] == ["records 32", "complete 1"]


def test_report_names_the_tree_depth(tmp_path):
    """report.csv's G column, after eta, holds the depth of a fast run's
    tree, the one given or the automatic pick, and is empty for a slow run."""
    assert cli.REPORT_COLUMNS[:5] == ["mode", "r", "eta", "G", "N"]
    desk = tmp_path / "desk"
    assert main(f"--mode both --N 2000 --dim 1 --m 4 --Q 10 --G 3 --r 5 --eta 0.4 "
                f"--out {desk}".split()) == 0
    with (desk / "report.csv").open() as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == cli.REPORT_COLUMNS
    assert [(row["mode"], row["G"]) for row in rows] == [("slow", ""), ("fast", "3")]
    spec = parse_args(f"--mode fast --N 256 --dim 1 --m 4 --out {tmp_path / 'auto'}".split())
    assert run(spec) == 0
    with (tmp_path / "auto" / "report.csv").open() as fh:
        (row,) = csv.DictReader(fh)
    assert int(row["G"]) == cli._config(spec, 256, None).tree().G


def test_readme_report_table_names_every_column():
    """README's table of report.csv lists its columns in the file's order."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = re.search(r"^\| `report\.csv` column \|.*?\n(?!\|)", readme, re.M | re.S).group(0)
    assert re.findall(r"^\| `(\w+)` \|", table, re.M) == cli.REPORT_COLUMNS


def test_stream_writes_are_the_records_bytes(tmp_path, monkeypatch):
    """SolutionSink.write hands the file each record's little-endian buffer.
    A small 2D fast CLI run's stream and header are byte-identical to those
    written from each record's tobytes() copy, and so are records given
    as a strided view or in big-endian order."""
    argv = "--nu 0.5 --T 1 --N 32 --dim 2 --m 6 --mode fast --r 3 --Q 2 --G 2 --out".split()

    def tobytes_write(self, vec):
        data = np.asarray(vec, dtype="<f8")
        self._fh.write(data.tobytes())
        self.width = data.size
        self.records += 1

    assert main(argv + [str(tmp_path / "buffer")]) == 0
    with monkeypatch.context() as patch:
        patch.setattr(history_engine.SolutionSink, "write", tobytes_write)
        assert main(argv + [str(tmp_path / "tobytes")]) == 0
    for name in ("solution_fast_N32_r3.bin", "solution_fast_N32_r3.bin.hdr"):
        got, want = ((tmp_path / d / name).read_bytes() for d in ("buffer", "tobytes"))
        assert got == want and len(got) > 0, name
    assert len((tmp_path / "buffer" / "solution_fast_N32_r3.bin").read_bytes()) == 32 * 25 * 8

    records = [np.arange(8.0)[::2], np.arange(4.0, dtype=">f8"), np.arange(4)]
    sink = history_engine.SolutionSink(tmp_path / "odd.bin", {})
    for vec in records:
        sink.write(vec)
    sink.close()
    assert (tmp_path / "odd.bin").read_bytes() == b"".join(
        np.asarray(v, dtype="<f8").tobytes() for v in records)


def test_run_sweeps(tmp_path):
    spec = parse_args(
        f"--nu 0.5 --T 1 --dim 1 --m 4 --mode fast --Q 2 "
        f"--N 16,32 --r 2,3 --out {tmp_path}".split()
    )
    assert run(spec) == 0
    with (tmp_path / "report.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {(r["N"], r["r"]) for r in rows} == {("16", "2"), ("16", "3"),
                                                ("32", "2"), ("32", "3")}


def test_diag_stability_artifacts(tmp_path):
    spec = parse_args(
        f"--nu 0.5 --T 1 --N 32 --dim 1 --m 4 --mode fast --r 3 "
        f"--Q 2 --G 3 --diag-stability --out {tmp_path}".split()
    )
    assert run(spec) == 0
    text = (tmp_path / "tree_dump.txt").read_text()
    assert "certified True" in text
    assert text.count("gen0 C(1,32)") == 1  # the tree once, not once per leaf
    leaves = [line for line in text.splitlines() if line.startswith("leaf ")]
    assert len(leaves) == 8
    assert leaves[0] == "leaf C(1,4) near far"
    assert leaves[1] == "leaf C(5,8) near C(1,4) far"
    # at eta 0.573 the last leaf sums its two predecessors exactly, and the
    # far members come by generation, then time
    assert leaves[-1] == "leaf C(29,32) near C(21,24) C(25,28) far C(1,8) C(9,12) C(13,16) C(17,20)"


def test_diag_stability_follows_sweep_n(tmp_path):
    spec = parse_args(
        f"--nu 0.5 --T 1 --N 16,32 --dim 1 --m 4 --mode fast --r 3 "
        f"--Q 2 --diag-stability --out {tmp_path}".split()
    )
    assert run(spec) == 0
    lines = (tmp_path / "tree_dump.txt").read_text().splitlines()
    heads = [i for i, line in enumerate(lines) if line.startswith("N ")]
    assert [lines[i] for i in heads] == ["N 16", "N 32"]
    first, second = lines[heads[0]:heads[1]], lines[heads[1]:]
    assert first[1] == "r 3" and "certified True" in first
    assert "gen0 C(1,16)" in first and "gen0 C(1,32)" not in first
    assert "gen0 C(1,32)" in second
    # one dump per leaf of each run's tree, of the depth its report row names
    with (tmp_path / "report.csv").open() as fh:
        depth = {int(row["N"]): int(row["G"]) for row in csv.DictReader(fh)}
    assert depth == {N: cli._config(spec, N, 3).tree().G for N in (16, 32)}
    assert sum(line.startswith("leaf ") for line in first) == 2 ** depth[16]
    assert sum(line.startswith("leaf ") for line in second) == 2 ** depth[32]


def test_diag_stability_has_a_block_per_run(tmp_path):
    """--r takes a list, an explicit --eta applies to each order, and
    tree_dump.txt holds one block per fast run, its N, r and eta those
    of the run's report row."""
    assert main(f"--mode fast --N 64 --dim 1 --m 4 --Q 2 --r 3,5 --eta 0.5 "
                f"--diag-stability --out {tmp_path}".split()) == 0
    with (tmp_path / "report.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["N"], row["r"], row["eta"]) for row in rows] == [("64", "3", "0.5"),
                                                                  ("64", "5", "0.5")]
    for r in (3, 5):
        assert (tmp_path / f"solution_fast_N64_r{r}.bin").stat().st_size == 64 * 3 * 8
    lines = (tmp_path / "tree_dump.txt").read_text().splitlines()
    heads = [i for i, line in enumerate(lines) if line.startswith("N ")]
    assert [lines[i:i + 3] for i in heads] == [
        [f"N {row['N']}", f"r {row['r']}", f"eta {row['eta']}"] for row in rows]


def test_errors_csv_is_deterministic(tmp_path):
    argv = (f"--nu 0.5 --T 1 --N 16 --dim 1 --m 4 --mode fast --r 3 "
            f"--Q 2 --G 2").split()
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(parse_args(argv + ["--out", str(out1)])) == 0
    assert run(parse_args(argv + ["--out", str(out2)])) == 0
    assert (out1 / "errors.csv").read_text() == (out2 / "errors.csv").read_text()


def test_main_reports_module_errors(capsys, tmp_path):
    # depth/divisibility conflict surfaces as a clean nonzero exit
    code = main("--nu 0.5 --T 1 --N 16000 --dim 1 --m 4 --mode fast "
                f"--Q 2 --G 10 --out {tmp_path}".split())
    assert code == 1
    err = capsys.readouterr().err
    assert "largest admissible G is 7" in err


@pytest.mark.parametrize("flags, message", [
    ("--G 5", "largest admissible G is 4"),  # at the default N = 2000 = 2^4 * 125
    ("--r 5 --eta 2", "eta must lie in (0, 1]"),
    ("--N 32,48 --G 5", "largest admissible G is 4"),  # its second N fails
    ("--N 32,243", "N=243 is not divisible by Q=2"),  # automatic depth, its second N fails
])
def test_bad_fast_setup_fails_before_any_run(capsys, tmp_path, monkeypatch, flags, message):
    """With --mode both, a fast run whose tree or (r, eta) cannot be built
    is an error before the slow run starts, and no file is written."""
    def no_slow_run(*args):
        raise AssertionError("slow_run called")

    monkeypatch.setattr(cli, "slow_run", no_slow_run)
    out = tmp_path / "out"
    code = main(f"--nu 0.5 --T 1 --dim 1 --m 4 --mode both {flags} "
                f"--out {out}".split())
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_main_reports_a_grid_too_large_for_memory(capsys, tmp_path, monkeypatch):
    """A grid whose solver cannot be allocated is an error naming m, dim and
    the failing run's N, not a traceback.  The allocation failure is
    simulated, after `solvers` solvers were built: a real oversized grid
    would first build its m-sized sine modes."""
    for flags, m, solvers, failing_N in [("--N 8", 100000, 0, 8),
                                         ("--N 8,16", 4, 1, 16)]:  # the second run fails
        built = []

        def no_memory(grid):
            if len(built) == solvers:
                raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                                  "(99999, 99999) and data type int64")
            built.append(grid)
            return EllipticSolver(grid)

        monkeypatch.setattr(dg_stepper, "EllipticSolver", no_memory)
        code = main(f"--mode slow --dim 1 {flags} --m {m} --out {tmp_path}".split())
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: out of memory for a grid with m={m}, dim=1 "
                              f"at N={failing_N}: ")
        assert "74.5 GiB" in err and "Traceback" not in err


def test_failed_run_leaves_no_stale_summary(tmp_path, monkeypatch):
    """A run that fails partway, in a directory holding a complete earlier
    run, exits 1 and leaves no report.csv, errors.csv or tree_dump.txt:
    only its own stream, whose header counts the records written and says
    the stream is incomplete.  The failure is a MemoryError in the ninth
    stream write, or a SeriesConvergenceError in the engine's second block
    entry, also at step 9 (two blocks of two 4-step leaves)."""
    argv = (f"--nu 0.5 --T 1 --N 16 --dim 1 --m 4 --mode fast --r 3 --Q 2 --G 2 "
            f"--diag-stability --out {tmp_path}").split()
    summaries = ["report.csv", "errors.csv", "tree_dump.txt"]
    hdr = tmp_path / "solution_fast_N16_r3.bin.hdr"
    write = history_engine.SolutionSink.write
    enter_block = history_engine.HistoryEngine._enter_block

    def fail_at_step_9(self, vec):
        if self.records == 8:
            raise MemoryError("simulated")
        write(self, vec)

    def fail_at_block_2(self, leaf_id):
        if leaf_id != self.tree.first[self.tree.G]:
            raise SeriesConvergenceError("simulated", last_ratio=0.9)
        return enter_block(self, leaf_id)

    for owner, attr, failing in [(history_engine.SolutionSink, "write", fail_at_step_9),
                                 (history_engine.HistoryEngine, "_enter_block",
                                  fail_at_block_2)]:
        with monkeypatch.context() as patch:
            assert main(argv) == 0
            assert all((tmp_path / name).exists() for name in summaries)
            assert hdr.read_text().splitlines()[-2:] == ["records 16", "complete 1"]
            patch.setattr(owner, attr, failing)
            assert main(argv) == 1
            assert [name for name in summaries if (tmp_path / name).exists()] == []
            assert hdr.read_text().splitlines()[-2:] == ["records 8", "complete 0"], attr


@pytest.mark.parametrize("flags, message", [
    ("--T nan", "final time T must be positive and finite, got nan"),
    ("--T inf", "final time T must be positive and finite, got inf"),
    ("--K nan", "diffusivity K must be positive and finite, got nan"),
    ("--K inf", "diffusivity K must be positive and finite, got inf"),
])
def test_main_rejects_non_finite_input(capsys, tmp_path, flags, message):
    code = main(f"--N 16 --dim 1 --m 4 --mode fast --r 3 --Q 2 --G 2 {flags} "
                f"--out {tmp_path}".split())
    assert code == 1
    assert message in capsys.readouterr().err


def test_nan_in_a_later_step_reaches_the_report(tmp_path, monkeypatch):
    """report.csv reads nan, not the error of the finite steps, when a step
    after the first goes NaN."""
    slow_run = cli.slow_run

    def poisoned(*args):
        res = slow_run(*args)
        res.solutions[5] = np.full_like(res.solutions[5], np.nan)
        return res

    monkeypatch.setattr(cli, "slow_run", poisoned)
    assert main(f"--N 16 --dim 1 --m 4 --mode slow --out {tmp_path}".split()) == 0
    with (tmp_path / "report.csv").open() as fh:
        row, = csv.DictReader(fh)
    assert row["max_nodal_error"] == "nan"


def test_run_failing_midway_closes_solution_stream(capsys, tmp_path, monkeypatch):
    k = 5
    make_source = cli.benchmark_source

    def failing_source(grid):
        inner = make_source(grid)
        steps = []

        def time_average(t0, t1):
            steps.append(t0)
            if len(steps) == k:
                raise RuntimeError(f"source failed at step {k}")
            return inner.time_average(t0, t1)

        return SeparableSource(spatial=inner.spatial, time_average=time_average)

    monkeypatch.setattr(cli, "benchmark_source", failing_source)
    code = main(f"--nu 0.5 --T 1 --N 16 --dim 1 --m 4 --mode fast --r 3 "
                f"--Q 2 --G 2 --out {tmp_path}".split())
    assert code == 1
    assert f"source failed at step {k}" in capsys.readouterr().err
    stream = tmp_path / "solution_fast_N16_r3.bin"
    assert np.fromfile(stream, dtype="<f8").shape == ((k - 1) * 3,)
    hdr = (tmp_path / "solution_fast_N16_r3.bin.hdr").read_text().splitlines()
    assert hdr[-2:] == [f"records {k - 1}", "complete 0"]


def test_fast_run_going_non_finite_fails_the_cli_without_summaries(capsys, tmp_path,
                                                                   monkeypatch):
    """A fast run whose source goes NaN at step k makes main exit 1 with an
    error naming k, leaves no report.csv or errors.csv, and leaves a stream
    of the steps through k's leaf whose sidecar reads complete 0, also when
    that leaf is the last and the stream holds all N records."""
    make_source = cli.benchmark_source
    for k, records in ((6, 8), (14, 16)):  # in the leaves C(5, 8) and C(13, 16)
        def nan_source(grid):
            inner = make_source(grid)
            steps = []

            def time_average(t0, t1):
                steps.append(t0)
                return math.nan if len(steps) == k else inner.time_average(t0, t1)

            return SeparableSource(spatial=inner.spatial, time_average=time_average)

        monkeypatch.setattr(cli, "benchmark_source", nan_source)
        out = tmp_path / f"k{k}"
        code = main(f"--nu 0.5 --T 1 --N 16 --dim 1 --m 4 --mode fast --r 3 "
                    f"--Q 2 --G 2 --out {out}".split())
        assert code == 1
        assert f"solution at step {k} is not finite" in capsys.readouterr().err
        assert not (out / "report.csv").exists() and not (out / "errors.csv").exists()
        hdr = (out / "solution_fast_N16_r3.bin.hdr").read_text().splitlines()
        assert hdr[-2:] == [f"records {records}", "complete 0"], k


def test_fast_run_with_a_non_finite_weight_fails_the_cli(capsys, tmp_path, monkeypatch):
    """A history weight that is not finite stops the fast run with exit 1
    and an error naming its pair, here the lag table's (3, 1); the stream,
    which holds step 1 (solved before the first leaf is entered), reads
    complete 0."""
    series = frac_weights._series

    def nan_at_lag_two(nu, kj, kn, delta):
        out = series(nu, kj, kn, delta)
        out[np.isclose(delta, 2 * kj)] = math.nan
        return out

    monkeypatch.setattr(frac_weights, "_series", nan_at_lag_two)
    out = tmp_path / "out"
    code = main(f"--nu 0.5 --T 1 --N 16 --dim 1 --m 4 --mode fast --r 3 "
                f"--Q 2 --G 2 --out {out}".split())
    assert code == 1
    assert "the history weight of (n, j) = (3, 1) is not finite" in capsys.readouterr().err
    assert not (out / "report.csv").exists()
    hdr = (out / "solution_fast_N16_r3.bin.hdr").read_text().splitlines()
    assert hdr[-2:] == ["records 1", "complete 0"]


def test_slow_run_going_non_finite_fails_the_cli_without_summaries(capsys, tmp_path,
                                                                   monkeypatch):
    """A slow run whose source goes NaN at step k makes main exit 1 with
    an error naming k, and leaves no report.csv or errors.csv."""
    k = 5
    make_source = cli.benchmark_source

    def nan_source(grid):
        inner = make_source(grid)
        steps = []

        def time_average(t0, t1):
            steps.append(t0)
            return math.nan if len(steps) == k else inner.time_average(t0, t1)

        return SeparableSource(spatial=inner.spatial, time_average=time_average)

    monkeypatch.setattr(cli, "benchmark_source", nan_source)
    for name in ("report.csv", "errors.csv"):  # from an earlier run
        (tmp_path / name).write_text("stale\n")
    code = main(f"--nu 0.5 --T 1 --N 16 --dim 2 --m 4 --mode both --out {tmp_path}".split())
    assert code == 1
    assert f"solution at step {k} is not finite" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists() and not (tmp_path / "errors.csv").exists()


def test_errors_are_measured_at_any_K(tmp_path):
    """The reference solution follows --K through the mode's eigenvalue
    K dim pi^2, so a non-default K reads the solver's error, which falls
    with the step count."""
    errors = []
    for N in (64, 256):
        out = tmp_path / f"N{N}"
        assert main(f"--mode slow --N {N} --T 1 --dim 1 --m 16 --K 0.5 "
                    f"--out {out}".split()) == 0
        with (out / "report.csv").open() as fh:
            row, = csv.DictReader(fh)
        errors.append(float(row["max_nodal_error"]))
    assert errors[0] < 5e-2 and errors[1] < errors[0], errors
