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
