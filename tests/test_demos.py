"""The demos run end to end: each is a script under demos/ that prints its
findings, run here in-process through runpy."""

import re
import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_complexity_sweep_fits_an_exponent_near_one(capsys):
    """The sweep over N = 512 .. 8192 (leaf size 1, G = log2 N) prints the
    fitted exponent of its fast history ops against N, well below the
    direct scheme's 2."""
    runpy.run_path(str(DEMOS / "complexity_sweep.py"), run_name="__main__")
    out = capsys.readouterr().out
    fit = re.search(r"fitted exponent of fast ops vs N: (\d+\.\d+)", out)
    assert fit, out
    assert float(fit.group(1)) < 1.3
