"""The ten acceptance verdict lines, pinned.

tests/acceptance_verdicts.txt holds the lines tests/test_acceptance.py
printed when they were last accepted, details included.  This file sorts
after test_acceptance.py, so pytest runs it after the acceptance tests;
it compares what they recorded with the pinned lines, and skips when
fewer than ten ran (a selection, or this file alone).  A changed line
is a changed result: if the change is meant, the pinned file is updated
with it, in the same commit.
"""

import sys
from pathlib import Path

import pytest

PINNED = Path(__file__).with_name("acceptance_verdicts.txt")


def test_verdict_lines_match_the_pinned_ones():
    verdicts = getattr(sys.modules.get("test_acceptance"), "VERDICTS", [])
    if len(verdicts) < 10:
        pytest.skip(f"{len(verdicts)} of the ten acceptance verdicts ran")
    assert verdicts == PINNED.read_text().splitlines()
