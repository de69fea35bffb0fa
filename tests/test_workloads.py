"""The benchmark's verdict table (bench/workloads.json) against the suite.

The benchmark counts a run whose checks differ from the table in name or
verdict as failed, so a renamed or added check is caught here first.
"""

import json
from pathlib import Path

import pytest

from qaw.checks import RunConfig, run_suite

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.json"


@pytest.mark.parametrize("spins", [(1, 1, 1), (2, 1, 2), (1, 1, 1, 1)])
def test_exact_verdicts_match_the_benchmark_table(spins):
    expected = [entry for entries in json.loads(WORKLOADS.read_text()).values()
                for entry in entries
                if entry["config"] == {"suite": "all", "spins": list(spins), "mode": "exact"}]
    assert len(expected) == 1
    report = run_suite("all", RunConfig(spins=spins))
    assert report.passed == expected[0]["passed"]
    assert {c.name: c.passed for c in report.checks} == expected[0]["checks"]
