"""The benchmark's verdict table (bench/workloads.json) against the suite.

The benchmark counts a run whose checks differ from the table in name or
verdict as failed, so a renamed or added check is caught here first.  Every
entry of the table is run, with the default seed.
"""

import json
from pathlib import Path

import pytest

from qaw.checks import RunConfig, run_suite

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.json"
ENTRIES = [(name, entry) for name, entries in json.loads(WORKLOADS.read_text()).items()
           for entry in entries]


@pytest.mark.parametrize(
    "entry", [entry for _, entry in ENTRIES],
    ids=[f"{name}-{'-'.join(map(str, entry['config']['spins']))}" for name, entry in ENTRIES])
def test_verdicts_match_the_benchmark_table(entry):
    config = entry["config"]
    report = run_suite(config["suite"],
                       RunConfig(**{**config, "spins": tuple(config["spins"])}))
    assert report.passed == entry["passed"]
    assert {c.name: c.passed for c in report.checks} == entry["checks"]
    failed_points = {c.name: c.params.get("failed_points") for c in report.checks}
    for name, least in entry.get("min_failed_points", {}).items():
        assert failed_points[name] >= least, name
