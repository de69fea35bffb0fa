"""Self-tests of the benchmark.  Run from anywhere: python3 bench/selftest.py

- BENCHMARK.json keeps to the limits of the benchmark format and every
  workload it names has configurations and verdicts in workloads.json.
- A --trace 0 run reports every end-to-end metric with a nonzero value.
- Two traced runs on one seed report every per-layer metric (or mark it
  absent) and repeat every count exactly.
- A deliberately wrong verdict table (a flipped, a missing and an extra
  check) makes runs_failed non-zero; the right table keeps it at zero.
- A wrap target missing from the code is reported as absent, not a crash,
  and the traced verdicts still pass.
- Without the qaw source the benchmark exits non-zero and prints no result.

The whole file takes about two minutes on a 2-core machine.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TABLE = json.loads((BENCH / "workloads.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
COUNT_SUFFIXES = (".calls", ".builds", "_out")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=400)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["bench"] and SPEC["command"][1] == "bench/run.py"
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(TABLE), (names, sorted(TABLE))
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    assert all(NAME.fullmatch(n) for n in all_names)
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
               for m in metrics)
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_end_to_end_metrics():
    line = result_line(bench("--workload", "exact-sweep", "--seed", "5",
                             "--seconds", "1", "--trace", "0"))
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 8, line
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in line["metrics"].values()), line


def test_traced_counts_repeat():
    names = {m["name"] for m in SPEC["per_layer"]}
    for workload in ("exact-sweep", "eval-222-p20"):
        procs = [bench("--workload", workload, "--seed", "5", "--seconds", "1",
                       "--trace", "1") for _ in range(2)]
        counts = []
        for proc in procs:
            line = result_line(proc)
            assert line["correct"] and line["failed"] == 0, line
            assert set(line["metrics"]) == names
            assert all(set(v) == {"value", "unit"} for v in line["metrics"].values()), line
            absent = [row.split()[0] for row in proc.stdout.splitlines()
                      if row.endswith("(absent)")]
            assert set(absent) <= {"checks.eval_point_yield"}, absent
            counts.append({k: v["value"] for k, v in line["metrics"].items()
                           if k.endswith(COUNT_SUFFIXES)})
        assert counts[0] == counts[1], (workload, counts)
        assert counts[0]["representations.matrix_inverse.calls"] > 0


def test_wrong_table_fails():
    entry = TABLE["exact-sweep"][0]
    name = sorted(entry["checks"])[0]
    flipped, missing, extra = (copy.deepcopy(entry) for _ in range(3))
    flipped["checks"][name] = not flipped["checks"][name]
    missing["checks"]["structure.no_such_check"] = True
    del extra["checks"][name]
    for table_entry, should_fail in ((entry, False), (flipped, True), (missing, True),
                                     (extra, True)):
        result = run.measure("one", 0, 0.1, False, {"one": [table_entry]})
        assert result["attempted"] >= 1
        assert result["failed"] == (result["attempted"] if should_fail else 0), result


def test_absent_target():
    sys.path.insert(0, str(ROOT / "src"))
    from qaw.checks import RunConfig, run_suite
    from tracer import TARGETS, Tracer

    kept = [t for t in TARGETS if t[2] != "matrix_inverse"]
    missing = [("representations", "qaw.representations", "no_such_function", "gone"),
               ("representations", "qaw.representations", "ExactMatrix.no_such", "gone"),
               ("checks", "qaw.no_such_module", "check_gone", "gone")]
    tracer = Tracer()
    tracer.install(kept + missing)
    assert tracer.absent == [f"{m}.{a}" for _, m, a, _ in missing], tracer.absent
    config = RunConfig(spins=(1, 1, 1))
    report = run_suite(config.suite, config)
    assert report.passed
    summary = tracer.summary()
    assert "representations.gone" not in summary["keys"]
    sample = {"verify_s": 1.0, "attributed_s": 0.5, "reference_s": [], "points_used": 0,
              "trace": summary}
    values, absent = run.per_layer([m["name"] for m in SPEC["per_layer"]],
                                   {"samples": {"plain": [sample], "traced": [sample]}})
    assert absent == ["representations.matrix_inverse.calls",
                      "representations.matrix_inverse.s", "checks.eval_point_yield"], absent
    assert values["representations.represent.calls"] > 0


def test_no_source_fails():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "exact-444", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=Path(tmp))
    assert proc.returncode != 0 and not proc.stdout.strip(), proc


TESTS = [test_spec, test_no_source_fails, test_wrong_table_fails, test_end_to_end_metrics,
         test_traced_counts_repeat, test_absent_target]


def main() -> int:
    failures = 0
    for test in TESTS:
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"PASS {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
