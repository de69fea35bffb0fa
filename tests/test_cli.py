import json
from pathlib import Path

import pytest

from qaw.cli import parse_args, run

GOLDEN = Path(__file__).parent / "golden"

# Reports whose every byte but the timings is fixed: the verdicts, params,
# witnesses and residual counts of exact runs on three and four legs and of
# the tau suite, and of a seeded eval run with a failing check.
REPORT_GOLDENS = {
    "report_all_exact_2-1-2.json": ["--spins", "2,1,2"],
    "report_all_exact_1-1-1-1.json": ["--spins", "1,1,1,1"],
    "report_tau_exact_1-2.json": ["--suite", "tau", "--spins", "1,2"],
    "report_all_eval_2-1-2_seed7_negative_control.json":
        ["--spins", "2,1,2", "--mode", "eval", "--points", "20", "--seed", "7",
         "--negative-control"],
}


def timing_free_report(argv: list[str], path: Path) -> str:
    """The JSON report the CLI writes for argv, without its timing fields."""
    run(parse_args(argv + ["--json", str(path)]))
    data = json.loads(path.read_text())
    del data["setup_ms"], data["wall_ms"]
    for check in data["checks"]:
        del check["runtime_ms"]
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


class TestParseArgs:
    def test_defaults(self):
        cfg = parse_args([])
        assert cfg.suite == "all"
        assert cfg.spins == (1, 1, 1)
        assert cfg.mode == "exact"
        assert cfg.eval_points == 3
        assert cfg.rng_seed == 0

    def test_aw4_spins(self):
        cfg = parse_args(["--suite", "aw4", "--spins", "1,1,1,1"])
        assert cfg.suite == "aw4"
        assert cfg.spins == (1, 1, 1, 1)
        assert cfg.mode == "exact"

    def test_arity_mismatch_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["--suite", "aw3", "--spins", "1,1"])
        assert exc.value.code == 2

    def test_points_validation(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["--mode", "eval", "--points", "0"])
        assert exc.value.code == 2

    def test_points_beyond_the_sample_set_are_a_usage_error(self):
        # parse_args validates without running: a run draws at most 5704 points.
        assert parse_args(["--mode", "eval", "--points", "5704"]).eval_points == 5704
        with pytest.raises(SystemExit) as exc:
            parse_args(["--mode", "eval", "--points", "5705"])
        assert exc.value.code == 2

    def test_bad_spins_string(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["--spins", "1,x,1"])
        assert exc.value.code == 2

    def test_unknown_suite(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["--suite", "bogus"])
        assert exc.value.code == 2


class TestRun:
    def test_default_run_passes(self, capsys):
        status = run(parse_args(["--suite", "aw3-symbolic"]))
        assert status == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_negative_control_exits_one(self, capsys):
        status = run(parse_args(["--suite", "aw3-symbolic", "--negative-control"]))
        assert status == 1
        assert "FAIL negative_control.corrupted_generator" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        status = run(parse_args(["--suite", "theorem", "--spins", "1,1,1",
                                 "--json", str(path)]))
        assert status == 0
        data = json.loads(path.read_text())
        assert set(data) == {"suite", "version", "config", "checks", "passed",
                           "setup_ms", "wall_ms"}
        assert data["passed"] is True
        # Verdicts in the JSON document match the text report exactly.
        out = capsys.readouterr().out
        for check in data["checks"]:
            expected = ("PASS " if check["passed"] else "FAIL ") + check["name"]
            assert expected in out

    def test_verbose_shows_params(self, capsys):
        status = run(parse_args(["--suite", "aw3-symbolic", "--verbose"]))
        assert status == 0
        assert "params:" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(REPORT_GOLDENS))
def test_report_matches_golden(name, tmp_path):
    report = timing_free_report(REPORT_GOLDENS[name], tmp_path / name)
    assert report == (GOLDEN / name).read_text()
