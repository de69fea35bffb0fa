import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qaw
from qaw import representations as reps
from qaw.checks import (CheckResult, ConfigurationError, RunConfig, SUITE_NAMES,
                        UnknownSuiteError, _merge_eval, check_aw3,
                        check_aw3_symbolic, check_aw4, check_rmatrix_axioms,
                        check_structure, check_tau, check_theorem_c13,
                        negative_control_check, run_suite)
from qaw.representations import InternalMismatchError, spin_module, tensor_context
from qaw.scalars import SYMBOLIC


def all_pass(results):
    return all(r.passed and r.residual_terms == 0 for r in results)


class TestIndividualChecks:
    def test_structure_111(self):
        assert all_pass(check_structure(tensor_context((1, 1, 1), SYMBOLIC)))

    def test_structure_trivial(self):
        assert all_pass(check_structure(tensor_context((0, 0, 0), SYMBOLIC)))

    def test_rmatrix_axioms(self):
        assert all_pass(check_rmatrix_axioms(tensor_context((1, 1, 1), SYMBOLIC)))

    def test_rmatrix_two_legs_only(self):
        results = check_rmatrix_axioms(tensor_context((2, 1), SYMBOLIC))
        assert all_pass(results)
        assert not any("yang_baxter" in r.name for r in results)

    def test_theorem(self):
        assert all_pass(check_theorem_c13(tensor_context((1, 1, 1), SYMBOLIC)))

    def test_theorem_trivial_legs(self):
        assert all_pass(check_theorem_c13(tensor_context((2, 0, 0), SYMBOLIC)))

    def test_tau(self):
        results = check_tau(tensor_context((1, 1), SYMBOLIC),
                            tensor_context((1, 1, 1), SYMBOLIC))
        assert all_pass(results)

    def test_aw3(self):
        assert all_pass(check_aw3(tensor_context((1, 1, 1), SYMBOLIC)))

    def test_aw3_symbolic(self):
        assert all_pass(check_aw3_symbolic(SYMBOLIC))

    def test_aw4_with_trivial_leg(self):
        assert all_pass(check_aw4(tensor_context((1, 1, 1, 0), SYMBOLIC)))

    def test_negative_control_fails(self):
        result = negative_control_check(SYMBOLIC)
        assert not result.passed
        assert result.residual_terms > 0
        assert result.witness


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuiteError):
            run_suite("nonsense", RunConfig(suite="nonsense"))

    def test_arity_validation(self):
        with pytest.raises(ConfigurationError):
            run_suite("aw3", RunConfig(suite="aw3", spins=(1, 1)))
        with pytest.raises(ConfigurationError):
            run_suite("aw4", RunConfig(suite="aw4", spins=(1, 1, 1)))
        with pytest.raises(ConfigurationError):
            run_suite("tau", RunConfig(suite="tau", spins=(1, 1, 1)))
        with pytest.raises(ConfigurationError):
            run_suite("all", RunConfig(suite="all", spins=(1, 1)))
        with pytest.raises(ConfigurationError):
            run_suite("all", RunConfig(suite="all", spins=(-1, 1, 1)))

    def test_eval_points_validation(self):
        with pytest.raises(ConfigurationError):
            run_suite("aw3", RunConfig(suite="aw3", mode="eval", eval_points=0))

    def test_tau_suite_two_spins(self):
        report = run_suite("tau", RunConfig(suite="tau", spins=(1, 2)))
        assert report.passed
        three_leg = [c for c in report.checks if c.name.startswith("tau.right")]
        assert three_leg and three_leg[0].params["spins"] == [1, 2, 2]

    def test_all_suite_passes(self):
        report = run_suite("all", RunConfig(suite="all", spins=(1, 1, 1)))
        assert report.passed
        assert all(c.residual_terms == 0 for c in report.checks)
        names = [c.name for c in report.checks]
        assert names == sorted(names)
        assert "aw3.mode_consistency" in names

    def test_all_suite_with_four_spins_runs_aw4(self):
        report = run_suite("all", RunConfig(suite="all", spins=(1, 1, 1, 0)))
        assert report.passed
        assert any(c.name.startswith("aw4.") for c in report.checks)

    def test_deterministic(self):
        cfg = RunConfig(suite="theorem", spins=(1, 1, 1))
        a = run_suite("theorem", cfg)
        b = run_suite("theorem", cfg)
        strip = lambda rep: [(c.name, c.params, c.passed, c.residual_terms, c.witness)
                             for c in rep.checks]
        assert strip(a) == strip(b)

    def test_report_schema(self):
        report = run_suite("aw3-symbolic", RunConfig(suite="aw3-symbolic"))
        data = report.as_dict()
        assert set(data) == {"suite", "version", "config", "checks", "passed"}
        for check in data["checks"]:
            assert set(check) == {"name", "params", "passed", "residual_terms",
                                  "witness", "runtime_ms"}
        json.dumps(data)  # must be JSON-serializable

    def test_negative_control_fails_suite(self):
        report = run_suite("structure",
                           RunConfig(suite="structure", spins=(1, 1, 1),
                                     negative_control=True))
        assert not report.passed
        bad = [c for c in report.checks if c.name.startswith("negative_control")]
        assert bad and not bad[0].passed


class TestEvalMode:
    def test_eval_reproduces_exact_verdicts(self):
        cfg_exact = RunConfig(suite="aw3", spins=(1, 1, 1))
        cfg_eval = RunConfig(suite="aw3", spins=(1, 1, 1), mode="eval",
                             eval_points=20, rng_seed=0)
        exact = run_suite("aw3", cfg_exact)
        ev = run_suite("aw3", cfg_eval)
        exact_verdicts = {c.name: c.passed for c in exact.checks}
        eval_verdicts = {c.name: c.passed for c in ev.checks}
        assert exact_verdicts == eval_verdicts
        assert ev.passed

    def test_eval_negative_control_sensitivity(self):
        report = run_suite("aw3-symbolic",
                           RunConfig(suite="aw3-symbolic", mode="eval",
                                     eval_points=20, rng_seed=0,
                                     negative_control=True))
        bad = [c for c in report.checks if c.name.startswith("negative_control")][0]
        assert not bad.passed
        assert bad.params["failed_points"] >= 19

    def test_eval_deterministic_for_fixed_seed(self):
        cfg = RunConfig(suite="aw3-symbolic", mode="eval", eval_points=5, rng_seed=7)
        a = run_suite("aw3-symbolic", cfg)
        b = run_suite("aw3-symbolic", cfg)
        assert [(c.name, c.passed, c.params) for c in a.checks] == \
            [(c.name, c.passed, c.params) for c in b.checks]

    def test_point_domains_are_freed_after_the_run(self):
        # A fresh interpreter, so that no other test's PointDomain is counted.
        code = (
            "import gc\n"
            "from qaw.checks import RunConfig, run_suite\n"
            "from qaw.scalars import PointDomain\n"
            "cfg = RunConfig(spins=(1, 1, 1), mode='eval', eval_points=2)\n"
            "assert run_suite('all', cfg).passed\n"
            "gc.collect()\n"
            "print(sum(isinstance(o, PointDomain) for o in gc.get_objects()))\n")
        src = str(Path(qaw.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
        assert out.stdout.strip() == "0"


def _result(name, passed):
    return CheckResult(name=name, params={}, passed=passed,
                       residual_terms=0 if passed else 1,
                       witness="" if passed else f"bad {name}", runtime_ms=1)


class TestMergeEval:
    def test_results_are_matched_by_name_not_position(self):
        runs = [("s=2", [_result("a", True), _result("b", True)]),
                ("s=3", [_result("b", False), _result("a", True)])]
        merged = {r.name: r for r in _merge_eval(runs, RunConfig(mode="eval"))}
        assert merged["a"].passed and merged["a"].params["failed_points"] == 0
        assert not merged["b"].passed and merged["b"].params["failed_points"] == 1
        assert merged["b"].witness == "at s=3: bad b"

    @pytest.mark.parametrize("second", [["a"], ["a", "c"], ["a", "b", "c"], ["a", "a"]])
    def test_differing_check_sets_are_an_internal_error(self, second):
        runs = [("s=2", [_result("a", True), _result("b", True)]),
                ("s=3", [_result(n, True) for n in second])]
        with pytest.raises(InternalMismatchError):
            _merge_eval(runs, RunConfig(mode="eval"))


def test_exact_mode_reuses_symbolic_tables():
    def tables():
        ctx = tensor_context((1, 2, 1), SYMBOLIC)
        core = reps._r_core(ctx.modules[0], ctx.modules[1], 0)
        return spin_module(2, SYMBOLIC), ctx, core
    first = tables()
    assert all(a is b for a, b in zip(first, tables()))
    for _ in range(2):
        assert run_suite("all", RunConfig(spins=(1, 2, 1))).passed
        assert all(a is b for a, b in zip(first, tables()))


def test_suite_names_frozen():
    assert SUITE_NAMES == ("structure", "rmatrix", "theorem", "tau", "aw3",
                           "aw3-symbolic", "aw4", "all")
