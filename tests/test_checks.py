import gc
import itertools
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import qaw
from qaw import representations as reps
from qaw import algebra as alg
from qaw import checks
from qaw.checks import (LEG_OPERANDS, CheckResult, ConfigurationError, RunConfig,
                        RunStore, SUITE_NAMES, UnknownSuiteError, _merge_eval,
                        _run_once, _run_point,
                        block_slice, check_aw3, check_aw3_symbolic, check_aw4,
                        check_rmatrix_axioms, check_structure, check_tau,
                        check_theorem_c13, lowest_weight_indices,
                        negative_control_check, run_suite)
from qaw.representations import (ExactMatrix, InternalMismatchError, spin_module,
                                 tensor_context)
from qaw.scalars import (RESIDUE_PRIME, SYMBOLIC, PointDomain, PoleError,
                         ResidueDomain)


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

    def test_suite_name_must_match_config(self):
        # A report names the suite it ran and the config it ran under.
        with pytest.raises(ConfigurationError):
            run_suite("aw3-symbolic", RunConfig(suite="aw4", spins=(1, 1, 1)))
        with pytest.raises(ConfigurationError):
            run_suite("aw3", RunConfig(spins=(1, 1, 1)))

    def test_eval_points_validation(self):
        with pytest.raises(ConfigurationError):
            run_suite("aw3", RunConfig(suite="aw3", mode="eval", eval_points=0))
        # There are 5704 distinct sample points; asking for more fails before any is run.
        checks.validate_config("aw3", RunConfig(suite="aw3", mode="eval", eval_points=5704))
        with pytest.raises(ConfigurationError):
            run_suite("aw3", RunConfig(suite="aw3", mode="eval", eval_points=5705))

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
        assert set(data) == {"suite", "version", "config", "checks", "passed",
                           "setup_ms", "wall_ms"}
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

    @staticmethod
    def _alive_after_eval_run(before: str, after: str) -> str:
        # A fresh interpreter, so that no other test's objects are counted.
        code = (
            "import gc\n"
            "from qaw.checks import RunConfig, run_suite\n"
            "from qaw.representations import SpinModule\n"
            "from qaw.scalars import PointDomain, ResidueDomain\n"
            f"{before}\n"
            "cfg = RunConfig(spins=(1, 1, 1), mode='eval', eval_points=2)\n"
            "assert run_suite('all', cfg).passed\n"
            f"{after}\n"
            "print(sum(isinstance(o, (PointDomain, ResidueDomain, SpinModule))\n"
            "          for o in gc.get_objects()))\n")
        src = str(Path(qaw.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
        return out.stdout.strip()

    def test_point_domains_are_freed_after_the_run(self):
        assert self._alive_after_eval_run("", "gc.collect()") == "0"

    def test_point_tables_are_freed_without_the_cyclic_collector(self):
        assert self._alive_after_eval_run("gc.disable()", "") == "0"

    def test_live_results_stay_flat_in_the_point_count(self, monkeypatch):
        # Each point is folded into the per-check aggregates as it finishes, so
        # the CheckResults alive when a point starts do not grow with the points run.
        live = []
        real = checks._run_point

        def counting(*args):
            gc.collect()
            live.append(sum(isinstance(o, CheckResult) for o in gc.get_objects()))
            return real(*args)

        monkeypatch.setattr(checks, "_run_point", counting)
        assert run_suite("all", RunConfig(spins=(1, 1, 1), mode="eval", eval_points=20)).passed
        assert len(live) == 20 and len(set(live[1:])) == 1

    def test_casimir_coproducts_are_built_once_per_process(self):
        # Every point represents the same C, D(C) and Delta^(2)(C) for its
        # intermediate Casimirs, so no point builds them again.
        alg.casimir_coproduct.cache_clear()
        for points in (1, 4):
            cfg = RunConfig(spins=(1, 1, 1), mode="eval", eval_points=points)
            assert run_suite("all", cfg).passed
        info = alg.casimir_coproduct.cache_info()
        assert info.misses == 3 and info.hits >= 5 * 7 - 3

    def test_report_runtimes_are_whole_milliseconds(self):
        cfg = RunConfig(suite="aw3-symbolic", mode="eval", eval_points=2)
        assert all(type(c.runtime_ms) is int for c in run_suite("aw3-symbolic", cfg).checks)


def _without_runtime(results):
    return [(r.name, r.params, r.passed, r.residual_terms, r.witness) for r in results]


# An integer of multiplicative order 3 mod P: q = s0**2 has order 3, so [3]_q = 0 mod P.
ORDER_THREE = 1669582390241348315


class TestResiduePoints:
    @pytest.mark.parametrize("spins", [(1, 1, 1), (2, 1, 2)])
    @pytest.mark.parametrize("negative_control", [False, True])
    def test_residue_path_reproduces_the_rational_results(self, spins, negative_control):
        cfg = RunConfig(spins=spins, mode="eval", negative_control=negative_control)
        for s0 in (Fraction(51, 55), Fraction(43, 21)):
            assert _without_runtime(_run_point("all", cfg, s0)) == \
                _without_runtime(_run_once("all", cfg, PointDomain(s0)))

    def test_failing_group_is_rerun_over_the_rationals(self):
        cfg = RunConfig(spins=(1, 1, 1), mode="eval", negative_control=True)
        bad = [r for r in _run_point("all", cfg, Fraction(51, 55))
               if r.name.startswith("negative_control")]
        assert bad[0].witness == "0 0 :: 21624/166375"

    def test_root_of_unity_mod_p_needs_no_fallback(self):
        # [3]_q = 0 mod P, but E^3 is then 0 mod P on every module, so the
        # R-matrix series stops before it needs the coefficient a_3.
        cfg = RunConfig(suite="rmatrix", spins=(3, 3, 1), mode="eval")
        s0 = Fraction(ORDER_THREE)
        residue = _run_once("rmatrix", cfg, ResidueDomain(s0))
        assert all(r.passed for r in residue)
        assert _without_runtime(_run_point("rmatrix", cfg, s0)) == \
            _without_runtime(_run_once("rmatrix", cfg, PointDomain(s0)))

    @pytest.mark.parametrize("suite, spins", [("rmatrix", (3, 3, 1)), ("all", (1, 1, 1))])
    def test_pole_mod_p_runs_the_point_over_the_rationals(self, suite, spins):
        # In suite all, the pole is met where a PBW coefficient with
        # q - 1/q in its denominator is mapped into the residue domain.
        cfg = RunConfig(suite=suite, spins=spins, mode="eval")
        s0 = Fraction(RESIDUE_PRIME + 1)  # s = 1 mod P, so q - 1/q = 0 mod P
        with pytest.raises(PoleError):
            _run_once(suite, cfg, ResidueDomain(s0))
        results = _run_point(suite, cfg, s0)
        assert _without_runtime(results) == \
            _without_runtime(_run_once(suite, cfg, PointDomain(s0)))
        assert all(r.passed for r in results)


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

    def test_runtimes_are_summed_unrounded(self, monkeypatch):
        # Each point's check takes 0.6 ms; run_suite rounds the sum once.
        ticks = itertools.cycle((0, 600_000))
        monkeypatch.setattr(checks.time, "perf_counter_ns", lambda: next(ticks))
        runs = [(f"s={p}", [checks._check("a", {}, list)]) for p in range(2, 22)]
        assert round(_merge_eval(runs, RunConfig(mode="eval"))[0].runtime_ms) == 12


class TestLowestWeightSpace:
    @pytest.mark.parametrize("spins, low, total", [((1, 1, 1), 3, 8), ((2, 1, 2), 5, 18),
                                                    ((4, 4, 4), 19, 125)])
    def test_dimensions(self, spins, low, total):
        ctx = tensor_context(spins, SYMBOLIC)
        assert (len(lowest_weight_indices(ctx)), ctx.total_dim) == (low, total)

    def test_slice_keeps_the_block_of_a_weight_preserving_matrix(self):
        ctx = tensor_context((2, 1, 2), SYMBOLIC)
        block = lowest_weight_indices(ctx)
        c13_0 = reps.intermediate_casimirs(ctx)["C13_0"]
        sliced = block_slice(c13_0, block)
        assert sliced.nnz() > 0
        assert dict(sliced.items()) == {(r, c): v for (r, c), v in c13_0.items()
                                        if r in block and c in block}

    def test_slice_rejects_a_weight_changing_entry(self):
        ctx = tensor_context((1, 1, 1), SYMBOLIC)
        block = lowest_weight_indices(ctx)
        inside, outside = min(block), min(set(range(ctx.total_dim)) - block)
        for rc in ((inside, outside), (outside, inside)):
            with pytest.raises(InternalMismatchError):
                block_slice(ExactMatrix(ctx.total_dim, {rc: SYMBOLIC.one}), block)
        delta_e = reps.represent(alg.extend_coproduct(alg.generator("E"),
                                                      (1, 2, 3), 3), ctx)
        with pytest.raises(InternalMismatchError):
            block_slice(delta_e, block)


def _perturb(monkeypatch, name, delta):
    """Make intermediate_casimirs return name + delta(casimirs, ctx) in place of name."""
    real = reps.intermediate_casimirs

    def perturbed(ctx, *on_legs):
        ic = dict(real(ctx, *on_legs))
        ic[name] = ic[name] + delta(ic, ctx)
        return ic
    monkeypatch.setattr(reps, "intermediate_casimirs", perturbed)


def _full_space_residuals(ic, domain):
    """The must-be-zero differences of the restricted checks, on the full space."""
    qp, qm = domain.q(1), domain.q(-1)
    inv_qdiff = domain.one / (qp - qm)

    def bracket(x, y, kx=qp, ky=qm):
        return ((ic[x] * ic[y]).scale(kx) - (ic[y] * ic[x]).scale(ky)).scale(inv_qdiff)

    def rhs(z, a, b, c, d):
        return ic[z] + ic[a] * ic[b] + ic[c] * ic[d]
    rel_c12_c23 = rhs("C13_0", "C1", "C3", "C2", "C123")
    return {
        "aw3.relation[C12,C23]": [bracket("C12", "C23") - rel_c12_c23],
        "aw3.relation[C13_0,C12]": [bracket("C13_0", "C12") - rhs("C23", "C2", "C3", "C1", "C123")],
        "aw3.relation[C23,C13_0]": [bracket("C23", "C13_0") - rhs("C12", "C1", "C2", "C3", "C123")],
        "aw3.relation[C23,C12]": [bracket("C23", "C12") - rhs("C13_1", "C1", "C3", "C2", "C123")],
        "aw3.relation[C12,C13_1]": [bracket("C12", "C13_1") - rhs("C23", "C2", "C3", "C1", "C123")],
        "aw3.relation[C13_1,C23]": [bracket("C13_1", "C23") - rhs("C12", "C1", "C2", "C3", "C123")],
        "aw3.bracket_calibration": [bracket("C12", "C23") - rel_c12_c23,
                                    bracket("C12", "C23", qm, qp) - rel_c12_c23],
        "theorem.central_elements_commute": [
            ic[a] * ic[b] - ic[b] * ic[a]
            for a in ("C1", "C2", "C3", "C123") for b in ("C12", "C23", "C13_0", "C13_1")],
    }


def _restricted_results(ctx):
    return {r.name: r for r in check_aw3(ctx) + check_theorem_c13(ctx)}


C13_0_CHECKS = ("aw3.relation[C12,C23]", "aw3.relation[C13_0,C12]",
                "aw3.relation[C23,C13_0]", "aw3.bracket_calibration")


class TestRestrictedChecks:
    def test_failed_premise_never_computes(self):
        class Store:
            def certified(self, name):
                return name not in ("C23", "X23")

        def compute():
            raise AssertionError("compute ran on a failed premise")
        result = checks._check("a", {}, compute, Store(), ("X23", "C1", "C23"))
        assert (result.passed, result.residual_terms, result.witness) == (
            False, 2, "premise theorem.centralizer[C23] failed")

    @pytest.mark.parametrize("group", [check_aw3, check_theorem_c13])
    @pytest.mark.parametrize("store_spins, domain", [
        ((2, 1, 2), SYMBOLIC), ((1, 1, 1), PointDomain(Fraction(5, 3)))])
    def test_store_on_another_context_is_rejected(self, group, store_spins, domain):
        store = RunStore(tensor_context(store_spins, domain))
        with pytest.raises(alg.ArityMismatchError, match="cannot check"):
            group(tensor_context((1, 1, 1), SYMBOLIC), store)

    def test_uncertified_operand_fails_on_its_premise(self, monkeypatch):
        # e_(0,0) sits on the highest weight, off W_low, and does not commute
        # with Delta(E): the W_low residuals alone would all vanish.
        _perturb(monkeypatch, "C13_0",
                 lambda ic, ctx: ExactMatrix(ctx.total_dim, {(0, 0): ctx.domain.one}))
        results = _restricted_results(tensor_context((1, 1, 1), SYMBOLIC))
        for name in C13_0_CHECKS + ("theorem.central_elements_commute",
                                    "theorem.centralizer[C13_0]"):
            assert not results[name].passed, name
        for name in C13_0_CHECKS + ("theorem.central_elements_commute",):
            assert results[name].witness == "premise theorem.centralizer[C13_0] failed"
            assert results[name].residual_terms == 1
        for name in ("aw3.relation[C23,C12]", "aw3.relation[C12,C13_1]",
                     "aw3.relation[C13_1,C23]", "theorem.centralizer[C13_1]"):
            assert results[name].passed, name

    def test_certified_wrong_operand_fails_with_lowest_weight_counts(self, monkeypatch):
        _perturb(monkeypatch, "C13_0", lambda ic, ctx: ic["C123"])
        ctx = tensor_context((1, 1, 1), SYMBOLIC)
        block = lowest_weight_indices(ctx)
        results = _restricted_results(ctx)
        full = _full_space_residuals(reps.intermediate_casimirs(ctx), ctx.domain)
        assert results["theorem.centralizer[C13_0]"].passed
        for name in C13_0_CHECKS:
            diff = full[name][0]
            low_entries = sum(1 for (r, c), _ in diff.items() if r in block and c in block)
            assert 0 < low_entries < diff.nnz()
            assert not results[name].passed
            assert results[name].residual_terms == low_entries
            assert not results[name].witness.startswith("premise")
            r, c = map(int, results[name].witness.split(" ", 2)[:2])
            assert r in block and c in block

    @pytest.mark.parametrize("spins", [(1, 1, 1), (2, 1, 2), (1, 2, 1)])
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_restricted_verdicts_match_the_full_space(self, monkeypatch, spins, perturbed):
        if perturbed:
            _perturb(monkeypatch, "C13_0", lambda ic, ctx: ic["C123"])
        ctx = tensor_context(spins, SYMBOLIC)
        results = _restricted_results(ctx)
        full = _full_space_residuals(reps.intermediate_casimirs(ctx), ctx.domain)
        for name, diffs in full.items():
            if name == "aw3.bracket_calibration":
                chosen, rejected = diffs
                assert not rejected.is_zero()
                expected = chosen.is_zero()
            else:
                expected = all(d.is_zero() for d in diffs)
            assert results[name].passed == expected, name
        assert any(not r.passed for r in results.values()) == perturbed

    def test_pbw_work_does_not_grow_with_the_points(self, monkeypatch):
        # A run builds its PBW elements once over Q(s) and maps them into
        # every point.  The first run fills the process's normal-ordering
        # tables, so only the later two are compared.
        calls = []
        real = alg.normal_order_mul
        monkeypatch.setattr(alg, "normal_order_mul", lambda x, y: calls.append(1) or real(x, y))
        counts = []
        for points in (1, 1, 5):
            calls.clear()
            assert run_suite("all", RunConfig(spins=(1, 1, 1), mode="eval",
                                              eval_points=points)).passed
            counts.append(len(calls))
        assert 0 < counts[1] == counts[2]

    def test_one_casimir_build_per_run(self, monkeypatch):
        calls = []
        real = reps.intermediate_casimirs
        monkeypatch.setattr(reps, "intermediate_casimirs",
                            lambda ctx, *on_legs: calls.append(ctx.spins) or real(ctx, *on_legs))
        assert run_suite("all", RunConfig(spins=(1, 2, 1))).passed
        assert calls == [(1, 2, 1)]


def _mod_p(x: Fraction) -> int:
    return x.numerator * pow(x.denominator, -1, RESIDUE_PRIME) % RESIDUE_PRIME


DOMAINS = pytest.mark.parametrize(
    "domain", [SYMBOLIC, PointDomain(Fraction(5, 3)), ResidueDomain(Fraction(43, 21))],
    ids=["symbolic", "point", "residue"])


class TestLegCertificates:
    @DOMAINS
    @pytest.mark.parametrize("spins", [(1, 1, 1), (2, 1, 2), (3, 1, 2), (4, 4, 4)])
    def test_leg_built_operands_match_the_full_space(self, domain, spins):
        ctx = tensor_context(spins, domain)
        store = RunStore(ctx)
        c = alg.casimir()
        for name, legs in LEG_OPERANDS.items():
            assert store.certified(name), name
            expected = (reps.represent(alg.extend_coproduct(c, legs, 3), ctx) if name[0] == "C"
                        else reps.r_matrix(legs, ctx) * reps.r_tilde(legs, ctx))
            assert store.operand(name) == expected, name

    def test_operands_embed_the_certified_leg_matrices(self, monkeypatch):
        # Twice a certified matrix is certified; the operand must follow it.
        real = RunStore.leg
        two = SYMBOLIC.integer(2)
        monkeypatch.setattr(RunStore, "leg", lambda store, name: real(store, name).scale(two))
        ctx = tensor_context((2, 1, 2), SYMBOLIC)
        store = RunStore(ctx)
        for name, legs in LEG_OPERANDS.items():
            assert store.certified(name), name
            assert store.operand(name) == reps.embed_legs(real(store, name), legs, ctx).scale(two)

    @DOMAINS
    def test_legs_23_rest_on_coassociativity(self, monkeypatch, domain):
        monkeypatch.setattr(checks, "_coassociativity", lambda elems: [
            alg.extend_coproduct(elems[0], (1, 2, 3), 3)])
        failed = {r.name for r in check_theorem_c13(tensor_context((1, 1, 1), domain))
                  if not r.passed}
        assert failed == {"theorem.centralizer[C23]", "theorem.central_elements_commute",
                          "theorem.conjugation_r23"}

    @DOMAINS
    @pytest.mark.parametrize("spins", [(1, 1, 1), (2, 1, 2)])
    @pytest.mark.parametrize("perturbation", [None, "uncertified", "certified"])
    def test_restricted_conjugation_matches_the_full_space(self, monkeypatch, domain, spins,
                                                           perturbation):
        # X + e_(0,0) fails its premise; X + the pair Casimir passes it and is
        # a wrong conjugator.
        real = RunStore.leg

        def perturbed(store, name):
            m = real(store, name)
            if name[0] != "X" or perturbation is None:
                return m
            if perturbation == "uncertified":
                return m + type(m)(m.dim, {(0, 0): domain.one})
            return m + reps.leg_casimir(LEG_OPERANDS[name], store.ctx)
        monkeypatch.setattr(RunStore, "leg", perturbed)
        ctx = tensor_context(spins, domain)
        store = RunStore(ctx)
        results = {r.name: r for r in check_theorem_c13(ctx, store)}
        c13_0, c13_1 = store.casimirs["C13_0"], store.casimirs["C13_1"]
        for a, b in ((2, 3), (1, 2)):
            x = store.operand(f"X{a}{b}")
            diff = x * c13_1 - c13_0 * x if a == 1 else c13_1 * x - x * c13_0
            result = results[f"theorem.conjugation_r{a}{b}"]
            assert result.passed == diff.is_zero() == (perturbation is None)
            if perturbation == "uncertified":
                assert result.witness == f"premise theorem.centralizer[X{a}{b}] failed"
            elif perturbation == "certified":
                block = store.lowest_weight
                low = sum(1 for (r, c), _ in diff.items() if r in block and c in block)
                assert result.residual_terms == low > 0

    @staticmethod
    def _sub_operands(domain):
        ctx = tensor_context((2, 1, 2), domain)
        a = reps.represent(alg.extend_coproduct(alg.casimir(), (1, 2), 3), ctx)
        b = reps.embed_legs(reps.leg_casimir((1, 2), ctx), (1, 2), ctx)
        assert a is not b and a == b
        c = b + ctx.matrix(ctx.total_dim, {(0, 0): domain.one, (0, 1): domain.one})
        d = reps.intermediate_casimirs(ctx)["C13_0"]
        return a, b, c, d, ctx.matrix(a.dim)

    @DOMAINS
    def test_sub_matches_an_entrywise_reference(self, domain):
        # The residue domain's reference is the difference in the field at
        # its point, reduced mod P.
        field = PointDomain(domain.s0) if domain.modulus else domain

        def reference(x, y):
            keys = {rc for rc, _ in x.items()} | {rc for rc, _ in y.items()}
            diffs = {rc: (x.entry(*rc) or field.zero) - (y.entry(*rc) or field.zero)
                     for rc in keys}
            if domain.modulus:
                diffs = {rc: _mod_p(w) for rc, w in diffs.items()}
            return {rc: w for rc, w in diffs.items() if w}
        a, b, c, d, zero = self._sub_operands(domain)
        fa, fb, fc, fd, fzero = self._sub_operands(field)
        for (x, y), (fx, fy) in zip(
                ((a, b), (b, a), (a, c), (c, a), (a, d), (d, a), (a, zero)),
                ((fa, fb), (fb, fa), (fa, fc), (fc, fa), (fa, fd), (fd, fa), (fa, fzero))):
            assert dict((x - y).items()) == reference(fx, fy)
        assert (a - b).is_zero() and not (a - c).is_zero()

    def test_aw3_premises_are_setup(self, monkeypatch):
        built = set()
        real = RunStore.centralizer_residuals

        def slow(store, name):
            if (id(store), name) not in built:
                built.add((id(store), name))
                time.sleep(0.03)
            return real(store, name)
        monkeypatch.setattr(RunStore, "centralizer_residuals", slow)
        # A collection of the test session's garbage would land in some check.
        gc.collect()
        gc.disable()
        try:
            report = run_suite("aw3", RunConfig(suite="aw3", spins=(1, 1, 1)))
        finally:
            gc.enable()
        assert report.passed
        for check in report.checks:
            if check.name.startswith("aw3.relation["):
                assert check.runtime_ms < 30, check.name
        assert report.setup_ms >= 7 * 30


class TestLegFactorForms:
    @DOMAINS
    @pytest.mark.parametrize("spins", [(1, 1, 1), (2, 1, 2)])
    def test_grouped_id_tau_matches_term_by_term(self, domain, spins):
        ctx3 = tensor_context(spins, domain)
        pair23 = tensor_context(spins[1:], domain)
        mod1, mod3 = ctx3.modules[0], ctx3.modules[2]
        elements = [alg.tau_closed_form(x) for x in alg.tau_argument_elements().values()]
        for x in elements + [alg.coproduct(alg.casimir())]:
            reference = ctx3.matrix(ctx3.total_dim)
            for (u, v), c in x.items():
                reference = reference + mod1.monomial(u).kron(
                    checks._tau_matrix(pair23, mod3.monomial(v))).scale(domain.image(c))
            assert checks._id_tau_matrix(x, ctx3) == reference

    def test_split_r_is_built_once_per_run(self, monkeypatch):
        # Count the series sums of the 18-dimensional (2,1,2) split R by the
        # dimension of their first factor: 3 for (id @ D)R, 6 for (D @ id)R.
        builds = Counter()
        real = reps._series

        def counted(a, b, *rest):
            if a.dim * b.dim == 18:
                builds[a.dim] += 1
            return real(a, b, *rest)
        monkeypatch.setattr(reps, "_series", counted)
        SYMBOLIC.clear_memo()
        assert run_suite("all", RunConfig(spins=(2, 1, 2))).passed
        assert builds == {3: 1, 6: 1}
        assert run_suite("all", RunConfig(spins=(2, 1, 2))).passed
        assert builds == {3: 1, 6: 1}
        builds.clear()
        assert run_suite("all", RunConfig(spins=(2, 1, 2), mode="eval", eval_points=2)).passed
        assert builds == {3: 2, 6: 2}


@pytest.mark.parametrize("mode", ["exact", "eval"])
def test_setup_and_checks_account_for_the_wall_time(mode):
    report = run_suite("all", RunConfig(spins=(2, 1, 2), mode=mode, eval_points=3))
    attributed = report.setup_ms + sum(c.runtime_ms for c in report.checks)
    assert report.setup_ms > 0
    # Each runtime is rounded to whole ms on its own.
    assert abs(report.wall_ms - attributed) <= 0.05 * report.wall_ms + len(report.checks) / 2


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
