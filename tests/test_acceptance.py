"""Acceptance criteria, one test per criterion.

Every identity is exact algebra, so acceptance means residual exactly zero
(not a numeric tolerance), within the stated runtime budget.  Each test
prints one PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py``
to see them.
"""

import time

from qaw.algebra import (c13_zero_symbolic, casimir, extend_coproduct,
                         q_commutator)
from qaw.checks import RunConfig, run_suite
from qaw.representations import (casimir_scalar_highest_weight,
                                 intermediate_casimirs, r_matrix,
                                 r_series_term, represent, tensor_context)
from qaw.scalars import SYMBOLIC

D = SYMBOLIC

THREE_LEG_CONTEXTS = [(1, 1, 1), (2, 1, 2), (1, 2, 1), (2, 2, 2)]
FOUR_LEG_CONTEXTS = [(1, 1, 1, 1), (2, 1, 1, 2)]


def _report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def _aw3_sides():
    c = casimir()
    c12 = extend_coproduct(c, (1, 2), 3)
    c23 = extend_coproduct(c, (2, 3), 3)
    c1 = extend_coproduct(c, (1,), 3)
    c2 = extend_coproduct(c, (2,), 3)
    c3 = extend_coproduct(c, (3,), 3)
    c123 = extend_coproduct(c, (1, 2, 3), 3)
    rhs = c13_zero_symbolic() + c1 * c3 + c2 * c123
    return c12, c23, rhs


def test_symbolic_aw3_zero_element():
    t0 = time.perf_counter()
    c12, c23, rhs = _aw3_sides()
    inv_qdiff = D.one / (D.q(1) - D.q(-1))
    diff = q_commutator(c12, c23).scale(inv_qdiff) - rhs
    elapsed = time.perf_counter() - t0
    _report("symbolic-aw3-zero",
            diff.is_zero() and elapsed < 60.0,
            f"residual_terms={diff.term_count()} elapsed={elapsed:.2f}s")


def test_representation_suite_spin_half_triple():
    t0 = time.perf_counter()
    report = run_suite("all", RunConfig(suite="all", spins=(1, 1, 1)))
    elapsed = time.perf_counter() - t0
    residuals = sum(c.residual_terms for c in report.checks)
    _report("representation-suite-(1,1,1)",
            report.passed and residuals == 0 and elapsed < 10.0,
            f"checks={len(report.checks)} residuals={residuals} elapsed={elapsed:.2f}s")


def test_larger_contexts():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for spins in [(2, 1, 2), (1, 2, 1), (2, 2, 2)]:
        report = run_suite("all", RunConfig(suite="all", spins=spins))
        residuals = sum(c.residual_terms for c in report.checks)
        ok = ok and report.passed and residuals == 0
        detail.append(f"{spins}:{'ok' if report.passed else 'FAIL'}")
    elapsed = time.perf_counter() - t0
    _report("larger-contexts", ok and elapsed < 300.0,
            f"{' '.join(detail)} elapsed={elapsed:.2f}s")


def test_aw4_commutes():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for spins in FOUR_LEG_CONTEXTS:
        ctx = tensor_context(spins, D)
        ic = intermediate_casimirs(ctx)
        routes = (ic["C13_0"] == ic["C13_0_via_r12"]
                  and ic["C24_1"] == ic["C24_1_via_r34"])
        comm = ic["C13_0"] * ic["C24_1"] - ic["C24_1"] * ic["C13_0"]
        ok = ok and routes and comm.is_zero()
        detail.append(f"{spins}:dim{ctx.total_dim}:"
                      f"{'ok' if routes and comm.is_zero() else 'FAIL'}")
    elapsed = time.perf_counter() - t0
    _report("aw4-commutator-zero", ok and elapsed < 120.0,
            f"{' '.join(detail)} elapsed={elapsed:.2f}s")


def test_casimir_scalars_match_highest_weight_oracle():
    ok = True
    for two_j in range(7):
        ctx = tensor_context((two_j,), D)
        mat = represent(casimir(), ctx)
        oracle = casimir_scalar_highest_weight(two_j, D)
        ok = ok and mat == ctx.identity().scale(oracle)
    trivial = represent(casimir(), tensor_context((0,), D))
    ok = ok and trivial.entry(0, 0) == D.integer(-1) and trivial.nnz() == 1
    _report("casimir-scalars", ok, "two_j=0..6, trivial=-1")


def test_truncation_adds_nothing():
    ok = True
    checked = 0
    for spins in THREE_LEG_CONTEXTS + FOUR_LEG_CONTEXTS:
        ctx = tensor_context(spins, D)
        n = len(spins)
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                bound = min(spins[a - 1], spins[b - 1])
                extra = r_series_term((a, b), ctx, bound + 1)
                same = r_matrix((a, b), ctx, extra_terms=1) == r_matrix((a, b), ctx)
                ok = ok and extra.is_zero() and same
                checked += 1
    _report("series-truncation", ok, f"leg_pairs={checked}")


def test_schwartz_zippel_consistency():
    exact = run_suite("all", RunConfig(suite="all", spins=(1, 1, 1)))
    ev = run_suite("all", RunConfig(suite="all", spins=(1, 1, 1),
                                    mode="eval", eval_points=20, rng_seed=0))
    same_verdicts = ({c.name: c.passed for c in exact.checks}
                     == {c.name: c.passed for c in ev.checks})

    control = run_suite("structure",
                        RunConfig(suite="structure", spins=(1, 1, 1),
                                  mode="eval", eval_points=20, rng_seed=0,
                                  negative_control=True))
    bad = [c for c in control.checks if c.name.startswith("negative_control")][0]
    sensitive = (not bad.passed) and bad.params["failed_points"] >= 19
    _report("schwartz-zippel", same_verdicts and sensitive,
            f"verdicts_match={same_verdicts} "
            f"control_failed_points={bad.params['failed_points']}/20")


def test_bracket_calibration():
    # Exactly one q-commutator convention satisfies the cubic relation at
    # spins (1,1,1): q xy - q^-1 yx passes, q^-1 xy - q yx fails.
    ctx = tensor_context((1, 1, 1), D)
    ic = intermediate_casimirs(ctx)
    c12, c23 = ic["C12"], ic["C23"]
    rhs = ic["C13_0"] + ic["C1"] * ic["C3"] + ic["C2"] * ic["C123"]
    inv_qdiff = D.one / (D.q(1) - D.q(-1))
    chosen = ((c12 * c23).scale(D.q(1))
              - (c23 * c12).scale(D.q(-1))).scale(inv_qdiff) - rhs
    rejected = ((c12 * c23).scale(D.q(-1))
                - (c23 * c12).scale(D.q(1))).scale(inv_qdiff) - rhs
    _report("bracket-calibration",
            chosen.is_zero() and not rejected.is_zero(),
            f"chosen_residual={chosen.nnz()} rejected_residual={rejected.nnz()}")
