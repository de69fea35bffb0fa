"""Mutants of the inputs that the leg-factor and leg-certified checks rest on.

Each test perturbs one input, runs suite "all" in exact mode and in eval
mode with three points, and asserts that the checks built on that input
fail.  Check groups that do not use the input are left out of the run.
A perturbed object that could sit in a scalar domain's memo is built only
after SYMBOLIC.clear_memo(), and the memo is cleared again afterwards, so no
mutant outlives its test (eval points use fresh domains).
"""

import pytest

from qaw import algebra as alg
from qaw import checks
from qaw import representations as reps
from qaw.algebra import TensorElement
from qaw.checks import RunConfig, run_suite
from qaw.representations import ExactMatrix, InternalMismatchError
from qaw.scalars import SYMBOLIC

RUNS = pytest.mark.parametrize("spins, mode", [
    ((1, 1, 1), "exact"), ((1, 1, 1), "eval"), ((2, 1, 2), "exact"), ((2, 1, 2), "eval")])

TAU_NAMES = ("casimir", "kinv_e", "kinv_squared", "f_kinv")

GROUPS = {"structure": "check_structure", "rmatrix": "check_rmatrix_axioms",
          "theorem": "check_theorem_c13", "tau": "check_tau", "aw3": "check_aw3",
          "aw3-symbolic": "check_aw3_symbolic", "aw4": "check_aw4"}

RESTRICTED_C12 = ("aw3.relation[C12,C23]", "aw3.relation[C13_0,C12]",
                  "aw3.relation[C23,C13_0]", "aw3.relation[C23,C12]",
                  "aw3.relation[C12,C13_1]", "aw3.relation[C13_1,C23]",
                  "aw3.bracket_calibration", "theorem.central_elements_commute")


@pytest.fixture
def fresh_symbolic():
    SYMBOLIC.clear_memo()
    yield
    SYMBOLIC.clear_memo()


def _report(monkeypatch, groups, spins, mode):
    """The checks of suite "all" by name, with only the named check groups run."""
    for group, fn in GROUPS.items():
        if group not in groups:
            monkeypatch.setattr(checks, fn, lambda *args: [])
    config = RunConfig(spins=spins, mode=mode, eval_points=3)
    return {c.name: c for c in run_suite("all", config).checks}


def _verdicts(monkeypatch, groups, spins, mode):
    """Verdicts of suite "all" with only the named check groups run."""
    return {name: c.passed for name, c in _report(monkeypatch, groups, spins, mode).items()}


def _failed(verdicts):
    return {name for name, passed in verdicts.items() if not passed}


def _plus_top_entry(m: ExactMatrix, domain) -> ExactMatrix:
    """m with 1 added at (0, 0), the highest weight of every leg.

    It commutes with the weight operators but not with the raising
    operators, so a centralizer residual sees it.
    """
    return m + type(m)(m.dim, {(0, 0): domain.one})


@RUNS
def test_perturbed_split_r(monkeypatch, spins, mode):
    # One entry in the row of basis vector (1, 0, 0): there the residual of
    # each right coaction with x = E, F, K is nonzero.
    real = reps.coproduct_split_r
    monkeypatch.setattr(reps, "coproduct_split_r", lambda ctx, side: real(ctx, side) + ctx.matrix(
        ctx.total_dim, {(ctx.strides[0], 0): ctx.domain.one}))
    failed = _failed(_verdicts(monkeypatch, ("rmatrix", "tau"), spins, mode))
    # tau.right_coaction[C] cannot fail: C acts on leg 1 as a scalar, so both
    # sides of its identity are that scalar times Y, whatever Y is.
    assert failed == {"rmatrix.split_id_coproduct", "rmatrix.split_coproduct_id",
                      "tau.right_coaction[E]", "tau.right_coaction[F]",
                      "tau.right_coaction[K]"}


@RUNS
def test_perturbed_tau_closed_form_coefficient(monkeypatch, spins, mode):
    # Double the coefficient of one term in each closed form.
    real = alg._tau_image

    def perturbed(name):
        image = real(name)
        key, c = min(image.items(), key=lambda kv: kv[0])
        return image + TensorElement(2, {key: c})
    monkeypatch.setattr(alg, "_tau_image", perturbed)
    verdicts = _verdicts(monkeypatch, ("tau",), spins, mode)
    for name in TAU_NAMES:
        assert not verdicts[f"tau.closed_form[{name}]"], name
    # Both sides of the coaction identity are linear in tau(x), so it cannot
    # see a one-term image rescaled: tau(q^-H E) = q^-2H @ q^-H E.
    for name in ("casimir", "kinv_squared", "f_kinv"):
        assert not verdicts[f"tau.left_coaction[{name}]"], name
    # tau.c13_via_coaction applies tau as a conjugation, not the closed
    # forms; test_perturbed_tau_map covers it.
    assert verdicts["tau.c13_via_coaction"]


@RUNS
def test_perturbed_tau_map(monkeypatch, spins, mode):
    real = checks._tau_matrix
    monkeypatch.setattr(checks, "_tau_matrix",
                        lambda pair, mat: real(pair, mat).scale(pair.domain.integer(2)))
    verdicts = _verdicts(monkeypatch, ("tau",), spins, mode)
    for name in TAU_NAMES:
        assert not verdicts[f"tau.closed_form[{name}]"], name
        assert not verdicts[f"tau.left_coaction[{name}]"], name
    assert not verdicts["tau.c13_via_coaction"]


@RUNS
def test_perturbed_generator_entry(monkeypatch, fresh_symbolic, spins, mode):
    def perturbed(two_j, domain):
        mod = reps.SpinModule(two_j, domain)  # a copy: the memoised module stays intact
        if two_j:
            mod.e = mod.e + mod.matrix(mod.dim, {(0, 1): domain.one})
        return mod
    monkeypatch.setattr(reps, "spin_module", perturbed)
    try:
        verdicts = _verdicts(monkeypatch, ("structure",), spins, mode)
    except InternalMismatchError:
        pass
    else:
        assert not verdicts["structure.represent_morphism"]
    monkeypatch.undo()
    SYMBOLIC.clear_memo()
    assert _verdicts(monkeypatch, ("structure",), spins, mode)["structure.represent_morphism"]


@RUNS
def test_perturbed_conjugators(monkeypatch, spins, mode):
    real = checks.RunStore.leg

    def perturbed(store, name):
        m = real(store, name)
        return _plus_top_entry(m, store.ctx.domain) if name[0] == "X" else m
    monkeypatch.setattr(checks.RunStore, "leg", perturbed)
    report = _report(monkeypatch, ("theorem",), spins, mode)
    assert _failed({n: c.passed for n, c in report.items()}) == {
        "theorem.conjugation_r12", "theorem.conjugation_r23"}
    for legs in ("12", "23"):
        assert report[f"theorem.conjugation_r{legs}"].witness.endswith(
            f"premise theorem.centralizer[X{legs}] failed")


@RUNS
def test_perturbed_pair_casimir(monkeypatch, spins, mode):
    real = reps.leg_casimir
    monkeypatch.setattr(reps, "leg_casimir", lambda legs, ctx: _plus_top_entry(
        real(legs, ctx), ctx.domain) if legs == (1, 2) else real(legs, ctx))
    report = _report(monkeypatch, ("theorem", "aw3"), spins, mode)
    assert _failed({n: c.passed for n, c in report.items()}) == {
        "theorem.centralizer[C12]", *RESTRICTED_C12}
    for name in RESTRICTED_C12:
        assert report[name].witness.endswith("premise theorem.centralizer[C12] failed"), name


@pytest.mark.parametrize("mode", ["exact", "eval"])
@pytest.mark.parametrize("legs", [(1, 3), (2, 4)])
def test_perturbed_pair_casimir_on_four_legs(monkeypatch, mode, legs):
    real = reps.leg_casimir
    monkeypatch.setattr(reps, "leg_casimir", lambda on, ctx: _plus_top_entry(
        real(on, ctx), ctx.domain) if on == legs and ctx.arity == 4 else real(on, ctx))
    failed = _failed(_verdicts(monkeypatch, ("aw4",), (1, 1, 1, 1), mode))
    # aw4.commutator cannot fail here: C13_0 and C24_1 are conjugates, by
    # the same Rt23, of C13 and C24, which act on disjoint legs.
    assert failed == {"aw4.c13_0_two_routes" if legs == (1, 3) else "aw4.c24_1_two_routes"}


@pytest.mark.parametrize("mode", ["exact", "eval"])
def test_perturbed_c24_1_conjugation(monkeypatch, mode):
    # On four legs the second Rt23^-1 of each context conjugates C24 into
    # C24_1.  An off-diagonal entry there breaks C24_1 alone, so it no longer
    # commutes with C13_0; a diagonal one, at (0, 0) or (5, 5), would not.
    real = reps.r_tilde_inverse
    seen = []

    def perturbed(legs, ctx):
        m = real(legs, ctx)
        if legs != (2, 3) or ctx.arity != 4:
            return m
        seen.append(ctx)
        if sum(c is ctx for c in seen) != 2:
            return m
        return m + ctx.matrix(m.dim, {(1, 2): ctx.domain.one})
    monkeypatch.setattr(reps, "r_tilde_inverse", perturbed)
    failed = _failed(_verdicts(monkeypatch, ("aw4",), (1, 1, 1, 1), mode))
    assert failed == {"aw4.c24_1_two_routes", "aw4.commutator[C13_0,C24_1]"}


@RUNS
@pytest.mark.parametrize("group, message", [
    ("rmatrix", "flip-conjugated R and the reordered series disagree"),
    ("theorem", r"closed-form R\^-1 failed the product check")])
def test_perturbed_r_core(monkeypatch, fresh_symbolic, spins, mode, group, message):
    # R certifies itself when it is built: Rtilde (built first by the
    # rmatrix checks) compares flip-conjugated R with the reordered series,
    # and R^-1 (built first by the theorem checks) checks R R^-1 = 1.
    real = reps._r_core
    monkeypatch.setattr(reps, "_r_core", lambda a, b, extra: _plus_top_entry(
        real(a, b, extra), a.domain))
    with pytest.raises(InternalMismatchError, match=message):
        _verdicts(monkeypatch, (group,), spins, mode)


@RUNS
def test_flipped_q_commutator_sign(monkeypatch, spins, mode):
    # q xy + 1/q yx in place of q xy - 1/q yx, in the matrix and the symbolic
    # relations.
    monkeypatch.setattr(alg, "q_bracket", lambda xy, yx, kx, ky: xy.scale(kx) + yx.scale(ky))
    verdicts = _verdicts(monkeypatch, ("aw3", "aw3-symbolic"), spins, mode)
    for name in [n for n in verdicts if n.startswith("aw3.relation[")] + [
            "aw3.bracket_calibration", "aw3-symbolic.relation[C12,C23]"]:
        assert not verdicts[name], name


@RUNS
def test_reused_bracket_convention(monkeypatch, spins, mode):
    # Each product xy keeps the (kx, ky) it was first bracketed with, so the
    # reversed convention gives back the chosen difference: only the two
    # calibrations ask for it.
    real, first = alg.q_bracket, {}  # each xy is kept, so its id is not reused

    def reused(xy, yx, kx, ky):
        _, kx, ky = first.setdefault(id(xy), (xy, kx, ky))
        return real(xy, yx, kx, ky)
    monkeypatch.setattr(alg, "q_bracket", reused)
    failed = {name: c for name, c in _report(monkeypatch, GROUPS, spins, mode).items()
              if not c.passed}
    assert failed.keys() == {"aw3.bracket_calibration", "aw3-symbolic.bracket_calibration"}
    for c in failed.values():
        assert c.residual_terms == 1
        assert c.witness.endswith("rejected bracket convention also satisfied")
