"""Mutants of the inputs that the leg-factor checks rest on.

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
          "aw3-symbolic": "check_aw3_symbolic"}


@pytest.fixture
def fresh_symbolic():
    SYMBOLIC.clear_memo()
    yield
    SYMBOLIC.clear_memo()


def _verdicts(monkeypatch, groups, spins, mode):
    """Verdicts of suite "all" with only the named check groups run."""
    for group, fn in GROUPS.items():
        if group not in groups:
            monkeypatch.setattr(checks, fn, lambda *args: [])
    config = RunConfig(spins=spins, mode=mode, eval_points=3)
    return {c.name: c.passed for c in run_suite("all", config).checks}


@RUNS
def test_perturbed_split_r(monkeypatch, spins, mode):
    # One entry in the row of basis vector (1, 0, 0): there the residual of
    # each right coaction with x = E, F, K is nonzero.
    real = reps.coproduct_split_r
    monkeypatch.setattr(reps, "coproduct_split_r", lambda ctx, side: real(ctx, side) + ExactMatrix(
        ctx.total_dim, {(ctx.strides[0], 0): ctx.domain.one}))
    verdicts = _verdicts(monkeypatch, ("rmatrix", "tau"), spins, mode)
    failed = {name for name, passed in verdicts.items() if not passed}
    # tau.right_coaction[C] cannot fail: C acts on leg 1 as a scalar, so both
    # sides of its identity are that scalar times Y, whatever Y is.
    assert failed == {"rmatrix.split_id_coproduct", "rmatrix.split_coproduct_id",
                      "tau.right_coaction[E]", "tau.right_coaction[F]",
                      "tau.right_coaction[K]"}


@RUNS
def test_perturbed_tau_closed_form_coefficient(monkeypatch, spins, mode):
    # Double the coefficient of one term in each closed form.
    real = alg._tau_image

    def perturbed(domain, name):
        image = real(domain, name)
        key, c = min(image.items(), key=lambda kv: kv[0])
        return image + TensorElement(domain, 2, {key: c})
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
            mod.e = mod.e + ExactMatrix(mod.dim, {(0, 1): domain.one})
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
