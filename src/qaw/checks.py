"""The catalog of verified identities, as runnable checks with structured results.

Each check computes a difference (of tensor elements or exact matrices) that
the identity asserts to be zero, and reports the residual: the count of
nonzero terms or entries, plus one witness entry in canonical text.  Exact
arithmetic has no meaningful norm, so a check passes if and only if the
residual count is zero.

Suites run either in exact mode (over the symbolic field Q(s)) or in eval
mode, where the whole computation is repeated over plain rationals at
seeded random admissible sample points; a nonzero rational function is
nonzero at almost every point, so eval mode reproduces exact verdicts.  It
rebuilds the whole pipeline at every point, so it costs more than one exact
run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import algebra as alg
from . import representations as reps
from .algebra import TensorElement
from .representations import ExactMatrix, TensorContext, tensor_context
from .scalars import (SYMBOLIC, PointDomain, PoleError, ScalarDomain,
                      random_admissible_point)

TOOL_VERSION = "0.1.0"

SUITE_NAMES = ("structure", "rmatrix", "theorem", "tau", "aw3",
               "aw3-symbolic", "aw4", "all")


class UnknownSuiteError(ValueError):
    """Raised for a suite name outside SUITE_NAMES."""


class ConfigurationError(ValueError):
    """Raised for inconsistent run configuration (arity, points, ...)."""


@dataclass(frozen=True)
class RunConfig:
    suite: str = "all"
    spins: tuple[int, ...] = (1, 1, 1)
    mode: str = "exact"
    eval_points: int = 20
    rng_seed: int = 0
    output: str = "text"
    output_path: str | None = None
    verbose: bool = False
    negative_control: bool = False

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "spins": list(self.spins),
            "mode": self.mode,
            "eval_points": self.eval_points,
            "rng_seed": self.rng_seed,
            "negative_control": self.negative_control,
        }


@dataclass
class CheckResult:
    name: str
    params: dict
    passed: bool
    residual_terms: int
    witness: str
    runtime_ms: int

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "passed": self.passed,
            "residual_terms": self.residual_terms,
            "witness": self.witness,
            "runtime_ms": self.runtime_ms,
        }


@dataclass
class SuiteReport:
    suite: str
    version: str
    config: dict
    checks: list[CheckResult] = field(default_factory=list)
    passed: bool = True

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "version": self.version,
            "config": self.config,
            "checks": [c.as_dict() for c in self.checks],
            "passed": self.passed,
        }


# ---------------------------------------------------------------------------
# residual extraction
# ---------------------------------------------------------------------------

def _residual_entries(diff) -> list[str]:
    if isinstance(diff, TensorElement):
        return [f"{(c.text() if hasattr(c, 'text') else str(c))} :: "
                + "|".join(m.text() for m in key)
                for key, c in sorted(diff.items(), key=lambda kv: kv[0])]
    if isinstance(diff, ExactMatrix):
        return [f"{r} {c} :: {(v.text() if hasattr(v, 'text') else str(v))}"
                for (r, c), v in sorted(diff.items(), key=lambda kv: kv[0])]
    raise TypeError(f"cannot extract a residual from {diff!r}")


def _make_result(name: str, params: dict, diffs, started: float) -> CheckResult:
    """Build a CheckResult from one or more must-be-zero differences."""
    if not isinstance(diffs, (list, tuple)):
        diffs = [diffs]
    entries: list[str] = []
    for d in diffs:
        entries.extend(_residual_entries(d))
    witness = max(entries, key=lambda t: (len(t), t)) if entries else ""
    return CheckResult(
        name=name,
        params=params,
        passed=not entries,
        residual_terms=len(entries),
        witness=witness,
        runtime_ms=int((time.perf_counter() - started) * 1000),
    )


def _params(ctx_or_domain, **extra) -> dict:
    if isinstance(ctx_or_domain, TensorContext):
        p = {"spins": list(ctx_or_domain.spins),
             "mode": ctx_or_domain.domain.mode,
             "point": ctx_or_domain.domain.describe()}
    else:
        p = {"mode": ctx_or_domain.mode, "point": ctx_or_domain.describe()}
    p.update(extra)
    return p


# ---------------------------------------------------------------------------
# structure checks: defining relations, centrality, coassociativity, morphism
# ---------------------------------------------------------------------------

def check_structure(ctx: TensorContext, rng_seed: int = 0) -> list[CheckResult]:
    domain = ctx.domain
    out = []

    for two_j in sorted(set(ctx.spins)):
        t0 = time.perf_counter()
        diffs = reps.spin_module(two_j, domain).defining_relations()
        out.append(_make_result(f"structure.defining_relations[two_j={two_j}]",
                                _params(ctx), diffs, t0))

    t0 = time.perf_counter()
    c = alg.casimir(domain)
    diffs = [c * alg.generator(domain, g) - alg.generator(domain, g) * c
             for g in ("E", "F", "K")]
    out.append(_make_result("structure.casimir_centrality", _params(ctx), diffs, t0))

    t0 = time.perf_counter()
    elems = [alg.generator(domain, "E"), alg.generator(domain, "F"),
             alg.generator(domain, "K"), c]
    diffs = [alg.coproduct_on_leg(alg.coproduct(x), 1)
             - alg.coproduct_on_leg(alg.coproduct(x), 2) for x in elems]
    out.append(_make_result("structure.coassociativity", _params(ctx), diffs, t0))

    t0 = time.perf_counter()
    rng = random.Random(rng_seed)
    diffs = []
    for _ in range(3):
        x = alg.random_element(domain, ctx.arity, rng, max_power=1, max_k=1)
        y = alg.random_element(domain, ctx.arity, rng, max_power=1, max_k=1)
        diffs.append(reps.represent(x * y, ctx)
                     - reps.represent(x, ctx) * reps.represent(y, ctx))
    diffs.append(reps.represent(alg.unit_element(domain, ctx.arity), ctx)
                 - ctx.identity())
    out.append(_make_result("structure.represent_morphism",
                            _params(ctx, trials=3, seed=rng_seed), diffs, t0))

    for two_j in sorted(set(ctx.spins)):
        t0 = time.perf_counter()
        leg = tensor_context((two_j,), domain)
        mat = reps.represent(c, leg)
        oracle = reps.casimir_scalar_highest_weight(two_j, domain)
        diffs = [mat - ExactMatrix.identity(leg.total_dim, domain.one).scale(oracle)]
        out.append(_make_result(f"structure.casimir_scalar[two_j={two_j}]",
                                _params(ctx), diffs, t0))
    return out


# ---------------------------------------------------------------------------
# R-matrix axiom checks
# ---------------------------------------------------------------------------

def _leg_pairs(n: int):
    return [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]


def check_rmatrix_axioms(ctx: TensorContext) -> list[CheckResult]:
    if ctx.arity < 2:
        raise alg.ArityMismatchError("R-matrix checks need at least two legs")
    domain = ctx.domain
    out = []
    gens = [alg.generator(domain, g) for g in ("E", "F", "K")]

    for legs in _leg_pairs(ctx.arity):
        a, b = legs
        pair = tensor_context((ctx.spins[a - 1], ctx.spins[b - 1]), domain)
        rr = reps.r_matrix((1, 2), pair)
        rt = reps.r_tilde((1, 2), pair)

        t0 = time.perf_counter()
        diffs = [reps.represent(alg.coproduct(x), pair) * rr
                 - rr * reps.represent(alg.coproduct_op(x), pair) for x in gens]
        out.append(_make_result(f"rmatrix.intertwining[legs={a}{b}]",
                                _params(ctx, legs=[a, b]), diffs, t0))

        t0 = time.perf_counter()
        diffs = [reps.represent(alg.coproduct_op(x), pair) * rt
                 - rt * reps.represent(alg.coproduct(x), pair) for x in gens]
        out.append(_make_result(f"rmatrix.opposite_intertwining[legs={a}{b}]",
                                _params(ctx, legs=[a, b]), diffs, t0))

        t0 = time.perf_counter()
        diffs = [rr * reps.r_matrix_inverse((1, 2), pair) - pair.identity()]
        out.append(_make_result(f"rmatrix.invertibility[legs={a}{b}]",
                                _params(ctx, legs=[a, b]), diffs, t0))

        t0 = time.perf_counter()
        via_flip, via_series = reps._rt_core_two_ways(pair.modules[0], pair.modules[1])
        out.append(_make_result(f"rmatrix.flip_series_agreement[legs={a}{b}]",
                                _params(ctx, legs=[a, b]), [via_flip - via_series], t0))

        t0 = time.perf_counter()
        bound = min(pair.spins[0], pair.spins[1])
        diffs = [reps.r_series_term((1, 2), pair, bound + 1),
                 reps.r_matrix((1, 2), pair, extra_terms=1) - rr]
        out.append(_make_result(f"rmatrix.truncation[legs={a}{b}]",
                                _params(ctx, legs=[a, b], bound=bound), diffs, t0))

    if ctx.arity >= 3:
        sub = ctx if ctx.arity == 3 else tensor_context(ctx.spins[:3], domain)
        r12 = reps.r_matrix((1, 2), sub)
        r13 = reps.r_matrix((1, 3), sub)
        r23 = reps.r_matrix((2, 3), sub)

        t0 = time.perf_counter()
        diffs = [r12 * r13 * r23 - r23 * r13 * r12]
        out.append(_make_result("rmatrix.yang_baxter", _params(sub), diffs, t0))

        t0 = time.perf_counter()
        diffs = [reps.coproduct_split_r(sub, "id_coproduct") - r12 * r13]
        out.append(_make_result("rmatrix.split_id_coproduct", _params(sub), diffs, t0))

        t0 = time.perf_counter()
        diffs = [reps.coproduct_split_r(sub, "coproduct_id") - r23 * r13]
        out.append(_make_result("rmatrix.split_coproduct_id", _params(sub), diffs, t0))
    return out


# ---------------------------------------------------------------------------
# theorem checks: the two centralizing elements and their conjugation
# ---------------------------------------------------------------------------

def check_theorem_c13(ctx: TensorContext) -> list[CheckResult]:
    if ctx.arity != 3:
        raise alg.ArityMismatchError("theorem checks need exactly three legs")
    domain = ctx.domain
    ic = reps.intermediate_casimirs(ctx)
    out = []

    t0 = time.perf_counter()
    out.append(_make_result("theorem.c13_0_two_routes", _params(ctx),
                            [ic["C13_0"] - ic["C13_0_via_r12"]], t0))
    t0 = time.perf_counter()
    out.append(_make_result("theorem.c13_1_two_routes", _params(ctx),
                            [ic["C13_1"] - ic["C13_1_via_r23"]], t0))

    diag = {g: reps.represent(
        alg.extend_coproduct(alg.generator(domain, g), (1, 2, 3), 3), ctx)
        for g in ("E", "F", "K")}
    for name in ("C12", "C23", "C13_0", "C13_1", "C123"):
        t0 = time.perf_counter()
        mat = ic[name]
        diffs = [dx * mat - mat * dx for dx in diag.values()]
        out.append(_make_result(f"theorem.centralizer[{name}]", _params(ctx), diffs, t0))

    # Partial check that the one-leg Casimirs and the total Casimir are
    # central in the centralizer: they commute with every constructed
    # centralizing element (the full centralizer is not enumerable).
    t0 = time.perf_counter()
    diffs = []
    for central in ("C1", "C2", "C3", "C123"):
        for name in ("C12", "C23", "C13_0", "C13_1"):
            a, b = ic[central], ic[name]
            diffs.append(a * b - b * a)
    out.append(_make_result("theorem.central_elements_commute", _params(ctx), diffs, t0))

    # C13_1 = (R23 Rt23) C13_0 (R23 Rt23)^-1 = (R12 Rt12)^-1 C13_0 (R12 Rt12).
    for legs, inverse_left in (((2, 3), False), ((1, 2), True)):
        r, rt = reps.r_matrix(legs, ctx), reps.r_tilde(legs, ctx)
        ri, rti = reps.r_matrix_inverse(legs, ctx), reps.r_tilde_inverse(legs, ctx)
        t0 = time.perf_counter()
        conj, conj_inv = r * rt, rti * ri
        left, right = (conj_inv, conj) if inverse_left else (conj, conj_inv)
        out.append(_make_result(f"theorem.conjugation_r{legs[0]}{legs[1]}", _params(ctx),
                                [ic["C13_1"] - left * ic["C13_0"] * right], t0))

    t0 = time.perf_counter()
    sym = reps.represent(alg.c13_zero_symbolic(domain), ctx)
    out.append(_make_result("theorem.c13_0_symbolic_route", _params(ctx),
                            [sym - ic["C13_0"]], t0))
    return out


# ---------------------------------------------------------------------------
# coaction checks
# ---------------------------------------------------------------------------

def _tau_matrix(pair: TensorContext, mat: ExactMatrix) -> ExactMatrix:
    """Matrix form of the left coaction: Rtilde^-1 (1 @ mat) Rtilde on the pair."""
    lifted = ExactMatrix.identity(pair.dims[0], pair.domain.one).kron(mat)
    return reps.r_tilde_inverse((1, 2), pair) * lifted * reps.r_tilde((1, 2), pair)


def _id_tau_matrix(x: TensorElement, ctx3: TensorContext) -> ExactMatrix:
    """(id @ tau)(x) on a 3-leg context: sum of c u @ tau(v) over the terms c u@v of x."""
    pair23 = tensor_context(ctx3.spins[1:], ctx3.domain)
    acc = None
    for (u, v), coeff in x.items():
        term = ctx3.modules[0].monomial(u).kron(
            _tau_matrix(pair23, ctx3.modules[2].monomial(v))).scale(coeff)
        acc = term if acc is None else acc + term
    return acc


def check_tau(ctx2: TensorContext, ctx3: TensorContext) -> list[CheckResult]:
    if ctx2.arity != 2 or ctx3.arity != 3:
        raise alg.ArityMismatchError("tau checks need a 2-leg and a 3-leg context")
    if ctx2.domain != ctx3.domain:
        raise alg.ArityMismatchError("contexts use different scalar domains")
    domain = ctx2.domain
    out = []
    args = alg.tau_argument_elements(domain)

    second_leg = tensor_context((ctx2.spins[1],), domain)
    for name, x in args.items():
        t0 = time.perf_counter()
        closed = reps.represent(alg.tau_closed_form(x), ctx2)
        conjugated = _tau_matrix(ctx2, reps.represent(x, second_leg))
        out.append(_make_result(f"tau.closed_form[{name}]",
                                _params(ctx2), [closed - conjugated], t0))

    for name, x in args.items():
        t0 = time.perf_counter()
        tau_x = alg.tau_closed_form(x)
        lhs = reps.represent(alg.coproduct_on_leg(tau_x, 1), ctx3)
        out.append(_make_result(f"tau.left_coaction[{name}]",
                                _params(ctx3), [lhs - _id_tau_matrix(tau_x, ctx3)], t0))

    pair13 = tensor_context((ctx3.spins[0], ctx3.spins[2]), domain)
    split = reps.coproduct_split_r(ctx3, "id_coproduct")
    r12 = reps.r_matrix((1, 2), ctx3)
    r12i = reps.r_matrix_inverse((1, 2), ctx3)
    r13p = reps.r_matrix((1, 2), pair13)
    r13pi = reps.r_matrix_inverse((1, 2), pair13)
    for g in ("E", "F", "K", "C"):
        t0 = time.perf_counter()
        x = alg.casimir(domain) if g == "C" else alg.generator(domain, g)
        x1 = reps.represent(alg.extend_coproduct(x, (1,), 3), ctx3)
        x_on_1 = reps.represent(x, tensor_context((ctx3.spins[0],), domain))
        tau_check = r13p * x_on_1.kron(
            ExactMatrix.identity(pair13.dims[1], domain.one)) * r13pi
        lhs = r12 * reps.embed_two_leg(tau_check, (1, 3), ctx3) * r12i
        # (id @ D) tau_check(x) = split x_1 split^-1; compare in product form
        # so the 3-leg matrix never needs inverting.
        out.append(_make_result(f"tau.right_coaction[{g}]",
                                _params(ctx3), [lhs * split - split * x1], t0))

    t0 = time.perf_counter()
    acc = _id_tau_matrix(alg.coproduct(alg.casimir(domain)), ctx3)
    c13 = reps.represent(alg.extend_coproduct(alg.casimir(domain), (1, 3), 3), ctx3)
    direct = reps.r_tilde_inverse((2, 3), ctx3) * c13 * reps.r_tilde((2, 3), ctx3)
    out.append(_make_result("tau.c13_via_coaction", _params(ctx3), [acc - direct], t0))
    return out


# ---------------------------------------------------------------------------
# the Askey-Wilson relations
# ---------------------------------------------------------------------------

def _q_comm_matrices(domain, x: ExactMatrix, y: ExactMatrix,
                     reverse: bool = False) -> ExactMatrix:
    qp, qm = domain.q(1), domain.q(-1)
    if reverse:
        qp, qm = qm, qp
    return (x * y).scale(qp) - (y * x).scale(qm)


def _bracket_calibration(name: str, params: dict, chosen, rejected,
                         started: float) -> CheckResult:
    """The relation's difference must vanish for the chosen bracket, not the reversed one."""
    entries = _residual_entries(chosen)
    residual = len(entries) + (1 if rejected.is_zero() else 0)
    return CheckResult(
        name=name,
        params=dict(params, convention="q*xy - 1/q*yx"),
        passed=residual == 0,
        residual_terms=residual,
        witness="" if residual == 0 else "rejected bracket convention also satisfied"
        if rejected.is_zero() else entries[0],
        runtime_ms=int((time.perf_counter() - started) * 1000),
    )


def check_aw3(ctx: TensorContext) -> list[CheckResult]:
    if ctx.arity != 3:
        raise alg.ArityMismatchError("AW(3) checks need exactly three legs")
    domain = ctx.domain
    ic = reps.intermediate_casimirs(ctx)
    inv_qdiff = domain.one / (domain.q(1) - domain.q(-1))
    c12, c23 = ic["C12"], ic["C23"]
    c13_0, c13_1 = ic["C13_0"], ic["C13_1"]
    c1c3 = ic["C1"] * ic["C3"]
    c1c2 = ic["C1"] * ic["C2"]
    c2c3 = ic["C2"] * ic["C3"]
    c2c123 = ic["C2"] * ic["C123"]
    c1c123 = ic["C1"] * ic["C123"]
    c3c123 = ic["C3"] * ic["C123"]
    out = []

    relations = [
        ("aw3.relation[C12,C23]", c12, c23, c13_0 + c1c3 + c2c123),
        ("aw3.relation[C13_0,C12]", c13_0, c12, c23 + c2c3 + c1c123),
        ("aw3.relation[C23,C13_0]", c23, c13_0, c12 + c1c2 + c3c123),
        ("aw3.relation[C23,C12]", c23, c12, c13_1 + c1c3 + c2c123),
        ("aw3.relation[C12,C13_1]", c12, c13_1, c23 + c2c3 + c1c123),
        ("aw3.relation[C13_1,C23]", c13_1, c23, c12 + c1c2 + c3c123),
    ]
    for name, x, y, rhs in relations:
        t0 = time.perf_counter()
        lhs = _q_comm_matrices(domain, x, y).scale(inv_qdiff)
        out.append(_make_result(name, _params(ctx), [lhs - rhs], t0))

    t0 = time.perf_counter()
    rhs = c13_0 + c1c3 + c2c123
    chosen = _q_comm_matrices(domain, c12, c23).scale(inv_qdiff) - rhs
    rejected = _q_comm_matrices(domain, c12, c23, reverse=True).scale(inv_qdiff) - rhs
    out.append(_bracket_calibration("aw3.bracket_calibration", _params(ctx),
                                    chosen, rejected, t0))
    return out


def check_aw3_symbolic(domain: ScalarDomain) -> list[CheckResult]:
    c = alg.casimir(domain)
    c12 = alg.extend_coproduct(c, (1, 2), 3)
    c23 = alg.extend_coproduct(c, (2, 3), 3)
    c1 = alg.extend_coproduct(c, (1,), 3)
    c2 = alg.extend_coproduct(c, (2,), 3)
    c3 = alg.extend_coproduct(c, (3,), 3)
    c123 = alg.extend_coproduct(c, (1, 2, 3), 3)
    inv_qdiff = domain.one / (domain.q(1) - domain.q(-1))
    rhs = alg.c13_zero_symbolic(domain) + c1 * c3 + c2 * c123
    out = []

    t0 = time.perf_counter()
    lhs = alg.q_commutator(c12, c23).scale(inv_qdiff)
    out.append(_make_result("aw3-symbolic.relation[C12,C23]",
                            _params(domain), [lhs - rhs], t0))

    t0 = time.perf_counter()
    d = domain
    reversed_bracket = ((c12 * c23).scale(d.q(-1))
                        - (c23 * c12).scale(d.q(1))).scale(inv_qdiff)
    out.append(_bracket_calibration("aw3-symbolic.bracket_calibration", _params(domain),
                                    lhs - rhs, reversed_bracket - rhs, t0))
    return out


def check_aw4(ctx: TensorContext) -> list[CheckResult]:
    if ctx.arity != 4:
        raise alg.ArityMismatchError("AW(4) checks need exactly four legs")
    ic = reps.intermediate_casimirs(ctx)
    out = []

    t0 = time.perf_counter()
    out.append(_make_result("aw4.c13_0_two_routes", _params(ctx),
                            [ic["C13_0"] - ic["C13_0_via_r12"]], t0))
    t0 = time.perf_counter()
    out.append(_make_result("aw4.c24_1_two_routes", _params(ctx),
                            [ic["C24_1"] - ic["C24_1_via_r34"]], t0))
    t0 = time.perf_counter()
    a, b = ic["C13_0"], ic["C24_1"]
    out.append(_make_result("aw4.commutator[C13_0,C24_1]", _params(ctx),
                            [a * b - b * a], t0))
    return out


# ---------------------------------------------------------------------------
# negative control
# ---------------------------------------------------------------------------

def negative_control_check(domain: ScalarDomain) -> CheckResult:
    """A deliberately corrupted generator matrix; must FAIL (nonzero residual)."""
    t0 = time.perf_counter()
    mod = reps.spin_module(1, domain)
    bad = mod.e + ExactMatrix(mod.dim, {(0, 0): domain.one})
    diff = mod.k * bad - (bad * mod.k).scale(domain.q(1))
    return _make_result("negative_control.corrupted_generator",
                        _params(domain), [diff], t0)


# ---------------------------------------------------------------------------
# the suite runner
# ---------------------------------------------------------------------------

_SUITE_ARITY = {"structure": 3, "rmatrix": 3, "theorem": 3, "tau": 2,
                "aw3": 3, "aw3-symbolic": 3, "aw4": 4}


def validate_config(name: str, config: RunConfig):
    if name not in SUITE_NAMES:
        raise UnknownSuiteError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if config.mode not in ("exact", "eval"):
        raise ConfigurationError(f"unknown mode {config.mode!r}")
    if config.mode == "eval" and config.eval_points < 1:
        raise ConfigurationError("eval mode needs at least one sample point")
    if any(t < 0 for t in config.spins):
        raise ConfigurationError("spins are two_j values and must be nonnegative")
    n = len(config.spins)
    if name == "all":
        if n not in (3, 4):
            raise ConfigurationError("suite 'all' needs 3 or 4 spins")
    elif n != _SUITE_ARITY[name]:
        raise ConfigurationError(
            f"suite {name!r} needs {_SUITE_ARITY[name]} spins, got {n}")


def _suite_tasks(name: str, config: RunConfig, domain: ScalarDomain):
    """The list of check-group callables for one suite run on one domain."""
    spins = config.spins
    tasks = []
    def ctx3():
        return tensor_context(spins[:3], domain)

    if name in ("structure", "all"):
        tasks.append(lambda: check_structure(ctx3(), config.rng_seed))
    if name in ("rmatrix", "all"):
        tasks.append(lambda: check_rmatrix_axioms(ctx3()))
    if name in ("theorem", "all"):
        tasks.append(lambda: check_theorem_c13(ctx3()))
    if name in ("tau", "all"):
        three = spins + (spins[-1],) if name == "tau" else spins[:3]
        tasks.append(lambda: check_tau(tensor_context(spins[:2], domain),
                                       tensor_context(three, domain)))
    if name in ("aw3-symbolic", "all"):
        tasks.append(lambda: check_aw3_symbolic(domain))
    if name in ("aw3", "all"):
        tasks.append(lambda: check_aw3(ctx3()))
    if name == "aw4" or (name == "all" and len(spins) == 4):
        tasks.append(lambda: check_aw4(tensor_context(spins[:4], domain)))
    if config.negative_control:
        tasks.append(lambda: [negative_control_check(domain)])
    return tasks


def _run_once(name: str, config: RunConfig, domain: ScalarDomain) -> list[CheckResult]:
    results = [r for task in _suite_tasks(name, config, domain) for r in task()]
    results.sort(key=lambda r: r.name)
    return results


def _merge_eval(runs: list[tuple[str, list[CheckResult]]],
                config: RunConfig) -> list[CheckResult]:
    names = [r.name for r in runs[0][1]]
    by_name = []
    for point, results in runs:
        checks = {r.name: r for r in results}
        if len(checks) != len(results) or checks.keys() != set(names):
            raise reps.InternalMismatchError(f"checks at {runs[0][0]} and at {point} differ")
        by_name.append((point, checks))
    merged = []
    for name in names:
        per_point = [(point, checks[name]) for point, checks in by_name]
        failed = [(p, r) for p, r in per_point if not r.passed]
        worst = max((r.residual_terms for _, r in per_point), default=0)
        witness = ""
        if failed:
            p, r = failed[0]
            witness = f"at {p}: {r.witness}"
        params = dict(per_point[0][1].params)
        params.update({
            "mode": "eval",
            "point": "merged",
            "points": len(per_point),
            "seed": config.rng_seed,
            "failed_points": len(failed),
        })
        merged.append(CheckResult(
            name=name,
            params=params,
            passed=not failed,
            residual_terms=worst,
            witness=witness,
            runtime_ms=sum(r.runtime_ms for _, r in per_point),
        ))
    return merged


def _consistency_extras(results: list[CheckResult]) -> list[CheckResult]:
    """Flag disagreement between the symbolic AW(3) proof and its matrix form.

    A symbolic pass plus the multiplicativity of represent implies the
    matrix-mode pass, so any disagreement is an internal error.
    """
    sym = [r for r in results if r.name == "aw3-symbolic.relation[C12,C23]"]
    mat = [r for r in results if r.name == "aw3.relation[C12,C23]"]
    if not sym or not mat:
        return []
    agree = sym[0].passed == mat[0].passed
    return [CheckResult(
        name="aw3.mode_consistency",
        params={"symbolic_passed": sym[0].passed, "matrix_passed": mat[0].passed},
        passed=agree,
        residual_terms=0 if agree else 1,
        witness="" if agree else "symbolic and representation verdicts disagree",
        runtime_ms=0,
    )]


def run_suite(name: str, config: RunConfig) -> SuiteReport:
    """Execute a suite in the configured mode and aggregate a SuiteReport."""
    validate_config(name, config)
    if config.mode == "exact":
        results = _run_once(name, config, SYMBOLIC)
    else:
        rng = random.Random(config.rng_seed)
        runs = []
        used = set()
        attempts = 0
        while len(runs) < config.eval_points:
            attempts += 1
            if attempts > config.eval_points * 50:
                raise ConfigurationError("could not find enough admissible points")
            s0 = random_admissible_point(rng)
            if s0 in used:
                continue
            used.add(s0)
            try:
                runs.append((f"s={s0}", _run_once(name, config, PointDomain(s0))))
            except PoleError:
                continue
        results = _merge_eval(runs, config)
    results.extend(_consistency_extras(results))
    results.sort(key=lambda r: r.name)
    return SuiteReport(
        suite=name,
        version=TOOL_VERSION,
        config=config.as_dict(),
        checks=results,
        passed=all(r.passed for r in results),
    )
