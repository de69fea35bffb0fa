"""The catalog of verified identities, as runnable checks with structured results.

Each check computes a difference (of tensor elements or exact matrices) that
the identity asserts to be zero, and reports the residual: the count of
nonzero terms or entries, plus one witness entry in canonical text.  Exact
arithmetic has no meaningful norm, so a check passes if and only if the
residual count is zero.

Suites run either in exact mode (over the symbolic field Q(s)) or in eval
mode, where the whole computation is repeated at seeded random admissible
sample points s0 = p/r; a nonzero rational function is nonzero at almost
every point, so eval mode reproduces exact verdicts.  Each point is computed
in residues mod the prime P = 2**61 - 1 (``ResidueDomain``).  A residual F/G
whose numerator F is not 0 mod P reads 0 mod P at no more than deg F of the
5704 distinct sample points, which have distinct residues: the deg F / |S|
bound of sampling over Q.  A residue that is nonzero mod P proves the
rational value nonzero, so a failure is never a false alarm.  A check group
that fails at a point is run again there over Q (``PointDomain``), which
supplies the exact witness and residual_terms; a denominator that is 0
mod P runs the whole point over Q.  Eval mode rebuilds the whole pipeline
at every point.

Checks whose residual is a polynomial in centralizer elements run on the
lowest weight space W_low only: the weight space whose total 2m is
(sum of two_j) mod 2.  V = V_j1 @ V_j2 @ V_j3 decomposes as the sum over J
of V_J @ M_J, an element X of the centralizer of the diagonal action acts
as the sum of 1 @ X_J, and W_low meets every V_J, so X is zero exactly when
its block on W_low is zero.  Every operand preserves weight, so the block
is a slice (``block_slice``, which raises InternalMismatchError otherwise).
The restricted checks, and the operands each rests on (its premises):

  aw3.relation[C12,C23], [C13_0,C12], [C23,C13_0], aw3.bracket_calibration:
      C1, C2, C3, C12, C23, C13_0, C123
  aw3.relation[C23,C12], [C12,C13_1], [C13_1,C23]:
      C1, C2, C3, C12, C23, C13_1, C123
  theorem.central_elements_commute: the eight Casimirs above
  theorem.conjugation_r23 / _r12: C13_0, C13_1, X23 = R23 Rt23 / X12 = R12 Rt12

RunStore certifies each operand once per run, by differences that must vanish:

  C1, C2, C3:  [m, c] on its own leg, m = E, F, K, K^-1
  C12, X12:    [D(g), Y] on legs 12, g = E, F, K, K^-1
  C23, X23:    the same on legs 23, and (D @ id)D(g) - (id @ D)D(g), g = E, F, K
  C13_0, C13_1, C123:  [Delta^(2)(g), X] on the full space, g = E, F, K

Delta^(2) = (D @ id)D (``extend_coproduct``), so [Delta^(2)(g), Y @ 1] is
the sum of [D(g_1), Y] @ g_2 and, by coassociativity, [Delta^(2)(g), 1 @ Y]
the sum of g_1 @ [D(g_2), Y], over the terms g_1 @ g_2 of D(g), whose
factors are E, F, K and K^-1.  A leg-certified operand is embedded from the
very matrix that was certified.

The premises of C12, C23, C13_0, C13_1 and C123 are reported as
``theorem.centralizer[...]``; those of C12 and C23 name pair entries.  If a
premise fails, the restricted check fails without running: its witness is
``premise theorem.centralizer[X] failed`` for the first failed premise X
(X12 and X23 included, which have no check of their own), and
residual_terms counts the failed premises.  Otherwise residual_terms and
the witness of a failing restricted check count and name W_low entries
(full-space indices).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import cache, cached_property

from . import algebra as alg
from . import representations as reps
from .algebra import TensorElement
from .representations import ExactMatrix, TensorContext, tensor_context
from .scalars import (SYMBOLIC, PointDomain, PoleError, ResidueDomain,
                      ScalarDomain, random_admissible_point)

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
    """One check's verdict.  runtime_ms is unrounded while a run is in
    progress; run_suite rounds it to an int once, when it builds the report."""

    name: str
    params: dict
    passed: bool
    residual_terms: int
    witness: str
    runtime_ms: float

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
    """A run's verdicts.  setup_ms: time the check groups spent outside their
    checks, on shared operands (summed over eval points); wall_ms: the run."""

    suite: str
    version: str
    config: dict
    checks: list[CheckResult] = field(default_factory=list)
    passed: bool = True
    setup_ms: int = 0
    wall_ms: int = 0

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "version": self.version,
            "config": self.config,
            "checks": [c.as_dict() for c in self.checks],
            "passed": self.passed,
            "setup_ms": self.setup_ms,
            "wall_ms": self.wall_ms,
        }


# ---------------------------------------------------------------------------
# residual extraction
# ---------------------------------------------------------------------------

def _residual_entries(diff) -> list[str]:
    if not isinstance(diff, (TensorElement, ExactMatrix)):
        raise TypeError(f"cannot extract a residual from {diff!r}")
    return [] if diff.is_zero() else diff.text().split("\n")


def _elapsed_ms(started: int) -> float:
    """Milliseconds since the perf_counter_ns reading started, unrounded."""
    return (time.perf_counter_ns() - started) / 1e6


def _make_result(name: str, params: dict, diffs, started: int) -> CheckResult:
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
        runtime_ms=_elapsed_ms(started),
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

def _coassociativity(elems) -> list[TensorElement]:
    """(D @ id)D(x) - (id @ D)D(x) for each x in elems."""
    return [alg.coproduct_on_leg(alg.coproduct(x), 1) - alg.coproduct_on_leg(alg.coproduct(x), 2)
            for x in elems]


def check_structure(ctx: TensorContext, rng_seed: int = 0) -> list[CheckResult]:
    domain = ctx.domain
    out = []

    for two_j in sorted(set(ctx.spins)):
        t0 = time.perf_counter_ns()
        diffs = reps.spin_module(two_j, domain).defining_relations()
        out.append(_make_result(f"structure.defining_relations[two_j={two_j}]",
                                _params(ctx), diffs, t0))

    t0 = time.perf_counter_ns()
    c = alg.casimir(domain)
    diffs = [c * alg.generator(domain, g) - alg.generator(domain, g) * c
             for g in ("E", "F", "K")]
    out.append(_make_result("structure.casimir_centrality", _params(ctx), diffs, t0))

    t0 = time.perf_counter_ns()
    elems = [alg.generator(domain, "E"), alg.generator(domain, "F"),
             alg.generator(domain, "K"), c]
    out.append(_make_result("structure.coassociativity", _params(ctx),
                            _coassociativity(elems), t0))

    t0 = time.perf_counter_ns()
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
        t0 = time.perf_counter_ns()
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

        t0 = time.perf_counter_ns()
        diffs = [reps.represent(alg.coproduct(x), pair) * rr
                 - rr * reps.represent(alg.coproduct_op(x), pair) for x in gens]
        out.append(_make_result(f"rmatrix.intertwining[legs={a}{b}]",
                                _params(ctx, legs=[a, b]), diffs, t0))

        t0 = time.perf_counter_ns()
        diffs = [reps.represent(alg.coproduct_op(x), pair) * rt
                 - rt * reps.represent(alg.coproduct(x), pair) for x in gens]
        out.append(_make_result(f"rmatrix.opposite_intertwining[legs={a}{b}]",
                                _params(ctx, legs=[a, b]), diffs, t0))

        t0 = time.perf_counter_ns()
        diffs = [rr * reps.r_matrix_inverse((1, 2), pair) - pair.identity()]
        out.append(_make_result(f"rmatrix.invertibility[legs={a}{b}]",
                                _params(ctx, legs=[a, b]), diffs, t0))

        t0 = time.perf_counter_ns()
        via_flip, via_series = reps._rt_core_two_ways(pair.modules[0], pair.modules[1])
        out.append(_make_result(f"rmatrix.flip_series_agreement[legs={a}{b}]",
                                _params(ctx, legs=[a, b]), [via_flip - via_series], t0))

        t0 = time.perf_counter_ns()
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

        t0 = time.perf_counter_ns()
        diffs = [r12 * r13 * r23 - r23 * r13 * r12]
        out.append(_make_result("rmatrix.yang_baxter", _params(sub), diffs, t0))

        t0 = time.perf_counter_ns()
        diffs = [reps.coproduct_split_r(sub, "id_coproduct") - r12 * r13]
        out.append(_make_result("rmatrix.split_id_coproduct", _params(sub), diffs, t0))

        t0 = time.perf_counter_ns()
        diffs = [reps.coproduct_split_r(sub, "coproduct_id") - r23 * r13]
        out.append(_make_result("rmatrix.split_coproduct_id", _params(sub), diffs, t0))
    return out


# ---------------------------------------------------------------------------
# the lowest weight space and the run-scoped store
# ---------------------------------------------------------------------------

# The operands of the restricted checks, each certified as a centralizer
# element before any check uses its block on W_low.  X12 and X23 are
# R Rtilde on their leg pair, the conjugators of theorem.conjugation_r*.
CASIMIR_OPERANDS = ("C1", "C2", "C3", "C12", "C23", "C13_0", "C13_1", "C123")
CENTRALIZER_OPERANDS = CASIMIR_OPERANDS + ("X12", "X23")

# The operands certified on their own legs, and those legs.
LEG_OPERANDS = {"C1": (1,), "C2": (2,), "C3": (3,), "C12": (1, 2), "C23": (2, 3),
                "X12": (1, 2), "X23": (2, 3)}


def lowest_weight_indices(ctx: TensorContext) -> frozenset[int]:
    """Flat indices of W_low, the weight space whose total 2m is (sum of two_j) mod 2.

    Index i_k on leg k carries 2m = two_j_k - 2 i_k, so the total 2m is
    sum(two_j) - 2 sum(i_k), and W_low is where sum(i_k) = sum(two_j) // 2.
    """
    target = sum(ctx.spins) // 2
    return frozenset(ctx.flat_index(multi) for multi in ctx.multi_indices()
                     if sum(multi) == target)


def block_slice(m: ExactMatrix, block: frozenset[int]) -> ExactMatrix:
    """The block of m on the basis vectors in block, every other entry dropped.

    Indices keep their full-space values, so a product of slices is the
    slice of the product and a witness names a full-space entry.  Raises
    InternalMismatchError if an entry of m couples block to its complement.
    """
    out = {}
    for (r, c), v in m.items():
        inside = r in block
        if inside != (c in block):
            raise reps.InternalMismatchError(
                f"entry ({r}, {c}) couples the block to its complement")
        if inside:
            out[(r, c)] = v
    return ExactMatrix._raw(m.dim, out)


class RunStore:
    """Setup that the theorem and aw3 checks of one run share on a 3-leg context.

    One store is built per run (per point in eval mode) and dropped with it,
    so the memo of ``SYMBOLIC`` never holds it.  It builds the intermediate
    Casimirs once, and for each operand once, on first use, its centralizer
    residuals and its block on W_low.  An operand of LEG_OPERANDS is built
    as a matrix on its legs (``leg``), certified there, and embedded from
    that very matrix; the others are certified on the full space.
    """

    def __init__(self, ctx: TensorContext):
        self.ctx = ctx
        self.lowest_weight = lowest_weight_indices(ctx)
        self._legs: dict[str, ExactMatrix] = {}
        self._residuals: dict[str, list] = {}
        self._low: dict[str, ExactMatrix] = {}

    def _sub(self, legs) -> TensorContext:
        return tensor_context(tuple(self.ctx.spins[i - 1] for i in legs), self.ctx.domain)

    def leg(self, name: str) -> ExactMatrix:
        """The operand name of LEG_OPERANDS as a matrix on its own legs."""
        if name not in self._legs:
            legs = LEG_OPERANDS[name]
            if name.startswith("X"):
                pair = self._sub(legs)
                self._legs[name] = reps.r_matrix((1, 2), pair) * reps.r_tilde((1, 2), pair)
            else:
                self._legs[name] = reps.leg_casimir(legs, self.ctx)
        return self._legs[name]

    @cached_property
    def casimirs(self) -> dict[str, ExactMatrix]:
        return reps.intermediate_casimirs(self.ctx, {
            LEG_OPERANDS[name]: self.leg(name) for name in ("C1", "C2", "C3", "C12", "C23")})

    def operand(self, name: str) -> ExactMatrix:
        if name.startswith("X"):
            return reps.embed_legs(self.leg(name), LEG_OPERANDS[name], self.ctx)
        return self.casimirs[name]

    @cached_property
    def _actions(self) -> dict[tuple[int, ...], list[ExactMatrix]]:
        """The diagonal action on each leg, leg pair and all legs: of E, F, K
        and, but on all legs, K^-1."""
        d = self.ctx.domain
        out = {}
        for legs in ((1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3)):
            n = len(legs)
            gens = ("E", "F", "K") if n == 3 else ("E", "F", "K", "Kinv")
            out[legs] = [reps.represent(alg.extend_coproduct(
                alg.generator(d, g), tuple(range(1, n + 1)), n), self._sub(legs)) for g in gens]
        return out

    def centralizer_residuals(self, name: str) -> list:
        """The operand's certificate (module docstring): differences whose
        vanishing proves that it commutes with Delta^(2)(g), g = E, F, K."""
        if name not in self._residuals:
            legs = LEG_OPERANDS.get(name, (1, 2, 3))
            mat = self.leg(name) if name in LEG_OPERANDS else self.casimirs[name]
            self._residuals[name] = [a * mat - mat * a for a in self._actions[legs]]
            if legs == (2, 3):
                self._residuals[name] += _coassociativity(
                    [alg.generator(self.ctx.domain, g) for g in ("E", "F", "K")])
        return self._residuals[name]

    def certified(self, name: str) -> bool:
        return all(d.is_zero() for d in self.centralizer_residuals(name))

    def low(self, name: str) -> ExactMatrix:
        """The operand's block on W_low; read only after its premise passed."""
        if name not in self._low:
            self._low[name] = block_slice(self.operand(name), self.lowest_weight)
        return self._low[name]


def _premise_failure(store: RunStore, operands, name: str, params: dict,
                     started: int) -> CheckResult | None:
    """A failed result naming the first uncertified operand, or None if all are certified.

    A residual on W_low proves nothing about an operand outside the
    centralizer, so a restricted check never passes on one.
    """
    failed = [f"theorem.centralizer[{op}]" for op in CENTRALIZER_OPERANDS
              if op in operands and not store.certified(op)]
    if not failed:
        return None
    return CheckResult(
        name=name,
        params=params,
        passed=False,
        residual_terms=len(failed),
        witness=f"premise {failed[0]} failed",
        runtime_ms=_elapsed_ms(started),
    )


# ---------------------------------------------------------------------------
# theorem checks: the two centralizing elements and their conjugation
# ---------------------------------------------------------------------------

def check_theorem_c13(ctx: TensorContext, store: RunStore | None = None) -> list[CheckResult]:
    if ctx.arity != 3:
        raise alg.ArityMismatchError("theorem checks need exactly three legs")
    store = RunStore(ctx) if store is None else store
    domain = ctx.domain
    ic = store.casimirs
    out = []

    t0 = time.perf_counter_ns()
    out.append(_make_result("theorem.c13_0_two_routes", _params(ctx),
                            [ic["C13_0"] - ic["C13_0_via_r12"]], t0))
    t0 = time.perf_counter_ns()
    out.append(_make_result("theorem.c13_1_two_routes", _params(ctx),
                            [ic["C13_1"] - ic["C13_1_via_r23"]], t0))

    for name in ("C12", "C23", "C13_0", "C13_1", "C123"):
        t0 = time.perf_counter_ns()
        out.append(_make_result(f"theorem.centralizer[{name}]", _params(ctx),
                                store.centralizer_residuals(name), t0))

    # Partial check that the one-leg Casimirs and the total Casimir are
    # central in the centralizer: they commute with every constructed
    # centralizing element (the full centralizer is not enumerable).
    t0 = time.perf_counter_ns()
    failure = _premise_failure(store, CASIMIR_OPERANDS,
                               "theorem.central_elements_commute", _params(ctx), t0)
    out.append(failure or _make_result(
        "theorem.central_elements_commute", _params(ctx),
        [store.low(a) * store.low(b) - store.low(b) * store.low(a)
         for a in ("C1", "C2", "C3", "C123") for b in ("C12", "C23", "C13_0", "C13_1")], t0))

    # C13_1 = X C13_0 X^-1 with X = R23 Rt23, and C13_1 = X^-1 C13_0 X with
    # X = R12 Rt12.  X is invertible (the closed-form R^-1 passed its product
    # check and Rt its two-way check when the store built the Casimirs), so
    # the checks compare C13_1 X with X C13_0 and X C13_1 with C13_0 X.  X is
    # certified on its pair, so the residual lies in the centralizer and is
    # compared on W_low.
    for legs, mirrored in (((2, 3), False), ((1, 2), True)):
        name, x_name = f"theorem.conjugation_r{legs[0]}{legs[1]}", f"X{legs[0]}{legs[1]}"
        t0 = time.perf_counter_ns()
        result = _premise_failure(store, ("C13_0", "C13_1", x_name), name, _params(ctx), t0)
        if result is None:
            x, c13_0, c13_1 = store.low(x_name), store.low("C13_0"), store.low("C13_1")
            diff = x * c13_1 - c13_0 * x if mirrored else c13_1 * x - x * c13_0
            result = _make_result(name, _params(ctx), [diff], t0)
        out.append(result)

    t0 = time.perf_counter_ns()
    sym = reps.represent(alg.c13_zero_symbolic(domain), ctx)
    out.append(_make_result("theorem.c13_0_symbolic_route", _params(ctx),
                            [sym - ic["C13_0"]], t0))
    return out


# ---------------------------------------------------------------------------
# coaction checks
# ---------------------------------------------------------------------------

def _tau_matrix(pair: TensorContext, mat: ExactMatrix) -> ExactMatrix:
    """Matrix form of the left coaction: Rtilde^-1 (1 @ mat) Rtilde on the pair."""
    lifted = reps.embed_legs(mat, (2,), pair)
    return reps.r_tilde_inverse((1, 2), pair) * lifted * reps.r_tilde((1, 2), pair)


def _id_tau_matrix(x: TensorElement, ctx3: TensorContext) -> ExactMatrix:
    """(id @ tau)(x) on a 3-leg context, for x = sum of c u@v.

    tau is linear, so this is sum_u rho(u) @ tau(sum_v c rho(v)): one
    conjugation and one kron per monomial u on the first leg.
    """
    pair23 = tensor_context(ctx3.spins[1:], ctx3.domain)
    first, last = ctx3.modules[0], ctx3.modules[2:]
    return sum((first.monomial(u).kron(_tau_matrix(pair23, reps.represent_terms(tail, last)))
                for u, tail in reps.group_by_first_leg(x.items()).items()),
               ExactMatrix(ctx3.total_dim))


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
        t0 = time.perf_counter_ns()
        closed = reps.represent(alg.tau_closed_form(x), ctx2)
        conjugated = _tau_matrix(ctx2, reps.represent(x, second_leg))
        out.append(_make_result(f"tau.closed_form[{name}]",
                                _params(ctx2), [closed - conjugated], t0))

    for name, x in args.items():
        t0 = time.perf_counter_ns()
        tau_x = alg.tau_closed_form(x)
        lhs = reps.represent(alg.coproduct_on_leg(tau_x, 1), ctx3)
        out.append(_make_result(f"tau.left_coaction[{name}]",
                                _params(ctx3), [lhs - _id_tau_matrix(tau_x, ctx3)], t0))

    # (id @ D) tau_check(x) = R12 tau_check(x)_13 R12^-1 = split x_1 split^-1,
    # times R12^-1 on the left and split on the right: emb Y = Y x_1 with
    # Y = R12^-1 split.  R12^-1 is invertible (R R^-1 = 1 is checked when it
    # is built), so the verdict is the same, and no 3-leg matrix is inverted.
    pair13 = tensor_context((ctx3.spins[0], ctx3.spins[2]), domain)
    y = reps.r_matrix_inverse((1, 2), ctx3) * reps.coproduct_split_r(ctx3, "id_coproduct")
    r13p = reps.r_matrix((1, 2), pair13)
    r13pi = reps.r_matrix_inverse((1, 2), pair13)
    # tau.right_coaction[C] holds for every Y: C acts on leg 1 as a scalar
    # c, so x_1 = c 1, tau_check(C)_13 = c 1 and emb Y - Y x_1 = 0.  It is
    # kept because the report goldens and bench/workloads.json pin its name.
    for g in ("E", "F", "K", "C"):
        t0 = time.perf_counter_ns()
        x = alg.casimir(domain) if g == "C" else alg.generator(domain, g)
        x_on_1 = reps.represent(x, tensor_context((ctx3.spins[0],), domain))
        x1 = reps.embed_legs(x_on_1, (1,), ctx3)
        tau_check = r13p * reps.embed_legs(x_on_1, (1,), pair13) * r13pi
        emb = reps.embed_two_leg(tau_check, (1, 3), ctx3)
        out.append(_make_result(f"tau.right_coaction[{g}]",
                                _params(ctx3), [emb * y - y * x1], t0))

    t0 = time.perf_counter_ns()
    acc = _id_tau_matrix(alg.coproduct(alg.casimir(domain)), ctx3)
    c13 = reps.represent(alg.extend_coproduct(alg.casimir(domain), (1, 3), 3), ctx3)
    direct = reps.r_tilde_inverse((2, 3), ctx3) * c13 * reps.r_tilde((2, 3), ctx3)
    out.append(_make_result("tau.c13_via_coaction", _params(ctx3), [acc - direct], t0))
    return out


# ---------------------------------------------------------------------------
# the Askey-Wilson relations
# ---------------------------------------------------------------------------

def _bracket_calibration(name: str, params: dict, chosen, rejected,
                         started: int) -> CheckResult:
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
        runtime_ms=_elapsed_ms(started),
    )


# (x, y, z, a, b, c, d): [x, y]_q / (q - 1/q) = z + a b + c d.
_AW3_RELATIONS = (
    ("C12", "C23", "C13_0", "C1", "C3", "C2", "C123"),
    ("C13_0", "C12", "C23", "C2", "C3", "C1", "C123"),
    ("C23", "C13_0", "C12", "C1", "C2", "C3", "C123"),
    ("C23", "C12", "C13_1", "C1", "C3", "C2", "C123"),
    ("C12", "C13_1", "C23", "C2", "C3", "C1", "C123"),
    ("C13_1", "C23", "C12", "C1", "C2", "C3", "C123"),
)


def check_aw3(ctx: TensorContext, store: RunStore | None = None) -> list[CheckResult]:
    if ctx.arity != 3:
        raise alg.ArityMismatchError("AW(3) checks need exactly three legs")
    store = RunStore(ctx) if store is None else store
    domain = ctx.domain
    qp, qm = domain.q(1), domain.q(-1)
    inv_qdiff = domain.one / (qp - qm)
    products: dict[tuple[str, str], ExactMatrix] = {}

    def prod(a, b):
        if (a, b) not in products:
            products[(a, b)] = store.low(a) * store.low(b)
        return products[(a, b)]

    def difference(relation, reverse=False):
        x, y, z, a, b, c, d = relation
        kx, ky = (qm, qp) if reverse else (qp, qm)
        lhs = alg.q_bracket(prod(x, y), prod(y, x), kx, ky).scale(inv_qdiff)
        return lhs - (store.low(z) + prod(a, b) + prod(c, d))

    # The premises are shared setup, built before the first check's clock.
    for name in CASIMIR_OPERANDS:
        store.certified(name)
    out = []
    for relation in _AW3_RELATIONS:
        name = f"aw3.relation[{relation[0]},{relation[1]}]"
        t0 = time.perf_counter_ns()
        failure = _premise_failure(store, relation, name, _params(ctx), t0)
        out.append(failure or _make_result(name, _params(ctx), [difference(relation)], t0))

    t0 = time.perf_counter_ns()
    relation = _AW3_RELATIONS[0]
    failure = _premise_failure(store, relation, "aw3.bracket_calibration",
                               dict(_params(ctx), convention="q*xy - 1/q*yx"), t0)
    out.append(failure or _bracket_calibration(
        "aw3.bracket_calibration", _params(ctx), difference(relation),
        difference(relation, reverse=True), t0))
    return out


def check_aw3_symbolic(domain: ScalarDomain) -> list[CheckResult]:
    c = alg.casimir(domain)
    c12 = alg.extend_coproduct(c, (1, 2), 3)
    c23 = alg.extend_coproduct(c, (2, 3), 3)
    c1 = alg.extend_coproduct(c, (1,), 3)
    c2 = alg.extend_coproduct(c, (2,), 3)
    c3 = alg.extend_coproduct(c, (3,), 3)
    c123 = alg.extend_coproduct(c, (1, 2, 3), 3)
    qp, qm = domain.q(1), domain.q(-1)
    inv_qdiff = domain.one / (qp - qm)
    rhs = alg.c13_zero_symbolic(domain) + c1 * c3 + c2 * c123
    out = []

    t0 = time.perf_counter_ns()
    xy, yx = c12 * c23, c23 * c12
    lhs = alg.q_bracket(xy, yx, qp, qm).scale(inv_qdiff)
    out.append(_make_result("aw3-symbolic.relation[C12,C23]",
                            _params(domain), [lhs - rhs], t0))

    t0 = time.perf_counter_ns()
    reversed_bracket = alg.q_bracket(xy, yx, qm, qp).scale(inv_qdiff)
    out.append(_bracket_calibration("aw3-symbolic.bracket_calibration", _params(domain),
                                    lhs - rhs, reversed_bracket - rhs, t0))
    return out


def check_aw4(ctx: TensorContext) -> list[CheckResult]:
    if ctx.arity != 4:
        raise alg.ArityMismatchError("AW(4) checks need exactly four legs")
    ic = reps.intermediate_casimirs(ctx)
    out = []

    t0 = time.perf_counter_ns()
    out.append(_make_result("aw4.c13_0_two_routes", _params(ctx),
                            [ic["C13_0"] - ic["C13_0_via_r12"]], t0))
    t0 = time.perf_counter_ns()
    out.append(_make_result("aw4.c24_1_two_routes", _params(ctx),
                            [ic["C24_1"] - ic["C24_1_via_r34"]], t0))
    t0 = time.perf_counter_ns()
    a, b = ic["C13_0"], ic["C24_1"]
    out.append(_make_result("aw4.commutator[C13_0,C24_1]", _params(ctx),
                            [a * b - b * a], t0))
    return out


# ---------------------------------------------------------------------------
# negative control
# ---------------------------------------------------------------------------

def negative_control_check(domain: ScalarDomain) -> CheckResult:
    """A deliberately corrupted generator matrix; must FAIL (nonzero residual)."""
    t0 = time.perf_counter_ns()
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
    if name != config.suite:
        raise ConfigurationError(f"suite {name!r} run with a config for {config.suite!r}")
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
    # Built on first use, so a re-run of one group builds only what it needs.
    store = cache(lambda: RunStore(ctx3()))

    if name in ("structure", "all"):
        tasks.append(lambda: check_structure(ctx3(), config.rng_seed))
    if name in ("rmatrix", "all"):
        tasks.append(lambda: check_rmatrix_axioms(ctx3()))
    if name in ("theorem", "all"):
        tasks.append(lambda: check_theorem_c13(store().ctx, store()))
    if name in ("tau", "all"):
        three = spins + (spins[-1],) if name == "tau" else spins[:3]
        tasks.append(lambda: check_tau(tensor_context(spins[:2], domain),
                                       tensor_context(three, domain)))
    if name in ("aw3-symbolic", "all"):
        tasks.append(lambda: check_aw3_symbolic(domain))
    if name in ("aw3", "all"):
        tasks.append(lambda: check_aw3(store().ctx, store()))
    if name == "aw4" or (name == "all" and len(spins) == 4):
        tasks.append(lambda: check_aw4(tensor_context(spins[:4], domain)))
    if config.negative_control:
        tasks.append(lambda: [negative_control_check(domain)])
    return tasks


def _run_groups(name: str, config: RunConfig, domain: ScalarDomain,
                only: set[int] | None = None, setup: list[float] | None = None
                ) -> list[list[CheckResult] | None]:
    """The results of each check group on domain; None for a group outside only.

    The time each group spends outside its checks' runtimes is added to
    setup[0] (ms), if setup is given.
    """
    groups = []
    for i, task in enumerate(_suite_tasks(name, config, domain)):
        t0 = time.perf_counter_ns()
        groups.append(task() if only is None or i in only else None)
        if setup is not None and groups[-1]:
            setup[0] += _elapsed_ms(t0) - sum(r.runtime_ms for r in groups[-1])
    return groups


def _flat_sorted(groups) -> list[CheckResult]:
    results = [r for group in groups for r in group]
    results.sort(key=lambda r: r.name)
    return results


def _run_once(name: str, config: RunConfig, domain: ScalarDomain,
              setup: list[float] | None = None) -> list[CheckResult]:
    return _flat_sorted(_run_groups(name, config, domain, setup=setup))


def _run_at(domain: ScalarDomain, name: str, config: RunConfig,
            only: set[int] | None = None, setup: list[float] | None = None
            ) -> list[list[CheckResult] | None]:
    """_run_groups on a point domain, whose tables are dropped when it is done."""
    try:
        return _run_groups(name, config, domain, only, setup)
    finally:
        domain.clear_memo()


def _run_point(name: str, config: RunConfig, s0,
               setup: list[float] | None = None) -> list[CheckResult]:
    """The checks at the sample point s0, computed mod RESIDUE_PRIME.

    A group with a failed check is run again at s0 over Q, and its results
    replace the residue results (their runtimes add up), so every witness
    is an exact rational one.  A denominator that is 0 mod P runs the whole
    point over Q.
    """
    try:
        groups = _run_at(ResidueDomain(s0), name, config, setup=setup)
    except PoleError:
        return _flat_sorted(_run_at(PointDomain(s0), name, config, setup=setup))
    failed = {i for i, group in enumerate(groups) if not all(r.passed for r in group)}
    if failed:
        rerun = _run_at(PointDomain(s0), name, config, failed, setup)
        for i in failed:
            spent = {r.name: r.runtime_ms for r in groups[i]}
            for r in rerun[i]:
                r.runtime_ms += spent[r.name]
            groups[i] = rerun[i]
    return _flat_sorted(groups)


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
    started = time.perf_counter_ns()
    setup = [0.0]
    if config.mode == "exact":
        results = _run_once(name, config, SYMBOLIC, setup)
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
            runs.append((f"s={s0}", _run_point(name, config, s0, setup)))
        results = _merge_eval(runs, config)
    results.extend(_consistency_extras(results))
    results.sort(key=lambda r: r.name)
    for r in results:
        r.runtime_ms = round(r.runtime_ms)
    return SuiteReport(
        suite=name,
        version=TOOL_VERSION,
        config=config.as_dict(),
        checks=results,
        passed=all(r.passed for r in results),
        setup_ms=round(setup[0]),
        wall_ms=round(_elapsed_ms(started)),
    )
