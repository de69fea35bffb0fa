"""The catalog of verified identities, as runnable checks with structured results.

Each check computes a difference (of tensor elements or exact matrices) that
the identity asserts to be zero, and reports the residual: the count of
nonzero terms or entries, plus one witness entry in canonical text.  Exact
arithmetic has no meaningful norm, so a check passes if and only if the
residual count is zero.

Suites run either in exact mode (over the symbolic field Q(s)) or in eval
mode, where the whole computation is repeated at seeded random points s0
drawn uniformly from the admissible residues mod the prime P = 2**61 - 1
(``ResidueDomain``): s0 not 0 and not +-1, the P - 3 residues where
q = s**2 is not degenerate.  Each point is computed in residues: plain
ints, which only the residue matrix kernel (``ResidueMatrix``) combines.
A residual F/G whose numerator F is not 0 mod P reads 0 mod P at no more
than deg F residues, so one point bounds a false pass by deg F / (P - 3),
and k independent points by (deg F / (P - 3))**k; two draws may coincide,
which the bound allows for.  A residue that is nonzero mod P proves the
rational value nonzero, so a failure is never a false alarm.
The check groups that failed at some point are run once more, in exact
mode on the run's PBW elements, and each failed check takes its
residual_terms and witness from there, so the witness does not depend on
the point; a check that failed mod P but holds exactly is an internal
error.  The PBW elements are fixed before any representation or point is
chosen, so a run builds them, and the residuals of the checks that compare
PBW elements, once over Q(s) (``ElementStore``) and maps them into every
point: the map s -> s0 into Z/P is a ring homomorphism away from poles, so
the image of an element is what computing it at the point gives.  The
matrices are rebuilt at every point.

A point where a denominator is 0 mod P (a pole, ``PoleError``) is dropped
and another drawn; a run draws at most SAMPLE_POINT_COUNT points.  Every
denominator mapped into a point is a product of cyclotomic polynomials
Phi_d(s): d in (1, 2, 4, 8) from q - 1/q and q + 1/q, and d | 4n from the
q-integers [n]_q in the R-series coefficients a_n.  Phi_d(s0) = 0 mod P
only if s0 has multiplicative order d mod P.  P - 1 = 2 * (odd), so no
residue has order 4 or 8, and q - 1/q and q + 1/q vanish at no admissible
point.  A pole needs s0 of order d >= 3 with d | 4n for a mapped a_n.  At
most sum(4n) residues have such an order, so while every mapped n is at
most 1000, one draw meets a pole with probability below 2**-40.  No series
even reaches one: each entry of E^n or F^n on a spin module is a product
of n consecutive q-integers, so [m]_q = 0 for an m <= n makes E^n and F^n
0 mod P, and every R-series, which has such a factor on one leg, stops
before the first a_n whose denominator vanishes.

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

Every check is built by ``_check``, and its runtime_ms covers exactly its
premise gate, its compute and its witness text (in eval mode, summed over
the points and the exact run).  setup_ms is everything else in the run's
wall time, such as building the operands that checks share.
"""

from __future__ import annotations

import operator
import random
import time
from dataclasses import dataclass, field
from functools import cache, cached_property

from . import algebra as alg
from . import representations as reps
from .algebra import TensorElement
from .representations import ExactMatrix, TensorContext, tensor_context
from .scalars import (SAMPLE_POINT_COUNT, SYMBOLIC, PoleError, ResidueDomain,
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
    eval_points: int = 3
    rng_seed: int = 0
    output_path: str | None = None
    verbose: bool = False
    negative_control: bool = False

    def __post_init__(self):
        # A report's config holds spins as a list; a run needs them hashable.
        object.__setattr__(self, "spins", tuple(self.spins))

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
    """A run's verdicts.  wall_ms: the run; setup_ms: the part of it outside
    the checks' runtimes, such as shared operands and sampling."""

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
# residuals and the check builder
# ---------------------------------------------------------------------------

def _residual_entries(diff) -> list[str]:
    if not isinstance(diff, (TensorElement, ExactMatrix)):
        raise TypeError(f"cannot extract a residual from {diff!r}")
    return [] if diff.is_zero() else diff.text().split("\n")


def _elapsed_ms(started: int) -> float:
    """Milliseconds since the perf_counter_ns reading started, unrounded."""
    return (time.perf_counter_ns() - started) / 1e6


def _residual(diffs) -> tuple[int, str]:
    """The nonzero entries of must-be-zero differences: their count and the longest."""
    entries = [e for d in diffs for e in _residual_entries(d)]
    return len(entries), max(entries, key=lambda t: (len(t), t), default="")


_BRACKET_CONVENTION = "q*xy - 1/q*yx"


def _calibration(diffs) -> tuple[int, str]:
    """A relation's (chosen, rejected) differences: the chosen bracket must
    satisfy it and the reversed one must not."""
    chosen, rejected = diffs
    entries = _residual_entries(chosen)
    if rejected.is_zero():
        return len(entries) + 1, "rejected bracket convention also satisfied"
    return len(entries), entries[0] if entries else ""


def _check(name: str, params: dict, compute, store: RunStore | None = None,
           premises=(), verdict=_residual) -> CheckResult:
    """Time one check: its premise gate, compute() and verdict(compute()).

    If an operand in premises is not certified in store, the check fails
    without calling compute: a residual on W_low proves nothing about an
    operand outside the centralizer.  verdict returns (residual_terms, witness).
    compute is called before _check returns, so it may close over a loop variable.
    """
    started = time.perf_counter_ns()
    failed = [op for op in CENTRALIZER_OPERANDS if op in premises and not store.certified(op)]
    if failed:
        residual, witness = len(failed), f"premise theorem.centralizer[{failed[0]}] failed"
    else:
        residual, witness = verdict(compute())
    return CheckResult(name=name, params=params, passed=residual == 0, residual_terms=residual,
                       witness=witness, runtime_ms=_elapsed_ms(started))


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


def _at(domain: ScalarDomain, diffs: list[TensorElement]) -> list[TensorElement]:
    """PBW residuals over Q(s) as computed at the domain's point: each
    coefficient mapped into the domain, the terms that vanish there dropped."""
    return [TensorElement(d.arity, {k: domain.image(c) for k, c in d.items()}) for d in diffs]


class ElementStore:
    """The PBW elements of one run, and the residuals that compare them.

    They lie in U_q(sl2)^(tensor n) over Q(s), fixed before any
    representation or point, so each is built once, on first use, and every
    context and point of the run maps the same one.  One store is built per
    run_suite call and dropped with it, so no run sees another's elements.
    """

    def __init__(self):
        self._trials = {}

    @cached_property
    def casimir(self):
        return alg.casimir()

    @cached_property
    def casimir_centrality(self):
        c = self.casimir
        return [c * g - g * c for g in map(alg.generator, ("E", "F", "K"))]

    @cached_property
    def coassociativity(self):
        """_coassociativity of E, F, K and C, in that order."""
        return _coassociativity([*map(alg.generator, ("E", "F", "K")), self.casimir])

    def morphism_trials(self, arity: int, rng_seed: int) -> list[tuple]:
        """Three seeded pairs (x, y, x y) of random elements."""
        if (arity, rng_seed) not in self._trials:
            rng = random.Random(rng_seed)
            # Drawn in the order x1, y1, x2, y2, x3, y3.
            xs = [alg.random_element(arity, rng, max_power=1, max_k=1) for _ in range(6)]
            self._trials[arity, rng_seed] = [(x, y, x * y) for x, y in zip(xs[::2], xs[1::2])]
        return self._trials[arity, rng_seed]

    @cached_property
    def coproducts(self):
        """(D(g), D^op(g)) for g = E, F, K."""
        return [(alg.coproduct(g), alg.coproduct_op(g)) for g in map(alg.generator, ("E", "F", "K"))]

    @cached_property
    def diagonal_actions(self):
        """Delta^(n-1)(g) on n = 1, 2, 3 legs, for g = E, F, K and, but on 3 legs, K^-1."""
        return {n: [alg.extend_coproduct(alg.generator(g), tuple(range(1, n + 1)), n)
                    for g in (("E", "F", "K") if n == 3 else ("E", "F", "K", "Kinv"))]
                for n in (1, 2, 3)}

    @cached_property
    def tau(self):
        """(x, tau(x), (D @ id) tau(x)) for each tau argument x, by name."""
        out = {}
        for name, x in alg.tau_argument_elements().items():
            tau_x = alg.tau_closed_form(x)
            out[name] = x, tau_x, alg.coproduct_on_leg(tau_x, 1)
        return out

    @cached_property
    def casimir_coproducts(self):
        """D(C) and its Sweedler placement C_(1) @ 1 @ C_(2)."""
        return alg.coproduct(self.casimir), alg.extend_coproduct(self.casimir, (1, 3), 3)

    @cached_property
    def c13_zero(self):
        return alg.c13_zero_symbolic()

    @cached_property
    def aw3_symbolic(self):
        """[C12, C23]_q/(q - 1/q) - (C13_0 + C1 C3 + C2 C123), with the
        chosen bracket and with the reversed one."""
        c12, c23, c1, c2, c3, c123 = (alg.extend_coproduct(self.casimir, legs, 3) for legs in (
            (1, 2), (2, 3), (1,), (2,), (3,), (1, 2, 3)))
        qp, qm = SYMBOLIC.q(1), SYMBOLIC.q(-1)
        rhs = self.c13_zero + c1 * c3 + c2 * c123
        xy, yx = c12 * c23, c23 * c12
        return [alg.q_bracket(xy, yx, kx, ky).scale(SYMBOLIC.q_diff_inverse()) - rhs
                for kx, ky in ((qp, qm), (qm, qp))]


def check_structure(ctx: TensorContext, rng_seed: int = 0,
                    elements: ElementStore | None = None) -> list[CheckResult]:
    domain = ctx.domain
    elements = elements or ElementStore()
    two_js = sorted(set(ctx.spins))

    def morphism():
        diffs = [reps.represent(xy, ctx) - reps.represent(x, ctx) * reps.represent(y, ctx)
                 for x, y, xy in elements.morphism_trials(ctx.arity, rng_seed)]
        return diffs + [reps.represent(alg.unit_element(ctx.arity), ctx) - ctx.identity()]

    def casimir_scalar(two_j):
        leg = tensor_context((two_j,), domain)
        mat = reps.represent(elements.casimir, leg)
        oracle = reps.casimir_scalar_highest_weight(two_j, domain)
        return [mat - leg.identity().scale(oracle)]

    out = [_check(f"structure.defining_relations[two_j={two_j}]", _params(ctx),
                  lambda: reps.spin_module(two_j, domain).defining_relations())
           for two_j in two_js]
    out.append(_check("structure.casimir_centrality", _params(ctx),
                      lambda: _at(domain, elements.casimir_centrality)))
    out.append(_check("structure.coassociativity", _params(ctx),
                      lambda: _at(domain, elements.coassociativity)))
    out.append(_check("structure.represent_morphism", _params(ctx, trials=3, seed=rng_seed),
                      morphism))
    out += [_check(f"structure.casimir_scalar[two_j={two_j}]", _params(ctx),
                   lambda: casimir_scalar(two_j))
            for two_j in two_js]
    return out


# ---------------------------------------------------------------------------
# R-matrix axiom checks
# ---------------------------------------------------------------------------

def _leg_pairs(n: int):
    return [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]


def check_rmatrix_axioms(ctx: TensorContext,
                         elements: ElementStore | None = None) -> list[CheckResult]:
    if ctx.arity < 2:
        raise alg.ArityMismatchError("R-matrix checks need at least two legs")
    domain = ctx.domain
    coproducts = (elements or ElementStore()).coproducts
    out = []

    for a, b in _leg_pairs(ctx.arity):
        pair = tensor_context((ctx.spins[a - 1], ctx.spins[b - 1]), domain)
        rr = reps.r_matrix((1, 2), pair)
        rt = reps.r_tilde((1, 2), pair)
        bound = min(pair.spins)
        out += [
            _check(f"rmatrix.intertwining[legs={a}{b}]", _params(ctx, legs=[a, b]), lambda: [
                reps.represent(cop, pair) * rr - rr * reps.represent(op, pair)
                for cop, op in coproducts]),
            _check(f"rmatrix.opposite_intertwining[legs={a}{b}]", _params(ctx, legs=[a, b]),
                   lambda: [reps.represent(op, pair) * rt - rt * reps.represent(cop, pair)
                            for cop, op in coproducts]),
            _check(f"rmatrix.invertibility[legs={a}{b}]", _params(ctx, legs=[a, b]),
                   lambda: [rr * reps.r_matrix_inverse((1, 2), pair) - pair.identity()]),
            # The Rtilde core via the flip minus via its series.
            _check(f"rmatrix.flip_series_agreement[legs={a}{b}]", _params(ctx, legs=[a, b]),
                   lambda: [operator.sub(*reps._rt_core_two_ways(*pair.modules))]),
            _check(f"rmatrix.truncation[legs={a}{b}]", _params(ctx, legs=[a, b], bound=bound),
                   lambda: [reps.r_series_term((1, 2), pair, bound + 1),
                            reps.r_matrix((1, 2), pair, extra_terms=1) - rr]),
        ]

    if ctx.arity >= 3:
        sub = ctx if ctx.arity == 3 else tensor_context(ctx.spins[:3], domain)
        r12, r13, r23 = (reps.r_matrix(legs, sub) for legs in ((1, 2), (1, 3), (2, 3)))
        out += [
            _check("rmatrix.yang_baxter", _params(sub),
                   lambda: [r12 * r13 * r23 - r23 * r13 * r12]),
            _check("rmatrix.split_id_coproduct", _params(sub),
                   lambda: [reps.coproduct_split_r(sub, "id_coproduct") - r12 * r13]),
            _check("rmatrix.split_coproduct_id", _params(sub),
                   lambda: [reps.coproduct_split_r(sub, "coproduct_id") - r23 * r13]),
        ]
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
    return m._raw(m.dim, out)


class RunStore:
    """Setup that the theorem and aw3 checks of one run share on a 3-leg context.

    One store is built per context of a run (per point in eval mode) and
    dropped with it, so the memo of ``SYMBOLIC`` never holds it; its PBW
    elements come from the run's ElementStore.  It builds the intermediate
    Casimirs once, and for each operand once, on first use, its centralizer
    residuals and its block on W_low.  An operand of LEG_OPERANDS is built
    as a matrix on its legs (``leg``), certified there, and embedded from
    that very matrix; the others are certified on the full space.
    """

    def __init__(self, ctx: TensorContext, elements: ElementStore | None = None):
        self.ctx = ctx
        self.elements = elements or ElementStore()
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
        actions = self.elements.diagonal_actions
        return {legs: [reps.represent(x, self._sub(legs)) for x in actions[len(legs)]]
                for legs in ((1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3))}

    def centralizer_residuals(self, name: str) -> list:
        """The operand's certificate (module docstring): differences whose
        vanishing proves that it commutes with Delta^(2)(g), g = E, F, K."""
        if name not in self._residuals:
            legs = LEG_OPERANDS.get(name, (1, 2, 3))
            mat = self.leg(name) if name in LEG_OPERANDS else self.casimirs[name]
            self._residuals[name] = [a * mat - mat * a for a in self._actions[legs]]
            if legs == (2, 3):
                # The coassociativity of E, F and K.
                self._residuals[name] += _at(self.ctx.domain, self.elements.coassociativity[:3])
        return self._residuals[name]

    def certified(self, name: str) -> bool:
        return all(d.is_zero() for d in self.centralizer_residuals(name))

    def low(self, name: str) -> ExactMatrix:
        """The operand's block on W_low; read only after its premise passed."""
        if name not in self._low:
            self._low[name] = block_slice(self.operand(name), self.lowest_weight)
        return self._low[name]


def _run_store(ctx: TensorContext, store: RunStore | None) -> RunStore:
    """store, or a new RunStore on ctx if it is None; a store built on
    another context raises ArityMismatchError."""
    if store is None:
        return RunStore(ctx)
    if (store.ctx.spins, store.ctx.domain) != (ctx.spins, ctx.domain):
        raise alg.ArityMismatchError(f"a RunStore on {store.ctx!r} cannot check {ctx!r}")
    return store


# ---------------------------------------------------------------------------
# theorem checks: the two centralizing elements and their conjugation
# ---------------------------------------------------------------------------

def check_theorem_c13(ctx: TensorContext, store: RunStore | None = None) -> list[CheckResult]:
    if ctx.arity != 3:
        raise alg.ArityMismatchError("theorem checks need exactly three legs")
    store = _run_store(ctx, store)
    ic, low = store.casimirs, store.low

    out = [_check("theorem.c13_0_two_routes", _params(ctx),
                  lambda: [ic["C13_0"] - ic["C13_0_via_r12"]]),
           _check("theorem.c13_1_two_routes", _params(ctx),
                  lambda: [ic["C13_1"] - ic["C13_1_via_r23"]])]
    out += [_check(f"theorem.centralizer[{name}]", _params(ctx),
                   lambda: store.centralizer_residuals(name))
            for name in ("C12", "C23", "C13_0", "C13_1", "C123")]

    # Partial check that the one-leg Casimirs and the total Casimir are
    # central in the centralizer: they commute with every constructed
    # centralizing element (the full centralizer is not enumerable).
    out.append(_check("theorem.central_elements_commute", _params(ctx), lambda: [
        low(a) * low(b) - low(b) * low(a)
        for a in ("C1", "C2", "C3", "C123") for b in ("C12", "C23", "C13_0", "C13_1")],
        store, CASIMIR_OPERANDS))

    # C13_1 = X C13_0 X^-1 with X = R23 Rt23, and C13_1 = X^-1 C13_0 X with
    # X = R12 Rt12.  X is invertible (the closed-form R^-1 passed its product
    # check and Rt its two-way check when the store built the Casimirs), so
    # the checks compare C13_1 X with X C13_0 and X C13_1 with C13_0 X.  X is
    # certified on its pair, so the residual lies in the centralizer and is
    # compared on W_low.
    def conjugation(x_name, mirrored):
        x, c13_0, c13_1 = low(x_name), low("C13_0"), low("C13_1")
        return [x * c13_1 - c13_0 * x if mirrored else c13_1 * x - x * c13_0]

    out += [_check(f"theorem.conjugation_r{legs}", _params(ctx),
                   lambda: conjugation(f"X{legs}", legs == "12"),
                   store, ("C13_0", "C13_1", f"X{legs}"))
            for legs in ("23", "12")]
    out.append(_check("theorem.c13_0_symbolic_route", _params(ctx), lambda: [
        reps.represent(store.elements.c13_zero, ctx) - ic["C13_0"]]))
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
               ctx3.matrix(ctx3.total_dim))


def check_tau(ctx2: TensorContext, ctx3: TensorContext,
              elements: ElementStore | None = None) -> list[CheckResult]:
    if ctx2.arity != 2 or ctx3.arity != 3:
        raise alg.ArityMismatchError("tau checks need a 2-leg and a 3-leg context")
    if ctx2.domain != ctx3.domain:
        raise alg.ArityMismatchError("contexts use different scalar domains")
    domain = ctx2.domain
    elements = elements or ElementStore()

    second_leg = tensor_context((ctx2.spins[1],), domain)
    out = [_check(f"tau.closed_form[{name}]", _params(ctx2), lambda: [
               reps.represent(tau_x, ctx2) - _tau_matrix(ctx2, reps.represent(x, second_leg))])
           for name, (x, tau_x, _) in elements.tau.items()]
    out += [_check(f"tau.left_coaction[{name}]", _params(ctx3), lambda: [
                reps.represent(lifted, ctx3) - _id_tau_matrix(tau_x, ctx3)])
            for name, (_, tau_x, lifted) in elements.tau.items()]

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
    def right_coaction(g):
        x = elements.casimir if g == "C" else alg.generator(g)
        x_on_1 = reps.represent(x, tensor_context((ctx3.spins[0],), domain))
        x1 = reps.embed_legs(x_on_1, (1,), ctx3)
        tau_check = r13p * reps.embed_legs(x_on_1, (1,), pair13) * r13pi
        emb = reps.embed_legs(tau_check, (1, 3), ctx3)
        return [emb * y - y * x1]

    def c13_via_coaction():
        cop, sweedler = elements.casimir_coproducts
        acc = _id_tau_matrix(cop, ctx3)
        c13 = reps.represent(sweedler, ctx3)
        return [acc - reps.r_tilde_inverse((2, 3), ctx3) * c13 * reps.r_tilde((2, 3), ctx3)]

    out += [_check(f"tau.right_coaction[{g}]", _params(ctx3), lambda: right_coaction(g))
            for g in ("E", "F", "K", "C")]
    out.append(_check("tau.c13_via_coaction", _params(ctx3), c13_via_coaction))
    return out


# ---------------------------------------------------------------------------
# the Askey-Wilson relations
# ---------------------------------------------------------------------------

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
    store = _run_store(ctx, store)
    domain = ctx.domain
    qp, qm, inv_qdiff = domain.q(1), domain.q(-1), domain.q_diff_inverse()
    prod = cache(lambda a, b: store.low(a) * store.low(b))

    # Cached, so the calibration reuses the first relation's difference.
    @cache
    def difference(relation, reverse=False):
        x, y, z, a, b, c, d = relation
        kx, ky = (qm, qp) if reverse else (qp, qm)
        lhs = alg.q_bracket(prod(x, y), prod(y, x), kx, ky).scale(inv_qdiff)
        return lhs - (store.low(z) + prod(a, b) + prod(c, d))

    # The premises are shared setup, built before the first check's clock.
    for name in CASIMIR_OPERANDS:
        store.certified(name)
    out = [_check(f"aw3.relation[{relation[0]},{relation[1]}]", _params(ctx),
                  lambda: [difference(relation)], store, relation)
           for relation in _AW3_RELATIONS]
    first = _AW3_RELATIONS[0]
    out.append(_check("aw3.bracket_calibration", _params(ctx, convention=_BRACKET_CONVENTION),
                      lambda: (difference(first), difference(first, reverse=True)),
                      store, first, _calibration))
    return out


def check_aw3_symbolic(domain: ScalarDomain,
                       elements: ElementStore | None = None) -> list[CheckResult]:
    diff, reversed_diff = _at(domain, (elements or ElementStore()).aw3_symbolic)
    return [_check("aw3-symbolic.relation[C12,C23]", _params(domain), lambda: [diff]),
            _check("aw3-symbolic.bracket_calibration",
                   _params(domain, convention=_BRACKET_CONVENTION),
                   lambda: (diff, reversed_diff), verdict=_calibration)]


def check_aw4(ctx: TensorContext) -> list[CheckResult]:
    if ctx.arity != 4:
        raise alg.ArityMismatchError("AW(4) checks need exactly four legs")
    ic = reps.intermediate_casimirs(ctx)
    a, b = ic["C13_0"], ic["C24_1"]
    return [_check("aw4.c13_0_two_routes", _params(ctx),
                   lambda: [ic["C13_0"] - ic["C13_0_via_r12"]]),
            _check("aw4.c24_1_two_routes", _params(ctx),
                   lambda: [ic["C24_1"] - ic["C24_1_via_r34"]]),
            _check("aw4.commutator[C13_0,C24_1]", _params(ctx), lambda: [a * b - b * a])]


# ---------------------------------------------------------------------------
# negative control
# ---------------------------------------------------------------------------

def negative_control_check(domain: ScalarDomain) -> CheckResult:
    """A deliberately corrupted generator matrix; must FAIL (nonzero residual)."""
    def corrupted():
        mod = reps.spin_module(1, domain)
        bad = mod.e + mod.matrix(mod.dim, {(0, 0): domain.one})
        return [mod.k * bad - (bad * mod.k).scale(domain.q(1))]
    return _check("negative_control.corrupted_generator", _params(domain), corrupted)


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
    if config.mode == "eval" and config.eval_points > SAMPLE_POINT_COUNT:
        raise ConfigurationError(
            f"eval mode runs at most {SAMPLE_POINT_COUNT} sample points")
    if any(t < 0 for t in config.spins):
        raise ConfigurationError("spins are two_j values and must be nonnegative")
    n = len(config.spins)
    if name == "all":
        if n not in (3, 4):
            raise ConfigurationError("suite 'all' needs 3 or 4 spins")
    elif n != _SUITE_ARITY[name]:
        raise ConfigurationError(
            f"suite {name!r} needs {_SUITE_ARITY[name]} spins, got {n}")


def _suite_tasks(name: str, config: RunConfig, domain: ScalarDomain,
                 elements: ElementStore):
    """The list of check-group callables for one suite run on one domain."""
    spins = config.spins
    tasks = []
    def ctx3():
        return tensor_context(spins[:3], domain)
    # Built on first use, so a re-run of one group builds only what it needs.
    store = cache(lambda: RunStore(ctx3(), elements))

    if name in ("structure", "all"):
        tasks.append(lambda: check_structure(ctx3(), config.rng_seed, elements))
    if name in ("rmatrix", "all"):
        tasks.append(lambda: check_rmatrix_axioms(ctx3(), elements))
    if name in ("theorem", "all"):
        tasks.append(lambda: check_theorem_c13(store().ctx, store()))
    if name in ("tau", "all"):
        three = spins + (spins[-1],) if name == "tau" else spins[:3]
        tasks.append(lambda: check_tau(tensor_context(spins[:2], domain),
                                       tensor_context(three, domain), elements))
    if name in ("aw3-symbolic", "all"):
        tasks.append(lambda: check_aw3_symbolic(domain, elements))
    if name in ("aw3", "all"):
        tasks.append(lambda: check_aw3(store().ctx, store()))
    if name == "aw4" or (name == "all" and len(spins) == 4):
        tasks.append(lambda: check_aw4(tensor_context(spins[:4], domain)))
    if config.negative_control:
        tasks.append(lambda: [negative_control_check(domain)])
    return tasks


def _run_groups(name: str, config: RunConfig, domain: ScalarDomain, elements: ElementStore,
                only: set[int] | None = None) -> list[list[CheckResult] | None]:
    """The results of each check group on domain; None for a group outside only."""
    return [task() if only is None or i in only else None
            for i, task in enumerate(_suite_tasks(name, config, domain, elements))]


def _flat_sorted(groups) -> list[CheckResult]:
    results = [r for group in groups if group for r in group]
    results.sort(key=lambda r: r.name)
    return results


def _run_point(name: str, config: RunConfig, s0: int,
               elements: ElementStore) -> list[list[CheckResult]] | None:
    """The check groups at the residue s0, computed mod RESIDUE_PRIME;
    None if a denominator vanishes there.  The point's tables are dropped
    when it is done."""
    domain = ResidueDomain(s0)
    try:
        return _run_groups(name, config, domain, elements)
    except PoleError:
        return None
    finally:
        domain.clear_memo()


def _eval_points(name: str, config: RunConfig, elements: ElementStore, failed: set[int]):
    """Yield (point, results) at each of the config's seeded sample points,
    and add to failed the index of each group with a failed check.

    A point with a pole mod P is dropped and another drawn (module
    docstring); drawing stops after SAMPLE_POINT_COUNT draws.
    """
    rng, points = random.Random(config.rng_seed), 0
    for _ in range(SAMPLE_POINT_COUNT):
        if points == config.eval_points:
            break
        s0 = random_admissible_point(rng)
        groups = _run_point(name, config, s0, elements)
        if groups is not None:
            points += 1
            failed.update(i for i, group in enumerate(groups)
                          if not all(r.passed for r in group))
            yield f"s={s0}", _flat_sorted(groups)
    if not points:
        raise PoleError("every sample point meets a pole mod 2^61-1")


def _merge_eval(runs, config: RunConfig) -> list[CheckResult]:
    """One result per check from the (point, results) pairs of runs: passed
    if it passed at every point, with the points that it failed at counted.

    Each point is folded into running per-check aggregates as it arrives
    and then dropped, so runs may be a generator and memory stays flat in
    the number of points.
    """
    merged: dict[str, CheckResult] = {}
    first = None
    for point, results in runs:
        checks = {r.name: r for r in results}
        if first is None:
            first = point
            for name, r in checks.items():
                params = {**r.params, "mode": "eval", "point": "merged", "points": 0,
                          "seed": config.rng_seed, "failed_points": 0}
                merged[name] = CheckResult(name=name, params=params, passed=True,
                                           residual_terms=0, witness="", runtime_ms=0.0)
        if len(checks) != len(results) or checks.keys() != merged.keys():
            raise reps.InternalMismatchError(f"checks at {first} and at {point} differ")
        for name, r in checks.items():
            m = merged[name]
            m.params["points"] += 1
            m.runtime_ms += r.runtime_ms
            if not r.passed:
                m.passed = False
                m.params["failed_points"] += 1
        del results, checks
    return list(merged.values())


def _exact_witnesses(merged: list[CheckResult], exact: list[CheckResult]):
    """Give each failed check of merged the residual_terms and witness of its
    exact result, and add to each check the runtime of its exact result.

    A check that failed mod P but holds exactly raises
    InternalMismatchError: a nonzero residue proves a nonzero value.
    """
    by_name = {r.name: r for r in exact}
    for m in merged:
        r = by_name.get(m.name)
        if r is None:
            continue
        m.runtime_ms += r.runtime_ms
        if not m.passed:
            if r.passed:
                raise reps.InternalMismatchError(
                    f"{m.name} failed mod 2^61-1 but holds exactly")
            m.residual_terms, m.witness = r.residual_terms, r.witness


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
    elements = ElementStore()
    if config.mode == "exact":
        results = _flat_sorted(_run_groups(name, config, SYMBOLIC, elements))
    else:
        failed = set()
        results = _merge_eval(_eval_points(name, config, elements, failed), config)
        if failed:
            _exact_witnesses(results, _flat_sorted(
                _run_groups(name, config, SYMBOLIC, elements, only=failed)))
    results.extend(_consistency_extras(results))
    results.sort(key=lambda r: r.name)
    wall = _elapsed_ms(started)
    setup = wall - sum(r.runtime_ms for r in results)
    for r in results:
        r.runtime_ms = round(r.runtime_ms)
    return SuiteReport(
        suite=name,
        version=TOOL_VERSION,
        config=config.as_dict(),
        checks=results,
        passed=all(r.passed for r in results),
        setup_ms=round(setup),
        wall_ms=round(wall),
    )
