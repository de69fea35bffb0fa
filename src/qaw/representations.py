"""Finite-dimensional spin modules with exact matrix entries.

Basis convention: the spin-j module (dimension two_j + 1) uses the weight
basis |m> with m = j, j-1, ..., -j in *descending* order, so index i carries
m = (two_j - 2i)/2.  The generator action

    E|m> = [j - m]_q |m+1>,   F|m> = [j + m]_q |m-1>,   K|m> = s^(2m) |m>

keeps every matrix entry a Laurent polynomial in s (no square roots).  The
defining relations and the nilpotency E^(two_j+1) = F^(two_j+1) = 0 are
verified at construction time.

Tensor contexts are built by Kronecker products in row-major index order:
the flat index of (i_1, ..., i_n) is sum(i_k * strides[k]).  The operator
q^(2 H@H) used by the R-matrix exists only here, as the diagonal with entry
s^(4 m_a m_b) on the weight pair (m_a, m_b).

An ExactMatrix stores no zero entry: its sums, including those in
``represent``, go through ``scalars.add_into``, which deletes the entries
that cancel, and its product kernel inlines that rule.

Spin modules, tensor contexts, R-matrix cores, the split R and each module's
monomial matrices are memoised in their scalar domain (``scalars.domain_memo``)
and live as long as it; ``represent`` keeps none of its multi-leg products.
"""

from __future__ import annotations

import itertools
import math

from .algebra import (ArityMismatchError, PBWMonomial, TensorElement,
                      casimir, coproduct, extend_coproduct, generator,
                      pbw_element)
from .scalars import ScalarDomain, LaurentPoly, add_into, domain_memo


class InternalMismatchError(RuntimeError):
    """Raised when two independent constructions of the same object disagree."""


class ExactMatrix:
    """Square sparse matrix over the scalar field; no explicit zero entries."""

    __slots__ = ("dim", "_entries")

    def __init__(self, dim: int, entries: dict[tuple[int, int], object] | None = None):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_entries", {rc: v for rc, v in (entries or {}).items() if v})

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def _raw(cls, dim: int, entries: dict[tuple[int, int], object]) -> ExactMatrix:
        # Adopt an entry map that already holds no zero entries, uncopied.
        # A map that scalars.add_into (or the product kernel) deleted a
        # cancelled entry from is copied first, as its flag tells: the copy
        # drops the dead slots, which a kept result would hold for a run.
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_entries", entries)
        return self

    @classmethod
    def identity(cls, dim: int, one) -> ExactMatrix:
        return cls(dim, {(i, i): one for i in range(dim)})

    @classmethod
    def diagonal(cls, values) -> ExactMatrix:
        values = list(values)
        return cls(len(values), {(i, i): v for i, v in enumerate(values)})

    # -- inspection

    def entry(self, r: int, c: int):
        return self._entries.get((r, c))

    def items(self):
        return self._entries.items()

    def nnz(self) -> int:
        return len(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def is_identity(self) -> bool:
        if len(self._entries) != self.dim:
            return False
        return all(r == c and v == 1 for (r, c), v in self._entries.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.dim == other.dim and self._entries == other._entries

    def __hash__(self):
        raise TypeError("ExactMatrix is not hashable")

    # -- arithmetic

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check_dim(other)
        out = dict(self._entries)
        return ExactMatrix._raw(self.dim, dict(out) if add_into(out, other.items()) else out)

    def __neg__(self):
        return ExactMatrix._raw(self.dim, {rc: -v for rc, v in self._entries.items()})

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check_dim(other)
        if self._entries == other._entries:
            # Equal values have a zero difference; a passing residual costs
            # one comparison.
            return ExactMatrix._raw(self.dim, {})
        out = dict(self._entries)
        deleted = add_into(out, ((rc, -v) for rc, v in other._entries.items()))
        return ExactMatrix._raw(self.dim, dict(out) if deleted else out)

    def scale(self, c) -> ExactMatrix:
        if not c:
            return ExactMatrix(self.dim)
        # A product of nonzero field elements is nonzero.
        return ExactMatrix._raw(self.dim, {rc: v * c for rc, v in self._entries.items()})

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check_dim(other)
        rows: dict[int, list] = {}
        for (r, c), v in self._entries.items():
            rows.setdefault(r, []).append((c, v))
        cols: dict[int, list] = {}
        for (r, c), v in other._entries.items():
            cols.setdefault(r, []).append((c, v))
        out: dict[tuple[int, int], object] = {}
        deleted = False
        for r, left in rows.items():
            for c1, v1 in left:
                right = cols.get(c1)
                if not right:
                    continue
                for c2, v2 in right:
                    rc = (r, c2)
                    w = v1 * v2
                    old = out.get(rc)
                    w = w if old is None else old + w
                    if w:
                        out[rc] = w
                    elif rc in out:
                        del out[rc]
                        deleted = True
        return ExactMatrix._raw(self.dim, dict(out) if deleted else out)

    def kron(self, other: ExactMatrix) -> ExactMatrix:
        d2 = other.dim
        out = {}
        for (r1, c1), v1 in self._entries.items():
            for (r2, c2), v2 in other._entries.items():
                out[(r1 * d2 + r2, c1 * d2 + c2)] = v1 * v2
        return ExactMatrix._raw(self.dim * d2, out)

    # -- serialization

    def text(self) -> str:
        """Golden-file text: lines ``row col :: entry-text`` sorted by (row, col)."""
        lines = []
        for (r, c) in sorted(self._entries):
            v = self._entries[(r, c)]
            vtext = v.text() if hasattr(v, "text") else str(v)
            lines.append(f"{r} {c} :: {vtext}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<ExactMatrix dim={self.dim} nnz={len(self._entries)}>"

    def _check_dim(self, other: ExactMatrix):
        if self.dim != other.dim:
            raise ArityMismatchError(f"dimension mismatch: {self.dim} vs {other.dim}")


# ---------------------------------------------------------------------------
# spin modules
# ---------------------------------------------------------------------------

class SpinModule:
    """The (two_j + 1)-dimensional irreducible weight module."""

    def __init__(self, two_j: int, domain: ScalarDomain):
        if two_j < 0:
            raise ValueError("two_j must be nonnegative")
        self.two_j = two_j
        self.domain = domain
        self.dim = two_j + 1
        # index i carries weight m = (two_j - 2i)/2; stored as 2m.
        self.two_m = [two_j - 2 * i for i in range(self.dim)]
        self.e = ExactMatrix(self.dim, {(i - 1, i): domain.q_int(i)
                                        for i in range(1, self.dim)})
        self.f = ExactMatrix(self.dim, {(i + 1, i): domain.q_int(two_j - i)
                                        for i in range(self.dim - 1)})
        self.k = ExactMatrix.diagonal(domain.s(t) for t in self.two_m)
        self.kinv = ExactMatrix.diagonal(domain.s(-t) for t in self.two_m)
        self._verify()

    def defining_relations(self) -> list[ExactMatrix]:
        """The defining relations as must-be-zero matrices.

        KE = qEK, KF = q^-1 FK, EF - FE = (K^2 - K^-2)/(q - q^-1),
        K K^-1 = 1 and the nilpotency E^(two_j+1) = F^(two_j+1) = 0.
        """
        d = self.domain
        qdiff = d.q(1) - d.q(-1)
        return [
            self.k * self.e - (self.e * self.k).scale(d.q(1)),
            self.k * self.f - (self.f * self.k).scale(d.q(-1)),
            (self.e * self.f - self.f * self.e)
            - (self.k * self.k - self.kinv * self.kinv).scale(d.one / qdiff),
            self.k * self.kinv - ExactMatrix.identity(self.dim, d.one),
            self.gen_power("e", self.two_j + 1),
            self.gen_power("f", self.two_j + 1),
        ]

    def _verify(self):
        if any(not m.is_zero() for m in self.defining_relations()):
            raise InternalMismatchError(
                f"defining relations fail on spin module two_j={self.two_j}")

    @domain_memo
    def gen_power(self, name: str, n: int) -> ExactMatrix:
        """Memoised n-th power of a generator matrix ("e", "f", "k" or "kinv")."""
        base = {"e": self.e, "f": self.f, "k": self.k, "kinv": self.kinv}[name]
        m = ExactMatrix.identity(self.dim, self.domain.one)
        for _ in range(n):
            m = m * base
        return m

    @domain_memo
    def monomial(self, mono: PBWMonomial) -> ExactMatrix:
        """Matrix of F^f E^e K^k on this module."""
        m = self.gen_power("f", mono.f) * self.gen_power("e", mono.e)
        if mono.k >= 0:
            return m * self.gen_power("k", mono.k)
        return m * self.gen_power("kinv", -mono.k)

    def __repr__(self):
        return f"SpinModule(two_j={self.two_j}, {self.domain.describe()})"


@domain_memo
def spin_module(two_j: int, domain: ScalarDomain) -> SpinModule:
    """The spin module two_j over domain, built once and kept in the domain's memo."""
    return SpinModule(two_j, domain)


class TensorContext:
    """A tensor product of spin modules; total dimension is the product."""

    def __init__(self, spins: tuple[int, ...], domain: ScalarDomain):
        if not spins:
            raise ArityMismatchError("a tensor context needs at least one leg")
        self.spins = tuple(spins)
        self.domain = domain
        self.modules = tuple(spin_module(t, domain) for t in self.spins)
        self.dims = tuple(m.dim for m in self.modules)
        self.total_dim = math.prod(self.dims)
        self.strides = tuple(math.prod(self.dims[i + 1:]) for i in range(len(self.dims)))

    @property
    def arity(self) -> int:
        return len(self.spins)

    def flat_index(self, multi) -> int:
        return sum(i * s for i, s in zip(multi, self.strides))

    def multi_indices(self):
        return itertools.product(*(range(d) for d in self.dims))

    def identity(self) -> ExactMatrix:
        return ExactMatrix.identity(self.total_dim, self.domain.one)

    def __repr__(self):
        return f"TensorContext(spins={self.spins}, {self.domain.describe()})"


@domain_memo
def tensor_context(spins: tuple[int, ...], domain: ScalarDomain) -> TensorContext:
    return TensorContext(tuple(spins), domain)


def group_by_first_leg(terms) -> dict[PBWMonomial, list]:
    """The (key, c) terms as {u: [(rest of key, c), ...]} over first-leg monomials u."""
    groups: dict[PBWMonomial, list] = {}
    for key, c in terms:
        groups.setdefault(key[0], []).append((key[1:], c))
    return groups


def represent_terms(terms, modules: tuple[SpinModule, ...]) -> ExactMatrix:
    """sum c rho(key) over the (key, c) terms, on the tensor product of modules.

    Leg by leg, by the mixed-product rule: rho(x) = sum_u rho_1(u) @ rho(x_u)
    over the first-leg monomials u, with x_u the terms c u@w as c w.  So the
    coefficients scale last-leg matrices, most sums happen on the last legs,
    and each leg takes one kron per distinct u.  The size comes from the
    modules, so an empty sum has the right one.
    """
    first, rest = modules[0], modules[1:]
    acc: dict[tuple[int, int], object] = {}
    deleted = False
    if rest:
        for u, tail in group_by_first_leg(terms).items():
            block = first.monomial(u).kron(represent_terms(tail, rest))
            deleted |= add_into(acc, block.items())
    else:
        for (w,), c in terms:
            deleted |= add_into(acc, first.monomial(w).items(), c)
    return ExactMatrix._raw(math.prod(m.dim for m in modules), dict(acc) if deleted else acc)


def represent(x: TensorElement, ctx: TensorContext) -> ExactMatrix:
    """The matrix of a symbolic element on the context (an algebra morphism)."""
    if x.arity != ctx.arity:
        raise ArityMismatchError(
            f"element arity {x.arity} vs context arity {ctx.arity}")
    if x.domain != ctx.domain:
        raise ArityMismatchError("element and context use different scalar domains")
    return represent_terms(x.items(), ctx.modules)


# ---------------------------------------------------------------------------
# the R-matrix and its flipped companion
# ---------------------------------------------------------------------------

def _weight_diagonal(mod_a: SpinModule, mod_b: SpinModule, sign: int = 1) -> ExactMatrix:
    """q^(2 H@H) on V_a @ V_b (diagonal entry s^(4 m_a m_b)); sign=-1 gives its inverse."""
    d = mod_a.domain
    dim_b = mod_b.dim
    out = {}
    for ia, ta in enumerate(mod_a.two_m):
        for ib, tb in enumerate(mod_b.two_m):
            idx = ia * dim_b + ib
            out[(idx, idx)] = d.s(sign * ta * tb)
    return ExactMatrix(mod_a.dim * dim_b, out)


def _series(a: ExactMatrix, b: ExactMatrix, coeff, n_max: int, one) -> ExactMatrix:
    """sum_{n=0}^{n_max} coeff(n) (a @ b)^n, stopping once (a @ b)^n vanishes.

    (a @ b)^n = a^n @ b^n, so powers and scaling stay on the factors.
    """
    total = ExactMatrix(a.dim * b.dim)
    pa, pb = ExactMatrix.identity(a.dim, one), ExactMatrix.identity(b.dim, one)
    for n in range(n_max + 1):
        if n:
            pa, pb = pa * a, pb * b
            if pa.is_zero() or pb.is_zero():
                break
        c = coeff(n)
        if c:
            total = total + pa.scale(c).kron(pb)
    return total


def _r_nilpotent(mod_a: SpinModule, mod_b: SpinModule) -> tuple[ExactMatrix, ExactMatrix]:
    """The factors of X = E q^H @ q^-H F, the nilpotent part of the R-matrix series."""
    return mod_a.e * mod_a.k, mod_b.kinv * mod_b.f


@domain_memo
def _r_core(mod_a: SpinModule, mod_b: SpinModule, extra_terms: int) -> ExactMatrix:
    """R on V_a @ V_b: q^(2 H@H) sum_n a_n (E q^H @ q^-H F)^n.

    The series truncates at n = min(two_j_a, two_j_b) by nilpotency;
    extra_terms extends it past the bound (the extra terms are zero, which
    the truncation check asserts).
    """
    d = mod_a.domain
    bound = min(mod_a.two_j, mod_b.two_j) + extra_terms
    return _weight_diagonal(mod_a, mod_b) * _series(
        *_r_nilpotent(mod_a, mod_b), d.series_coeff, bound, d.one)


@domain_memo
def _theta_core(mod_a: SpinModule, mod_b: SpinModule) -> ExactMatrix:
    """The reordered series Theta = sum_n a_n (F q^H @ q^-H E)^n."""
    d = mod_a.domain
    return _series(mod_a.f * mod_a.k, mod_b.kinv * mod_b.e, d.series_coeff,
                   min(mod_a.two_j, mod_b.two_j), d.one)


def _flip(mod_a: SpinModule, mod_b: SpinModule) -> ExactMatrix:
    """The flip V_b @ V_a -> V_a @ V_b as a square 0/1 matrix."""
    one = mod_a.domain.one
    da, db = mod_a.dim, mod_b.dim
    return ExactMatrix(da * db, {(ia * db + ib, ib * da + ia): one
                                 for ia in range(da) for ib in range(db)})


@domain_memo
def _rt_core(mod_a: SpinModule, mod_b: SpinModule) -> ExactMatrix:
    """Rtilde = R_21 on V_a @ V_b, computed two independent ways and compared."""
    via_flip, via_series = _rt_core_two_ways(mod_a, mod_b)
    if via_flip != via_series:
        raise InternalMismatchError(
            "flip-conjugated R and the reordered series disagree")
    return via_flip


def _rt_core_two_ways(mod_a: SpinModule, mod_b: SpinModule):
    flip = _flip(mod_a, mod_b)
    flip_back = _flip(mod_b, mod_a)
    via_flip = flip * _r_core(mod_b, mod_a, 0) * flip_back
    via_series = _theta_core(mod_a, mod_b) * _weight_diagonal(mod_a, mod_b)
    return via_flip, via_series


@domain_memo
def _r_core_inverse(mod_a: SpinModule, mod_b: SpinModule) -> ExactMatrix:
    """R^-1 in closed form: (sum_n a_n(q^-1) X^n) q^(-2 H@H), X as in R.

    The q-exponential series inverts by q -> q^-1 and x -> -x, so
    a_n(q^-1) = (-1)^n q^(-n(n-1)) a_n(q).  The result is certified by the
    product check R R^-1 = 1.
    """
    d = mod_a.domain

    def coeff(n):
        a = d.series_coeff(n) * d.q(-n * (n - 1))
        return -a if n % 2 else a

    inv = _series(*_r_nilpotent(mod_a, mod_b), coeff,
                  min(mod_a.two_j, mod_b.two_j), d.one) * _weight_diagonal(mod_a, mod_b, -1)
    if not (_r_core(mod_a, mod_b, 0) * inv).is_identity():
        raise InternalMismatchError("closed-form R^-1 failed the product check")
    return inv


@domain_memo
def _rt_core_inverse(mod_a: SpinModule, mod_b: SpinModule) -> ExactMatrix:
    """Rtilde^-1: the flip-conjugate of the certified R^-1 on the swapped pair.

    _rt_core asserts Rtilde = flip R_(b,a) flip^-1, so this is its inverse.
    """
    return _flip(mod_a, mod_b) * _r_core_inverse(mod_b, mod_a) * _flip(mod_b, mod_a)


def _check_leg_pair(legs, ctx):
    a, b = legs
    if not (1 <= a < b <= ctx.arity):
        raise ArityMismatchError(f"invalid leg pair {legs} for arity {ctx.arity}")
    return a, b


def embed_legs(m: ExactMatrix, legs: tuple[int, ...], ctx: TensorContext) -> ExactMatrix:
    """Embed a matrix on the tensor product of increasing legs into the
    context, identity on the other legs."""
    if list(legs) != sorted(set(legs)) or not 1 <= legs[0] <= legs[-1] <= ctx.arity:
        raise ArityMismatchError(f"invalid legs {legs} for arity {ctx.arity}")
    # The flat index in the context of each basis vector of the legs (at),
    # and of each basis vector of the other legs (offsets).
    at, offsets = [0], [0]
    for i, (d, stride) in enumerate(zip(ctx.dims, ctx.strides)):
        if i + 1 in legs:
            at = [x + j * stride for x in at for j in range(d)]
        else:
            offsets = [x + j * stride for x in offsets for j in range(d)]
    if m.dim != len(at):
        raise ArityMismatchError("matrix dimension does not match the legs")
    out = {}
    for (r, c), v in m.items():
        ar, ac = at[r], at[c]
        for off in offsets:
            out[(ar + off, ac + off)] = v
    return ExactMatrix._raw(ctx.total_dim, out)


def embed_two_leg(m: ExactMatrix, legs: tuple[int, int], ctx: TensorContext) -> ExactMatrix:
    """Embed a matrix on (V_a, V_b) into the context, identity on other legs."""
    return embed_legs(m, _check_leg_pair(legs, ctx), ctx)


def r_matrix(legs: tuple[int, int], ctx: TensorContext,
             extra_terms: int = 0) -> ExactMatrix:
    """The R-matrix acting on legs a < b of the context, identity elsewhere."""
    a, b = _check_leg_pair(legs, ctx)
    core = _r_core(ctx.modules[a - 1], ctx.modules[b - 1], extra_terms)
    return embed_two_leg(core, legs, ctx)


def r_matrix_inverse(legs: tuple[int, int], ctx: TensorContext) -> ExactMatrix:
    a, b = _check_leg_pair(legs, ctx)
    return embed_two_leg(_r_core_inverse(ctx.modules[a - 1], ctx.modules[b - 1]),
                         legs, ctx)


def r_tilde(legs: tuple[int, int], ctx: TensorContext) -> ExactMatrix:
    """The flipped R-matrix R_21 on legs a < b (both constructions compared)."""
    a, b = _check_leg_pair(legs, ctx)
    return embed_two_leg(_rt_core(ctx.modules[a - 1], ctx.modules[b - 1]), legs, ctx)


def r_tilde_inverse(legs: tuple[int, int], ctx: TensorContext) -> ExactMatrix:
    a, b = _check_leg_pair(legs, ctx)
    return embed_two_leg(_rt_core_inverse(ctx.modules[a - 1], ctx.modules[b - 1]),
                         legs, ctx)


def r_series_term(legs: tuple[int, int], ctx: TensorContext, n: int) -> ExactMatrix:
    """The n-th series term q^(2 H@H) a_n (E q^H @ q^-H F)^n on the leg pair."""
    a, b = _check_leg_pair(legs, ctx)
    mod_a, mod_b = ctx.modules[a - 1], ctx.modules[b - 1]
    d = ctx.domain
    term = _series(*_r_nilpotent(mod_a, mod_b),
                   lambda i: d.series_coeff(n) if i == n else d.zero, n, d.one)
    return embed_two_leg(_weight_diagonal(mod_a, mod_b) * term, legs, ctx)


def permutation_operator(legs: tuple[int, int], ctx: TensorContext) -> ExactMatrix:
    """The operator swapping two legs of equal spin."""
    a, b = _check_leg_pair(legs, ctx)
    ia, ib = a - 1, b - 1
    if ctx.dims[ia] != ctx.dims[ib]:
        raise ArityMismatchError("permutation_operator needs legs of equal dimension")
    one = ctx.domain.one
    out = {}
    for multi in ctx.multi_indices():
        swapped = list(multi)
        swapped[ia], swapped[ib] = swapped[ib], swapped[ia]
        out[(ctx.flat_index(swapped), ctx.flat_index(multi))] = one
    return ExactMatrix(ctx.total_dim, out)


# ---------------------------------------------------------------------------
# intermediate Casimir matrices
# ---------------------------------------------------------------------------

def casimir_scalar_highest_weight(two_j: int, domain: ScalarDomain):
    """Independent oracle for the Casimir scalar on spin j.

    On the highest-weight vector E acts as zero and K^2 reads q^(two_j), so
    the Casimir formula collapses to -(q^(two_j+1) + q^-(two_j+1))/(q + q^-1).
    """
    num = LaurentPoly({2 * two_j + 2: -1, -2 * two_j - 2: -1})
    return domain.from_ratio(num, LaurentPoly({2: 1, -2: 1}))


def leg_casimir(legs: tuple[int, ...], ctx: TensorContext) -> ExactMatrix:
    """The Casimir on one leg, or its coproduct on a leg pair, on those legs alone."""
    n = len(legs)
    sub = tensor_context(tuple(ctx.spins[i - 1] for i in legs), ctx.domain)
    return represent(extend_coproduct(casimir(ctx.domain), tuple(range(1, n + 1)), n), sub)


def intermediate_casimirs(ctx: TensorContext,
                          on_legs: dict[tuple[int, ...], ExactMatrix] | None = None
                          ) -> dict[str, ExactMatrix]:
    """All intermediate Casimir matrices of a 3- or 4-leg context.

    Those of one leg or a leg pair embed on_legs[legs] if given, else
    leg_casimir(legs, ctx).  The conjugated elements are computed along both
    routes so callers can compare them:  C13_0 as Rt_23^-1 C_13 Rt_23 and as
    R_12 C_13 R_12^-1 (keys "C13_0" and "C13_0_via_r12"), C13_1 as
    Rt_12^-1 C_13 Rt_12 and as R_23 C_13 R_23^-1; on four legs likewise C13_0
    and C24_1 (via R_34).
    """
    n = ctx.arity
    if n not in (3, 4):
        raise ArityMismatchError("intermediate Casimirs need 3 or 4 legs")
    on_legs = on_legs or {}
    out: dict[str, ExactMatrix] = {}
    pairs = [(1, 3)] + ([(1, 2), (2, 3)] if n == 3 else [(2, 4)])
    for legs in [(i,) for i in range(1, n + 1)] + pairs:
        m = on_legs[legs] if legs in on_legs else leg_casimir(legs, ctx)
        out["C" + "".join(map(str, legs))] = embed_legs(m, legs, ctx)
    c13 = out["C13"]
    out["C13_0"] = r_tilde_inverse((2, 3), ctx) * c13 * r_tilde((2, 3), ctx)
    out["C13_0_via_r12"] = r_matrix((1, 2), ctx) * c13 * r_matrix_inverse((1, 2), ctx)
    if n == 3:
        out["C123"] = represent(extend_coproduct(casimir(ctx.domain), (1, 2, 3), 3), ctx)
        out["C13_1"] = r_tilde_inverse((1, 2), ctx) * c13 * r_tilde((1, 2), ctx)
        out["C13_1_via_r23"] = r_matrix((2, 3), ctx) * c13 * r_matrix_inverse((2, 3), ctx)
    else:
        c24 = out["C24"]
        out["C24_1"] = r_tilde_inverse((2, 3), ctx) * c24 * r_tilde((2, 3), ctx)
        out["C24_1_via_r34"] = r_matrix((3, 4), ctx) * c24 * r_matrix_inverse((3, 4), ctx)
    return out


# ---------------------------------------------------------------------------
# coproducts of the R-matrix, realized honestly on three legs
# ---------------------------------------------------------------------------

@domain_memo
def coproduct_split_r(ctx: TensorContext, side: str) -> ExactMatrix:
    """(id @ D)R or (D @ id)R on a 3-leg context, built from the series.

    side "id_coproduct": the coproduct acts on the second tensor factor of
    R, so the diagonal carries s^(4 m1 (m2 + m3)) and the nilpotent part is
    A @ B with A = E q^H on leg 1 and B = D(q^-H F) on legs 2-3.  side
    "coproduct_id" is the mirror image.  The series is summed on the factors
    (``_series``), and the result is memoised in the domain, so a run builds
    each side once.
    """
    if ctx.arity != 3:
        raise ArityMismatchError("coproduct_split_r needs a 3-leg context")
    d = ctx.domain
    kinv_f = pbw_element(d, 0, 0, -1) * generator(d, "F")
    e_k = generator(d, "E") * pbw_element(d, 0, 0, 1)
    if side == "id_coproduct":
        a = represent(e_k, tensor_context(ctx.spins[:1], d))
        b = represent(coproduct(kinv_f), tensor_context(ctx.spins[1:], d))
    elif side == "coproduct_id":
        a = represent(coproduct(e_k), tensor_context(ctx.spins[:2], d))
        b = represent(kinv_f, tensor_context(ctx.spins[2:], d))
    else:
        raise ValueError(f"unknown side {side!r}")
    diag = ExactMatrix.diagonal(
        d.s(t1 * (t2 + t3) if side == "id_coproduct" else (t1 + t2) * t3)
        for t1, t2, t3 in itertools.product(*(m.two_m for m in ctx.modules)))
    return diag * _series(a, b, d.series_coeff, ctx.total_dim, d.one)
