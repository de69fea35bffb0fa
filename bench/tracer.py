"""Call tracing for the traced benchmark run, installed from outside qaw.

The tracer replaces functions and methods of an imported ``qaw`` with timing
wrappers.  A function is replaced at every lookup site: the class attribute
for a method (including aliases such as ``__radd__ = __add__``), and every
``qaw`` module global bound to the same object, so names imported with
``from ... import`` (``checks.tensor_context``, ``representations.laurent_gcd``)
are traced as well.  A target missing from the code is recorded as absent.

Each wrapper counts calls and adds inclusive time (outermost call only, so
recursion is not counted twice) and self time (inclusive minus the time of
traced calls made inside it).  Self time is also summed per layer, so a
layer's self time is the time spent in its own traced code.  Stdlib
``Fraction`` arithmetic is not wrapped: its time lands in the self time of
the qaw function that calls it.

Coarse boundaries (the ``check_*`` groups, ``intermediate_casimirs``,
``represent``, ``matrix_inverse``) also record spans: name, start, end, the
enclosing span and the run_suite call they belong to.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("scalars", "algebra", "representations", "checks")

# (layer, module, attribute, key).  "Class.method" names a method in that
# class's own namespace; a bare name is a module-level function.  Several
# attributes may share a key; their counts add up.
TARGETS = [
    ("scalars", "qaw.scalars", "LaurentPoly.__add__", "laurent_add"),
    ("scalars", "qaw.scalars", "LaurentPoly.__sub__", "laurent_sub"),
    ("scalars", "qaw.scalars", "LaurentPoly.__rsub__", "laurent_sub"),
    ("scalars", "qaw.scalars", "LaurentPoly.__neg__", "laurent_neg"),
    ("scalars", "qaw.scalars", "LaurentPoly.__mul__", "laurent_mul"),
    ("scalars", "qaw.scalars", "LaurentPoly.__pow__", "laurent_pow"),
    ("scalars", "qaw.scalars", "LaurentPoly.evaluate", "point_eval"),
    ("scalars", "qaw.scalars", "RatFunc.__init__", "ratfunc_canon"),
    ("scalars", "qaw.scalars", "RatFunc.__add__", "ratfunc_add"),
    ("scalars", "qaw.scalars", "RatFunc.__sub__", "ratfunc_sub"),
    ("scalars", "qaw.scalars", "RatFunc.__rsub__", "ratfunc_sub"),
    ("scalars", "qaw.scalars", "RatFunc.__neg__", "ratfunc_neg"),
    ("scalars", "qaw.scalars", "RatFunc.__mul__", "ratfunc_mul"),
    ("scalars", "qaw.scalars", "RatFunc.__truediv__", "ratfunc_div"),
    ("scalars", "qaw.scalars", "RatFunc.__rtruediv__", "ratfunc_div"),
    ("scalars", "qaw.scalars", "RatFunc.inverse", "ratfunc_inverse"),
    ("scalars", "qaw.scalars", "RatFunc.__pow__", "ratfunc_pow"),
    ("scalars", "qaw.scalars", "RatFunc.__eq__", "ratfunc_eq"),
    ("scalars", "qaw.scalars", "laurent_gcd", "laurent_gcd"),
    ("scalars", "qaw.scalars", "laurent_divexact", "laurent_divexact"),
    ("scalars", "qaw.scalars", "ScalarDomain.q", "domain_q"),
    ("scalars", "qaw.scalars", "ScalarDomain.q_int", "domain_q_int"),
    ("scalars", "qaw.scalars", "ScalarDomain.series_coeff", "domain_series_coeff"),
    ("scalars", "qaw.scalars", "SymbolicDomain.s", "symbolic_s"),
    ("scalars", "qaw.scalars", "SymbolicDomain.from_ratio", "symbolic_from_ratio"),
    ("scalars", "qaw.scalars", "PointDomain.__init__", "point_domain_init"),
    ("scalars", "qaw.scalars", "PointDomain.s", "point_s"),
    ("scalars", "qaw.scalars", "PointDomain.from_laurent", "point_eval"),
    ("scalars", "qaw.scalars", "PointDomain.from_ratio", "point_eval"),
    ("algebra", "qaw.algebra", "normal_order_mul", "normal_order_mul"),
    ("algebra", "qaw.algebra", "coproduct", "coproduct"),
    ("algebra", "qaw.algebra", "coproduct_op", "coproduct_op"),
    ("algebra", "qaw.algebra", "coproduct_on_leg", "coproduct_on_leg"),
    ("algebra", "qaw.algebra", "extend_coproduct", "extend_coproduct"),
    ("algebra", "qaw.algebra", "q_commutator", "q_commutator"),
    ("algebra", "qaw.algebra", "casimir", "casimir"),
    ("algebra", "qaw.algebra", "tau_closed_form", "tau_closed_form"),
    ("algebra", "qaw.algebra", "c13_zero_symbolic", "c13_zero_symbolic"),
    ("algebra", "qaw.algebra", "random_element", "random_element"),
    ("algebra", "qaw.algebra", "TensorElement.__add__", "element_add"),
    ("algebra", "qaw.algebra", "TensorElement.__sub__", "element_sub"),
    ("algebra", "qaw.algebra", "TensorElement.scale", "element_scale"),
    ("representations", "qaw.representations", "ExactMatrix.__mul__", "matmul"),
    ("representations", "qaw.representations", "ExactMatrix.__add__", "matadd"),
    ("representations", "qaw.representations", "ExactMatrix.__sub__", "matsub"),
    ("representations", "qaw.representations", "ExactMatrix.__neg__", "matneg"),
    ("representations", "qaw.representations", "ExactMatrix.scale", "matscale"),
    ("representations", "qaw.representations", "ExactMatrix.kron", "kron"),
    ("representations", "qaw.representations", "ExactMatrix.__eq__", "mateq"),
    ("representations", "qaw.representations", "SpinModule.monomial", "module_monomial"),
    ("representations", "qaw.representations", "SpinModule.gen_power", "module_gen_power"),
    ("representations", "qaw.representations", "TensorContext.monomial_matrix", "monomial_matrix"),
    ("representations", "qaw.representations", "spin_module", "spin_module"),
    ("representations", "qaw.representations", "tensor_context", "tensor_context"),
    ("representations", "qaw.representations", "represent", "represent"),
    ("representations", "qaw.representations", "intermediate_casimirs", "intermediate_casimirs"),
    ("representations", "qaw.representations", "matrix_inverse", "matrix_inverse"),
    ("representations", "qaw.representations", "r_matrix", "r_matrix"),
    ("representations", "qaw.representations", "r_matrix_inverse", "r_matrix_inverse"),
    ("representations", "qaw.representations", "r_tilde", "r_tilde"),
    ("representations", "qaw.representations", "r_tilde_inverse", "r_tilde_inverse"),
    ("representations", "qaw.representations", "r_series_term", "r_series_term"),
    ("representations", "qaw.representations", "_rt_core_two_ways", "rt_core_two_ways"),
    ("representations", "qaw.representations", "embed_two_leg", "embed_two_leg"),
    ("representations", "qaw.representations", "coproduct_split_r", "coproduct_split_r"),
    ("representations", "qaw.representations", "casimir_scalar_highest_weight",
     "casimir_scalar"),
    ("checks", "qaw.checks", "check_structure", "structure"),
    ("checks", "qaw.checks", "check_rmatrix_axioms", "rmatrix"),
    ("checks", "qaw.checks", "check_theorem_c13", "theorem"),
    ("checks", "qaw.checks", "check_tau", "tau"),
    ("checks", "qaw.checks", "check_aw3", "aw3"),
    ("checks", "qaw.checks", "check_aw3_symbolic", "aw3_symbolic"),
    ("checks", "qaw.checks", "check_aw4", "aw4"),
    ("checks", "qaw.checks", "negative_control_check", "negative_control"),
]

# Keys whose calls are recorded as spans, not only aggregated.
SPAN_KEYS = {"checks." + k for k in ("structure", "rmatrix", "theorem", "tau", "aw3",
                                     "aw3_symbolic", "aw4", "negative_control")}
SPAN_KEYS |= {"representations.intermediate_casimirs", "representations.represent",
              "representations.matrix_inverse"}

# Work measured on a call's result, added up per key.
OUTPUT_MEASURES = {
    "algebra.normal_order_mul": lambda r: r.term_count(),
    "representations.matmul": lambda r: r.nnz(),
}

# lru_cache factories whose cache misses count module and context builds.
CACHED_BUILDS = [("qaw.representations", "spin_module"),
                 ("qaw.representations", "tensor_context")]


class Tracer:
    """Aggregated call statistics and coarse spans for one process."""

    def __init__(self):
        # key -> [calls, inclusive_ns, self_ns, output, depth]
        self.stats: dict[str, list[int]] = {}
        self.layer_self_ns = {layer: [0] for layer in LAYERS}
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.request = 0
        self._stack: list[int] = []
        self._span_stack: list[int] = []
        self._builds: dict[str, object] = {}

    def install(self, targets=TARGETS):
        """Wrap every target; record the ones missing from the code as absent."""
        qaw_modules = [m for name, m in sorted(sys.modules.items())
                       if m is not None and (name == "qaw" or name.startswith("qaw."))]
        for module_name, attr in CACHED_BUILDS:
            _, original = self._lookup(module_name, attr)
            if hasattr(original, "cache_info"):
                self._builds[f"{module_name.split('.')[-1]}.{attr}"] = original
            else:
                self.absent.append(f"{module_name}.{attr}.cache_info")
        for layer, module_name, attr, key in targets:
            owner, original = self._lookup(module_name, attr)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, layer, f"{layer}.{key}")
            for site in [owner] if "." in attr else qaw_modules:
                for name, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, name, wrapper)

    @staticmethod
    def _lookup(module_name: str, attr: str):
        """The namespace owning attr (a class or the module) and the callable in it."""
        module = sys.modules.get(module_name)
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        value = vars(owner).get(name) if owner is not None else None
        return owner, (value if callable(value) else None)

    def _wrap(self, fn, layer: str, key: str):
        st = self.stats.setdefault(key, [0, 0, 0, 0, 0])
        layer_acc = self.layer_self_ns[layer]
        stack = self._stack
        clock = time.perf_counter_ns
        measure = OUTPUT_MEASURES.get(key)
        spans = self.spans if key in SPAN_KEYS else None
        span_stack = self._span_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if spans is not None:
                span_id = len(spans)
                parent = span_stack[-1] if span_stack else -1
                spans.append(None)
                span_stack.append(span_id)
            stack.append(0)
            st[4] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                inner = stack.pop()
                st[4] -= 1
                st[0] += 1
                if not st[4]:
                    st[1] += dt
                st[2] += dt - inner
                layer_acc[0] += dt - inner
                if stack:
                    stack[-1] += dt
                if spans is not None:
                    span_stack.pop()
                    spans[span_id] = (span_id, parent, self.request, key, t0, t1)
            if measure is not None:
                st[3] += measure(result)
            return result
        return wrapper

    def summary(self) -> dict:
        """Plain-data totals: per key, per layer, cache builds, spans, absent targets."""
        return {
            "keys": {key: {"calls": st[0], "s": st[1] / 1e9, "self_s": st[2] / 1e9,
                           "out": st[3]}
                     for key, st in self.stats.items()},
            "layer_self_s": {layer: acc[0] / 1e9 for layer, acc in self.layer_self_ns.items()},
            "builds": {key: fn.cache_info().misses for key, fn in self._builds.items()},
            "spans": [list(s) for s in self.spans],
            "absent": list(self.absent),
        }
