"""qaw: exact verification workbench for the Askey-Wilson algebra in U_q(sl2) tensor powers.

The package constructs U_q(sl2), its universal R-matrix and the intermediate
Casimir elements, and machine-checks the algebra identities relating them,
both symbolically (PBW normal ordering) and in finite-dimensional spin
representations with exact rational-function matrix entries.
"""

from .scalars import (LaurentPoly, CycloFrac, ScalarDomain,
                      SymbolicDomain, PointDomain, ResidueDomain,
                      RESIDUE_PRIME, SYMBOLIC, q_integer,
                      q_factorial, r_series_coefficient, cyclotomic,
                      random_admissible_point,
                      ForbiddenPointError, PoleError, NonCyclotomicError)
from .algebra import (PBWMonomial, TensorElement, ArityMismatchError,
                      InvalidPatternError, UnsupportedElementError,
                      normal_order_mul, casimir, commutator_F_En,
                      coproduct, coproduct_op, coproduct_on_leg,
                      extend_coproduct, q_commutator, tau_closed_form,
                      tau_argument_elements, c13_zero_symbolic,
                      pbw_element, generator, unit_element,
                      random_element)
from .representations import (ExactMatrix, ResidueMatrix, SpinModule, TensorContext,
                              InternalMismatchError, spin_module,
                              tensor_context, represent, r_matrix,
                              r_matrix_inverse, r_tilde, r_tilde_inverse,
                              r_series_term, permutation_operator,
                              embed_two_leg, intermediate_casimirs,
                              casimir_scalar_highest_weight,
                              coproduct_split_r)
from .checks import (CheckResult, SuiteReport, RunConfig, ConfigurationError,
                     UnknownSuiteError, run_suite, validate_config, SUITE_NAMES,
                     TOOL_VERSION, check_structure, check_rmatrix_axioms,
                     check_theorem_c13, check_tau, check_aw3,
                     check_aw3_symbolic, check_aw4, negative_control_check)

__version__ = TOOL_VERSION
