"""Exact symbolic kernel for the mirror Heisenberg-Virasoro algebra:
the bracket, the classified biderivation family, the compatible graded
left-symmetric product, and exhaustive exact verification of the
identities governing them.

Everything is computed over Q(e), the field of rational functions in the
product's formal parameter, with arbitrary-precision rational
coefficients; there is no floating point anywhere.
"""

from .algebra import (CENTERLESS, FULL, AlgebraMode, BasisVector, C, Element,
                      L, MIXED, basis_vectors, bracket, d, grading_degree, h)
from .biderivations import (BiderParams, BilinearTable, LinearMap,
                            bider_eval, check_bider_converse,
                            check_biderivation, check_commuting,
                            check_lsa_biderivation, check_post_lie,
                            grid_points, upsilon)
from .coeffs import (CoeffFns, ThetaTable, ast_residuals,
                     derived_counterparts, random_fns,
                     residuals_from_identity, solve_theta, star_residuals,
                     closed_form_fns, zero_fns)
from .expressions import ParseError, parse, parse_element, parse_scalar
from .linalg import InconsistentSystemError, UnderdeterminedSystemError
from .lsa import (SYMBOLIC, AdmissibilityError, EpsMode,
                  lsa_associator_defect, lsa_commutator, lsa_product)
from .reports import Report, reports_to_json, reports_to_text
from .scalars import (EPS, EPS_INV, ONE, ZERO, PoleError, Scalar,
                      ScalarDivisionError, ZeroEpsilonError, sc)
from .suite import CHECK_ORDER, RunConfig, run_suite

__version__ = "0.1.0"
