"""Exact analysis of bracket-generating rank-2 distributions.

Derived flags and growth vectors, Goursat detection, Tanaka symbols and
flat models, the cotangent class invariant with its maximal-class verdict,
Cartan prolongation / deprolongation, abnormal-extremal traces with corank
bounds, and polynomial infinitesimal symmetries — all over exact rational
arithmetic (floats only inside trajectory integration).
"""

__version__ = "1.0.0"

from .errors import (DegenerateFrame, NonEquiregular, NotBracketGenerating,
                     PreconditionError, SamplingFailure)
from .kernel import (PoleError, Poly, PolyRing, Q, RatFunc,
                     ZeroDenominatorError, as_q)
from .parsing import ExpressionError, parse_expr
from .geometry import Chart, OneForm, VectorField, lie_bracket, pair
from .distribution import (Distribution, FlagReport, GradedSymbol,
                           InvalidSymbol, cube_dim, equiregular_check,
                           is_goursat, strong_flag, tanaka_symbol, weak_flag)
from .freelie import FreeLieTruncated, bch_words, lyndon_basis
from .models import (build_model, cartan_jet, deprolong,
                     deprolongation_degree, flat_from_symbol,
                     free_nilpotent_symbol, monge_model,
                     monge_pfaffian_forms, prolong)
from .symplectic import (ClassReport, CotangentChart, CovectorSample,
                         FullFlagTable, char_field, class_at_point,
                         class_at_sample, cone_J_generators, fiber_sample,
                         hamiltonians, pointwise_full_flag)
from .extremals import (CorankReport, Trajectory, endpoint_errors,
                        integrate_char, nu_along)
from .symmetry import (SymmetryBasis, bracket_close_check, is_symmetry,
                       nilradical_witness_dim, stabilized_symmetry_basis,
                       symmetry_basis, symmetry_structure_constants,
                       vanishing_subspace_dim)
