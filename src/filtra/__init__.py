"""Filtered quiver representations over prime fields.

Conflations (vertexwise short exact sequences), extension classes, filtrations
by an ordered family with reordering and grouping, a filtration decision
procedure with an independent oracle, and preenvelope/precover constructions.
"""

from .errors import (Budget, BudgetExceeded, DimensionMismatch, ExtObstruction,
                     FiltraError, ParseError, ValidationError, ZeroExt,
                     default_budget)
from .linalg import Matrix, PrimeField
from .quiverrep import (Arrow, Quiver, RepMorphism, Representation, ThetaFamily,
                        direct_sum, direct_power, enumerate_indecomposables,
                        enumerate_reps, enumerate_subreps, euler_pairing,
                        hom_space, is_indecomposable, is_isomorphic, iso_key,
                        iso_witness, krull_schmidt)
from .conflation import (Conflation, ExtClass, ExtSpace, SplitWitness, class_of,
                         complete_square, conflation_direct_sum,
                         conflations_equivalent, connecting_map, et4_compose,
                         et4op_compose, ext_space, is_split, pullback,
                         pushforward, realize, shift_base)
from .filtration import (Filtration, FiltrationStep, GroupedFiltration,
                         GroupedStep, collapse, decide_filtered, exchange,
                         extend, group, in_add, multiplicities, oracle_filtered,
                         power_filtration, reorder, star_membership,
                         transport_top)
from .approx import (ApproxResult, VerifyReport, is_theta_injective,
                     is_theta_projective, perp_class, precover, preenvelope,
                     universal_extension_cover, universal_extension_env,
                     verify_precover, verify_preenvelope)

__version__ = "0.1.0"
