"""Commutative cancellative medial magmas: finite Cayley tables and
exact-rational parametric families, with exhaustive verification."""

__version__ = "0.1.0"

from .core import (AxiomReport, FiniteMagma, Homomorphism, ParseError,
                   check_axioms, compose, constant_hom, derived_magma,
                   format_magma, identity_hom, idempotent_subalgebra,
                   idempotents, is_homomorphism, magma_from_function,
                   pair_hom, pair_index, pair_split, parse_magma,
                   product_magma, subalgebra_closure, weak_maltsev_p)
from .structures import (AssociativityReport, ClassificationLabel,
                         GroupStructure, MonoidStructure, NotIdempotentError,
                         associativity_equivalences, classify, classify_finite,
                         double, double_table, doubling_additivity_check,
                         internal_group, internal_monoid,
                         is_expansive, is_homogeneous, is_symmetric,
                         midpoint_distributivity_check, monoid_isomorphism,
                         negate)
from .relations import (BinaryRelation, KiteInput, PullbackSpan,
                        build_pullback, equalizer_relation, format_relation,
                        full_relation, identity_relation, kite_theta,
                        parse_relation_grid, pullback_pairs,
                        relation_from_pairs, subalgebra_relation,
                        subalgebra_witnesses, transitivity_criterion)
from .generation import (AbelianGroupSpec, ToyodaParams, element_orders,
                         extract_group, generate_quasigroup, groups_isomorphic,
                         idempotent_parity_audit, invariant_factors,
                         toyoda_table)
from .catalog import (CATALOG, ClosureError, DomainError, FamilyClassification,
                      Interval, ParametricFamily, SampleReport, classify_family,
                      default_samples, half_has_no_inverse_check,
                      monoid_formula_check, sampled_associativity,
                      sampled_axiom_check)
from . import fixtures
