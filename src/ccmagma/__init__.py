"""Commutative cancellative medial magmas: finite Cayley tables and
exact-rational parametric families, with exhaustive verification.

Each public name below loads its submodule on first access (PEP 562), so
`import ccmagma` alone imports neither numpy nor any submodule."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {  # submodule -> the names re-exported from it
    "core": """AxiomReport FiniteMagma Homomorphism ParseError check_axioms
        compose constant_hom derived_magma format_magma identity_hom
        idempotent_subalgebra idempotents is_homomorphism magma_from_function
        pair_hom pair_index pair_split parse_magma product_magma
        subalgebra_closure weak_maltsev_p""",
    "structures": """AssociativityReport ClassificationLabel GroupStructure
        MonoidStructure NotIdempotentError associativity_equivalences classify
        classify_finite double double_table doubling_additivity_check
        internal_group internal_monoid is_expansive is_homogeneous is_symmetric
        midpoint_distributivity_check monoid_isomorphism negate""",
    "relations": """BinaryRelation KiteInput PullbackSpan build_pullback
        equalizer_relation format_relation full_relation identity_relation
        kite_theta parse_relation_grid pullback_pairs relation_from_pairs
        subalgebra_relation subalgebra_witnesses transitivity_criterion""",
    "generation": """AbelianGroupSpec ToyodaParams element_orders extract_group
        generate_quasigroup groups_isomorphic idempotent_parity_audit
        invariant_factors toyoda_table""",
    "catalog": """CATALOG ClosureError DomainError FamilyClassification Interval
        ParametricFamily SampleReport classify_family default_samples
        half_has_no_inverse_check monoid_formula_check sampled_associativity
        sampled_axiom_check""",
    "fixtures": "",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_EXPORTS, *_SOURCE]


def __getattr__(name: str):
    if name in _EXPORTS:     # a submodule that nothing has imported yet
        return _import_module(f".{name}", __name__)
    if name in _SOURCE:
        return getattr(_import_module(f".{_SOURCE[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
