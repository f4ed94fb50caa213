import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ccmagma import fixtures, generation
from ccmagma.core import FiniteMagma, check_axioms, format_magma, idempotents
from ccmagma.generation import (AbelianGroupSpec, ToyodaParams, element_orders,
                                extract_group, generate_quasigroup,
                                group_identity, groups_isomorphic,
                                idempotent_parity_audit,
                                invariant_factors, random_group_spec,
                                toyoda_table)
from ccmagma.structures import internal_monoid

from conftest import A2, F5A, Z9A
from _brute import brute_axioms, brute_groups_isomorphic


class TestGroupSpec:
    def test_encoding_round_trip(self):
        spec = AbelianGroupSpec((2, 4))
        for k in range(spec.size):
            assert spec.encode(spec.decode(k)) == k

    def test_addition_is_componentwise(self):
        spec = AbelianGroupSpec((2, 4))
        assert spec.add(spec.encode((1, 3)), spec.encode((1, 2))) == spec.encode((0, 1))

    def test_rejects_non_invariant_form(self):
        with pytest.raises(ValueError, match="invariant-factor"):
            AbelianGroupSpec((4, 2))
        with pytest.raises(ValueError, match="invariant-factor"):
            AbelianGroupSpec((2, 3))

    def test_trivial_group(self):
        spec = AbelianGroupSpec(())
        assert spec.size == 1
        assert spec.addition_table.table == ((0,),)

    def test_random_spec_covers_isomorphism_types(self):
        rng = random.Random(0)
        seen = {tuple(random_group_spec(8, rng).factors) for _ in range(80)}
        assert seen == {(8,), (2, 4), (2, 2, 2)}


class TestToyodaParams:
    def test_forced_identity_params_give_cyclic_addition(self):
        params = ToyodaParams(AbelianGroupSpec((9,)), (1,), 0, tuple(range(9)))
        table = toyoda_table(params)
        assert table == fixtures.cyclic_add(9)
        rep = check_axioms(table)
        assert rep.associative and rep.idempotents == (0,)

    def test_rejects_non_unit_multiplier(self):
        with pytest.raises(ValueError, match="not a unit"):
            ToyodaParams(AbelianGroupSpec((9,)), (3,), 0, tuple(range(9)))

    def test_rejects_bad_relabeling(self):
        with pytest.raises(ValueError, match="permutation"):
            ToyodaParams(AbelianGroupSpec((4,)), (1,), 0, (0, 0, 1, 2))

    def test_automorphism_table_is_additive_bijection(self):
        params = ToyodaParams(AbelianGroupSpec((2, 4)), (1, 3), 5,
                              tuple(range(8)))
        phi = params.automorphism
        g = params.group
        assert sorted(phi) == list(range(8))
        for i in range(8):
            for j in range(8):
                assert phi[g.add(i, j)] == g.add(phi[i], phi[j])

    def test_json_round_trip(self):
        _, params = generate_quasigroup(12, 3)
        assert ToyodaParams.from_json_dict(params.to_json_dict()) == params


class TestGenerate:
    def test_deterministic(self):
        a = generate_quasigroup(16, 5)
        b = generate_quasigroup(16, 5)
        assert a == b

    def test_different_seeds_differ_somewhere(self):
        tables = {generate_quasigroup(16, s)[0] for s in range(6)}
        assert len(tables) > 1

    def test_table_matches_params(self, batch_small):
        for _, _, magma, params in batch_small:
            assert toyoda_table(params) == magma

    def test_axioms_and_parity(self, batch_small):
        for _, _, magma, _ in batch_small:
            assert check_axioms(magma).is_ccm
            assert idempotent_parity_audit(magma)

    def test_singleton(self):
        magma, params = generate_quasigroup(1, 0)
        assert magma == fixtures.singleton()
        assert params.group.factors == ()

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            generate_quasigroup(0, 0)

    def test_order5_idempotent_counts(self):
        # phi = multiplication by m; idempotents solve (2m-1)x = -c mod 5,
        # so the count is 1 when 2m != 1, else 0 or 5
        for seed in range(30):
            magma, _ = generate_quasigroup(5, seed)
            assert len(idempotents(magma)) in (0, 1, 5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 24), st.integers(0, 10_000))
    def test_any_order_and_seed(self, order, seed):
        magma, params = generate_quasigroup(order, seed)
        assert magma.order == order
        assert check_axioms(magma).is_ccm
        assert math.prod(params.group.factors) == order


    def test_generation_digest(self):
        # tables and sidecar parameters are byte-stable across releases
        h = hashlib.sha256()
        for order in (*range(1, 65), 96, 128, 256):
            for seed in (0, 1, 7, 12345):
                magma, params = generate_quasigroup(order, seed)
                h.update(format_magma(magma).encode())
                h.update(json.dumps(params.to_json_dict(), sort_keys=True).encode())
        assert h.hexdigest() == (
            "31b11ffae553afcb5c0b51318a33108fa8f18a7273a0b2339a4be1bff2c87f30")


class TestExtractGroup:
    def test_mod5_gives_cyclic_addition(self):
        assert extract_group(F5A, 0) == fixtures.cyclic_add(5)

    def test_mod9_gives_cyclic_addition(self):
        assert extract_group(Z9A, 0) == fixtures.cyclic_add(9)

    def test_three_idem_gives_cyclic3(self):
        star = extract_group(A2, 0)
        assert invariant_factors(star) == [3]

    def test_identity_is_the_chosen_element(self):
        for e in Z9A.elements():
            star = extract_group(Z9A, e)
            assert all(star.table[e][x] == x for x in star.elements())

    def test_non_cancellative_input_raises(self):
        with pytest.raises(ValueError, match="not cancellative"):
            extract_group(fixtures.affine_mod(4, 2, 0), 0)

    def test_matches_internal_monoid_at_idempotents(self, batch_small):
        for _, _, magma, _ in batch_small:
            for e in idempotents(magma):
                star = extract_group(magma, e)
                assert star.table == internal_monoid(magma, e).star

    def test_round_trip_isomorphism_type(self, batch_small):
        for _, _, magma, params in batch_small:
            generator = params.group.addition_table
            for e in range(0, magma.order, max(1, magma.order // 4)):
                star = extract_group(magma, e)
                assert star is not None
                assert groups_isomorphic(star, generator)


class TestInvariantFactors:
    def test_cyclic5(self):
        assert invariant_factors(fixtures.cyclic_add(5)) == [5]

    def test_klein_four(self):
        table = AbelianGroupSpec((2, 2)).addition_table
        assert invariant_factors(table) == [2, 2]

    def test_trivial(self):
        assert invariant_factors(fixtures.singleton()) == []

    def test_mixed(self):
        assert invariant_factors(AbelianGroupSpec((2, 4)).addition_table) == [2, 4]
        assert invariant_factors(AbelianGroupSpec((2, 6)).addition_table) == [2, 6]
        assert invariant_factors(AbelianGroupSpec((12,)).addition_table) == [12]

    def test_element_orders_of_cyclic6(self):
        assert element_orders(fixtures.cyclic_add(6)) == (1, 6, 3, 2, 3, 6)

    def test_rejects_non_group(self):
        with pytest.raises(ValueError, match="not an abelian group"):
            invariant_factors(F5A)

    @pytest.mark.parametrize("table", [
        [[0, 0], [0, 1]],                     # monoid, 0 has no inverse
        [[0, 1, 2], [1, 2, 2], [2, 2, 2]],    # commutative monoid, not a group
        [[0, 2, 1], [2, 1, 0], [1, 0, 2]],    # Latin square without identity row
    ])
    def test_both_public_functions_reject_non_group(self, table):
        star = FiniteMagma(table)
        with pytest.raises(ValueError, match="not an abelian group"):
            invariant_factors(star)
        with pytest.raises(ValueError, match="not an abelian group"):
            element_orders(star)

    @pytest.mark.parametrize("table", [
        [[0, 1], [0, 1]], [[1, 0], [0, 1]], [[0, 0], [0, 1]],
        [[1, 2, 0], [0, 1, 2], [0, 1, 2]], [[0]],
    ] + [list(map(list, fixtures.cyclic_add(n).table)) for n in (3, 6)])
    def test_group_identity_is_first_identity_row(self, table):
        n = len(table)
        rows = [e for e in range(n) if table[e] == list(range(n))]
        assert group_identity(FiniteMagma(table)) == (rows[0] if rows else None)

    def test_every_group_type_up_to_order_128(self):
        for n in range(1, 129):
            for factors in _factor_chains(n):
                table = AbelianGroupSpec(factors).addition_table
                assert invariant_factors(table) == list(factors), factors

    @pytest.mark.parametrize("order", [128, 192, 256])
    def test_extracted_groups_match_the_sidecar(self, order):
        for seed in range(3):
            m, params = generate_quasigroup(order, seed)
            assert invariant_factors(extract_group(m, 0)) == list(params.group.factors)

    def test_no_power_iteration(self, monkeypatch):
        """The factors come from prime-power torsion counts, never from the
        per-element orders."""
        def refuse(star):
            raise AssertionError("element_orders called")

        monkeypatch.setattr(generation, "element_orders", refuse)
        m, params = generate_quasigroup(96, 1)
        assert invariant_factors(extract_group(m, 0)) == list(params.group.factors)
        assert invariant_factors(fixtures.cyclic_add(12)) == [12]

    def test_agrees_with_brute_isomorphism_search(self):
        specs = [(2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4),
                 (2, 2, 2)]
        tables = {s: AbelianGroupSpec(s).addition_table for s in specs}
        for s1 in specs:
            for s2 in specs:
                expected = brute_groups_isomorphic(tables[s1].table,
                                                   tables[s2].table)
                assert groups_isomorphic(tables[s1], tables[s2]) == expected


def _factor_chains(n, base=1):
    """Every invariant-factor tuple of order n whose factors are multiples
    of base."""
    if n == 1:
        yield ()
    for f in range(2, n + 1):
        if n % f == 0 and f % base == 0:
            for rest in _factor_chains(n // f, f):
                yield (f, *rest)


class TestGroupRejectionOracle:
    def test_swapped_intercalate_matches_brute_associativity(self):
        """A symmetric intercalate on rows and columns a, b != 0 keeps the
        table commutative and Latin with identity row 0, so the group test
        can fail only on associativity."""
        rng = random.Random(13)
        outcomes = set()
        for n in range(2, 25):
            for factors in _factor_chains(n):
                group = AbelianGroupSpec(factors).addition_table.table
                pairs = [(a, b) for a in range(1, n) for b in range(a + 1, n)
                         if group[a][a] == group[b][b]]
                for a, b in [(0, 0)] + rng.sample(pairs, min(3, len(pairs))):
                    rows = [list(r) for r in group]
                    if a:
                        x, y = rows[a][a], rows[a][b]
                        rows[a][a] = rows[b][b] = y
                        rows[a][b] = rows[b][a] = x
                    star = FiniteMagma(rows)
                    associative = brute_axioms(star.table)["associative"]
                    for fn in (invariant_factors, element_orders):
                        try:
                            fn(star)
                            rejected = False
                        except ValueError as exc:
                            assert str(exc) == "input is not an abelian group table"
                            rejected = True
                        assert rejected is not associative, (factors, a, b)
                        outcomes.add(rejected)
        assert outcomes == {True, False}


class TestGroupsIsomorphic:
    def test_extracted_vs_cyclic(self):
        assert groups_isomorphic(extract_group(F5A, 0), fixtures.cyclic_add(5))

    def test_cyclic4_vs_klein(self):
        assert not groups_isomorphic(fixtures.cyclic_add(4),
                                     AbelianGroupSpec((2, 2)).addition_table)

    def test_reflexive(self):
        g = AbelianGroupSpec((2, 4)).addition_table
        assert groups_isomorphic(g, g)
