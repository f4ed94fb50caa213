import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccmagma import core, fixtures
from ccmagma.core import (FiniteMagma, Homomorphism, ParseError,
                          _associative_on, _column_inverse, _generators,
                          _toyoda_gens, check_axioms, constant_hom,
                          derived_magma, format_magma, identity_hom,
                          idempotent_subalgebra, idempotents, is_homomorphism,
                          pair_hom, pair_split, parse_magma, product_magma,
                          subalgebra_closure, weak_maltsev_p)
from ccmagma.generation import (AbelianGroupSpec, extract_group, generate_quasigroup,
                                idempotent_parity_audit, invariant_factors)
from ccmagma.relations import full_relation, subalgebra_relation
from ccmagma.structures import internal_monoid, midpoint_distributivity_check

from conftest import A2, A3, F5A, Z9A, FINITE_FIXTURES
from _brute import (brute_axioms, brute_closure, brute_generators,
                    brute_groups_isomorphic, brute_monoid_invariants, brute_parse,
                    brute_star, commutative_latin_squares)

A2_TEXT = "3\n0 2 1\n2 1 0\n1 0 2"

# symmetric Latin square of order 4 that fails mediality; found by
# exhaustive search over all symmetric Latin squares of that order
NON_MEDIAL_4 = FiniteMagma(((0, 1, 3, 2), (1, 2, 0, 3), (3, 0, 2, 1), (2, 3, 1, 0)))


class TestParse:
    def test_three_idempotent_table(self):
        assert parse_magma(A2_TEXT) == A2

    def test_singleton(self):
        assert parse_magma("1\n0") == fixtures.singleton()

    def test_entry_out_of_range(self):
        with pytest.raises(ParseError, match="entry 2 >= order 2"):
            parse_magma("2\n0 2\n2 1")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="not an integer"):
            parse_magma("x\n0")

    def test_order_zero(self):
        with pytest.raises(ParseError, match="order must be >= 1"):
            parse_magma("0\n")

    def test_row_length_mismatch(self):
        with pytest.raises(ParseError, match="expected 3 entries"):
            parse_magma("3\n0 2 1\n2 1\n1 0 2")

    def test_missing_rows(self):
        with pytest.raises(ParseError, match="expected 3 rows"):
            parse_magma("3\n0 2 1")

    def test_comments_and_whitespace(self):
        text = "# comment\n3   \n0 2 1\n# mid comment\n2 1 0   \n1 0 2\n"
        assert parse_magma(text) == A2

    def test_non_canonical_integers(self):
        # anything int() reads is an entry, as in the per-line parser
        assert parse_magma("3\n00 +2 1\n2 1 0\n1 0 \uff12") == A2
        with pytest.raises(ParseError, match="line 2: entry 10 >= order 2"):
            parse_magma("2\n0 1_0\n1 0")

    def test_format_round_trip(self):
        for m in FINITE_FIXTURES.values():
            assert parse_magma(format_magma(m)) == m

    def test_format_is_canonical(self):
        assert format_magma(A2) == "3\n0 2 1\n2 1 0\n1 0 2\n"

    @pytest.mark.parametrize("text, message", [
        ("", "empty input"),
        ("# only a comment\n\n   \n", "empty input"),
        ("x\n0", "line 1: order 'x' is not an integer"),
        ("# c\n3 3\n0 1 2", "line 2: order '3 3' is not an integer"),
        ("0\n", "line 1: order must be >= 1, got 0"),
        ("-2\n0 0\n0 0", "line 1: order must be >= 1, got -2"),
        ("3\n0 2 1", "expected 3 rows, found 1"),
        ("2\n0 1\n1 0\n0 1", "expected 2 rows, found 3"),
        ("3\n0 9 1\n2 1 0", "expected 3 rows, found 2"),
        ("3\n0 2 1\n2 1\n1 0 2", "line 3: expected 3 entries, found 2"),
        ("2\n0 1 1\n1 0", "line 2: expected 2 entries, found 3"),
        ("2\n0 a\n1 0", "line 2: entry 'a' is not an integer"),
        ("2\n0 1.0\n1 0", "line 2: entry '1.0' is not an integer"),
        ("# c\n2\n# c\n0 1\n1 x", "line 5: entry 'x' is not an integer"),
        ("2\n0 2\n2 1", "line 2: entry 2 >= order 2"),
        ("2\n0 1\n1 99999999999999999999999", "line 3: entry 99999999999999999999999 >= order 2"),
        ("2\n0 -1\n1 0", "line 2: entry -1 is negative"),
        ("2\n-7 5\n1 0", "line 2: entry -7 is negative"),
        # per-line order: an earlier line's range error wins over a later
        # line's count or integer error, and within a line the first entry
        ("3\n0 5 1\n2 1\n1 0 2", "line 2: entry 5 >= order 3"),
        ("3\n0 1 2\n2 -1 0\n1 0", "line 3: entry -1 is negative"),
        ("3\n0 1 7\n2 1 0\n1 0 z", "line 2: entry 7 >= order 3"),
        ("3\n0 1 2\n2 1 0 0\n1 0 9", "line 3: expected 3 entries, found 4"),
        ("2\n0 q 5\n1 0", "line 2: expected 2 entries, found 3"),
        ("2\n0 q\n1 9", "line 2: entry 'q' is not an integer"),
    ])
    def test_parse_error_messages(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_magma(text)
        assert str(info.value) == message


def _parsed(parse, text):
    """The table a reader returns, or the text of the error it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def _reference_format(m):
    return "\n".join([str(m.order), *(" ".join(map(str, row)) for row in m.table)]) + "\n"


class TestParseOracle:
    """parse_magma and format_magma against the line-by-line reference:
    the same table or the same ParseError text for every input."""

    # inserted, or written over one character; blank lines via "\n\n"
    TOKENS = ("0", "  ", "\t", "+", "_", "\uff12", "\u00b2", "\xa0", "\x0c", "#", "-1",
              "1.5", "0x1", "1" * 20, "\n", "\n\n")

    @pytest.fixture(scope="class")
    def generated(self):
        return [generate_quasigroup(order, 3)[0]
                for order in (*range(1, 65), 128, 256)]

    def test_canonical_text(self, generated):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in generated:
                text = format_magma(m)
                assert text == _reference_format(m)
                assert FiniteMagma(brute_parse(text)) == m
                assert parse_magma(text) == m

    def test_format_matches_reference_on_fixtures(self):
        for m in (*FINITE_FIXTURES.values(), NON_MEDIAL_4):
            assert format_magma(m) == _reference_format(m)

    def test_non_commutative_tables(self):
        # every generated table is symmetric, so a transposed read or write
        # shows only here
        rng = random.Random(11)
        for n in (*range(1, 21), 64):
            m = FiniteMagma([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
            text = format_magma(m)
            assert text == _reference_format(m)
            assert parse_magma(text) == FiniteMagma(brute_parse(text)) == m

    def test_token_moved_to_the_next_row(self, generated):
        # n*n single-spaced tokens, but one row one longer and the next one
        # shorter: the per-line count error, never a table
        for m in generated[1:12]:
            lines = format_magma(m).splitlines()
            head, tail = lines[1].rsplit(" ", 1)
            lines[1:3] = [head, f"{tail} {lines[2]}"]
            text = "\n".join(lines)
            assert _parsed(parse_magma, text) == _parsed(brute_parse, text) \
                == f"line 2: expected {m.order} entries, found {m.order - 1}"

    def _mutants(self):
        rng = random.Random(2024)
        bases = [format_magma(generate_quasigroup(order, 5)[0])
                 for order in (1, 2, 3, 5, 8, 11, 16)]
        bases.append("# a comment\n" + bases[3].replace("\n", "\n# mid\n", 2))
        for _ in range(700):
            text = rng.choice(bases)
            i = rng.randrange(len(text) + 1)
            op = rng.choice(("insert", "delete", "replace"))
            if op == "insert":
                yield text[:i] + rng.choice(self.TOKENS) + text[i:]
            elif op == "delete":
                yield text[:i] + text[i + rng.randint(1, 3):]
            else:
                yield text[:i] + rng.choice(self.TOKENS) + text[i + 1:]

    def test_mutated_text(self):
        outcomes = {"table": 0, "error": 0}
        for text in self._mutants():
            expected = _parsed(brute_parse, text)
            got = _parsed(parse_magma, text)
            if isinstance(expected, str):
                outcomes["error"] += 1
                assert got == expected, text
                with pytest.raises(ParseError):
                    parse_magma(text)
            else:
                outcomes["table"] += 1
                assert got == FiniteMagma(expected), text
        # the mutations reach both outcomes often
        assert min(outcomes.values()) > 100, outcomes


class TestFiniteMagma:
    ROWS = ((0, 2, 1), (2, 1, 0), (1, 0, 2))

    def test_tuples_lists_and_arrays_agree(self):
        forms = [FiniteMagma(self.ROWS),
                 FiniteMagma([list(r) for r in self.ROWS]),
                 FiniteMagma(np.array(self.ROWS)),
                 FiniteMagma(np.array(self.ROWS, dtype=np.int8))]
        for m in forms:
            assert m == A2
            assert hash(m) == hash(A2)
            assert m.table == self.ROWS
            assert m.order == 3
            assert m.arr.dtype == np.intp
        assert len(set(forms)) == 1

    def test_unequal_tables(self):
        assert FiniteMagma(self.ROWS) != fixtures.cyclic_add(3)
        assert FiniteMagma(self.ROWS) != fixtures.singleton()
        assert FiniteMagma(self.ROWS) != self.ROWS

    def test_arr_is_read_only(self):
        m = FiniteMagma(self.ROWS)
        assert not m.arr.flags.writeable
        with pytest.raises(ValueError):
            m.arr[0, 0] = 1

    def test_caller_array_is_copied(self):
        src = np.array(self.ROWS, dtype=np.intp)
        m = FiniteMagma(src)
        src[0, 0] = 2
        src[1] = 0
        assert m == A2
        assert m.table == self.ROWS
        assert m.arr[0, 0] == 0

    def test_caller_lists_are_copied(self):
        rows = [list(r) for r in self.ROWS]
        m = FiniteMagma(rows)
        rows[0][0] = 2
        assert m.table == self.ROWS

    @pytest.mark.parametrize("table, message", [
        ((), "order must be >= 1"),
        (np.zeros((0, 0), dtype=np.intp), "order must be >= 1"),
        (((0, 1), (1,)), "row 1 has length 1, expected 2"),
        (((0,), (0,)), "row 0 has length 1, expected 2"),
        (np.zeros((2, 3), dtype=np.intp), "row 0 has length 3, expected 2"),
        (((0, 2), (1, 0)), "entry 2 out of range 0..1"),
        (((0, 1), (-1, 0)), "entry -1 out of range 0..1"),
        (((0, 5), (1,)), "entry 5 out of range 0..1"),
        (((0, 1), (1, 2 ** 70)), f"entry {2 ** 70} out of range 0..1"),
    ])
    def test_construction_errors(self, table, message):
        with pytest.raises(ValueError) as info:
            FiniteMagma(table)
        assert str(info.value) == message


def _as_oracle(rep):
    """An AxiomReport in the shape brute_axioms returns."""
    return {"commutative": rep.commutative,
            "commutative_ce": rep.commutative_counterexample,
            "cancellative": rep.cancellative,
            "cancellative_ce": rep.cancellative_counterexample,
            "medial": rep.medial, "medial_ce": rep.medial_counterexample,
            "associative": rep.associative,
            "associative_ce": rep.associative_counterexample,
            "idempotents": rep.idempotents}


class TestCheckAxioms:
    def test_three_idempotent_fixture(self):
        rep = check_axioms(A2)
        assert rep.commutative and rep.cancellative and rep.medial
        assert not rep.associative
        assert rep.associative_counterexample == (0, 0, 1)
        assert rep.idempotents == (0, 1, 2)

    def test_mod5_fixture(self):
        rep = check_axioms(F5A)
        assert rep.is_ccm and not rep.associative
        assert rep.idempotents == (0,)

    def test_no_idempotent_fixture(self):
        rep = check_axioms(A3)
        assert rep.is_ccm
        assert rep.idempotents == ()

    def test_non_medial_order4(self):
        rep = check_axioms(NON_MEDIAL_4)
        assert rep.commutative and rep.cancellative
        assert not rep.medial
        assert rep.medial_counterexample == (0, 0, 1, 1)

    def test_non_cancellative(self):
        rep = check_axioms(fixtures.affine_mod(4, 2, 0))
        assert rep.commutative and rep.medial and not rep.cancellative

    def test_non_commutative(self):
        m = FiniteMagma(((0, 1), (0, 1)))
        rep = check_axioms(m)
        assert not rep.commutative
        assert rep.commutative_counterexample == (0, 1)

    def test_flags_match_counterexample_presence(self):
        for m in (A2, A3, NON_MEDIAL_4, fixtures.affine_mod(4, 2, 0)):
            rep = check_axioms(m)
            assert rep.commutative == (rep.commutative_counterexample is None)
            assert rep.cancellative == (rep.cancellative_counterexample is None)
            assert rep.medial == (rep.medial_counterexample is None)
            assert rep.associative == (rep.associative_counterexample is None)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(2, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_matches_brute_force(self, rows):
        m = FiniteMagma(tuple(tuple(r) for r in rows))
        assert _as_oracle(check_axioms(m)) == brute_axioms(m.table)

    def test_matches_brute_force_on_generated_and_defective(self):
        branches = set()
        for kind, table in _axiom_inputs():
            rep = check_axioms(FiniteMagma(table))
            assert _as_oracle(rep) == brute_axioms(table), (kind, len(table))
            branches.add(_certificate_branch(np.array(table)))
        # the inputs reach the certificate's every outcome, including both
        # ways it can fail on a commutative Latin square
        assert branches == {"not-latin", "certified", "star-not-associative",
                            "R-not-affine"}

    def test_star_matches_brute_force_on_generated_and_defective(self):
        for kind, table in _axiom_inputs():
            m = FiniteMagma(table)
            for e in idempotents(m)[:1]:
                expected = brute_star(table, e)
                # the O(n^4) invariant oracle runs at the smaller orders
                exhaustive = len(table) <= 16
                try:
                    mon = internal_monoid(m, e)
                except ValueError:
                    # a solvable star that breaks the invariants
                    assert kind not in ("generated", "group") and expected is not None
                    if exhaustive:
                        assert not brute_monoid_invariants(table, expected, e)
                    continue
                if expected is None:
                    assert mon is None, (kind, len(table))
                else:
                    assert mon.star == expected, (kind, len(table))
                    if exhaustive:
                        assert brute_monoid_invariants(table, mon.star, e)

    def test_monoid_invariant_failure_matches_brute_force(self):
        """A relabelled input is commutative and Latin, so its star always
        exists: internal_monoid raises exactly when the invariants fail,
        which on these inputs is exactly when the table is not medial."""
        outcomes = set()
        for kind, table in _axiom_inputs():
            m = FiniteMagma(table)
            if kind != "relabelled" or not idempotents(m):
                continue
            e = idempotents(m)[0]
            holds = brute_monoid_invariants(table, brute_star(table, e), e)
            assert holds is brute_axioms(table)["medial"]
            try:
                internal_monoid(m, e)
                raised = False
            except ValueError as exc:
                assert str(exc) == ("constructed star table violates monoid invariants; "
                                    "the base table is not a valid ccm-magma")
                raised = True
            assert raised is not holds, len(table)
            outcomes.add(raised)
        assert outcomes == {True, False}

    def test_every_commutative_latin_square_matches_brute_force(self):
        """All 825 commutative Latin squares of orders 1-5: the axiom
        report, and at every idempotent whether internal_monoid raises."""
        squares = [t for n in range(1, 6) for t in commutative_latin_squares(n)]
        assert len(squares) == 825
        outcomes = set()
        for table in squares:
            m = FiniteMagma(table)
            assert _as_oracle(check_axioms(m)) == brute_axioms(table), table
            for e in idempotents(m):
                holds = brute_monoid_invariants(table, brute_star(table, e), e)
                try:
                    internal_monoid(m, e)
                    raised = False
                except ValueError as exc:
                    assert str(exc) == ("constructed star table violates monoid invariants; "
                                        "the base table is not a valid ccm-magma")
                    raised = True
                assert raised is not holds, (table, e)
                outcomes.add(raised)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("twist", [lambda a, b: (a, (b + (a == 2)) % 3),
                                       lambda a, b: ((a + (b == 2)) % 3, b)])
    def test_certificate_checks_every_generator(self, twist):
        """x op y = R(x + y) over Z3 x Z3 (element 3a + b), with R a
        bijection fixing 0 that is additive along one generator of the
        greedy pair {1, 3} but not the other: commutative, Latin, and not
        medial, which only the check on the second generator can see."""
        def r(x):
            a, b = twist(*divmod(x, 3))
            return 3 * a + b
        table = tuple(tuple(r(3 * ((x // 3 + y // 3) % 3) + (x + y) % 3) for y in range(9))
                      for x in range(9))
        m = FiniteMagma(table)
        rep = check_axioms(m)
        assert _as_oracle(rep) == brute_axioms(table)
        assert rep.cancellative and not rep.medial
        with pytest.raises(ValueError, match="violates monoid invariants"):
            internal_monoid(m, 0)

    def test_certificate_accepts_every_valid_table(self, monkeypatch):
        """The O(n^4) M3 scan, the one sliced scan of n^2 slices, never runs
        on a medial commutative Latin square and always runs on a
        non-medial one, so the certificate alone decides M3 there."""
        counts = []
        scan = core._first_sliced

        def counted(count, slice_at):
            counts.append(count)
            return scan(count, slice_at)

        monkeypatch.setattr(core, "_first_sliced", counted)

        def m3_scanned(table):
            counts.clear()
            check_axioms(FiniteMagma(table))
            return len(table) ** 2 in counts

        for n in range(2, 65):
            for seed in range(3):
                assert not m3_scanned(generate_quasigroup(n, seed)[0].arr), (n, seed)
        medial = set()
        for n in range(2, 6):
            for table in commutative_latin_squares(n):
                is_medial = brute_axioms(table)["medial"]
                assert m3_scanned(table) is not is_medial, table
                medial.add(is_medial)
        assert medial == {True, False}

    @pytest.mark.parametrize("defect", [None, "cell", "intercalate"])
    def test_memory_stays_below_cubic(self, defect):
        n = 96
        m, _ = generate_quasigroup(n, 1)
        table = m.table
        if defect == "cell":
            table = _perturb_cell(table, random.Random(1))
        elif defect == "intercalate":
            table = _swap_intercalates(table, 1, random.Random(1))
        m = FiniteMagma(table)
        calls = [lambda: check_axioms(m)]
        if defect is None:
            e = idempotents(m)[0]
            calls.append(lambda: internal_monoid(m, e))
            mon = internal_monoid(m, e)
            calls.append(lambda: midpoint_distributivity_check(m, mon))
            # is_internal slices by related pair: on the full relation and
            # on the largest proper subalgebra through e, grown greedily
            xs = (e,)
            for y in m.elements():
                grown = subalgebra_closure(m, {*xs, y})
                xs = grown if len(grown) < n else xs
            assert len(xs) == n // 2   # no proper subquasigroup is larger
            calls += [full_relation(m, m).is_internal,
                      subalgebra_relation(m, xs, e).is_internal]
        for call in calls:
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < n ** 3, peak

    def test_valid_tables_are_latin(self, batch_small):
        for _, _, m, _ in batch_small:
            assert check_axioms(m).is_ccm
            full = set(m.elements())
            for row in m.table:
                assert set(row) == full


def _swap_intercalates(table, count, rng):
    """Copy with up to count symmetric intercalate swaps.  t[a][a] = t[b][b]
    makes rows and columns a, b an intercalate; swapping its two symbols
    keeps the table commutative and Latin, so only mediality can break."""
    rows = [list(r) for r in table]
    pairs = [(a, b) for a in range(len(rows)) for b in range(a + 1, len(rows))
             if rows[a][a] == rows[b][b]]
    for a, b in rng.sample(pairs, min(count, len(pairs))):
        if rows[a][a] == rows[b][b]:  # an earlier swap may have moved it
            x, y = rows[a][a], rows[a][b]
            rows[a][a] = rows[b][b] = y
            rows[a][b] = rows[b][a] = x
    return tuple(map(tuple, rows))


def _perturb_cell(table, rng):
    rows = [list(r) for r in table]
    n = len(rows)
    i, j = rng.randrange(n), rng.randrange(n)
    rows[i][j] = rng.choice([v for v in range(n) if v != rows[i][j]])
    return tuple(map(tuple, rows))


def _relabel(table, rng):
    """x op' y = pi(x) op pi(y): commutative, Latin and isotopic to an
    abelian group, but medial only when pi is affine."""
    pi = list(range(len(table)))
    rng.shuffle(pi)
    return tuple(tuple(table[pi[x]][pi[y]] for y in pi) for x in pi)


def _axiom_inputs():
    rng = random.Random(7)
    out = []
    for n in range(2, 25):
        for seed in (n, 100 + n):
            m = generate_quasigroup(n, seed)[0]
            table = m.table
            # the group star(x, y) op 0 = x op y, with identity 0
            group = extract_group(m, 0).table
            out += [("generated", table),
                    ("swapped", _swap_intercalates(table, 1 + seed % 3, rng)),
                    ("cell", _perturb_cell(table, rng)),
                    ("relabelled", _relabel(table, rng)),
                    ("group", group),
                    ("swapped-group", _swap_intercalates(group, 1, rng))]
    return out


def _certificate_branch(t):
    if not (np.array_equal(t, t.T)
            and (np.sort(t, axis=0) == np.arange(len(t))[:, None]).all()):
        return "not-latin"
    star = _column_inverse(t, 0)[t]
    if _toyoda_gens(t, 0, star) is not None:
        return "certified"
    if not _associative_on(star, _generators(star)):
        return "star-not-associative"
    return "R-not-affine"


def _near_miss(b_factors, m, rng):
    """x o y = R(x + y) over B x Z_m (element m*b + k) with R(b, k) =
    (sigma(b), k) for a random permutation sigma of B: commutative and
    Latin, and medial only when sigma is affine.  R fixes the Z_m
    coordinate, so an affinity check on a generator along Z_m alone
    passes."""
    add = AbelianGroupSpec(b_factors).addition_table.table
    sigma = list(range(len(add)))
    rng.shuffle(sigma)
    n = len(add) * m
    return tuple(tuple(sigma[add[x // m][y // m]] * m + (x + y) % m for y in range(n))
                 for x in range(n))


class TestOneCertificatePerTable:
    """check_axioms' certificate vouches for the star at every unit:
    internal_monoid and extract_group compare their stars with its
    translates, so these oracles must hold at every unit, not only at 0."""

    def test_every_unit_matches_brute_force(self):
        inputs = [(m.table, list(params.group.factors))
                  for n in [*range(1, 41), 64, 96] for seed in range(3)
                  for m, params in [generate_quasigroup(n, seed)]]
        inputs += [(t, None) for n in range(1, 6) for t in commutative_latin_squares(n)
                   if brute_axioms(t)["medial"]]
        pairs = 0
        for table, factors in inputs:
            m = FiniteMagma(table)
            for e in m.elements():
                expected = brute_star(table, e)
                star = extract_group(m, e)
                assert star.table == expected, (table, e)
                got = invariant_factors(star)
                if factors is None:
                    group = AbelianGroupSpec(got).addition_table.table
                    assert brute_groups_isomorphic(expected, group), (table, e)
                else:
                    assert got == factors, (len(table), e)
                if table[e][e] == e:
                    assert internal_monoid(m, e).star == expected, (table, e)
                pairs += 1
        assert pairs == 3755

    def test_near_miss_family_matches_brute_force(self):
        """The family of _near_miss at orders <= 18, ten seeds each: every
        axiom report, and at orders <= 16 whether internal_monoid raises at
        each idempotent, agree with the oracles.  Only a check of R's
        affinity on every generator tells the non-medial ones apart."""
        rng = random.Random(16)
        outcomes = {"medial": set(), "raised": set()}
        for b_factors in [(5,), (2, 4), (3, 3), (7,), (2, 2, 2), (6,), (9,), (2, 6)]:
            for m in (2, 3):
                if math.prod(b_factors) * m > 18:
                    continue
                for _ in range(10):
                    table = _near_miss(b_factors, m, rng)
                    mag = FiniteMagma(table)
                    oracle = brute_axioms(table)
                    assert _as_oracle(check_axioms(mag)) == oracle, table
                    outcomes["medial"].add(oracle["medial"])
                    if len(table) > 16:
                        continue
                    for e in idempotents(mag):
                        holds = brute_monoid_invariants(table, brute_star(table, e), e)
                        try:
                            internal_monoid(mag, e)
                            raised = False
                        except ValueError:
                            raised = True
                        assert raised is not holds, (table, e)
                        outcomes["raised"].add(raised)
        assert outcomes == {"medial": {True, False}, "raised": {True, False}}

    def test_uncertified_table_keeps_its_own_proof(self):
        """max over {0, 1} is commutative but not cancellative, so it has no
        certificate; its star at 0 is max itself, a monoid with unit 0,
        proved without one."""
        table = ((0, 1), (1, 1))
        m = FiniteMagma(table)
        assert _as_oracle(check_axioms(m)) == brute_axioms(table)
        assert brute_star(table, 0) == table
        assert brute_monoid_invariants(table, table, 0)
        assert internal_monoid(m, 0).star == table
        assert internal_monoid(m, 1) is None
        assert extract_group(m, 0) is None
        with pytest.raises(ValueError, match="column 1 is not injective"):
            extract_group(m, 1)


class TestIdempotents:
    def test_fixture_counts(self):
        assert idempotent_subalgebra(A2) == (0, 1, 2)
        assert idempotent_subalgebra(A3) == ()
        assert idempotent_subalgebra(Z9A) == (0, 3, 6)

    def test_parity_audit(self):
        for m in FINITE_FIXTURES.values():
            assert idempotent_parity_audit(m)

    def test_closure_of_idempotents(self, batch_small):
        for _, _, m, _ in batch_small:
            idem = set(idempotent_subalgebra(m))
            for x in idem:
                for y in idem:
                    assert m.table[x][y] in idem


class TestSubalgebraClosure:
    def test_idempotent_singleton_is_closed(self):
        # 3 op 3 = 12 mod 9 = 3, so {3} is already closed
        assert subalgebra_closure(Z9A, {3}) == (3,)

    def test_pair_generates_index3_subalgebra(self):
        assert subalgebra_closure(Z9A, {0, 3}) == (0, 3, 6)

    def test_single_idempotent(self):
        assert subalgebra_closure(A2, {0}) == (0,)

    def test_generator_of_everything(self):
        assert subalgebra_closure(F5A, {1}) == (0, 1, 2, 3, 4)

    def test_result_is_closed(self):
        for seed in ({1}, {2}, {0, 1}, {5}):
            closed = subalgebra_closure(Z9A, seed)
            assert subalgebra_closure(Z9A, closed) == closed


class TestClosureOracle:
    """subalgebra_closure and the greedy _generators, both built on
    core._close, against the pure-Python fixed point in tests/_brute.py."""

    def test_random_tables(self):
        rng = random.Random(20)
        for n in range(1, 10):
            for _ in range(6):
                table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
                m = FiniteMagma(table)
                assert _generators(m.arr) == brute_generators(table)
                for x in range(n):
                    assert subalgebra_closure(m, {x}) == brute_closure(table, {x})
                    y = rng.randrange(n)
                    assert subalgebra_closure(m, {x, y}) == brute_closure(table, {x, y})

    def test_generated_tables(self):
        for n in range(1, 41):
            m, _ = generate_quasigroup(n, n)
            table = m.table
            assert _generators(m.arr) == brute_generators(table)
            star = m._star0
            assert _generators(star) == brute_generators(star.tolist())
            e = (idempotents(m) or (0,))[0]
            for y in range(n):
                assert subalgebra_closure(m, {y}) == brute_closure(table, {y})
                assert subalgebra_closure(m, {e, y}) == brute_closure(table, {e, y})


class TestHomomorphisms:
    def test_identity(self):
        ok, ce = is_homomorphism(identity_hom(F5A))
        assert ok and ce is None

    def test_scaling_endomorphism(self):
        h = Homomorphism(F5A, F5A, tuple((2 * x) % 5 for x in range(5)))
        assert is_homomorphism(h) == (True, None)

    def test_shift_is_not_endomorphism(self):
        h = Homomorphism(F5A, F5A, tuple((x + 1) % 5 for x in range(5)))
        assert is_homomorphism(h) == (False, (0, 0))

    def test_constant_requires_idempotent(self):
        assert is_homomorphism(constant_hom(A2, F5A, 0))[0]
        with pytest.raises(ValueError, match="not idempotent"):
            constant_hom(A2, F5A, 1)

    def test_map_validation(self):
        with pytest.raises(ValueError):
            Homomorphism(F5A, F5A, (0, 1, 2))
        with pytest.raises(ValueError):
            Homomorphism(F5A, F5A, (0, 1, 2, 3, 9))


class TestProduct:
    def test_unit_of_product(self):
        prod = product_magma(A2, fixtures.singleton())
        assert prod.table == A2.table

    def test_square_of_mod5(self):
        prod = product_magma(F5A, F5A)
        assert prod.order == 25
        assert check_axioms(prod).is_ccm

    def test_idempotents_multiply(self):
        prod = product_magma(A2, A3)
        assert prod.order == 9
        assert idempotents(prod) == ()

    def test_pair_split_inverts_encoding(self):
        prod = product_magma(F5A, A2)
        for k in prod.elements():
            i, j = pair_split(k, A2.order)
            assert k == i * A2.order + j


class TestPairHom:
    def test_identity_pair_on_mod5(self):
        f = pair_hom(identity_hom(F5A), identity_hom(F5A))
        expected = tuple(F5A.table[x][y] for x in range(5) for y in range(5))
        assert f.map == expected

    def test_identity_with_constant(self):
        f = pair_hom(identity_hom(F5A), constant_hom(F5A, F5A, 0))
        expected = tuple((2 * x) % 5 for x in range(5) for _ in range(5))
        assert f.map == expected

    def test_identity_pair_on_three_idem(self):
        f = pair_hom(identity_hom(A2), identity_hom(A2))
        assert is_homomorphism(f) == (True, None)

    def test_target_mismatch(self):
        with pytest.raises(ValueError, match="shared target"):
            pair_hom(identity_hom(F5A), identity_hom(A2))


class TestDerivedMagma:
    def test_scaling_gives_tripled_sum(self):
        g = Homomorphism(F5A, F5A, tuple((2 * x) % 5 for x in range(5)))
        derived = derived_magma(F5A, g, 0)
        # g(x op y) op 0 = 2*(2*2(x+y)) = 8(x+y) = 3(x+y) mod 5
        assert derived == fixtures.affine_mod(5, 3, 0)
        assert check_axioms(derived).is_ccm

    def test_identity_endomorphism(self):
        derived = derived_magma(A2, identity_hom(A2), 0)
        expected = tuple(tuple(A2.table[A2.table[x][y]][0] for y in range(3))
                         for x in range(3))
        assert derived.table == expected
        assert check_axioms(derived).is_ccm

    def test_rejects_non_injective(self):
        with pytest.raises(ValueError, match="injective"):
            derived_magma(F5A, constant_hom(F5A, F5A, 0), 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 8))
    def test_always_valid_on_mod9(self, mult, a):
        # x -> 3x+... is not injective mod 9; multipliers coprime to 9 are
        if mult % 3 == 0:
            return
        g = Homomorphism(Z9A, Z9A, tuple((mult * x) % 9 for x in range(9)))
        if not is_homomorphism(g)[0]:
            return
        assert check_axioms(derived_magma(Z9A, g, a)).is_ccm


class TestWeakMaltsevTerm:
    def test_values_from_no_idem_table(self):
        assert weak_maltsev_p(A3, 0, 1, 1) == 2
        assert weak_maltsev_p(A3, 1, 1, 0) == 2

    def test_identities_on_fixtures(self):
        for m in FINITE_FIXTURES.values():
            n = m.order
            for x in range(n):
                for y in range(n):
                    assert weak_maltsev_p(m, x, y, y) == weak_maltsev_p(m, y, y, x)
            for a in range(n):
                seen = [weak_maltsev_p(m, x, a, a) for x in range(n)]
                assert len(set(seen)) == n

    def test_idempotent_fixed_point(self):
        for e in idempotents(A2):
            assert weak_maltsev_p(A2, e, e, e) == e
