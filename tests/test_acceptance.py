"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines
inline).  Generated instances are deterministic: orders 2..32 cycling over
seeds 0..199.
"""

import random
import time
from fractions import Fraction
from itertools import product

from ccmagma import fixtures
from ccmagma.catalog import (CATALOG, classify_family, default_samples,
                             half_has_no_inverse_check, monoid_formula_check,
                             sampled_axiom_check)
from ccmagma.core import (Homomorphism, check_axioms, constant_hom,
                          identity_hom, idempotents, is_homomorphism,
                          pair_hom, weak_maltsev_p)
from ccmagma.generation import (extract_group, groups_isomorphic,
                                idempotent_parity_audit, invariant_factors)
from ccmagma.relations import (KiteInput, build_pullback, equalizer_relation,
                               kite_theta, pullback_pairs, subalgebra_relation,
                               transitivity_criterion)
from ccmagma.structures import (classify_finite, internal_monoid,
                                monoid_isomorphism)
from ccmagma.core import subalgebra_closure, product_magma

from conftest import A2, A3, F5A, Z9A
from _brute import brute_star, endomorphism_pool

F = Fraction
SINGLETON = fixtures.singleton()


def _passed(num, msg):
    print(f"ACCEPTANCE {num}: PASS - {msg}")


def test_criterion_01_fixture_tables_and_timing():
    """Order-3 fixtures: axioms, idempotent counts, and sub-millisecond runtime."""
    check_axioms(SINGLETON)                      # warm-up outside the timer
    best = {}
    for name, m in (("three-idem", A2), ("no-idem", A3)):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            rep = check_axioms(m)
            times.append(time.perf_counter() - t0)
        best[name] = min(times)
        assert rep.commutative and rep.cancellative and rep.medial
    rep2 = check_axioms(A2)
    assert len(rep2.idempotents) == 3
    assert not rep2.associative
    rep3 = check_axioms(A3)
    assert rep3.is_ccm and len(rep3.idempotents) == 0
    assert best["three-idem"] < 1e-3 and best["no-idem"] < 1e-3
    _passed(1, f"fixture axioms exact; best check times "
               f"{best['three-idem']*1e6:.0f}us / {best['no-idem']*1e6:.0f}us")


def test_criterion_02_harmonic_monoid_formula():
    """theta with theta op 1 = x op y equals xy/(x+y-xy) exactly; 1/2 has no
    inverse in that monoid."""
    fam = CATALOG["harmonic-(0,1]"]
    pts = [F(k, 8) for k in range(1, 9)]
    for x in pts:
        for y in pts:
            theta = fam.star(x, y)
            assert theta == x * y / (x + y - x * y)      # independent formula
            assert fam.evaluate(theta, F(1)) == fam.evaluate(x, y)
    assert monoid_formula_check(pts)
    assert fam.star_solve(F(1, 2), F(1)) is None
    assert half_has_no_inverse_check()
    _passed(2, f"{len(pts)**2} pairs match the closed form; 1/2 has no inverse")


def test_criterion_03_classification_table():
    """Every cataloged family with a published label reproduces it."""
    checked = 0
    for fam in CATALOG.values():
        if fam.unit is None:
            rep = sampled_axiom_check(fam, denominator=8)
            assert rep.m1_ok and rep.m2_ok and rep.m3_ok, fam.id
            assert rep.closure_violations == 0
            continue
        verdict = classify_family(fam)
        if fam.expected_label is not None:
            assert verdict.label.label == fam.expected_label, fam.id
            assert verdict.matches_expected
            checked += 1
        if fam.mode == "float":
            rep = sampled_axiom_check(fam, denominator=8)
            assert rep.worst_residual is not None and rep.worst_residual <= 1e-9
    assert checked == 18
    _passed(3, f"{checked} published labels reproduced; "
               "axiom-only families verified on samples")


def test_criterion_04_six_combinations(batch200):
    """Observed flag quadruples across fixtures, catalog and 200 generated
    instances are always one of the six columns."""
    allowed = {
        ("I", (True, True, True, True)), ("II", (True, False, True, False)),
        ("III", (False, True, False, False)), ("IV", (False, False, False, False)),
        ("V", (False, False, True, False)), ("VI", (False, True, True, True)),
    }
    observed = set()
    for m in (A2, A3, F5A, Z9A, SINGLETON):
        for e in idempotents(m):
            lab = classify_finite(m, e)
            observed.add((lab.label, lab.flags()))
    for fam in CATALOG.values():
        if fam.unit is None:
            continue
        lab = classify_family(fam).label
        observed.add((lab.label, lab.flags()))
    count = 0
    for _, _, m, _ in batch200:
        for e in idempotents(m):
            lab = classify_finite(m, e)
            observed.add((lab.label, lab.flags()))
            count += 1
    assert observed <= allowed
    assert {"I", "II", "III", "IV", "V", "VI"} == {lab for lab, _ in observed}
    _passed(4, f"{len(observed)} distinct columns observed "
               f"({count} generated classifications), all within the six")


def test_criterion_05_generation_round_trip(batch200):
    """200 generated quasigroups: exhaustive axioms, idempotent parity, and
    group extraction at every element isomorphic to the generator; < 60 s."""
    t0 = time.perf_counter()
    for order, seed, m, params in batch200:
        rep = check_axioms(m)
        assert rep.is_ccm, (order, seed)
        assert idempotent_parity_audit(m), (order, seed)
        expected_factors = list(params.group.factors)
        for e in m.elements():
            star = extract_group(m, e)
            assert star is not None, (order, seed, e)
            assert invariant_factors(star) == expected_factors, (order, seed, e)
            assert groups_isomorphic(star, params.group.addition_table)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(5, f"200 instances round-tripped in {elapsed:.1f}s")


def test_criterion_06_internal_monoid_correctness(batch200):
    """At every idempotent of every generated magma the monoid exists,
    passes its invariants, equals the extracted group, and matches an
    independent brute-force reconstruction."""
    pairs = 0
    for order, seed, m, _ in batch200:
        for e in idempotents(m):
            mon = internal_monoid(m, e)     # verifies all invariants itself
            assert mon is not None, (order, seed, e)
            star = extract_group(m, e)
            assert mon.star == star.table, (order, seed, e)
            assert mon.star == brute_star(m.table, e), (order, seed, e)
            pairs += 1
    assert pairs > 100      # enough idempotent-bearing instances to mean much
    _passed(6, f"{pairs} (magma, idempotent) pairs verified three ways")


def test_criterion_07_monoid_isomorphisms(batch200):
    """For >= 2 idempotents u, v the doubling map is a verified isomorphism
    with verified inverse and the interchange identity."""
    checked = 0
    for order, seed, m, _ in batch200:
        idem = idempotents(m)
        if len(idem) < 2:
            continue
        for u in idem:
            for v in idem:
                if u == v:
                    continue
                # monoid_isomorphism verifies f(u)=v, the homomorphism law,
                # two-sided inverse and the interchange identity exhaustively
                f = monoid_isomorphism(m, u, v)
                assert sorted(f.map) == list(m.elements())
                checked += 1
    assert checked >= 6
    _passed(7, f"{checked} ordered idempotent pairs verified")


def test_criterion_08_relation_theorems():
    """Equalizers of homomorphism pairs are difunctional (congruences when
    diagonals agree); subalgebra relations are internal and reflexive with
    the transitivity criterion agreeing; the mod-9 fixture gives mod-3."""
    rng = random.Random(2024)
    pools = {m: [Homomorphism(m, m, e) for e in endomorphism_pool(m.table)]
             for m in (A2, A3, F5A, Z9A)}
    magmas = list(pools)
    difunctional = congruences = 0
    for i in range(100):
        m = magmas[i % len(magmas)]
        f1, f2 = rng.choice(pools[m]), rng.choice(pools[m])
        f = pair_hom(f1, f2)
        if i % 2 == 0:
            g = pair_hom(f2, f1)      # equal diagonal by commutativity
        else:
            g = pair_hom(rng.choice(pools[m]), rng.choice(pools[m]))
        r = equalizer_relation(m, m, f, g)
        assert r.is_difunctional()[0]
        difunctional += 1
        if all(f.map[a * m.order + a] == g.map[a * m.order + a]
               for a in m.elements()):
            assert r.is_congruence()[0]
            congruences += 1
    assert congruences >= 50

    tested = 0
    for m in (A2, A3, F5A, Z9A):
        seen = set()
        for s in m.elements():
            xs = subalgebra_closure(m, {s})
            if xs in seen:
                continue
            seen.add(xs)
            for e in idempotents(m):
                if e not in xs:
                    continue
                r = subalgebra_relation(m, xs, e)
                assert r.is_internal()[0] and r.is_reflexive()[0]
                assert transitivity_criterion(m, xs, e)   # asserts agreement
                tested += 1
    assert tested >= 5

    r = subalgebra_relation(Z9A, (0, 3, 6), 0)
    expected = tuple(tuple((a - b) % 3 == 0 for b in range(9)) for a in range(9))
    assert r.member == expected
    assert r.is_congruence()[0]
    _passed(8, f"{difunctional} equalizers difunctional "
               f"({congruences} congruences); {tested} subalgebra relations")


def test_criterion_09_kite_construction():
    """Singleton-base kite reproduces the internal monoid; the mod-3
    pullback of the order-9 fixture has 27 pairs; a split kite with a
    27-element carrier gets a verified theta."""
    one = SINGLETON
    to_one = constant_hom(F5A, one, 0)
    pick0 = Homomorphism(one, F5A, (0,))
    ident = identity_hom(F5A)
    k = KiteInput(f=to_one, r=pick0, g=to_one, s=pick0, u=ident, v=pick0, w=ident)
    theta = kite_theta(k)
    star = internal_monoid(F5A, 0).star
    assert theta.map == tuple(star[a][c] for a in range(5) for c in range(5))

    quotient = fixtures.affine_mod(3, 2, 0)
    proj = Homomorphism(Z9A, quotient, tuple(x % 3 for x in range(9)))
    assert is_homomorphism(proj) == (True, None)
    assert len(pullback_pairs(proj, proj)) == 27
    # that projection splits through no homomorphism (every hom from the
    # quotient lands in one residue class), so the theta instance runs on a
    # split first-projection kite with the same 27-pair carrier instead
    prod = product_magma(A2, A2)
    proj1 = Homomorphism(prod, A2, tuple(kk // 3 for kk in range(9)))
    proj2 = Homomorphism(prod, A2, tuple(kk % 3 for kk in range(9)))
    sect = Homomorphism(A2, prod, tuple(3 * b for b in range(3)))
    zero = constant_hom(A2, A2, 0)
    k27 = KiteInput(f=proj1, r=sect, g=proj1, s=sect, u=proj2, v=zero, w=proj2)
    span = build_pullback(k27)
    assert len(span.carrier) == 27
    theta27 = kite_theta(k27)       # verifies hom + both composites itself
    assert theta27 is not None
    assert tuple(theta27.map[span.e1.map[a]] for a in prod.elements()) == proj2.map
    assert tuple(theta27.map[span.e2.map[c]] for c in prod.elements()) == proj2.map
    _passed(9, "corollary kite = star table; 27-pair carriers handled")


def test_criterion_10_weak_maltsev_term(batch200):
    """p(x,y,y) = p(y,y,x) and left cancellation of p(-,a,a), on all finite
    fixtures, sampled parametric fixtures, and 50 generated instances."""
    tables = [A2, A3, F5A, Z9A, SINGLETON] + [m for _, _, m, _ in batch200[:50]]
    for m in tables:
        n = m.order
        for x in range(n):
            for y in range(n):
                assert weak_maltsev_p(m, x, y, y) == weak_maltsev_p(m, y, y, x)
        for a in range(n):
            values = {weak_maltsev_p(m, x, a, a) for x in range(n)}
            assert len(values) == n
    for fid in ("harmonic-(0,1]", "midpoint-[0,1]"):
        fam = CATALOG[fid]
        pts = default_samples(fam, 8)

        def p(x, y, z):
            return fam.evaluate(fam.evaluate(y, x), fam.evaluate(z, y))

        for x, y in product(pts, repeat=2):
            assert p(x, y, y) == p(y, y, x)
        for a in pts:
            values = [p(x, a, a) for x in pts]
            assert len(set(values)) == len(pts)
    _passed(10, f"{len(tables)} finite tables exhaustively, "
                "2 parametric fixtures on sample grids")


def test_criterion_11_doubling_additivity(batch200):
    """double(u,a) op double(v,b) = double(u op v, a op b) for all u, v, a, b
    on the order-3 and order-9 fixtures plus 20 generated tables."""
    from ccmagma.structures import doubling_additivity_check
    small = [m for _, _, m, _ in batch200 if m.order <= 16][:20]
    assert len(small) == 20
    tables = [A2, Z9A] + small
    quadruples = 0
    for m in tables:
        for u in m.elements():
            for v in m.elements():
                assert doubling_additivity_check(m, u, v)
                quadruples += m.order ** 2
    _passed(11, f"{quadruples} quadruples across {len(tables)} tables")


def test_criterion_12_midpoint_iff_distributivity():
    """Star distributes over op exactly on the all-idempotent fixture, and
    fails with the all-idempotent flag on the order-5 fixture."""
    from ccmagma.structures import midpoint_distributivity_check
    a2_flags = midpoint_distributivity_check(A2, internal_monoid(A2, 0))
    f5_flags = midpoint_distributivity_check(F5A, internal_monoid(F5A, 0))
    assert a2_flags == (True, True)
    assert f5_flags == (False, False)
    _passed(12, "flags (idempotent, distributive) agree on both fixtures")
