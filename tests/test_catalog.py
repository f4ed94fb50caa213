import hashlib
import json
import math
import operator
import random
import re
import sys
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccmagma import catalog, cli, fixtures
from ccmagma.catalog import (CATALOG, INTEGERS, NATURALS0, NONNEG_REALS, POS_REALS,
                             REALS, AffineFamily, ClosureError, CubeRootFamily,
                             DomainError, GeometricFamily, HarmonicFamily, Interval,
                             LogSumExpFamily, ParametricFamily,
                             ProbSumFamily, TanhSumFamily, _Lifted, _Rationals,
                             _operands, _pair_table, _products, _quotient, _ratio,
                             _solve_each, _totality, classify_family, default_samples,
                             half_has_no_inverse_check, monoid_formula_check,
                             sampled_associativity, sampled_axiom_check)
from ccmagma.core import check_axioms

from _brute import (brute_classify_family, brute_contains, brute_sampled_associativity,
                    brute_sampled_axiom_check, brute_totality, mobius_maps_into)

F = Fraction
H = CATALOG["harmonic-(0,1]"]
MID = CATALOG["midpoint-[0,1]"]

EXPECTED_LABELS = {
    "midpoint-R": "I", "midpoint-[0,inf)": "II", "midpoint-[0,1]": "III",
    "midpoint-R+": "IV", "harmonic-(0,1]": "II", "harmonic-(1,inf)": "III",
    "harmonic-R+": "IV", "third-[-1,1]": "III", "third-[0,1]": "IV",
    "doubling-R": "I", "doubling-[0,inf)": "II", "doubling-N0": "V",
    "affine-Z:2,0": "VI", "sum-R": "I", "sum-[0,inf)": "II",
    "probsum-[0,1)": "II", "cuberoot-mean-R": "I", "cuberoot-doubling-R": "I",
}


# interval ends that no float holds, that round to 0.0, or that lie beyond
# the float range
ODD_ENDS = (F(1, 3), F(-1, 10), F(2, 3), F(9, 10), F(1, 10 ** 400), F(-1, 10 ** 400),
            F(10 ** 400, 3), F(-10 ** 400, 7))
SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  sys.float_info.min, -sys.float_info.min,
                  sys.float_info.max, -sys.float_info.max)


def _float_and_neighbours(end):
    """float(end) and the floats either side of it; none beyond the float range."""
    try:
        f = float(end)
    except OverflowError:
        return ()
    return math.nextafter(f, -math.inf), f, math.nextafter(f, math.inf)


class TestInterval:
    def test_open_closed_membership(self):
        iv = Interval(0, 1, lo_open=True)
        assert not iv.contains(F(0)) and iv.contains(F(1))
        assert iv.contains(F(1, 2)) and not iv.contains(F(3, 2))

    def test_integral_membership(self):
        iv = Interval(0, None, integral=True)
        assert iv.contains(F(3)) and not iv.contains(F(1, 2))
        assert not iv.contains(F(-1))

    def test_float_membership(self):
        iv = Interval(0, 1, True, True)
        assert iv.contains(0.5) and not iv.contains(0.0)
        assert not iv.contains(float("nan"))

    def test_contains_matches_the_fraction_oracle(self):
        # every kind of end (open, closed, missing) at ends no float holds,
        # ends that round to 0.0 or lie beyond the float range, on the line
        # and on the lattice; the floats include float(end) and both its
        # neighbours, where only the exact comparison tells them apart
        rng = random.Random(31)
        ends = (None, 0, -2, 1, *ODD_ENDS)
        ints = [0, 1, -1, 10 ** 400 // 3, -10 ** 400, *(rng.randint(-20, 20) for _ in range(10))]
        fracs = [*ODD_ENDS, *(e + F(s, 10 ** 500) for e in ODD_ENDS for s in (-1, 1)),
                 *(_fraction(rng) for _ in range(20))]
        floats = [*SPECIAL_FLOATS, *(rng.uniform(-3, 3) for _ in range(20)),
                  *(float(rng.randint(-4, 4)) for _ in range(6)),
                  *(g for e in ODD_ENDS for g in _float_and_neighbours(e))]
        intervals = [Interval(lo, hi, lo_open, hi_open, integral)
                     for lo, hi in product(ends, repeat=2)
                     for lo_open, hi_open, integral in product((False, True), repeat=3)]
        for iv in intervals:
            for x in (*ints, *fracs, *floats):
                assert iv.contains(x) == brute_contains(iv, x), (iv, x)
            assert (iv.contains_each(np.array(floats)).tolist()
                    == [iv.contains(x) for x in floats]), iv
            assert (iv.contains_each(_rationals([*ints, *fracs])).tolist()
                    == [iv.contains(x) for x in (*ints, *fracs)]), iv

    @settings(max_examples=300, deadline=None)
    @given(x=st.one_of(st.floats(), st.fractions(), st.integers()),
           lo=st.one_of(st.none(), st.fractions(), st.sampled_from(ODD_ENDS)),
           hi=st.one_of(st.none(), st.fractions(), st.sampled_from(ODD_ENDS)),
           flags=st.tuples(st.booleans(), st.booleans(), st.booleans()))
    def test_contains_property(self, x, lo, hi, flags):
        iv = Interval(lo, hi, *flags)
        assert iv.contains(x) == brute_contains(iv, x)
        if isinstance(x, float):
            for g in (x, *(_float_and_neighbours(lo) if lo is not None else ())):
                assert iv.contains_each(np.array([g]))[0] == brute_contains(iv, g)


class TestMobius:
    def test_identity_total(self):
        iv = Interval(0, 1, lo_open=True)
        assert mobius_maps_into(iv, iv, 1, 0, 0, 1)

    def test_scaling_escapes(self):
        iv = Interval(0, 1)
        assert not mobius_maps_into(iv, iv, 3, 0, 0, 1)
        assert mobius_maps_into(iv, Interval(0, 3), 3, 0, 0, 1)

    def test_pole_inside_fails(self):
        # x -> 1/(2 - x) over ]0, inf[ hits the pole at 2
        src = Interval(0, None, lo_open=True)
        assert not mobius_maps_into(src, src, 0, 1, -1, 2)

    def test_pole_at_open_endpoint_is_fine(self):
        # a -> a/(a-1) maps ]1, inf[ onto ]1, inf[
        src = Interval(1, None, lo_open=True)
        assert mobius_maps_into(src, src, 1, 0, 1, -1)

    def test_integer_lattice_slope_gate(self):
        z = Interval(None, None, integral=True)
        n0 = Interval(0, None, integral=True)
        assert not mobius_maps_into(z, z, F(1, 2), 0, 0, 1)   # halving leaves Z
        assert mobius_maps_into(z, z, -1, 0, 0, 1)            # negation stays
        assert not mobius_maps_into(n0, n0, -1, 0, 0, 1)      # sign flip exits N0
        assert mobius_maps_into(n0, n0, 1, 0, 0, 1)

    def test_constant_map(self):
        iv = Interval(0, 1)
        assert mobius_maps_into(iv, iv, 0, F(1, 2), 0, 1)
        assert not mobius_maps_into(iv, iv, 0, 2, 0, 1)

    def test_constant_mobius_pole_off_the_lattice(self):
        # (2v + 1)/(4v + 2) is 1/2 except at its pole -1/2, which is no integer
        z = Interval(None, None, integral=True)
        assert mobius_maps_into(z, REALS, 2, 1, 4, 2)

    def test_integral_source_is_judged_by_its_lattice_points(self):
        # ]0, 3/2] over Z is {1}, and 1 lies in [1/2, 1]
        src = Interval(0, F(3, 2), lo_open=True, integral=True)
        assert mobius_maps_into(src, Interval(F(1, 2), 1), 1, 0, 0, 1)
        assert not mobius_maps_into(src, Interval(F(1, 2), 1, hi_open=True), 1, 0, 0, 1)
        # [1/2, 3] over Z is {1, 2, 3}: v -> v - 1 lands in N0
        n0 = Interval(0, None, integral=True)
        assert mobius_maps_into(Interval(F(1, 2), 3, integral=True), n0, 1, -1, 0, 1)
        assert not mobius_maps_into(Interval(F(-1, 2), 3, integral=True), n0, 1, -1, 0, 1)

    def test_source_without_lattice_points_maps_anywhere(self):
        empty = Interval(F(1, 4), F(3, 4), integral=True)
        assert mobius_maps_into(empty, Interval(5, 6), 1, 0, 0, 1)
        assert mobius_maps_into(Interval(0, 1, lo_open=True, hi_open=True, integral=True),
                                Interval(5, 6), 1, 0, 0, 1)

    def test_mobius_over_integer_source_is_not_decided(self):
        # v/(2v + 1) has no pole on Z, but the image of Z is no interval
        z = Interval(None, None, integral=True)
        with pytest.raises(NotImplementedError, match="integer lattices"):
            mobius_maps_into(z, REALS, 1, 0, 2, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
           st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 4),
           st.booleans(), st.booleans())
    def test_true_verdicts_are_sound_on_samples(self, p, q, r, s, lo, width,
                                                lo_open, hi_open):
        if p * s - q * r == 0 and r == 0 and s == 0:
            return
        if r == 0 and s == 0:
            return
        src = Interval(lo, lo + width, lo_open, hi_open)
        if not mobius_maps_into(src, src, p, q, r, s):
            return
        grid = [F(k, 8) for k in range(8 * lo, 8 * (lo + width) + 1)]
        pts = [x for x in grid if src.contains(x)]
        for x in pts:
            den = r * x + s
            assert den != 0
            assert src.contains((p * x + q) / den)


DECIDED = (AffineFamily, HarmonicFamily, ProbSumFamily)


def _catalog_pairs():
    """Each catalog shape with Moebius deciders, at every sample of grids 7
    and 16 and at its unit."""
    for fid in sorted(CATALOG):
        fam = CATALOG[fid]
        if isinstance(fam.shape, DECIDED):
            units = set() if fam.unit is None else {fam.unit}
            for e in sorted({*default_samples(fam, 7), *default_samples(fam, 16)} | units):
                yield fam.shape, e


def _fraction(rng):
    return F(rng.randint(-16, 16), rng.choice((1, 2, 3, 4)))


def _real_interval(rng, positive=False):
    """Open, closed, half-open or unbounded, with rational ends; a positive
    one starts at a rational or at an open 0."""
    while True:
        lo = None if rng.random() < 0.3 else _fraction(rng)
        hi = None if rng.random() < 0.3 else _fraction(rng)
        if positive:
            lo = abs(lo or 0)
        if lo is None or hi is None or lo < hi:
            return Interval(lo, hi, rng.random() < 0.5 or (positive and lo == 0),
                            rng.random() < 0.5)


def _lattice(rng):
    """Z, N0, or a half-line or segment of Z with closed integer ends."""
    a, b = sorted(rng.sample(range(-6, 7), 2))
    return rng.choice((INTEGERS, NATURALS0, Interval(a, None, integral=True),
                       Interval(None, b, integral=True), Interval(a, b, integral=True)))


def _random_shape(rng):
    """A random shape of a kind with Moebius deciders, and a point of it."""
    kind = rng.randrange(4)
    while True:
        nonzero = _fraction(rng) or F(1)
        try:
            if kind == 0:
                shape = AffineFamily(nonzero, _fraction(rng), _real_interval(rng))
            elif kind == 1:
                whole = rng.random() < 0.5
                alpha = F(rng.choice((-3, -2, -1, 1, 2, 3))) if whole else nonzero
                beta = F(rng.randint(-3, 3)) if whole else _fraction(rng)
                shape = AffineFamily(alpha, beta, _lattice(rng))
            elif kind == 2:
                c = F(2) if rng.random() < 0.5 else abs(nonzero)
                shape = HarmonicFamily(c, _real_interval(rng, positive=True))
            else:
                shape = ProbSumFamily(nonzero, _real_interval(rng))
        except ValueError:      # a prob-sum carrier where 1 + gamma x <= 0
            continue
        d = shape.domain
        # closed ends are where totality most often holds, so favour them
        points = [x for x in (F(k, 4) for k in range(-40, 41)) if d.contains(x)]
        ends = [x for x in (d.lo, d.hi) if x is not None and d.contains(x)]
        if points:
            return shape, rng.choice(ends if ends and rng.random() < 0.5 else points)


class TestTotality:
    """_totality in Toyoda coordinates against the Moebius deciders."""

    def test_catalog_pairs_match_the_oracle(self):
        pairs = list(_catalog_pairs())
        assert len(pairs) == 502
        for shape, e in pairs:
            assert _totality(shape, e) == brute_totality(shape, e), (shape, e)

    def test_random_shapes_match_the_oracle(self):
        rng = random.Random(20141)
        compared = 0
        for _ in range(2400):
            shape, e = _random_shape(rng)
            try:
                want = brute_totality(shape, e)
            except NotImplementedError:
                continue
            assert _totality(shape, e) == want, (shape, e)
            compared += 1
        assert compared >= 2000

    def test_open_lattice_end_is_judged_by_its_first_point(self):
        # a + b - 1 on the positive integers is (N0, +) moved to the unit 1.
        # A sum interval taken from the written end 0 starts at 1, not 2, so
        # the star would seem to reach 1 - 1 = 0 and the monoid be refused,
        # which with expansive True is no possible flag combination
        pos = Interval(0, None, lo_open=True, integral=True)
        fam = ParametricFamily("sum-1-Z+", AffineFamily(1, -1, pos), "a+b-1",
                               1, None, True)
        assert _totality(fam.shape, F(1)) == (True, False, True)
        assert classify_family(fam).label.label == "II"

    def test_one_point_lattice_is_total(self):
        shape = AffineFamily(2, 0, Interval(0, 0, integral=True))
        assert _totality(shape, F(0)) == (True, True, True)

    @pytest.mark.parametrize("shape", [HarmonicFamily(2, Interval(1, None, integral=True)),
                                       ProbSumFamily(1, NATURALS0)],
                             ids=["harmonic", "prob-sum"])
    def test_non_affine_lattice_is_not_decided(self, shape):
        with pytest.raises(NotImplementedError, match="integer lattice"):
            _totality(shape, F(1))

    def test_tanh_sum_with_a_unit_is_a_group(self):
        # ]-1, 1[ under the addition law of tanh is (R, +) through artanh
        fam = ParametricFamily("tanh-(-1,1)",
                               TanhSumFamily(Interval(-1, 1, True, True)),
                               "(a+b)/(1+ab)", 0, None, True)
        verdict = classify_family(fam)
        assert verdict.label.label == "I"
        for flag in ("expansive", "symmetric", "monoid"):
            assert verdict.evidence[flag]["analytic"] is True


class TestCarrierChecks:
    @pytest.mark.parametrize("make", [
        lambda: ProbSumFamily(1, REALS),                  # -1 absorbs
        lambda: ProbSumFamily(1, Interval(-1, 0)),        # 1 + x = 0 at -1
        lambda: ProbSumFamily(-1, NONNEG_REALS),          # 1 - x < 0 beyond 1
        lambda: ProbSumFamily(F(1, 2), Interval(-3, None, integral=True)),
        lambda: HarmonicFamily(2, Interval(0, 1)),
        lambda: TanhSumFamily(Interval(-1, 1)),           # +-1 absorb
        lambda: TanhSumFamily(Interval(0, 2, True, True)),
    ])
    def test_degenerate_carriers_are_refused(self, make):
        with pytest.raises(ValueError, match="carrier"):
            make()

    def test_carriers_up_to_the_bound_are_accepted(self):
        ProbSumFamily(1, Interval(-1, 0, lo_open=True))
        ProbSumFamily(-1, Interval(0, 1, hi_open=True))
        # 1 + 2x/5 is 0 at -5/2, but this lattice starts at -2
        ProbSumFamily(F(2, 5), Interval(F(-11, 4), None, integral=True))
        TanhSumFamily(Interval(-1, 1, True, True))
        TanhSumFamily(Interval(F(-1, 2), F(1, 2)))


def _form_holds(fam, alpha, beta) -> bool:
    """phi(x op y) = alpha (phi x + phi y) + beta on the grid-16 samples, or
    phi(x op y) = (phi x phi y) ** alpha when beta is None."""
    phi = fam.shape.toyoda_form()[0]
    pts = default_samples(fam, 16)
    for x, y in product(pts, repeat=2):
        lhs = phi(fam.evaluate(x, y))
        if beta is None:
            rhs = (phi(x) * phi(y)) ** alpha
        else:
            rhs = alpha * (phi(x) + phi(y)) + beta
        if lhs != rhs:
            return False
    return True


class TestToyodaForm:
    @pytest.mark.parametrize("fid", sorted(f for f in CATALOG if CATALOG[f].mode == "exact"))
    def test_form_holds_and_a_perturbed_one_fails(self, fid):
        fam = CATALOG[fid]
        phi, image, alpha, beta = fam.shape.toyoda_form()
        assert all(image.contains(phi(x)) for x in default_samples(fam, 16))
        if alpha is None:       # multiplicative: alpha is the identity
            assert _form_holds(fam, 1, None)
            assert not _form_holds(fam, 2, None)
            assert fam.associative
        else:
            assert _form_holds(fam, alpha, beta)
            assert not _form_holds(fam, alpha + F(1, 7), beta)
            assert fam.associative == (alpha == 1)


class TestEvaluateAndSolve:
    def test_harmonic_idempotent(self):
        assert H.evaluate(F(1, 2), F(1, 2)) == F(1, 2)

    def test_harmonic_value(self):
        assert H.evaluate(F(1, 2), F(1)) == F(2, 3)

    def test_midpoint_value(self):
        assert MID.evaluate(F(0), F(1)) == F(1, 2)

    def test_out_of_domain_rejected(self):
        with pytest.raises(DomainError):
            H.evaluate(F(0), F(1, 2))
        with pytest.raises(DomainError):
            MID.evaluate(F(2), F(0))

    def test_exact_mode_rejects_floats(self):
        with pytest.raises(TypeError):
            H.evaluate(0.5, 0.5)

    def test_harmonic_doubling_at_unit(self):
        assert H.solve_left(F(1), F(1, 2)) == F(1, 3)

    def test_midpoint_doubling_leaves_domain(self):
        assert MID.solve_left(F(1, 2), F(1)) is None

    def test_unit_solves_trivially(self):
        for fam in CATALOG.values():
            if fam.unit is None or fam.mode != "exact":
                continue
            assert fam.solve_left(fam.unit, fam.unit) == fam.unit

    def test_solver_inverts_evaluate(self):
        for fam in CATALOG.values():
            if fam.mode != "exact":
                continue
            pts = default_samples(fam, 8)
            for x in pts[:6]:
                for a in pts[:6]:
                    assert fam.solve_left(a, fam.evaluate(x, a)) == x

    def test_logsumexp_partial_solver(self):
        fam = CATALOG["logsumexp-R"]
        assert fam.solve_left(2.0, 1.0) is None      # no x with x op 2 = 1
        x = fam.solve_left(0.0, 1.0)
        assert abs(fam.evaluate(x, 0.0) - 1.0) < 1e-12


class TestSampledAxioms:
    @pytest.mark.parametrize("fid", sorted(CATALOG))
    def test_all_families_pass(self, fid):
        fam = CATALOG[fid]
        rep = sampled_axiom_check(fam, denominator=8)
        assert rep.m1_ok and rep.m2_ok and rep.m3_ok
        assert rep.closure_violations == 0
        if fam.mode == "float":
            assert rep.worst_residual is not None
            assert rep.worst_residual <= 1e-9
        else:
            assert rep.worst_residual is None

    def test_harmonic_full_grid(self):
        rep = sampled_axiom_check(H, denominator=16)
        assert rep.m1_ok and rep.m2_ok and rep.m3_ok
        assert rep.matches_expected

    def test_midpoint_named_samples(self):
        pts = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        rep = sampled_axiom_check(MID, pts)
        assert rep.m1_ok and rep.m2_ok and rep.m3_ok

    def test_float_geometric_random_samples(self):
        import random
        rng = random.Random(7)
        pts = [rng.uniform(0.05, 0.95) for _ in range(16)]
        rep = sampled_axiom_check(CATALOG["geometric-(0,1)"], pts)
        assert rep.m1_ok and rep.m2_ok and rep.m3_ok
        assert rep.worst_residual <= 1e-9


def test_default_samples_digest():
    # every family's sample list at denominators 1..64, as reprs
    h = hashlib.sha256()
    for fid in sorted(CATALOG):
        for g in range(1, 65):
            pts = default_samples(CATALOG[fid], g)
            h.update(f"{fid} {g} {' '.join(map(repr, pts))}\n".encode())
    assert h.hexdigest() == (
        "c87a68a3547b9dedaccff7801fd9ab486e8862a3529839295588aec360309dea")


def test_sample_report_digest():
    # worst_residual is left out so the digest does not depend on the
    # platform's libm; the brute oracle compares residuals exactly
    h = hashlib.sha256()
    for fid in sorted(CATALOG):
        for g in range(2, 9):
            d = sampled_axiom_check(CATALOG[fid], denominator=g).to_dict()
            d.pop("worst_residual")
            h.update((json.dumps(d, sort_keys=True) + "\n").encode())
    assert h.hexdigest() == (
        "dcd616658e57b755244990e545171e8f067fd6936e44c310d6e97346f5b51bbb")


def test_classification_digest():
    # every FamilyClassification of a family with a unit, evidence included
    h = hashlib.sha256()
    for fid in sorted(CATALOG):
        fam = CATALOG[fid]
        if fam.unit is None:
            continue
        for g in (*range(2, 9), 16):
            d = classify_family(fam, default_samples(fam, g)).to_dict()
            h.update((json.dumps(d, sort_keys=True) + "\n").encode())
    assert h.hexdigest() == (
        "ac3569ce8979fcbc09f1d3bca0f4f17fdbb24d26f090838830b41cd5e700f45a")


def test_m3_scan_memory_is_sliced():
    # s = 26 samples and u = 351 distinct products: one s^4 intp array
    # alone takes 3.7 MB
    tracemalloc.start()
    try:
        sampled_axiom_check(CATALOG["logsumexp-R"], denominator=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000, peak


def test_every_family_peaks_under_4_mb_at_grid_16():
    # the u x u tables of products of products, one block of quadruples and
    # one chunk of keys; logsumexp-R peaked highest, at 3.03 MB, when M3
    # evaluated one slice of quadruples per first element at a time
    peaks = {}
    for fid, fam in sorted(CATALOG.items()):
        tracemalloc.start()
        try:
            sampled_axiom_check(fam, denominator=16)
            peaks[fid] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) < 4_000_000, peaks


def _m3_keys(pairs):
    """The keys ab * u + cd of the products (ab)(cd) over the quadruples
    (a, b, c, d) of samples with ab, ac, cd and bd live, one at a time."""
    u = int(pairs.max(initial=-1)) + 1
    t = pairs.tolist()
    return {t[a][b] * u + t[c][d] for a, b, c, d in product(range(len(t)), repeat=4)
            if min(t[a][b], t[a][c], t[c][d], t[b][d]) >= 0}


def test_m3_evaluates_its_keys_in_ascending_chunks(monkeypatch):
    # at grid 8, one _products call makes the pair table; then M3 evaluates
    # each key it asks for once, in ascending order, _KEY_CHUNK keys per
    # call; logsumexp-R made 19 calls when M3 took one batch per slice
    calls = []

    def counted(fam, ops, keys, u, interned, products=catalog._products):
        calls.append(keys.copy())
        return products(fam, ops, keys, u, interned)

    counts = {}
    for fid, fam in sorted(CATALOG.items()):
        want = _m3_keys(_pair_table(fam, default_samples(fam, 8))[1])
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(catalog, "_products", counted)
            sampled_axiom_check(fam, denominator=8)
        got = np.concatenate(calls[1:]) if calls[1:] else np.empty(0, dtype=np.intp)
        assert len(calls) == 1 + -(-len(want) // catalog._KEY_CHUNK), fid
        assert all(0 < len(keys) <= catalog._KEY_CHUNK for keys in calls[1:]), fid
        assert (np.diff(got) > 0).all() and set(got.tolist()) == want, fid
        counts[fid] = len(calls)
    assert counts["logsumexp-R"] == 9         # 1 + ceil(171^2 keys / 4096)
    assert sum(counts.values()) == 66


NON_CLOSED = [
    ParametricFamily("affine-[0,1]:1,0", AffineFamily(1, 0, Interval(0, 1)),
                     "a+b", None, None, True),
    ParametricFamily("prodsum-[0,1]", ProbSumFamily(1, Interval(0, 1)),
                     "a+b+ab", None, None, True),
    ParametricFamily("cuberoot-doubling-[-1,1]",
                     CubeRootFamily(2, 1, Interval(-1, 1)),
                     "2(a^3+b^3)^(1/3)", None, None, False),
]


def _entrywise(op, x, y):
    """op on each pair of entries of two rational or float64 arrays, in
    order, or on two scalars: the array form of a test double's formula."""
    if isinstance(x, _Rationals):
        return _rationals([op(a, b) for a, b in zip(x, y)])
    if isinstance(x, np.ndarray):
        return np.array([op(a, b) for a, b in zip(x.tolist(), y.tolist())], dtype=float)
    return op(x, y)


def _identity(x):
    return x


@dataclass(frozen=True)
class TrapShape:
    """(x + y)/3 on [-1, 1], raising a ValueError that names its arguments
    on each ordered pair in trap, and giving x + 3, outside the carrier, on
    each in escape."""
    trap: frozenset
    escape: frozenset = frozenset()
    domain: Interval = Interval(-1, 1)
    mode = "exact"

    def _op(self, x, y):
        if (x, y) in self.trap:
            raise ValueError(f"trap at ({x}, {y})")
        if (x, y) in self.escape:
            return x + 3
        return (x + y) / 3

    def evaluate_raw(self, x, y):
        return _entrywise(self._op, x, y)

    def solve_raw(self, a, b):
        return 3 * b - a


@dataclass(frozen=True)
class FloatTrapShape(_Lifted, TrapShape):
    """TrapShape on floats, lifted by the identity."""
    mode = "float"
    lift = staticmethod(_identity)
    join = TrapShape.evaluate_raw


@dataclass(frozen=True)
class SkewShape:
    """(2x + y)/3 on [-1, 1]: medial and left-cancellative, not commutative."""
    domain: Interval = Interval(-1, 1)
    mode = "exact"

    def evaluate_raw(self, x, y):
        return (2 * x + y) / 3

    def solve_raw(self, a, b):
        return (3 * b - a) / 2


@dataclass(frozen=True)
class FloatSkewShape(_Lifted, SkewShape):
    mode = "float"
    lift = staticmethod(_identity)
    join = SkewShape.evaluate_raw


@dataclass(frozen=True)
class LeakySumShape:
    """x + y on [-1, 1], leaving the carrier at each ordered pair in leak."""
    leak: frozenset
    domain: Interval = Interval(-1, 1)
    mode = "exact"

    def evaluate_raw(self, x, y):
        return _entrywise(lambda x, y: F(5) if (x, y) in self.leak else x + y, x, y)

    def solve_raw(self, a, b):
        return b - a


def _floats(pairs):
    return frozenset((float(x), float(y)) for x, y in pairs)


TRAPS = [
    {(F(-1, 6), F(-2, 3))},
    # the loop needs the first pair of each set before the second; a slice
    # takes its keys in key order, where the second pair comes first here
    # (FIRST_IN_KEY_ORDER), and a scan that took rhs before lhs would raise
    # on the second pair in the next case
    {(F(-1, 6), F(-2, 3)), (F(-2, 3), F(1, 3))},
    {(F(-2, 3), F(1, 3)), (F(-1, 6), F(-1, 6))},
    # products of two samples: the pair table meets (1/2, 0) first, before
    # (0, 1/2) and before any product of products
    {(F(1, 2), F(0))},
    {(F(0), F(1, 2)), (F(1, 2), F(0))},
    {(F(-1, 6), F(-2, 3)), (F(1, 2), F(0))},
]

# the trapped product a check raises at, by index in TRAPS, where it is not
# the one the one-at-a-time loop meets first
FIRST_IN_KEY_ORDER = {1: (F(-2, 3), F(1, 3))}


def _trap_message(trap, brute_message, number=F):
    k = TRAPS.index(trap)
    if k not in FIRST_IN_KEY_ORDER:
        return brute_message
    return "trap at ({}, {})".format(*map(number, FIRST_IN_KEY_ORDER[k]))


# float shapes on carriers whose ends no float holds: a product equal to
# float(end) lies in the carrier or not by the sign of float(end) - end
NON_DYADIC_FLOAT = [
    ParametricFamily("cuberoot-doubling-[-1/3,2/3]",
                     CubeRootFamily(2, 1, Interval(F(-1, 3), F(2, 3))),
                     "2(a^3+b^3)^(1/3)", None, None, False),
    ParametricFamily("geometric-]1/10,9/10]",
                     GeometricFamily(Interval(F(1, 10), F(9, 10), lo_open=True)),
                     "sqrt(ab)", F(1, 2), None, False),
    ParametricFamily("logsumexp-[-1,1/3]", LogSumExpFamily(Interval(-1, F(1, 3))),
                     "log(e^a+e^b)", None, None, True),
]


BAD_SAMPLES = [
    (MID, [F(0), F(2)]),
    (MID, [F(2), F(0), 0.5]),
    (MID, [0, F(1, 2), 2]),
    (MID, [F(0), 0.5, F(3)]),
    (MID, [F(0), F(3), 0.5]),
    (H, [F(1), F(1, 2), F(0)]),
    (H, [F(1, 2), 1.0]),
    (CATALOG["affine-Z:2,0"], [F(1), F(1, 2)]),
    (CATALOG["geometric-(0,1)"], [0.5, 0.25, 1.0]),
    (CATALOG["geometric-(0,1)"], [F(1, 4), F(-1, 2)]),
    (CATALOG["logsumexp-R"], [0.0, math.inf]),
]


def _first_row_error(fam, pts):
    for y in pts:
        try:
            fam.evaluate(pts[0], y)
        except ClosureError:
            continue
        except Exception as exc:
            return exc
    raise AssertionError(f"no bad sample in {pts}")


class TestSampledAxiomOracle:
    """The memoised check against the one-evaluation-per-call-site loop,
    every SampleReport field compared."""

    @pytest.mark.parametrize("fid", sorted(CATALOG))
    def test_catalog_grids(self, fid):
        fam = CATALOG[fid]
        for denominator in range(2, 7):
            assert (sampled_axiom_check(fam, denominator=denominator)
                    == brute_sampled_axiom_check(fam, denominator=denominator))

    def test_geometric_random_samples(self):
        import random
        rng = random.Random(7)
        pts = [rng.uniform(0.05, 0.95) for _ in range(16)]
        fam = CATALOG["geometric-(0,1)"]
        assert (sampled_axiom_check(fam, pts)
                == brute_sampled_axiom_check(fam, pts))

    @pytest.mark.parametrize("fam", NON_DYADIC_FLOAT, ids=lambda f: f.id)
    def test_float_shapes_on_non_dyadic_ends(self, fam):
        for denominator in range(2, 7):
            assert (sampled_axiom_check(fam, denominator=denominator)
                    == brute_sampled_axiom_check(fam, denominator=denominator))
        # random samples with the ends' floats and their neighbours, where
        # they lie in the carrier
        rng = random.Random(17)
        d = fam.domain
        near = [g for end in (d.lo, d.hi) for g in _float_and_neighbours(end)]
        for _ in range(3):
            pts = [x for x in (*near, *(rng.uniform(float(d.lo), float(d.hi))
                                        for _ in range(6))) if d.contains(x)]
            assert (sampled_axiom_check(fam, pts)
                    == brute_sampled_axiom_check(fam, pts))

    @pytest.mark.parametrize("trap", TRAPS)
    def test_second_level_exception_comes_from_the_same_product(self, trap):
        # a trapped pair of samples raises in the pair table, any other only
        # as a product of two products; the message says which came first
        fam = ParametricFamily("trap", TrapShape(frozenset(trap)), "(a+b)/3",
                               None, None, False)
        samples = [F(-1), F(1, 2), F(0), F(1)]
        with pytest.raises(ValueError) as brute:
            brute_sampled_axiom_check(fam, samples)
        assert "trap at" in str(brute.value)
        with pytest.raises(ValueError, match=re.escape(_trap_message(trap, str(brute.value)))):
            sampled_axiom_check(fam, samples)

    @pytest.mark.parametrize("trap", TRAPS)
    def test_float_second_level_exception_comes_from_the_same_product(self, trap):
        fam = ParametricFamily("trap", FloatTrapShape(_floats(trap)), "(a+b)/3",
                               None, None, False)
        samples = [-1.0, 0.5, 0.0, 1.0]
        with pytest.raises(ValueError) as brute:
            brute_sampled_axiom_check(fam, samples)
        assert "trap at" in str(brute.value)
        want = _trap_message(trap, str(brute.value), float)
        with pytest.raises(ValueError, match=re.escape(want)):
            sampled_axiom_check(fam, samples)

    def test_escape_among_samples_alone_falsifies_m3(self):
        # every product of two products stays in [-2/3, 2/3], so only the
        # escaped cd and bd of the quadruples through (1, 1) falsify M3
        fam = ParametricFamily("escape", TrapShape(frozenset(),
                                                   frozenset({(F(1), F(1))})),
                               "(a+b)/3", None, None, False)
        samples = [F(-1), F(1, 2), F(0), F(1)]
        rep = sampled_axiom_check(fam, samples)
        assert not rep.m3_ok and rep.closure_violations > 0
        assert rep == brute_sampled_axiom_check(fam, samples)

    def test_a_zero_sample_divides_by_zero_in_the_geometric_solver(self):
        # b^2 / a at a = 0.0: M2 solves with a zero sample as a, and so do
        # the symmetric witnesses; neither may read as "no solution"
        fam = ParametricFamily("geometric-[0,1]", GeometricFamily(Interval(0, 1)),
                               "sqrt(ab)", F(1, 2), None, False)
        pts = default_samples(fam, 4)
        assert 0.0 in pts
        for check in (brute_sampled_axiom_check, sampled_axiom_check,
                      brute_classify_family, classify_family):
            with pytest.raises(ZeroDivisionError, match="^float division by zero$"):
                check(fam, pts)

    def test_an_escaping_m2_residual_raises_evaluates_closure_error(self, monkeypatch):
        # a solver answering x' = y: the residual y op y of each live pair
        # (x, y) escapes where y is 1.0 or 0.5, and the first such pair in
        # row-major order, (-1.0, 1.0), names 4.0
        monkeypatch.setattr(FloatTrapShape, "solve_raw", lambda self, a, b: a)
        shape = FloatTrapShape(frozenset(), _floats({(1, 1), (F(1, 2), F(1, 2))}))
        fam = ParametricFamily("escape", shape, "(a+b)/3", None, None, False)
        samples = [-1.0, 1.0, 0.0, 0.5]
        with pytest.raises(ClosureError) as brute:
            brute_sampled_axiom_check(fam, samples)
        assert str(brute.value) == "escape: result 4.0 escaped [-1,1]"
        with pytest.raises(ClosureError, match=f"^{re.escape(str(brute.value))}$"):
            sampled_axiom_check(fam, samples)

    def test_sample_outside_the_carrier_is_a_domain_error(self):
        with pytest.raises(DomainError):
            sampled_axiom_check(MID, [F(0), F(2)])

    @pytest.mark.parametrize("fam,pts", BAD_SAMPLES,
                             ids=lambda v: getattr(v, "id", None) or repr(v))
    def test_a_bad_sample_raises_what_the_first_row_raises(self, fam, pts):
        # the error of the first failing fam.evaluate(pts[0], pts[k]): its
        # first argument, or the first sample outside the carrier or of the
        # wrong kind, named with pts[0]
        want = _first_row_error(fam, pts)
        checks = [sampled_axiom_check]
        if fam.unit is not None:
            checks.append(classify_family)
        if fam is H:
            checks.append(lambda fam, pts: monoid_formula_check(pts))
        for check in checks:
            with pytest.raises(type(want), match=f"^{re.escape(str(want))}$"):
                check(fam, pts)

    @pytest.mark.parametrize("fam", NON_CLOSED, ids=lambda f: f.id)
    def test_closure_violations_counted_per_call_site(self, fam):
        for denominator in (3, 5):
            rep = sampled_axiom_check(fam, denominator=denominator)
            assert rep.closure_violations > 0
            assert rep == brute_sampled_axiom_check(fam, denominator=denominator)

    @pytest.mark.parametrize("shape", [SkewShape(), FloatSkewShape()], ids=lambda s: s.mode)
    def test_a_non_commutative_shape_fails_m1_alone(self, shape):
        fam = ParametricFamily("skew", shape, "(2a+b)/3", None, None, False)
        for denominator in range(2, 7):
            rep = sampled_axiom_check(fam, denominator=denominator)
            assert (rep.m1_ok, rep.m2_ok, rep.m3_ok) == (False, True, True)
            assert rep == brute_sampled_axiom_check(fam, denominator=denominator)

    @pytest.mark.parametrize("fid", ["midpoint-R", "third-[-1,1]", "harmonic-R+",
                                     "probsum-[0,1)", "tanh-sum-(0,1)"])
    def test_a_wrong_solver_fails_m2(self, fid, monkeypatch):
        # x' = x op y solves x' op y = x op y only where x op y = x: the
        # batched solves see the patched solver and must compare with x
        fam = CATALOG[fid]
        monkeypatch.setattr(type(fam.shape), "solve_raw", lambda self, a, b: b)
        for denominator in range(2, 7):
            rep = sampled_axiom_check(fam, denominator=denominator)
            assert not rep.m2_ok
            assert rep == brute_sampled_axiom_check(fam, denominator=denominator)

    def test_random_exact_shapes_on_random_carriers(self):
        # products of products on rational arrays, escapes included: narrow
        # carriers and lattices leave many of them outside
        rng = random.Random(23)
        grid = sorted({F(k, q) for q in (3, 4) for k in range(-30, 31)})
        for trial in range(60):
            fam = ParametricFamily(f"random-{trial}", _random_exact_shape(rng),
                                   "f", None, None, None)
            inside = [x for x in grid if fam.domain.contains(x)]
            pts = sorted(rng.sample(inside, min(5, len(inside))))
            assert (sampled_axiom_check(fam, pts)
                    == brute_sampled_axiom_check(fam, pts)), fam


def _random_exact_shape(rng):
    """One of the four exact shapes with random parameters, on a random
    carrier its constructor accepts: open, closed or unbounded ends, or a
    lattice."""
    while True:
        kind = rng.randrange(4)
        try:
            if kind == 0:
                return AffineFamily(_fraction(rng) or F(1), _fraction(rng),
                                    rng.choice((_real_interval, _lattice))(rng))
            if kind == 1:
                return HarmonicFamily(_fraction(rng), _real_interval(rng, positive=True))
            if kind == 2:
                return ProbSumFamily(_fraction(rng) or F(1), _real_interval(rng))
            return TanhSumFamily(rng.choice((Interval(-1, 1, True, True),
                                             Interval(0, F(1, 2)),
                                             Interval(F(-1, 3), F(3, 4), hi_open=True))))
        except ValueError:      # a prob-sum carrier where 1 + gamma x <= 0
            continue


def _rationals(xs):
    return _Rationals(np.array([x.numerator for x in xs], dtype=object),
                      np.array([x.denominator for x in xs], dtype=object))


def _pairs(r):
    return list(zip(r.num.tolist(), r.den.tolist()))


def _wide_part(rng, bits):
    """A positive numerator or denominator: small, at 2**31 or one either
    side of it, or drawn up to 2**bits."""
    return rng.choice((rng.randint(1, 9), 2 ** 31 + rng.randint(-1, 1),
                       rng.randint(2 ** 31, 2 ** bits - 1)))


def _wide(rng, bits):
    return F(rng.choice((-1, 0, 1)) * _wide_part(rng, bits), _wide_part(rng, bits))


def _stored(xs, dtype):
    """The rational array of xs with numerators and denominators of dtype."""
    return _Rationals(np.array([x.numerator for x in xs], dtype=dtype),
                      np.array([x.denominator for x in xs], dtype=dtype))


# scalar operands: beyond int64 either way, at 2**31 and small
WIDE_SCALARS = (2 ** 64 + 1, -2 ** 63 - 5, F(3, 2 ** 65), F(-2 ** 70, 7), 2 ** 31, -7, F(1, 3))

# carriers with ends at 2**31, at the ends of int64 and beyond them
WIDE_CARRIERS = (REALS, INTEGERS, NATURALS0, Interval(-2 ** 31, 2 ** 31, True, False),
                 Interval(-2 ** 63, 2 ** 63 - 1, integral=True),
                 Interval(F(-2 ** 70, 3), F(2 ** 64, 7)),
                 Interval(F(2 ** 31 + 1, 2 ** 31), F(2 ** 70), True, True),
                 Interval(F(1, 2 ** 40), None, lo_open=True))


# int64 parts up to 2**63 - 1 and -2**63, whose absolute value wraps;
# object parts up to 2**70
STORAGES = pytest.mark.parametrize("dtype,bits", [(np.int64, 63), (object, 70)],
                                   ids=["int64", "object"])


class TestRationalArrays:
    """The rational arrays of the vectorised M3 path against Fraction
    arithmetic, one entry at a time."""

    @STORAGES
    def test_wide_parts_match_fraction_arithmetic(self, dtype, bits):
        # -2**63 as the one wide part: its absolute value wraps to itself
        x = _stored([F(-2 ** 63), F(1, 2)], dtype)
        assert list(x * _stored([F(3), F(1, 3)], dtype)) == [F(-3 * 2 ** 63), F(1, 6)]
        assert list(x - 1) == [F(-2 ** 63 - 1), F(-1, 2)]
        rng = random.Random(41)
        ops = (operator.add, operator.sub, operator.mul, operator.truediv)
        for _ in range(30):
            xs = [*(_wide(rng, bits) for _ in range(10)), F(-2 ** 63, 3), F(2 ** 31 - 1, 2 ** 31)]
            ys = [_wide(rng, bits) or F(1) for _ in range(12)]
            x, y, c = _stored(xs, dtype), _stored(ys, dtype), rng.choice(WIDE_SCALARS)
            for op in ops:
                for got, want in ((op(x, y), map(op, xs, ys)),
                                  (op(x, c), (op(v, c) for v in xs)),
                                  (op(c, y), (op(c, v) for v in ys))):
                    want = [F(w) for w in want]
                    assert (got.den > 0).all() and list(got) == want
                    got = got.reduced()
                    assert _pairs(got) == [(w.numerator, w.denominator) for w in want]
                    assert got.same(_rationals(want)).all()
                    assert got.same(_rationals(want[::-1])).tolist() == [
                        v == w for v, w in zip(want, want[::-1])]
            for iv in WIDE_CARRIERS:
                assert iv.contains_each(x).tolist() == [brute_contains(iv, v) for v in xs], iv

    @STORAGES
    def test_wide_quotients_and_ratios(self, dtype, bits):
        # _quotient of raw parts with signed denominators, and a solver's
        # _ratio, which leaves a zero denominator where it divides by zero
        rng = random.Random(43)
        for _ in range(30):
            nums = [rng.choice((-1, 1)) * rng.randint(0, 2 ** (bits - 1)) for _ in range(12)]
            dens = [rng.choice((-1, 1)) * _wide_part(rng, bits - 1) for _ in range(12)]
            got = _quotient(np.array(nums, dtype=dtype), np.array(dens, dtype=dtype))
            assert (got.den > 0).all() and list(got) == list(map(F, nums, dens))
            xs = [_wide(rng, bits) for _ in range(12)]
            ds = [_wide(rng, bits) if k % 3 else F(0) for k in range(12)]
            c = rng.choice(WIDE_SCALARS)
            for num, each in ((_stored(xs, dtype), xs), (c, [c] * len(ds))):
                got = _ratio(num, _stored(ds, dtype))
                for n, d, x, y in zip(got.num.tolist(), got.den.tolist(), each, ds):
                    assert d == 0 if y == 0 else d > 0 and F(n, d) == F(x) / y
        with pytest.raises(ZeroDivisionError):
            _quotient(np.array([1, 2], dtype=dtype), np.array([3, 0], dtype=dtype))

    def test_exact_families_at_grid_8_stay_on_int64(self, monkeypatch):
        # the pair table's values are int64 arrays, and no operation of the
        # check promotes its parts to Python ints: every product, solve and
        # carrier test runs on int64
        promoted = []

        def recording(*parts, promote=catalog._promoted):
            out = promote(*parts)
            promoted.extend(p for p in out if isinstance(p, np.ndarray) and p.dtype == object)
            return out

        monkeypatch.setattr(catalog, "_promoted", recording)
        exact = [fam for fam in CATALOG.values() if fam.mode == "exact"]
        for fam in exact:
            values = _pair_table(fam, default_samples(fam, 8))[2]
            assert values.num.dtype == values.den.dtype == np.int64, fam.id
            sampled_axiom_check(fam, denominator=8)
        assert len(exact) == 24 and promoted == []
        # where a part reaches 2**31, the operation runs on Python ints
        x = _stored([F(2 ** 31 - 1, 3)], np.int64)
        assert (x * x).num.dtype == np.int64 and (x * 2 ** 31).num.dtype == object

    def test_arithmetic_with_arrays_and_scalars(self):
        rng = random.Random(5)
        ops = (operator.add, operator.sub, operator.mul, operator.truediv)
        for _ in range(50):
            xs = [_fraction(rng) for _ in range(30)]
            ys = [_fraction(rng) or F(1) for _ in range(30)]
            c = rng.choice((_fraction(rng) or F(1), rng.choice((-3, -1, 1, 2, 5))))
            for op in ops:
                for got, want in (
                        (op(_rationals(xs), _rationals(ys)), map(op, xs, ys)),
                        (op(_rationals(xs), c), (op(x, c) for x in xs)),
                        (op(c, _rationals(ys)), (op(c, y) for y in ys))):
                    want = [F(w) for w in want]
                    assert _pairs(got.reduced()) == [(w.numerator, w.denominator)
                                                     for w in want]
                    assert (got.den > 0).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_shapes_and_carriers_match_fraction_evaluation(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            shape = _random_exact_shape(rng)
            xs = [_fraction(rng) for _ in range(60)] + [F(0)] * 3
            ys = [_fraction(rng) for _ in range(60)] + [F(0), F(1), F(-1, 2)]
            want = []
            for x, y in zip(xs, ys):
                try:
                    want.append(shape.evaluate_raw(x, y))
                except ZeroDivisionError:
                    want.append(None)
            if None in want:
                with pytest.raises(ZeroDivisionError):
                    shape.evaluate_raw(_rationals(xs), _rationals(ys))
                continue
            got = shape.evaluate_raw(_rationals(xs), _rationals(ys)).reduced()
            assert _pairs(got) == [(w.numerator, w.denominator) for w in want]
            carriers = (REALS, INTEGERS, NATURALS0,
                        Interval(F(-5, 2), F(7, 3), True, True, True),
                        *(_real_interval(rng) for _ in range(4)),
                        *(_lattice(rng) for _ in range(2)), shape.domain)
            for iv in carriers:
                assert (iv.contains_each(got).tolist()
                        == [brute_contains(iv, w) for w in want]), iv

    def test_a_zero_divisor_raises(self):
        xs, ys = _rationals([F(1), F(2, 3)]), _rationals([F(1, 2), F(0)])
        for divide in (lambda: xs / ys, lambda: 1 / ys, lambda: F(3, 4) / ys,
                       lambda: xs / 0, lambda: xs / F(0)):
            with pytest.raises(ZeroDivisionError):
                divide()
        # harmonic: x + y = 0 at the second entry
        with pytest.raises(ZeroDivisionError):
            HarmonicFamily(2, POS_REALS).evaluate_raw(
                _rationals([F(1), F(1, 3)]), _rationals([F(1), F(-1, 3)]))

    def test_equal_products_share_an_id(self):
        # all products of these values at once, as an M3 slice asks for
        # them: equal ids exactly where the Fractions are equal, and -1
        # where 3xy/(x+y) leaves [1/2, 2]
        fam = ParametricFamily("h3", HarmonicFamily(3, Interval(F(1, 2), 2)),
                               "3ab/(a+b)", None, None, False)
        values = [F(k, 6) for k in range(3, 13)]
        u = len(values)
        ids, _ = _products(fam, _rationals(values), np.arange(u * u), u, {})
        want = [fam.shape.evaluate_raw(x, y) for x in values for y in values]
        inside = [fam.domain.contains(w) for w in want]
        assert 0 < sum(inside) < len(want)
        assert [i >= 0 for i in ids] == inside
        for i, j in product(range(u * u), repeat=2):
            if inside[i] and inside[j]:
                assert (ids[i] == ids[j]) == (want[i] == want[j])

    def test_batched_solves_match_scalar_solves(self):
        # solutions inside and outside the carrier, and zero divisors: where
        # b = c a, a harmonic solver divides by zero, which the scalar solver
        # answers with None and the batch by a zero denominator it masks out
        rng = random.Random(29)
        grid = sorted({F(k, q) for q in (1, 3, 4) for k in range(-24, 25)})
        cases = [(CATALOG["harmonic-R+"], [F(1)] * 4, [F(1, 2), F(2), F(3), F(2)]),
                 (CATALOG["harmonic-(1,inf)"], [F(2)] * 3, [F(3), F(4), F(8)])]
        for trial in range(120):
            fam = ParametricFamily(f"random-{trial}", _random_exact_shape(rng),
                                   "f", None, None, None)
            inside = [x for x in grid if fam.domain.contains(x)]
            if not inside:
                continue
            a, b = ([rng.choice(inside) for _ in range(12)] for _ in range(2))
            k = rng.randrange(12)
            if isinstance(fam.shape, HarmonicFamily) and fam.domain.contains(fam.shape.c * a[k]):
                b[k] = fam.shape.c * a[k]
            cases.append((fam, a, b))
        fallbacks = 0
        for fam, a, b in cases:
            want = [fam._solve(x, y) for x, y in zip(a, b)]
            fallbacks += None in want and any(
                fam.shape.solve_raw(x, y) is None for x, y in zip(a, b))
            got, ok = _solve_each(fam, _rationals(a), _rationals(b))
            assert ok.tolist() == [w is not None for w in want], fam
            assert [g if k else None for g, k in zip(got, ok)] == want, fam
        assert fallbacks == 18


def _elementwise(x):
    """The entries of an evaluate_raw argument: a rational array entry by
    entry, a scalar as itself."""
    return list(x) if isinstance(x, _Rationals) else [x]


def _count_evaluate_raw(monkeypatch, calls):
    """Record the (x, y) entries of every evaluate_raw call of the four
    exact built-in shapes, one list per call."""
    for cls in (AffineFamily, HarmonicFamily, ProbSumFamily, TanhSumFamily):
        def counted(self, x, y, raw=cls.evaluate_raw):
            calls.append(list(zip(_elementwise(x), _elementwise(y))))
            return raw(self, x, y)
        monkeypatch.setattr(cls, "evaluate_raw", counted)


def test_exact_families_reach_evaluate_raw_once_per_product(monkeypatch):
    # the pair table is one evaluate_raw call whose entries are the s^2
    # ordered sample pairs in row-major order; every later call evaluates
    # products of products, each pair of values once; no checked evaluate
    exact = [fam for fam in CATALOG.values() if fam.mode == "exact"]
    assert len(exact) == 24
    products = {fam.id: {v for x in default_samples(fam, 8) for y in default_samples(fam, 8)
                         for v in [fam.shape.evaluate_raw(x, y)] if fam.domain.contains(v)}
                for fam in exact}
    calls = []
    _count_evaluate_raw(monkeypatch, calls)
    monkeypatch.setattr(ParametricFamily, "evaluate", None)
    total = 0
    for fam in exact:
        calls.clear()
        pts = default_samples(fam, 8)
        sampled_axiom_check(fam, pts)
        assert calls[0] == [(x, y) for x in pts for y in pts], fam.id
        later = [pair for call in calls[1:] for pair in call]
        assert len(set(later)) == len(later), fam.id
        assert {x for pair in later for x in pair} <= products[fam.id], fam.id
        total += len(calls[0]) + len(later)
    assert total == 31_922


def test_rational_path_memory_is_sliced():
    # s = 20 samples and u = 191 distinct products: evaluating all u^2 =
    # 36,481 products of products on rational arrays at once peaks at about
    # 9.6 MB, one slice at a time at under 3 MB
    tracemalloc.start()
    try:
        sampled_axiom_check(CATALOG["harmonic-R+"], denominator=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak


def test_exact_families_solve_no_witness_one_at_a_time(monkeypatch):
    # a zero divisor (b = c a for a harmonic shape) reads as no solution
    # inside the batched solve: at grid 8 six classification calls of the
    # harmonic families have one, and none takes the scalar solver
    def scalar(self, a, b):
        raise AssertionError(f"{self.id}: scalar solve of ({a}, {b})")

    want = {fid: sampled_axiom_check(fam, denominator=8)
            for fid, fam in CATALOG.items() if fam.mode == "exact"}
    monkeypatch.setattr(ParametricFamily, "_solve", scalar)
    for fid, rep in want.items():
        assert sampled_axiom_check(CATALOG[fid], denominator=8) == rep


FLOAT_FAMILIES = [fam for fam in CATALOG.values() if fam.mode == "float"] + NON_DYADIC_FLOAT

# floats whose lifts or joins overflow, underflow or reach subnormals
FLOAT_EXTREMES = {LogSumExpFamily: (700.0, 709.0, -740.0, -744.0),
                  CubeRootFamily: (1e100, 5e102, -5e102, 1e-110),
                  GeometricFamily: (1e-300, 1e300, 5e-324)}


class TestFloatArrays:
    """The float shapes' batched products against evaluate_raw on one pair
    of floats at a time, bit for bit."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fam", FLOAT_FAMILIES, ids=lambda f: f.id)
    def test_products_match_the_scalar_path(self, fam, monkeypatch):
        rng = random.Random(31)
        d = fam.domain
        lo = -4.0 if d.lo is None else float(d.lo)
        hi = 4.0 if d.hi is None else float(d.hi)
        near = [g for end in (d.lo, d.hi) if end is not None
                for g in _float_and_neighbours(end)]
        vals = [0.0, -0.0, *near, *default_samples(fam, 8),
                *FLOAT_EXTREMES[type(fam.shape)], *(rng.uniform(lo, hi) for _ in range(12))]
        if isinstance(fam.shape, GeometricFamily):
            vals = [v for v in vals if v >= 0]     # a negative product raises
        u = len(vals)
        want = [fam.shape.evaluate_raw(x, y) for x in vals for y in vals]
        # the batch never evaluates one product at a time
        monkeypatch.setattr(_Lifted, "evaluate_raw", None)
        ids, floats = _products(fam, _operands(fam, vals), np.arange(u * u), u, {})
        assert [v.hex() for v in floats.tolist()] == [w.hex() for w in want]
        assert ids.tolist() == [k if fam.domain.contains(w) else -1
                                for k, w in enumerate(want)]

    def test_grids_never_evaluate_one_product_at_a_time(self, monkeypatch):
        # products, M2 solves and their residuals are batches: no float
        # family reaches evaluate_raw, nor the checked evaluate
        raw, checked = [], []
        evaluate_raw, evaluate = _Lifted.evaluate_raw, ParametricFamily.evaluate

        def counted_raw(self, x, y):
            raw.append((x, y))
            return evaluate_raw(self, x, y)

        def counted(self, x, y):
            checked.append((x, y))
            return evaluate(self, x, y)

        monkeypatch.setattr(_Lifted, "evaluate_raw", counted_raw)
        monkeypatch.setattr(ParametricFamily, "evaluate", counted)
        for fam in FLOAT_FAMILIES:
            for g in range(2, 17):
                sampled_axiom_check(fam, denominator=g)
        assert raw == checked == []

    def test_a_check_lifts_each_value_once_per_stage(self, monkeypatch):
        # logsumexp-R at grid 8: the pair table lifts the 18 samples, M2 the
        # samples and the solution of each of the 324 live pairs, M3 the 171
        # products; lifting every product on each M3 slice took 4,392 calls
        fam = CATALOG["logsumexp-R"]
        pts, pairs, values = _pair_table(fam, default_samples(fam, 8))
        assert (len(pts), int((pairs >= 0).sum()), len(values)) == (18, 324, 171)
        lifts = []
        monkeypatch.setattr(LogSumExpFamily, "lift",
                            staticmethod(lambda x: lifts.append(x) or math.exp(x)))
        sampled_axiom_check(fam, pts)
        assert len(lifts) == 18 + (18 + 324) + 171
        assert lifts[:18] == pts and lifts[-171:] == values.tolist()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fam,pts,error,message", [
        (CATALOG["logsumexp-R"], [0.0, 710.0], OverflowError, "math range error"),
        (CATALOG["cuberoot-mean-R"], [1.0, 1e103], OverflowError,
         "(34, 'Numerical result out of range')"),
        # 3e102 op 3e102 = 7.56e102, whose cube overflows: in a product of
        # products, where the batch raises and the per-key loop raises again
        (CATALOG["cuberoot-doubling-R"], [3e102], OverflowError,
         "(34, 'Numerical result out of range')"),
        (ParametricFamily("geometric-[-1,1]", GeometricFamily(Interval(-1, 1)),
                          "sqrt(ab)", None, None, False),
         [0.5, -0.5], ValueError, "math domain error"),
    ], ids=lambda v: getattr(v, "id", None) or repr(v))
    def test_errors_are_those_of_one_product_at_a_time(self, fam, pts, error, message):
        for check in (brute_sampled_axiom_check, sampled_axiom_check):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                check(fam, pts)


# (_BLOCK_CELLS, _KEY_CHUNK): blocks of one row of quadruples and calls of
# one or seven keys, and blocks of 2 to 11 rows at 3 to 6 samples
EDGE_CAPS = [(1, 1), (7, 7), (300, 7)]


def _parametrized(test):
    """The argument tuples of a test's parametrize mark."""
    return next(m.args[1] for m in test.pytestmark if m.name == "parametrize")


class TestBlockAndChunkEdges:
    """TestSampledAxiomOracle's grids and traps, and the float errors of one
    product at a time, at caps so small that M3's blocks and _products
    calls end inside each grid; at the default caps most of these grids
    fit in one block and one call."""

    @pytest.fixture(params=EDGE_CAPS, ids=str)
    def caps(self, request, monkeypatch):
        monkeypatch.setattr(catalog, "_BLOCK_CELLS", request.param[0])
        monkeypatch.setattr(catalog, "_KEY_CHUNK", request.param[1])

    @pytest.mark.parametrize("fid", sorted(CATALOG))
    def test_catalog_grids(self, fid, monkeypatch):
        fam = CATALOG[fid]
        for denominator in range(2, 7):
            want = brute_sampled_axiom_check(fam, denominator=denominator)
            for cells, keys in EDGE_CAPS:
                monkeypatch.setattr(catalog, "_BLOCK_CELLS", cells)
                monkeypatch.setattr(catalog, "_KEY_CHUNK", keys)
                assert sampled_axiom_check(fam, denominator=denominator) == want, (cells, keys)

    @pytest.mark.parametrize("trap", TRAPS)
    def test_second_level_exception_comes_from_the_same_product(self, trap, caps):
        TestSampledAxiomOracle().test_second_level_exception_comes_from_the_same_product(trap)

    @pytest.mark.parametrize("trap", TRAPS)
    def test_float_second_level_exception_comes_from_the_same_product(self, trap, caps):
        TestSampledAxiomOracle().test_float_second_level_exception_comes_from_the_same_product(
            trap)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "fam,pts,error,message",
        _parametrized(TestFloatArrays.test_errors_are_those_of_one_product_at_a_time),
        ids=lambda v: getattr(v, "id", None) or repr(v))
    def test_errors_are_those_of_one_product_at_a_time(self, fam, pts, error, message, caps):
        TestFloatArrays().test_errors_are_those_of_one_product_at_a_time(fam, pts, error, message)


def _verdict_or_error(classify_fn):
    try:
        return classify_fn().to_dict()
    except Exception as exc:
        return type(exc), str(exc)


def _assert_classifiers_agree(fam, pts):
    want = _verdict_or_error(lambda: brute_classify_family(fam, pts))
    assert _verdict_or_error(lambda: classify_family(fam, pts)) == want
    assert _verdict_or_error(lambda: sampled_axiom_check(fam, pts).verdict) == want
    return want


class TestClassificationOracle:
    """classify_family and the verdict of sampled_axiom_check, both read from
    one pair table, against one evaluation and one solve per witness pair."""

    @pytest.mark.parametrize("fid", sorted(f for f in CATALOG if CATALOG[f].unit is not None))
    def test_catalog_grids(self, fid):
        fam = CATALOG[fid]
        for g in (*range(2, 9), 16):
            _assert_classifiers_agree(fam, default_samples(fam, g))

    def test_geometric_random_samples(self):
        rng = random.Random(7)
        pts = [rng.uniform(0.05, 0.95) for _ in range(16)]
        _assert_classifiers_agree(CATALOG["geometric-(0,1)"], pts)

    def test_escaped_products_refute_the_monoid(self):
        # 9 ((x^3 + y^3)/1000)^(1/3) leaves [0, 1] for large x and y
        fam = ParametricFamily("cr", CubeRootFamily(9, 1000, Interval(0, 1)),
                               "f", 0, None, False)
        for g, closure in zip(range(2, 9), (33, 74, 153, 250, 405, 680, 1027)):
            want = _assert_classifiers_agree(fam, default_samples(fam, g))
            assert want["label"] == "IV"
            assert want["evidence"]["monoid"]["refuting_witness"] == "pair=(0.0,1.0)"
            assert sampled_axiom_check(fam, denominator=g).closure_violations == closure


def test_exact_catalog_commands_make_no_checked_evaluate_calls(monkeypatch):
    # every family evaluates and solves on arrays; only the harmonic-(0,1]
    # command adds the two evaluations of the two star_solve calls of
    # half_has_no_inverse_check
    calls = []
    evaluate = ParametricFamily.evaluate

    def counted(self, x, y):
        calls.append(self.id)
        return evaluate(self, x, y)

    monkeypatch.setattr(ParametricFamily, "evaluate", counted)
    for fid, fam in CATALOG.items():
        before = len(calls)
        cli.main(["catalog", "--family", fid, "--samples", "8"])
        assert len(calls) - before == (2 if fid == "harmonic-(0,1]" else 0), fid
    assert len(calls) == 2


class TestClassification:
    @pytest.mark.parametrize("fid,label", sorted(EXPECTED_LABELS.items()))
    def test_expected_labels(self, fid, label):
        verdict = classify_family(CATALOG[fid])
        assert verdict.label.label == label
        assert verdict.matches_expected

    def test_catalog_expectations_match_table(self):
        for fid, label in EXPECTED_LABELS.items():
            assert CATALOG[fid].expected_label == label
        unlabeled = {fid for fid in CATALOG} - set(EXPECTED_LABELS)
        for fid in unlabeled:
            assert CATALOG[fid].expected_label is None

    def test_refuting_witnesses_back_every_false_flag(self):
        for fam in CATALOG.values():
            if fam.unit is None:
                continue
            verdict = classify_family(fam)
            flags = {"expansive": verdict.label.expansive,
                     "symmetric": verdict.label.symmetric,
                     "monoid": verdict.label.monoid}
            for name, flag in flags.items():
                ev = verdict.evidence[name]
                if flag:
                    assert ev["refuting_witness"] is None
                else:
                    assert ev["refuting_witness"] is not None, (fam.id, name)

    def test_no_idempotent_families_have_no_unit(self):
        for fam in CATALOG.values():
            idem = fam.shape.idempotent_elements()
            if fam.unit is None:
                assert idem == ()
            else:
                assert idem == "all" or fam.unit in idem

    def test_unclassifiable_without_unit(self):
        with pytest.raises(ValueError, match="no designated unit"):
            classify_family(CATALOG["sum-R+"])

    def test_geometric_mean_flags(self):
        verdict = classify_family(CATALOG["geometric-(0,1)"])
        assert verdict.label.label == "IV"
        assert verdict.matches_expected is None


class TestAssociativityMetadata:
    @pytest.mark.parametrize("fid", sorted(CATALOG))
    def test_sampled_associativity_matches(self, fid):
        fam = CATALOG[fid]
        assert fam.associative is not None
        assert sampled_associativity(fam) == fam.associative

    @pytest.mark.parametrize("fam", [*CATALOG.values(), *NON_CLOSED], ids=lambda f: f.id)
    def test_sampled_associativity_matches_the_oracle(self, fam):
        for g in range(2, 17):
            pts = default_samples(fam, g)
            assert sampled_associativity(fam, pts) == brute_sampled_associativity(fam, pts), g

    def test_repeated_samples_match_the_oracle(self):
        # a sample equal to an earlier one, or to a product of two, reads
        # the products of the first equal entry of the values and samples
        rng = random.Random(3)
        for fam in CATALOG.values():
            base = default_samples(fam, 4)
            for _ in range(5):
                pts = [rng.choice(base) for _ in range(6)]
                assert (sampled_associativity(fam, pts)
                        == brute_sampled_associativity(fam, pts)), (fam.id, pts)

    def test_an_escape_on_one_side_skips_the_triple(self):
        # (a + b) + 0 leaves the carrier where a + b = 1/2, while a + (b + 0)
        # stays: such triples are skipped, not counted as counterexamples
        fam = ParametricFamily("leaky-sum", LeakySumShape(frozenset({(F(1, 2), F(0))})),
                               "a+b", None, None, True)
        pts = [F(-1), F(-1, 2), F(0), F(1, 2), F(1)]
        assert sampled_associativity(fam, pts) is brute_sampled_associativity(fam, pts) is True

    def test_sampled_associativity_evaluates_each_product_once(self, monkeypatch):
        # sum-R at grid 8: the 11^2 sample products in one call, then (ab)c
        # and a(bc) once per distinct pair of ids (of a value or a sample,
        # a sample equal to a value taking its id) in another: 693 products,
        # all distinct as numbers, where a loop over triples made 2,783
        # checked evaluate calls
        calls = []
        _count_evaluate_raw(monkeypatch, calls)
        monkeypatch.setattr(ParametricFamily, "evaluate", None)
        assert sampled_associativity(CATALOG["sum-R"]) is True
        assert list(map(len, calls)) == [11 * 11, 693]
        assert len(set(calls[1])) == 693


class TestDerivedMonoid:
    def test_star_formula(self):
        assert monoid_formula_check()

    def test_star_formula_named_pairs(self):
        assert H.star(F(1, 2), F(1, 2)) == F(1, 3)
        assert H.star(F(1), F(3, 4)) == F(3, 4)        # unit law
        assert H.star(F(1, 2), F(1, 3)) == F(1, 4)

    def test_half_has_no_inverse(self):
        assert half_has_no_inverse_check()

    def test_group_flag_consistent_with_missing_inverse(self):
        verdict = classify_family(H)
        assert not verdict.label.group

    def test_star_associative_where_monoid_exists(self):
        for fam in CATALOG.values():
            if fam.unit is None:
                continue
            verdict = classify_family(fam)
            if not verdict.label.monoid:
                continue
            pts = default_samples(fam, 4)[:5]
            if fam.mode == "float":
                # cube differences near zero amplify float error through the
                # cube root, so certify associativity away from cancellation
                pts = [x for x in pts if x > 0][:5] or [0.25, 0.5, 1.0]
            for x, y, z in product(pts, repeat=3):
                a = fam.star(fam.star(x, y), z)
                b = fam.star(x, fam.star(y, z))
                if fam.mode == "exact":
                    assert a == b
                else:
                    assert abs(a - b) <= 1e-9

    def test_star_defining_identity_on_all_samples(self):
        # star(x, y) op e = x op y, checked in residual form for floats
        for fam in CATALOG.values():
            if fam.unit is None:
                continue
            if not classify_family(fam).label.monoid:
                continue
            pts = default_samples(fam, 4)
            for x in pts:
                for y in pts:
                    theta = fam.star(x, y)
                    assert theta is not None
                    lhs = fam.evaluate(theta, fam.unit)
                    rhs = fam.evaluate(x, y)
                    if fam.mode == "exact":
                        assert lhs == rhs
                    else:
                        assert abs(lhs - rhs) <= 1e-9

    def test_star_unit_laws(self):
        for fam in CATALOG.values():
            if fam.unit is None:
                continue
            verdict = classify_family(fam)
            if not verdict.label.monoid:
                continue
            for a in default_samples(fam, 4):
                got = fam.star(fam.unit, a)
                if fam.mode == "exact":
                    assert got == a
                else:
                    assert abs(got - a) <= 1e-9


class TestSampling:
    def test_defaults_respect_domain(self):
        # float(9/10) lies above 9/10: a closed end's float may be no sample
        for fam in (*CATALOG.values(), *NON_DYADIC_FLOAT):
            for x in default_samples(fam):
                assert fam.domain.contains(x)

    def test_integral_domain_samples_are_integers(self):
        for x in default_samples(CATALOG["affine-Z:2,0"]):
            assert x.denominator == 1

    def test_closed_endpoints_included(self):
        pts = default_samples(CATALOG["third-[-1,1]"])
        assert F(-1) in pts and F(1) in pts

    def test_float_families_get_floats(self):
        assert all(isinstance(x, float)
                   for x in default_samples(CATALOG["geometric-(0,1)"]))


class TestAffineModularInvariant:
    def test_axioms_iff_multiplier_invertible(self):
        for n in range(2, 11):
            for alpha in range(n):
                rep = check_axioms(fixtures.affine_mod(n, alpha, 1))
                assert rep.commutative and rep.medial
                assert rep.cancellative == (math.gcd(alpha, n) == 1)
