"""Independent brute-force oracles, kept free of the library's own code
paths: plain loops, no numpy, no shared helpers."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations, product
from typing import Optional


def brute_axioms(table):
    """Same flags and lexicographic counterexample conventions as the
    library, recomputed with naive scans."""
    n = len(table)
    rng = range(n)
    out = {}

    out["commutative"], out["commutative_ce"] = True, None
    for a, b in product(rng, rng):
        if table[a][b] != table[b][a]:
            out["commutative"], out["commutative_ce"] = False, (a, b)
            break

    out["cancellative"], out["cancellative_ce"] = True, None
    for a, b, c in product(rng, rng, rng):
        if a != b and table[a][c] == table[b][c]:
            out["cancellative"], out["cancellative_ce"] = False, (a, b, c)
            break
    if out["cancellative"]:
        for a, b, c in product(rng, rng, rng):
            if a != b and table[c][a] == table[c][b]:
                out["cancellative"], out["cancellative_ce"] = False, (a, b, c)
                break

    out["medial"], out["medial_ce"] = True, None
    for a, b, c, d in product(rng, rng, rng, rng):
        if table[table[a][b]][table[c][d]] != table[table[a][c]][table[b][d]]:
            out["medial"], out["medial_ce"] = False, (a, b, c, d)
            break

    out["associative"], out["associative_ce"] = True, None
    for a, b, c in product(rng, rng, rng):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            out["associative"], out["associative_ce"] = False, (a, b, c)
            break

    out["idempotents"] = tuple(i for i in rng if table[i][i] == i)
    return out


def brute_difunctional(member):
    rows = len(member)
    cols = len(member[0]) if rows else 0
    for x, y, z, w in product(range(rows), range(cols), range(rows), range(cols)):
        if member[x][y] and member[z][y] and member[z][w] and not member[x][w]:
            return False
    return True


def brute_transitive(member):
    n = len(member)
    for a, b, c in product(range(n), repeat=3):
        if member[a][b] and member[b][c] and not member[a][c]:
            return False
    return True


def brute_pairs(member):
    return [(a, b) for a, row in enumerate(member) for b, v in enumerate(row) if v]


def brute_format_relation(member):
    rows = [" ".join("1" if v else "0" for v in row) for row in member]
    return "\n".join([f"{len(member)} {len(member[0])}", *rows]) + "\n"


def brute_internal(left, right, member):
    """(flag, witness) of the pair-by-pair scan: the first related pair, in
    row-major order, and the first related pair it multiplies out of the
    relation."""
    ps = brute_pairs(member)
    for a, b in ps:
        for a2, b2 in ps:
            if not member[left[a][a2]][right[b][b2]]:
                return False, ((a, b), (a2, b2))
    return True, None


def brute_reflexive(member):
    for a in range(len(member)):
        if not member[a][a]:
            return False, a
    return True, None


def brute_difunctional_witness(member):
    """(x, y, z, w) with xRy, zRy, zRw and not xRw: the smallest such
    (x, w), completed with the smallest (y, z); None when there is none."""
    rows, cols = range(len(member)), range(len(member[0]))
    for x, w in product(rows, cols):
        if member[x][w]:
            continue
        for y, z in product(cols, rows):
            if member[x][y] and member[z][y] and member[z][w]:
                return x, y, z, w
    return None


def brute_classes(member):
    """Distinct rows as tuples of related columns, in order of first row."""
    out = []
    for row in member:
        related = tuple(b for b, v in enumerate(row) if v)
        if related not in out:
            out.append(related)
    return out


def brute_closure(table, seed):
    """The smallest subset holding seed and closed under table, sorted: add
    every product of two members until a round adds nothing."""
    closed = set(seed)
    while True:
        grown = closed | {table[a][b] for a in closed for b in closed}
        if grown == closed:
            return tuple(sorted(closed))
        closed = grown


def brute_generators(table):
    """The greedy generating set: in element order, each element outside the
    closure of the earlier picks is picked."""
    gens, closed = [], ()
    for x in range(len(table)):
        if x not in closed:
            gens.append(x)
            closed = brute_closure(table, gens)
    return gens


def brute_star(table, e):
    """Reconstruct the star table by looking up the solution of
    star(x, y) op e = x op y, pair by pair, among the solutions of
    z op e = v that one scan of column e lists for every v."""
    n = len(table)
    solutions = [[] for _ in range(n)]
    for z in range(n):
        solutions[table[z][e]].append(z)
    star = []
    for x in range(n):
        row = []
        for y in range(n):
            hits = solutions[table[x][y]]
            if len(hits) != 1:
                return None
            row.append(hits[0])
        star.append(tuple(row))
    return tuple(star)


def brute_monoid_invariants(table, star, e):
    """Every monoid invariant by naive scans: unit e, commutative,
    associative, star(x, y) op e = x op y, and the compatibility
    (x*y) op (z*w) = (x op z)*(y op w) over all quadruples."""
    rng = range(len(table))
    if any(star[e][x] != x for x in rng):
        return False
    for x, y in product(rng, rng):
        if star[x][y] != star[y][x] or table[star[x][y]][e] != table[x][y]:
            return False
    for x, y, z in product(rng, rng, rng):
        if star[star[x][y]][z] != star[x][star[y][z]]:
            return False
    for x, y, z, w in product(rng, rng, rng, rng):
        if table[star[x][y]][star[z][w]] != star[table[x][z]][table[y][w]]:
            return False
    return True


def commutative_latin_squares(n):
    """Every commutative Latin square of order n, by backtracking over the
    cells (i, j) with i <= j in row order; only usable at tiny orders."""
    rows = [[None] * n for _ in range(n)]
    cells = [(i, j) for i in range(n) for j in range(i, n)]

    def fill(k):
        if k == len(cells):
            yield tuple(map(tuple, rows))
            return
        i, j = cells[k]
        for v in range(n):
            if v in rows[i] or v in rows[j]:
                continue
            rows[i][j] = rows[j][i] = v
            yield from fill(k + 1)
            rows[i][j] = rows[j][i] = None

    yield from fill(0)


def brute_groups_isomorphic(t1, t2):
    """Search all bijections; only usable at tiny orders."""
    n = len(t1)
    if len(t2) != n:
        return False
    for perm in permutations(range(n)):
        if all(perm[t1[a][b]] == t2[perm[a]][perm[b]]
               for a in range(n) for b in range(n)):
            return True
    return False


def endomorphism_pool(table, limit=None):
    """All self-maps preserving the operation, by backtracking."""
    n = len(table)
    found = []

    def consistent(partial):
        k = len(partial)
        for x in range(k):
            for y in range(k):
                z = table[x][y]
                if z < k and partial[z] != table[partial[x]][partial[y]]:
                    return False
        return True

    def walk(partial):
        if limit is not None and len(found) >= limit:
            return
        if len(partial) == n:
            found.append(tuple(partial))
            return
        for v in range(n):
            partial.append(v)
            if consistent(partial):
                walk(partial)
            partial.pop()

    walk([])
    return found


def brute_contains(iv, x):
    """Interval.contains by comparing x with the Fraction ends: the reference
    for Interval.contains and Interval.contains_each."""
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return False
    if iv.integral:
        if isinstance(x, Fraction):
            if x.denominator != 1:
                return False
        elif isinstance(x, float):
            if not x.is_integer():
                return False
    if iv.lo is not None:
        if x < iv.lo or (iv.lo_open and x == iv.lo):
            return False
    if iv.hi is not None:
        if x > iv.hi or (iv.hi_open and x == iv.hi):
            return False
    return True


# the catalog's flag helper as it was when it took one (description,
# solution) attempt at a time, kept here so the oracle shares no code with
# the batched helper it checks
def _flag_with_evidence(fam, name, analytic, attempts):
    checked = ok = 0
    refuting = None
    for desc, solution in attempts:
        checked += 1
        if solution is not None:
            ok += 1
        elif refuting is None:
            refuting = desc
    sampled = refuting is None
    if analytic is None:
        flag = sampled
    else:
        flag = analytic
        if analytic and not sampled:
            raise AssertionError(
                f"{fam.id}: analytic {name} verdict contradicts witness {refuting}")
    evidence = {"analytic": analytic, "witnesses": checked, "solved": ok,
                "refuting_witness": refuting}
    return flag, evidence


def brute_classify_family(fam, samples=None):
    """classify_family with one fam.evaluate and one solve per monoid
    witness pair: the reference for catalog.classify_family and for the
    verdict of catalog.sampled_axiom_check."""
    from ccmagma.catalog import (ClosureError, FamilyClassification, _totality,
                                 default_samples)
    from ccmagma.structures import classify

    if fam.unit is None:
        raise ValueError(f"{fam.id} has no designated unit")
    e = fam.unit
    pts = list(samples) if samples is not None else default_samples(fam)
    total = _totality(fam.shape, e) if fam.mode == "exact" else (None, None, None)

    expansive, ev_exp = _flag_with_evidence(
        fam, "expansive", total[0],
        ((f"a={a}", fam.solve_left(e, a)) for a in pts))
    symmetric, ev_sym = _flag_with_evidence(
        fam, "symmetric", total[1],
        ((f"a={a}", fam.solve_left(a, e)) for a in pts))

    def monoid_attempts():
        for x in pts:
            for y in pts:
                try:
                    z = fam.evaluate(x, y)
                except ClosureError:
                    yield (f"pair=({x},{y})", None)
                    continue
                yield (f"pair=({x},{y})", fam.solve_left(e, z))

    monoid, ev_mon = _flag_with_evidence(fam, "monoid", total[2], monoid_attempts())
    label = classify(expansive, symmetric, monoid, monoid and symmetric)
    matches = None if fam.expected_label is None else (label.label == fam.expected_label)
    return FamilyClassification(fam.id, label, fam.expected_label, matches,
                                {"expansive": ev_exp, "symmetric": ev_sym,
                                 "monoid": ev_mon})


def brute_sampled_axiom_check(fam, samples=None, denominator=16):
    """The sampled M1/M2/M3 check with one fam.evaluate per call site and
    no memo: the reference for catalog.sampled_axiom_check, closure
    counts and worst residual included."""
    from ccmagma.catalog import (FLOAT_TOL, ClosureError, SampleReport,
                                 default_samples)

    pts = list(samples) if samples is not None else default_samples(fam, denominator)
    exact = fam.mode == "exact"
    worst = 0.0
    closure = 0
    m1 = m2 = m3 = True

    def op(x, y):
        nonlocal closure
        try:
            return fam.evaluate(x, y)
        except ClosureError:
            closure += 1
            return None

    for x in pts:
        for y in pts:
            v, w = op(x, y), op(y, x)
            if v is None or w is None:
                m1 = False
                continue
            if exact:
                m1 = m1 and v == w
            else:
                worst = max(worst, abs(v - w))
                m1 = m1 and abs(v - w) <= FLOAT_TOL
            got = fam.solve_left(y, v)
            if got is None:
                m2 = False
            elif exact:
                m2 = m2 and got == x
            else:
                # float conditioning (cube roots near zero) can push the
                # recovered pre-image far from x, so check the defining
                # equation instead: the solution must solve x' op y = v
                residual = abs(fam.evaluate(got, y) - v)
                worst = max(worst, residual)
                m2 = m2 and residual <= FLOAT_TOL
    for a in pts:
        for b in pts:
            ab = op(a, b)
            if ab is None:
                continue
            for c in pts:
                ac = op(a, c)
                if ac is None:
                    continue
                for d in pts:
                    cd, bd = op(c, d), op(b, d)
                    if cd is None or bd is None:
                        m3 = False
                        continue
                    lhs, rhs = op(ab, cd), op(ac, bd)
                    if lhs is None or rhs is None:
                        m3 = False
                        continue
                    if exact:
                        m3 = m3 and lhs == rhs
                    else:
                        worst = max(worst, abs(lhs - rhs))
                        m3 = m3 and abs(lhs - rhs) <= FLOAT_TOL

    verdict = None if fam.unit is None else brute_classify_family(fam, pts)
    return SampleReport(fam.id, len(pts), m1, m2, m3,
                        None if exact else worst, closure, verdict)


def brute_sampled_associativity(fam, samples=None):
    """sampled_associativity with four fam.evaluate calls per triple of
    samples and no pair table: the reference for
    catalog.sampled_associativity."""
    from ccmagma.catalog import FLOAT_TOL, ClosureError, default_samples

    pts = samples if samples is not None else default_samples(fam, 8)
    for a in pts:
        for b in pts:
            for c in pts:
                try:
                    ab, bc = fam.evaluate(a, b), fam.evaluate(b, c)
                    lhs, rhs = fam.evaluate(ab, c), fam.evaluate(a, bc)
                except ClosureError:
                    continue
                if fam.mode == "exact" and lhs != rhs:
                    return False
                if fam.mode == "float" and abs(lhs - rhs) > FLOAT_TOL:
                    return False
    return True


# ---------------------------------------------------------------------------
# exact totality of v -> (p v + q)/(r v + s) from one interval into another:
# the general Moebius-with-poles engine the catalog once decided with

# interval ends as (kind, value, open): kind -1 = -inf, 0 = finite, +1 = +inf
_EndT = tuple[int, Optional[Fraction], bool]


def _order_ends(e1: _EndT, e2: _EndT) -> tuple[_EndT, _EndT]:
    def key(e):
        kind, value, _ = e
        return (kind, value if value is not None else 0)
    return (e1, e2) if key(e1) <= key(e2) else (e2, e1)


def _ends_within(lo_end: _EndT, hi_end: _EndT, dst: Interval) -> bool:
    kind, v, is_open = lo_end
    if kind == -1:
        if dst.lo is not None:
            return False
    elif kind == 0 and dst.lo is not None:
        if v < dst.lo:
            return False
        if v == dst.lo and dst.lo_open and not is_open:
            return False
    kind, v, is_open = hi_end
    if kind == +1:
        if dst.hi is not None:
            return False
    elif kind == 0 and dst.hi is not None:
        if v > dst.hi:
            return False
        if v == dst.hi and dst.hi_open and not is_open:
            return False
    return True


def mobius_maps_into(src: Interval, dst: Interval, p, q, r, s) -> bool:
    """Exact decision of: for every v in src, (p v + q)/(r v + s) is defined
    and lies in dst.

    Poles inside src (including closed endpoints) fail; a pole sitting at an
    open endpoint turns into a one-sided infinite limit.  Integer-lattice
    targets are supported for affine maps only, and integer-lattice sources
    for affine and constant maps only, which is all the catalog needs.
    """
    from ccmagma.catalog import Interval

    p, q, r, s = (Fraction(v) for v in (p, q, r, s))
    if src.integral:    # a lattice source is judged by its extreme lattice points
        lo, hi = src.lo, src.hi
        if lo is not None:
            lo = math.floor(lo) + 1 if src.lo_open else math.ceil(lo)
        if hi is not None:
            hi = math.ceil(hi) - 1 if src.hi_open else math.floor(hi)
        if lo is not None and hi is not None and lo > hi:
            return True     # no lattice point: nothing can fail
        src = Interval(lo, hi, integral=True)
    if src.lo is not None and src.lo == src.hi:
        den = r * src.lo + s
        if den == 0:
            return False
        return dst.contains((p * src.lo + q) / den)

    if r == 0:
        if s == 0:
            raise ValueError("degenerate map")
        slope, offset = p / s, q / s
        if dst.integral:
            if not src.integral:
                raise NotImplementedError("integer target from non-integer source")
            if slope.denominator != 1 or offset.denominator != 1:
                return False    # consecutive integer inputs cannot all map to Z
        if slope == 0:
            return dst.contains(offset)

        def affine_end(bound, is_open, side) -> _EndT:
            if bound is None:
                return (side if slope > 0 else -side, None, True)
            return (0, slope * bound + offset, is_open)

        ends = (affine_end(src.lo, src.lo_open, -1),
                affine_end(src.hi, src.hi_open, +1))
    else:
        if dst.integral:
            raise NotImplementedError("mobius totality over integer lattices")
        pole = -s / r
        det = p * s - q * r
        if det == 0:
            if src.contains(pole):
                return False
            return dst.contains(p / r)
        if src.integral:
            # the image of a lattice is no interval, so its ends decide nothing
            raise NotImplementedError("mobius totality over integer lattices")
        lo_in = src.lo is None or pole > src.lo or (pole == src.lo and not src.lo_open)
        hi_in = src.hi is None or pole < src.hi or (pole == src.hi and not src.hi_open)
        if lo_in and hi_in:
            return False        # pole belongs to src: unsolvable there

        def mobius_end(bound, is_open, is_lo_end) -> _EndT:
            if bound is None:
                return (0, p / r, True)
            if bound == pole:   # open endpoint at the pole: one-sided blow-up
                numer_sign = 1 if p * pole + q > 0 else -1
                r_sign = 1 if r > 0 else -1
                side = 1 if is_lo_end else -1
                return (numer_sign * r_sign * side, None, True)
            return (0, (p * bound + q) / (r * bound + s), is_open)

        ends = (mobius_end(src.lo, src.lo_open, True),
                mobius_end(src.hi, src.hi_open, False))

    lo_end, hi_end = _order_ends(*ends)
    return _ends_within(lo_end, hi_end, dst)


def brute_totality(shape, e):
    """(expansive, symmetric, monoid) totality at e from the Moebius
    coefficients of each shape's left-division solver x op e = v (or
    x op v = e), over the domain or over the operation's range."""
    from ccmagma.catalog import AffineFamily, HarmonicFamily, Interval, ProbSumFamily

    d = shape.domain

    def image(f):       # ends of an increasing map, as an Interval
        return Interval(None if d.lo is None else f(d.lo),
                        None if d.hi is None else f(d.hi),
                        d.lo_open, d.hi_open, d.integral)

    if isinstance(shape, AffineFamily):
        a, b = shape.alpha, shape.beta
        # the star product is x + y - e regardless of alpha, so totality is
        # about the sum interval, never about divisibility by alpha
        return (mobius_maps_into(d, d, 1 / a, -b / a - e, 0, 1),
                mobius_maps_into(d, d, -1, (e - b) / a, 0, 1),
                mobius_maps_into(image(lambda v: 2 * v), d, 1, -e, 0, 1))
    if isinstance(shape, HarmonicFamily):
        c = shape.c
        # the range is (c/2) D, so D itself for the mean c = 2
        return (mobius_maps_into(d, d, e, 0, -1, c * e),
                mobius_maps_into(d, d, e, 0, c, -e),
                mobius_maps_into(image(lambda v: c * v / 2), d, e, 0, -1, c * e))
    if isinstance(shape, ProbSumFamily):
        g = shape.gamma
        # increasing in each argument while 1 + g v > 0 on the domain
        return (mobius_maps_into(d, d, 1, -e, 0, 1 + g * e),
                mobius_maps_into(d, d, -1, e, g, 1),
                mobius_maps_into(image(lambda v: 2 * v + g * v * v), d,
                                 1, -e, 0, 1 + g * e))
    raise NotImplementedError(f"no Moebius deciders for {type(shape).__name__}")


def brute_parse(text):
    """The Cayley-table text reader written out line by line: every entry
    through int(), the table as a tuple of row tuples, and on bad input a
    ValueError naming the first bad line with parse_magma's wording."""
    lines = [(lineno, s) for lineno, s in enumerate((t.strip() for t in text.splitlines()), 1)
             if s and not s.startswith("#")]
    if not lines:
        raise ValueError("empty input")
    lineno, head = lines[0]
    try:
        n = int(head)
    except ValueError:
        raise ValueError(f"line {lineno}: order {head!r} is not an integer") from None
    if n < 1:
        raise ValueError(f"line {lineno}: order must be >= 1, got {n}")
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != n:
            raise ValueError(f"line {lineno}: expected {n} entries, found {len(parts)}")
        row = []
        for p in parts:
            try:
                v = int(p)
            except ValueError:
                raise ValueError(f"line {lineno}: entry {p!r} is not an integer") from None
            if v < 0:
                raise ValueError(f"line {lineno}: entry {v} is negative")
            if v >= n:
                raise ValueError(f"line {lineno}: entry {v} >= order {n}")
            row.append(v)
        rows.append(tuple(row))
    return tuple(rows)


def reference_parser():
    """The ccmagma command-line parser as one full argparse build, written
    out rather than imported: every subcommand registered, each handler
    recorded by its name, and the --samples check worded as the CLI words it."""
    import argparse

    from ccmagma import __version__

    def positive_int(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    parser = argparse.ArgumentParser(
        prog="ccmagma",
        description="Analyze, classify, generate and transform commutative "
                    "cancellative medial magmas.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--json", action="store_true",
                        help="machine output only (no stderr summary)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the stderr summary")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the axioms of a Cayley-table file")
    p.add_argument("path")
    p.set_defaults(fn="_cmd_check")

    p = sub.add_parser("classify", help="classification label at an idempotent unit")
    p.add_argument("path")
    p.add_argument("--unit", type=int, required=True)
    p.set_defaults(fn="_cmd_classify")

    p = sub.add_parser("generate", help="random quasigroup in affine form")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn="_cmd_generate")

    p = sub.add_parser("extract-group",
                       help="divide out the operation into an abelian group")
    p.add_argument("path")
    p.add_argument("--unit", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn="_cmd_extract_group")

    p = sub.add_parser("relation",
                       help="relation induced by a subalgebra and a unit")
    p.add_argument("path")
    p.add_argument("--subalgebra", required=True,
                   help="comma-separated element list, e.g. 0,3,6")
    p.add_argument("--unit", type=int, required=True)
    p.set_defaults(fn="_cmd_relation")

    p = sub.add_parser("catalog", help="parametric family reports")
    p.add_argument("--family")
    p.add_argument("--samples", type=positive_int, default=16,
                   help="sample-grid denominator (default 16)")
    p.set_defaults(fn="_cmd_catalog")

    return parser
