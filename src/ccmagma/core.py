"""Finite magmas given by Cayley tables, with exhaustive axiom checking.

Elements are dense indices 0..n-1.  A table is "valid" when it satisfies
commutativity (M1), cancellation (M2) and mediality (M3); all checks here
are exhaustive and return lexicographically smallest counterexamples, so
reports are deterministic and can be frozen in golden tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np


class ParseError(ValueError):
    """Malformed Cayley-table text."""


@dataclass(frozen=True, init=False, eq=False, repr=False)
class FiniteMagma:
    """An order-n magma as an n x n grid of element indices.

    The canonical form is arr, a private read-only intp copy of the input
    (an ndarray or nested sequences); table, the same grid as a tuple of
    tuples, is derived from it on first use.
    """

    arr: np.ndarray

    def __init__(self, table):
        try:
            arr = np.array(table, dtype=np.intp)
        except (TypeError, ValueError, OverflowError):
            arr = None
        if (arr is None or arr.ndim != 2 or arr.shape[0] != arr.shape[1]
                or not arr.size or arr.min() < 0 or arr.max() >= len(arr)):
            # only the per-cell pass names the first bad row or entry
            rows = tuple(tuple(int(v) for v in row) for row in table)
            if not rows:
                raise ValueError("order must be >= 1")
            for i, row in enumerate(rows):
                if len(row) != len(rows):
                    raise ValueError(f"row {i} has length {len(row)}, expected {len(rows)}")
                for v in row:
                    if not 0 <= v < len(rows):
                        raise ValueError(f"entry {v} out of range 0..{len(rows) - 1}")
            arr = np.array(rows, dtype=np.intp)
        arr.setflags(write=False)
        object.__setattr__(self, "arr", arr)

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.arr.tolist()))

    @cached_property
    def _star0(self) -> Optional[np.ndarray]:
        """The star with star0(x, y) op 0 = x op y when the table is a
        commutative Latin square that _toyoda_gens certifies, else None;
        proved once per object, so every reader shares one proof."""
        t = self.arr
        if not (np.array_equal(t, t.T)  # then Latin iff every column is a permutation
                and (np.sort(t, axis=0) == np.arange(len(t))[:, None]).all()):
            return None
        star = _column_inverse(t, 0)[t]
        star.setflags(write=False)
        return star if _toyoda_gens(t, 0, star) is not None else None

    @property
    def order(self) -> int:
        return len(self.arr)

    def op(self, x: int, y: int) -> int:
        return int(self.arr[x, y])

    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other):
        if not isinstance(other, FiniteMagma):
            return NotImplemented
        return self is other or np.array_equal(self.arr, other.arr)

    def __hash__(self):
        return hash((self.arr.shape, self.arr.tobytes()))

    def __repr__(self):  # the full table is rarely useful in tracebacks
        return f"FiniteMagma(order={self.order})"


def magma_from_function(n: int, fn) -> FiniteMagma:
    return FiniteMagma(tuple(tuple(fn(x, y) for y in range(n)) for x in range(n)))


# ---------------------------------------------------------------------------
# text format: first non-comment line is the order, then n rows of n indices;
# lines starting with '#' are comments.  The writer output is bit-stable.

def parse_magma(text: str) -> FiniteMagma:
    """Canonical text, as format_magma writes it (the order n, then n rows
    of n ASCII-digit entries split by single spaces), is read in one numpy
    pass; any other text goes through the per-line reader, which takes
    every entry int() reads and names the first bad line."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty input")
    (lineno, head), *body = lines
    flat = "\n".join(line for _, line in body)
    if body and head == str(len(body)) and flat.isascii():
        n, b = len(body), np.frombuffer(flat.encode(), np.uint8)
        gaps = np.flatnonzero(b < 48)   # every byte below "0"; canonical: " " or "\n"
        # n*n - 1 single gaps, every n-th a row break, the rest spaces
        if ((b < 58).all() and len(gaps) == n * n - 1 and (np.diff(gaps) > 1).all()
                and (b[gaps[n - 1::n]] == 10).all() and np.count_nonzero(b == 32) == n * n - n):
            cells = np.fromstring(flat, dtype=np.intp, sep=" ")
            if cells.max() < n:     # a token past intp saturates and fails here
                return FiniteMagma(cells.reshape(n, n))
    try:
        n = int(head)
    except ValueError:
        raise ParseError(f"line {lineno}: order {head!r} is not an integer") from None
    if n < 1:
        raise ParseError(f"line {lineno}: order must be >= 1, got {n}")
    if len(body) != n:
        raise ParseError(f"expected {n} rows, found {len(body)}")
    table = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != n:
            raise ParseError(f"line {lineno}: expected {n} entries, found {len(parts)}")
        row = []
        for p in parts:
            try:
                v = int(p)
            except ValueError:
                raise ParseError(f"line {lineno}: entry {p!r} is not an integer") from None
            if not 0 <= v < n:
                raise ParseError(f"line {lineno}: entry {v} >= order {n}" if v >= 0
                                 else f"line {lineno}: entry {v} is negative")
            row.append(v)
        table.append(row)
    return FiniteMagma(table)


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped text) of each line not blank or a comment."""
    return [(lineno, s) for lineno, s in enumerate(map(str.strip, text.splitlines()), 1)
            if s and not s.startswith("#")]


def format_magma(m: FiniteMagma) -> str:
    names = np.array(list(map(str, range(m.order))), dtype=object)
    return "\n".join([str(m.order), *map(" ".join, names[m.arr].tolist())]) + "\n"


# ---------------------------------------------------------------------------
# axiom report

@dataclass(frozen=True)
class AxiomReport:
    commutative: bool
    commutative_counterexample: Optional[tuple[int, int]]
    cancellative: bool
    cancellative_counterexample: Optional[tuple[int, int, int]]
    medial: bool
    medial_counterexample: Optional[tuple[int, int, int, int]]
    associative: bool
    associative_counterexample: Optional[tuple[int, int, int]]
    idempotents: tuple[int, ...]

    @property
    def is_ccm(self) -> bool:
        return self.commutative and self.cancellative and self.medial

    def to_dict(self) -> dict:
        """The fields, tuples as lists, plus is_ccm."""
        return {**{k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()},
                "is_ccm": self.is_ccm}


def _first(mask: np.ndarray) -> Optional[tuple[int, ...]]:
    # argmax stops at the first True in C order, the lexicographic minimum,
    # without materialising the other hits
    i = int(mask.argmax(axis=None))
    if not mask.flat[i]:
        return None
    return tuple(int(v) for v in np.unravel_index(i, mask.shape))


def _column_inverse(t: np.ndarray, e: int) -> np.ndarray:
    """inv[a] = the smallest x with x op e = a, or -1 when there is none.

    Every division by column e (doubling, negation, the star
    star(x, y) = inv[x op y], group extraction) is a lookup in this array.
    """
    values, first = np.unique(t[:, e], return_index=True)
    inv = np.full(len(t), -1, dtype=np.intp)
    inv[values] = first
    return inv


def _first_sliced(count: int, slice_at) -> Optional[tuple[int, ...]]:
    """(i, *hit) for the first i in 0..count-1 whose mask slice_at(i) has a
    True, hit being that mask's smallest True; None when none has one.

    Every search that would build an n^3 or n^4 mask, or a matrix product,
    goes through here: memory stays at one slice, and the first hit ends it.
    """
    for i in range(count):
        hit = _first(slice_at(i))
        if hit is not None:
            return (i, *hit)
    return None


def _associativity_violation(t: np.ndarray) -> Optional[tuple[int, int, int]]:
    """Smallest (a, b, c) with (a op b) op c != a op (b op c), or None."""
    # slice a: [b, c] = (a op b) op c  vs  a op (b op c)
    return _first_sliced(len(t), lambda a: t[t[a]] != t[a][t])


def _generators(p: np.ndarray) -> list[int]:
    """A generating set of the magma with table p, picked greedily in
    element order: each pick is the smallest element outside the submagma
    the earlier picks generate.  On a finite group that submagma is a
    subgroup and each pick at least doubles it, so at most log2(n) + 1
    elements are picked.
    """
    closed = np.zeros(len(p), dtype=bool)
    gens = []
    for x in range(len(p)):
        if not closed[x]:
            gens.append(x)
            _close(p, closed, np.array([x]))
    return gens


def _close(p: np.ndarray, closed: np.ndarray, frontier: np.ndarray) -> None:
    """Grow the mask closed, already closed under p apart from the new
    elements frontier, to the submagma it generates, in place."""
    closed[frontier] = True
    # every product with a newly reached element on either side, until
    # nothing new is reached; pairs of older elements are already closed
    while frontier.size:
        inside = np.flatnonzero(closed)
        reached = np.zeros(len(p), dtype=bool)
        reached[p[frontier[:, None], inside]] = True
        reached[p[inside[:, None], frontier]] = True
        frontier = np.flatnonzero(reached & ~closed)
        closed[frontier] = True


def _associative_on(p: np.ndarray, gens: list[int]) -> bool:
    """Light's test: with gens generating the magma p, p is associative iff
    (x p g) p y = x p (g p y) for every g in gens and all x, y.  The
    elements g passing that test form a submagma, so passing on generators
    is passing everywhere.  O(n^2) per generator.
    """
    return all(np.array_equal(p[p[:, g]], p[:, p[g]]) for g in gens)


def group_identity(star: FiniteMagma) -> Optional[int]:
    """The smallest e whose row is the identity map, or None."""
    hits = (star.arr == np.arange(star.order)).all(axis=1)
    return int(hits.argmax()) if hits.any() else None


def _toyoda_gens(t: np.ndarray, e: int, star: np.ndarray) -> Optional[list[int]]:
    """The generators on which t is proved in Toyoda form over star at e,
    or None.

    Checks that star is a commutative monoid with unit e and that
    R(x) = x op e is affine on each generator g other than e:
    R(x * g) * c = R(x) * R(g) with c = R(e).  Preconditions:
    star(x, y) op e = x op y, so x op y = R(x * y), and star Latin or e
    idempotent (c = e), so that c cancels; then the g passing form a
    submagma and generators suffice, O(n) each.  On a group star,
    x op y = alpha(x) * alpha(y) * c with the automorphism
    alpha(x) = R(x) * c^-1, which is medial (Toyoda 1941, Bruck 1944) and
    associative iff R(x) = x * c for all x.  At an idempotent e, R is an
    endomorphism of star: the monoid's compatibility law.
    """
    if not (np.array_equal(star[e], np.arange(len(star)))
            and np.array_equal(star, star.T)):
        return None
    gens = [g for g in _generators(star) if g != e]
    r, c = t[:, e], t[e, e]
    proved = _associative_on(star, gens) and all(
        np.array_equal(star[r[star[:, g]], c], star[r, r[g]]) for g in gens)
    return gens if proved else None


def _is_translate(m: FiniteMagma, e: int, star: np.ndarray) -> bool:
    """Whether m is certified and star(x, y) = star0(star0(x, y), -e) with
    -e star0 e = 0: on a certified table, the star at every e, a group."""
    s0 = m._star0
    return s0 is not None and np.array_equal(star, s0[s0, _column_inverse(s0, e)[0]])


def check_axioms(m: FiniteMagma) -> AxiomReport:
    """Evaluate M1, M2, M3 and associativity, all four always.

    The cached Toyoda-Bruck certificate m._star0, O(n^2 log n), proves M1,
    M2 and M3 on a commutative Latin square and says whether it is
    associative; else M1 is one comparison with the transpose, O(n^2), and
    M2 a permutation test of every row and column, O(n^2 log n).
    The sliced scans, O(n^2) memory each, run only to find the
    lexicographically smallest counterexample, or to decide M3 when M1 or
    M2 fails or the certificate does.
    """
    t = m.arr
    n = m.order
    idx = np.arange(n)

    star = m._star0
    comm_ce = None if star is not None else _first(t != t.T)

    # cancellation, both sides: every column and every row a permutation,
    # as on every certified table; for the counterexample, scanning right
    # violations (a+c = b+c, a != b) first keeps reports stable
    latin = star is not None or bool((np.sort(t, axis=0) == idx[:, None]).all()
                                     and (np.sort(t, axis=1) == idx).all())
    canc_ce = None
    if not latin:
        for side in (t, t.T):
            # slice a: [b, c] = side[a, c] == side[b, c] with b != a
            canc_ce = _first_sliced(
                n, lambda a: (side == side[a]) & (idx != a)[:, None])
            if canc_ce is not None:
                break

    if star is None:
        # slice (a, b): [c, d] = (a op b) op (c op d)  vs  (a op c) op (b op d)
        hit = _first_sliced(
            n * n, lambda i: t[t.flat[i]][t] != t[np.ix_(t[i // n], t[i % n])])
        medial_ce = None if hit is None else (*divmod(hit[0], n), *hit[1:])
        assoc_ce = _associativity_violation(t)
    else:
        medial_ce = None
        assoc_ce = (None if np.array_equal(t[:, 0], star[:, t[0, 0]])
                    else _associativity_violation(t))

    return AxiomReport(
        commutative=comm_ce is None,
        commutative_counterexample=comm_ce,
        cancellative=canc_ce is None,
        cancellative_counterexample=canc_ce,
        medial=medial_ce is None,
        medial_counterexample=medial_ce,
        associative=assoc_ce is None,
        associative_counterexample=assoc_ce,
        idempotents=idempotents(m),
    )


def idempotents(m: FiniteMagma) -> tuple[int, ...]:
    return tuple(np.flatnonzero(np.diagonal(m.arr) == np.arange(m.order)).tolist())


def idempotent_subalgebra(m: FiniteMagma) -> tuple[int, ...]:
    """Idempotent set, with its closure under the operation asserted.

    A closure failure is impossible for a valid table and signals broken
    input (non-commutative or non-medial).
    """
    idem = idempotents(m)
    sub = m.arr[np.ix_(idem, idem)]
    hit = _first(~np.isin(sub, idem)) if idem else None
    if hit is not None:
        raise ValueError(f"idempotents not closed: {idem[hit[0]]} op {idem[hit[1]]} "
                         f"= {sub[hit]} is not idempotent")
    return idem


def subalgebra_closure(m: FiniteMagma, seed: Iterable[int]) -> tuple[int, ...]:
    """Smallest subset containing seed and closed under the operation."""
    current = set(seed)
    for x in current:
        if not 0 <= x < m.order:
            raise ValueError(f"seed element {x} out of range")
    closed = np.zeros(m.order, dtype=bool)
    _close(m.arr, closed, np.array(sorted(current), dtype=np.intp))
    return tuple(np.flatnonzero(closed).tolist())


# ---------------------------------------------------------------------------
# homomorphisms

@dataclass(frozen=True)
class Homomorphism:
    source: FiniteMagma
    target: FiniteMagma
    map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(int(v) for v in self.map))
        if len(self.map) != self.source.order:
            raise ValueError("map length must equal source order")
        for v in self.map:
            if not 0 <= v < self.target.order:
                raise ValueError(f"map value {v} out of target range")

    def __call__(self, x: int) -> int:
        return self.map[x]

    def __repr__(self):
        return f"Homomorphism({self.source.order}->{self.target.order}, map={self.map})"


def identity_hom(m: FiniteMagma) -> Homomorphism:
    return Homomorphism(m, m, tuple(m.elements()))


def constant_hom(source: FiniteMagma, target: FiniteMagma, value: int) -> Homomorphism:
    if target.arr[value, value] != value:
        raise ValueError(f"constant maps are homomorphisms only at idempotents; "
                         f"{value} is not idempotent")
    return Homomorphism(source, target, (value,) * source.order)


def compose(outer: Homomorphism, inner: Homomorphism) -> Homomorphism:
    if inner.target is not outer.source and inner.target != outer.source:
        raise ValueError("composition endpoint mismatch")
    return Homomorphism(inner.source, outer.target,
                        tuple(outer.map[v] for v in inner.map))


def is_homomorphism(h: Homomorphism) -> tuple[bool, Optional[tuple[int, int]]]:
    """Exhaustive check of map(x op y) == map(x) op' map(y)."""
    mp = np.array(h.map, dtype=np.intp)
    lhs = mp[h.source.arr]
    rhs = h.target.arr[mp[:, None], mp[None, :]]
    ce = _first(lhs != rhs)
    return ce is None, ce


# ---------------------------------------------------------------------------
# products and table-building constructions

def pair_index(i: int, j: int, right_order: int) -> int:
    return i * right_order + j


def pair_split(k: int, right_order: int) -> tuple[int, int]:
    return divmod(k, right_order)


def product_magma(m: FiniteMagma, n: FiniteMagma) -> FiniteMagma:
    """Componentwise operation on pairs, encoded row-major (i*|N| + j)."""
    # [i1, j1, i2, j2] = pair_index(m(i1, i2), n(j1, j2))
    pairs = m.arr[:, None, :, None] * n.order + n.arr[None, :, None, :]
    return FiniteMagma(pairs.reshape(m.order * n.order, -1))


def pair_hom(f1: Homomorphism, f2: Homomorphism) -> Homomorphism:
    """The map (x, y) -> f1(x) op f2(y) out of the product of the sources.

    Mediality makes this a homomorphism whenever f1 and f2 are; the result
    is verified before being returned.
    """
    if f1.target != f2.target:
        raise ValueError("pair_hom requires a shared target")
    b = f1.target
    prod = product_magma(f1.source, f2.source)
    h = Homomorphism(prod, b, b.arr[np.ix_(f1.map, f2.map)].ravel())
    ok, ce = is_homomorphism(h)
    if not ok:
        raise ValueError(f"pair_hom produced a non-homomorphism at {ce}; "
                         "inputs were not homomorphisms")
    return h


def derived_magma(m: FiniteMagma, g: Homomorphism, a: int) -> FiniteMagma:
    """New table (x, y) -> g(x op y) op a for an injective endomorphism g."""
    if g.source != m or g.target != m:
        raise ValueError("g must be an endomorphism of m")
    if len(set(g.map)) != m.order:
        raise ValueError("g must be injective")
    ok, ce = is_homomorphism(g)
    if not ok:
        raise ValueError(f"g is not a homomorphism, counterexample {ce}")
    if not 0 <= a < m.order:
        raise ValueError("a out of range")
    return FiniteMagma(m.arr[np.array(g.map)[m.arr], a])


def weak_maltsev_p(m: FiniteMagma, x: int, y: int, z: int) -> int:
    """Ternary term (y op x) op (z op y); satisfies p(x,y,y) = p(y,y,x) and
    p(x,a,a) = p(y,a,a) implies x = y on valid tables."""
    t = m.arr
    return int(t[t[y, x], t[z, y]])
