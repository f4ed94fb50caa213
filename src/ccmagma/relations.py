"""Internal binary relations between finite tables: property predicates,
equalizer relations of homomorphism pairs, relations induced by a
subalgebra, and the pullback construction for split-epimorphism pairs.

Relations are dense flag grids; every predicate is exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .core import (FiniteMagma, Homomorphism, ParseError, compose,
                   identity_hom, is_homomorphism, subalgebra_closure,
                   _column_inverse, _content_lines, _first)


@dataclass(frozen=True)
class BinaryRelation:
    left: FiniteMagma
    right: FiniteMagma
    member: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(bool(v) for v in row) for row in self.member)
        object.__setattr__(self, "member", rows)
        if len(rows) != self.left.order:
            raise ValueError("member grid row count must equal left order")
        if any(len(row) != self.right.order for row in rows):
            raise ValueError("member grid column count must equal right order")

    def holds(self, a: int, b: int) -> bool:
        return self.member[a][b]

    def pairs(self) -> list[tuple[int, int]]:
        return [(a, b) for a in self.left.elements()
                for b in self.right.elements() if self.member[a][b]]

    @property
    def _mat(self) -> np.ndarray:
        return np.array(self.member, dtype=bool)

    def _require_square(self, what: str):
        if self.left != self.right:
            raise ValueError(f"{what} requires equal left and right carriers")

    def is_internal(self) -> tuple[bool, Optional[tuple]]:
        """Whether the member set is a subalgebra of the product; the witness
        is a pair of related pairs whose pointwise product is unrelated."""
        tl, tr = self.left.table, self.right.table
        ps = self.pairs()
        for a, b in ps:
            for a2, b2 in ps:
                if not self.member[tl[a][a2]][tr[b][b2]]:
                    return False, ((a, b), (a2, b2))
        return True, None

    def is_reflexive(self) -> tuple[bool, Optional[int]]:
        self._require_square("reflexivity")
        for a in self.left.elements():
            if not self.member[a][a]:
                return False, a
        return True, None

    def is_symmetric(self) -> tuple[bool, Optional[tuple[int, int]]]:
        self._require_square("symmetry")
        ce = _first(self._mat != self._mat.T)
        return ce is None, ce

    def is_transitive(self) -> tuple[bool, Optional[tuple[int, int, int]]]:
        self._require_square("transitivity")
        mat = self._mat
        bad = _first((mat @ mat) & ~mat)
        if bad is None:
            return True, None
        a, c = bad
        b = int(np.nonzero(mat[a] & mat[:, c])[0][0])
        return False, (a, b, c)

    def is_difunctional(self) -> tuple[bool, Optional[tuple[int, int, int, int]]]:
        """xRy, zRy, zRw
        => xRw; the witness is the smallest failing (x, w) completed with
        the smallest connecting (y, z)."""
        mat = self._mat
        bad = _first((mat @ mat.T @ mat) & ~mat)
        if bad is None:
            return True, None
        x, w = bad
        for y in self.right.elements():
            if not mat[x][y]:
                continue
            zs = np.nonzero(mat[:, y] & mat[:, w])[0]
            if zs.size:
                return False, (x, int(y), int(zs[0]), w)
        raise AssertionError("unreachable: matrix witness without elementwise witness")

    def is_congruence(self) -> tuple[bool, Optional[dict]]:
        self._require_square("congruence")
        for name, check in (("internal", self.is_internal),
                            ("reflexive", self.is_reflexive),
                            ("symmetric", self.is_symmetric),
                            ("transitive", self.is_transitive)):
            ok, witness = check()
            if not ok:
                return False, {"property": name, "witness": witness}
        return True, None

    def classes(self) -> list[tuple[int, ...]]:
        """Equivalence classes; only meaningful once is_congruence holds."""
        seen = []
        out = []
        for a in self.left.elements():
            row = tuple(b for b in self.right.elements() if self.member[a][b])
            if row not in seen:
                seen.append(row)
                out.append(row)
        return out


def relation_from_pairs(left: FiniteMagma, right: FiniteMagma,
                        pairs: Iterable[tuple[int, int]]) -> BinaryRelation:
    grid = [[False] * right.order for _ in left.elements()]
    for a, b in pairs:
        grid[a][b] = True
    return BinaryRelation(left, right, tuple(tuple(r) for r in grid))


def identity_relation(m: FiniteMagma) -> BinaryRelation:
    return relation_from_pairs(m, m, ((a, a) for a in m.elements()))


def full_relation(left: FiniteMagma, right: FiniteMagma) -> BinaryRelation:
    return BinaryRelation(left, right, np.ones((left.order, right.order), dtype=bool))


def format_relation(r: BinaryRelation) -> str:
    out = [f"{r.left.order} {r.right.order}"]
    out.extend(" ".join("1" if v else "0" for v in row) for row in r.member)
    return "\n".join(out) + "\n"


def parse_relation_grid(text: str) -> tuple[int, int, tuple[tuple[bool, ...], ...]]:
    """Inverse of format_relation; malformed text raises ParseError naming
    the first bad line, as parse_magma does."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty input")
    lineno, head = lines[0]
    try:
        rows, cols = (int(p) for p in head.split())
    except ValueError:
        raise ParseError(f"line {lineno}: sizes {head!r} are not two integers") from None
    if len(lines) - 1 != rows:
        raise ParseError(f"expected {rows} rows, found {len(lines) - 1}")
    grid = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != cols:
            raise ParseError(f"line {lineno}: expected {cols} entries, found {len(parts)}")
        bad = next((p for p in parts if p not in ("0", "1")), None)
        if bad is not None:
            raise ParseError(f"line {lineno}: entry {bad!r} is not 0 or 1")
        grid.append(tuple(p == "1" for p in parts))
    return rows, cols, tuple(grid)


# ---------------------------------------------------------------------------

def equalizer_relation(x: FiniteMagma, y: FiniteMagma,
                       f: Homomorphism, g: Homomorphism) -> BinaryRelation:
    """aRb iff f(a,b) = g(a,b) for f, g out of the product of x and y.

    Always difunctional; a congruence whenever x = y and f, g agree on the
    diagonal.
    """
    if f.target != g.target:
        raise ValueError("f and g must share a target")
    if f.source != g.source:
        raise ValueError("f and g must share the product source")
    if f.source.order != x.order * y.order:
        raise ValueError("source order does not match the factors")
    # pair (a, b) has index a * |y| + b
    member = np.equal(f.map, g.map).reshape(x.order, y.order)
    return BinaryRelation(x, y, member)


def _check_subalgebra_inputs(m: FiniteMagma, xs: Iterable[int], e: int) -> tuple[int, ...]:
    xset = tuple(sorted(set(xs)))
    closed = subalgebra_closure(m, xset)
    if closed != xset:
        raise ValueError(f"{list(xset)} is not closed; its closure is {list(closed)}")
    if e not in xset:
        raise ValueError(f"unit {e} is not in the subalgebra")
    if m.arr[e, e] != e:
        raise ValueError(f"unit {e} is not idempotent")
    return xset


def _witness_grid(m: FiniteMagma, xs: Iterable[int], e: int) -> np.ndarray:
    """[a, b] = the smallest x in the subalgebra with a op e = x op b, or -1."""
    t, grid = m.arr, np.full((m.order, m.order), -1, dtype=np.intp)
    for x in reversed(_check_subalgebra_inputs(m, xs, e)):
        grid[t[:, e, None] == t[x]] = x
    return grid


def subalgebra_relation(m: FiniteMagma, xs: Iterable[int], e: int) -> BinaryRelation:
    """aRb iff a op e = x op b for some x in the subalgebra."""
    return BinaryRelation(m, m, _witness_grid(m, xs, e) >= 0)


def subalgebra_witnesses(m: FiniteMagma, xs: Iterable[int],
                         e: int) -> tuple[tuple[Optional[int], ...], ...]:
    """First witness x (in increasing order) per related pair, None elsewhere."""
    return tuple(tuple(None if x < 0 else x for x in row)
                 for row in _witness_grid(m, xs, e).tolist())


def transitivity_criterion(m: FiniteMagma, xs: Iterable[int], e: int) -> bool:
    """Exact criterion: for all x, y in the subalgebra and c in the carrier,
    solvability of a op e = x op b and b op e = y op c forces some z in the
    subalgebra with z op e = x op y.

    Cross-checked against direct transitivity of the induced relation.
    """
    xset = _check_subalgebra_inputs(m, xs, e)
    xa, t = np.array(xset), m.arr
    # d[i, c] = the b with b op e = xset[i] op c, or -1
    d = _column_inverse(t, e)[t[xa]]
    reach = np.zeros(d.shape, dtype=bool)
    reach[np.nonzero(d >= 0)[0], d[d >= 0]] = True
    # [x, y]: some b solves b op e = y op c (some c) with x op b solvable
    chained = (d >= 0).astype(np.intp) @ reach.T.astype(np.intp) > 0
    holds = not (chained & ~np.isin(d[:, xa], xa)).any()
    direct, _ = subalgebra_relation(m, xset, e).is_transitive()
    if holds != direct:
        raise AssertionError(
            f"criterion ({holds}) disagrees with direct transitivity ({direct})")
    return holds


# ---------------------------------------------------------------------------
# pullbacks of split epimorphism pairs

@dataclass(frozen=True)
class KiteInput:
    """Split epis f: A->B (section r) and g: C->B (section s), plus
    u: A->D, v: B->D, w: C->D with u r = v = w s."""
    f: Homomorphism
    r: Homomorphism
    g: Homomorphism
    s: Homomorphism
    u: Homomorphism
    v: Homomorphism
    w: Homomorphism

    def __post_init__(self):
        a, b, c, d = self.A, self.B, self.C, self.D
        expected = {"f": (a, b), "r": (b, a), "g": (c, b), "s": (b, c),
                    "u": (a, d), "v": (b, d), "w": (c, d)}
        for name, (src, dst) in expected.items():
            h = getattr(self, name)
            if h.source != src or h.target != dst:
                raise ValueError(f"{name} has mismatched endpoints")
            ok, ce = is_homomorphism(h)
            if not ok:
                raise ValueError(f"{name} is not a homomorphism, counterexample {ce}")
        ident = identity_hom(b).map
        if compose(self.f, self.r).map != ident:
            raise ValueError("f compose r is not the identity on B")
        if compose(self.g, self.s).map != ident:
            raise ValueError("g compose s is not the identity on B")
        if compose(self.u, self.r).map != self.v.map:
            raise ValueError("u compose r differs from v")
        if compose(self.w, self.s).map != self.v.map:
            raise ValueError("w compose s differs from v")

    @property
    def A(self) -> FiniteMagma:
        return self.f.source

    @property
    def B(self) -> FiniteMagma:
        return self.f.target

    @property
    def C(self) -> FiniteMagma:
        return self.g.source

    @property
    def D(self) -> FiniteMagma:
        return self.u.target


@dataclass(frozen=True)
class PullbackSpan:
    carrier: tuple[tuple[int, int], ...]
    magma: FiniteMagma
    pi1: Homomorphism
    pi2: Homomorphism
    e1: Homomorphism
    e2: Homomorphism


def pullback_pairs(f: Homomorphism, g: Homomorphism) -> tuple[tuple[int, int], ...]:
    """Carrier of the pullback of f along g: pairs (a, c) with f(a) = g(c),
    in row-major order.  Needs no sections."""
    if f.target != g.target:
        raise ValueError("pullback requires a shared target")
    return tuple((a, c) for a in f.source.elements() for c in g.source.elements()
                 if f.map[a] == g.map[c])


def build_pullback(k: KiteInput) -> PullbackSpan:
    """Pullback carrier with componentwise operation, projections, and the
    injections a -> (a, s f a), c -> (r g c, c)."""
    carrier = pullback_pairs(k.f, k.g)
    left, right = np.array(carrier, dtype=np.intp).reshape(-1, 2).T
    index = np.full((k.A.order, k.C.order), -1, dtype=np.intp)
    index[left, right] = np.arange(len(carrier))
    table = index[k.A.arr[np.ix_(left, left)], k.C.arr[np.ix_(right, right)]]
    if (table < 0).any():
        raise ValueError("pullback carrier is not closed; inputs are not "
                         "homomorphisms")
    magma = FiniteMagma(table)
    pi1 = Homomorphism(magma, k.A, left)
    pi2 = Homomorphism(magma, k.C, right)
    e1 = Homomorphism(k.A, magma,
                      tuple(index[(a, k.s.map[k.f.map[a]])] for a in k.A.elements()))
    e2 = Homomorphism(k.C, magma,
                      tuple(index[(k.r.map[k.g.map[c]], c)] for c in k.C.elements()))
    if compose(pi1, e1).map != identity_hom(k.A).map:
        raise ValueError("pi1 compose e1 is not the identity")
    if compose(pi2, e2).map != identity_hom(k.C).map:
        raise ValueError("pi2 compose e2 is not the identity")
    return PullbackSpan(carrier, magma, pi1, pi2, e1, e2)


def kite_theta(k: KiteInput) -> Optional[Homomorphism]:
    """The unique map theta on the pullback with theta e1 = u and
    theta e2 = w, determined pointwise by theta(a,c) op v(b) = u(a) op w(c).

    Cancellation gives at most one solution per pair (asserted, not
    searched); returns None when some pair has no solution.
    """
    span = build_pullback(k)
    td = k.D.arr
    f, u, v, w = (np.array(h.map, dtype=np.intp) for h in (k.f, k.u, k.v, k.w))
    a, c = np.array(span.carrier, dtype=np.intp).reshape(-1, 2).T
    vb, rhs = v[f[a]], td[u[a], w[c]]
    # the smallest and the largest x with x op v(b) = rhs, per pair
    first = np.array([_column_inverse(td, y) for y in k.D.elements()])[vb, rhs]
    last = np.array([_column_inverse(td[::-1], y) for y in k.D.elements()])[vb, rhs]
    hit = _first((first < 0) | (first != len(td) - 1 - last))
    if hit is not None:
        if first[hit] >= 0:
            raise ValueError("multiple solutions: D is not cancellative")
        return None
    h = Homomorphism(span.magma, k.D, first)
    ok, ce = is_homomorphism(h)
    if not ok:
        raise AssertionError(f"theta failed the homomorphism check at {ce}")
    if compose(h, span.e1).map != k.u.map:
        raise AssertionError("theta e1 differs from u")
    if compose(h, span.e2).map != k.w.map:
        raise AssertionError("theta e2 differs from w")
    return h
