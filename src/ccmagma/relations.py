"""Internal binary relations between finite tables: property predicates,
equalizer relations of homomorphism pairs, relations induced by a
subalgebra, and the pullback construction for split-epimorphism pairs.

Relations are read-only bool arrays.  is_transitive and is_difunctional
scan row by row, is_internal by related pair when its certificate fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (FiniteMagma, Homomorphism, ParseError, compose,
                   identity_hom, is_homomorphism, subalgebra_closure,
                   _column_inverse, _content_lines, _first, _first_sliced)


@dataclass(frozen=True, eq=False)
class BinaryRelation:
    """mat, the canonical form, is a private read-only bool copy of the grid
    given; member, the same grid as a tuple of tuples, is derived from it."""

    left: FiniteMagma
    right: FiniteMagma
    mat: np.ndarray

    def __post_init__(self):
        try:
            mat = np.array(self.mat, dtype=bool)
        except ValueError:   # ragged rows fail the column count
            mat = np.empty((len(self.mat), 0), dtype=bool)
        if len(mat) != self.left.order:
            raise ValueError("member grid row count must equal left order")
        if mat.shape != (self.left.order, self.right.order):
            raise ValueError("member grid column count must equal right order")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @cached_property
    def member(self) -> tuple[tuple[bool, ...], ...]:
        return tuple(map(tuple, self.mat.tolist()))

    def __eq__(self, other):
        return (isinstance(other, BinaryRelation) and self.left == other.left
                and self.right == other.right and np.array_equal(self.mat, other.mat))

    def __hash__(self):
        return hash((self.left, self.right, self.mat.tobytes()))

    def holds(self, a: int, b: int) -> bool:
        return bool(self.mat[a, b])

    def pairs(self) -> list[tuple[int, int]]:
        return list(map(tuple, np.argwhere(self.mat).tolist()))

    def _require_square(self, what: str):
        if self.left != self.right:
            raise ValueError(f"{what} requires equal left and right carriers")

    def is_internal(self) -> tuple[bool, Optional[tuple]]:
        """Whether the member set is a subalgebra of the product; the witness
        is a pair of related pairs whose pointwise product is unrelated.
        Closure _coset_certificate proves needs no scan; a scan finds the smallest witness."""
        if _coset_certificate(self):
            return True, None
        a, b = np.nonzero(self.mat)
        tl, tr = self.left.arr, self.right.arr
        # slice k: [k2] = pair k times pair k2 is unrelated
        hit = _first_sliced(len(a), lambda k: ~self.mat[tl[a[k], a], tr[b[k], b]])
        return hit is None, None if hit is None else tuple((int(a[k]), int(b[k])) for k in hit)

    def is_reflexive(self) -> tuple[bool, Optional[int]]:
        self._require_square("reflexivity")
        ce = _first(~self.mat.diagonal())
        return ce is None, None if ce is None else ce[0]

    def is_symmetric(self) -> tuple[bool, Optional[tuple[int, int]]]:
        self._require_square("symmetry")
        ce = _first(self.mat != self.mat.T)
        return ce is None, ce

    def is_transitive(self) -> tuple[bool, Optional[tuple[int, int, int]]]:
        self._require_square("transitivity")
        mat = self.mat
        # slice a: [c] = aRb and bRc for some b, and not aRc
        bad = _first_sliced(len(mat), lambda a: mat[mat[a]].any(axis=0) & ~mat[a])
        if bad is None:
            return True, None
        a, c = bad
        return False, (a, int(np.flatnonzero(mat[a] & mat[:, c])[0]), c)

    def is_difunctional(self) -> tuple[bool, Optional[tuple[int, int, int, int]]]:
        """xRy, zRy, zRw => xRw; the witness is the smallest failing (x, w)
        completed with the smallest connecting (y, z)."""
        mat, packed = self.mat, np.packbits(self.mat, axis=1)
        # slice x: [w] = zRw for some z whose row meets row x, and not xRw
        bad = _first_sliced(len(mat), lambda x: mat[(packed & packed[x]).any(axis=1)]
                            .any(axis=0) & ~mat[x])
        if bad is None:
            return True, None
        x, w = bad
        return False, (x, *_first(mat[x][:, None] & mat.T & mat[:, w]), w)

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
        packed = np.packbits(self.mat, axis=1)   # each row one void scalar
        _, first = np.unique(packed.view(f"V{packed.shape[1]}")[:, 0], return_index=True)
        return [tuple(np.flatnonzero(self.mat[a]).tolist()) for a in np.sort(first)]


def _coset_certificate(r: BinaryRelation) -> bool:
    """Whether r, nonempty over two certified tables, is proved closed.

    There x o y = alpha(x) + alpha(y) + c over + = star0, with alpha(x) =
    (x o 0) - (0 o 0) (Toyoda, Bruck), so R is closed iff, r0 its first
    related pair, K = R - r0 is a subgroup, alpha(K) lies in K and r0 o r0
    is in R.  S grows from (0, 0) by greedy picks p from K - S, each folded
    in by doubling (S += S + p, p += p) while S stays inside K."""
    sl, sr, r0 = r.left._star0, r.right._star0, _first(r.mat)
    if sl is None or sr is None or r0 is None:
        return False
    (tl, tr), (a0, b0) = (r.left.arr, r.right.arr), r0
    k = r.mat[np.ix_(sl[:, a0], sr[:, b0])]   # [x, y]: (x + a0, y + b0) in R
    alpha = [_column_inverse(s, t[0, 0])[t[:, 0]] for s, t in ((sl, tl), (sr, tr))]
    if not (r.mat[tl[a0, a0], tr[b0, b0]] and k[np.ix_(*alpha)][k].all()):
        return False
    grown = np.arange(k.size).reshape(k.shape) == 0   # S = {(0, 0)}
    for x, y in iter(lambda: _first(k & ~grown), None):
        while not grown[x, y]:
            gx, gy = np.nonzero(grown)
            gx, gy = sl[gx, x], sr[gy, y]
            if not k[gx, gy].all():
                return False
            grown[gx, gy] = True
            x, y = sl[x, x], sr[y, y]
    return True


def relation_from_pairs(left: FiniteMagma, right: FiniteMagma,
                        pairs: Iterable[tuple[int, int]]) -> BinaryRelation:
    ps = np.array([(a, b) for a, b in pairs], dtype=np.intp).reshape(-1, 2)
    outside = ((ps < 0) | (ps >= (left.order, right.order))).any(axis=1)
    if outside.any():
        raise ValueError(f"pair {tuple(ps[outside.argmax()].tolist())} out of range")
    mat = np.zeros((left.order, right.order), dtype=bool)
    mat[ps[:, 0], ps[:, 1]] = True
    return BinaryRelation(left, right, mat)


def identity_relation(m: FiniteMagma) -> BinaryRelation:
    return BinaryRelation(m, m, np.eye(m.order, dtype=bool))


def full_relation(left: FiniteMagma, right: FiniteMagma) -> BinaryRelation:
    return BinaryRelation(left, right, np.ones((left.order, right.order), dtype=bool))


def format_relation(r: BinaryRelation) -> str:
    rows = np.where(r.mat, "1", "0").tolist()
    return "\n".join([f"{r.left.order} {r.right.order}", *map(" ".join, rows)]) + "\n"


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
    if min(rows, cols) < 1:
        raise ParseError(f"line {lineno}: sizes must be >= 1, got {rows} {cols}")
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


class _NotClosed(ValueError):
    """A subalgebra seed that is not closed; carries its closure."""

    def __init__(self, xset: tuple[int, ...], closure: tuple[int, ...]):
        super().__init__(f"{list(xset)} is not closed; its closure is {list(closure)}")
        self.closure = closure


def _check_subalgebra_inputs(m: FiniteMagma, xs: Iterable[int], e: int) -> tuple[int, ...]:
    xset = tuple(sorted(set(xs)))
    closed = subalgebra_closure(m, xset)
    if closed != xset:
        raise _NotClosed(xset, closed)
    if e not in xset:
        raise ValueError(f"unit {e} is not in the subalgebra")
    if m.arr[e, e] != e:
        raise ValueError(f"unit {e} is not idempotent")
    return xset


def _divisions(t: np.ndarray, xs: Sequence[int]) -> np.ndarray:
    """[v, b] = the first x in xs, in the order given, with x op b = v, or -1."""
    out, cols = np.full(t.shape, -1, dtype=np.intp), np.arange(len(t))
    for x in xs[::-1]:   # one row per write, n distinct cells: the first x wins
        out[t[x], cols] = x
    return out


def _induced(m: FiniteMagma, xset: tuple[int, ...], e: int) -> BinaryRelation:
    return BinaryRelation(m, m, _divisions(m.arr, xset)[m.arr[:, e]] >= 0)


def subalgebra_relation(m: FiniteMagma, xs: Iterable[int], e: int) -> BinaryRelation:
    """aRb iff a op e = x op b for some x in the subalgebra."""
    return _induced(m, _check_subalgebra_inputs(m, xs, e), e)


def subalgebra_witnesses(m: FiniteMagma, xs: Iterable[int],
                         e: int) -> tuple[tuple[Optional[int], ...], ...]:
    """[a][b] = the smallest x in the subalgebra with a op e = x op b, or None:
    row a op e of the one division table, _divisions."""
    grid = _divisions(m.arr, _check_subalgebra_inputs(m, xs, e))[m.arr[:, e]]
    return tuple(tuple(None if x < 0 else x for x in row) for row in grid.tolist())


def transitivity_criterion(m: FiniteMagma, xs: Iterable[int], e: int) -> bool:
    """Exact criterion: for all x, y in the subalgebra and c in the carrier,
    solvability of a op e = x op b and b op e = y op c forces some z in the
    subalgebra with z op e = x op y; cross-checked against direct transitivity."""
    xset = _check_subalgebra_inputs(m, xs, e)
    return _transitivity_criterion(m, xset, e, _induced(m, xset, e).is_transitive()[0])


def _chained(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The bool matrix product a b^T of two bool matrices, as a float64 BLAS
    product compared > 0: exact, as each entry counts at most a's width in
    ones, far below 2**53."""
    return a.astype(np.float64) @ b.T.astype(np.float64) > 0


def _transitivity_criterion(m: FiniteMagma, xset: tuple[int, ...], e: int,
                            direct: bool) -> bool:
    """The criterion on a checked xset, computed without the relation;
    direct, the relation's own transitivity verdict, is its cross-check."""
    xa, t = np.array(xset), m.arr
    # d[i, c] = the b with b op e = xset[i] op c, or -1
    d = _column_inverse(t, e)[t[xa]]
    reach = np.zeros(d.shape, dtype=bool)
    reach[np.nonzero(d >= 0)[0], d[d >= 0]] = True
    # [x, y]: some b solves b op e = y op c (some c) with x op b solvable
    chained = _chained(d >= 0, reach)
    holds = not (chained & ~np.isin(d[:, xa], xa)).any()
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
    return tuple(map(tuple, np.argwhere(np.equal.outer(f.map, g.map)).tolist()))


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
    f, r, g, s = (np.array(h.map, dtype=np.intp) for h in (k.f, k.r, k.g, k.s))
    e1 = Homomorphism(k.A, magma, index[np.arange(k.A.order), s[f]])
    e2 = Homomorphism(k.C, magma, index[r[g], np.arange(k.C.order)])
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
    first = _divisions(td, k.D.elements())[rhs, vb]
    last = _divisions(td, k.D.elements()[::-1])[rhs, vb]
    hit = _first((first < 0) | (first != last))
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
