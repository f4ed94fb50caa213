"""Doubling/negation maps, internal monoids and groups, and the six-way
classification by the (expansive, symmetric, monoid, group) flags.

For a fixed idempotent e, the star operation is pinned down by
star(x, y) op e = x op y; cancellation makes it unique, so construction is
column e inverted and applied to the table, and everything else is
verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (FiniteMagma, Homomorphism, _associativity_violation,
                   _column_inverse, _first, _first_sliced, _is_translate,
                   _toyoda_gens, idempotents)


class NotIdempotentError(ValueError):
    """Raised when a unit candidate e does not satisfy e op e = e."""


def double_table(m: FiniteMagma, e: int) -> tuple[Optional[int], ...]:
    """double(m, e, a) for every a, as one lookup table."""
    return tuple(None if x < 0 else x for x in _column_inverse(m.arr, e).tolist())


def double(m: FiniteMagma, e: int, a: int) -> Optional[int]:
    """The unique x with x op e = a, or None when the equation is unsolvable."""
    return double_table(m, e)[a]


def negate(m: FiniteMagma, e: int, a: int) -> Optional[int]:
    """The unique x with x op a = e, or None."""
    return double_table(m, a)[e]


def is_expansive(m: FiniteMagma, e: int) -> bool:
    """Whether doubling at e is total, i.e. column e is surjective."""
    return None not in double_table(m, e)


def is_symmetric(m: FiniteMagma, e: int) -> bool:
    """Whether negation at e is total: every column contains e."""
    return bool((m.arr == e).any(axis=0).all())


def is_homogeneous(m: FiniteMagma) -> bool:
    """Expansive at every element.  True for every valid finite table; kept
    as a sanity oracle and for API symmetry with the parametric catalog."""
    return all(is_expansive(m, e) for e in m.elements())


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonoidStructure:
    base: FiniteMagma
    unit: int
    magma: FiniteMagma  # the star operation

    @property
    def star(self) -> tuple[tuple[int, ...], ...]:
        return self.magma.table

    def as_magma(self) -> FiniteMagma:
        return self.magma

    def __repr__(self):
        return f"MonoidStructure(order={self.base.order}, unit={self.unit})"


@dataclass(frozen=True)
class GroupStructure:
    monoid: MonoidStructure
    inverse: tuple[int, ...]

    def __repr__(self):
        return f"GroupStructure(order={self.monoid.base.order}, unit={self.monoid.unit})"


def internal_monoid(m: FiniteMagma, e: int) -> Optional[MonoidStructure]:
    """Monoid with unit e whose star solves star(x,y) op e = x op y.

    Returns None when some pair has no solution; raises NotIdempotentError
    when e is not idempotent (a distinct outcome, not absence).  On a table
    certified over star0, x op y = alpha(x) + alpha(y) + c and the star is
    star0's translate, compatible iff c = e - 2 alpha(e), iff e op e = e.
    """
    if m.arr[e, e] != e:
        raise NotIdempotentError(f"element {e} is not idempotent")
    star = _column_inverse(m.arr, e)[m.arr]
    if (star < 0).any():
        return None
    if not _is_translate(m, e, star) and _toyoda_gens(m.arr, e, star) is None:
        raise ValueError("constructed star table violates monoid invariants; "
                         "the base table is not a valid ccm-magma")
    return MonoidStructure(base=m, unit=e, magma=FiniteMagma(star))


def internal_group(m: FiniteMagma, e: int) -> Optional[GroupStructure]:
    """Group over e: present iff the monoid exists and negation at e is total."""
    mon = internal_monoid(m, e)
    return None if mon is None else _group_over(mon)


def _group_over(mon: MonoidStructure) -> Optional[GroupStructure]:
    """The inverse step of internal_group, on an already built monoid."""
    m, e = mon.base, mon.unit
    hits = m.arr == e
    if not hits.any(axis=0).all():
        return None
    # negate(m, e, a) for every a: the smallest x with x op a = e, a
    # star-inverse, as star(x, a) = inv_e[e] = e
    inverse = np.argmax(hits, axis=0)
    return GroupStructure(monoid=mon, inverse=tuple(inverse.tolist()))


def monoid_isomorphism(m: FiniteMagma, u: int, v: int) -> Homomorphism:
    """Isomorphism a -> double(u, a op v) between the monoids over u and v.

    Verifies unit preservation, the homomorphism law, that
    a -> double(v, a op u) is a two-sided inverse, and the interchange
    identity star_u(a,b) = star_u(star_v(a,b), v) for all pairs.
    """
    t = m.arr
    for w in (u, v):
        if t[w, w] != w:
            raise NotIdempotentError(f"element {w} is not idempotent")
    mon_u = internal_monoid(m, u)
    mon_v = internal_monoid(m, v)
    if mon_u is None or mon_v is None:
        raise ValueError("monoid structure missing; table is not homogeneous")
    # both monoids exist, so columns u and v reach every value of t
    f = _column_inverse(t, u)[t[:, v]]
    g = _column_inverse(t, v)[t[:, u]]
    if f[u] != v:
        raise ValueError("isomorphism does not send u to v")
    su, sv, idx = mon_u.magma.arr, mon_v.magma.arr, np.arange(m.order)
    # row a: [inverse check, then per b the homomorphism law and the
    # interchange identity], so the first hit is the first failure in order
    laws = np.stack((f[su] != sv[np.ix_(f, f)], su != su[sv, v]), axis=2)
    hit = _first(np.column_stack(((g[f] != idx) | (f[g] != idx), laws.reshape(len(idx), -1))))
    if hit is not None:
        a, j = hit
        if j == 0:
            raise ValueError("doubling maps are not mutually inverse")
        b, law = divmod(j - 1, 2)
        raise ValueError(f"{('homomorphism law', 'interchange identity')[law]} "
                         f"fails at ({a}, {b})")
    return Homomorphism(mon_u.as_magma(), mon_v.as_magma(), f)


def doubling_additivity_check(m: FiniteMagma, u: int, v: int) -> bool:
    """Whether double(u,a) op double(v,b) = double(u op v, a op b) for all a, b."""
    t = m.arr
    du, dv, duv = (_column_inverse(t, w) for w in (u, v, t[u, v]))
    rhs = duv[t]
    if (du < 0).any() or (dv < 0).any() or (rhs < 0).any():
        return False
    return np.array_equal(t[du[:, None], dv[None, :]], rhs)


@dataclass(frozen=True)
class AssociativityReport:
    """Four equivalent views of associativity at an idempotent e."""
    associative: bool
    unit_for_op: bool
    doubling_is_identity: bool
    op_is_monoid: bool

    def all_flags(self) -> tuple[bool, bool, bool, bool]:
        return (self.associative, self.unit_for_op,
                self.doubling_is_identity, self.op_is_monoid)


def associativity_equivalences(m: FiniteMagma, e: int) -> AssociativityReport:
    """Evaluate independently: op associative; e a unit for op; doubling at e
    the identity; (m, op, e) satisfying the monoid invariants.  The four are
    equal on valid tables and that equality is asserted."""
    t = m.arr
    if t[e, e] != e:
        raise NotIdempotentError(f"element {e} is not idempotent")
    assoc = _associativity_violation(t) is None
    unit = np.array_equal(t[e], np.arange(m.order))
    dbl = double_table(m, e) == tuple(m.elements())
    monoid_direct = _toyoda_gens(t, e, t) is not None
    rep = AssociativityReport(assoc, unit, dbl, monoid_direct)
    if len(set(rep.all_flags())) != 1:
        raise ValueError(f"equivalence broken: {rep}; table is not a valid ccm-magma")
    return rep


def midpoint_distributivity_check(m: FiniteMagma,
                                  s: MonoidStructure) -> tuple[bool, bool]:
    """(every element idempotent, star distributes over op).

    The two flags agree on valid tables; disagreement raises.
    """
    if s.base != m:
        raise ValueError("monoid structure was built over a different table")
    all_idem = len(idempotents(m)) == m.order
    star, t = s.magma.arr, m.arr
    # slice x: [y, z] = star(x, y op z)  vs  star(x, y) op star(x, z)
    distributive = _first_sliced(
        m.order, lambda x: star[x][t] != t[np.ix_(star[x], star[x])]) is None
    if all_idem != distributive:
        raise ValueError("distributivity and idempotency flags disagree; "
                         "table is not a valid ccm-magma")
    return all_idem, distributive


# ---------------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class ClassificationLabel:
    label: str
    expansive: bool
    symmetric: bool
    monoid: bool
    group: bool

    def flags(self) -> tuple[bool, bool, bool, bool]:
        return (self.expansive, self.symmetric, self.monoid, self.group)


# the only six flag combinations that can occur
_LABELS = {
    (True, True, True, True): "I",
    (True, False, True, False): "II",
    (False, True, False, False): "III",
    (False, False, False, False): "IV",
    (False, False, True, False): "V",
    (False, True, True, True): "VI",
}


def classify(expansive: bool, symmetric: bool, monoid: bool,
             group: bool) -> ClassificationLabel:
    """Map a flag quadruple to its label I..VI; any other combination is an
    upstream bug and raises."""
    key = (bool(expansive), bool(symmetric), bool(monoid), bool(group))
    if key not in _LABELS:
        raise ValueError(f"flag combination {key} is not among the six possible ones")
    return ClassificationLabel(_LABELS[key], *key)


def classify_finite(m: FiniteMagma, e: int) -> ClassificationLabel:
    """Classification of a finite table at idempotent e, computed from
    scratch (always I on valid input, but never hard-coded)."""
    if m.arr[e, e] != e:
        raise NotIdempotentError(f"element {e} is not idempotent")
    exp = is_expansive(m, e)
    sym = is_symmetric(m, e)
    mon = internal_monoid(m, e)
    grp = mon is not None and _group_over(mon) is not None
    return classify(exp, sym, mon is not None, grp)
