"""Seeded random generation of finite commutative medial quasigroups in
affine form over a random abelian group, plus group extraction and
isomorphism certificates via invariant factors.

Everything is deterministic per (order, seed); the generating parameters
travel with the table so any artifact can be audited and rebuilt.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import (FiniteMagma, _column_inverse, _is_translate, group_identity,
                   idempotents)


@dataclass(frozen=True)
class AbelianGroupSpec:
    """Direct sum of cyclic groups, factors in invariant-factor form
    (each divides the next); elements are mixed-radix encoded."""

    factors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(int(f) for f in self.factors))
        for f in self.factors:
            if f < 2:
                raise ValueError("factors must be >= 2")
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a != 0:
                raise ValueError(f"{self.factors} is not in invariant-factor form")

    @property
    def size(self) -> int:
        return math.prod(self.factors)

    def decode(self, k: int) -> tuple[int, ...]:
        out = []
        for f in reversed(self.factors):
            k, r = divmod(k, f)
            out.append(r)
        return tuple(reversed(out))

    def encode(self, coords) -> int:
        k = 0
        for f, c in zip(self.factors, coords):
            k = k * f + (c % f)
        return k

    def add(self, i: int, j: int) -> int:
        return self.encode(a + b for a, b in zip(self.decode(i), self.decode(j)))

    def _coordinates(self):
        """(place value, factor, that coordinate of every element) per factor."""
        k, place = np.arange(self.size), self.size
        for f in self.factors:
            place //= f
            yield place, f, k // place % f

    def _sums(self, xs, ys) -> np.ndarray:
        """[i, j] = xs[i] + ys[j], built in place in one scratch array."""
        out = np.zeros((len(xs), len(ys)), dtype=np.intp)
        cell = np.empty_like(out)
        for place, f, c in self._coordinates():
            np.remainder(np.add.outer(c[xs], c[ys], out=cell), f, out=cell)
            out += np.multiply(cell, place, out=cell)
        return out

    @cached_property
    def addition_table(self) -> FiniteMagma:
        return FiniteMagma(self._sums(range(self.size), range(self.size)))


@dataclass(frozen=True)
class ToyodaParams:
    """Provenance of a generated quasigroup: x op y = phi(x + y) + c over
    the group, then a relabeling permutation; phi multiplies each cyclic
    coordinate by a unit (no cross-factor mixing is sampled)."""

    group: AbelianGroupSpec
    multipliers: tuple[int, ...]
    translation: int
    relabeling: tuple[int, ...]

    def __post_init__(self):
        if len(self.multipliers) != len(self.group.factors):
            raise ValueError("one multiplier per factor required")
        # a unit times each cyclic coordinate is an additive bijection of
        # that factor, so phi is an automorphism
        for m, f in zip(self.multipliers, self.group.factors):
            if math.gcd(m, f) != 1:
                raise ValueError(f"multiplier {m} is not a unit mod {f}")
        if sorted(self.relabeling) != list(range(self.group.size)):
            raise ValueError("relabeling is not a permutation")

    @cached_property
    def automorphism(self) -> tuple[int, ...]:
        """Action table of phi on group element indices."""
        return tuple(sum(
            (m % f * c % f * place
             for m, (place, f, c) in zip(self.multipliers, self.group._coordinates())),
            np.zeros(self.group.size, dtype=np.intp)).tolist())

    def to_json_dict(self) -> dict:
        return {
            "invariant_factors": list(self.group.factors),
            "multipliers": list(self.multipliers),
            "translation": self.translation,
            "relabeling": list(self.relabeling),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ToyodaParams":
        return cls(AbelianGroupSpec(tuple(d["invariant_factors"])),
                   tuple(d["multipliers"]), d["translation"],
                   tuple(d["relabeling"]))


def toyoda_table(params: ToyodaParams) -> FiniteMagma:
    """Rebuild the quasigroup table from its parameters."""
    group, sigma = params.group, np.array(params.relabeling, dtype=np.intp)
    inv = np.argsort(sigma)
    # x op y = sigma(phi(inv(x) + inv(y)) + c), one lookup per cell in place
    table = group._sums(inv, inv)
    phi = np.array(params.automorphism, dtype=np.intp)
    relabel = sigma[group._sums(phi, [params.translation % group.size])[:, 0]]
    return FiniteMagma(np.take(relabel, table, out=table, mode="clip"))


def _prime_factorization(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _random_partition(e: int, rng: random.Random) -> list[int]:
    parts = []
    while e:
        k = rng.randint(1, e)
        parts.append(k)
        e -= k
    return sorted(parts, reverse=True)


def _invariant_factors_from_primary(primary: dict[int, list[int]]) -> tuple[int, ...]:
    # primary: prime -> exponent partition sorted descending
    width = max((len(v) for v in primary.values()), default=0)
    ds = []
    for slot in range(width):
        d = 1
        for p, exps in primary.items():
            if slot < len(exps):
                d *= p ** exps[slot]
        ds.append(d)
    return tuple(reversed(ds))  # ascending, each divides the next


def random_group_spec(order: int, rng: random.Random) -> AbelianGroupSpec:
    """Random isomorphism type: per prime, a random partition of the
    exponent chooses the prime-power cyclic factors."""
    if order == 1:
        return AbelianGroupSpec(())
    primary = {p: _random_partition(e, rng)
               for p, e in sorted(_prime_factorization(order).items())}
    return AbelianGroupSpec(_invariant_factors_from_primary(primary))


def generate_quasigroup(order: int, seed: int) -> tuple[FiniteMagma, ToyodaParams]:
    """Deterministic random commutative medial quasigroup of the given order.

    Samples group type, per-factor unit multipliers, a translation and a
    relabeling from one seeded generator, so (order, seed) pins the output.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    rng = random.Random(order * 0x1FFFFFFFFFFFFF + seed)
    spec = random_group_spec(order, rng)
    multipliers = []
    for f in spec.factors:
        while True:
            m = rng.randrange(1, f)
            if math.gcd(m, f) == 1:
                multipliers.append(m)
                break
    translation = rng.randrange(order) if order > 1 else 0
    relabeling = list(range(order))
    rng.shuffle(relabeling)
    params = ToyodaParams(spec, tuple(multipliers), translation, tuple(relabeling))
    return toyoda_table(params), params


# ---------------------------------------------------------------------------
# group extraction and isomorphism type

def extract_group(m: FiniteMagma, e: int) -> Optional[FiniteMagma]:
    """Divide out the operation by column e: star(i, j) is the unique k with
    k op e = i op j.  On a valid table the result is an abelian group with
    identity e for any e; that is verified, not assumed, on a certified m
    by the translate of m._star0, which the result shares as its own.
    """
    inv = _column_inverse(m.arr, e)
    if (inv < 0).any():
        raise ValueError(f"column {e} is not injective: table is not cancellative")
    star = FiniteMagma(inv[m.arr])
    if _is_translate(m, e, star.arr):
        object.__setattr__(star, "_star0", m._star0)
    # a certified table with an identity row e has alpha = id: a group
    return star if star._star0 is not None and group_identity(star) == e else None


def element_orders(star: FiniteMagma) -> tuple[int, ...]:
    """Multiplicative order of each element, by power iteration."""
    e = None if star._star0 is None else group_identity(star)
    if e is None:
        raise ValueError("input is not an abelian group table")
    x = np.arange(star.order)
    acc, orders, k = x, np.zeros_like(x), 1
    while not orders.all():
        orders[(acc == e) & (orders == 0)] = k
        acc, k = star.arr[acc, x], k + 1
    return tuple(orders.tolist())


def invariant_factors(star: FiniteMagma) -> list[int]:
    """Invariant-factor decomposition from prime-power torsion counts.

    Per prime p, the count c_k = #{x : x^(p^k) = e}, with x -> x^(p^k)
    taken over the whole group by repeated squaring on the table (O(n log n)
    table reads in all), recovers the partition of the p-primary component;
    recombining per slot gives the d_1 | d_2 | ... list that determines the
    group up to isomorphism.
    """
    e = None if star._star0 is None else group_identity(star)
    if e is None:
        raise ValueError("input is not an abelian group table")
    primary: dict[int, list[int]] = {}
    for p in sorted(_prime_factorization(star.order)):
        exps_of_parts = []
        prev_s = 0
        acc = np.arange(star.order)
        while True:
            acc = _powers(star.arr, acc, p, e)     # acc[x] = x^(p^k)
            c = int(np.count_nonzero(acc == e))
            s = 0
            while c % p == 0:
                c //= p
                s += 1
            m_k = s - prev_s  # number of partition parts >= k
            if m_k == 0:
                break
            exps_of_parts.append(m_k)
            prev_s = s
        # p divides the order, so the p-primary component is nontrivial
        primary[p] = [sum(1 for m in exps_of_parts if m >= i)
                      for i in range(1, exps_of_parts[0] + 1)]
    return list(_invariant_factors_from_primary(primary))


def _powers(t: np.ndarray, xs: np.ndarray, k: int, e: int) -> np.ndarray:
    """x^k for each x in xs on the group table t with identity e: O(log k) gathers."""
    out = np.full_like(xs, e)
    while k:
        if k & 1:
            out = t[out, xs]
        xs, k = t[xs, xs], k >> 1
    return out


def groups_isomorphic(g1: FiniteMagma, g2: FiniteMagma) -> bool:
    return invariant_factors(g1) == invariant_factors(g2)


def idempotent_parity_audit(m: FiniteMagma) -> bool:
    """Idempotent count of a valid table is 0 or odd; even counts cannot
    occur because the idempotents form a subquasigroup, and commutative
    idempotent quasigroups have odd order."""
    count = len(idempotents(m))
    return count == 0 or count % 2 == 1
