"""Parametric families on rational (or float-sampled) carriers: exact
evaluators, closed-form left-division solvers, sampled axiom checks and
classification against the expected I..VI labels.

Each exact shape knows its Toyoda form, a monotone coordinate phi in which
the operation is affine or a product, so the expansive/symmetric/monoid
verdicts are exact interval images of phi(D), with witness sampling as
confirmation.  Float-mode shapes (roots, log-exp) get witness-based
verdicts at tolerance 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .structures import ClassificationLabel, classify

Number = Union[Fraction, float]

FLOAT_TOL = 1e-9


class DomainError(ValueError):
    """Input outside the family's carrier."""


class ClosureError(ArithmeticError):
    """Operation result escaped the carrier; never silently accepted."""


# ---------------------------------------------------------------------------
# intervals with open/closed endpoints and an optional integer lattice

@dataclass(frozen=True)
class Interval:
    lo: Optional[Fraction]          # None = unbounded below
    hi: Optional[Fraction]          # None = unbounded above
    lo_open: bool = False
    hi_open: bool = False
    integral: bool = False

    def __post_init__(self):
        lo = Fraction(self.lo) if self.lo is not None else None
        hi = Fraction(self.hi) if self.hi is not None else None
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        # the finite ends as integer (numerator, denominator) pairs
        object.__setattr__(self, "_ends", tuple(
            None if end is None else end.as_integer_ratio() for end in (lo, hi)))

    def contains(self, x: Number) -> bool:
        """Whether x, an int, Fraction or float, lies in the interval: exactly,
        by integer cross-multiplication with the ends; nan and infinities never."""
        if isinstance(x, float):
            if not math.isfinite(x):
                return False
            n, d = x.as_integer_ratio()
        else:
            n, d = x.numerator, x.denominator
        if self.integral and d != 1:
            return False
        lo, hi = self._ends
        if lo is not None:
            a, b = n * lo[1], d * lo[0]
            if a < b or (self.lo_open and a == b):
                return False
        if hi is not None:
            a, b = n * hi[1], d * hi[0]
            if a > b or (self.hi_open and a == b):
                return False
        return True

    def contains_each(self, v) -> np.ndarray:
        """contains of every entry of v, a _Rationals or a float64 array, as
        a bool array.  Rationals are cross-multiplied with the ends (den == 1
        on a lattice); floats are compared with float(end), and a tie
        v == float(end) is settled by the exact sign of float(end) - end."""
        rational = isinstance(v, _Rationals)
        if rational:
            ok = v.den == 1 if self.integral else np.ones(v.num.shape, dtype=bool)
        else:
            ok = np.isfinite(v)
            if self.integral:
                ok &= v == np.floor(v)
        for end, is_open, side in zip(self._ends, (self.lo_open, self.hi_open), (1, -1)):
            if end is None:
                continue
            n, d = end
            if rational:
                a, b, err = v.num * d, v.den * n, 0
            else:
                a, (b, err) = v, _nearest_float(n, d)
            strict = side * err < 0 or (err == 0 and is_open)
            above = np.greater if strict else np.greater_equal
            ok &= above(a, b) if side > 0 else above(b, a)
        return ok

    def __str__(self):
        left = "]" if self.lo_open else "["
        right = "[" if self.hi_open else "]"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        base = f"{left}{lo},{hi}{right}"
        return base + " over Z" if self.integral else base


def _nearest_float(n: int, d: int) -> tuple[float, int]:
    """float(n/d), correctly rounded, and the sign of float(n/d) - n/d, for
    d > 0; beyond the float range an infinity, which no finite float ties."""
    try:
        f = n / d
    except OverflowError:
        return (math.inf if n > 0 else -math.inf), 0
    p, q = f.as_integer_ratio()
    return f, (p * d > n * q) - (p * d < n * q)


REALS = Interval(None, None)
POS_REALS = Interval(0, None, lo_open=True)
NONNEG_REALS = Interval(0, None)
INTEGERS = Interval(None, None, integral=True)
NATURALS0 = Interval(0, None, integral=True)


# ---------------------------------------------------------------------------
# exact rationals, elementwise: the arrays an exact shape's evaluate_raw runs
# on when the sampled check evaluates many products at once

def _parts(x):
    """(numerator, denominator) of a rational array, a Fraction or an int."""
    if isinstance(x, _Rationals):
        return x.num, x.den
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"no exact rational: {x!r}")


def _quotient(num, den, strict: bool = True) -> _Rationals:
    if strict and not den.all():
        raise ZeroDivisionError("division by zero")
    neg = den < 0
    if neg.any():
        num, den = np.where(neg, -num, num), np.where(neg, -den, den)
    return _Rationals(num, den)


class _Rationals:
    """num / den elementwise, as numpy object arrays of Python ints with
    den > 0, so no fixed-width integer can overflow.  + - * / take another
    such array or a Fraction or int; results are reduced only by reduced()."""
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num, self.den = num, den

    def __add__(self, other):
        n, d = _parts(other)
        return _Rationals(self.num * d + n * self.den, self.den * d)

    __radd__ = __add__

    def __sub__(self, other):
        n, d = _parts(other)
        return _Rationals(self.num * d - n * self.den, self.den * d)

    def __rsub__(self, other):
        n, d = _parts(other)
        return _Rationals(n * self.den - self.num * d, self.den * d)

    def __mul__(self, other):
        n, d = _parts(other)
        return _Rationals(self.num * n, self.den * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        n, d = _parts(other)
        return _quotient(self.num * d, self.den * n)

    def __rtruediv__(self, other):
        n, d = _parts(other)
        return _quotient(n * self.den, d * self.num)

    def __len__(self):
        return len(self.num)

    def __getitem__(self, k) -> _Rationals:
        return _Rationals(self.num[k], self.den[k])

    def reduced(self) -> _Rationals:
        g = np.gcd(self.num, self.den)
        return _Rationals(self.num // g, self.den // g)

    def same(self, other: _Rationals) -> np.ndarray:
        """Elementwise equality of two reduced arrays."""
        return (self.num == other.num) & (self.den == other.den)

    def __iter__(self):
        return map(Fraction, self.num.tolist(), self.den.tolist())


def _ratio(num, den):
    """A solver's num / den: None where den == 0, and on rational arrays a
    zero denominator there, which _solve_each reads as no solution."""
    if isinstance(den, _Rationals):
        n, d = _parts(num)
        return _quotient(n * den.den, d * den.num, strict=False)
    return None if den == 0 else num / den


def _exact(xs) -> _Rationals:
    """The rational array of a sequence of ints and Fractions."""
    return _Rationals(np.array([x.numerator for x in xs], dtype=object),
                      np.array([x.denominator for x in xs], dtype=object))


# ---------------------------------------------------------------------------
# interval images under the maps of Toyoda coordinates

def _hull(iv: Interval) -> Interval:
    """iv, or for a lattice the closed interval between its extreme points."""
    if not iv.integral:
        return iv
    lo, hi = iv.lo, iv.hi
    if lo is not None:
        lo = math.floor(lo) + 1 if iv.lo_open else math.ceil(lo)
    if hi is not None:
        hi = math.ceil(hi) - 1 if iv.hi_open else math.floor(hi)
    return Interval(lo, hi, integral=True)


def _affine(iv: Interval, s, o) -> Interval:
    """{s v + o : v in iv} for s != 0, as ends; a lattice stays a lattice."""
    lo = None if iv.lo is None else s * iv.lo + o
    hi = None if iv.hi is None else s * iv.hi + o
    if s > 0:
        return Interval(lo, hi, iv.lo_open, iv.hi_open, iv.integral)
    return Interval(hi, lo, iv.hi_open, iv.lo_open, iv.integral)


def _reciprocal(iv: Interval) -> Interval:
    """{1/v : v in iv} for an interval of positive numbers."""
    return Interval(0 if iv.hi is None else 1 / iv.hi,
                    None if iv.lo == 0 else 1 / iv.lo,
                    iv.hi is None or iv.hi_open, iv.lo_open)


def _within(a: Interval, b: Interval) -> bool:
    """a is a subset of b, judged by their ends."""
    lo_ok = b.lo is None or (a.lo is not None and (
        a.lo > b.lo or (a.lo == b.lo and (a.lo_open or not b.lo_open))))
    hi_ok = b.hi is None or (a.hi is not None and (
        a.hi < b.hi or (a.hi == b.hi and (a.hi_open or not b.hi_open))))
    return lo_ok and hi_ok


# ---------------------------------------------------------------------------
# family shapes: formula + closed-form solver + Toyoda form (phi, phi(D),
# alpha, beta): phi(x op y) = alpha (phi x + phi y) + beta, or with
# alpha = beta = None, phi(x op y) = phi x * phi y on positive numbers

@dataclass(frozen=True)
class AffineFamily:
    """x op y = alpha (x + y) + beta, alpha != 0."""
    alpha: Fraction
    beta: Fraction
    domain: Interval
    mode = "exact"

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")

    def evaluate_raw(self, x, y):
        return self.alpha * (x + y) + self.beta

    def solve_raw(self, a, b):
        return (b - self.beta) / self.alpha - a

    def idempotent_elements(self):
        if self.alpha == Fraction(1, 2):
            return "all" if self.beta == 0 else ()
        x = self.beta / (1 - 2 * self.alpha)
        return (x,) if self.domain.contains(x) else ()

    def toyoda_form(self):
        return (lambda x: x), _hull(self.domain), self.alpha, self.beta


@dataclass(frozen=True)
class HarmonicFamily:
    """x op y = c x y / (x + y) on a positive carrier."""
    c: Fraction
    domain: Interval
    mode = "exact"

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        if not _within(self.domain, POS_REALS):
            raise ValueError("harmonic families need a strictly positive carrier")

    def evaluate_raw(self, x, y):
        return self.c * x * y / (x + y)

    def solve_raw(self, a, b):
        return _ratio(a * b, self.c * a - b)

    def idempotent_elements(self):
        return "all" if self.c == 2 else ()

    def toyoda_form(self):
        return (lambda x: 1 / x), _reciprocal(self.domain), 1 / self.c, Fraction(0)


@dataclass(frozen=True)
class ProbSumFamily:
    """x op y = x + y + gamma x y."""
    gamma: Fraction
    domain: Interval
    mode = "exact"

    def __post_init__(self):
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if self.gamma == 0:
            raise ValueError("gamma = 0 is the plain-sum affine shape")
        if not _within(_affine(_hull(self.domain), self.gamma, 1), POS_REALS):
            raise ValueError("prob-sum families need 1 + gamma x > 0 on the carrier")

    def evaluate_raw(self, x, y):
        return x + y + self.gamma * x * y

    def solve_raw(self, a, b):
        return _ratio(b - a, 1 + self.gamma * a)

    def idempotent_elements(self):
        out = [Fraction(0), Fraction(-1) / self.gamma]
        return tuple(x for x in dict.fromkeys(out) if self.domain.contains(x))

    def toyoda_form(self):
        image = _affine(self.domain, self.gamma, 1)
        return (lambda x: 1 + self.gamma * x), image, None, None


@dataclass(frozen=True)
class TanhSumFamily:
    """x op y = (x + y)/(1 + x y), the addition law of tanh."""
    domain: Interval
    mode = "exact"

    def __post_init__(self):
        if not _within(self.domain, Interval(-1, 1, True, True)):
            raise ValueError("tanh-sum families need a carrier inside ]-1, 1[")

    def evaluate_raw(self, x, y):
        return (x + y) / (1 + x * y)

    def solve_raw(self, a, b):
        return _ratio(b - a, 1 - a * b)

    def idempotent_elements(self):
        return (Fraction(0),) if self.domain.contains(Fraction(0)) else ()

    def toyoda_form(self):
        # (1 + x)/(1 - x) = 2/(1 - x) - 1
        image = _affine(_reciprocal(_affine(self.domain, -1, 1)), 2, -1)
        return (lambda x: (1 + x) / (1 - x)), image, None, None


def _cbrt(v: float) -> float:
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def _each(f, *vs):
    """f(*vs) for floats, or f of the entries of float64 arrays taken in step:
    the scalar libm call either way, as numpy's vector kernels may differ in
    the last bit, and an exception comes from the first entry raising it."""
    if isinstance(vs[0], np.ndarray):
        return np.fromiter(map(f, *(v.tolist() for v in vs)), dtype=float, count=vs[0].size)
    return f(*vs)


class _Lifted:
    """A float shape with x op y = join(lift(x), lift(y)).  lift is a scalar
    call, made once per value; join and solve_raw run on floats or on float64
    arrays, with the same bits either way, and solve_raw gives nan where no
    solution exists."""

    def evaluate_raw(self, x, y):
        return self.join(self.lift(x), self.lift(y))


@dataclass(frozen=True)
class CubeRootFamily(_Lifted):
    """x op y = scale * ((x^3 + y^3)/div)^(1/3), float mode."""
    scale: int
    div: int
    domain: Interval
    mode = "float"

    lift = staticmethod(lambda x: x ** 3)

    def join(self, a, b):
        return self.scale * _each(_cbrt, (a + b) / self.div)

    def solve_raw(self, a, b):
        return _each(lambda a, b: _cbrt((b / self.scale) ** 3 * self.div - a ** 3), a, b)

    def idempotent_elements(self):
        if self.scale ** 3 * 2 == self.div:
            return "all"
        return (0.0,) if self.domain.contains(0.0) else ()


@dataclass(frozen=True)
class GeometricFamily(_Lifted):
    """x op y = sqrt(x y), float mode."""
    domain: Interval
    mode = "float"

    lift = staticmethod(lambda x: x)

    def join(self, a, b):
        return _each(math.sqrt, a * b)

    def solve_raw(self, a, b):
        return _each(lambda a, b: b * b / a, a, b)

    def idempotent_elements(self):
        return "all"


@dataclass(frozen=True)
class LogSumExpFamily(_Lifted):
    """x op y = log(exp x + exp y), float mode."""
    domain: Interval
    mode = "float"

    lift = staticmethod(math.exp)

    def join(self, a, b):
        return _each(math.log, a + b)

    def solve_raw(self, a, b):
        return _each(lambda a, b: math.log(math.exp(b) - math.exp(a)) if b > a else math.nan,
                     a, b)

    def idempotent_elements(self):
        return ()


# ---------------------------------------------------------------------------
# catalog entries

Shape = Union[AffineFamily, HarmonicFamily, ProbSumFamily, TanhSumFamily,
              CubeRootFamily, GeometricFamily, LogSumExpFamily]


@dataclass(frozen=True)
class ParametricFamily:
    id: str
    shape: Shape
    formula: str
    unit: Optional[Fraction]
    expected_label: Optional[str]
    associative: Optional[bool]
    extra_samples: tuple = ()

    def __post_init__(self):
        if self.unit is not None:
            u = self._coerce(self.unit)
            object.__setattr__(self, "unit", u)
            if not self.domain.contains(u):
                raise ValueError(f"{self.id}: unit {u} outside domain")
            uu = self.shape.evaluate_raw(u, u)
            if self.mode == "exact":
                if uu != u:
                    raise ValueError(f"{self.id}: unit {u} is not idempotent")
            elif abs(uu - u) > FLOAT_TOL:
                raise ValueError(f"{self.id}: unit {u} is not idempotent")

    @property
    def domain(self) -> Interval:
        return self.shape.domain

    @property
    def mode(self) -> str:
        return self.shape.mode

    def _coerce(self, x: Number) -> Number:
        if self.mode == "exact":
            if isinstance(x, float):
                raise TypeError(f"{self.id} uses exact arithmetic; got float {x}")
            return x if isinstance(x, Fraction) else Fraction(x)
        return float(x)

    def evaluate(self, x: Number, y: Number) -> Number:
        x, y = self._coerce(x), self._coerce(y)
        if not self.domain.contains(x) or not self.domain.contains(y):
            raise DomainError(f"{self.id}: inputs ({x}, {y}) outside {self.domain}")
        v = self.shape.evaluate_raw(x, y)
        if not self.domain.contains(v):
            raise self._escape(v)
        return v

    def _escape(self, v: Number) -> ClosureError:
        return ClosureError(f"{self.id}: result {v} escaped {self.domain}")

    def solve_left(self, a: Number, b: Number) -> Optional[Number]:
        """The unique in-domain x with x op a = b, or None."""
        a, b = self._coerce(a), self._coerce(b)
        if not self.domain.contains(a) or not self.domain.contains(b):
            raise DomainError(f"{self.id}: inputs ({a}, {b}) outside {self.domain}")
        return self._solve(a, b)

    def _solve(self, a: Number, b: Number) -> Optional[Number]:
        """solve_left for inputs already coerced and known to lie in the
        carrier; a solution outside the carrier is still None."""
        x = self.shape.solve_raw(a, b)
        if x is None or not self.domain.contains(x):
            return None
        return x

    def star(self, x: Number, y: Number) -> Optional[Number]:
        """Derived monoid product over the designated unit."""
        if self.unit is None:
            raise ValueError(f"{self.id} has no designated unit")
        return self.solve_left(self.unit, self.evaluate(x, y))

    def star_solve(self, a: Number, b: Number) -> Optional[Number]:
        """The unique x with star(x, a) = b, or None; solves x op a = b op e."""
        if self.unit is None:
            raise ValueError(f"{self.id} has no designated unit")
        return self.solve_left(a, self.evaluate(b, self.unit))


def _frac(num, den=1) -> Fraction:
    return Fraction(num, den)


def _entries() -> list[ParametricFamily]:
    f12 = _frac(1, 2)
    unit_closed = Interval(0, 1)
    unit_half_open = Interval(0, 1, hi_open=True)
    unit_open = Interval(0, 1, True, True)
    half_open_01 = Interval(0, 1, lo_open=True)
    sym_unit = Interval(-1, 1)
    above_one = Interval(1, None, lo_open=True)
    return [
        # midpoint algebras
        ParametricFamily("midpoint-R", AffineFamily(f12, 0, REALS),
                         "(a+b)/2", 0, "I", False,
                         (_frac(-2), _frac(-1, 2), _frac(3, 2), _frac(4))),
        ParametricFamily("midpoint-[0,inf)", AffineFamily(f12, 0, NONNEG_REALS),
                         "(a+b)/2", 0, "II", False, (_frac(2), _frac(4))),
        ParametricFamily("midpoint-[0,1]", AffineFamily(f12, 0, unit_closed),
                         "(a+b)/2", f12, "III", False),
        ParametricFamily("midpoint-R+", AffineFamily(f12, 0, POS_REALS),
                         "(a+b)/2", 1, "IV", False,
                         (_frac(3, 2), _frac(2), _frac(4))),
        ParametricFamily("harmonic-(0,1]", HarmonicFamily(2, half_open_01),
                         "2ab/(a+b)", 1, "II", False),
        ParametricFamily("harmonic-(1,inf)", HarmonicFamily(2, above_one),
                         "2ab/(a+b)", 2, "III", False,
                         (_frac(5, 4), _frac(3, 2), _frac(2), _frac(3),
                          _frac(4), _frac(8))),
        ParametricFamily("harmonic-R+", HarmonicFamily(2, POS_REALS),
                         "2ab/(a+b)", 1, "IV", False,
                         (_frac(3, 2), _frac(2), _frac(3), _frac(4))),
        # one idempotent, not midpoint, not associative
        ParametricFamily("third-[-1,1]", AffineFamily(_frac(1, 3), 0, sym_unit),
                         "(a+b)/3", 0, "III", False, (_frac(-1, 2),)),
        ParametricFamily("third-[0,1]", AffineFamily(_frac(1, 3), 0, unit_closed),
                         "(a+b)/3", 0, "IV", False),
        ParametricFamily("doubling-R", AffineFamily(2, 0, REALS),
                         "2(a+b)", 0, "I", False,
                         (_frac(-2), _frac(-1, 2), _frac(3, 2))),
        ParametricFamily("doubling-[0,inf)", AffineFamily(2, 0, NONNEG_REALS),
                         "2(a+b)", 0, "II", False, (_frac(2), _frac(3))),
        ParametricFamily("doubling-N0", AffineFamily(2, 0, NATURALS0),
                         "2(a+b)", 0, "V", False, (_frac(2), _frac(3), _frac(5))),
        ParametricFamily("affine-Z:2,0", AffineFamily(2, 0, INTEGERS),
                         "2(a+b)", 0, "VI", False,
                         (_frac(-3), _frac(-1), _frac(2), _frac(5))),
        # one idempotent, associative
        ParametricFamily("sum-R", AffineFamily(1, 0, REALS),
                         "a+b", 0, "I", True, (_frac(-2), _frac(3))),
        ParametricFamily("sum-[0,inf)", AffineFamily(1, 0, NONNEG_REALS),
                         "a+b", 0, "II", True, (_frac(2),)),
        ParametricFamily("probsum-[0,1)", ProbSumFamily(-1, unit_half_open),
                         "a+b-ab", 0, "II", True),
        # float mode with designated units
        ParametricFamily("cuberoot-mean-R", CubeRootFamily(1, 2, REALS),
                         "((a^3+b^3)/2)^(1/3)", 0, "I", False,
                         (_frac(-2), _frac(-1, 2), _frac(3, 2))),
        ParametricFamily("cuberoot-doubling-R", CubeRootFamily(2, 1, REALS),
                         "2(a^3+b^3)^(1/3)", 0, "I", False,
                         (_frac(-2), _frac(3, 2))),
        ParametricFamily("geometric-(0,1)", GeometricFamily(unit_open),
                         "sqrt(ab)", f12, None, False),
        # no idempotent at all: axiom reports only
        ParametricFamily("shifted-midpoint-R", AffineFamily(f12, 1, REALS),
                         "(a+b)/2+1", None, None, False,
                         (_frac(-2), _frac(-1, 2), _frac(4))),
        ParametricFamily("harmonic3-R+", HarmonicFamily(3, POS_REALS),
                         "3ab/(a+b)", None, None, False, (_frac(2), _frac(3))),
        ParametricFamily("doubling-R+", AffineFamily(2, 0, POS_REALS),
                         "2(a+b)", None, None, False, (_frac(2),)),
        ParametricFamily("shifted-sum-[0,inf)", AffineFamily(1, 1, NONNEG_REALS),
                         "a+b+1", None, None, True, (_frac(2),)),
        ParametricFamily("resistor-R+", HarmonicFamily(1, POS_REALS),
                         "ab/(a+b)", None, None, True, (_frac(2), _frac(3))),
        ParametricFamily("prodsum-R+", ProbSumFamily(1, POS_REALS),
                         "a+b+ab", None, None, True, (_frac(2),)),
        ParametricFamily("sum-R+", AffineFamily(1, 0, POS_REALS),
                         "a+b", None, None, True, (_frac(2),)),
        ParametricFamily("tanh-sum-(0,1)", TanhSumFamily(unit_open),
                         "(a+b)/(1+ab)", None, None, True),
        # the carrier is the whole line: sample every 4th integer of [-10, 10]
        ParametricFamily("logsumexp-R", LogSumExpFamily(REALS),
                         "log(e^a+e^b)", None, None, True,
                         (_frac(-3), _frac(-1), _frac(1, 2), _frac(2), _frac(5),
                          *map(_frac, range(-10, 11, 4)))),
    ]


CATALOG: dict[str, ParametricFamily] = {f.id: f for f in _entries()}


# ---------------------------------------------------------------------------
# sampling

def default_samples(fam: ParametricFamily, denominator: int = 16) -> list:
    """Grid k/denominator intersected with the domain, plus closed finite
    endpoints and per-family extras; in float mode, the floats still in it."""
    pts = {Fraction(k, denominator) for k in range(denominator + 1)}
    d = fam.domain
    if d.lo is not None and not d.lo_open:
        pts.add(d.lo)
    if d.hi is not None and not d.hi_open:
        pts.add(d.hi)
    pts.update(Fraction(x) for x in fam.extra_samples)
    kept = sorted(p for p in pts if d.contains(p))
    if fam.mode == "float":
        return [x for x in map(float, kept) if d.contains(x)]
    return kept


@dataclass(frozen=True)
class SampleReport:
    family_id: str
    samples_tested: int
    m1_ok: bool
    m2_ok: bool
    m3_ok: bool
    worst_residual: Optional[float]
    closure_violations: int
    verdict: Optional[FamilyClassification]     # for a family with a unit

    @property
    def classification(self) -> Optional[str]:
        return None if self.verdict is None else self.verdict.label.label

    @property
    def expected(self) -> Optional[str]:
        return None if self.verdict is None else self.verdict.expected

    @property
    def matches_expected(self) -> Optional[bool]:
        return None if self.verdict is None else self.verdict.matches_expected

    def to_dict(self) -> dict:
        return {
            "family": self.family_id,
            "samples_tested": self.samples_tested,
            "m1": self.m1_ok, "m2": self.m2_ok, "m3": self.m3_ok,
            "worst_residual": self.worst_residual,
            "closure_violations": self.closure_violations,
            "classification": self.classification,
            "expected": self.expected,
            "matches_expected": self.matches_expected,
        }


def _array(fam: ParametricFamily, vals):
    """vals as one array: rationals in exact mode, float64 in float mode."""
    if fam.mode == "exact":
        return vals if isinstance(vals, _Rationals) else _exact(vals)
    return np.asarray(vals, dtype=float)


def _operands(fam: ParametricFamily, vals):
    """The operands _products takes for vals: their rational array in exact
    mode, in float mode the float64 array of their lifts, one scalar lift
    call per value in order."""
    vals = _array(fam, vals)
    return vals if fam.mode == "exact" else _each(fam.shape.lift, vals)


def _pair_table(fam: ParametricFamily, samples: Iterable[Number]) -> tuple:
    """(pts, table, values): the samples coerced, each tested against the
    carrier once (a bad one raises what fam.evaluate(samples[0], samples[k])
    raises for the first bad k), and every ordered product of them, evaluated
    once by _products over the keys in row-major order.  table[i, j] is the
    id of pts[i] op pts[j] in values, or -1 where it escapes the carrier.
    Equal products share one id, numbered in row-major order of first
    appearance; in float mode -0.0 and 0.0 stay apart.  values is a reduced
    _Rationals in exact mode, a float64 array in float mode."""
    pts = []
    for x in samples:
        pts.append(fam._coerce(x))
        if not fam.domain.contains(pts[-1]):
            raise DomainError(f"{fam.id}: inputs ({pts[0]}, {pts[-1]}) outside {fam.domain}")
    s = len(pts)
    interned: dict = {}
    ids, floats = _products(fam, _operands(fam, pts), np.arange(s * s), s, interned)
    if floats is None:
        ends = np.array(list(interned), dtype=object).reshape(-1, 2)
        return pts, ids.reshape(s, s), _Rationals(ends[:, 0], ends[:, 1])
    live = ids >= 0
    ids[live] = [interned.setdefault(k, len(interned)) for k in _interning_keys(floats[live])]
    return pts, ids.reshape(s, s), np.fromiter((v for v, _ in interned), float, len(interned))


def _products(fam: ParametricFamily, ops, keys: np.ndarray, u: int,
              interned: dict) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """op(vals[k // u], vals[k % u]) over keys, for ops = _operands(fam,
    vals), in one call of the shape: evaluate_raw on rational arrays, or
    join on lifted floats, bit for bit as one product at a time.  Returns
    (ids, floats), ids -1 where a product escapes the carrier.  In exact mode
    equal products share the id interned gives their reduced (num, den) and
    floats is None; in float mode the id is the key and floats holds the
    products.  An exception is the shape's own, raised by the batch."""
    p, q = np.divmod(keys, u)
    if fam.mode == "float":
        with np.errstate(all="ignore"):
            floats = fam.shape.join(ops[p], ops[q])
        return np.where(fam.domain.contains_each(floats), keys, -1), floats
    v = fam.shape.evaluate_raw(ops[p], ops[q]).reduced()
    ok = fam.domain.contains_each(v)
    ids = np.full(keys.size, -1, dtype=np.intp)
    ids[ok] = [interned.setdefault(k, len(interned)) for k in _interning_keys(v[ok])]
    return ids, None


def _interning_keys(v) -> list:
    """The keys under which equal values share an id: (num, den) of a
    reduced rational array, (value, sign) of a float64 array, so that -0.0
    and 0.0 stay apart."""
    if isinstance(v, _Rationals):
        return list(zip(v.num.tolist(), v.den.tolist()))
    return [(x, math.copysign(1.0, x)) for x in v.tolist()]


def _solve_each(fam: ParametricFamily, a, b) -> tuple:
    """fam._solve(a[k], b[k]) for every k, in one solve_raw call on two
    arrays of _array's kind: the solutions, reduced in exact mode, and a
    mask of those in the carrier.  An entry has no solution where its
    divisor is zero (den 0 from _ratio) or, in float mode, where it is nan."""
    with np.errstate(all="ignore"):
        x = fam.shape.solve_raw(a, b)
    if fam.mode == "exact":
        some = x.den != 0
        x = _Rationals(x.num, np.where(some, x.den, 1)).reduced()
        return x, some & fam.domain.contains_each(x)
    return x, fam.domain.contains_each(x)


def sampled_axiom_check(fam: ParametricFamily,
                        samples: Optional[Sequence[Number]] = None,
                        denominator: int = 16) -> SampleReport:
    """M1 over pairs, M2 by solver-inversion spot checks, M3 over all
    quadruples of the sample set.  Exact mode demands equality; float mode
    tracks the worst residual against tolerance 1e-9.  A family with a unit
    is classified from the same pair table.

    Each stage is a batch, and each distinct ordered product is evaluated
    once per call by _products: products of samples in _pair_table, products
    of two such products from a u x u table over their ids, taking each
    slice of quadruples (a, b, c, d) per a and that slice's missing keys in
    key order.  Float mode lifts each value once per stage.  M1 compares the
    pair table with its transpose; M2 solves all live pairs in one
    _solve_each call, and in float mode evaluates x' op y for every solution
    x' in one more batch, the first escaping pair raising evaluate's
    ClosureError.  Every lookup of an escaped product counts one closure
    violation, as one failing evaluation per call site would.
    """
    pts = list(samples) if samples is not None else default_samples(fam, denominator)
    exact = fam.mode == "exact"
    coerced, pairs, values = _pair_table(fam, pts)
    closure = 2 * int((pairs < 0).sum())      # one at (x, y), one at (y, x)
    live = (pairs >= 0) & (pairs.T >= 0)
    i, j = np.nonzero(live)                   # the pairs (x, y), row-major
    xs, v = _array(fam, coerced), values[pairs[i, j]]
    got, ok = _solve_each(fam, xs[j], v)
    m3 = True
    if exact:
        m1 = bool(live.all() and (pairs == pairs.T).all())   # interned ids
        m2 = bool(ok.all() and got.same(xs[i]).all())
    else:
        worst = float(np.abs(v - values[pairs[j, i]]).max(initial=0.0))
        m1 = bool(live.all()) and worst <= FLOAT_TOL
        # float conditioning (cube roots near zero) can push the recovered
        # pre-image far from x, so check the defining equation instead: the
        # solution must solve x' op y = v
        with np.errstate(all="ignore"):
            back = fam.shape.join(_operands(fam, got[ok]), _operands(fam, coerced)[j[ok]])
        escaped = ~fam.domain.contains_each(back)
        if escaped.any():
            raise fam._escape(back[escaped][0].item())
        residual = np.abs(back - v[ok])
        worst = max(worst, float(residual.max(initial=0.0)))
        m2 = bool(ok.all() and (residual <= FLOAT_TOL).all())

    # second[p * u + q] is -2 until op(values[p], values[q]) is evaluated
    # (-3 while a batch waits for it), then -1 if it escaped the carrier,
    # else the id of its value: equal values share an id in exact mode; in
    # float mode the id is p * u + q and the value sits in seconds[p*u+q]
    s, u = len(pts), len(values)
    second = np.full(u * u, -2, dtype=np.intp)
    interned: dict = {}
    seconds = np.empty(0 if exact else u * u)
    ops = _operands(fam, values)
    for row in pairs:                         # one slice per a
        live = row >= 0                       # the b (and c) with ab live
        nb = int(live.sum())
        closure += (s - nb) * (1 + nb)        # each escaped ab, ac per live b
        sub, ids = pairs[live], row[live]
        escaped = int((sub < 0).sum())        # escaped cd over live c and d
        closure += 2 * nb * escaped           # cd per live b, bd per live c
        m3 = m3 and not (nb and escaped)
        # (b, c, d) over live b and c, in loop order
        cd, bd = sub[None, :, :], sub[:, None, :]
        mask = (cd >= 0) & (bd >= 0)
        lhs = (ids[:, None, None] * u + cd)[mask]
        rhs = (ids[None, :, None] * u + bd)[mask]
        second[lhs[second[lhs] == -2]] = -3   # rhs(b, c, d) = lhs(c, b, d)
        keys = np.flatnonzero(second == -3)
        if keys.size:
            second[keys], got = _products(fam, ops, keys, u, interned)
            if got is not None:
                seconds[keys] = got
        lhs, rhs = second[lhs], second[rhs]
        closure += int((lhs < 0).sum() + (rhs < 0).sum())
        both = (lhs >= 0) & (rhs >= 0)
        m3 = m3 and bool(both.all())
        lhs, rhs = lhs[both], rhs[both]
        if exact:
            m3 = m3 and bool((lhs == rhs).all())
        elif lhs.size:
            top = float(np.abs(seconds[lhs] - seconds[rhs]).max())
            worst = max(worst, top)
            m3 = m3 and top <= FLOAT_TOL

    verdict = None if fam.unit is None else _classify(fam, pts, coerced, pairs, values)
    return SampleReport(fam.id, len(pts), m1, m2, m3,
                        None if exact else worst, closure, verdict)


def sampled_associativity(fam: ParametricFamily,
                          samples: Optional[Sequence[Number]] = None) -> bool:
    """Whether (ab)c = a(bc), exactly or within FLOAT_TOL, on every triple of
    samples where ab, bc and both sides stay in the carrier.  Both sides are
    read through one _products call over the ids of the pair table's values
    followed by the samples, each distinct pair of ids evaluated once; a
    sample equal to a value takes the value's id."""
    pts, pairs, values = _pair_table(
        fam, samples if samples is not None else default_samples(fam, 8))
    vals = _array(fam, [*values, *pts])
    first: dict = {}
    sid = np.array([first.setdefault(k, i) for i, k in enumerate(_interning_keys(vals))],
                   dtype=np.intp)[len(values):]
    w = len(vals)
    a, b, c = np.nonzero((pairs[:, :, None] >= 0) & (pairs[None, :, :] >= 0))
    keys, inv = np.unique(np.concatenate((pairs[a, b] * w + sid[c],
                                          sid[a] * w + pairs[b, c])), return_inverse=True)
    ids, floats = _products(fam, _operands(fam, vals), keys, w, {})
    lhs, rhs = inv.reshape(2, -1)
    both = (ids[lhs] >= 0) & (ids[rhs] >= 0)
    lhs, rhs = lhs[both], rhs[both]
    if floats is None:
        return bool((ids[lhs] == ids[rhs]).all())
    return bool((np.abs(floats[lhs] - floats[rhs]) <= FLOAT_TOL).all())


# ---------------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class FamilyClassification:
    family_id: str
    label: ClassificationLabel
    expected: Optional[str]
    matches_expected: Optional[bool]
    evidence: dict

    def to_dict(self) -> dict:
        return {
            "family": self.family_id,
            "label": self.label.label,
            "flags": {"expansive": self.label.expansive,
                      "symmetric": self.label.symmetric,
                      "monoid": self.label.monoid,
                      "group": self.label.group},
            "expected": self.expected,
            "matches_expected": self.matches_expected,
            "evidence": self.evidence,
        }


def _flag_with_evidence(fam: ParametricFamily, name: str, analytic: Optional[bool],
                        attempts: Iterable[tuple[str, Optional[Number]]]):
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


def _totality(shape: Shape, e: Fraction) -> tuple[bool, bool, bool]:
    """Exact (expansive, symmetric, monoid) totality at e: with I = phi(D)
    and eps = phi(e), whether (I - beta)/alpha - eps, (eps - beta)/alpha - I
    and I + I - eps, or I/eps, eps/I and I I/eps, lie in I.  On a lattice of
    two or more points a non-integer coefficient leaves Z."""
    if shape.domain.integral and not isinstance(shape, AffineFamily):
        raise NotImplementedError("totality over an integer lattice needs an affine shape")
    phi, iv, alpha, beta = shape.toyoda_form()
    eps = phi(e)
    if alpha is None:
        squares = Interval(iv.lo ** 2, None if iv.hi is None else iv.hi ** 2,
                           iv.lo_open, iv.hi_open)
        return tuple(_within(_affine(src, s, 0), iv) for src, s in
                     ((iv, 1 / eps), (_reciprocal(iv), eps), (squares, 1 / eps)))
    maps = ((1 / alpha, -beta / alpha - eps), (-1, (eps - beta) / alpha), (2, -eps))
    lattice = iv.integral and (iv.lo is None or iv.lo != iv.hi)
    return tuple(_within(_affine(iv, s, o), iv) and not (
        lattice and (s.denominator != 1 or o.denominator != 1)) for s, o in maps)


def classify_family(fam: ParametricFamily,
                    samples: Optional[Sequence[Number]] = None) -> FamilyClassification:
    """Flags from the shape's exact totality deciders (witness-confirmed), or
    from witnesses alone in float mode; label through the shared six-column
    classifier."""
    if fam.unit is None:
        raise ValueError(f"{fam.id} has no designated unit")
    pts = list(samples) if samples is not None else default_samples(fam)
    return _classify(fam, pts, *_pair_table(fam, pts))


def _classify(fam: ParametricFamily, pts: list, coerced: list, pairs: np.ndarray,
              values) -> FamilyClassification:
    """classify_family on the pair table of pts: the monoid witness of pair
    (x, y) solves theta op e = x op y, once per distinct product, and is
    None where x op y escapes the carrier.  Each kind of solve takes one
    _solve_each call, and a witness that exists reads True.  Float shapes
    are judged by their witnesses alone."""
    e = fam.unit
    s, u = len(coerced), len(values)
    total = _totality(fam.shape, e) if fam.mode == "exact" else (None, None, None)
    xs, es = _array(fam, coerced), _array(fam, [e] * max(s, u))
    solved = [[ok or None for ok in _solve_each(fam, a, b)[1].tolist()]
              for a, b in ((es[:s], xs), (xs, es[:s]), (es[:u], values))]
    expansive, ev_exp = _flag_with_evidence(
        fam, "expansive", total[0], ((f"a={a}", x) for a, x in zip(pts, solved[0])))
    symmetric, ev_sym = _flag_with_evidence(
        fam, "symmetric", total[1], ((f"a={a}", x) for a, x in zip(pts, solved[1])))
    monoid, ev_mon = _flag_with_evidence(
        fam, "monoid", total[2],
        ((f"pair=({x},{y})", None if k < 0 else solved[2][k])
         for x, row in zip(pts, pairs.tolist()) for y, k in zip(pts, row)))
    group = monoid and symmetric
    label = classify(expansive, symmetric, monoid, group)
    matches = None if fam.expected_label is None else (label.label == fam.expected_label)
    return FamilyClassification(fam.id, label, fam.expected_label, matches,
                                {"expansive": ev_exp, "symmetric": ev_sym,
                                 "monoid": ev_mon})


# ---------------------------------------------------------------------------
# closed-form facts about the harmonic family on ]0,1]

def monoid_formula_check(samples: Optional[Sequence[Fraction]] = None) -> bool:
    """The star product of harmonic-(0,1] equals xy/(x+y-xy), exactly, on
    every ordered pair of samples (default: the grid of 16).  The theta with
    theta op 1 = x op y is solved once per distinct product of the pair
    table, in one _solve_each call, and must equal the formula.  No check
    of theta op 1 = x op y follows: the exact solve gives it, and so does
    the formula, as 2 theta / (theta + 1) = 2xy / (x + y)."""
    fam = CATALOG["harmonic-(0,1]"]
    pts, pairs, z = _pair_table(fam, samples if samples is not None else default_samples(fam))
    theta, ok = _solve_each(fam, _exact([fam.unit] * len(z)), z)
    x, y = (_exact(pts)[k] for k in np.divmod(np.arange(len(pts) ** 2), len(pts)))
    return bool((pairs >= 0).all() and ok.all()
                and theta[pairs.ravel()].same((x * y / (x + y - x * y)).reduced()).all())


def half_has_no_inverse_check() -> bool:
    """In the monoid of harmonic-(0,1], 1/2 has no inverse but the unit has."""
    fam = CATALOG["harmonic-(0,1]"]
    no_inverse = fam.star_solve(Fraction(1, 2), fam.unit) is None
    unit_inverse = fam.star_solve(Fraction(1), fam.unit) == 1
    return no_inverse and unit_inverse
