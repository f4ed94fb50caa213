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
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
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
        lo, hi = (end if end is None or isinstance(end, Fraction) else Fraction(end)
                  for end in (self.lo, self.hi))
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
        for end, is_open, side in zip((self.lo, self.hi), (self.lo_open, self.hi_open), (1, -1)):
            if end is None:
                continue
            if rational:
                num, den, n, d = _promoted(v, end)
                a, b, err = num * d, den * n, 0
            else:
                a, (b, err) = v, _nearest_float(end.numerator, end.denominator)
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


_SMALL = 1 << 31


def _promoted(*xs) -> tuple:
    """The parts (num, den) of xs, rational arrays, Fractions and ints, as
    they are when each is below 2**31 in magnitude on int64 (a d + n b then
    cannot wrap), else with every array on Python ints.  An int64 array
    whose bound is below 2**31 is taken as it is, and so is a scalar whose
    parts are; an array with no such bound is measured by min and max, as
    abs(-2**63) wraps."""
    parts = [p for x in xs for p in _parts(x)]
    for x in xs:
        if isinstance(x, _Rationals):
            if not (x.bound is not None and x.bound < _SMALL
                    and x.num.dtype == x.den.dtype == np.int64):
                break
        elif not (-_SMALL < x.numerator < _SMALL and x.denominator < _SMALL):
            break
    else:
        return tuple(parts)
    bounds = [getattr(x, "bound", None) for x in xs for _ in (0, 1)]
    if all(-_SMALL < p < _SMALL if isinstance(p, int) else p.dtype != object and (
           b is not None and b < _SMALL
           or -_SMALL < p.min(initial=0) and p.max(initial=0) < _SMALL)
           for p, b in zip(parts, bounds)):
        return tuple(parts)
    return tuple(p.astype(object) if isinstance(p, np.ndarray) else p for p in parts)


def _bound(xs, k: int = 1, join=math.prod) -> Optional[int]:
    """k times the join of bounds on the parts' magnitudes of each of xs, or None."""
    bounds = [x.bound if isinstance(x, _Rationals) else max(map(abs, _parts(x))) for x in xs]
    return None if None in bounds else k * join(bounds)


def _ints(xs) -> np.ndarray:
    """The Python ints xs as an int64 array, or as objects if one overflows."""
    try:
        return np.array(xs, dtype=np.int64)
    except OverflowError:
        return np.array(xs, dtype=object)


def _quotient(num, den, bound=None, strict: bool = True) -> _Rationals:
    if strict and not den.all():
        raise ZeroDivisionError("division by zero")
    neg = den < 0
    if neg.any():
        num, den = np.where(neg, -num, num), np.where(neg, -den, den)
    return _Rationals(num, den, bound)


def _arithmetic(parts, k: int, make=None):
    """The operator giving make(*parts(a, b, n, d), k P Q), by default a
    _Rationals, for self = a / b and other = n / d with parts bounded by P, Q."""
    def op(self, other):
        return (make or _Rationals)(*parts(*_promoted(self, other)), _bound((self, other), k))
    return op


class _Rationals:
    """num / den elementwise, as numpy arrays of ints with den > 0: int64
    arrays while each operation's parts are below 2**31 in magnitude, and
    otherwise promoted to object arrays of Python ints (_promoted), so no
    integer can overflow.  bound is at least the magnitude of every part,
    or None when unknown; each operation carries it.  + - * / take another
    such array or a Fraction or int; results are reduced only by reduced()."""
    __slots__ = ("num", "den", "bound")

    def __init__(self, num, den, bound: Optional[int] = None):
        self.num, self.den, self.bound = num, den, bound

    __add__ = __radd__ = _arithmetic(lambda a, b, n, d: (a * d + n * b, b * d), 2)
    __sub__ = _arithmetic(lambda a, b, n, d: (a * d - n * b, b * d), 2)
    __rsub__ = _arithmetic(lambda a, b, n, d: (n * b - a * d, b * d), 2)
    __mul__ = __rmul__ = _arithmetic(lambda a, b, n, d: (a * n, b * d), 1)
    __truediv__ = _arithmetic(lambda a, b, n, d: (a * d, b * n), 1, _quotient)
    __rtruediv__ = _arithmetic(lambda a, b, n, d: (n * b, d * a), 1, _quotient)

    def __len__(self):
        return len(self.num)

    def __getitem__(self, k) -> _Rationals:
        return _Rationals(self.num[k], self.den[k], self.bound)

    def __setitem__(self, k, other: _Rationals):
        self.num[k], self.den[k] = other.num, other.den
        self.bound = _bound((self, other), join=max)

    def reduced(self) -> _Rationals:
        g = np.gcd(self.num, self.den)
        return _Rationals(self.num // g, self.den // g, self.bound)

    def same(self, other: _Rationals) -> np.ndarray:
        """Elementwise equality of two reduced arrays."""
        return (self.num == other.num) & (self.den == other.den)

    def __iter__(self):
        return map(Fraction, self.num.tolist(), self.den.tolist())


def _ratio(num, den):
    """A solver's num / den: None where den == 0, and on rational arrays a
    zero denominator there, which _solve_each reads as no solution."""
    if isinstance(den, _Rationals):
        n, d, p, q = _promoted(num, den)
        return _quotient(n * q, d * p, _bound((num, den)), strict=False)
    return None if den == 0 else num / den


def _exact(xs) -> _Rationals:
    """The rational array of a sequence of ints and Fractions."""
    nums, dens = [x.numerator for x in xs], [x.denominator for x in xs]
    return _Rationals(_ints(nums), _ints(dens), max(map(abs, nums + dens), default=0))


def _joined(*xs):
    """Rational arrays, or float64 arrays, end to end."""
    if not isinstance(xs[0], _Rationals):
        return np.concatenate(xs)
    return _Rationals(*(np.concatenate(p) for p in zip(*map(_parts, xs))), _bound(xs, join=max))


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


def _affine(iv: Interval, s, o=0) -> Interval:
    """{s v + o : v in iv} for s != 0, as ends; a lattice stays a lattice."""
    lo, hi = (None if v is None else (s * v + o if o else s * v) for v in (iv.lo, iv.hi))
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

class _Exact:
    """An exact shape.  It commutes: every operation takes x and y together
    (x + y, x y) or values symmetric in them, so (y, x) gives (x, y)'s parts, bound and dtype."""
    mode = "exact"
    commutes = True


@dataclass(frozen=True)
class AffineFamily(_Exact):
    """x op y = alpha (x + y) + beta, alpha != 0."""
    alpha: Fraction
    beta: Fraction
    domain: Interval

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
class HarmonicFamily(_Exact):
    """x op y = c x y / (x + y) on a positive carrier."""
    c: Fraction
    domain: Interval

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        if not _within(self.domain, POS_REALS):
            raise ValueError("harmonic families need a strictly positive carrier")

    def evaluate_raw(self, x, y):
        return self.c * (x * y) / (x + y)

    def solve_raw(self, a, b):
        return _ratio(a * b, self.c * a - b)

    def idempotent_elements(self):
        return "all" if self.c == 2 else ()

    def toyoda_form(self):
        return (lambda x: 1 / x), _reciprocal(self.domain), 1 / self.c, Fraction(0)


@dataclass(frozen=True)
class ProbSumFamily(_Exact):
    """x op y = x + y + gamma x y."""
    gamma: Fraction
    domain: Interval

    def __post_init__(self):
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if self.gamma == 0:
            raise ValueError("gamma = 0 is the plain-sum affine shape")
        if not _within(_affine(_hull(self.domain), self.gamma, 1), POS_REALS):
            raise ValueError("prob-sum families need 1 + gamma x > 0 on the carrier")

    def evaluate_raw(self, x, y):
        return x + y + self.gamma * (x * y)

    def solve_raw(self, a, b):
        return _ratio(b - a, 1 + self.gamma * a)

    def idempotent_elements(self):
        out = [Fraction(0), Fraction(-1) / self.gamma]
        return tuple(x for x in dict.fromkeys(out) if self.domain.contains(x))

    def toyoda_form(self):
        image = _affine(self.domain, self.gamma, 1)
        return (lambda x: 1 + self.gamma * x), image, None, None


@dataclass(frozen=True)
class TanhSumFamily(_Exact):
    """x op y = (x + y)/(1 + x y), the addition law of tanh."""
    domain: Interval

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


def _each(f, *vs):
    """f(*vs) for floats, or f of the entries of float64 arrays (a float for
    each entry) in step: the scalar libm call either way, as numpy's vector
    kernels may differ in the last bit; the first entry to raise raises."""
    if isinstance(vs[0], np.ndarray):
        return np.fromiter(map(f, *(v.tolist() if isinstance(v, np.ndarray) else repeat(v)
                                    for v in vs)), dtype=float, count=vs[0].size)
    return f(*vs)


def _cbrt(v):
    copysign = np.copysign if isinstance(v, np.ndarray) else math.copysign
    return copysign(_each(pow, abs(v), 1.0 / 3.0), v)


class _Lifted:
    """A float shape with x op y = join(lift(x), lift(y)).  lift is a scalar
    call, made once per value; join and solve_raw run on floats or on float64
    arrays, with the same bits either way, and solve_raw gives nan where no
    solution exists."""

    def evaluate_raw(self, x, y):
        return self.join(self.lift(x), self.lift(y))


class _Merged(_Lifted):
    """A _Lifted shape whose join is finish(merge(a, b)), merge operator.add
    or operator.mul: IEEE 754 + and * are commutative, so join(a, b) and
    join(b, a) are the same bits and raise alike: it commutes."""
    commutes = True

    def join(self, a, b):
        return self.finish(self.merge(a, b))


@dataclass(frozen=True)
class CubeRootFamily(_Merged):
    """x op y = scale * ((x^3 + y^3)/div)^(1/3), float mode."""
    scale: int
    div: int
    domain: Interval
    mode = "float"

    lift = staticmethod(lambda x: x ** 3)
    merge = staticmethod(operator.add)

    def finish(self, v):
        return self.scale * _cbrt(v / self.div)

    def solve_raw(self, a, b):
        return _cbrt(_each(pow, b / self.scale, 3) * self.div - _each(pow, a, 3))

    def idempotent_elements(self):
        if self.scale ** 3 * 2 == self.div:
            return "all"
        return (0.0,) if self.domain.contains(0.0) else ()


@dataclass(frozen=True)
class GeometricFamily(_Merged):
    """x op y = sqrt(x y), float mode."""
    domain: Interval
    mode = "float"

    lift = staticmethod(lambda x: x)
    merge = staticmethod(operator.mul)

    def finish(self, v):
        return _each(math.sqrt, v)

    def solve_raw(self, a, b):
        return _each(lambda a, b: b * b / a, a, b)

    def idempotent_elements(self):
        return "all"


@dataclass(frozen=True)
class LogSumExpFamily(_Merged):
    """x op y = log(exp x + exp y), float mode."""
    domain: Interval
    mode = "float"

    lift = staticmethod(math.exp)
    merge = staticmethod(operator.add)

    def finish(self, v):
        return _each(math.log, v)

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
    Ids are made here alone: _intern gives equal products one id, numbered
    in row-major order of first appearance, so equal ids mean equal values;
    in float mode -0.0 and 0.0 stay apart.  values, each product at its
    first appearance, is a reduced _Rationals in exact mode and a float64
    array in float mode."""
    pts = []
    for x in samples:
        pts.append(fam._coerce(x))
        if not fam.domain.contains(pts[-1]):
            raise DomainError(f"{fam.id}: inputs ({pts[0]}, {pts[-1]}) outside {fam.domain}")
    s = len(pts)
    v, live = _products(fam, _operands(fam, pts), np.arange(s * s), s)
    ids, v = np.full(s * s, -1, dtype=np.intp), v[live]
    ids[live], first = _intern(v)
    return pts, ids.reshape(s, s), v[first]


def _products(fam: ParametricFamily, ops, keys: np.ndarray, u: int) -> tuple:
    """op(vals[k // u], vals[k % u]) over keys, for ops = _operands(fam,
    vals), in one call of the shape: evaluate_raw on rational arrays, or
    join on lifted floats, bit for bit as one product at a time.  Returns
    (values, live), as _solve_each does: the products, reduced in exact
    mode, and a mask of those in the carrier.  An exception is the shape's
    own, raised by the batch."""
    p, q = np.divmod(keys, u)
    if fam.mode == "exact":
        v = fam.shape.evaluate_raw(ops[p], ops[q]).reduced()
    else:
        with np.errstate(all="ignore"):
            v = fam.shape.join(ops[p], ops[q])
    return v, fam.domain.contains_each(v)


def _packed(v) -> np.ndarray:
    """One key per entry of v, equal where the entries are: a float's bits
    (-0.0 and 0.0 apart), num << 32 | den where _promoted keeps a reduced
    rational on int64, else the Python int num (max den + 1) + den."""
    if not isinstance(v, _Rationals):
        return v.view(np.int64)
    num, den = _promoted(v)
    return num << 32 | den if num.dtype != object else num * (den.max(initial=0) + 1) + den


def _intern(v) -> tuple:
    """(ids, first): ids of equal _packed keys in order of first appearance, each's first index."""
    _, first, inv = np.unique(_packed(v), return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inv], np.sort(first)


def _solve_each(fam: ParametricFamily, a, b) -> tuple:
    """fam._solve(a[k], b[k]) for every k, in one solve_raw call on two
    arrays of _array's kind: the solutions, reduced in exact mode, and a
    mask of those in the carrier.  An entry has no solution where its
    divisor is zero (den 0 from _ratio) or, in float mode, where it is nan."""
    with np.errstate(all="ignore"):
        x = fam.shape.solve_raw(a, b)
    if fam.mode == "exact":
        some = x.den != 0
        x = _Rationals(x.num, np.where(some, x.den, 1), x.bound).reduced()
        return x, some & fam.domain.contains_each(x)
    return x, fam.domain.contains_each(x)


# the most cells (a, b, c, d) in one block of M3 rows a, unless one row
# holds more, and the most keys one M3 call of _products evaluates
_BLOCK_CELLS = 1 << 13
_KEY_CHUNK = 1 << 12


def _blocks(pairs: np.ndarray, u: int):
    """Yields (rows, keys) per block of rows a of M3's quadruples: rows the
    slice of a, and keys[a, b, c, d] = ab * u + cd, the key of the product
    (ab)(cd).  The key of (ac)(bd) sits at (a, c, b, d)."""
    s = len(pairs)
    step = max(1, _BLOCK_CELLS // max(1, s ** 3))
    for a in range(0, s, step):
        yield slice(a, a + step), pairs[a:a + step, :, None, None] * u + pairs


def _quadruples(pairs: np.ndarray, u: int):
    """Yields (keys, quads) per block of _blocks, quads where ab, ac, cd
    and bd are all live."""
    live = pairs >= 0
    for rows, keys in _blocks(pairs, u):
        left = live[rows, :, None, None] & live         # ab and cd
        yield keys, left & left.swapaxes(1, 2)


def _second_products(fam: ParametricFamily, values, pairs: np.ndarray) -> tuple:
    """(seconds, live): each op(values[p], values[q]) that M3 asks for as
    some (ab)(cd), evaluated once in ascending order of p * u + q, the key,
    _KEY_CHUNK keys per _products call: all u^2 if every pair is live (each
    id meets each in a quadruple), else those a pass over M3's blocks marks.
    Where all are asked for and the shape commutes, only the keys with
    p <= q are evaluated, and each fills (q, p) too: the first key to raise
    is the same, as a raising (p, q) with p > q has an earlier mirror.
    seconds[key] is its value, and live[key] is False where it escapes or is
    not asked for.  An exact table turns from int64 to Python ints once."""
    u = len(values)
    every = bool((pairs >= 0).all())
    wanted = np.full(u * u, every)
    for keys, quads in () if every else _quadruples(pairs, u):
        wanted[keys[quads]] = True
    mirror = every and getattr(fam.shape, "commutes", False)
    keys = np.flatnonzero(np.tri(u, dtype=bool).T if mirror else wanted)
    live = wanted                                 # set at every key asked for
    seconds = (np.empty(u * u) if fam.mode == "float"
               else _Rationals(np.zeros(u * u, np.int64), np.ones(u * u, np.int64), 1))
    ops = _operands(fam, values)
    for at in range(0, keys.size, _KEY_CHUNK):
        chunk = keys[at:at + _KEY_CHUNK]
        got, ok = _products(fam, ops, chunk, u)
        if (isinstance(got, _Rationals) and got.num.dtype == object
                and seconds.num.dtype != object):
            seconds = _Rationals(*(p.astype(object) for p in _parts(seconds)), seconds.bound)
        seconds[chunk], live[chunk] = got, ok
        if mirror:
            p, q = np.divmod(chunk, u)
            seconds[q * u + p], live[q * u + p] = got, ok
    return seconds, live


def sampled_axiom_check(fam: ParametricFamily,
                        samples: Optional[Sequence[Number]] = None,
                        denominator: int = 16) -> SampleReport:
    """M1 over pairs, M2 by solver-inversion spot checks, M3 over all
    quadruples of the sample set.  Exact mode demands equality; float mode
    tracks the worst residual against tolerance 1e-9.  A family with a unit
    is classified from the same pair table.

    Each stage is a batch, and each distinct ordered product is evaluated
    at most once per call by _products: products of samples in
    _pair_table, then by _second_products those that M3's quadruples
    (a, b, c, d) ask for, a commuting shape's once per unordered pair.
    M3 gathers (ab)(cd) once per block of rows a of _BLOCK_CELLS cells and
    compares it with its (ac)(bd) view, masking dead quadruples only where
    a product escapes, so memory is one key-indexed table of u^2 values
    with its carrier mask, for u <= s^2 distinct products, plus
    O(s^3 + _BLOCK_CELLS + _KEY_CHUNK).
    Float mode lifts each value once per stage.  M1 compares the pair
    table's ids with their transpose; M2 solves all live pairs, and in exact
    mode the classification's witnesses, in one _solve_each call; float mode
    evaluates x' op y for every solution x' in one more batch, the first
    escaping pair raising evaluate's ClosureError.  Every lookup of an escaped
    product counts one closure violation, as one failing evaluation would.
    """
    pts = list(samples) if samples is not None else default_samples(fam, denominator)
    exact = fam.mode == "exact"
    coerced, pairs, values = _pair_table(fam, pts)
    closure = 2 * int((pairs < 0).sum())      # one at (x, y), one at (y, x)
    live = (pairs >= 0) & (pairs.T >= 0)
    i, j = np.nonzero(live)                   # the pairs (x, y), row-major
    xs, v = _array(fam, coerced), values[pairs[i, j]]
    joint = exact and fam.unit is not None    # M2's solves, then the classification's
    got, ok = _solve_each(fam, *(_witnesses(fam, xs, values, (xs[j],), (v,)) if joint
                                 else (xs[j], v)))
    got, ok, solved = got[:i.size], ok[:i.size], ok[i.size:] if joint else None
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
            back = fam.shape.join(_operands(fam, got[ok]), _operands(fam, xs)[j[ok]])
        escaped = ~fam.domain.contains_each(back)
        if escaped.any():
            raise fam._escape(back[escaped][0].item())
        residual = np.abs(back - v[ok])
        worst = max(worst, float(residual.max(initial=0.0)))
        m2 = bool(ok.all() and (residual <= FLOAT_TOL).all())

    s, u = len(pts), len(values)
    live = pairs >= 0
    nb = live.sum(axis=1)                     # the b (and c) with ab live
    escaped = live.astype(np.intp) @ (s - nb)  # escaped cd over live c and d
    # M3: each escaped ab, ac per live b; cd per live b, bd per live c
    closure += int(((s - nb) * (1 + nb)).sum() + 2 * (nb * escaped).sum())
    m3 = not ((nb > 0) & (escaped > 0)).any()
    seconds, ok = _second_products(fam, values, pairs)
    keyed = _packed(seconds) if exact else None
    # where every pair is live and no second product escapes, every
    # quadruple and both its sides are live: nothing is masked
    masked = not (live.all() and ok.all())
    blocks = _quadruples(pairs, u) if masked else ((keys, None) for _, keys in _blocks(pairs, u))
    for keys, quads in blocks if u else ():   # at u = 0 none is live
        # quads is symmetric under b <-> c, which swaps (ab)(cd) and (ac)(bd)
        if masked:
            keys = np.where(quads, keys, 0)
            live = quads & ok[keys]
            dead = int((quads & ~live).sum())
            closure, m3 = closure + 2 * dead, m3 and not dead
        if exact:     # with no dead side, equal sides are equal keys
            m3 = m3 and bool(((got := keyed[keys]) == got.swapaxes(1, 2)).all())
        else:
            got = seconds[keys]
            if masked:
                got = np.subtract(got, got.swapaxes(1, 2), out=np.zeros_like(got),
                                  where=live & live.swapaxes(1, 2))
            else:
                got = got - got.swapaxes(1, 2)
            top = float(np.abs(got).max())
            worst = max(worst, top)
            m3 = m3 and top <= FLOAT_TOL

    verdict = None if fam.unit is None else _classify(fam, pts, xs, pairs, values, solved)
    return SampleReport(fam.id, len(pts), m1, m2, m3,
                        None if exact else worst, closure, verdict)


def sampled_associativity(fam: ParametricFamily,
                          samples: Optional[Sequence[Number]] = None) -> bool:
    """Whether (ab)c = a(bc), exactly or within FLOAT_TOL, on every triple of
    samples where ab, bc and both sides stay in the carrier.  Both sides are
    read through one _products call over the pair table's values followed
    by the samples, each distinct pair of positions evaluated once; a
    sample equal to a value takes the value's position."""
    pts, pairs, values = _pair_table(
        fam, samples if samples is not None else default_samples(fam, 8))
    vals = _array(fam, [*values, *pts])
    seen, first = _intern(vals)
    sid = first[seen[len(values):]]           # where in vals each sample first is
    w = len(vals)
    a, b, c = np.nonzero((pairs[:, :, None] >= 0) & (pairs[None, :, :] >= 0))
    keys, inv = np.unique(np.concatenate((pairs[a, b] * w + sid[c],
                                          sid[a] * w + pairs[b, c])), return_inverse=True)
    got, ok = _products(fam, _operands(fam, vals), keys, w)
    lhs, rhs = inv.reshape(2, -1)
    both = ok[lhs] & ok[rhs]
    lhs, rhs = lhs[both], rhs[both]
    if fam.mode == "exact":
        return bool(got[lhs].same(got[rhs]).all())
    return bool((np.abs(got[lhs] - got[rhs]) <= FLOAT_TOL).all())


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
                        solved: np.ndarray, describe):
    """The flag and its evidence from witnesses k = 0, 1, ..., where
    solved[k] says whether witness k has a solution; describe(k) names the
    first witness without one."""
    refuting = None if solved.all() else describe(int(np.argmin(solved)))
    if analytic and refuting is not None:
        raise AssertionError(
            f"{fam.id}: analytic {name} verdict contradicts witness {refuting}")
    evidence = {"analytic": analytic, "witnesses": solved.size,
                "solved": int(solved.sum()), "refuting_witness": refuting}
    return refuting is None if analytic is None else analytic, evidence


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
        return tuple(_within(_affine(src, s), iv) for src, s in
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
    coerced, pairs, values = _pair_table(fam, pts)
    return _classify(fam, pts, _array(fam, coerced), pairs, values)


def _witnesses(fam: ParametricFamily, xs, values, a=(), b=()) -> tuple:
    """The arrays, of _array's kind, of the solves x op a = b: those of a
    and b, then the witnesses x op e = x, x op x = e and x op e = v of
    samples x and products v, over one np.full column of the unit e."""
    s, u, e = len(xs), len(values), fam.unit
    if fam.mode == "float":
        es = np.full(max(s, u), e, dtype=float)
    else:
        es = _Rationals(*(np.full(max(s, u), p, object if abs(p) >> 63 else np.int64)
                          for p in _parts(e)), max(abs(e.numerator), e.denominator))
    return _joined(*a, es[:s], xs, es[:u]), _joined(*b, xs, es[:s], values)


def _classify(fam: ParametricFamily, pts: list, xs, pairs: np.ndarray,
              values, solved: Optional[np.ndarray] = None) -> FamilyClassification:
    """classify_family on the pair table of pts, whose samples are the
    array xs: the monoid witness of pair (x, y) solves theta op e = x op y,
    once per distinct product, and is None where x op y escapes the
    carrier.  solved is the mask of _witnesses' solves, all kinds joined;
    without it they take one _solve_each call here.  A witness that exists
    reads True.  Float shapes are judged by their witnesses alone."""
    s = len(xs)
    total = _totality(fam.shape, fam.unit) if fam.mode == "exact" else (None, None, None)
    solved = _solve_each(fam, *_witnesses(fam, xs, values))[1] if solved is None else solved
    expansive, ev_exp = _flag_with_evidence(
        fam, "expansive", total[0], solved[:s], lambda k: f"a={pts[k]}")
    symmetric, ev_sym = _flag_with_evidence(
        fam, "symmetric", total[1], solved[s:2 * s], lambda k: f"a={pts[k]}")
    monoid, ev_mon = _flag_with_evidence(                # False at id -1
        fam, "monoid", total[2], np.append(solved[2 * s:], False)[pairs.ravel()],
        lambda k: f"pair=({pts[k // s]},{pts[k % s]})")
    label = classify(expansive, symmetric, monoid, monoid and symmetric)
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
    theta, ok = _solve_each(fam, *_witnesses(fam, z[:0], z))     # no samples: theta alone
    x, y = (_exact(pts)[k] for k in np.divmod(np.arange(len(pts) ** 2), len(pts)))
    return bool((pairs >= 0).all() and ok.all()
                and theta[pairs.ravel()].same((x * y / (x + y - x * y)).reduced()).all())


def half_has_no_inverse_check() -> bool:
    """In the monoid of harmonic-(0,1], 1/2 has no inverse but the unit has."""
    fam = CATALOG["harmonic-(0,1]"]
    no_inverse = fam.star_solve(Fraction(1, 2), fam.unit) is None
    unit_inverse = fam.star_solve(Fraction(1), fam.unit) == 1
    return no_inverse and unit_inverse
