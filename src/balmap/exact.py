"""Exact Gaussian-rational arithmetic and linear algebra.

All chart-level identities and all invariant-complex cohomology ranks are
polynomial statements over Q(i), so they are checked with no floating point
at all.  A CRat is an immutable reduced integer triple (a, b, d) standing for
(a + b i)/d, so an operation costs a few integer products and one gcd; mixed
arithmetic with python complex degrades gracefully to complex (used at the
hodge/flow boundary where eigendecompositions take over).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import floor, gcd, lcm, log10
from typing import Dict, List, Optional, Sequence, Tuple


class CRat:
    """A Gaussian rational (a + b*i)/d in normal form, d > 0 and
    gcd(a, b, d) == 1, so equal values have equal fields.  The parts read
    back as Fractions through .re and .im."""

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        if type(re) is int and type(im) is int:
            return _make(re, im, 1)
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        return _make(re.numerator * (d // re.denominator),
                     im.numerator * (d // im.denominator), d)

    def __setattr__(self, *a):
        raise AttributeError("CRat is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the triple, not through __setattr__
        return _make, (self._a, self._b, self._d)

    re = property(lambda self: Fraction(self._a, self._d))
    im = property(lambda self: Fraction(self._b, self._d))

    # -- arithmetic (exact with CRat/int/Fraction, complex otherwise) --

    def __add__(self, o):
        if type(o) is not CRat:
            return _mixed(operator.add, self, o)
        d, e = self._d, o._d
        if d == e:
            return _reduced(self._a + o._a, self._b + o._b, d)
        return _reduced(self._a * e + o._a * d, self._b * e + o._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is not CRat:
            return _mixed(operator.sub, self, o)
        d, e = self._d, o._d
        if d == e:
            return _reduced(self._a - o._a, self._b - o._b, d)
        return _reduced(self._a * e - o._a * d, self._b * e - o._b * d, d * e)

    def __rsub__(self, o):
        return _mixed(operator.sub, o, self)

    def __mul__(self, o):
        if type(o) is not CRat:
            if type(o) is not int:
                return _mixed(operator.mul, self, o)
            o = _make(o, 0, 1)
        a, b, c, e = self._a, self._b, o._a, o._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is not CRat:
            return _mixed(operator.truediv, self, o)
        c, e = o._a, o._b
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero CRat")
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        a, b = self._a * o._d, self._b * o._d
        return _reduced(a * c + b * e, b * c - a * e, self._d * n)

    def __rtruediv__(self, o):
        return _mixed(operator.truediv, o, self)

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def conjugate(self) -> "CRat":
        return _make(self._a, -self._b, self._d)

    def __eq__(self, o):
        if type(o) is not CRat:
            return _mixed(operator.eq, self, o)
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        # a real value hashes as its Fraction, so as an equal int or Fraction
        return hash((self._a, self._b, self._d)) if self._b else hash(self.re)

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __complex__(self):
        return complex(self._a / self._d, self._b / self._d)

    def __abs__(self):
        return abs(complex(self))

    def __repr__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return "%si" % im
        return "%s%s%si" % (re, "+" if im > 0 else "-", abs(im))


_new = object.__new__
_set_a, _set_b, _set_d = CRat._a.__set__, CRat._b.__set__, CRat._d.__set__


def _make(a: int, b: int, d: int) -> CRat:
    """The CRat (a + b i)/d from a triple already in normal form."""
    x = _new(CRat)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _reduced(a: int, b: int, d: int) -> CRat:
    """The CRat (a + b i)/d for d > 0, brought to normal form."""
    if d == 1:
        return _make(a, b, 1)
    g = gcd(a, b, d)
    return _make(a // g, b // g, d // g) if g != 1 else _make(a, b, d)


def _mixed(op, x, y):
    """op(x, y) for one CRat and one other operand: an int or Fraction is
    made a CRat, a float or complex makes the CRat complex, and any other
    type gets NotImplemented."""
    other = y if type(x) is CRat else x
    if isinstance(other, (int, Fraction)):
        return op(*(v if type(v) is CRat else CRat(v) for v in (x, y)))
    if isinstance(other, (float, complex)):
        return op(complex(x), complex(y))
    return NotImplemented


ZERO = CRat(0)
ONE = CRat(1)
I = CRat(0, 1)


def ipow(k: int) -> CRat:
    """Exact i**k for any integer k."""
    return (ONE, I, CRat(-1), CRat(0, -1))[k % 4]


def is_exact(x) -> bool:
    return isinstance(x, (CRat, int, Fraction))


def largest_size(values) -> str:
    """max |c| over ``values`` as "%.3e" text.  A CRat's size is read from
    its integers, so a nonzero exact value beyond the float range never
    reads as 0 or inf; "0" when every value vanishes."""
    logs = [log10(c._a ** 2 + c._b ** 2) / 2 - log10(c._d) if type(c) is CRat
            else log10(abs(c)) for c in values if c]
    if not logs:
        return "0"
    k = floor(max(logs))
    m = round(10 ** (max(logs) - k), 3)
    if m >= 10:
        m, k = m / 10, k + 1
    return "%.3fe%+03d" % (m, k)


# -- exact sparse linear algebra over CRat -----------------------------------
#
# A matrix is a list of rows {column: CRat} holding only nonzero entries:
# operator matrices between wedge bases have a few nonzeros per row, so one
# forward elimination that touches only stored entries serves both the rank
# and the solve.  Each pivot comes from the sparsest row holding its column
# (Markowitz, Management Sci. 3, 1957), which keeps the fill small.

Row = Dict[int, CRat]


def _echelon(rows: Sequence[Row],
             ncols: int) -> Tuple[Dict[int, Row], List[Row]]:
    """Forward elimination with pivot columns taken in increasing order from
    the first ncols columns.  Returns {pivot column: pivot row scaled to 1
    there} and the nonzero rows left over; the input rows are not modified.
    A pivot row holds no column left of its own, so the pivot columns are
    the leftmost independent ones."""
    # rows by first column: eliminating a column moves a row to a later
    # bucket, so the bucket of a column is complete when the loop reaches it
    buckets: Dict[int, List[Row]] = {}

    def place(row):
        if row:
            buckets.setdefault(min(row), []).append(row)

    for r in rows:
        place(dict(r))
    pivots: Dict[int, Row] = {}
    for col in range(ncols):
        bucket = buckets.pop(col, None)
        if not bucket:
            continue
        bucket.sort(key=len)
        inv = ONE / bucket[0].pop(col)
        piv = pivots[col] = {c: x * inv for c, x in bucket[0].items()}
        for row in bucket[1:]:
            f = row.pop(col)
            for c, x in piv.items():
                v = row.get(c)
                v = -(f * x) if v is None else v - f * x
                if v:
                    row[c] = v
                else:
                    del row[c]
            place(row)
        piv[col] = ONE
    # what is left starts at column ncols or beyond
    return pivots, [row for bucket in buckets.values() for row in bucket]


def exact_rank(rows: Sequence[Row]) -> int:
    ncols = 1 + max((c for r in rows for c in r), default=-1)
    return len(_echelon(rows, ncols)[0])


def exact_solve(rows: Sequence[Row], rhs: Sequence[CRat],
                ncols: int) -> Optional[List[CRat]]:
    """The solution of A x = b over Q(i) that is 0 on the non-pivot columns,
    or None if inconsistent.  b is column ncols of the augmented rows."""
    pivots, left = _echelon([{**r, ncols: b} if b else r
                             for r, b in zip(rows, rhs)], ncols)
    if left:
        return None
    x = [ZERO] * ncols
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        x[col] = row.get(ncols, ZERO) - sum(
            (a * x[c] for c, a in row.items() if col < c < ncols), ZERO)
    return x
