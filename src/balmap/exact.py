"""Exact Gaussian-rational arithmetic and linear algebra.

All chart-level identities and all invariant-complex cohomology ranks are
polynomial statements over Q(i), so they are checked with no floating point
at all.  CRat is a thin immutable wrapper around a pair of Fractions; mixed
arithmetic with python complex degrades gracefully to complex (used at the
hodge/flow boundary where eigendecompositions take over).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple


class CRat:
    """A Gaussian rational: re + im*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("CRat is immutable")

    # -- arithmetic (exact with CRat/int/Fraction, complex otherwise) --

    def _coerce(self, other):
        if isinstance(other, CRat):
            return other
        if isinstance(other, (int, Fraction)):
            return CRat(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) + other
            return NotImplemented
        return CRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) - other
            return NotImplemented
        return CRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return other - complex(self)
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) * other
            return NotImplemented
        return CRat(self.re * o.re - self.im * o.im,
                    self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) / other
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero CRat")
        return CRat((self.re * o.re + self.im * o.im) / n,
                    (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return other / complex(self)
            return NotImplemented
        return o / self

    def __neg__(self):
        return CRat(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self) -> "CRat":
        return CRat(self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) == other
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self):
        return abs(complex(self))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return "%si" % self.im
        sign = "+" if self.im > 0 else "-"
        return "%s%s%si" % (self.re, sign, abs(self.im))


ZERO = CRat(0)
ONE = CRat(1)
I = CRat(0, 1)


def ipow(k: int) -> CRat:
    """Exact i**k for any integer k."""
    return (ONE, I, CRat(-1), CRat(0, -1))[k % 4]


def is_exact(x) -> bool:
    return isinstance(x, (CRat, int, Fraction))


# -- exact dense linear algebra over CRat ------------------------------------
#
# Matrices are lists of rows of CRat.  Sizes here never exceed a few hundred
# (wedge-basis dimensions of invariant complexes), so textbook Gaussian
# elimination with exact pivoting is plenty.


def _rref(rows: Sequence[Sequence[CRat]],
          ncols: int) -> Tuple[List[List[CRat]], List[int]]:
    """Gauss-Jordan elimination with pivots searched in the first ncols
    columns; returns the reduced rows and the pivot column of each pivot row."""
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots: List[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        piv = next((r for r in range(row, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = ONE / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
    return m, pivots


def _ncols(rows: Sequence[Sequence[CRat]]) -> int:
    return len(rows[0]) if rows else 0


def exact_rank(rows: Sequence[Sequence[CRat]]) -> int:
    return len(_rref(rows, _ncols(rows))[1])


def exact_solve(rows: Sequence[Sequence[CRat]],
                rhs: Sequence[CRat]) -> Optional[List[CRat]]:
    """One solution of A x = b over Q(i), or None if inconsistent."""
    ncols = _ncols(rows)
    m, pivots = _rref([list(r) + [rhs[i]] for i, r in enumerate(rows)], ncols)
    if any(m[r][ncols] for r in range(len(pivots), len(m))):
        return None
    x = [ZERO] * ncols
    for r, c in enumerate(pivots):
        x[c] = m[r][ncols]
    return x


def exact_nullspace(rows: Sequence[Sequence[CRat]]) -> List[List[CRat]]:
    """Basis of the right nullspace of A over Q(i)."""
    ncols = _ncols(rows)
    m, pivots = _rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, c in enumerate(pivots):
            v[c] = -m[r][fc]
        basis.append(v)
    return basis
