"""The bigraded form algebra shared by the chart and invariant backends.

A form maps wedge words (I, J) -- strictly increasing index tuples, all
unbarred letters (dz_i, resp. phi^i) in front of all barred ones -- to
nonzero coefficients.  The coefficient ring is the backend's: polynomials on
the chart, CRat (exact) or complex (float) on structure-constant models.
Every operation normalizes back to this basis and tracks the permutation
sign, so identity checks reduce to dictionary equality.

Conventions pinned here, once, for both backends:

* contraction is the degree -1 antiderivation with v . (a ^ b) =
  (v . a) ^ b + (-1)^deg(a) a ^ (v . b), and a (1,0) field pairs only
  with unbarred letters, a (0,1) field only with barred letters;
* evaluation u(v_1, ..., v_k) = v_k . (... (v_1 . u));
* conj(dz_I ^ dzbar_J) = dzbar_I ^ dz_J = (-1)^(|I||J|) dz_J ^ dzbar_I;
* graded commutator [A, B] = A B - (-1)^(ab) B A.

A backend subclasses Form and Field and supplies only what differs: the
coefficient zero, the split derivatives del_/delbar (from partial derivatives
or from structure constants) and the bracket of two pure-type fields.  The
space a form lives on is the chart dimension or the LieModel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

BasisKey = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (I, J), strictly increasing

HOLO = "1,0"
ANTI = "0,1"


# -- wedge-word signs -----------------------------------------------------------


def merge_sorted(a: Sequence[int], b: Sequence[int]) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Sign and merge of the concatenation of two increasing index tuples."""
    if set(a) & set(b):
        return None
    inversions = sum(1 for x in a for y in b if y < x)
    return (-1) ** inversions, tuple(sorted(a + b))


def wedge_word(left: BasisKey, right: BasisKey) -> Optional[Tuple[int, BasisKey]]:
    """Sign and normalized key of word(left) ^ word(right), None if it vanishes."""
    (I1, J1), (I2, J2) = left, right
    mi = merge_sorted(I1, I2)
    if mi is None:
        return None
    mj = merge_sorted(J1, J2)
    if mj is None:
        return None
    # moving the unbarred letters I2 across the barred letters J1
    return mi[0] * mj[0] * (-1) ** (len(J1) * len(I2)), (mi[1], mj[1])


def add_term(out: dict, key, val) -> None:
    """out[key] += val, dropping the entry when the sum vanishes."""
    s = out.get(key)
    s = val if s is None else s + val
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _size(space) -> int:
    """Complex dimension of a space: the chart dimension or model.dim."""
    return getattr(space, "dim", space)


def _check_same(a, b, what: str) -> None:
    if a.space != b.space:
        raise ValueError("%s: operands live on different spaces (%r vs %r)"
                         % (what, a.space, b.space))


# -- forms -------------------------------------------------------------------------


class Form:
    """Element of the bigraded algebra; possibly inhomogeneous.

    Zero coefficients are dropped by plain truthiness, so a NaN coefficient
    is kept (and shows in equality and norms) rather than read as zero.
    """

    __slots__ = ("space", "coeffs")
    LETTERS = ("d", "dbar")

    def __init__(self, space, coeffs: Optional[Dict[BasisKey, object]] = None):
        self.space = space
        self.coeffs = {k: c for k, c in coeffs.items() if c} if coeffs else {}

    # -- supplied by the backend --

    def zero_coeff(self):
        raise NotImplementedError

    def del_(self) -> "Form":
        raise NotImplementedError

    def delbar(self) -> "Form":
        raise NotImplementedError

    # -- generic --

    @classmethod
    def zero(cls, space) -> "Form":
        return cls(space)

    def _like(self, coeffs: Dict[BasisKey, object]) -> "Form":
        return type(self)(self.space, coeffs)

    def _kept(self, coeffs: Dict[BasisKey, object]) -> "Form":
        """A form on this space with ``coeffs``, which hold no zero (as
        ``add_term`` leaves them), taken without a copy."""
        out = object.__new__(type(self))
        out.space = self.space
        out.coeffs = coeffs
        return out

    def d(self) -> "Form":
        return self.del_() + self.delbar()

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, Form) and self.space == other.space
                and self.coeffs == other.coeffs)

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        _check_same(self, other, "add")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            add_term(out, k, c)
        return self._kept(out)

    def __neg__(self):
        return self._kept({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Form":
        return self._like({k: v * c for k, v in self.coeffs.items()})

    def conj(self) -> "Form":
        return self._like({(J, I): c.conjugate() * (-1) ** (len(I) * len(J))
                           for (I, J), c in self.coeffs.items()})

    def bidegrees(self) -> set:
        return {(len(I), len(J)) for I, J in self.coeffs}

    def bidegree(self) -> Optional[Tuple[int, int]]:
        bs = self.bidegrees()
        return bs.pop() if len(bs) == 1 else None

    def coefficient(self, I: Sequence[int], J: Sequence[int]):
        return self.coeffs.get((tuple(I), tuple(J)), self.zero_coeff())

    def scalar(self):
        """Coefficient of the empty wedge word (a function)."""
        return self.coefficient((), ())

    def __repr__(self):
        a, b = self.LETTERS
        bits = ["(%r)%s" % (c, "".join("%s%d" % (a, i) for i in I)
                            + "".join("%s%d" % (b, j) for j in J) or "1")
                for (I, J), c in sorted(self.coeffs.items())]
        return "%s[%s](%s)" % (type(self).__name__,
                               getattr(self.space, "name", self.space),
                               " + ".join(bits) or "0")


def wedge(u: Form, v: Form) -> Form:
    _check_same(u, v, "wedge")
    out: Dict[BasisKey, object] = {}
    for k1, c1 in u.coeffs.items():
        for k2, c2 in v.coeffs.items():
            w = wedge_word(k1, k2)
            if w is not None:
                c = c1 * c2
                add_term(out, w[1], c if w[0] > 0 else -c)
    return u._kept(out)


# -- vector fields -------------------------------------------------------------------


class Field:
    """Type (1,0) or (0,1) vector field, one component per frame index."""

    __slots__ = ("space", "kind", "comps")

    def __init__(self, space, kind: str, comps: Sequence):
        if kind not in (HOLO, ANTI):
            raise ValueError("kind must be %r or %r" % (HOLO, ANTI))
        if len(comps) != _size(space):
            raise ValueError("expected %d components" % _size(space))
        self.space = space
        self.kind = kind
        self.comps = tuple(comps)

    def bracket(self, other: "Field"):
        """[self, other] for two pure-type fields; supplied by the backend."""
        raise NotImplementedError

    def _like(self, kind: str, comps: Sequence) -> "Field":
        return type(self)(self.space, kind, comps)

    def conj(self) -> "Field":
        return self._like(ANTI if self.kind == HOLO else HOLO,
                          [c.conjugate() for c in self.comps])

    def scale(self, c) -> "Field":
        return self._like(self.kind, [x * c for x in self.comps])

    def __add__(self, other):
        if isinstance(other, Field) and other.kind == self.kind:
            return self._like(self.kind,
                              [a + b for a, b in zip(self.comps, other.comps)])
        return MixedField.of(self) + MixedField.of(other)

    def __repr__(self):
        sym = "Z" if self.kind == HOLO else "Zbar"
        bits = ["(%r)%s%d" % (c, sym, j + 1) for j, c in enumerate(self.comps) if c]
        return "%s[%s]" % (type(self).__name__, " + ".join(bits) or "0")


class MixedField:
    """Sum of a (1,0) part and a (0,1) part (mixed Lie brackets)."""

    __slots__ = ("space", "holo", "anti")

    def __init__(self, space, holo: Optional[Field], anti: Optional[Field]):
        self.space = space
        self.holo = holo
        self.anti = anti

    @staticmethod
    def of(v) -> "MixedField":
        if isinstance(v, MixedField):
            return v
        if v.kind == HOLO:
            return MixedField(v.space, v, None)
        return MixedField(v.space, None, v)

    def __add__(self, other):
        o = MixedField.of(other)

        def plus(a, b):
            if a is None:
                return b
            if b is None:
                return a
            return a + b
        return MixedField(self.space, plus(self.holo, o.holo),
                          plus(self.anti, o.anti))

    def parts(self) -> List[Field]:
        return [p for p in (self.holo, self.anti) if p is not None]

    def is_zero(self) -> bool:
        return not any(c for p in self.parts() for c in p.comps)

    def __repr__(self):
        return "Mixed(%r, %r)" % (self.holo, self.anti)


def lie_bracket(a, b):
    """Lie bracket of fields; mixed-kind results carry both parts."""
    if isinstance(a, MixedField) or isinstance(b, MixedField):
        out = MixedField(a.space, None, None)
        for pa in MixedField.of(a).parts():
            for pb in MixedField.of(b).parts():
                out = out + lie_bracket(pa, pb)
        return out
    return a.bracket(b)


# -- contraction, evaluation and Lie derivatives -------------------------------------


def contract(v, u: Form) -> Form:
    """Interior product; antiderivation of degree -1."""
    if isinstance(v, MixedField):
        out = type(u).zero(u.space)
        for part in v.parts():
            out = out + contract(part, u)
        return out
    _check_same(v, u, "contract")
    holo = v.kind == HOLO
    out: Dict[BasisKey, object] = {}
    for (I, J), c in u.coeffs.items():
        # only the letters of the word can pair; the one at pos moves to the
        # front past pos letters (a barred one also past the I block)
        for pos, j in enumerate(I if holo else J):
            comp = v.comps[j - 1]
            if not comp:
                continue
            if holo:
                key = (I[:pos] + I[pos + 1:], J)
                odd = pos % 2
            else:
                key = (I, J[:pos] + J[pos + 1:])
                odd = (pos + len(I)) % 2
            t = c * comp
            add_term(out, key, -t if odd else t)
    return u._kept(out)


def evaluate(u: Form, fields: Sequence):
    """u(v_1, ..., v_k) = v_k . (... (v_1 . u))."""
    for v in fields:
        u = contract(v, u)
    return u.scalar()


def lie10(xi: Field, u: Form) -> Form:
    """xi . (del u) + del (xi . u) for a (1,0) field."""
    if xi.kind != HOLO:
        raise ValueError("lie10 expects a (1,0) field")
    return contract(xi, u.del_()) + contract(xi, u).del_()


def lie01(eta_bar: Field, u: Form) -> Form:
    """eta_bar . (delbar u) + delbar (eta_bar . u) for a (0,1) field."""
    if eta_bar.kind != ANTI:
        raise ValueError("lie01 expects a (0,1) field")
    return contract(eta_bar, u.delbar()) + contract(eta_bar, u).delbar()


def lie_std(a, u: Form) -> Form:
    """Standard Lie derivative a . (d u) + d (a . u)."""
    return contract(a, u.d()) + contract(a, u).d()
