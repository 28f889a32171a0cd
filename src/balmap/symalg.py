"""Exact bigraded exterior calculus on a coordinate chart.

Forms have polynomial coefficients in z_1..z_d, zbar_1..zbar_d over the
Gaussian rationals, stored on the wedge basis dz_I ^ dzbar_J.  The form
algebra and its sign conventions (wedge, contraction, evaluation,
conjugation, the Lie derivatives) are the shared ones of ``balmap.forms``;
this module supplies the polynomial coefficients, the split derivatives by
partial differentiation, the field bracket, and the exact identity suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import CRat, ONE, I, _reduced, ipow
from .forms import (ANTI, HOLO, BasisKey, Field, Form, MixedField, add_term,
                    contract, evaluate, lie01, lie10, lie_bracket, lie_std,
                    wedge, wedge_word)

Monomial = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (z exponents, zbar exponents)

_SCALARS = (int, CRat, Fraction)


# -- polynomials --------------------------------------------------------------


class Poly:
    """Polynomial in z_1..z_d, zbar_1..zbar_d with CRat coefficients."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Optional[Dict[Monomial, CRat]] = None):
        self.dim = dim
        self.terms = {mon: c for mon, c in terms.items() if c} if terms else {}

    @staticmethod
    def _of(dim: int, terms: Dict[Monomial, CRat]) -> "Poly":
        """The polynomial of ``terms``, which hold no zero coefficient (as
        ``add_term`` leaves them), taken without a copy."""
        p = object.__new__(Poly)
        p.dim = dim
        p.terms = terms
        return p

    # constructors

    @staticmethod
    def const(dim: int, c) -> "Poly":
        c = c if isinstance(c, CRat) else CRat(c)
        zero = (0,) * dim
        return Poly(dim, {(zero, zero): c} if c else {})

    @staticmethod
    def z(dim: int, j: int) -> "Poly":
        a = [0] * dim
        a[j - 1] = 1
        return Poly(dim, {(tuple(a), (0,) * dim): ONE})

    @staticmethod
    def zbar(dim: int, j: int) -> "Poly":
        b = [0] * dim
        b[j - 1] = 1
        return Poly(dim, {((0,) * dim, tuple(b)): ONE})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = Poly.const(self.dim, other)
        elif not isinstance(other, Poly):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self.terms.items(), key=repr))))

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = Poly.const(self.dim, other)
        elif not isinstance(other, Poly):
            return NotImplemented
        out = dict(self.terms)
        for mon, c in other.terms.items():
            add_term(out, mon, c)
        return Poly._of(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of(self.dim, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (Poly,) + _SCALARS):
            return NotImplemented
        return self + -other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return Poly(self.dim, {m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out: Dict[Monomial, CRat] = {}
        _mul_into(out, self.terms, other.terms)
        return Poly._of(self.dim, out)

    __rmul__ = __mul__

    def conjugate(self) -> "Poly":
        return Poly._of(self.dim, {(b, a): c.conjugate()
                                   for (a, b), c in self.terms.items()})

    def dz(self, j: int) -> "Poly":
        """Partial derivative with respect to z_j (1-based)."""
        return self._partial(0, j)

    def dzbar(self, j: int) -> "Poly":
        return self._partial(1, j)

    def _partial(self, side: int, j: int) -> "Poly":   # side 1: zbar_j
        out = {}
        for mono, c in self.terms.items():
            e = mono[side][j - 1]
            if e:
                key = list(mono)
                exps = list(key[side])
                exps[j - 1] = e - 1
                key[side] = tuple(exps)
                add_term(out, tuple(key), c * e)
        return Poly._of(self.dim, out)

    def antider_z(self, j: int) -> "Poly":
        """Antiderivative in z_j; exact on polynomials."""
        out = {}
        for (a, b), c in self.terms.items():
            aa = list(a)
            aa[j - 1] += 1
            out[(tuple(aa), b)] = c * CRat(Fraction(1, aa[j - 1]))
        return Poly._of(self.dim, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (a, b), c in sorted(self.terms.items()):
            mon = "".join("z%d^%d" % (i + 1, e) if e > 1 else "z%d" % (i + 1)
                          for i, e in enumerate(a) if e)
            mon += "".join("w%d^%d" % (i + 1, e) if e > 1 else "w%d" % (i + 1)
                           for i, e in enumerate(b) if e)
            bits.append("(%r)%s" % (c, mon))
        return " + ".join(bits)


def _mul_into(out: Dict[Monomial, CRat], p: Dict[Monomial, CRat],
              q: Dict[Monomial, CRat]) -> None:
    """out += p * q on term dicts, dropping the sums that vanish."""
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            add_term(out, (tuple(map(add, a1, a2)), tuple(map(add, b1, b2))),
                     c1 * c2)


# -- forms and fields -----------------------------------------------------------


class ChartForm(Form):
    """Form with polynomial coefficients on the wedge basis dz_I ^ dzbar_J."""

    __slots__ = ()
    LETTERS = ("dz", "dw")

    dim = property(lambda self: self.space)

    @staticmethod
    def from_function(p: Poly) -> "ChartForm":
        return ChartForm(p.dim, {((), ()): p})

    @staticmethod
    def basis(dim: int, I: Sequence[int], J: Sequence[int], coeff=None) -> "ChartForm":
        p = coeff if isinstance(coeff, Poly) else Poly.const(dim, 1 if coeff is None else coeff)
        return ChartForm(dim, {(tuple(I), tuple(J)): p})

    def zero_coeff(self) -> Poly:
        return Poly(self.space)

    def del_(self) -> "ChartForm":
        return self._derive(False)

    def delbar(self) -> "ChartForm":
        return self._derive(True)

    def _derive(self, bar: bool) -> "ChartForm":
        """Sum over j of dz_j (or dzbar_j) ^ (partial_j of each coefficient)."""
        out: Dict[BasisKey, Poly] = {}
        for key, p in self.coeffs.items():
            for j in range(1, self.space + 1):
                dp = p.dzbar(j) if bar else p.dz(j)
                if not dp:
                    continue
                w = wedge_word(((), (j,)) if bar else ((j,), ()), key)
                if w is not None:
                    add_term(out, w[1], dp if w[0] > 0 else -dp)
        return self._kept(out)


def chart_del(u: ChartForm) -> ChartForm:
    return u.del_()


def chart_delbar(u: ChartForm) -> ChartForm:
    return u.delbar()


def chart_d(u: ChartForm) -> ChartForm:
    return u.d()


class ChartVectorField(Field):
    """Type (1,0) or (0,1) field with polynomial components."""

    __slots__ = ()

    dim = property(lambda self: self.space)

    @staticmethod
    def frame(dim: int, j: int) -> "ChartVectorField":
        return ChartVectorField._frame_field(dim, HOLO, j)

    @staticmethod
    def frame_bar(dim: int, j: int) -> "ChartVectorField":
        return ChartVectorField._frame_field(dim, ANTI, j)

    @staticmethod
    def _frame_field(dim: int, kind: str, j: int) -> "ChartVectorField":
        comps = [Poly.const(dim, 1 if k == j - 1 else 0) for k in range(dim)]
        return ChartVectorField(dim, kind, comps)

    def apply(self, f: Poly) -> Poly:
        """Directional derivative of a function."""
        out: Dict[Monomial, CRat] = {}
        for j, c in enumerate(self.comps, start=1):
            if c:
                df = f.dz(j) if self.kind == HOLO else f.dzbar(j)
                _mul_into(out, c.terms, df.terms)
        return Poly._of(self.dim, out)

    def bracket(self, b: "ChartVectorField"):
        a, dim = self, self.dim
        if a.kind == b.kind:
            comps = [a.apply(b.comps[j]) - b.apply(a.comps[j]) for j in range(dim)]
            return ChartVectorField(dim, a.kind, comps)
        holo_comps = [a.apply(b.comps[j]) if b.kind == HOLO else -b.apply(a.comps[j])
                      for j in range(dim)]
        anti_comps = [a.apply(b.comps[j]) if b.kind == ANTI else -b.apply(a.comps[j])
                      for j in range(dim)]
        holo = ChartVectorField(dim, HOLO, holo_comps)
        anti = ChartVectorField(dim, ANTI, anti_comps)
        return MixedField(dim, holo if any(holo.comps) else None,
                          anti if any(anti.comps) else None)


def dbar_field_contract(xi: ChartVectorField, u: ChartForm) -> ChartForm:
    """(dbar xi) . u for a (1,0) field: sum_jk (d xi_j / d zbar_k) dzbar_k ^ (Z_j . u)."""
    if xi.kind != HOLO:
        raise ValueError("expects a (1,0) field")
    out = ChartForm.zero(u.dim)
    for j in range(1, u.dim + 1):
        inner = contract(ChartVectorField.frame(u.dim, j), u)
        if not inner:
            continue
        for k in range(1, u.dim + 1):
            dc = xi.comps[j - 1].dzbar(k)
            if dc:
                out = out + wedge(ChartForm.basis(u.dim, (), (k,)), inner).scale(dc)
    return out


def del_field_contract(eta_bar: ChartVectorField, u: ChartForm) -> ChartForm:
    """(del eta_bar) . u for a (0,1) field: the conjugate of
    (dbar conj(eta_bar)) . conj(u)."""
    if eta_bar.kind != ANTI:
        raise ValueError("expects a (0,1) field")
    return dbar_field_contract(eta_bar.conj(), u.conj()).conj()


def standard_volume(dim: int) -> ChartForm:
    """i^(d^2) dz_1..d ^ dzbar_1..d, the positive Euclidean volume form."""
    idx = tuple(range(1, dim + 1))
    return ChartForm.basis(dim, idx, idx, ipow(dim * dim))


# -- random data for the identity suite ----------------------------------------


def _rand_crat(rng: random.Random) -> CRat:
    num = rng.randint(-2, 2)
    den = rng.randint(1, 2)
    im = rng.randint(-1, 1) * den if rng.random() < 0.4 else 0
    return _reduced(num, im, den)


def random_poly(rng: random.Random, dim: int, nterms: int = 2,
                holomorphic: bool = False) -> Poly:
    terms: Dict[Monomial, CRat] = {}
    for _ in range(nterms):
        a = [0] * dim
        b = [0] * dim
        for _ in range(rng.randint(0, 2)):
            if holomorphic or rng.random() < 0.5:
                a[rng.randrange(dim)] += 1
            else:
                b[rng.randrange(dim)] += 1
        c = _rand_crat(rng)
        if c:
            add_term(terms, (tuple(a), tuple(b)), c)
    return Poly._of(dim, terms)


def random_form(rng: random.Random, dim: int, p: int, q: int,
                nterms: int = 2) -> ChartForm:
    from itertools import combinations
    Is = list(combinations(range(1, dim + 1), p))
    Js = list(combinations(range(1, dim + 1), q))
    out = ChartForm.zero(dim)
    for _ in range(nterms):
        key = (rng.choice(Is), rng.choice(Js))
        out = out + ChartForm.basis(dim, key[0], key[1], random_poly(rng, dim))
    return out


def random_field(rng: random.Random, dim: int, kind: str = HOLO,
                 holomorphic: bool = False) -> ChartVectorField:
    comps = [random_poly(rng, dim, nterms=1, holomorphic=holomorphic)
             for _ in range(dim)]
    if not any(comps):
        comps[rng.randrange(dim)] = Poly.const(dim, 1)
    # a (0,1) field keeps the same mixed coefficients: it is the conjugate of
    # a holomorphic one only when they are anti-holomorphic
    return ChartVectorField(dim, kind, comps)


def random_holomorphic_field(rng: random.Random, dim: int) -> ChartVectorField:
    return random_field(rng, dim, HOLO, holomorphic=True)


def random_divergence_free_holomorphic_field(rng: random.Random,
                                             dim: int) -> ChartVectorField:
    """Holomorphic polynomial field with zero divergence (volume preserving)."""
    comps = [random_poly(rng, dim, nterms=1, holomorphic=True) for _ in range(dim)]
    rest = Poly(dim)
    for j in range(2, dim + 1):
        rest = rest + comps[j - 1].dz(j)
    comps[0] = -rest.antider_z(1)
    return ChartVectorField(dim, HOLO, comps)


# -- the identity suite ----------------------------------------------------------


@dataclass
class IdentityRecord:
    name: str
    law: str
    trials: int
    failures: int
    expected_failure: bool = False
    counterexample: Optional[str] = None

    @property
    def ok(self) -> bool:
        if self.expected_failure:
            return self.failures > 0
        return self.failures == 0


@dataclass
class SuiteReport:
    seed: int
    trials: int
    records: List[IdentityRecord] = field(default_factory=list)

    def add(self, rec: IdentityRecord):
        self.records.append(rec)


def _check(report, rng, name, law, trials, gen, lhs_rhs, expected_failure=False):
    failures = 0
    example = None
    for _ in range(trials):
        data = gen(rng)
        lhs, rhs = lhs_rhs(*data)
        if lhs != rhs:
            failures += 1
            if example is None:
                example = "inputs=%r lhs=%r rhs=%r" % (data, lhs, rhs)
    report.add(IdentityRecord(name, law, trials, failures,
                              expected_failure=expected_failure,
                              counterexample=example))


def identity_suite(seed: int = 0, trials: int = 50) -> SuiteReport:
    """Exercise the (1,0)/(0,1) Lie-derivative laws over random exact data.

    Every check is exact rational equality of canonical forms; a failing
    identity is reported with a serialized counterexample.  The two
    expected-failure probes document scope restrictions (function-linearity
    only on (0,q) resp. (p,0) forms, and the mixed second-derivative law
    needing one holomorphic argument).
    """
    rng = random.Random(seed)
    rep = SuiteReport(seed=seed, trials=trials)

    def dims(r):
        return r.choice((2, 3, 4))

    def any_form(r, d):
        p = r.randint(0, min(2, d))
        q = r.randint(0, min(2, d))
        return random_form(r, d, p, q, nterms=1)

    # decomposition of the full Lie derivative by type
    def gen_i(r):
        d = dims(r)
        return random_field(r, d), any_form(r, d)
    _check(rep, rng, "lie-decomposition-10", "lie10-plus-dbar-contraction", trials,
           gen_i, lambda xi, u: (lie_std(xi, u),
                                 lie10(xi, u) + dbar_field_contract(xi, u)))

    def gen_i_bar(r):
        d = dims(r)
        return random_field(r, d, ANTI), any_form(r, d)
    _check(rep, rng, "lie-decomposition-01", "lie01-plus-del-contraction", trials,
           gen_i_bar, lambda eb, u: (lie_std(eb, u),
                                     lie01(eb, u) + del_field_contract(eb, u)))

    # on functions: L10_xi f = xi . f
    def gen_ii(r):
        d = dims(r)
        return random_field(r, d), random_poly(r, d)
    _check(rep, rng, "lie10-on-functions", "lie10-directional-derivative", trials,
           gen_ii, lambda xi, f: (lie10(xi, ChartForm.from_function(f)),
                                  ChartForm.from_function(xi.apply(f))))
    _check(rep, rng, "lie01-on-functions", "lie01-directional-derivative", trials,
           lambda r: (lambda d: (random_field(r, d, ANTI), random_poly(r, d)))(dims(r)),
           lambda eb, f: (lie01(eb, ChartForm.from_function(f)),
                          ChartForm.from_function(eb.apply(f))))

    # commutators with del/delbar
    _check(rep, rng, "lie10-del-commutes", "lie10-del-commutator-zero", trials,
           gen_i, lambda xi, u: (lie10(xi, chart_del(u)), chart_del(lie10(xi, u))))
    _check(rep, rng, "lie10-delbar-commutator", "lie10-delbar-equals-del-dbarxi", trials,
           gen_i, lambda xi, u: (lie10(xi, chart_delbar(u)) - chart_delbar(lie10(xi, u)),
                                 chart_del(dbar_field_contract(xi, u))
                                 - dbar_field_contract(xi, chart_del(u))))
    _check(rep, rng, "lie01-delbar-commutes", "lie01-delbar-commutator-zero", trials,
           gen_i_bar, lambda eb, u: (lie01(eb, chart_delbar(u)),
                                     chart_delbar(lie01(eb, u))))
    _check(rep, rng, "lie01-del-commutator", "lie01-del-equals-delbar-deleta", trials,
           gen_i_bar, lambda eb, u: (lie01(eb, chart_del(u)) - chart_del(lie01(eb, u)),
                                     chart_delbar(del_field_contract(eb, u))
                                     - del_field_contract(eb, chart_delbar(u))))

    # contraction / Lie-derivative commutators
    def gen_iv(r):
        d = dims(r)
        return random_field(r, d), random_field(r, d), any_form(r, d)
    _check(rep, rng, "contract-lie10-commutator", "bracket-contraction", trials,
           gen_iv, lambda xi, eta, u: (contract(xi, lie10(eta, u))
                                       - lie10(eta, contract(xi, u)),
                                       contract(lie_bracket(xi, eta), u)))
    _check(rep, rng, "lie10-lie10-commutator", "lie10-of-bracket", trials,
           gen_iv, lambda xi, eta, u: (lie10(xi, lie10(eta, u)) - lie10(eta, lie10(xi, u)),
                                       lie10(lie_bracket(xi, eta), u)))

    def gen_iv_bar(r):
        d = dims(r)
        return random_field(r, d, ANTI), random_field(r, d, ANTI), any_form(r, d)
    _check(rep, rng, "contract-lie01-commutator", "bracket-contraction-conj", trials,
           gen_iv_bar, lambda xb, eb, u: (contract(xb, lie01(eb, u))
                                          - lie01(eb, contract(xb, u)),
                                          contract(lie_bracket(xb, eb), u)))
    _check(rep, rng, "lie01-lie01-commutator", "lie01-of-bracket", trials,
           gen_iv_bar, lambda xb, eb, u: (lie01(xb, lie01(eb, u)) - lie01(eb, lie01(xb, u)),
                                          lie01(lie_bracket(xb, eb), u)))

    # Leibniz over wedge
    def gen_v(r):
        d = dims(r)
        return random_field(r, d), any_form(r, d), any_form(r, d)
    _check(rep, rng, "lie10-leibniz", "lie10-wedge-derivation", trials,
           gen_v, lambda xi, u, v: (lie10(xi, wedge(u, v)),
                                    wedge(lie10(xi, u), v) + wedge(u, lie10(xi, v))))
    _check(rep, rng, "lie01-leibniz", "lie01-wedge-derivation", trials,
           lambda r: (lambda d: (random_field(r, d, ANTI), any_form(r, d),
                                 any_form(r, d)))(dims(r)),
           lambda eb, u, v: (lie01(eb, wedge(u, v)),
                             wedge(lie01(eb, u), v) + wedge(u, lie01(eb, v))))

    # holomorphic field through an opposite-type contraction
    def gen_vi(r):
        d = dims(r)
        return (random_holomorphic_field(r, d), random_field(r, d, ANTI),
                any_form(r, d))
    _check(rep, rng, "lie10-through-anti-contraction", "holomorphic-pushthrough", trials,
           gen_vi, lambda xi, eb, a: (lie10(xi, contract(eb, a)),
                                      contract(eb, lie10(xi, a))
                                      + contract(lie_bracket(xi, eb), a)))

    def gen_vi_bar(r):
        d = dims(r)
        eta = random_holomorphic_field(r, d)
        return (eta.conj(), random_field(r, d), any_form(r, d))
    _check(rep, rng, "lie01-through-holo-contraction", "holomorphic-pushthrough-conj",
           trials, gen_vi_bar,
           lambda eb, xi, a: (lie01(eb, contract(xi, a)),
                              contract(xi, lie01(eb, a))
                              + contract(lie_bracket(eb, xi), a)))

    # function-linearity on (0,q) forms
    def gen_vii(r):
        d = dims(r)
        q = r.randint(0, min(2, d))
        return (random_poly(r, d), random_poly(r, d), random_field(r, d),
                random_field(r, d), random_form(r, d, 0, q, nterms=1))
    _check(rep, rng, "lie10-function-linear-0q", "function-linearity-0q", trials,
           gen_vii, lambda f, g, xi, eta, a:
           (lie10(xi.scale(f) + eta.scale(g), a),
            lie10(xi, a).scale(f) + lie10(eta, a).scale(g)))

    def gen_vii_bar(r):
        d = dims(r)
        p = r.randint(0, min(2, d))
        return (random_poly(r, d), random_poly(r, d), random_field(r, d, ANTI),
                random_field(r, d, ANTI), random_form(r, d, p, 0, nterms=1))
    _check(rep, rng, "lie01-function-linear-p0", "function-linearity-p0", trials,
           gen_vii_bar, lambda f, g, xb, eb, a:
           (lie01(xb.scale(f) + eb.scale(g), a),
            lie01(xb, a).scale(f) + lie01(eb, a).scale(g)))

    # documented restriction: function-linearity fails off (0,q) forms
    def gen_vii_fail(r):
        d = dims(r)
        return (Poly.z(d, 1), random_field(r, d),
                random_form(r, d, 1, 0, nterms=1))
    _check(rep, rng, "lie10-function-linear-10-restricted",
           "function-linearity-outside-0q", trials, gen_vii_fail,
           lambda f, xi, a: (lie10(xi.scale(f), a), lie10(xi, a).scale(f)),
           expected_failure=True)

    # intrinsic formula for del on (k,0)-forms
    def cartan_rhs(alpha, fields):
        k = len(fields) - 1
        rhs = Poly(alpha.dim)
        for j, xj in enumerate(fields):
            rest = fields[:j] + fields[j + 1:]
            rhs = rhs + CRat((-1) ** j) * xj.apply(evaluate(alpha, rest))
        for j in range(k + 1):
            for l in range(j + 1, k + 1):
                br = lie_bracket(fields[j], fields[l])
                rest = [br] + [fields[m] for m in range(k + 1) if m not in (j, l)]
                rhs = rhs + CRat((-1) ** (j + l)) * evaluate(alpha, rest)
        return rhs

    for k in (0, 1, 2):
        def gen_cartan(r, k=k):
            d = dims(r)
            alpha = random_form(r, d, k, 0, nterms=1)
            fields = [random_field(r, d) for _ in range(k + 1)]
            return (alpha, fields)
        _check(rep, rng, "del-intrinsic-k%d" % k, "cartan-formula-del", trials,
               gen_cartan, lambda alpha, fields:
               (evaluate(chart_del(alpha), fields), cartan_rhs(alpha, fields)))

    # conjugation symmetry
    _check(rep, rng, "conjugation-symmetry", "conj-swaps-lie10-lie01", trials,
           gen_i, lambda xi, u: (lie10(xi, u).conj(), lie01(xi.conj(), u.conj())))

    # graded-operator sanity on concrete forms
    def gen_sq(r):
        d = dims(r)
        return (any_form(r, d),)
    _check(rep, rng, "del-squared", "del-del-zero", trials, gen_sq,
           lambda u: (chart_del(chart_del(u)), ChartForm.zero(u.dim)))
    _check(rep, rng, "delbar-squared", "delbar-delbar-zero", trials, gen_sq,
           lambda u: (chart_delbar(chart_delbar(u)), ChartForm.zero(u.dim)))
    _check(rep, rng, "del-delbar-anticommute", "del-delbar-anticommutator-zero",
           trials, gen_sq,
           lambda u: (chart_del(chart_delbar(u)) + chart_delbar(chart_del(u)),
                      ChartForm.zero(u.dim)))
    _check(rep, rng, "d-squared", "d-d-zero", trials, gen_sq,
           lambda u: (chart_d(chart_d(u)), ChartForm.zero(u.dim)))

    # mixed second derivative of a function against the two Lie derivatives
    for rec in mixed_second_derivative_check(seed=seed + 1, trials=trials).records:
        rep.add(rec)
    return rep


def mixed_second_derivative_check(seed: int = 0, trials: int = 50) -> SuiteReport:
    """(i del delbar f)(v, wbar) against the iterated Lie derivatives.

    Exact over random polynomial data: equality holds when the second
    argument (resp. first, in the mirrored statement) is holomorphic, and the
    frame-field coordinate identity holds unconditionally.  A non-holomorphic
    probe documents the extra term as an expected failure.
    """
    rng = random.Random(seed)
    rep = SuiteReport(seed=seed, trials=trials)

    def iddbar(f: Poly) -> ChartForm:
        return chart_del(chart_delbar(ChartForm.from_function(f))).scale(I)

    def pair(u: ChartForm, v, w) -> Poly:
        return evaluate(u, [v, w.conj()])

    def gen_holo_w(r):
        d = r.choice((2, 3))
        return (random_poly(r, d), random_field(r, d),
                random_holomorphic_field(r, d))
    _check(rep, rng, "mixed-hessian-holo-second", "iddbar-vs-lie10-lie01", trials,
           gen_holo_w, lambda f, v, w:
           (pair(iddbar(f), v, w),
            I * evaluate(lie10(v, lie01(w.conj(), ChartForm.from_function(f))), [])))

    def gen_holo_v(r):
        d = r.choice((2, 3))
        return (random_poly(r, d), random_holomorphic_field(r, d),
                random_field(r, d))
    _check(rep, rng, "mixed-hessian-holo-first", "iddbar-vs-lie01-lie10", trials,
           gen_holo_v, lambda f, v, w:
           (pair(iddbar(f), v, w),
            I * evaluate(lie01(w.conj(), lie10(v, ChartForm.from_function(f))), [])))

    def gen_frames(r):
        d = r.choice((2, 3))
        l = r.randint(1, d)
        k = r.randint(1, d)
        return (random_poly(r, d), ChartVectorField.frame(d, l),
                ChartVectorField.frame(d, k))
    _check(rep, rng, "mixed-hessian-frames", "iddbar-coordinate-identity", trials,
           gen_frames, lambda f, v, w:
           (pair(iddbar(f), v, w),
            I * evaluate(lie10(v, lie01(w.conj(), ChartForm.from_function(f))), [])))

    def gen_nonholo(r):
        d = 2
        f = Poly.z(d, 1) * Poly.zbar(d, 1) + random_poly(r, d, nterms=1)
        v = ChartVectorField.frame(d, 1)
        w = ChartVectorField(d, HOLO, [Poly.zbar(d, 1), Poly(d)])
        return (f, v, w)
    _check(rep, rng, "mixed-hessian-nonholo-probe", "iddbar-needs-holomorphic-argument",
           trials, gen_nonholo, lambda f, v, w:
           (pair(iddbar(f), v, w),
            I * evaluate(lie10(v, lie01(w.conj(), ChartForm.from_function(f))), [])),
           expected_failure=True)
    return rep
