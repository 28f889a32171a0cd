"""Invariant calculus on compact models given by structure constants.

A LieModel fixes a (1,0)-coframe phi^1..phi^d, with dual frame Z_1..Z_d,
and the expansion of each d(phi^k) over the basis {phi^i^phi^j (i<j),
phi^i^phibar^j, phibar^i^phibar^j (i<j)}; repeated labels are summed.
d(phibar^k) is conj(d phi^k).  On invariant forms d is the
Chevalley-Eilenberg differential

    d u = sum_k d(phi^k) ^ (Z_k . u) + d(phibar^k) ^ (Zbar_k . u),

and del, delbar are its parts that raise the bidegree by (1,0), (0,1).
Everything downstream (cohomology, Hodge theory, the moment-map checks) is
finite-dimensional linear algebra over this complex.

Every sign (wedge merge, contraction, conjugation) comes from
``balmap.forms``; this module supplies only the stored d(phi^k) and the
frame bracket read from them.  The volume form is
dV = i^(d^2) phi^{1..d} ^ phibar^{1..d} and integrate is the linear
functional with integrate(dV) = volume_scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from .exact import CRat, ONE, ZERO, Row, ipow, is_exact
from .forms import (ANTI, HOLO, BasisKey, Field, Form, MixedField, add_term,
                    contract, evaluate, lie01, lie10, wedge, wedge_word)

if TYPE_CHECKING:
    # numpy is imported where a float array is built: the exact layers and
    # the commands built on them never load it
    import numpy as np

# labels for the three families of basis 2-forms in d(phi^k)
HH = "hh"   # phi^i ^ phi^j, i < j
MIX = "mx"  # phi^i ^ phibar^j
AA = "aa"   # phibar^i ^ phibar^j, i < j


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class DiffTerm:
    family: str
    i: int
    j: int
    coeff: CRat


def _word(t: DiffTerm) -> BasisKey:
    """Wedge word of a (2,0) or (1,1) basis label."""
    return ((t.i, t.j), ()) if t.family == HH else ((t.i,), (t.j,))


class LieModel:
    """Compact model manifold described by invariant structure constants."""

    def __init__(self, name: str, dim: int,
                 diff: Dict[int, Sequence[DiffTerm]],
                 volume_scale: Fraction = Fraction(1)):
        self.name = name
        self.dim = dim
        if dim < 1:
            raise ModelError("model %s: dim %d must be at least 1" % (name, dim))
        self.volume_scale = Fraction(volume_scale)
        if self.volume_scale <= 0:
            raise ModelError("volume_scale must be positive")
        norm: Dict[int, Tuple[DiffTerm, ...]] = {}
        for k, terms in diff.items():
            if not 1 <= k <= dim:
                raise ModelError("diff target index %d out of range" % k)
            summed: Dict[Tuple[str, int, int], CRat] = {}
            for t in terms:
                if t.family not in (HH, MIX, AA):
                    raise ModelError("unknown basis family %r" % t.family)
                if t.family in (HH, AA) and not t.i < t.j:
                    raise ModelError("indices must be increasing in %r" % (t,))
                if not (1 <= t.i <= dim and 1 <= t.j <= dim):
                    raise ModelError("index out of range in %r" % (t,))
                add_term(summed, (t.family, t.i, t.j), t.coeff)
            if any(fam == AA for fam, _, _ in summed):
                raise ModelError(
                    "model %s: d(phi^%d) has a (0,2)-component; "
                    "the complex structure is not integrable" % (name, k))
            if summed:
                norm[k] = tuple(DiffTerm(*key, c) for key, c in summed.items())
        self.diff = norm
        # d(phi^k) once per generator; d(phibar^k) is its conjugate
        self.dphi = [InvForm(self, {_word(t): t.coeff for t in norm.get(k, ())})
                     for k in range(1, dim + 1)]
        dphibar = [u.conj() for u in self.dphi]
        # the (field, 2-form part) pairs of the Chevalley-Eilenberg sum by the
        # bidegree shift they make: Z_k with the (1,0)+shift part of
        # d(phi^k), Zbar_k with the (0,1)+shift part of d(phibar^k)
        self._ce_pieces: Dict[Tuple[int, int], list] = {(1, 0): [], (0, 1): []}
        for (a, b), pieces in self._ce_pieces.items():
            for frame, forms, bid in ((self.frame, self.dphi, (1 + a, b)),
                                      (self.frame_bar, dphibar, (a, 1 + b))):
                for k, u in enumerate(forms, start=1):
                    part = [(key, c) for key, c in u.coeffs.items()
                            if (len(key[0]), len(key[1])) == bid]
                    if part:
                        pieces.append((frame(k), part))
        self._check_d_squared()
        self._check_unimodular(dphibar)
        # exact operator rows by (kind, p, q), filled on first use by
        # hodge.operator_rows; the model is not changed after this point,
        # so they never go stale
        self.op_rows: Dict[Tuple[str, int, int], List[Row]] = {}

    # -- construction helpers --

    @staticmethod
    def torus(dim: int, name: Optional[str] = None) -> "LieModel":
        return LieModel(name or ("torus%d" % dim), dim, {})

    def _check_d_squared(self):
        # dd(phibar^k) = conj(dd phi^k), so the phi^k suffice
        for k in range(1, self.dim + 1):
            if self.phi(k).d().d():
                raise ModelError(
                    "model %s: d(d(generator %d)) != 0" % (self.name, k))

    def _check_unimodular(self, dphibar):
        # a Lie group with a lattice has tr ad_X = 0 for every X (Milnor, Adv.
        # Math. 21, 1976, Lemma 6.2).  Reading the bracket from the dphi as
        # ``bracket`` does, tr ad_X = tau(X) for the 1-form below.
        tau = sum((contract(self.frame(k), u) + contract(self.frame_bar(k), v)
                   for k, (u, v) in enumerate(zip(self.dphi, dphibar), 1)),
                  self.zero())
        if tau:
            raise ModelError("model %s is not unimodular: tr ad is the 1-form "
                             "%s, not 0, so it has no compact quotient"
                             % (self.name, tau))

    # -- forms --

    def zero(self) -> "InvForm":
        return InvForm(self, {})

    def form_basis(self, p: int, q: int, key: BasisKey, coeff=ONE) -> "InvForm":
        I_, J_ = key
        assert len(I_) == p and len(J_) == q
        return InvForm(self, {(tuple(I_), tuple(J_)): coeff})

    def basis_keys(self, p: int, q: int) -> List[BasisKey]:
        """I-major keys of the wedge basis at (p,q); [] outside 0..dim, where
        the space is zero."""
        if p < 0 or q < 0:
            return []
        Is = list(combinations(range(1, self.dim + 1), p))
        Js = list(combinations(range(1, self.dim + 1), q))
        return [(Iidx, Jidx) for Iidx in Is for Jidx in Js]

    def phi(self, k: int) -> "InvForm":
        return self.form_basis(1, 0, ((k,), ()))

    def phibar(self, k: int) -> "InvForm":
        return self.form_basis(0, 1, ((), (k,)))

    def volume_form(self) -> "InvForm":
        idx = tuple(range(1, self.dim + 1))
        return self.form_basis(self.dim, self.dim, (idx, idx), ipow(self.dim ** 2))

    def frame(self, k: int, coeff=ONE) -> "InvVectorField":
        return self._frame_field(HOLO, k, coeff)

    def frame_bar(self, k: int, coeff=ONE) -> "InvVectorField":
        return self._frame_field(ANTI, k, coeff)

    def _frame_field(self, kind: str, k: int, coeff) -> "InvVectorField":
        c = [ZERO] * self.dim
        c[k - 1] = coeff
        return InvVectorField(self, kind, c)

    def _derive(self, u: "InvForm", shift: Tuple[int, int]) -> "InvForm":
        """The part of d u = sum_k dphi^k ^ (Z_k . u) + dphibar^k ^ (Zbar_k . u)
        that raises the bidegree by shift: (1, 0) for del, (0, 1) for delbar."""
        out: Dict[BasisKey, object] = {}
        for field, part in self._ce_pieces[shift]:
            for k2, c2 in contract(field, u).coeffs.items():
                for k1, c1 in part:
                    w = wedge_word(k1, k2)
                    if w is not None:
                        add_term(out, w[1], c1 * c2 * w[0])
        return InvForm(self, out)

    def ce_del(self, u: "InvForm") -> "InvForm":
        return self._derive(u, (1, 0))

    def ce_delbar(self, u: "InvForm") -> "InvForm":
        return self._derive(u, (0, 1))

    # -- frame bracket table -------------------------------------------------
    #
    # For invariant 1-forms and frame fields, d(alpha)(X, Y) = -alpha([X, Y]).

    def bracket(self, a, b) -> MixedField:
        holo = [ZERO] * self.dim
        anti = [ZERO] * self.dim
        for k, dphi in enumerate(self.dphi):
            holo[k] = -evaluate(dphi, [a, b])
            anti[k] = -evaluate(dphi.conj(), [a, b])
        h = InvVectorField(self, HOLO, holo) if any(holo) else None
        t = InvVectorField(self, ANTI, anti) if any(anti) else None
        return MixedField(self, h, t)

    def __repr__(self):
        return "LieModel(%r, dim=%d)" % (self.name, self.dim)


class InvForm(Form):
    """Invariant form: coefficients over the wedge basis phi_I ^ phibar_J.

    Coefficients are CRat in exact mode; python complex is accepted and
    propagates (float mode), which is what the Hodge/flow layer produces.
    """

    __slots__ = ()
    LETTERS = ("f", "b")

    model = property(lambda self: self.space)

    def zero_coeff(self):
        return ZERO

    def del_(self) -> "InvForm":
        return self.space.ce_del(self)

    def delbar(self) -> "InvForm":
        return self.space.ce_delbar(self)

    def is_exact_coeffs(self) -> bool:
        return all(is_exact(c) for c in self.coeffs.values())

    def to_vector(self, p: int, q: int) -> np.ndarray:
        import numpy as np
        keys = self.model.basis_keys(p, q)
        return np.array([complex(self.coeffs.get(k, ZERO)) for k in keys],
                        dtype=complex)

    @staticmethod
    def from_vector(model: LieModel, p: int, q: int, vec) -> "InvForm":
        keys = model.basis_keys(p, q)
        return InvForm(model, {k: complex(v) for k, v in zip(keys, vec)})

    def norm(self) -> float:
        return math.sqrt(sum(abs(complex(c)) ** 2
                             for c in self.coeffs.values()))


def wedge_power(u: InvForm, k: int) -> InvForm:
    acc = u
    for _ in range(k - 1):
        acc = wedge(acc, u)
    return acc


class InvVectorField(Field):
    """Frame-constant (1,0) or (0,1) field on a LieModel."""

    __slots__ = ()

    model = property(lambda self: self.space)

    def bracket(self, other: "InvVectorField") -> MixedField:
        return self.space.bracket(self, other)


def integrate(u: InvForm):
    """Integral of a top-bidegree invariant form.

    Normalized so that integrate(dV) = volume_scale for
    dV = i^(d^2) phi^{1..d} ^ phibar^{1..d}; exact CRat in, exact CRat out,
    complex in float mode.
    """
    m = u.model
    d = m.dim
    bad = [b for b in u.bidegrees() if b != (d, d)]
    if bad:
        raise ValueError("integrate needs a (%d,%d)-form, found bidegrees %s"
                         % (d, d, sorted(bad)))
    idx = tuple(range(1, d + 1))
    c = u.coeffs.get((idx, idx), ZERO)
    factor = ipow(-(d * d)) * CRat(m.volume_scale)
    out = c * factor
    return out


# -- operator matrices over the wedge bases -----------------------------------


def operator_rows_exact(model: LieModel, op, p: int, q: int,
                        p_out: int, q_out: int) -> List[Row]:
    """Matrix of a linear operator between wedge bases as sparse rows
    {column: coefficient} of its nonzero entries; exact CRat rows when op
    has exact coefficients."""
    index = {k: i for i, k in enumerate(model.basis_keys(p_out, q_out))}
    rows: List[Row] = [{} for _ in index]
    for col, key in enumerate(model.basis_keys(p, q)):
        for k2, c in op(model.form_basis(p, q, key)).coeffs.items():
            rows[index[k2]][col] = c
    return rows


def operator_matrix(rows: List[Row], ncols: int) -> np.ndarray:
    """Dense complex matrix of sparse rows with ncols columns."""
    import numpy as np
    A = np.zeros((len(rows), ncols), dtype=complex)
    for r, row in enumerate(rows):
        for col, c in row.items():
            A[r, col] = complex(c)
    return A


def expm(A: np.ndarray) -> np.ndarray:
    """exp(A) for a small square complex matrix.

    A diagonal A gives the exponential of its diagonal, as in
    ``scipy.linalg.expm``.  Otherwise scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26, 2005): with ||A / 2^j||_1 < 2, the degree-24
    Taylor polynomial of A / 2^j, whose remainder is below 3e-18, squared j
    times.
    """
    import numpy as np
    diag = np.diagonal(A)
    if np.count_nonzero(A) == np.count_nonzero(diag):
        return np.diag(np.exp(diag))
    # the least j >= 0 with ||A||_1 < 2^(j+1); a non-finite norm gives j = 0
    j = max(0, int(np.frexp(np.abs(A).sum(axis=0).max() / 2)[1]))
    X = A / 2.0 ** j
    eye = np.eye(len(A), dtype=complex)
    E = eye
    for k in range(24, 0, -1):
        E = eye + X @ E / k
    for _ in range(j):
        E = E @ E
    return E


def flow_pullback(field: InvVectorField, s: float, u: InvForm,
                  generators: Optional[dict] = None) -> InvForm:
    """exp(s * L) applied on the invariant space of u's bidegree.

    ``generators`` holds the Lie-derivative matrices L of ``field`` by
    bidegree; calls that share it build each L once.
    """
    generators = {} if generators is None else generators
    bid = u.bidegree()
    if bid is None:
        out = u.model.zero()
        for (p, q) in sorted(u.bidegrees()):
            part = InvForm(u.model, {k: c for k, c in u.coeffs.items()
                                     if (len(k[0]), len(k[1])) == (p, q)})
            out = out + flow_pullback(field, s, part, generators)
        return out
    p, q = bid
    if bid not in generators:
        lie = lie10 if field.kind == HOLO else lie01
        rows = operator_rows_exact(u.model, lambda v: lie(field, v),
                                   p, q, p, q)
        generators[bid] = operator_matrix(rows, len(rows))
    L = generators[bid]
    vec = u.to_vector(p, q)
    res = expm(s * L) @ vec
    return InvForm.from_vector(u.model, p, q, res)


# -- model file format ---------------------------------------------------------
#
# Plain text, one field per line:
#
#   name iwasawa
#   dim 3
#   volume_scale 1
#   diff 3 12 -1 0
#   diff 3 1~2 0/1 1/2
#
# A diff line is: target index k, basis label, re, im with exact Fraction
# syntax for the two rational parts.  Labels: "ij" for phi^i^phi^j,
# "i~j" for phi^i^phibar^j, "~i~j" for phibar^i^phibar^j.


def data_lines(text: str) -> Iterator[Tuple[int, str, List[str]]]:
    """(line number, line, tokens) of each line left non-blank once its
    '#' comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line, line.split()


class ParseError(ValueError):
    def __init__(self, path: str, lineno: int, msg: str):
        super().__init__("%s:%d: %s" % (path, lineno, msg))
        self.path = path
        self.lineno = lineno


def _parse_label(label: str) -> Tuple[str, int, int]:
    if label.startswith("~"):
        body = label[1:]
        if "~" not in body:
            raise ValueError("bad label %r" % label)
        i, j = body.split("~")
        return (AA, int(i), int(j))
    if "~" in label:
        i, j = label.split("~")
        return (MIX, int(i), int(j))
    if len(label) == 2 and label.isdigit():
        return (HH, int(label[0]), int(label[1]))
    raise ValueError("bad label %r" % label)


def _format_label(t: DiffTerm) -> str:
    if t.family == HH:
        return "%d%d" % (t.i, t.j)
    if t.family == MIX:
        return "%d~%d" % (t.i, t.j)
    return "~%d~%d" % (t.i, t.j)


def parse_model(text: str, path: str = "<model>") -> LieModel:
    name = None
    dim = None
    vol = Fraction(1)
    diff: Dict[int, List[DiffTerm]] = {}
    for lineno, line, parts in data_lines(text):
        try:
            if parts[0] == "name" and len(parts) == 2:
                name = parts[1]
            elif parts[0] == "dim" and len(parts) == 2:
                dim = int(parts[1])
            elif parts[0] == "volume_scale" and len(parts) == 2:
                vol = Fraction(parts[1])
            elif parts[0] == "diff" and len(parts) == 5:
                k = int(parts[1])
                fam, i, j = _parse_label(parts[2])
                coeff = CRat(Fraction(parts[3]), Fraction(parts[4]))
                diff.setdefault(k, []).append(DiffTerm(fam, i, j, coeff))
            else:
                raise ValueError("unrecognized line %r" % line)
        except (ValueError, IndexError, ZeroDivisionError) as e:
            raise ParseError(path, lineno, str(e)) from None
    if name is None or dim is None:
        raise ParseError(path, 0, "model file must define 'name' and 'dim'")
    try:
        return LieModel(name, dim, diff, vol)
    except ModelError as e:
        raise ParseError(path, 0, str(e)) from None


def format_model(m: LieModel) -> str:
    lines = ["name %s" % m.name, "dim %d" % m.dim,
             "volume_scale %s" % m.volume_scale]
    for k in sorted(m.diff):
        for t in m.diff[k]:
            lines.append("diff %d %s %s %s" % (k, _format_label(t),
                                               t.coeff.re, t.coeff.im))
    return "\n".join(lines) + "\n"


def load_model(path) -> LieModel:
    with open(path) as fh:
        return parse_model(fh.read(), str(path))
