"""Membership checks and the pairing machinery for map spaces.

Objects: a balanced target (positive (1,1)-form with closed top-minus-one
power), coframe-compatible maps into it, and tuples of volume-preserving
holomorphic fields paired through a potential of the pulled-back power.

The two double-sum residuals defining the admissible tuple space, the
reversal-sign identities used to move a pairing under the integral, and the
derivative-of-contraction closed formulas are written once over the shared
form algebra of ``balmap.forms``, so they are exercised exactly on the
polynomial chart and to float tolerance (exactly, for rational data) on
invariant models.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exact import CRat, ONE, I, exact_rank, largest_size
from .forms import contract, evaluate, lie01, lie10, lie_bracket, wedge
from .invariant import (ANTI, HOLO, InvForm, InvVectorField, LieModel,
                        data_lines, flow_pullback, integrate, wedge_power,
                        ParseError)
from .hodge import (ClassObstructionError, HermitianMetricSpec, MetricContext,
                    exact_ddbar_solve, neumann_gamma, operator_rows)


# -- the sign-critical identities ----------------------------------------------


def iterated_contraction(xis: Sequence, etabars: Sequence, dV):
    """xi_1 . ... . xi_m . etabar_1 . ... . etabar_m . dV (rightmost first)."""
    fields = list(xis) + list(etabars)
    acc = dV
    for v in reversed(fields):
        acc = contract(v, acc)
    return acc


def tuple_residual_forms(xis: Sequence, etabars: Sequence, dV):
    """The two double-sum residual forms on a candidate tuple.

    Returns (res_bar, res_del): res_bar is the bracket sum built from the
    antiholomorphic slots (it must annihilate dV for the delbar half), and
    res_del the mirrored sum from the holomorphic slots.  Membership of the
    tuple is the vanishing of both.
    """
    m = len(xis)
    n = m + 2

    def half(primary: Sequence, secondary: Sequence):
        # primary plays the role of the slots whose like-type brackets appear
        acc = type(dV).zero(dV.space)
        for l in range(2, n):
            a = n - l  # index of the distinguished primary slot, 1-based
            for r in range(1, n - l):
                sign = (-1) ** (n + 1 - l - r)
                br = lie_bracket(primary[a - 1], primary[r - 1])
                rest = [primary[k - 1] for k in range(m, 0, -1) if k not in (a, r)]
                others = [secondary[k - 1] for k in range(m, 0, -1)]
                term = iterated_contraction([], [br] + rest + others, dV)
                acc = acc + _scale(term, sign)
            for r in range(1, n - 1):
                sign = (-1) ** (l + r + 1)
                br = lie_bracket(primary[a - 1], secondary[r - 1])
                rest = [primary[k - 1] for k in range(m, 0, -1) if k != a]
                others = [secondary[k - 1] for k in range(m, 0, -1) if k != r]
                term = iterated_contraction([], [br] + rest + others, dV)
                acc = acc + _scale(term, sign)
        return acc

    res_bar = half(list(etabars), list(xis))
    res_del = half(list(xis), list(etabars))
    return res_bar, res_del


def _scale(form, c: int):
    return form.scale(CRat(c)) if c != 1 else form


def contraction_derivative_check(xis, etabars, dV):
    """Derivative of the iterated contraction against the closed double sums.

    Returns (ok_del, ok_delbar, lhs_del, rhs_del, lhs_delbar, rhs_delbar):
    the del of xi_1 . ... . etabar_m . dV must equal the holomorphic-slot
    sum, the delbar the antiholomorphic-slot sum.  Exact comparison.
    """
    C = iterated_contraction(xis, etabars, dV)
    lhs_del = C.del_()
    lhs_delbar = C.delbar()
    res_bar, res_del = tuple_residual_forms(xis, etabars, dV)
    return (lhs_del == res_del, lhs_delbar == res_bar,
            lhs_del, res_del, lhs_delbar, res_bar)


def reversal_sign_check(form, xis, etabars, dV) -> bool:
    """(form)(xi_1..xi_m, etabar_1..etabar_m) dV against the wedge reversal.

    The pointwise identity: evaluating a (m,m)-form on the tuple and
    multiplying dV equals (-1)^m times the form wedged with the iterated
    contraction of dV.  Holds for arbitrary smooth fields; exact here.
    """
    m = len(xis)
    lhs = dV.scale(evaluate(form, list(xis) + list(etabars)))
    rhs = _scale(wedge(form, iterated_contraction(xis, etabars, dV)), (-1) ** m)
    return lhs == rhs


# -- balanced targets and map specs ----------------------------------------------


class ValidationError(ValueError):
    pass


class BalancedTarget:
    """Model with a positive (1,1)-form whose (n-1) power is closed."""

    def __init__(self, model: LieModel, omega: InvForm):
        if omega.bidegree() != (1, 1):
            raise ValidationError("omega must be a (1,1)-form")
        if not omega.is_exact_coeffs():
            raise ValidationError("omega must have exact coefficients")
        self.model = model
        self.omega = omega
        n = model.dim
        self.n = n
        gram = self.hermitian_matrix()
        eig = np.linalg.eigvalsh(gram)
        if eig.min() <= 0:
            raise ValidationError(
                "omega is not positive definite (min eigenvalue %.3e)" % eig.min())
        power = (wedge_power(omega, n - 1) if n > 1
                 else InvForm(model, {((), ()): ONE}))
        self.omega_top_minus_one = power.scale(CRat(Fraction(1, math.factorial(n - 1))))
        if self.omega_top_minus_one.d():
            raise ValidationError("d(omega^(n-1)) != 0: the form is not balanced")

    def hermitian_matrix(self) -> np.ndarray:
        n = self.model.dim
        h = np.zeros((n, n), dtype=complex)
        for (I_, J_), c in self.omega.coeffs.items():
            h[I_[0] - 1, J_[0] - 1] = complex(c / I)
        if np.linalg.norm(h - h.conj().T) > 1e-12:
            raise ValidationError("omega coefficient matrix is not Hermitian")
        return h


class MapSpec:
    """Coframe-compatible map between models, given by an n x d matrix."""

    def __init__(self, name: str, source: LieModel, target: BalancedTarget,
                 matrix: Sequence[Sequence[CRat]]):
        self.name = name
        self.source = source
        self.target = target
        n, d = target.model.dim, source.dim
        if d < n - 1:
            raise ValidationError(
                "source dimension %d must be at least %d" % (d, n - 1))
        if len(matrix) != n or any(len(row) != d for row in matrix):
            raise ValidationError("matrix must be %d x %d" % (n, d))
        self.matrix = [[c if isinstance(c, CRat) else CRat(c) for c in row]
                       for row in matrix]
        self._check_compatibility()

    def _pull_letter(self, k: int) -> InvForm:
        """f* phi^k on the source; f* phibar^k is its conjugate."""
        out = self.source.zero()
        for j, c in enumerate(self.matrix[k - 1], start=1):
            if c:
                out = out + self.source.phi(j).scale(c)
        return out

    def pullback(self, u: InvForm) -> InvForm:
        if u.model is not self.target.model:
            raise ValidationError("form does not live on the target model")
        out = self.source.zero()
        for (Iidx, Jidx), c in u.coeffs.items():
            term = InvForm(self.source, {((), ()): c})
            for i in Iidx:
                term = wedge(term, self._pull_letter(i))
            for j in Jidx:
                term = wedge(term, self._pull_letter(j).conj())
            out = out + term
        return out

    def _check_compatibility(self):
        X = self.target.model
        for k in range(1, X.dim + 1):
            lhs = self.pullback(X.phi(k).d())
            rhs = self._pull_letter(k).d()
            if lhs != rhs:
                raise ValidationError(
                    "map %s: pullback does not commute with d on generator %d "
                    "(holomorphy/compatibility failure)" % (self.name, k))

    def pulled_power(self) -> InvForm:
        """f* of omega^(n-1)/(n-1)! on the source."""
        return self.pullback(self.target.omega_top_minus_one)

    def __repr__(self):
        return "MapSpec(%r: %s -> %s)" % (self.name, self.source.name,
                                          self.target.model.name)


# -- membership checks ------------------------------------------------------------


@dataclass
class MembershipReport:
    member: bool
    gamma: Optional[InvForm] = None
    obstruction: Optional[str] = None
    impossibility: Optional[str] = None
    pulled_norm: float = 0.0
    residual: float = 0.0   # of i ddbar Gamma = f* omega^(n-1)
    scope_note: str = ("membership certified within the invariant complex "
                       "of the source model")


def x_membership(f: MapSpec) -> MembershipReport:
    """Does the pulled-back power admit an invariant potential?  The
    residual is 0 for the exact potential, else the least-squares residual
    of neumann_gamma under the flat metric."""
    P = f.pulled_power()
    d, n = f.source.dim, f.target.n
    gamma = exact_ddbar_solve(f.source, P)
    if gamma is not None:
        return MembershipReport(member=True, gamma=gamma, pulled_norm=P.norm())
    msg = "pulled-back power is not ddbar-exact on the invariant complex"
    imp = None
    if d == n - 1:
        total = integrate(P)
        imp = ("source dimension equals target dimension minus one and the "
               "pulled-back power integrates to %r > 0; by Stokes a "
               "ddbar-exact top form would integrate to zero, so membership "
               "is impossible for a somewhere non-degenerate map" % (total,))
    try:
        neumann_gamma(P, HermitianMetricSpec.flat(f.source))
    except ClassObstructionError as e:
        return MembershipReport(member=False, obstruction=msg,
                                impossibility=imp, pulled_norm=P.norm(),
                                residual=e.residual)
    raise ArithmeticError("exact and least-squares ddbar solves disagree")


@dataclass
class FieldCertificate:
    holomorphic: bool
    volume_preserving: bool
    dbar_norm: float
    lie_volume_norm: float

    @property
    def member(self) -> bool:
        return self.holomorphic and self.volume_preserving


def _dbar_entries(xi: InvVectorField) -> list:
    """The (b, k) entries of dbar xi: the phibar^b coefficient of
    xi . d phi^k (only dbar phi^k reaches it)."""
    parts = [contract(xi, u) for u in xi.model.dphi]
    return [u.coefficient((), (b,)) for b in range(1, xi.model.dim + 1)
            for u in parts]


def lie_g_membership(xi: InvVectorField) -> FieldCertificate:
    """Holomorphy and volume preservation of an invariant (1,0)-field.

    Holomorphy is read from the entries of dbar xi; exact entries give an
    exact verdict."""
    if xi.kind != HOLO:
        raise ValidationError("membership applies to (1,0)-fields")
    dbar = _dbar_entries(xi)
    dbar_norm = float(np.sqrt(sum(abs(complex(c)) ** 2 for c in dbar)))
    lv = lie10(xi, xi.model.volume_form())
    return FieldCertificate(holomorphic=not any(dbar),
                            volume_preserving=not lv,
                            dbar_norm=dbar_norm,
                            lie_volume_norm=lv.norm())


class MomentTuple:
    """Candidate tuple (xi_1..xi_m, etabar_1..etabar_m) with certificates."""

    def __init__(self, xis: Sequence[InvVectorField],
                 etabars: Sequence[InvVectorField],
                 gamma_policy: str = "neumann"):
        if len(xis) != len(etabars):
            raise ValidationError("tuple needs equally many xi and etabar slots")
        if any(v.kind != HOLO for v in xis) or any(v.kind != ANTI for v in etabars):
            raise ValidationError("xi slots must be (1,0), etabar slots (0,1)")
        if gamma_policy not in ("neumann", "any-solution"):
            raise ValidationError("gamma_policy must be neumann or any-solution")
        self.xis = list(xis)
        self.etabars = list(etabars)
        self.gamma_policy = gamma_policy

    @property
    def arity(self) -> int:
        return len(self.xis)

    def model(self) -> LieModel:
        return self.xis[0].model if self.xis else None

    def field_certificates(self) -> List[FieldCertificate]:
        certs = [lie_g_membership(xi) for xi in self.xis]
        certs += [lie_g_membership(eb.conj()) for eb in self.etabars]
        return certs


ADMISSIBLE_TOL = 1e-12


@dataclass
class PgReport:
    member: bool
    residual_bar: float
    residual_del: float
    lie_g_ok: bool
    swap_member: bool
    swap_symmetric: bool


def pg_membership(t: MomentTuple, model: Optional[LieModel] = None) -> PgReport:
    """Vanishing of the two bracket-contraction sums against the volume form.

    A sum with exact coefficients vanishes only as the zero form; a float one
    when its norm is at most ``ADMISSIBLE_TOL``.  Both slot orientations are
    tested; an asymmetry between the tuple and its conjugate-swapped partner
    is reported rather than assumed away.
    """
    model = model or t.model()
    if model is None:
        raise ValidationError("an arity-0 tuple names no model; pass the "
                              "model to pg_membership")
    dV = model.volume_form()

    def residuals(xis, etabars):
        forms = tuple_residual_forms(xis, etabars, dV)
        member = all(not u if u.is_exact_coeffs()
                     else u.norm() <= ADMISSIBLE_TOL for u in forms)
        return member, forms[0].norm(), forms[1].norm()

    member, rb, rd = residuals(t.xis, t.etabars)
    swap_member = residuals([eb.conj() for eb in t.etabars],
                            [xi.conj() for xi in t.xis])[0]
    lie_ok = all(c.member for c in t.field_certificates())
    return PgReport(member=member, residual_bar=rb, residual_del=rd,
                    lie_g_ok=lie_ok, swap_member=swap_member,
                    swap_symmetric=member == swap_member)


# -- the pairing and its invariances ----------------------------------------------


def omega_eval(f: MapSpec, fields: Sequence[InvVectorField]) -> complex:
    """Integral pairing of the pulled-back power against 2(n-1) fields."""
    n = f.target.n
    if len(fields) != 2 * (n - 1):
        raise ValidationError("need %d field arguments" % (2 * (n - 1)))
    P = f.pulled_power()
    c = evaluate(P, fields)
    return complex(c * CRat(f.source.volume_scale))


def _gamma_for(f: MapSpec, policy: str) -> InvForm:
    """The flat-metric minimal potential, or under "any-solution" an exact
    one where it exists; neumann_gamma raises ClassObstructionError."""
    P = f.pulled_power()
    if policy != "neumann":
        gamma = exact_ddbar_solve(f.source, P)
        if gamma is not None:
            return gamma
    return neumann_gamma(P, HermitianMetricSpec.flat(f.source))


def pairing_value(gamma: InvForm, t: MomentTuple, model: LieModel) -> complex:
    c = evaluate(gamma, t.xis + t.etabars)
    return 1j * complex(c) * float(model.volume_scale)


def _check_tuple(f: MapSpec, t: MomentTuple, admissible: bool = True) -> None:
    """Raise ValidationError unless the tuple's arity fits the target and,
    when `admissible` is asked for, both bracket-contraction sums vanish."""
    n = f.target.n
    if t.arity != n - 2:
        raise ValidationError("tuple arity %d does not match target dimension %d"
                              % (t.arity, n))
    if admissible:
        pg = pg_membership(t, f.source)
        if not pg.member:
            raise ValidationError("tuple is not admissible: residuals (%.3e, %.3e)"
                                  % (pg.residual_bar, pg.residual_del))


def mu_eval(f: MapSpec, t: MomentTuple,
            gamma_policy: Optional[str] = None) -> complex:
    """i * integral of Gamma(tuple) dV with Gamma under the chosen policy."""
    _check_tuple(f, t)
    gamma = _gamma_for(f, gamma_policy or t.gamma_policy)
    return pairing_value(gamma, t, f.source)


@dataclass
class GaugeReport:
    base_value: complex
    max_deviation: float
    deviations: List[float]
    reversal_ok: bool
    closure_del_norm: float
    closure_delbar_norm: float
    shift_rank: int   # of beta -> delbar beta; 0 when every shift vanishes


def well_definedness_check(f: MapSpec, t: MomentTuple,
                           trials: int = 20, seed: int = 0) -> GaugeReport:
    """Pairing invariance under potential shifts by del/delbar images.

    Samples random invariant (n-2, n-3)-forms beta and shifts Gamma by
    del(conj beta) + delbar(beta); for admissible tuples the pairing is
    unchanged.  Also asserts the two reversal-sign identities and the
    closure consequence (derivatives of the iterated contraction vanish).
    An inadmissible tuple is measured, not rejected; its arity must fit.
    The shifts are delbar(beta) plus its conjugate, so all are zero exactly
    when ``shift_rank``, delbar's exact rank on the (n-2, n-3)-forms, is 0.
    """
    _check_tuple(f, t, admissible=False)
    model = f.source
    n = f.target.n
    gamma = _gamma_for(f, t.gamma_policy)
    base = pairing_value(gamma, t, model)
    rng = random.Random(seed)
    p, q = n - 2, n - 3
    keys = model.basis_keys(p, q)
    devs = []
    dV = model.volume_form()
    reversal_ok = True
    for _ in range(trials):
        beta = model.zero()
        for k in keys:
            c = CRat(Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                     Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
            if c:
                beta = beta + model.form_basis(p, q, k, c)
        pieces = (model.ce_del(beta.conj()), model.ce_delbar(beta))
        shift = pieces[0] + pieces[1]
        if shift.is_exact_coeffs():
            for piece in pieces:
                if not reversal_sign_check(piece, t.xis, t.etabars, dV):
                    reversal_ok = False
        shifted = gamma + InvForm(model, {k: complex(c)
                                          for k, c in shift.coeffs.items()})
        val = pairing_value(shifted, t, model)
        devs.append(abs(val - base))
    C = iterated_contraction(t.xis, t.etabars, dV)
    closure_del = C.del_().norm()
    closure_delbar = C.delbar().norm()
    rank = exact_rank(operator_rows(model, "delbar", p, q))
    return GaugeReport(base_value=base, max_deviation=max(devs) if devs else 0.0,
                       deviations=devs, reversal_ok=reversal_ok,
                       closure_del_norm=closure_del,
                       closure_delbar_norm=closure_delbar, shift_rank=rank)


# -- flow-derivative confirmation ---------------------------------------------------


@dataclass
class FlowStepRecord:
    h: float
    error: float
    rel_error: float
    obstruction: Optional[str] = None


@dataclass
class FlowReport:
    target: InvForm   # etabar . xi . (pulled power), exact on exact input
    steps: List[FlowStepRecord]
    orders: List[float]
    trivial: bool

    @property
    def target_norm(self) -> float:
        return self.target.norm()

    @property
    def observed_order(self) -> float:
        return min(self.orders) if self.orders else float("inf")

    @property
    def ok(self) -> bool:
        return all(s.obstruction is None for s in self.steps)


def flow_derivative_check(f: MapSpec, xi: InvVectorField, eta: InvVectorField,
                          steps: Sequence[float] = (1e-1, 5e-2, 2.5e-2)) -> FlowReport:
    """Mixed finite difference of the potential family against the contraction.

    The family precomposes the map with the holomorphic flow of xi in the
    first parameter and the conjugate flow of eta in the second; for each
    stencil point the pulled-back power must stay solvable (each failure is
    recorded as a per-step obstruction).  The centered 3x3 product stencil
    (corner weights; center row and column drop out) approximates the mixed
    second derivative of the potential at the origin, which is compared
    componentwise with etabar . xi . (pulled power).  All corners share one
    MetricContext and each field's Lie-derivative matrices.
    """
    for h in steps:
        if not (math.isfinite(h) and h > 0):
            raise ValidationError("step %r is not a positive finite number" % h)
    if len(set(steps)) != len(steps) or len(steps) < 2:
        raise ValidationError("steps %r need two or more distinct values to "
                              "measure a convergence order" % (list(steps),))
    model = f.source
    if xi.kind != HOLO or eta.kind != HOLO:
        raise ValidationError("flow fields must be (1,0)")
    for name, v in (("xi", xi), ("eta", eta)):
        cert = lie_g_membership(v)
        if not cert.member:
            raise ValidationError(
                "flow field %s is not holomorphic volume preserving: "
                "holomorphic=%s (largest dbar entry %s), volume_preserving=%s "
                "(largest L_xi dV coefficient %s)"
                % (name, cert.holomorphic, largest_size(_dbar_entries(v)),
                   cert.volume_preserving,
                   largest_size(lie10(v, model.volume_form()).coeffs.values())))
    P = f.pulled_power()
    etabar = eta.conj()
    A = contract(etabar, contract(xi, P))
    a_norm = A.norm()
    # decided on the exact forms: a float norm of A may underflow to 0
    trivial = not A and not lie10(xi, P) and not lie01(etabar, P)

    ctx = MetricContext(HermitianMetricSpec.flat(model))
    xi_gens, eta_gens = {}, {}  # Lie-derivative matrices by bidegree

    def gamma_at(s: float, tt: float) -> InvForm:
        G = flow_pullback(etabar, tt, flow_pullback(xi, s, P, xi_gens),
                          eta_gens)
        return neumann_gamma(G, ctx)

    records: List[FlowStepRecord] = []
    for h in steps:
        try:
            corners = {(es, et): gamma_at(es * h, et * h)
                       for es in (+1, -1) for et in (+1, -1)}
        except ClassObstructionError as e:
            records.append(FlowStepRecord(h=h, error=float("nan"),
                                          rel_error=float("nan"),
                                          obstruction=str(e)))
            continue
        fd = model.zero()
        for (es, et), g in corners.items():
            fd = fd + g.scale(es * et / (4.0 * h * h))
        approx = fd.scale(1j)
        err_form = approx - A
        err = max((abs(complex(c)) for c in err_form.coeffs.values()), default=0.0)
        # no relative error against a nonzero target whose float norm
        # underflows; a zero target's is the absolute one
        rel = err / a_norm if a_norm else math.nan if A else err
        records.append(FlowStepRecord(h=h, error=err, rel_error=rel))
    orders = []
    for a, b in zip(records, records[1:]):
        if a.obstruction or b.obstruction:
            continue
        if a.error > 0 and b.error > 0:
            orders.append(math.log(a.error / b.error) / math.log(a.h / b.h))
    return FlowReport(target=A, steps=records, orders=orders, trivial=trivial)


# conjugation-swap convention: swapping the two blocks and conjugating maps
# the pairing to (-1)^(n+1) times its complex conjugate.


def conjugation_swap_value(f: MapSpec, t: MomentTuple) -> Tuple[complex, complex]:
    """(mu of swapped-conjugated tuple, expected value from conjugation)."""
    n = f.target.n
    swapped = MomentTuple([eb.conj() for eb in t.etabars],
                          [xi.conj() for xi in t.xis],
                          gamma_policy=t.gamma_policy)
    mu = mu_eval(f, t)
    mu_swapped = mu_eval(f, swapped)
    expected = ((-1) ** (n + 1)) * mu.conjugate()
    return mu_swapped, expected


# -- chart-backend randomized laws ---------------------------------------------------
#
# each imports the chart calculus (``balmap.symalg``) itself, so the commands
# that run on invariant models never load it


def chart_tuple_fields(rng: random.Random, dim: int, m: int):
    """m volume-preserving holomorphic fields and their conjugates."""
    from . import symalg
    xis = [symalg.random_divergence_free_holomorphic_field(rng, dim)
           for _ in range(m)]
    etas = [symalg.random_divergence_free_holomorphic_field(rng, dim)
            for _ in range(m)]
    return xis, [e.conj() for e in etas]


def chart_contraction_derivative_trials(n: int, dim: int, seed: int = 0,
                                        trials: int = 5) -> bool:
    """Exact check of the closed double-sum formulas on the chart."""
    from . import symalg
    rng = random.Random(seed)
    dV = symalg.standard_volume(dim)
    m = n - 2
    for _ in range(trials):
        xis, etabars = chart_tuple_fields(rng, dim, m)
        okd, okdb, *_ = contraction_derivative_check(xis, etabars, dV)
        if not (okd and okdb):
            return False
    return True


def chart_reversal_trials(n: int, dim: int, seed: int = 0,
                          trials: int = 5) -> bool:
    """Exact reversal-sign identities for arbitrary smooth fields."""
    from . import symalg
    rng = random.Random(seed)
    dV = symalg.standard_volume(dim)
    m = n - 2
    for _ in range(trials):
        xis = [symalg.random_field(rng, dim) for _ in range(m)]
        etabars = [symalg.random_field(rng, dim, symalg.ANTI) for _ in range(m)]
        beta = symalg.random_form(rng, dim, m, max(m - 1, 0), nterms=1)
        for piece in (symalg.chart_del(beta.conj()), symalg.chart_delbar(beta)):
            if not reversal_sign_check(piece, xis, etabars, dV):
                return False
    return True


def invariant_contraction_derivative_check(model: LieModel,
                                           xis, etabars) -> bool:
    dV = model.volume_form()
    okd, okdb, *_ = contraction_derivative_check(xis, etabars, dV)
    return okd and okdb


# -- map / tuple file formats ---------------------------------------------------------
#
#   map iwasawa_to_t3
#   source iwasawa
#   target torus3
#   row 1  1 0  0 0  0 0      # k then d pairs "re im" (Fraction syntax)
#
#   tuple z3_pair
#   model iwasawa
#   gamma_policy neumann
#   xi     0 0  0 0  1 0
#   etabar 0 0  0 0  1 0


def parse_mapspec(text: str, models: Dict[str, LieModel],
                  path: str = "<map>") -> MapSpec:
    from .catalog import standard_metric_form
    name = source = target = None
    rows: Dict[int, List[CRat]] = {}
    omega_terms: List[Tuple[int, int, CRat]] = []
    for lineno, line, parts in data_lines(text):
        try:
            if parts[0] == "map":
                name = parts[1]
            elif parts[0] == "source":
                source = parts[1]
            elif parts[0] == "target":
                target = parts[1]
            elif parts[0] == "row":
                k = int(parts[1])
                vals = parts[2:]
                if len(vals) % 2:
                    raise ValueError("row needs re/im pairs")
                rows[k] = [CRat(Fraction(vals[2 * j]), Fraction(vals[2 * j + 1]))
                           for j in range(len(vals) // 2)]
            elif parts[0] == "omega":
                j, k = int(parts[1]), int(parts[2])
                omega_terms.append((j, k, CRat(Fraction(parts[3]), Fraction(parts[4]))))
            else:
                raise ValueError("unrecognized line %r" % line)
        except (ValueError, IndexError, ZeroDivisionError) as e:
            raise ParseError(path, lineno, str(e)) from None
    if not (name and source and target):
        raise ParseError(path, 0, "map file needs 'map', 'source', 'target'")
    if source not in models:
        raise ParseError(path, 0, "unknown source model %r" % source)
    if target not in models:
        raise ParseError(path, 0, "unknown target model %r" % target)
    src, tgt = models[source], models[target]
    if omega_terms:
        omega = InvForm(tgt, {((j,), (k,)): c for j, k, c in omega_terms})
    else:
        omega = standard_metric_form(tgt)
    bt = BalancedTarget(tgt, omega)
    n = tgt.dim
    matrix = []
    for k in range(1, n + 1):
        if k not in rows:
            raise ParseError(path, 0, "missing row %d" % k)
        if len(rows[k]) != src.dim:
            raise ParseError(path, 0, "row %d needs %d entries" % (k, src.dim))
        matrix.append(rows[k])
    try:
        return MapSpec(name, src, bt, matrix)
    except ValidationError as e:
        raise ParseError(path, 0, str(e)) from None


def parse_tuple(text: str, models: Dict[str, LieModel],
                path: str = "<tuple>") -> Tuple[str, MomentTuple]:
    name = None
    model = None
    policy = "neumann"
    xis: List[InvVectorField] = []
    etabars: List[InvVectorField] = []
    for lineno, line, parts in data_lines(text):
        try:
            if parts[0] == "tuple":
                name = parts[1]
            elif parts[0] == "model":
                model = models[parts[1]]
            elif parts[0] == "gamma_policy":
                policy = parts[1]
            elif parts[0] in ("xi", "etabar"):
                if model is None:
                    raise ValueError("'model' must come before field lines")
                vals = parts[1:]
                if len(vals) != 2 * model.dim:
                    raise ValueError("need %d re/im pairs" % model.dim)
                coeffs = [CRat(Fraction(vals[2 * j]), Fraction(vals[2 * j + 1]))
                          for j in range(model.dim)]
                if parts[0] == "xi":
                    xis.append(InvVectorField(model, HOLO, coeffs))
                else:
                    etabars.append(InvVectorField(model, ANTI, coeffs))
            else:
                raise ValueError("unrecognized line %r" % line)
        except KeyError:
            raise ParseError(path, lineno, "unknown model %r" % parts[1]) from None
        except (ValueError, IndexError, ZeroDivisionError) as e:
            raise ParseError(path, lineno, str(e)) from None
    if name is None or model is None:
        raise ParseError(path, 0, "tuple file needs 'tuple' and 'model'")
    try:
        return name, MomentTuple(xis, etabars, policy)
    except ValidationError as e:
        raise ParseError(path, 0, str(e)) from None


def load_mapspec(path, models) -> MapSpec:
    with open(path) as fh:
        return parse_mapspec(fh.read(), models, str(path))


def load_tuple(path, models):
    with open(path) as fh:
        return parse_tuple(fh.read(), models, str(path))
