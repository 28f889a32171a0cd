"""Metric-dependent operators on the invariant complex.

The coframe Gram matrix induces inner products on every wedge space by
minors (compound matrices, by Cauchy-Binet).  del, delbar and ddbar are exact
sparse rows over the wedge bases, built once per model (ddbar as the product
of the other two); a MetricContext densifies them and orthonormalizes them
through the Cholesky factor of the Gram, so adjoints are plain conjugate
transposes and the Laplacian is an honest Hermitian matrix.
A bidegree outside 0..dim is a zero-dimensional space, so boundary terms need
no special cases.

Cohomology dimensions never touch the metric: they are exact ranks over the
Gaussian rationals.  The Green operator and the minimal solution of the
ddbar-equation are floating point with pinned tolerances, while whether an
exact target has a solution is decided exactly; outputs are labeled
invariant representatives since membership and minimality are certified
inside the invariant complex only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Optional, Tuple

import numpy as np

from .exact import CRat, I, ZERO, exact_rank, exact_solve
from .invariant import (InvForm, LieModel, operator_matrix, operator_rows_exact)

RANK_CUTOFF = 1e-9
SOLVE_TOL = 1e-8  # residual bound, relative, on a float target's potential


class ClassObstructionError(ValueError):
    """The given form is not in the image of ddbar on the invariant complex."""

    def __init__(self, residual: float):
        super().__init__("form is not ddbar-exact on the invariant complex "
                         "(projection residual %.3e)" % residual)
        self.residual = residual


@dataclass
class HermitianMetricSpec:
    """Positive-definite Hermitian Gram matrix on the (1,0)-coframe."""

    model: LieModel
    gram: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=complex)
        if g.shape != (self.model.dim, self.model.dim):
            raise ValueError("gram must be %d x %d"
                             % (self.model.dim, self.model.dim))
        if np.linalg.norm(g - g.conj().T) > 1e-12:
            raise ValueError("gram must be Hermitian")
        if np.linalg.eigvalsh(g).min() <= 0:
            raise ValueError("gram must be positive definite")
        self.gram = g

    @staticmethod
    def flat(model: LieModel) -> "HermitianMetricSpec":
        return HermitianMetricSpec(model, np.eye(model.dim, dtype=complex))


def _compound(g: np.ndarray, k: int) -> np.ndarray:
    """k-th compound of g: its k x k minors over increasing index subsets."""
    S = np.array(list(combinations(range(len(g)), k)), dtype=int)
    return np.linalg.det(g[S[:, None, :, None], S[None, :, None, :]])


def _minor_gram(g: np.ndarray, keys, vol: float) -> np.ndarray:
    """Gram of the I-major wedge basis phi_I ^ phibar_J.

    By Cauchy-Binet the entry at (I,J),(K,L) is det g_IK conj(det g_JL), so
    the Gram is the Kronecker product C_p(g) (x) conj C_q(g) of compounds.
    """
    if not keys:
        return np.zeros((0, 0), dtype=complex)
    p, q = map(len, keys[0])
    return np.kron(_compound(g, p), _compound(g, q).conj()) * vol


class MetricContext:
    """Caches Grams, Cholesky factors and operator matrices; returned arrays
    are shared and must not be modified."""

    def __init__(self, metric: HermitianMetricSpec):
        self.metric = metric
        self.model = metric.model
        self._cache: Dict[tuple, object] = {}

    def _cached(self, key: tuple, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def gram(self, p: int, q: int) -> np.ndarray:
        return self._cached(("gram", p, q), lambda: _minor_gram(
            self.metric.gram, self.model.basis_keys(p, q),
            float(self.model.volume_scale)))

    def chol(self, p: int, q: int) -> np.ndarray:
        """Lower factor L with H = L L^H; x -> L^H x is an isometry."""
        return self._cached(("chol", p, q),
                            lambda: np.linalg.cholesky(self.gram(p, q)))

    def to_ortho(self, p: int, q: int, vec: np.ndarray) -> np.ndarray:
        return self.chol(p, q).conj().T @ vec

    def from_ortho(self, p: int, q: int, vec: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.chol(p, q).conj().T, vec)

    def inner(self, u: InvForm, v: InvForm) -> complex:
        bid = u.bidegree() or v.bidegree()
        if bid is None:
            return 0j
        if u and v and u.bidegree() != v.bidegree():
            raise ValueError("inner product needs matching homogeneous forms")
        p, q = bid
        H = self.gram(p, q)
        return complex(v.to_vector(p, q).conj() @ H @ u.to_vector(p, q))

    def op(self, kind: str, p: int, q: int) -> np.ndarray:
        """Raw wedge-basis matrix of ``operator_rows(model, kind, p, q)``."""
        return self._cached(("op", kind, p, q), lambda: operator_matrix(
            operator_rows(self.model, kind, p, q),
            len(self.model.basis_keys(p, q))))

    # orthonormalized operators: adjoint = conjugate transpose

    def ortho_op(self, A: np.ndarray, dom: Tuple[int, int],
                 cod: Tuple[int, int]) -> np.ndarray:
        Ld = self.chol(*dom)
        Lc = self.chol(*cod)
        return Lc.conj().T @ A @ np.linalg.inv(Ld.conj().T)


def delta_bc_ortho(ctx: MetricContext, p: int, q: int) -> np.ndarray:
    """Bott-Chern Laplacian at bidegree (p,q) in orthonormal coordinates.

    The sum of F^H F over the six factors del, delbar, ddbar, (ddbar)*,
    del* delbar and delbar* del; Hermitian positive semi-definite by
    construction.  A factor through an empty space contributes zero.
    """
    O = ctx.ortho_op
    D = O(ctx.op("del", p, q), (p, q), (p + 1, q))
    Db = O(ctx.op("delbar", p, q), (p, q), (p, q + 1))
    P = O(ctx.op("ddbar", p, q), (p, q), (p + 1, q + 1))
    P2 = O(ctx.op("ddbar", p - 1, q - 1), (p - 1, q - 1), (p, q))
    D2 = O(ctx.op("del", p - 1, q + 1), (p - 1, q + 1), (p, q + 1))
    Db2 = O(ctx.op("delbar", p + 1, q - 1), (p + 1, q - 1), (p + 1, q))
    factors = (D, Db, P, P2.conj().T, D2.conj().T @ Db, Db2.conj().T @ D)
    return sum(F.conj().T @ F for F in factors)


def green_apply(ctx: MetricContext, p: int, q: int, u: InvForm,
                laplacian: Optional[np.ndarray] = None) -> Tuple[InvForm, float]:
    """Green operator of the Bott-Chern Laplacian (pseudo-inverse semantics).

    Returns (G u, harmonic projection norm of u).  G u is one minimum-norm
    least-squares solve, so G vanishes on the kernel, and the harmonic part
    of u is u - Laplacian G u, its projection onto that kernel.
    """
    lap = delta_bc_ortho(ctx, p, q) if laplacian is None else laplacian
    vec = ctx.to_ortho(p, q, u.to_vector(p, q))
    res = np.linalg.lstsq(lap, vec, rcond=RANK_CUTOFF)[0]
    out = ctx.from_ortho(p, q, res)
    return (InvForm.from_vector(ctx.model, p, q, out),
            float(np.linalg.norm(vec - lap @ res)))


def neumann_gamma(fpull: InvForm,
                  metric: HermitianMetricSpec | MetricContext) -> InvForm:
    """Minimal solution of i ddbar Gamma = fpull on the invariant complex.

    On Im(ddbar) the Bott-Chern Laplacian is ddbar (ddbar)*, so the minimal
    potential -i (ddbar)* Laplacian^+ fpull is -i P^+ fpull: one minimum-norm
    least-squares solve, with P = ddbar in orthonormal coordinates.  Raises
    ClassObstructionError, carrying that solve's residual, when fpull has no
    invariant potential: decided exactly (``exact_ddbar_solve``) when every
    coefficient is a CRat, else by the residual relative to ``SOLVE_TOL``.
    The output is the invariant Neumann representative for this metric, and
    the zero form for a zero input, at any bidegree; a nonzero form below
    bidegree (1,1) is obstructed with all of its norm as residual.  Pass a
    MetricContext as ``metric`` to reuse its Grams and operators across calls.
    """
    ctx = metric if isinstance(metric, MetricContext) else MetricContext(metric)
    model = ctx.model
    if not fpull:
        return model.zero()
    bid = fpull.bidegree()
    if bid is None:
        raise ValueError("need a homogeneous form")
    p, q = bid
    fo = ctx.to_ortho(p, q, fpull.to_vector(p, q))
    if p < 1 or q < 1:   # no ddbar reaches (p,q): all of fpull is residual
        raise ClassObstructionError(float(np.linalg.norm(fo)))
    Po = ctx.ortho_op(ctx.op("ddbar", p - 1, q - 1), (p - 1, q - 1), (p, q))
    sol = np.linalg.lstsq(Po, fo, rcond=None)[0]
    resid = float(np.linalg.norm(Po @ sol - fo))
    if all(isinstance(c, CRat) for c in fpull.coeffs.values()):
        obstructed = exact_ddbar_solve(model, fpull) is None
    else:
        obstructed = resid > SOLVE_TOL * max(float(np.linalg.norm(fo)), 1.0)
    if obstructed:
        raise ClassObstructionError(resid)
    gamma = InvForm.from_vector(model, p - 1, q - 1,
                                ctx.from_ortho(p - 1, q - 1, -1j * sol))

    # reproduction certificate
    back = model.ce_del(model.ce_delbar(gamma)).scale(1j)
    err = (back - fpull).norm()
    if err > 1e-10 * max(fpull.norm(), 1.0):
        raise ArithmeticError("ddbar reproduction failed: %.3e" % err)
    return gamma


# -- exact operators and cohomology dimensions --------------------------------


def operator_rows(model: LieModel, kind: str, p: int, q: int) -> list:
    """Exact sparse rows of del, delbar or ddbar ("del", "delbar", "ddbar")
    from bidegree (p,q), built once per model and shared by every caller,
    which must not modify them.  ddbar at (p,q) is the row product of del
    at (p,q+1) and delbar at (p,q)."""
    key = (kind, p, q)
    rows = model.op_rows.get(key)
    if rows is not None:
        return rows
    if kind == "ddbar":
        Db = operator_rows(model, "delbar", p, q)
        rows = []
        for r in operator_rows(model, "del", p, q + 1):
            acc: Dict[int, CRat] = {}
            for k, a in r.items():
                for c, b in Db[k].items():
                    acc[c] = acc.get(c, ZERO) + a * b
            rows.append({c: x for c, x in acc.items() if x})
    elif kind == "del":
        rows = operator_rows_exact(model, model.ce_del, p, q, p + 1, q)
    elif kind == "delbar":
        rows = operator_rows_exact(model, model.ce_delbar, p, q, p, q + 1)
    else:
        raise ValueError("unknown operator %r" % kind)
    model.op_rows[key] = rows
    return rows


def aeppli_dim(model: LieModel, p: int, q: int) -> int:
    """dim ker(ddbar) - dim(Im del + Im delbar) at bidegree (p,q), exact."""
    n = len(model.basis_keys(p, q))
    ker = n - exact_rank(operator_rows(model, "ddbar", p, q))
    # the two image maps side by side: delbar's columns follow del's
    shift = len(model.basis_keys(p - 1, q))
    img = [{**r, **{c + shift: x for c, x in s.items()}} for r, s in zip(
        operator_rows(model, "del", p - 1, q),
        operator_rows(model, "delbar", p, q - 1))]
    return ker - exact_rank(img)


def bc_dim(model: LieModel, p: int, q: int) -> int:
    """dim(ker del ∩ ker delbar) - rank(ddbar into (p,q)), exact."""
    n = len(model.basis_keys(p, q))
    ker = n - exact_rank(operator_rows(model, "del", p, q)
                         + operator_rows(model, "delbar", p, q))
    return ker - exact_rank(operator_rows(model, "ddbar", p - 1, q - 1))


def exact_ddbar_solve(model: LieModel, target: InvForm):
    """Exact solution of i ddbar Gamma = target over the invariant complex.

    Returns an InvForm with CRat coefficients (the zero form for a zero
    target), or None when unsolvable.  Requires exact coefficients on the
    target.
    """
    if not target:
        return model.zero()
    bid = target.bidegree()
    if bid is None:
        raise ValueError("target must be homogeneous")
    p, q = bid
    if p < 1 or q < 1:
        return None
    rhs = [target.coeffs.get(k, ZERO) for k in model.basis_keys(p, q)]
    if not all(isinstance(c, CRat) for c in rhs):
        raise ValueError("exact solve needs exact coefficients")
    keys_dom = model.basis_keys(p - 1, q - 1)
    # i ddbar Gamma = target is ddbar Gamma = -i target
    sol = exact_solve(operator_rows(model, "ddbar", p - 1, q - 1),
                      [-I * c for c in rhs], len(keys_dom))
    if sol is None:
        return None
    return InvForm(model, dict(zip(keys_dom, sol)))
