"""Spectral Newton solver for the volume-normalization equation on flat tori.

Solves det(g + H(phi)) = C e^F det(g) with g + H(phi) > 0 and sup phi = 0 on
the unit torus, H the mixed complex Hessian computed by FFT.  The constant C
is recomputed from the discrete integral identity every iteration, which
keeps the linearized right-hand side mean free and removes the constant null
direction; Newton steps are damped by residual backtracking with a
positivity guard.

Grid layout: real axes ordered (x_1, y_1, ..., x_d, y_d) with z_j = x_j +
i y_j, res samples per real axis, periods 1.  Sample files are row-major
(C order) over that axis ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.fft as sfft
from scipy.sparse.linalg import LinearOperator, gmres

DEFAULT_MEMORY_CAP = 2 ** 26  # grid points


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class TorusGrid:
    dim: int
    res: int
    memory_cap: int = DEFAULT_MEMORY_CAP

    def __post_init__(self):
        if not 1 <= self.dim <= 3:
            raise GridError("dim %r is outside the supported 1..3" % (self.dim,))
        if self.res < 8 or self.res & (self.res - 1):
            raise GridError("res must be a power of two, at least 8")
        if self.res ** (2 * self.dim) > self.memory_cap:
            raise GridError("grid size %d exceeds the memory cap %d"
                            % (self.res ** (2 * self.dim), self.memory_cap))

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.res,) * (2 * self.dim)

    def coords(self) -> List[np.ndarray]:
        """Broadcastable coordinate arrays in axis order x1,y1,...,xd,yd."""
        axes = []
        n = 2 * self.dim
        base = np.arange(self.res) / self.res
        for a in range(n):
            shape = [1] * n
            shape[a] = self.res
            axes.append(base.reshape(shape))
        return axes


@dataclass
class ScalarField:
    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise GridError("values must have shape %r" % (self.grid.shape,))
        self.values = v

    @staticmethod
    def zeros(grid: TorusGrid) -> "ScalarField":
        return ScalarField(grid, np.zeros(grid.shape))

    @staticmethod
    def from_modes(grid: TorusGrid,
                   modes: Sequence[Tuple[Sequence[int], complex]]) -> "ScalarField":
        """Sum of re*cos(2 pi k.u) + im*sin(2 pi k.u) over mode lines."""
        u = grid.coords()
        vals = np.zeros(grid.shape)
        for k, amp in modes:
            if len(k) != 2 * grid.dim:
                raise GridError("mode index needs %d entries" % (2 * grid.dim))
            phase = sum(int(ki) * ui for ki, ui in zip(k, u)) * (2 * np.pi)
            amp = complex(amp)
            vals = vals + amp.real * np.cos(phase) + amp.imag * np.sin(phase)
        return ScalarField(grid, vals)

    def mean(self) -> float:
        return float(self.values.mean())

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())

    def spectral_tail(self) -> float:
        """Fraction of spectral mass above half the Nyquist band.

        Reported as a smoothness diagnostic; unresolved inputs show a tail
        that does not decay, but nothing is enforced here.
        """
        vhat = sfft.rfftn(self.values)
        power = np.abs(vhat) ** 2
        power[(0,) * power.ndim] = 0.0
        total = power.sum()
        if total == 0:
            return 0.0
        res = self.grid.res
        n = 2 * self.grid.dim
        mask = np.zeros(power.shape, dtype=bool)
        full = np.abs(sfft.fftfreq(res) * res)
        half = np.abs(sfft.rfftfreq(res) * res)
        for a in range(n):
            src = half if a == n - 1 else full
            shape = [1] * n
            shape[a] = len(src)
            mask |= (src.reshape(shape) > res // 4) * np.ones(power.shape, bool)
        return float(power[mask].sum() / total)


class HessianOp:
    """Mixed complex Hessian entries of a real field, by real-symbol FFTs."""

    def __init__(self, grid: TorusGrid, workers: int = -1):
        self.grid = grid
        self.workers = workers
        res = grid.res
        n = 2 * grid.dim
        full = sfft.fftfreq(res) * res
        half = sfft.rfftfreq(res) * res
        self._wav = []
        for a in range(n):
            src = half if a == n - 1 else full
            shape = [1] * n
            shape[a] = len(src)
            self._wav.append(src.reshape(shape))

    def rfft(self, v: np.ndarray) -> np.ndarray:
        return sfft.rfftn(v, workers=self.workers)

    def irfft(self, vhat: np.ndarray) -> np.ndarray:
        return sfft.irfftn(vhat, s=self.grid.shape, workers=self.workers)

    def _m(self, j: int) -> np.ndarray:
        return self._wav[2 * (j - 1)]

    def _n(self, j: int) -> np.ndarray:
        return self._wav[2 * (j - 1) + 1]

    def sym_P(self, j: int, k: int) -> np.ndarray:
        return -np.pi ** 2 * (self._m(j) * self._m(k) + self._n(j) * self._n(k))

    def sym_Q(self, j: int, k: int) -> np.ndarray:
        return -np.pi ** 2 * (self._m(j) * self._n(k) - self._n(j) * self._m(k))

    def entries(self, vhat: np.ndarray) -> Dict[Tuple[int, int], np.ndarray]:
        """Entries H[j,k] for j <= k; H[k,j] is the conjugate."""
        d = self.grid.dim
        out: Dict[Tuple[int, int], np.ndarray] = {}
        for j in range(1, d + 1):
            out[(j, j)] = self.irfft(self.sym_P(j, j) * vhat)
            for k in range(j + 1, d + 1):
                P = self.irfft(self.sym_P(j, k) * vhat)
                Q = self.irfft(self.sym_Q(j, k) * vhat)
                out[(j, k)] = P + 1j * Q
        return out


def _det_and_adjugate(gram: np.ndarray, H: Dict[Tuple[int, int], np.ndarray],
                      need_adj: bool):
    """det(g + H) and adjugate entries, specialized for d in {1, 2, 3}."""
    d = gram.shape[0]

    def A(j, k):
        if j == k:
            return gram[j - 1, j - 1].real + H[(j, j)]
        if j < k:
            return gram[j - 1, k - 1] + H[(j, k)]
        return np.conj(gram[k - 1, j - 1] + H[(k, j)])

    if d == 1:
        det = A(1, 1)
        adj = {(1, 1): np.ones_like(det)} if need_adj else None
        return det, adj
    if d == 2:
        a11, a22, a12 = A(1, 1), A(2, 2), A(1, 2)
        det = a11 * a22 - (a12 * np.conj(a12)).real
        adj = None
        if need_adj:
            adj = {(1, 1): a22, (2, 2): a11, (1, 2): -a12}
        return det, adj
    # d == 3 (TorusGrid admits no other dimension)
    a = {(j, k): A(j, k) for j in range(1, 4) for k in range(1, 4)}
    det = (a[(1, 1)] * (a[(2, 2)] * a[(3, 3)] - a[(2, 3)] * a[(3, 2)])
           - a[(1, 2)] * (a[(2, 1)] * a[(3, 3)] - a[(2, 3)] * a[(3, 1)])
           + a[(1, 3)] * (a[(2, 1)] * a[(3, 2)] - a[(2, 2)] * a[(3, 1)])).real
    adj = None
    if need_adj:
        # adj(A)[j,k] = cofactor C_kj; for Hermitian A the adjugate is
        # Hermitian, store upper triangle
        def cof(j, k):
            rows = [r for r in (1, 2, 3) if r != j]
            cols = [c for c in (1, 2, 3) if c != k]
            m = (a[(rows[0], cols[0])] * a[(rows[1], cols[1])]
                 - a[(rows[0], cols[1])] * a[(rows[1], cols[0])])
            return ((-1) ** (j + k)) * m
        adj = {(1, 1): cof(1, 1).real, (2, 2): cof(2, 2).real,
               (3, 3): cof(3, 3).real,
               (1, 2): cof(2, 1), (1, 3): cof(3, 1), (2, 3): cof(3, 2)}
    return det, adj


def _min_eigenvalue(gram: np.ndarray, H: Dict[Tuple[int, int], np.ndarray]) -> float:
    d = gram.shape[0]
    if d == 1:
        return float((gram[0, 0].real + H[(1, 1)]).min())
    if d == 2:
        a11 = gram[0, 0].real + H[(1, 1)]
        a22 = gram[1, 1].real + H[(2, 2)]
        a12 = gram[0, 1] + H[(1, 2)]
        tr = a11 + a22
        disc = np.sqrt((a11 - a22) ** 2 + 4 * np.abs(a12) ** 2)
        return float(((tr - disc) / 2).min())
    # d == 3: assemble pointwise matrices (small grids only behind the cap)
    shape = H[(1, 1)].shape
    M = np.zeros(shape + (d, d), dtype=complex)
    for j in range(1, d + 1):
        for k in range(1, d + 1):
            if j == k:
                M[..., j - 1, k - 1] = gram[j - 1, j - 1].real + H[(j, j)]
            elif j < k:
                M[..., j - 1, k - 1] = gram[j - 1, k - 1] + H[(j, k)]
            else:
                M[..., j - 1, k - 1] = np.conj(gram[k - 1, j - 1] + H[(k, j)])
    return float(np.linalg.eigvalsh(M)[..., 0].min())


def _positive_definite(gram: np.ndarray, H: Dict[Tuple[int, int], np.ndarray],
                       det: np.ndarray) -> bool:
    """Whether g + H is positive definite at every grid point.

    Sylvester's criterion: every leading principal minor is positive.  The
    top minor is ``det``, as computed by ``_det_and_adjugate``; d = 2 adds
    a11 and d = 3 also the leading 2x2 minor.
    """
    if not det.min() > 0:
        return False
    d = gram.shape[0]
    if d == 1:
        return True
    a11 = gram[0, 0].real + H[(1, 1)]
    if not a11.min() > 0:
        return False
    if d == 2:
        return True
    minor2 = a11 * (gram[1, 1].real + H[(2, 2)]) - np.abs(gram[0, 1] + H[(1, 2)]) ** 2
    return bool(minor2.min() > 0)


@dataclass
class MADiagnostics:
    residual_history: List[float] = field(default_factory=list)
    newton_iterations: int = 0
    gmres_iterations: int = 0
    inner_unconverged: int = 0  # Newton steps whose GMRES stopped at maxiter
    damping_events: int = 0
    continuation_stages: int = 0
    min_eigenvalue: float = float("nan")
    conservation_gap: float = float("nan")
    converged: bool = False
    failure: Optional[str] = None


_WORK_COUNTS = ("newton_iterations", "gmres_iterations", "damping_events",
                "inner_unconverged")


def _total_work(into: MADiagnostics, parts: Sequence[MADiagnostics]) -> None:
    """Set the work counts of ``into`` to their sums over ``parts``."""
    for name in _WORK_COUNTS:
        setattr(into, name, sum(getattr(p, name) for p in parts))


@dataclass
class MAResult:
    phi: ScalarField
    C: float
    diagnostics: MADiagnostics


class NewtonFailure(RuntimeError):
    def __init__(self, msg: str, result: MAResult):
        super().__init__(msg)
        self.result = result


def residual(phi: ScalarField, F: ScalarField, gram: np.ndarray) -> float:
    """max |det(g + H phi) - C e^F det g| / det g with C from the identity."""
    grid = phi.grid
    op = HessianOp(grid)
    H = op.entries(op.rfft(phi.values))
    det, _ = _det_and_adjugate(np.asarray(gram, dtype=complex), H, False)
    detg = float(np.linalg.det(np.asarray(gram, dtype=complex)).real)
    eF = np.exp(F.values)
    C = float(det.mean() / (eF.mean() * detg))
    return float(np.abs(det - C * eF * detg).max() / detg)


def positivity_check(phi: ScalarField, gram: np.ndarray) -> float:
    """Minimum over the grid of the smallest eigenvalue of g + H(phi)."""
    grid = phi.grid
    op = HessianOp(grid)
    H = op.entries(op.rfft(phi.values))
    return _min_eigenvalue(np.asarray(gram, dtype=complex), H)


def solve_ma(F: ScalarField, gram, tol: float = 1e-10,
             max_iter: int = 40, phi0: Optional[ScalarField] = None,
             workers: int = -1, continuation: bool = True) -> MAResult:
    """Newton iteration for the normalized volume equation.

    Returns phi with sup phi = 0, the constant C, and diagnostics.  On
    divergence the forcing is ramped in stages (each converged stage seeds
    the next); only if the ramp also stalls does NewtonFailure propagate,
    carrying the last iterate.  The Newton, GMRES, damping and
    unconverged-inner-solve counts sum over every attempt made.
    """
    if not 1e-12 <= tol < np.inf:
        raise GridError("tolerance %r is not a finite number >= 1e-12" % (tol,))
    g = np.asarray(gram, dtype=complex)
    d = F.grid.dim
    if g.shape != (d, d):
        raise GridError("gram must be %d x %d" % (d, d))
    if np.linalg.norm(g - g.conj().T) > 1e-12 or np.linalg.eigvalsh(g).min() <= 0:
        raise GridError("gram must be Hermitian positive definite")
    if not np.isfinite(F.values).all():
        raise GridError("forcing has non-finite values")
    try:
        return _solve_ma_direct(F, gram, tol, max_iter, phi0, workers)
    except NewtonFailure as failure:
        if not continuation:
            raise
        # the counts of the result, or of the re-raised failure, cover the
        # failed direct attempt and every stage run
        spent = [failure.result.diagnostics]
        stages = 4
        phi = phi0
        for k in range(1, stages + 1):
            Fk = ScalarField(F.grid, F.values * (k / stages))
            try:
                result = _solve_ma_direct(Fk, gram, tol, max_iter, phi, workers)
            except NewtonFailure as stalled:
                _total_work(failure.result.diagnostics,
                            spent + [stalled.result.diagnostics])
                raise failure from None
            result.diagnostics.continuation_stages = k
            spent.append(result.diagnostics)
            phi = result.phi
        _total_work(result.diagnostics, spent)
        return result


def _solve_ma_direct(F: ScalarField, gram, tol: float,
                     max_iter: int, phi0: Optional[ScalarField],
                     workers: int) -> MAResult:
    grid = F.grid
    g = np.asarray(gram, dtype=complex)
    d = grid.dim
    detg = float(np.linalg.det(g).real)
    eF = np.exp(F.values)
    eF_mean = float(eF.mean())

    op = HessianOp(grid, workers=workers)
    diag = MADiagnostics()

    phi = (phi0.values.copy() if phi0 is not None else np.zeros(grid.shape))
    phi -= phi.mean()

    def assemble(p):
        H = op.entries(op.rfft(p))
        det, _ = _det_and_adjugate(g, H, False)
        C = float(det.mean() / (eF_mean * detg))
        R = det - C * eF * detg
        return H, det, C, R

    H, _, C, R = assemble(phi)
    maxres = float(np.abs(R).max() / detg)
    diag.residual_history.append(maxres)
    r0 = max(maxres, 1e-30)

    for it in range(max_iter):
        if maxres <= tol:
            diag.converged = True
            break
        diag.newton_iterations += 1
        # the linearization sum_jk adj_jk H_jk(psi) as (real weight, symbol)
        # terms; H and the adjugate are not needed once the weights exist
        _, adj = _det_and_adjugate(g, H, True)
        del H
        terms = []
        for j in range(1, d + 1):
            terms.append((adj[(j, j)].real, op.sym_P, j, j))
            for k in range(j + 1, d + 1):
                terms.append((2 * adj[(j, k)].real, op.sym_P, j, k))
                terms.append((2 * adj[(j, k)].imag, op.sym_Q, j, k))
        del adj
        # forcing term: shrink with the residual, but never ask the linear
        # solve for more than a tenth of what the outer tolerance can use
        inner_tol = max(1e-12, 0.1 * tol / maxres, min(1e-2, 0.1 * maxres / r0))
        psi, iters, info = _newton_direction(op, terms, R, inner_tol)
        del terms
        diag.gmres_iterations += iters
        diag.inner_unconverged += int(info > 0)

        step = 1.0
        for _ in range(25):
            cand = phi + step * psi
            Hc, detc, Cc, Rc = assemble(cand)
            res_c = float(np.abs(Rc).max() / detg)
            if res_c < maxres and _positive_definite(g, Hc, detc):
                break
            del cand, Hc, detc, Rc
            step /= 2
            diag.damping_events += 1
        else:
            diag.residual_history.append(maxres)
            diag.failure = ("damping stalled at residual %.3e" % maxres)
            diag.min_eigenvalue = _min_eigenvalue(g, op.entries(op.rfft(phi)))
            phi_out = ScalarField(grid, phi - phi.max())
            raise NewtonFailure(diag.failure, MAResult(phi_out, C, diag))
        phi, H, C, R, maxres = cand, Hc, Cc, Rc, res_c
        # drop the aliases, so that the next step's `del H` frees H
        del cand, Hc, detc, Rc, psi
        diag.residual_history.append(maxres)
    else:
        if maxres > tol:
            diag.failure = "newton did not converge in %d iterations" % max_iter
            phi_out = ScalarField(grid, phi - phi.max())
            raise NewtonFailure(diag.failure, MAResult(phi_out, C, diag))
        diag.converged = True

    diag.min_eigenvalue = _min_eigenvalue(g, H)
    # conservation: C * int e^F gamma^d = int gamma^d
    diag.conservation_gap = abs(C * eF_mean * detg - detg) / detg
    phi_out = phi - phi.max()
    return MAResult(ScalarField(grid, phi_out), C, diag)


def _newton_direction(op: HessianOp, terms, R: np.ndarray, rtol: float):
    """GMRES(20) for sum_t w_t irfft(sym_t * psihat) = -R with the mean-weight
    constant-coefficient preconditioner; returns the mean-free psi, the
    iteration count and GMRES's info flag (> 0: stopped at maxiter)."""
    grid = op.grid
    n_flat = R.size
    flat_idx = (0,) * (2 * grid.dim)

    def matvec(psi_flat):
        vhat = op.rfft(psi_flat.reshape(grid.shape))
        out = np.zeros(grid.shape)
        for w, sym, j, k in terms:
            out += w * op.irfft(sym(j, k) * vhat)
        return out.ravel()

    psym = sum(float(w.mean()) * sym(j, k) for w, sym, j, k in terms)
    psym[flat_idx] = 1.0

    def precond(r_flat):
        rhat = op.rfft(r_flat.reshape(grid.shape))
        rhat /= psym
        rhat[flat_idx] = 0.0
        return op.irfft(rhat).ravel()

    iters = [0]

    def cb(_):
        iters[0] += 1
    # solve L x = R and take psi = -x: GMRES is odd in the right-hand side,
    # and this needs no negated copy of R
    x, info = gmres(LinearOperator((n_flat, n_flat), matvec=matvec, dtype=float),
                    R.ravel(), rtol=rtol, atol=0.0,
                    M=LinearOperator((n_flat, n_flat), matvec=precond, dtype=float),
                    maxiter=200, callback=cb, callback_type="legacy")
    psi = x.reshape(grid.shape)
    psi -= psi.mean()
    np.negative(psi, out=psi)
    return psi, iters[0], info


def linear_oracle_d1(F: ScalarField, gram) -> Tuple[ScalarField, float]:
    """Independent spectral solution for complex dimension one.

    The determinant is affine in the Hessian, so the equation is the linear
    problem phi_{z zbar} = C e^F g - g with C = 1/mean(e^F); solved by
    direct symbol division.
    """
    grid = F.grid
    assert grid.dim == 1
    g = float(np.asarray(gram, dtype=complex)[0, 0].real)
    eF = np.exp(F.values)
    C = 1.0 / float(eF.mean())
    rhs = C * eF * g - g
    op = HessianOp(grid)
    sym = op.sym_P(1, 1)
    rhat = op.rfft(rhs)
    sym_safe = sym.copy()
    sym_safe[(0, 0)] = 1.0
    rhat /= sym_safe
    rhat[(0, 0)] = 0.0
    phi = op.irfft(rhat)
    phi -= phi.max()
    return ScalarField(grid, phi), C


# -- sample / mode file formats --------------------------------------------------


def parse_modes(text: str, grid: TorusGrid, path: str = "<modes>") -> ScalarField:
    """Mode lines: 2d integer indices then amplitude re [im]."""
    modes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        n = 2 * grid.dim
        try:
            k = [int(x) for x in parts[:n]]
            re = float(parts[n])
            im = float(parts[n + 1]) if len(parts) > n + 1 else 0.0
            modes.append((k, complex(re, im)))
        except (ValueError, IndexError):
            raise GridError("%s:%d: bad mode line %r" % (path, lineno, raw))
    return ScalarField.from_modes(grid, modes)


def parse_samples(text: str, grid: TorusGrid, path: str = "<samples>") -> ScalarField:
    vals = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for tok in line.split():
            try:
                vals.append(float(tok))
            except ValueError:
                raise GridError("%s:%d: bad sample %r" % (path, lineno, tok))
    need = int(np.prod(grid.shape))
    if len(vals) != need:
        raise GridError("%s: expected %d samples, got %d" % (path, need, len(vals)))
    return ScalarField(grid, np.array(vals).reshape(grid.shape))


def format_samples(f: ScalarField) -> str:
    return "\n".join(repr(float(v)) for v in f.values.ravel()) + "\n"
