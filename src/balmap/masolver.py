"""Spectral Newton solver for the volume-normalization equation on flat tori.

Solves det(g + H(phi)) = C e^F det(g) with g + H(phi) > 0 and sup phi = 0 on
the unit torus, H the mixed complex Hessian computed by FFT.  The constant C
is recomputed from the discrete integral identity every iteration, which
keeps the linearized right-hand side mean free and removes the constant null
direction; Newton steps are damped by residual backtracking with a
positivity guard.  The outer residual is always the exact determinant, so
scaling the inner GMRES solves (``_newton_direction``) moves no tolerance.

The Newton iterate is kept as its half spectrum, so a line-search candidate
is a sum of known spectra and phi returns to real space once; a zero start
holds no spectrum at all until its first step is accepted, and builds A = g
as one-point arrays, so the first step's determinant, adjugate and weights
are one point, the Newton operator equals its preconditioner P, and the
step is -P^-1 R in closed form with no Krylov solve; and the module's
restarted GMRES (``gmres``) makes one matvec per inner iteration.

Quotient: the equation has constant coefficients, so the solution is
invariant under each grid translation v (mod res) that leaves F and phi0
bitwise unchanged.  ``solve_ma`` runs the whole solve, continuation
included, on the section x_p = 0 of one pivot axis p per v (v = e_a cuts
an axis along which the data are constant).  Its checks come in this
order: tol and g, phi0's shape, then on the constant-axis cut, which holds
every value and needs no transform, F's and phi0's finiteness and
mean(e^F), the cut's e^F sum times its multiplicity; then the lattice
search on the cut.  An invariant field's spectrum
lives on k.v = 0 (mod res), so with the pivot wavenumber set from the kept
ones the symbols and Nyquist planes are the full grid's.  phi is gathered
back to the caller's grid, also in a NewtonFailure.  A forcing whose modes
span all 2d axes is solved on the full grid.

Work buffers: the d^2 real Hessian parts are transformed in stacks, all
d^2 as one below ``SCIPY_FFT_POINTS`` (symbols built once per operator)
and one part each from there on (each symbol built per use, none held
through a Krylov solve).  A stack's symbols times the spectrum go into one
complex buffer per ``HessianOp.entries`` call (or per matvec), and one
inverse transform writes its terms into the entries' planes or, weighted
and summed in part order, the matvec's sum (a one-part stack's straight).

Transforms: a grid (or quotient) of fewer than ``SCIPY_FFT_POINTS`` points
goes through ``numpy.fft``, which is as fast there and loads with numpy; a
larger one goes through ``scipy.fft``, imported when the first such
``HessianOp`` is built, since numpy.fft is up to 3.3x slower there.  The
last-axis inverse pass is always numpy's, which takes an ``out`` array and
is as fast as scipy's on that axis.  Both transform on the calling thread:
a worker pool competes with numpy's BLAS threads.  A quotient's one-sample
axes, where a transform is the identity, are left out of every pass; the
last axis stays the half-spectrum axis at any length.  On the ``numpy.fft``
path each lead axis is one in-place 1-D pass (``rfft`` then ``fft``;
``ifft`` then ``irfft``) in ``rfftn``'s and ``ifftn``'s axis order, with
their bits and without their n-D argument handling; an inverse pass also
takes a stack of spectra along a leading axis, with each one's bits.

Grid layout: real axes ordered (x_1, y_1, ..., x_d, y_d) with z_j = x_j +
i y_j, res samples per real axis, periods 1.  Sample files are row-major
(C order) over that axis ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .invariant import data_lines

MAX_GRID_POINTS = 2 ** 26
# grids of this many points or more transform with scipy.fft
SCIPY_FFT_POINTS = 2 ** 16


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class TorusGrid:
    dim: int
    res: int

    def __post_init__(self):
        if not 1 <= self.dim <= 3:
            raise GridError("dim %r is outside the supported 1..3" % (self.dim,))
        if self.res < 8 or self.res & (self.res - 1):
            raise GridError("res must be a power of two, at least 8")
        if self.points > MAX_GRID_POINTS:
            raise GridError("grid size %d exceeds the memory cap %d"
                            % (self.points, MAX_GRID_POINTS))

    @property
    def points(self) -> int:
        return math.prod(self.shape)

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.res,) * (2 * self.dim)

    def _per_axis(self, make) -> List[np.ndarray]:
        """``make(m, last)`` for each real axis of length m, laid along it."""
        n = len(self.shape)
        return [make(m, a == n - 1).reshape([-1 if b == a else 1
                                             for b in range(n)])
                for a, m in enumerate(self.shape)]

    def wavenumbers(self) -> List[np.ndarray]:
        """Broadcastable integer wavenumbers of the ``rfftn`` spectrum, whose
        last axis holds the non-negative half."""
        return self._per_axis(lambda m, last: m * (
            np.fft.rfftfreq(m) if last else np.fft.fftfreq(m)))


def _pivot(v: Sequence[int]) -> int:
    return next(a for a, c in enumerate(v) if c % 2)


@dataclass(frozen=True)
class _Quotient(TorusGrid):
    """The section x_p = 0 of the grid translations ``vectors`` (mod res):
    p is a vector's pivot, its first odd entry, which is 1 and where every
    other vector has 0, and holds one sample.  The pivot wavenumber is the
    full grid's ``fftfreq`` one of -sum_b v_b k_b; the last axis, a pivot
    only of e_last, stays the half-spectrum axis."""
    vectors: Tuple[Tuple[int, ...], ...]

    @property
    def shape(self) -> Tuple[int, ...]:
        pivots = {_pivot(v) for v in self.vectors}
        return tuple(1 if a in pivots else self.res
                     for a in range(2 * self.dim))

    def wavenumbers(self) -> List[np.ndarray]:
        wav, h = super().wavenumbers(), self.res // 2
        for v in self.vectors:   # wav[p] is 0 here, and no other pivot enters
            wav[_pivot(v)] = (h - sum(c * w for c, w in zip(v, wav) if c)
                              ) % self.res - h
        return wav


def _constant_axis_cut(fields: Sequence[np.ndarray]) -> List[np.ndarray]:
    """``fields`` with each axis along which every one of them is bitwise
    constant cut to one sample: views, which hold each value of each field.
    An axis is tested on what the later axes' cuts left."""
    cut = list(fields)
    for a in reversed(range(cut[0].ndim)):
        if all(_constant_along(v, a) for v in cut):
            cut = [v[(slice(None),) * a + (slice(1),)] for v in cut]
    return cut


def _constant_along(v: np.ndarray, a: int) -> bool:
    """Whether every sample of ``v`` along axis ``a`` is == its neighbour,
    which, as == is an equivalence off NaN, is == the first.  Along a > 0,
    in C order, that is sample i against i + p (p samples per step along a)
    inside each run of m p (m along a), in chunks of axis 0 of about 2^13
    samples, or one slice: no temporary is grid-sized."""
    if a == 0:
        return all(np.array_equal(v[i], v[i - 1]) for i in range(1, len(v)))
    m, p = v.shape[a], math.prod(v.shape[a + 1:])
    step = max(1, 2 ** 13 // v[0].size)
    for i in range(0, len(v), step):
        x = np.ascontiguousarray(v[i:i + step]).ravel()
        eq = np.empty(x.size, bool)
        np.equal(x[p:], x[:-p], out=eq[:-p])
        eq.reshape(-1, m * p)[:, -p:] = True   # pairs across two runs
        if not eq.all():
            return False
    return True


def _translations(res: int, cut: Sequence[np.ndarray]):
    """Grid translations under which each of the fields whose
    ``_constant_axis_cut`` is ``cut`` is bitwise unchanged, in the form of
    ``_Quotient.vectors``.  Candidates solve k.v = 0 on the cut's joint
    spectral support (a 1e-12 threshold only proposes), first over the
    integers, then mod res, as a wavenumber on or past a Nyquist plane
    needs, in one Gauss-Jordan form mod res with odd pivots; each is kept
    only if ``np.roll`` by it leaves every field of the cut unchanged.  A
    cut axis gives its e_a."""
    n = cut[0].ndim
    power = sum(np.abs(np.fft.rfftn(v)) for v in cut)
    k = np.array(np.nonzero(power > 1e-12 * power.max()))
    k[:-1] = (k[:-1] + res // 2 & res - 1) - res // 2   # fftfreq's integers
    # k reduced mod 2^64, whose null space is the integer one mod res while
    # k's minors are far below 2^64 / res (below 2^26 on any grid TorusGrid
    # admits), then mod res, by row operations on the axes tracked in
    # ``unit``, each pivoting on an entry 2^b u (u odd) of least b; the unit
    # rows left with zero columns span the null space up to even vectors,
    # which pivot nothing
    todo, basis = [], []
    for mod in (2 ** 64, res):
        rows, unit = k.astype(np.uint64), np.eye(n, dtype=np.uint64)
        active = list(range(n))
        while active:   # a row's least 2^b: the lowest bit of its entries' OR
            b, i = min((min((o & -o) or mod, mod), i) for i in active
                       for o in [int(np.bitwise_or.reduce(rows[i]))])
            if b == mod:
                break
            active.remove(i)
            c = int(np.argmax(rows[i] & b))   # an entry 2^b u
            u = pow(int(rows[i, c]) // b, -1, mod)
            for r in active:
                f = int(rows[r, c]) // b * u % mod
                rows[r] -= f * rows[i]
                unit[r] -= f * unit[i]
        todo += [[int(x) % res for x in unit[i]] for i in active]
    for p in range(n):   # the last axis is the pivot of e_last alone
        v = next((v for v in todo if v[p] % 2
                  and (p < n - 1 or not any(v[:-1]))), None)
        if v is not None:
            todo.remove(v)
            v = [x * pow(v[p], -1, res) % res for x in v]
            for w in todo + basis:   # column p cleared from every other one
                w[:] = [(x - w[p] * y) % res for x, y in zip(w, v)]
            basis.append(v)
    return tuple(tuple((x + res // 2) % res - res // 2 for x in v)
                 for v in basis if all(np.array_equal(
                     np.roll(c, v, axis=range(n)), c) for c in cut))


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
        """Sum of re*cos(2 pi k.u) + im*sin(2 pi k.u) over mode lines; each
        phase is the integer k.j mod res at sample j times 2 pi / res, so a
        translation v with k.v = 0 (mod res) leaves its bits unchanged; it
        spans only the axes where k is nonzero (mod res), and broadcasts."""
        j = grid._per_axis(lambda m, last: np.arange(m))
        vals = np.zeros(grid.shape)
        for k, amp in modes:
            if len(k) != 2 * grid.dim:
                raise GridError("mode index needs %d entries" % (2 * grid.dim))
            phase = sum(ki % grid.res * ji for ki, ji in zip(map(int, k), j)
                        if ki % grid.res) % grid.res * (2 * np.pi / grid.res)
            amp = complex(amp)
            for a, wave in ((amp.real, np.cos), (amp.imag, np.sin)):
                if a != 0:
                    vals += a * wave(phase)
        return ScalarField(grid, vals)

    def section(self, translations) -> "ScalarField":
        """This field, invariant under the grid translations
        ``translations`` (as ``MADiagnostics.translations`` holds them), on
        their section: a field on the quotient grid."""
        q = _Quotient(self.grid.dim, self.grid.res, tuple(translations))
        return ScalarField(q, self.values[tuple(slice(m) for m in q.shape)])

    def spectral_tail(self) -> float:
        """Fraction of spectral mass above half the Nyquist band.

        Reported as a smoothness diagnostic; unresolved inputs show a tail
        that does not decay, but nothing is enforced here.
        """
        vhat = HessianOp(self.grid).rfft(self.values)
        power = np.abs(vhat) ** 2
        power[(0,) * power.ndim] = 0.0
        total = power.sum()
        if total == 0:
            return 0.0
        mask = np.zeros(power.shape, dtype=bool)
        for m in self.grid.wavenumbers():
            mask |= np.abs(m) > self.grid.res // 4
        return float(power[mask].sum() / total)


Hessian = Dict[Tuple[int, int], np.ndarray]


class HessianOp:
    """Mixed complex Hessian entries of a real field, by real-symbol FFTs,
    with ``_depth`` parts per transform: d^2 on the ``numpy.fft`` path."""

    def __init__(self, grid: TorusGrid):
        self.grid, self.shape = grid, grid.shape
        self._wav = grid.wavenumbers()
        # a one-sample axis's transform is the identity: it is not run
        self._lead = tuple(a for a, m in enumerate(self.shape[:-1]) if m > 1)
        if grid.points < SCIPY_FFT_POINTS:
            self._fft = np.fft
        else:
            import scipy.fft
            self._fft = scipy.fft
        self._depth = len(self.parts()) if self._fft is np.fft else 1
        self._symbols = None   # the stacked symbols, built at the first use

    def rfft(self, v: np.ndarray) -> np.ndarray:
        """Half spectrum of the real field ``v``.  On the ``numpy.fft`` path
        the lead axes of more than one sample are transformed one at a time
        in the half spectrum's array, in ``rfftn``'s order and bits."""
        if self._fft is not np.fft:
            return self._fft.rfftn(v, axes=self._lead + (len(self.shape) - 1,))
        vhat = np.fft.rfft(v)
        for a in reversed(self._lead):
            np.fft.fft(vhat, axis=a, out=vhat)
        return vhat

    def irfft(self, vhat: np.ndarray,
              out: Optional[np.ndarray] = None) -> np.ndarray:
        """Real field of the half spectrum ``vhat``, or of each of a stack of
        them along a leading axis.  The lead-axis pass runs over the lead axes
        of more than one sample (none: no pass) in vhat's array, which it
        overwrites, one axis at a time on the ``numpy.fft`` path (in
        ``ifftn``'s order and bits); the last-axis pass, the half-spectrum axis
        at any length, is numpy's, which writes into ``out`` when given: a real
        array, or the real or imaginary plane of a complex one."""
        lead = [a - len(self.shape) for a in self._lead]
        if self._fft is np.fft:
            for a in reversed(lead):
                np.fft.ifft(vhat, axis=a, out=vhat)
        elif lead:
            vhat = self._fft.ifftn(vhat, axes=lead, overwrite_x=True)
        return np.fft.irfft(vhat, n=self.shape[-1], axis=-1, out=out)

    def real_spectrum(self, vhat: np.ndarray) -> np.ndarray:
        """``vhat`` made, in place, the half spectrum of the real field
        ``irfft(vhat)``: on the planes k_last = 0 and k_last = res/2, which
        hold both k and -k, only the part (v_k + conj v_-k)/2 is kept."""
        for plane in (vhat[..., 0], vhat[..., -1]):
            plane += np.conj(np.roll(np.flip(plane), 1,
                                     axis=tuple(range(plane.ndim))))
            plane /= 2
        return vhat

    def parts(self) -> List[Tuple[int, int, bool]]:
        """(j, k, imag) for each real part of H[j,k], j <= k: the real part,
        then for j < k the imaginary part."""
        d = self.grid.dim
        return [(j, k, imag) for j in range(1, d + 1) for k in range(j, d + 1)
                for imag in ((False, True) if j < k else (False,))]

    def symbol(self, j: int, k: int, imag: bool) -> np.ndarray:
        """Real Fourier symbol of Re H[j,k], or of Im H[j,k] if ``imag``."""
        mj, nj = self._wav[2 * j - 2], self._wav[2 * j - 1]
        mk, nk = self._wav[2 * k - 2], self._wav[2 * k - 1]
        s = mj * nk - nj * mk if imag else mj * mk + nj * nk
        s *= -np.pi ** 2
        return s

    def symbols(self, t: int, n: int = 1) -> np.ndarray:
        """The symbols of parts t, ..., t + n - 1 along a leading axis: all
        d^2 built once on the ``numpy.fft`` path; on the ``scipy.fft`` path
        (n = 1) per use, so that none is held through a Krylov solve."""
        if self._fft is not np.fft:
            return self.symbol(*self.parts()[t])[None]
        if self._symbols is None:
            self._symbols = np.array(np.broadcast_arrays(
                *(self.symbol(*part) for part in self.parts())))
        return self._symbols[t:t + n]

    def entries(self, vhat: np.ndarray, gram: np.ndarray) -> Hessian:
        """Upper triangle of A = g + H, j <= k, with a real diagonal; A[k,j]
        is the conjugate.  Each stack's symbols times ``vhat`` go into one
        work buffer, which every stack reuses, and one inverse transform;
        each part's term goes into its entry, or the entry's real or
        imaginary plane (straight from a one-part stack's transform), and g
        is added there."""
        out: Hessian = {}
        parts, n = self.parts(), self._depth
        work = np.empty((n,) + vhat.shape, complex)
        for t in range(0, len(parts), n):
            np.multiply(self.symbols(t, n), vhat, out=work)
            for j, k, imag in parts[t:t + n]:
                if not imag:
                    out[(j, k)] = np.empty(self.shape,
                                           float if j == k else complex)
            planes = [out[(j, k)].imag if imag else out[(j, k)].real
                      for j, k, imag in parts[t:t + n]]
            terms = self.irfft(work, out=planes[0][None] if n == 1 else None)
            for (j, k, imag), plane, term in zip(parts[t:], planes, terms):
                g = gram[j - 1, k - 1]
                np.add(term, g.imag if imag else g.real, out=plane)
        return out

    def weighted_sum(self, vhat: np.ndarray, weights: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
        """sum_t w_t irfft(symbol_t vhat) over the parts t into ``out``, the
        w_t stacked along a leading axis; the sum over a stack's leading axis
        adds its terms in part order.  A one-part stack writes into ``out``."""
        n = self._depth
        work = np.empty((n,) + vhat.shape, complex)
        for t in range(0, len(self.parts()), n):
            np.multiply(self.symbols(t, n), vhat, out=work)
            terms = self.irfft(work, out=None if t or n > 1 else out[None])
            terms *= weights[t:t + n]
            if n > 1:
                np.sum(terms, axis=0, out=out)
            elif t:
                out += terms[0]
            del terms   # before the next stack's transform
        return out


def _abs2(z: np.ndarray) -> np.ndarray:
    out = np.square(z.real)
    out += np.square(z.imag)
    return out


def _det_and_adjugate(A: Hessian, need_adj: bool):
    """det(A) as a new array, the upper triangle of adj(A) (None unless
    ``need_adj``; at d = 2 built in A's own arrays) and whether A is positive
    definite at every grid point, by Sylvester's criterion."""
    d = max(A)[0]
    a11 = A[(1, 1)]
    if d == 1:
        adj = {(1, 1): np.ones_like(a11)} if need_adj else None
        return a11.copy(), adj, bool(a11.min() > 0)
    a22, a12 = A[(2, 2)], A[(1, 2)]
    # the leading minor a11 a22 - |a12|^2, with one scratch array beside it
    m2 = np.square(a12.real)
    scratch = np.square(a12.imag)
    m2 += scratch
    np.subtract(np.multiply(a11, a22, out=scratch), m2, out=m2)
    del scratch
    if d == 2:
        adj = ({(1, 1): a22, (2, 2): a11, (1, 2): np.negative(a12, out=a12)}
               if need_adj else None)
        return m2, adj, bool(m2.min() > 0 and a11.min() > 0)
    # d == 3 (TorusGrid admits no other dimension)
    a33, a13, a23 = A[(3, 3)], A[(1, 3)], A[(2, 3)]
    det = (a33 * m2 - a11 * _abs2(a23) - a22 * _abs2(a13)
           + 2 * (a12 * a23 * np.conj(a13)).real)
    # adj[j,k] is the cofactor of entry (k, j)
    adj = {(1, 1): a22 * a33 - _abs2(a23), (2, 2): a11 * a33 - _abs2(a13),
           (3, 3): m2, (1, 2): a13 * np.conj(a23) - a12 * a33,
           (1, 3): a12 * a23 - a13 * a22,
           (2, 3): a13 * np.conj(a12) - a11 * a23} if need_adj else None
    return det, adj, bool(det.min() > 0 and a11.min() > 0 and m2.min() > 0)


def _min_eigenvalue(A: Hessian) -> float:
    """Smallest eigenvalue of A over the grid.  At d = 2 it is worked out in
    A's arrays and one scratch array, so A is spent."""
    d = max(A)[0]
    if d == 1:
        return float(A[(1, 1)].min())
    if d == 2:   # (a11 + a22 - sqrt((a11 - a22)^2 + 4 |a12|^2)) / 2
        a11, a22, a12 = A[(1, 1)], A[(2, 2)], A[(1, 2)]
        disc = np.abs(a12)
        disc *= disc
        disc *= 4
        gap = np.subtract(a11, a22, out=a12.real)   # a12 is read no more
        gap *= gap
        disc += gap
        a11 += a22
        a11 -= np.sqrt(disc, out=disc)
        a11 /= 2
        return float(a11.min())
    # d == 3: the cubic's roots are q + 2p cos(t + 2 pi k/3) (Smith, CACM 4,
    # 1961), B = A - q, q = tr(A)/3, 3t the angle of (det B, 2p^3 sin 3t).
    # (2p^3 sin 3t)^2 = (2/3) p^2 |E|^2 is the discriminant as a sum of squares
    # (Parlett, LAA 355, 2002), E = B^2 - 2p^2 - det(B)/(2p^2) B the part of
    # B^2 orthogonal to I and B: no digits cancel where two roots meet.
    q = (A[(1, 1)] + A[(2, 2)] + A[(3, 3)]) / 3
    b = {(j, k): v - q if j == k else v for (j, k), v in A.items()}
    p2 = sum(v * v if j == k else 2 * _abs2(v) for (j, k), v in b.items()) / 6
    det = _det_and_adjugate(b, False)[0]
    c = det / np.maximum(2 * p2, np.finfo(float).tiny)
    e2 = 0.0
    for j, k in b:
        e = sum((b[(j, m)] if j <= m else np.conj(b[(m, j)]))
                * (b[(m, k)] if m <= k else np.conj(b[(k, m)]))
                for m in (1, 2, 3)) - c * b[(j, k)]
        e2 += np.square(e.real - 2 * p2) if j == k else 2 * _abs2(e)
    t = np.arctan2(np.sqrt(e2 * p2 * (2 / 3)), det) / 3
    return float((q + 2 * np.sqrt(p2) * np.cos(t + 2 * np.pi / 3)).min())


@dataclass
class MADiagnostics:
    residual_history: List[float] = field(default_factory=list)
    newton_iterations: int = 0
    gmres_iterations: int = 0   # GMRES matvecs; a closed-form step adds 0
    inner_unconverged: int = 0  # Newton steps whose GMRES stopped at maxiter
    damping_events: int = 0
    positivity_rejections: int = 0  # line-search candidates with g + H not > 0
    continuation_stages: int = 0
    min_eigenvalue: float = float("nan")
    conservation_gap: float = float("nan")
    converged: bool = False
    failure: Optional[str] = None
    solve_shape: Tuple[int, ...] = ()   # the grid's, or its quotient's
    translations: Tuple[Tuple[int, ...], ...] = ()   # the quotient's vectors


_WORK_COUNTS = ("newton_iterations", "gmres_iterations", "damping_events",
                "inner_unconverged", "positivity_rejections")


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


def _g_plus_hessian(phi: ScalarField, gram) -> Hessian:
    op = HessianOp(phi.grid)
    return op.entries(op.rfft(phi.values), np.asarray(gram, dtype=complex))


def _residual(det: np.ndarray, F: ScalarField, detg: float):
    """C, R = det - C e^F det g, and max |R| / det g.  R is formed in e^F's
    array, which is grid-sized even where det is one point (a zero start)."""
    R = np.exp(F.values)
    C = float(det.mean() / (R.mean() * detg))
    R *= -C * detg
    R += det
    return C, R, float(max(R.max(), -R.min()) / detg)


def residual(phi: ScalarField, F: ScalarField, gram: np.ndarray) -> float:
    """max |det(g + H phi) - C e^F det g| / det g with C from the identity."""
    g = np.asarray(gram, dtype=complex)
    det, _, _ = _det_and_adjugate(_g_plus_hessian(phi, g), False)
    return _residual(det, F, float(np.linalg.det(g).real))[2]


def positivity_check(phi: ScalarField, gram: np.ndarray) -> float:
    """Minimum over the grid of the smallest eigenvalue of g + H(phi)."""
    return _min_eigenvalue(_g_plus_hessian(phi, gram))


def nyquist_free_gap(phi: ScalarField, gram: np.ndarray) -> float:
    """The conservation gap |mean det(g + H) - det g| / det g of phi with its
    Nyquist modes, the planes k = res/2 of every axis, set to 0."""
    g = np.asarray(gram, dtype=complex)
    op = HessianOp(phi.grid)
    phat = op.rfft(phi.values)
    for a in range(phat.ndim):
        phat[(slice(None),) * a + (phi.grid.res // 2,)] = 0.0
    detg = float(np.linalg.det(g).real)
    det = _det_and_adjugate(op.entries(phat, g), False)[0]
    return abs(float(det.mean()) - detg) / detg


def solve_ma(F: ScalarField, gram, tol: float = 1e-10,
             max_iter: int = 40, phi0: Optional[ScalarField] = None) -> MAResult:
    """Newton iteration for the normalized volume equation.

    Returns phi with sup phi = 0, the constant C, and diagnostics.  On
    divergence the forcing is ramped in stages (each converged stage seeds
    the next); only if the ramp also stalls does NewtonFailure propagate,
    carrying the last iterate.  Each of ``_WORK_COUNTS`` sums over every
    attempt made.  A tol, gram or phi0 that makes no sense (phi0 off F's
    grid, or non-finite), a non-finite F and a mean(e^F) outside (0, inf)
    raise GridError.
    """
    if not 1e-12 <= tol < np.inf:
        raise GridError("tolerance %r is not a finite number >= 1e-12" % (tol,))
    g = np.asarray(gram, dtype=complex)
    d = F.grid.dim
    if g.shape != (d, d):
        raise GridError("gram must be %d x %d" % (d, d))
    if np.linalg.norm(g - g.conj().T) > 1e-12 or np.linalg.eigvalsh(g).min() <= 0:
        raise GridError("gram must be Hermitian positive definite")
    grid = F.grid
    if phi0 is not None and phi0.values.shape != grid.shape:
        raise GridError("phi0 must have the forcing's shape %r" % (grid.shape,))
    # the checks read the constant-axis cut, which holds every value, and
    # transform nothing: a rejected forcing is never transformed
    cut = _constant_axis_cut([F.values] + ([] if phi0 is None
                                           else [phi0.values]))
    for name, v in zip(("forcing", "phi0"), cut):
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(v.sum()) or np.isfinite(v).all()
        if not finite:   # a finite sum proves every value finite
            raise GridError("%s has non-finite values" % name)
    with np.errstate(over="ignore"):   # the full grid's sum overflows alike
        eF_sum = float(np.exp(cut[0]).sum()) * (grid.points // cut[0].size)
    eF_mean = eF_sum / grid.points
    if not 0 < eF_mean < np.inf:
        raise GridError("forcing F has mean(e^F) %r, not in (0, inf)"
                        % eF_mean)
    # the equation commutes with the grid's translations, so the solution is
    # invariant under each one that leaves F and phi0 unchanged: the solve
    # runs on the section of those translations, and phi is gathered back
    vectors = _translations(grid.res, cut)
    F = F.section(vectors)
    if phi0 is not None:
        phi0 = phi0.section(vectors)
    try:
        result = _solve_continued(F, g, tol, max_iter, phi0)
    except NewtonFailure as failure:
        _lift(failure.result, grid)
        raise
    return _lift(result, grid)


def _lift(result: MAResult, grid: TorusGrid) -> MAResult:
    """``result`` with phi taken from the quotient it was solved on, whose
    shape and translations the diagnostics record, to ``grid``:
    phi(x) = phi_q(x - sum_p x_p v).  Each vector with two or more nonzero
    entries fills its pivot axis by rolls; the rest broadcast."""
    q, values = result.phi.grid, result.phi.values
    result.diagnostics.solve_shape = values.shape
    result.diagnostics.translations = q.vectors
    for v in q.vectors:
        if np.count_nonzero(v) > 1:
            values = np.concatenate([np.roll(values, [t * c for c in v],
                                             axis=range(len(v)))
                                     for t in range(grid.res)], axis=_pivot(v))
    if values.shape != grid.shape:
        values = np.broadcast_to(values, grid.shape).copy()
    result.phi = ScalarField(grid, values)
    return result


def _solve_continued(F: ScalarField, g: np.ndarray, tol: float, max_iter: int,
                     phi0: Optional[ScalarField]) -> MAResult:
    """One direct attempt; if it fails, the forcing ramped in stages."""
    try:
        return _solve_ma_direct(F, g, tol, max_iter, phi0)
    except NewtonFailure as failure:
        # the counts of the result, or of the re-raised failure, cover the
        # failed direct attempt and every stage run
        spent = [failure.result.diagnostics]
        stages = 4
        phi = phi0
        for k in range(1, stages + 1):
            Fk = ScalarField(F.grid, F.values * (k / stages))
            try:
                result = _solve_ma_direct(Fk, g, tol, max_iter, phi)
            except NewtonFailure as stalled:
                _total_work(failure.result.diagnostics,
                            spent + [stalled.result.diagnostics])
                raise failure from None
            result.diagnostics.continuation_stages = k
            spent.append(result.diagnostics)
            phi = result.phi
        _total_work(result.diagnostics, spent)
        return result


def _solve_ma_direct(F: ScalarField, g: np.ndarray, tol: float,
                     max_iter: int, phi0: Optional[ScalarField]) -> MAResult:
    grid = F.grid
    detg = float(np.linalg.det(g).real)
    eF_mean = float(np.exp(F.values).mean())

    op = HessianOp(grid)
    diag = MADiagnostics()

    # the iterate is kept as its half spectrum, mean free; a zero start holds
    # none (phat is None) and its A = g is one point per entry
    phat = None
    if phi0 is not None:
        phat = op.rfft(phi0.values)
        phat[(0,) * phat.ndim] = 0.0

    def hessian(vhat):   # A = g + H for the spectrum vhat, or for phi = 0
        if vhat is not None:
            return op.entries(vhat, g)
        return {(j, k): np.full((1,) * (2 * grid.dim), g[j - 1, k - 1].real
                                if j == k else g[j - 1, k - 1])
                for j, k, imag in op.parts() if not imag}

    def assemble(A):
        det, _, positive = _det_and_adjugate(A, False)
        return _residual(det, F, detg) + (positive,)

    def result():
        phi = np.zeros(grid.shape) if phat is None else op.irfft(phat)
        return MAResult(ScalarField(grid, phi - phi.max()), C, diag)

    def fail(msg):
        diag.failure = msg
        raise NewtonFailure(msg, result())

    A = hessian(phat)
    C, R, maxres, _ = assemble(A)
    diag.residual_history.append(maxres)
    r0 = max(maxres, 1e-30)

    while not maxres <= tol:   # a NaN residual is not convergence
        if diag.newton_iterations >= max_iter:
            fail("newton did not converge in %d iterations" % max_iter)
        diag.newton_iterations += 1
        # the linearization sum_jk adj_jk H_jk(psi) as one real weight per
        # symbol part, read from the adjugate's arrays (at d = 2, A's own)
        _, adj, _ = _det_and_adjugate(A, True)
        del A
        for jk in [(j, k) for j, k in adj if j < k]:
            adj[jk] *= 2   # A[j,k] and A[k,j] = conj A[j,k] both enter
        # the matvec's weights as one stack, a copy: A's arrays can go
        weights = np.array([adj[(j, k)].imag if imag else adj[(j, k)].real
                            for j, k, imag in op.parts()])
        del adj
        # forcing term on ||D^-1 (R + L psi)||: shrink with the residual, but
        # never ask for more than a tenth of what the outer tolerance can use
        inner_tol = max(1e-12, 0.1 * tol / maxres, min(1e-2, 0.1 * maxres / r0))
        psi_hat, iters, info = _newton_direction(op, weights, R, inner_tol)
        del weights, R
        diag.gmres_iterations += iters
        diag.inner_unconverged += info

        # the candidate phat + step psihat, with psihat halved in place on
        # each rejection (exact); a zero start's candidate is psihat itself
        for _ in range(25):
            A = hessian(psi_hat if phat is None else phat + psi_hat)
            Cc, R, res_c, positive = assemble(A)
            if res_c < maxres and positive:
                break
            del A, R
            psi_hat /= 2
            diag.damping_events += 1
            diag.positivity_rejections += not positive
        else:
            diag.residual_history.append(maxres)
            diag.min_eigenvalue = _min_eigenvalue(hessian(phat))
            fail("damping stalled at residual %.3e" % maxres)
        if phat is None:
            phat = psi_hat
        else:   # the accepted candidate: the same sum, same bits
            phat += psi_hat
        C, maxres = Cc, res_c
        del psi_hat
        diag.residual_history.append(maxres)

    diag.converged = True
    del R   # before the eigenvalue pass, which spends A
    diag.min_eigenvalue = _min_eigenvalue(A)
    del A
    # conservation: C * int e^F gamma^d = int gamma^d
    diag.conservation_gap = abs(C * eF_mean * detg - detg) / detg
    return result()


def _newton_direction(op: HessianOp, weights, R: np.ndarray, rtol: float):
    """GMRES(20) on D^-1 L P^-1 y = D^-1 R, psi = -P^-1 y, for L psi = -R with
    L psi = sum_t w_t irfft(symbol_t * psihat) over the parts t of ``op``; it
    stops on ||D^-1 (R + L psi)|| / ||D^-1 R||.  P is the mean-weight symbol.
    D = sum_t c_t w_t(x), c_t = sum_k |Rhat_k|^2 symbol_t(k), is the symbol at
    x averaged over the residual's spectrum, at mean 1; it scales ``weights``,
    the w_t stacked along a leading axis, and ``R`` in place.  Once GMRES has
    its normalized copy of R, each matvec sums into R's array, so the caller's
    R is spent and no second copy of it is held.  One-point weights (a zero
    start's A = g) make L = P and D = 1, so D^-1 L P^-1 = I and psi = -P^-1 R
    in closed form, with no GMRES call and 0 iterations.  Returns the half
    spectrum psihat of the mean-free psi, the GMRES iteration (matvec) count,
    and 1 if GMRES stopped at its iteration limit (0 otherwise)."""
    grid = op.grid
    flat_idx = (0,) * (2 * grid.dim)

    psym = sum(float(w.mean()) * op.symbols(t)[0]
               for t, w in enumerate(weights))
    psym[flat_idx] = 1.0

    def inv_p_hat(y):   # the spectrum of P^-1 y, mean free
        yhat = op.rfft(y.reshape(op.shape))
        yhat /= psym
        yhat[flat_idx] = 0.0
        return yhat

    def direction(y):   # psihat = -P^-1 y
        # P^-1 y is not a real field's spectrum where psym is not even in k:
        # keep the part that the real psi = irfft(P^-1 y) has
        psi_hat = op.real_spectrum(inv_p_hat(y))
        return np.negative(psi_hat, out=psi_hat)

    if weights[0].size == 1:   # one point (a zero start): L = P and D = 1
        return direction(R), 0, 0
    power = _abs2(op.rfft(R))
    coef = [float((power * op.symbols(t)[0]).sum())
            for t in range(len(weights))]
    del power
    scale = sum(c * w for c, w in zip(coef, weights))
    scale /= scale.mean()
    weights /= scale
    R /= scale   # the caller's R, which _solve_ma_direct drops next
    del scale

    def matvec(y_flat):   # summed in R's array, which gmres no longer reads
        return op.weighted_sum(inv_p_hat(y_flat), weights, R).ravel()

    # R, not -R, on the right and psi = -P^-1 y: GMRES is odd in the
    # right-hand side, and this needs no negated copy of R
    y, iters, info, _ = gmres(matvec, R.ravel(), rtol)
    return direction(y), iters, info


def gmres(matvec, b: np.ndarray, rtol: float):
    """GMRES(20) (Saad & Schultz 1986) for A x = b from x = 0, where
    ``matvec(v)`` is A v on flat float arrays.  ``b`` is read only before the
    first matvec, so ``matvec`` may return its result in b's array.

    Each inner iteration is one matvec, orthogonalised by classical
    Gram-Schmidt applied twice.  Givens rotations keep the QR factors of
    the Hessenberg matrix H_k up to date, so the residual estimate is
    |g_{k+1}|, the last entry of the rotated beta e_1, and one triangular
    solve gives x when GMRES stops or restarts.  The restart residual comes
    from the Arnoldi relation A V_k = V_{k+1} H_k, not from a matvec.
    Stops once the estimate is <= rtol ||b||, when it is NaN, on an
    invariant Krylov space or after 200 inner iterations.  Returns x, the
    inner iteration count, info (0 converged, 1 not) and the estimate over
    ||b||."""
    restart, maxiter = 20, 200
    beta = norm_b = float(np.linalg.norm(b))
    bound = rtol * beta
    if beta == 0.0:
        return np.zeros(b.size), 0, 0, 0.0
    x = 0.0   # an array from the first update on
    V = np.empty((restart + 1, b.size))
    np.divide(b, beta, out=V[0])
    iters = 0
    while True:
        hess = np.zeros((restart + 1, restart))
        tri = np.zeros((restart, restart))   # H_k rotated: upper triangular
        rot, g = [], [beta]   # the rotations, and beta e_1 rotated by them
        for k in range(restart):
            w = matvec(V[k])
            for _ in range(2):
                h = V[:k + 1] @ w
                w -= h @ V[:k + 1]
                hess[:k + 1, k] += h
            hess[k + 1, k] = norm_w = float(np.linalg.norm(w))
            iters += 1
            col = hess[:k + 1, k].tolist()
            for i, (c, s) in enumerate(rot):
                col[i:i + 2] = (c * col[i] + s * col[i + 1],
                                c * col[i + 1] - s * col[i])
            # a zero column (only where norm_w is 0) takes the coefficient 0
            r = math.hypot(col[k], norm_w)
            c, s = (col[k] / r, norm_w / r) if r else (0.0, 1.0)
            rot.append((c, s))
            tri[:k, k], tri[k, k] = col[:k], r or 1.0
            g[k:] = c * g[k], -s * g[k]
            res_norm = abs(g[k + 1])
            # a zero norm_w is an invariant Krylov space: the estimate is exact
            if not res_norm > bound or iters == maxiter or norm_w == 0.0:
                x += np.linalg.solve(tri[:k + 1, :k + 1], g[:k + 1]) @ V[:k + 1]
                return x, iters, int(not res_norm <= bound), res_norm / norm_b
            np.divide(w, norm_w, out=V[k + 1])
            del w   # before the next matvec makes its successor
        coef = np.linalg.solve(tri, g[:restart])
        x += coef @ V[:restart]
        res = -(hess @ coef)   # b - A x in V, by the Arnoldi relation
        res[0] += beta
        beta = float(np.linalg.norm(res))
        V[0] = res @ V
        V[0] /= beta


# -- sample / mode file formats --------------------------------------------------


def parse_modes(text: str, grid: TorusGrid, path: str = "<modes>") -> ScalarField:
    """Mode lines: 2d integer indices then amplitude re [im]."""
    modes = []
    n = 2 * grid.dim
    for lineno, line, parts in data_lines(text):
        try:   # exactly one or two amplitude tokens: unpacking checks
            k = [int(x) for x in parts[:n]]
            re, im = map(float, parts[n:n + 1] + (parts[n + 1:] or ["0"]))
            modes.append((k, complex(re, im)))
        except ValueError:
            raise GridError("%s:%d: bad mode line %r" % (path, lineno, line))
    return ScalarField.from_modes(grid, modes)


def parse_samples(text: str, grid: TorusGrid, path: str = "<samples>") -> ScalarField:
    vals = []
    for lineno, _, parts in data_lines(text):
        for tok in parts:
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
