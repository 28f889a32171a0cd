"""Independent oracles used to freeze expected values.

The rank oracle is fraction-free integer elimination (Bareiss) over
numerator-cleared Gaussian integers, sharing no code with the production
elimination; the expansion oracles recompute wedge/contraction results by
brute-force permutation sums instead of ordered-merge signs, the wedge
Gram oracle takes every minor as a permutation sum instead of a compound
matrix, the adjoint oracle solves against raw Grams instead of
orthonormalizing through a Cholesky factor (the Bott-Chern Laplacian,
minimal-potential and minimality oracles build on it in raw coordinates,
with no Cholesky factor either), the Green oracle inverts a Hermitian
matrix on its eigenvectors and projects onto those of its kernel instead of
a least-squares solve, the invariant-differential
oracle applies d letter by letter (Leibniz rule) from the raw structure
constants and sorts each word by a permutation sign instead of contracting
and merging, the complex-dimension-one
solver oracle divides by a ddbar symbol derived here with numpy.fft instead
of the solver's symbol table, the manufactured-solution oracle takes the
forcing of a sum of cosines from their closed-form second derivatives and
numpy.linalg.det, with no transform, and the Gaussian-rational oracle keeps
a pair of Fractions with textbook field operations instead of CRat's reduced
integer triple.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import List, Sequence, Tuple

import numpy as np

from balmap.exact import CRat


def _clear_denominators(rows: Sequence[Sequence[CRat]]) -> List[List[complex]]:
    """Scale each row by the lcm of denominators; entries become Gaussian ints."""
    out = []
    for row in rows:
        dens = [c.re.denominator for c in row] + [c.im.denominator for c in row]
        lcm = 1
        for d in dens:
            g = _gcd(lcm, d)
            lcm = lcm // g * d
        out.append([complex(int(c.re * lcm), int(c.im * lcm)) for c in row])
    return out


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def bareiss_rank(rows: Sequence[Sequence[CRat]]) -> int:
    """Rank by fraction-free elimination over Gaussian integers."""
    m = [[complex(int(z.real), int(z.imag)) for z in row]
         for row in _clear_denominators(rows)]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1 + 0j
    row = 0
    for col in range(nc):
        piv = next((r for r in range(row, nr) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(row + 1, nr):
            for c in range(col + 1, nc):
                num = m[r][c] * m[row][col] - m[r][col] * m[row][c]
                q = num / prev
                qr, qi = round(q.real), round(q.imag)
                assert abs(q.real - qr) < 1e-9 and abs(q.imag - qi) < 1e-9, \
                    "Bareiss division was not exact"
                m[r][c] = complex(qr, qi)
            m[r][col] = 0j
        prev = m[row][col]
        rank += 1
        row += 1
        if row == nr:
            break
    return rank


def wedge_eval_oracle(covectors: Sequence[Sequence[complex]],
                      vectors: Sequence[Sequence[complex]]) -> complex:
    """(a_1 ^ ... ^ a_k)(v_1, ..., v_k) as a permutation-sum determinant."""
    k = len(covectors)
    assert len(vectors) == k
    total = 0j
    for perm in permutations(range(k)):
        sign = _perm_sign(perm)
        prod = 1 + 0j
        for i, p in enumerate(perm):
            prod *= sum(a * v for a, v in zip(covectors[i], vectors[p]))
        total += sign * prod
    return total


def leibniz_det(m: Sequence[Sequence[complex]]) -> complex:
    """Determinant as the Leibniz permutation sum (1 for a 0 x 0 matrix)."""
    total = 0j
    for perm in permutations(range(len(m))):
        prod = 1 + 0j
        for i, p in enumerate(perm):
            prod *= m[i][p]
        total += _perm_sign(perm) * prod
    return total


def wedge_gram_oracle(g, keys, vol: float) -> List[List[complex]]:
    """Gram of the basis phi_I ^ phibar_J, in the order of keys, from the
    coframe Gram g: <phi_I ^ phibar_J, phi_K ^ phibar_L> =
    vol * det g[I,K] * conj(det g[J,L]), 1-based index words."""
    @lru_cache(maxsize=None)
    def minor(rows, cols):
        return leibniz_det([[g[r - 1][c - 1] for c in cols] for r in rows])
    return [[vol * minor(I, K) * minor(J, L).conjugate() for K, L in keys]
            for I, J in keys]


def adjoint(A, gram_dom, gram_cod) -> np.ndarray:
    """Adjoint of the matrix A: dom -> cod under the Grams of both spaces
    (as wedge_gram_oracle gives them): <A u, v> = <u, A* v> with
    <u, v> = v^H H u gives A* = H_dom^-1 A^H H_cod."""
    A = np.asarray(A, dtype=complex)
    n, m = A.shape
    Hd = np.asarray(gram_dom, dtype=complex).reshape(m, m)
    Hc = np.asarray(gram_cod, dtype=complex).reshape(n, n)
    return np.linalg.solve(Hd, A.conj().T @ Hc)


def bc_laplacian_oracle(op, gram, p: int, q: int) -> np.ndarray:
    """Bott-Chern Laplacian at (p,q) in raw wedge coordinates: the sum of
    F* F over del, delbar, ddbar, (ddbar)*, del* delbar and delbar* del, each
    adjoint taken by ``adjoint``.  op(kind, p, q) is the matrix of kind
    ("del", "delbar" or "ddbar") from (p,q), and gram(p, q) the Gram at
    (p,q); outside 0..dim a space is empty."""
    H = gram
    D, Db = op("del", p, q), op("delbar", p, q)
    factors = [
        (D, (p + 1, q)), (Db, (p, q + 1)), (op("ddbar", p, q), (p + 1, q + 1)),
        (adjoint(op("ddbar", p - 1, q - 1), H(p - 1, q - 1), H(p, q)),
         (p - 1, q - 1)),
        (adjoint(op("del", p - 1, q + 1), H(p - 1, q + 1), H(p, q + 1)) @ Db,
         (p - 1, q + 1)),
        (adjoint(op("delbar", p + 1, q - 1), H(p + 1, q - 1), H(p + 1, q)) @ D,
         (p + 1, q - 1))]
    return sum(adjoint(F, H(p, q), H(*cod)) @ F for F, cod in factors)


def neumann_oracle(f, op, gram, p: int, q: int) -> np.ndarray:
    """-i (ddbar)* Laplacian^+ f, the minimal potential of i ddbar Gamma = f
    for f at (p,q), in raw coordinates at (p-1,q-1), with op and gram as for
    bc_laplacian_oracle.  Every w with Laplacian w = f has the same
    (ddbar)* w, as the Laplacian's kernel lies in that of (ddbar)*, so a
    least-squares w with a relative cutoff of 1e-9 serves."""
    w = np.linalg.lstsq(bc_laplacian_oracle(op, gram, p, q), f, rcond=1e-9)[0]
    return -1j * adjoint(op("ddbar", p - 1, q - 1), gram(p - 1, q - 1),
                         gram(p, q)) @ w


def green_oracle(A, v, cutoff: float = 1e-9) -> Tuple[np.ndarray, float]:
    """(A^+ v, norm of the projection of v onto ker A) for a Hermitian
    positive semi-definite A, from its eigendecomposition: an eigenvalue at
    or below cutoff times the largest counts as kernel."""
    w, V = np.linalg.eigh(np.asarray(A, dtype=complex))
    c = V.conj().T @ v
    ker = w <= cutoff * max(w.max(initial=0.0), 1e-300)
    inv = np.where(ker, 0.0, 1.0 / np.where(ker, 1.0, w))
    return V @ (inv * c), float(np.linalg.norm(c[ker]))


def minimality_residual(v, P, gram_dom, gram_cod) -> float:
    """Distance of v from the image of the adjoint of P: dom -> cod, in the
    norm of gram_dom, relative to the norm of v.  The image's basis is the
    left singular vectors of that adjoint above a relative cutoff of 1e-9,
    and v is projected onto it through the normal equations in gram_dom."""
    H = np.asarray(gram_dom, dtype=complex)
    U, s, _ = np.linalg.svd(adjoint(P, H, gram_cod))
    B = U[:, :int((s > 1e-9 * s.max(initial=0.0)).sum())]
    r = v - B @ np.linalg.solve(B.conj().T @ H @ B, B.conj().T @ H @ v)

    def norm(x):
        return np.sqrt(abs(np.vdot(x, H @ x)))
    return float(norm(r) / max(norm(v), 1e-300))


# letters of the basis 2-form of each structure-constant family, as
# (barred, index slot) pairs: "hh" phi^i^phi^j, "mx" phi^i^phibar^j,
# "aa" phibar^i^phibar^j
_FAMILY_LETTERS = {"hh": (False, False), "mx": (False, True),
                   "aa": (True, True)}


def leibniz_d_oracle(diff, key) -> dict:
    """d of the basis word phi_I ^ phibar_J, key = (I, J), of a
    structure-constant model with d(phi^k) = sum of diff[k]'s DiffTerms.

    d(l_1 ^ ... ^ l_m) = sum_pos (-1)^pos l_1 ^ .. ^ d(l_pos) ^ .. ^ l_m,
    with d(phibar^k) the letterwise conjugate of d(phi^k); each word is
    sorted to unbarred-then-barred increasing order by a permutation sign.
    Repeated DiffTerms add.  Returns {(I, J): coefficient}, zeros dropped.
    """
    I, J = key
    letters = [(False, i) for i in I] + [(True, j) for j in J]
    out = {}
    for pos, (bar, k) in enumerate(letters):
        for t in diff.get(k, ()):
            (b1, b2), c = _FAMILY_LETTERS[t.family], t.coeff
            pair = [(b1 != bar, t.i), (b2 != bar, t.j)]
            word = letters[:pos] + pair + letters[pos + 1:]
            if len(set(word)) < len(word):
                continue
            order = tuple(sorted(range(len(word)), key=lambda n: word[n]))
            coeff = (c.conjugate() if bar else c) * (
                (-1) ** pos * _perm_sign(order))
            w = tuple(word[n] for n in order)
            k2 = (tuple(i for b, i in w if not b), tuple(i for b, i in w if b))
            out[k2] = out[k2] + coeff if k2 in out else coeff
    return {k2: c for k2, c in out.items() if c}


def _perm_sign(perm: Tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def finite_difference_order(errors: Sequence[float],
                            hs: Sequence[float]) -> List[float]:
    import math
    out = []
    for (e1, h1), (e2, h2) in zip(zip(errors, hs), zip(errors[1:], hs[1:])):
        if e1 > 0 and e2 > 0:
            out.append(math.log(e1 / e2) / math.log(h1 / h2))
    return out


def richardson_limit(values: Sequence[float], hs: Sequence[float]) -> float:
    """Second-order Richardson extrapolation of a scalar sequence."""
    (v1, h1), (v2, h2) = (values[-2], hs[-2]), (values[-1], hs[-1])
    r = (h1 / h2) ** 2
    return (r * v2 - v1) / (r - 1)


def linear_oracle_d1(F: np.ndarray, gram) -> Tuple[np.ndarray, float]:
    """Potential and constant of the volume-normalization equation for complex
    dimension one, from the forcing samples F on a res x res grid.

    In one dimension det(g + phi_{z zbar}) = C e^F g is linear: phi_{z zbar} =
    C e^F g - g with C = 1 / mean(e^F), the mean of the left side being 0.
    Samples sit at (x, y) = (i, j) / res on the unit torus with z = x + i y,
    so d/dz d/dzbar = (d_xx + d_yy) / 4 acts on exp(2 pi i (m x + n y)) as
    -pi^2 (m^2 + n^2).  Returns phi with sup phi = 0, and C.
    """
    res = F.shape[0]
    assert F.shape == (res, res)
    g = float(np.asarray(gram, dtype=complex)[0, 0].real)
    eF = np.exp(F)
    C = 1.0 / float(eF.mean())
    m = np.fft.fftfreq(res, d=1.0 / res)
    sym = -np.pi ** 2 * (m[:, None] ** 2 + m[None, :] ** 2)
    sym[0, 0] = 1.0
    rhat = np.fft.fft2(C * eF * g - g) / sym
    rhat[0, 0] = 0.0
    phi = np.fft.ifft2(rhat).real
    return phi - phi.max(), C


def manufactured_forcing(res: int, modes,
                         gram) -> Tuple[np.ndarray, np.ndarray]:
    """Samples of phi* = sum_m a_m cos(2 pi k_m . u) and of the forcing F
    that makes it the solution: det(g + H phi*) = e^F det g, C = 1.

    u runs over the grid j / res in the solver's layout, real axes (x_1,
    y_1, ..., x_d, y_d) with z_p = x_p + i y_p; each phase is the integer
    k.j mod res times 2 pi / res, so a grid translation v with k.v = 0 (mod
    res) for every mode leaves both sample arrays bitwise unchanged.
    H[p,q] = d^2 phi* / dz_p dzbar_q = (D(x_p, x_q) + D(y_p, y_q)
    + i (D(x_p, y_q) - D(y_p, x_q))) / 4 with the closed form D(r, s) =
    -(2 pi)^2 sum_m a_m k_r k_s cos, and F = log det(g + H) - log det g.
    Returns (phi*, F), each of shape (res,) * 2d.
    """
    g = np.asarray(gram, dtype=complex)
    d = g.shape[0]
    j = np.indices((res,) * (2 * d))
    phi = np.zeros((res,) * (2 * d))
    D = np.zeros((2 * d, 2 * d) + phi.shape)
    for k, a in modes:
        wave = np.cos(sum(int(c) * jc for c, jc in zip(k, j)) % res
                      * (2 * np.pi / res))
        phi += a * wave
        for r in range(2 * d):
            for s in range(2 * d):
                D[r, s] -= (2 * np.pi) ** 2 * a * k[r] * k[s] * wave
    A = np.empty(phi.shape + (d, d), dtype=complex)
    for p in range(d):
        for q in range(d):
            xp, yp, xq, yq = 2 * p, 2 * p + 1, 2 * q, 2 * q + 1
            A[..., p, q] = g[p, q] + (D[xp, xq] + D[yp, yq]
                                      + 1j * (D[xp, yq] - D[yp, xq])) / 4
    F = np.log(np.linalg.det(A).real) - np.log(np.linalg.det(g).real)
    return phi, F


class FracPair:
    """Reference Gaussian rational re + im*i held as two Fractions.

    Reads a CRat only through its public .re and .im; equality compares
    parts, so it also holds between a FracPair and a CRat.
    """

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @classmethod
    def of(cls, z: CRat) -> "FracPair":
        return cls(z.re, z.im)

    def __add__(self, o):
        return FracPair(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return FracPair(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return FracPair(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero FracPair")
        return FracPair((self.re * o.re + self.im * o.im) / n,
                        (self.im * o.re - self.re * o.im) / n)

    def __neg__(self):
        return FracPair(-self.re, -self.im)

    def conjugate(self) -> "FracPair":
        return FracPair(self.re, -self.im)

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        # "re", "imi" or "re+imi"/"re-|im|i", each part as str(Fraction)
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return str(self.im) + "i"
        return "%s%s%si" % (self.re, "-" if self.im < 0 else "+", abs(self.im))
