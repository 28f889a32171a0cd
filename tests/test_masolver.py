"""Volume-normalization solver: oracles, conservation, robustness."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from balmap import masolver
from balmap.masolver import (GridError, HessianOp, NewtonFailure, ScalarField,
                             TorusGrid, _det_and_adjugate, _min_eigenvalue,
                             format_samples, gmres, parse_modes, parse_samples,
                             positivity_check, residual, solve_ma)
from oracles import linear_oracle_d1, manufactured_forcing


def test_grid_validation():
    with pytest.raises(GridError):
        TorusGrid(1, 12)     # not a power of two
    with pytest.raises(GridError):
        TorusGrid(1, 4)      # too small
    with pytest.raises(GridError):
        TorusGrid(3, 64)     # exceeds the memory cap
    g = TorusGrid(2, 8)
    assert g.shape == (8, 8, 8, 8)


def test_flat_solution_and_constant():
    g = TorusGrid(1, 16)
    res = solve_ma(ScalarField.zeros(g), [[1.0]])
    assert np.abs(res.phi.values).max() == 0.0
    assert res.C == 1.0
    assert res.diagnostics.converged


def test_d1_matches_linear_oracle():
    g = TorusGrid(1, 64)
    F = ScalarField.from_modes(g, [((1, 0), 0.3), ((0, 2), 0.1), ((2, 1), 0.05)])
    res = solve_ma(F, [[1.5]], tol=1e-12)
    oracle, C = linear_oracle_d1(F.values, [[1.5]])
    assert np.abs(res.phi.values - oracle).max() < 1e-10
    assert abs(res.C - C) < 1e-12


@pytest.mark.parametrize("d,res,modes,gram,shape", [
    # phi*'s modes span every axis: the full grid, on scipy.fft
    (2, 16, [((1, 0, 0, 0), 0.01), ((0, 1, 1, 0), 0.005),
             ((1, 1, 0, 1), 0.004), ((0, 0, 0, 1), 0.002)], "_GRAM2",
     (16, 16, 16, 16)),
    (3, 8, [((1, 0, 0, 0, 0, 0), 0.01), ((0, 0, 1, 1, 0, 0), 0.005),
            ((0, 1, 0, 0, 1, 1), 0.004), ((0, 0, 0, 1, 0, 0), 0.002),
            ((0, 0, 0, 0, 1, 0), 0.002), ((0, 0, 0, 0, 0, 1), 0.002)],
     "identity", (8,) * 6),
    # grid translations: a constant axis, and at d = 3 two diagonal ones;
    # each section is below SCIPY_FFT_POINTS, so its parts go as one stack
    (2, 16, [((1, 0, 0, 0), 0.01), ((0, 1, 1, 0), 0.005),
             ((1, 0, 1, 0), 0.004)], "_GRAM2", (16, 16, 16, 1)),
    (3, 8, [((1, 0, 1, 0, 0, 0), 0.01), ((0, 0, 0, 0, 1, 0), 0.005),
            ((0, 1, 0, 1, 0, 0), 0.002)], "identity", (1, 1, 8, 8, 8, 1)),
])
def test_band_limited_manufactured_solution_comes_back(d, res, modes, gram,
                                                       shape):
    # F = log det(g + H phi*) - log det g from phi*'s closed-form second
    # derivatives (tests/oracles.py); the spectral Hessian of a phi* below
    # the Nyquist band is exact, so the solve returns phi* - sup phi* and
    # C = 1 to round-off
    gram = np.eye(d) if gram == "identity" else _GRAM2
    phi, F = manufactured_forcing(res, modes, gram)
    got = solve_ma(ScalarField(TorusGrid(d, res), F), gram, tol=1e-12)
    assert got.diagnostics.converged
    assert got.diagnostics.solve_shape == shape
    assert np.abs(got.phi.values - (phi - phi.max())).max() <= 1e-13
    assert abs(got.C - 1) <= 1e-13


def test_d2_converged_solve_properties():
    g = TorusGrid(2, 16)
    F = ScalarField.from_modes(g, [((1, 0, 0, 0), 0.3), ((0, 1, 1, 0), 0.2),
                                   ((1, 1, 0, 1), complex(0.15, 0.1))])
    gram = np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.0]])
    res = solve_ma(F, gram, tol=1e-10)
    d = res.diagnostics
    assert d.converged
    assert d.residual_history[-1] <= 1e-10
    assert d.min_eigenvalue > 0
    assert d.conservation_gap <= 1e-9
    assert res.phi.values.max() == 0.0  # sup normalization
    # independent residual recomputation
    assert residual(res.phi, F, gram) < 1e-9
    assert positivity_check(res.phi, gram) > 0


def test_d2_residual_history_monotone_after_damping():
    g = TorusGrid(2, 16)
    F = ScalarField.from_modes(g, [((1, 0, 0, 0), 0.4), ((0, 0, 2, 0), 0.25)])
    res = solve_ma(F, np.eye(2), tol=1e-10)
    hist = res.diagnostics.residual_history
    assert all(b < a for a, b in zip(hist, hist[1:]))
    # quadratic tail: last contraction factor much smaller than the first
    ratios = [b / a for a, b in zip(hist, hist[1:])]
    assert ratios[-1] < 0.25 * ratios[0] or hist[-1] < 1e-12


def test_two_initializations_agree():
    g = TorusGrid(2, 16)
    F = ScalarField.from_modes(g, [((1, 0, 0, 0), 0.3), ((0, 1, 1, 0), 0.2)])
    r1 = solve_ma(F, np.eye(2), tol=1e-11)
    seed = ScalarField.from_modes(g, [((0, 1, 0, 0), 0.1), ((1, 0, 1, 0), 0.04)])
    r2 = solve_ma(F, np.eye(2), tol=1e-11, phi0=seed)
    assert np.abs(r1.phi.values - r2.phi.values).max() < 1e-8


def test_spectral_accuracy_doubling_resolution():
    modes = [((1, 0, 0, 0), 0.05), ((0, 1, 1, 0), 0.04)]
    ga = TorusGrid(2, 16)
    gb = TorusGrid(2, 32)
    ra = solve_ma(ScalarField.from_modes(ga, modes), np.eye(2), tol=1e-12)
    rb = solve_ma(ScalarField.from_modes(gb, modes), np.eye(2), tol=1e-12)
    gap = np.abs(rb.phi.values[::2, ::2, ::2, ::2] - ra.phi.values).max()
    assert gap < 1e-10


def test_newton_failure_reports_last_iterate():
    # iteration budget too small for a strongly nonlinear solve.  F is
    # constant along y_2 and invariant under the translation (0, 1, -1, 0),
    # so the solve runs on the section y_1 = y_2 = 0; the failure's phi is
    # gathered back to the caller's grid
    g = TorusGrid(2, 16)
    F = ScalarField.from_modes(g, [((1, 0, 0, 0), 0.8), ((0, 1, 1, 0), 0.6)])
    with pytest.raises(NewtonFailure) as e:
        solve_ma(F, np.eye(2), tol=1e-12, max_iter=1)
    result = e.value.result
    assert result.diagnostics.failure
    assert result.diagnostics.solve_shape == (16, 1, 16, 1)
    assert result.diagnostics.translations == ((0, 1, -1, 0), (0, 0, 0, 1))
    phi = result.phi.values
    assert result.phi.grid == g and phi.shape == g.shape
    assert (phi == phi[..., :1]).all()
    assert np.array_equal(np.roll(phi, (1, -1), axis=(1, 2)), phi)
    assert result.phi.values.flags.writeable


def test_z1_forcing_in_d2_is_the_d1_solve_broadcast(monkeypatch):
    # with g = I and phi a function of z_1, det(g + H) = 1 + H_11: the d = 2
    # solve is the d = 1 solve, constant along x_2 and y_2.  The grid has
    # 2^16 points, its quotient 2^8, and the transforms follow the quotient
    modes = [((1, 0), 0.3), ((0, 2), 0.1), ((2, 1), 0.05 + 0.02j)]
    r1 = solve_ma(ScalarField.from_modes(TorusGrid(1, 16), modes), [[1.0]],
                  tol=1e-10)
    g2 = TorusGrid(2, 16)
    assert HessianOp(g2)._fft is not np.fft
    backends = set()
    real = HessianOp.rfft

    def spy(self, v):
        backends.add(self._fft)
        return real(self, v)
    monkeypatch.setattr(HessianOp, "rfft", spy)
    r2 = solve_ma(ScalarField.from_modes(g2, [(k + (0, 0), a)
                                              for k, a in modes]),
                  np.eye(2), tol=1e-10)
    assert r2.diagnostics.solve_shape == (16, 16, 1, 1)
    assert backends == {np.fft}
    assert r2.phi.values.shape == g2.shape
    want = np.broadcast_to(r1.phi.values[:, :, None, None], g2.shape)
    assert np.abs(r2.phi.values - want).max() <= 1e-14
    assert r2.C == pytest.approx(r1.C, rel=1e-14)


def test_invariant_forcing_gives_a_phi_constant_along_its_constant_axes():
    # F is constant along y_2: the returned phi is exactly constant along
    # it, and solves the equation on the caller's full grid
    grid = TorusGrid(2, 16)
    F = ScalarField.from_modes(grid, [((1, 0, 0, 0), 0.3), ((0, 1, 1, 0), 0.2),
                                      ((1, 0, 1, 0), complex(0.15, 0.1))])
    res = solve_ma(F, _GRAM2, tol=1e-10)
    assert res.diagnostics.converged
    assert res.diagnostics.solve_shape == (16, 16, 16, 1)
    phi = res.phi.values
    assert (phi == phi[..., :1]).all()
    assert residual(res.phi, F, _GRAM2) <= 1e-10
    assert positivity_check(res.phi, _GRAM2) > 0


def _full_grid_solve(F, gram, tol, max_iter=40, phi0=None):
    """The solve on every point of F's grid: no translation is used."""
    full = masolver._Quotient(F.grid.dim, F.grid.res, ())
    return masolver._solve_continued(
        ScalarField(full, F.values), np.asarray(gram, dtype=complex), tol,
        max_iter, None if phi0 is None else ScalarField(full, phi0.values))


def _stage_counts(diag):
    return _counts(diag) + [diag.continuation_stages]


@pytest.mark.parametrize("grid,modes,seed,gram,tol,max_iter,shape,counts", [
    # the benchmark's Krylov-bound and d = 3 shapes
    (TorusGrid(2, 16), [((1, 0, 1, 0), 2.0), ((0, 1, 0, 1), 1.0),
                        ((1, 1, 0, 0), 2 / 3)], None, "identity", 1e-9, 40,
     (1, 16, 16, 16), [5, 58, 1, 0, 0]),
    (TorusGrid(3, 8), [((1, 0, 1, 0, 0, 0), 0.1), ((0, 0, 0, 0, 1, 0), 0.05)],
     None, "identity", 1e-9, 40, (1, 1, 8, 1, 8, 1), [3, 5, 0, 0, 0]),
    # under-resolved: an inner solve stops at maxiter, conservation fails
    (TorusGrid(2, 8), [((1, 0, 1, 0), 0.9), ((0, 1, 0, 1), 0.5),
                       ((1, 1, 0, 0), complex(0.3, 0.1))], None, "identity",
     1e-9, 40, (1, 8, 8, 8), [4, 208, 0, 1, 0]),
    # a seeded pair: F and phi0 together leave (0, 0, 1, -1)
    (TorusGrid(2, 16), [((1, 0, 0, 0), 0.1), ((0, 1, 1, 1), 0.01)],
     [((0, 1, 0, 0), 0.05), ((1, 0, 1, 1), 0.01)], "identity", 1e-9, 40,
     (16, 16, 1, 16), [4, 11, 0, 0, 0]),
    # the continuation test's hard solve: every stage on the section
    (TorusGrid(2, 16), [((1, 0, 0, 0), 3.5), ((0, 1, 1, 0), 2.45)], None,
     "identity", 1e-10, 6, (16, 1, 16, 1), [23, 328, 4, 1, 4]),
    (TorusGrid(2, 16), [((1, 0, 0, 0), 0.3), ((0, 1, 1, 0), 0.2),
                        ((1, 0, 1, 0), complex(0.15, 0.1))], None, "_GRAM2",
     1e-9, 40, (16, 16, 16, 1), [4, 11, 0, 0, 0]),
])
def test_section_solve_is_the_full_grid_solve(grid, modes, seed, gram, tol,
                                              max_iter, shape, counts):
    # the solution inherits each translation that fixes F and phi0; on
    # their section the Newton, inner, damping and continuation path is the
    # full grid's, and phi agrees to round-off
    gram = np.eye(grid.dim) if gram == "identity" else _GRAM2
    F = ScalarField.from_modes(grid, modes)
    phi0 = None if seed is None else ScalarField.from_modes(grid, seed)
    res = solve_ma(F, gram, tol=tol, max_iter=max_iter, phi0=phi0)
    full = _full_grid_solve(F, gram, tol, max_iter, phi0)
    d = res.diagnostics
    assert d.solve_shape == shape and full.diagnostics.solve_shape == ()
    assert _stage_counts(d) == _stage_counts(full.diagnostics) == counts
    assert np.abs(res.phi.values - full.phi.values).max() <= 1e-13
    assert res.C == pytest.approx(full.C, rel=1e-14)
    assert d.conservation_gap == pytest.approx(
        full.diagnostics.conservation_gap, rel=1e-6, abs=1e-15)
    for v in d.translations:
        assert np.array_equal(np.roll(res.phi.values, v, axis=range(len(v))),
                              res.phi.values)


def test_from_modes_samples_are_bitwise_invariant_under_the_annihilator():
    # each phase is the integer k.j mod res times 2 pi / res, so any grid
    # translation v with k.v = 0 (mod res) for every mode leaves the bits
    rng = np.random.default_rng(24)
    for grid in (TorusGrid(1, 16), TorusGrid(2, 8), TorusGrid(3, 8)):
        n, res = 2 * grid.dim, grid.res
        for _ in range(4):
            ks = rng.integers(-2 * res, 2 * res, size=(int(rng.integers(1, n)),
                                                       n))
            F = ScalarField.from_modes(grid, [
                (k, complex(*rng.normal(size=2))) for k in ks])
            vs = np.indices((res,) * n).reshape(n, -1).T
            vs = vs[((ks @ vs.T) % res == 0).all(axis=0)]
            assert len(vs) >= res   # fewer than n modes
            for v in vs[rng.choice(len(vs), 20)]:
                assert np.array_equal(np.roll(F.values, v, axis=range(n)),
                                      F.values)


def test_gram_validation():
    g = TorusGrid(2, 8)
    F = ScalarField.zeros(g)
    with pytest.raises(GridError):
        solve_ma(F, np.array([[1.0, 0.5], [0.1, 1.0]]))
    with pytest.raises(GridError):
        solve_ma(F, -np.eye(2))


def test_mode_and_sample_files_round_trip():
    g = TorusGrid(1, 8)
    F = parse_modes("1 0 0.25\n0 1 0 0.5\n", g)
    for i in range(8):
        for j in range(8):
            want = (0.25 * np.cos(2 * np.pi * i / 8)
                    + 0.5 * np.sin(2 * np.pi * j / 8))
            assert abs(F.values[i, j] - want) < 1e-12
    text = format_samples(F)
    F2 = parse_samples(text, g)
    assert np.array_equal(F.values, F2.values)
    with pytest.raises(GridError):
        parse_samples("1.0 2.0\n", g)
    with pytest.raises(GridError):
        parse_modes("1 0\n", g)


def test_continuation_restart_recovers_hard_solve():
    # forcing this strong stalls the plain iteration inside the budget but
    # the staged ramp walks it in
    g = TorusGrid(2, 16)
    F = ScalarField.from_modes(g, [((1, 0, 0, 0), 3.5), ((0, 1, 1, 0), 2.45)])
    res = solve_ma(F, np.eye(2), tol=1e-10, max_iter=6)
    assert res.diagnostics.converged
    assert res.diagnostics.continuation_stages == 4
    assert residual(res.phi, F, np.eye(2)) < 1e-9
    assert positivity_check(res.phi, np.eye(2)) > 0


def test_d3_small_grid_behind_cap():
    g = TorusGrid(3, 8)
    F = ScalarField.from_modes(g, [((1, 0, 0, 0, 0, 0), 0.1),
                                   ((0, 0, 1, 1, 0, 0), 0.05)])
    res = solve_ma(F, np.eye(3), tol=1e-9)
    d = res.diagnostics
    assert d.converged and d.min_eigenvalue > 0
    assert d.conservation_gap < 1e-9
    assert residual(res.phi, F, np.eye(3)) < 1e-8


def test_spectral_tail_diagnostic():
    g = TorusGrid(1, 32)
    low = ScalarField.from_modes(g, [((1, 0), 1.0)])
    assert low.spectral_tail() < 1e-12
    high = ScalarField.from_modes(g, [((15, 0), 1.0)])
    assert high.spectral_tail() > 0.9
    assert ScalarField.zeros(g).spectral_tail() == 0.0


def test_tolerance_floor_enforced():
    g = TorusGrid(1, 8)
    with pytest.raises(GridError):
        solve_ma(ScalarField.zeros(g), [[1.0]], tol=1e-15)


@pytest.mark.parametrize("grid", [TorusGrid(1, 8), TorusGrid(2, 16)])
def test_phi0_on_another_grid_is_an_input_error(grid):
    # another dimension, or another resolution, than the forcing's
    F = ScalarField.from_modes(TorusGrid(2, 8), [((1, 0, 0, 0), 0.1)])
    phi0 = ScalarField.zeros(grid)
    with pytest.raises(GridError, match="phi0 must have the forcing's shape"):
        solve_ma(F, np.eye(2), phi0=phi0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_phi0_is_an_input_error(bad):
    grid = TorusGrid(2, 8)
    F = ScalarField.from_modes(grid, [((1, 0, 0, 0), 0.1)])
    phi0 = ScalarField.zeros(grid)
    phi0.values[3, 0, 0, 0] = bad
    with pytest.raises(GridError, match="phi0 has non-finite values"):
        solve_ma(F, np.eye(2), phi0=phi0)


def test_finite_forcing_whose_sum_overflows_is_not_non_finite():
    # the one-reduction finiteness check falls back to the elementwise test;
    # e^F then overflows, which is the error reported, with no warning
    grid = TorusGrid(1, 8)
    F = ScalarField.zeros(grid)
    F.values[0, 0] = F.values[5, 3] = 1e308
    with np.errstate(over="ignore"):
        assert F.values.sum() == np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridError, match=r"mean\(e\^F\) inf"):
            solve_ma(F, [[1.0]])


def test_forcing_rejected_on_its_cut_is_never_transformed(monkeypatch):
    # 709 cos(2 pi x_1) is constant along three axes: on its cut of 8 points
    # mean(e^F) is finite, but the full grid's sum of e^F, the cut's times
    # 512, overflows, and the forcing is rejected before any numpy.fft call
    grid = TorusGrid(2, 8)
    F = ScalarField.from_modes(grid, [((1, 0, 0, 0), 709.0)])
    cut = masolver._constant_axis_cut([F.values])[0]
    assert cut.shape == (8, 1, 1, 1)
    assert np.exp(cut).mean() < np.inf
    calls = []
    for name in ("rfftn", "ifftn", "rfft", "fft", "ifft", "irfft"):
        monkeypatch.setattr(np.fft, name,
                            lambda *a, name=name, **kw: calls.append(name))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridError, match=r"mean\(e\^F\) inf"):
            solve_ma(F, np.eye(2))
    assert not calls


def _hermitian_field(rng, d, n):
    """n Hermitian d x d matrices of every inertia, a quarter of them with
    an eigenvalue of size 1e-6 (near-singular), stacked on the first axis."""
    mats = []
    for i in range(n):
        lam = rng.uniform(0.1, 2.0, d)
        lam[:i % (d + 1)] *= -1           # 0..d negative eigenvalues
        if i % 4 == 3:
            lam[0] = 1e-6 * np.sign(lam[0])
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        u, _ = np.linalg.qr(z)
        mats.append((u * lam) @ u.conj().T)
    return np.array(mats)


def _g_plus_h(mats, gram):
    """Upper triangle of A = g + H for the Hessian H = mats - g, summed in
    that order, as the solver adds g to H."""
    d = gram.shape[0]
    A = {}
    for j in range(1, d + 1):
        g = gram[j - 1, j - 1].real
        A[(j, j)] = g + (mats[:, j - 1, j - 1].real - g)
        for k in range(j + 1, d + 1):
            g = gram[j - 1, k - 1]
            A[(j, k)] = g + (mats[:, j - 1, k - 1] - g)
    return A


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sylvester_guard_agrees_with_eigenvalues(d):
    rng = np.random.default_rng(40 + d)
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    gram = b @ b.conj().T + np.eye(d)
    mats = _hermitian_field(rng, d, 96)
    for i in range(len(mats)):
        A = _g_plus_h(mats[i:i + 1], gram)
        positive = _det_and_adjugate(A, False)[2]
        assert positive == (_min_eigenvalue(A) > 0)
    # whole fields: one indefinite point makes the field fail
    positive = mats[np.linalg.eigvalsh(mats)[:, 0] > 0]
    for field_mats, want in ((positive, True), (mats, False)):
        assert _det_and_adjugate(_g_plus_h(field_mats, gram), False)[2] is want


@pytest.mark.parametrize("d", [1, 2, 3])
def test_det_and_adjugate_against_numpy(d):
    # relative to the largest ||A||^d on the field, the scale of both det(A)
    # and A adj(A); near-singular points make a pointwise ratio meaningless
    rng = np.random.default_rng(50 + d)
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    gram = b @ b.conj().T + np.eye(d)
    mats = _hermitian_field(rng, d, 96)
    det, adj, _ = _det_and_adjugate(_g_plus_h(mats, gram), True)
    full = np.empty_like(mats)
    for (j, k), v in adj.items():
        full[:, j - 1, k - 1] = v
        full[:, k - 1, j - 1] = np.conj(v)
    scale = np.linalg.norm(mats, 2, axis=(1, 2)).max() ** d
    assert np.abs(det - np.linalg.det(mats)).max() <= 1e-12 * scale
    gap = mats @ full - det[:, None, None] * np.eye(d)
    assert np.abs(gap).max() <= 1e-12 * scale


def test_krylov_bound_solve_stops_inner_solves_at_the_outer_tolerance():
    # the benchmark's Krylov-bound shape; asking GMRES for a relative
    # residual below tol / residual made its last Newton step run into
    # maxiter (272 inner iterations in all)
    g = TorusGrid(2, 16)
    F = ScalarField.from_modes(g, [((1, 0, 1, 0), 2.0), ((0, 1, 0, 1), 1.0),
                                   ((1, 1, 0, 0), 2 / 3)])
    res = solve_ma(F, np.eye(2), tol=1e-9)
    d = res.diagnostics
    assert d.converged
    assert d.inner_unconverged == 0
    assert d.gmres_iterations <= 80
    assert residual(res.phi, F, np.eye(2)) <= 1e-9


def test_z1_only_solve_takes_one_step_of_one_inner_iteration():
    # forcing, start and solution depend on z_1 alone, where the scale is
    # constant and the preconditioner is the operator itself; a trace
    # (Jacobi) scale varies there and took 3 Newton steps, 8 inner iterations
    # phi0 varies along y_1, where F is constant, so that axis is kept
    g = TorusGrid(2, 16)
    F = ScalarField.from_modes(g, [((1, 0, 0, 0), 0.1)])
    seed = ScalarField.from_modes(g, [((0, 1, 0, 0), 0.05)])
    assert solve_ma(F, np.eye(2), tol=1e-9).diagnostics.solve_shape == (
        16, 1, 1, 1)
    res = solve_ma(F, np.eye(2), tol=1e-9, phi0=seed)
    d = res.diagnostics
    assert d.converged and d.solve_shape == (16, 16, 1, 1)
    assert (d.newton_iterations, d.gmres_iterations) == (1, 1)
    assert residual(res.phi, F, np.eye(2)) <= 1e-9


def test_start_where_the_scale_changes_sign_still_converges():
    # g + H(phi0) is indefinite, so the pointwise scale of the first inner
    # solve changes sign on the grid; no division may warn
    g = TorusGrid(2, 16)
    F = ScalarField.from_modes(g, [((1, 0, 0, 0), 0.1)])
    seed = ScalarField.from_modes(g, [((0, 0, 1, 0), 0.2)])
    assert positivity_check(seed, np.eye(2)) < -0.9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_ma(F, np.eye(2), tol=1e-9, phi0=seed)
    assert res.diagnostics.converged
    assert residual(res.phi, F, np.eye(2)) <= 1e-9


def _rotated(rng, eigenvalues):
    """Hermitian matrices with the given eigenvalue rows and random
    eigenvectors."""
    mats = []
    for lam in eigenvalues:
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u, _ = np.linalg.qr(z)
        mats.append((u * lam) @ u.conj().T)
    return np.array(mats)


def test_d3_min_eigenvalue_matches_eigvalsh():
    rng = np.random.default_rng(60)
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    gram = b @ b.conj().T + np.eye(3)
    flat = np.repeat(np.eye(3, dtype=complex)[None], 8, axis=0)
    # random with near-singular points; near-degenerate, all three
    # eigenvalues within ~1e-7; flat, g = I and H = 0
    cases = [(_hermitian_field(rng, 3, 96), gram),
             (_rotated(rng, 1 + 1e-7 * rng.normal(size=(96, 3))), gram),
             (flat, np.eye(3, dtype=complex)),
             # the two smallest eigenvalues coincide to 1e-6 ... 1e-16
             (_rotated(rng, [(1.0, 1.0 + 10.0 ** -e, 3.0)
                             for e in range(6, 17)]), gram)]
    for mats, g in cases:
        want = np.linalg.eigvalsh(mats)[:, 0]
        for i in range(len(mats)):
            got = _min_eigenvalue(_g_plus_h(mats[i:i + 1], g))
            assert abs(got - want[i]) <= 1e-12 * np.linalg.norm(mats[i], 2)
        got = _min_eigenvalue(_g_plus_h(mats, g))
        top = np.linalg.norm(mats, 2, axis=(1, 2)).max()
        assert abs(got - want.min()) <= 1e-12 * top


def _counts(diag):
    return [diag.newton_iterations, diag.gmres_iterations, diag.damping_events,
            diag.inner_unconverged]


@pytest.mark.parametrize("amps,max_iter,converges", [
    ((3.5, 2.45), 6, True),     # the continuation test's hard solve
    ((0.8, 0.6), 1, False),     # the first stage stalls too
])
def test_continuation_counts_cover_every_attempt(monkeypatch, amps, max_iter,
                                                 converges):
    attempts = []   # (failed, counts) of each _solve_ma_direct call
    direct = masolver._solve_ma_direct

    def spy(*args):
        try:
            result = direct(*args)
        except NewtonFailure as e:
            attempts.append((True, _counts(e.result.diagnostics)))
            raise
        attempts.append((False, _counts(result.diagnostics)))
        return result
    monkeypatch.setattr(masolver, "_solve_ma_direct", spy)

    g = TorusGrid(2, 16)
    F = ScalarField.from_modes(g, [((1, 0, 0, 0), amps[0]),
                                   ((0, 1, 1, 0), amps[1])])
    if converges:
        diag = solve_ma(F, np.eye(2), tol=1e-10, max_iter=max_iter).diagnostics
        assert diag.continuation_stages == 4 and len(attempts) == 5
    else:
        with pytest.raises(NewtonFailure) as e:
            solve_ma(F, np.eye(2), tol=1e-12, max_iter=max_iter)
        diag = e.value.result.diagnostics
        assert len(attempts) >= 2 and attempts[-1][0]
    assert attempts[0][0]   # the direct attempt failed
    assert _counts(diag) == [sum(col) for col in zip(*(c for _, c in attempts))]


@pytest.mark.parametrize("n", [12, 60])
def test_gmres_matches_a_direct_solve(n):
    # n = 60 needs more inner iterations than one 20-vector cycle holds: the
    # restart residual comes from the Arnoldi relation, not from a matvec
    rng = np.random.default_rng(n)
    A = 4 * np.eye(n) + 3 * rng.normal(size=(n, n)) / np.sqrt(n)
    b = rng.normal(size=n)
    matvecs = []

    def matvec(v):
        matvecs.append(1)
        return A @ v
    x, iters, info, estimate = gmres(matvec, b, 1e-10)
    assert info == 0 and len(matvecs) == iters
    assert (iters > 20) == (n > 20)
    true = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert true <= 1e-10
    # the Givens estimate at exit is the true relative residual to round-off
    assert abs(estimate - true) <= 1e-14
    want = np.linalg.solve(A, b)
    cond = np.linalg.cond(A)
    assert np.linalg.norm(x - want) <= 2e-10 * cond * np.linalg.norm(want)


def test_gmres_stops_at_maxiter_and_on_a_zero_right_hand_side():
    # eigenvalues spread around 0: restarted GMRES stagnates
    rng = np.random.default_rng(0)
    A, b = rng.normal(size=(60, 60)), rng.normal(size=60)
    x, iters, info, _ = gmres(lambda v: A @ v, b, 1e-10)
    assert (iters, info) == (200, 1)
    assert np.linalg.norm(b - A @ x) < np.linalg.norm(b)
    x, iters, info, _ = gmres(lambda v: A @ v, np.zeros(60), 1e-10)
    assert (iters, info) == (0, 0) and not x.any()


def test_gmres_stops_on_an_invariant_krylov_space():
    # A = I and a b whose unit vector has an exact unit norm: the first
    # matvec leaves nothing after orthogonalisation, so even at rtol 0 GMRES
    # stops after 1 iteration with the exact solution and a zero estimate
    b = np.full(16, 2.0)
    x, iters, info, estimate = gmres(lambda v: v.copy(), b, 0.0)
    assert (iters, info, estimate) == (1, 0, 0.0)
    assert np.array_equal(x, b)
    # A = 0: an invariant space on which A is singular is no convergence
    x, iters, info, estimate = gmres(np.zeros_like, b, 1e-10)
    assert (iters, info, estimate) == (1, 1, 1.0) and not x.any()


def test_gmres_never_reports_a_nan_estimate_as_converged():
    b = np.random.default_rng(1).normal(size=30)
    for matvec in (lambda v: v * np.nan, lambda v: np.full_like(v, np.inf)):
        with np.errstate(invalid="ignore"):
            _, iters, info, estimate = gmres(matvec, b, 1e-10)
        assert (iters, info) == (1, 1) and np.isnan(estimate)


# each forcing's modes span all 2d axes, so no grid translation leaves it
# unchanged and each solve runs on the full grid
_ZERO_STARTS = [
    (TorusGrid(1, 16), [((1, 0), 0.3), ((0, 2), 0.1), ((2, 1), 0.05 + 0.02j)]),
    (TorusGrid(2, 16), [((1, 0, 0, 0), 0.3), ((0, 1, 1, 0), 0.2),
                        ((1, 1, 0, 1), complex(0.15, 0.1)),
                        ((0, 0, 0, 1), 0.05)]),
    (TorusGrid(3, 8), [((1, 0, 0, 0, 0, 0), 0.1), ((0, 0, 1, 1, 0, 0), 0.05),
                       ((0, 1, 0, 0, 1, 1), 0.05), ((0, 0, 0, 1, 0, 0), 0.02),
                       ((0, 0, 0, 0, 1, 0), 0.02), ((0, 0, 0, 0, 0, 1), 0.02)]),
]


@pytest.mark.parametrize("grid,modes", [
    # the benchmark's Krylov-bound shape with a fourth mode, so that it runs
    # on the full grid, and a d = 3 full-grid solve
    (TorusGrid(2, 16), [((1, 0, 1, 0), 2.0), ((0, 1, 0, 1), 1.0),
                        ((1, 1, 0, 0), 2 / 3), ((0, 0, 0, 1), 0.1)]),
    _ZERO_STARTS[2],
])
def test_transform_budget_of_a_zero_start_solve(monkeypatch, grid, modes):
    # per inner iteration 1 forward and d^2 inverse transforms; per Newton
    # step 1 forward for the residual's power and 1 for psihat = -P^-1 yhat,
    # except the zero start's first step: psihat = -P^-1 R in closed form,
    # 1 forward transform and no inner iteration; per line-search candidate
    # d^2 inverse; 1 inverse for phi at the end
    calls = {"rfft": 0, "irfft": 0}
    for name in calls:
        real = getattr(HessianOp, name)

        def spy(self, v, name=name, real=real, **out):
            calls[name] += 1
            return real(self, v, **out)
        monkeypatch.setattr(HessianOp, name, spy)
    F = ScalarField.from_modes(grid, modes)
    d = solve_ma(F, np.eye(grid.dim), tol=1e-9).diagnostics
    assert d.converged and d.continuation_stages == 0
    assert d.solve_shape == grid.shape
    assert calls["irfft"] == grid.dim ** 2 * (
        d.gmres_iterations + d.newton_iterations + d.damping_events) + 1
    assert calls["rfft"] == d.gmres_iterations + 2 * d.newton_iterations - 1


# the benchmark's Krylov-bound d = 2 forcing and its d = 3 one, with the
# quotients they solve on, (1, 16, 16, 16) and (1, 1, 8, 1, 8, 1), both
# below SCIPY_FFT_POINTS
_SECTIONS = [
    (TorusGrid(2, 16), [((1, 0, 1, 0), 2.0), ((0, 1, 0, 1), 1.0),
                        ((1, 1, 0, 0), 2 / 3)],
     masolver._Quotient(2, 16, ((1, -1, -1, 1),))),
    (TorusGrid(3, 8), [((1, 0, 1, 0, 0, 0), 0.1), ((0, 0, 0, 0, 1, 0), 0.05)],
     masolver._Quotient(3, 8, ((1, 0, -1, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                               (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1)))),
]


@pytest.mark.parametrize("grid,modes,quotient", _SECTIONS)
def test_transform_budget_of_a_stacked_section_solve(monkeypatch, grid, modes,
                                                     quotient):
    # on the numpy.fft path all d^2 parts go through one inverse transform:
    # one per inner iteration, per Newton step's first candidate and per
    # damping, and one for phi; the forward transforms are the full grid's
    calls = {"rfft": 0, "irfft": 0}
    for name in calls:
        real = getattr(HessianOp, name)

        def spy(self, v, name=name, real=real, **out):
            calls[name] += 1
            return real(self, v, **out)
        monkeypatch.setattr(HessianOp, name, spy)
    F = ScalarField.from_modes(grid, modes)
    d = solve_ma(F, np.eye(grid.dim), tol=1e-9).diagnostics
    assert d.converged and d.continuation_stages == 0
    assert d.solve_shape == quotient.shape
    assert d.translations == quotient.vectors
    assert quotient.points < masolver.SCIPY_FFT_POINTS
    assert calls["irfft"] == (d.gmres_iterations + d.newton_iterations
                              + d.damping_events + 1)
    assert calls["rfft"] == d.gmres_iterations + 2 * d.newton_iterations - 1


def _part_term(op, part, vhat):
    """irfft(symbol * vhat) one part at a time: ifft over each lead axis of
    more than one sample, in reversed order, then irfft on the last."""
    x = op.symbol(*part) * vhat
    for a in reversed(range(len(op.shape) - 1)):
        if op.shape[a] > 1:
            x = np.fft.ifft(x, axis=a)
    return np.fft.irfft(x, n=op.shape[-1], axis=-1)


@pytest.mark.parametrize("grid,modes,quotient", _SECTIONS)
def test_stacked_parts_are_the_per_part_transforms_bit_for_bit(
        monkeypatch, grid, modes, quotient):
    # entries and the matvec's weighted sum transform the d^2 parts as one
    # stack; each part's term, and the sum of the weighted terms in part
    # order, has the bits of the per-part formula
    rng = np.random.default_rng(13)
    op = HessianOp(quotient)
    assert op._fft is np.fft
    vhat = op.rfft(rng.normal(size=quotient.shape))
    re, im = rng.normal(size=(2, grid.dim, grid.dim))
    b = re + 1j * im
    gram = b @ b.conj().T + np.eye(grid.dim)
    A = op.entries(vhat.copy(), gram)
    for part in op.parts():
        j, k, imag = part
        g = gram[j - 1, k - 1]
        want = _part_term(op, part, vhat) + (g.imag if imag else g.real)
        got = A[(j, k)].imag if imag else A[(j, k)].real
        assert got.tobytes() == want.tobytes(), part
    # one matvec of a solve: its vhat and stacked weights, and its sum
    seen = []
    real = HessianOp.weighted_sum

    def spy(self, vhat, weights, out):
        args = (self, vhat.copy(), [w.copy() for w in weights])
        got = real(self, vhat, weights, out)
        seen.append(args + (got.copy(),))
        return got
    monkeypatch.setattr(HessianOp, "weighted_sum", spy)
    solve_ma(ScalarField.from_modes(grid, modes), np.eye(grid.dim), tol=1e-9)
    op, vhat, weights, got = seen[0]
    assert op.shape == quotient.shape
    weights = np.concatenate(weights)
    assert len(weights) == len(op.parts()) == grid.dim ** 2
    want = None
    for w, part in zip(weights, op.parts()):
        term = _part_term(op, part, vhat) * w
        want = term if want is None else want + term
    assert got.tobytes() == want.tobytes()


def test_line_search_candidates_are_real_fields():
    # under a non-diagonal gram the mean-weight symbol is not even in k on
    # the planes that hold both k and -k; the reported residual must be the
    # residual of the returned real phi
    g = TorusGrid(3, 8)
    b = (np.random.default_rng(3).normal(size=(3, 3))
         + 1j * np.random.default_rng(4).normal(size=(3, 3)))
    gram = b @ b.conj().T + np.eye(3)
    F = ScalarField.from_modes(g, [((1, 0, 1, 0, 0, 0), 0.2),
                                   ((0, 1, 0, 0, 1, 1), 0.1)])
    res = solve_ma(F, gram, tol=1e-10)
    reported = res.diagnostics.residual_history[-1]
    assert reported <= 1e-10
    assert residual(res.phi, F, gram) == pytest.approx(reported, rel=1e-6)


_GRAM2 = np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.0]])


@pytest.mark.parametrize("grid,modes,gram", [
    (TorusGrid(1, 16), [((1, 0), 0.3), ((0, 2), 0.1), ((2, 1), 0.05 + 0.02j)],
     [[1.5]]),
    (TorusGrid(2, 16), [((1, 0, 0, 0), 0.3), ((0, 1, 1, 0), 0.2),
                        ((1, 1, 0, 1), complex(0.15, 0.1))], _GRAM2),
    (TorusGrid(3, 8), [((1, 0, 0, 0, 0, 0), 0.1), ((0, 0, 1, 1, 0, 0), 0.05)],
     np.eye(3)),
])
def test_reported_diagnostics_match_a_recomputation(grid, modes, gram):
    # the solver builds the adjugate in A's arrays and the residual in the
    # determinant's; a write into an A that is still needed (at d = 1 the
    # determinant is a11 itself) shows as a reported minimum eigenvalue or
    # residual that the returned phi does not have.  tol 1e-5 stops d = 2
    # and 3 well above round-off; the linear d = 1 solve ends at round-off
    F = ScalarField.from_modes(grid, modes)
    res = solve_ma(F, gram, tol=1e-5)
    d = res.diagnostics
    assert d.min_eigenvalue == pytest.approx(positivity_check(res.phi, gram),
                                             rel=1e-12)
    assert d.residual_history[-1] == pytest.approx(
        residual(res.phi, F, gram), rel=1e-6, abs=1e-13)


def test_peak_memory_of_a_d2_solve_in_grid_arrays(monkeypatch):
    # tracemalloc peaks inside the determinant, inside GMRES and inside the
    # zero start's Newton direction, counted from the solve's start (the
    # forcing is the caller's) in float64 grid arrays; a copy of A, or a
    # temporary per matvec term, breaks the bound.  GMRES's Krylov block is
    # allocated whole but touched row by row, so it is not counted; these
    # inner solves do not restart, so x stays unallocated.  The matvec sums
    # into R's array.  The zero start's first step holds A = g, hence its
    # weights, as one point and runs no GMRES: its peak is phihat, R, the
    # mean-weight symbol and the spectrum of R
    grid, modes = _ZERO_STARTS[1]
    F = ScalarField.from_modes(grid, modes)
    grid_array = 8 * grid.res ** 4
    krylov_rows = 21   # gmres: restart 20, plus one
    peaks = {"_det_and_adjugate": [], "gmres": [], "_newton_direction": []}
    for name in peaks:
        real = getattr(masolver, name)

        def spy(*args, name=name, real=real):
            tracemalloc.reset_peak()
            out = real(*args)
            peak = tracemalloc.get_traced_memory()[1]
            if name == "gmres":
                peak -= krylov_rows * args[1].nbytes
            peaks[name].append(peak / grid_array)
            return out
        monkeypatch.setattr(masolver, name, spy)
    HessianOp(grid)   # imports scipy.fft before tracing, also when run alone
    tracemalloc.start()
    try:
        diag = solve_ma(F, _GRAM2, tol=1e-10).diagnostics
    finally:
        tracemalloc.stop()
    assert diag.converged and diag.solve_shape == grid.shape
    assert max(peaks["_det_and_adjugate"]) <= 11
    assert max(peaks["gmres"]) <= 10
    assert len(peaks["gmres"]) == diag.newton_iterations - 1
    assert peaks["_newton_direction"][0] <= 7


def test_phase_peaks_of_a_zero_start_d2_solve_in_grid_arrays(monkeypatch):
    # the benchmark's grid-bound d = 2 size, with a forcing whose modes span
    # all four axes, so the solve runs on the full grid: tracemalloc peaks of
    # each phase, counted from the solve's start (the forcing is the
    # caller's, and a warm-up solve has loaded scipy.fft) in float64 grid
    # arrays.  A zero start holds no spectrum, so its first line search holds
    # the step's spectrum and the entries; each part transform writes into
    # its entry through one work buffer; the determinant holds one scratch
    # array beside its result, and the smallest eigenvalue works in A's
    # arrays.  A full-size temporary per part, a zero spectrum or a second
    # scratch array breaks the first step's or the eigenvalue pass's bound.
    # The later line searches also hold the iterate's spectrum and the
    # candidate's
    grid = TorusGrid(2, 32)
    F = ScalarField.from_modes(grid, [((1, 0, 0, 0), 0.1), ((0, 1, 1, 1), 0.01),
                                      ((0, 0, 1, 0), 0.01), ((0, 0, 0, 1), 0.01)])
    solve_ma(F, np.eye(2), tol=1e-9)
    grid_array = 8 * grid.points
    peaks = {}   # name: (Newton step, peak) of each call
    step = [0]
    targets = [(HessianOp, "entries")] + [
        (masolver, name) for name in ("_det_and_adjugate", "_residual",
                                      "_min_eigenvalue")]
    for owner, name in targets:
        real = getattr(owner, name)

        def spy(*args, name=name, real=real):
            if name == "_det_and_adjugate" and args[1]:
                step[0] += 1   # each Newton step starts with the adjugate
            tracemalloc.reset_peak()
            out = real(*args)
            peak = tracemalloc.get_traced_memory()[1]
            peaks.setdefault(name, []).append((step[0], peak / grid_array))
            return out
        monkeypatch.setattr(owner, name, spy)
    tracemalloc.start()
    try:
        diag = solve_ma(F, np.eye(2), tol=1e-9).diagnostics
    finally:
        tracemalloc.stop()
    assert diag.converged and diag.newton_iterations == 3
    assert diag.solve_shape == grid.shape
    assert set(peaks) == {name for _, name in targets}
    for name, got in peaks.items():
        # the eigenvalue pass, after the last step, holds no candidate
        for k, p in got:
            limit = 7.5 if k <= 1 or name == "_min_eigenvalue" else 8.5
            assert p <= limit, (name, k, got)


@pytest.mark.parametrize("grid,modes", _ZERO_STARTS)
@pytest.mark.parametrize("gram", ["identity", "_GRAM2"])
def test_one_point_zero_start_agrees_with_a_full_array_start(monkeypatch, grid,
                                                             modes, gram):
    # a zero start holds A = g as one point per entry; phi0 = 0 builds the
    # same A at every grid point through HessianOp.entries.  Only the means
    # of constant arrays differ, by round-off.  Under "_GRAM2", d = 1 takes
    # its first entry and d = 3 holds it in the leading 2 x 2 block
    d = grid.dim
    g = np.eye(d, dtype=complex)
    if gram == "_GRAM2":
        g[:2, :2] = _GRAM2[:d, :d]
    sizes = []   # of A[1,1] at each determinant
    real = masolver._det_and_adjugate

    def spy(A, need_adj):
        sizes.append(A[(1, 1)].size)
        return real(A, need_adj)
    monkeypatch.setattr(masolver, "_det_and_adjugate", spy)
    F = ScalarField.from_modes(grid, modes)
    one = solve_ma(F, g, tol=1e-10)
    assert sizes[0] == 1 and sizes[-1] == grid.res ** (2 * d)
    full = solve_ma(F, g, tol=1e-10, phi0=ScalarField.zeros(grid))
    # the full arrays take GMRES where one point takes the closed form, and
    # there GMRES needs exactly one matvec
    n_one, n_full = _counts(one.diagnostics), _counts(full.diagnostics)
    assert n_one[1] + 1 == n_full[1]
    assert n_one[:1] + n_one[2:] == n_full[:1] + n_full[2:]
    assert one.diagnostics.continuation_stages == 0
    scale = np.abs(full.phi.values).max()
    assert np.abs(one.phi.values - full.phi.values).max() <= 1e-12 * scale
    assert one.C == pytest.approx(full.C, rel=1e-12)
    h_one = np.array(one.diagnostics.residual_history)
    h_full = np.array(full.diagnostics.residual_history)
    assert h_one.shape == h_full.shape
    assert np.abs(h_one - h_full).max() <= 1e-12 * h_full[0]


class _FirstStep(Exception):
    pass


@pytest.mark.parametrize("grid,modes", _ZERO_STARTS)
@pytest.mark.parametrize("gram", ["identity", "_GRAM2"])
def test_closed_form_direction_matches_the_krylov_solve(monkeypatch, grid,
                                                        modes, gram):
    # the zero start's one-point weights take psi = -P^-1 R; the same weights
    # broadcast to full arrays take GMRES on D^-1 L P^-1 y = D^-1 R
    d = grid.dim
    g = np.eye(d, dtype=complex)
    if gram == "_GRAM2":
        g[:2, :2] = _GRAM2[:d, :d]
    real = masolver._newton_direction

    def stop(*args):
        raise _FirstStep(*args)
    monkeypatch.setattr(masolver, "_newton_direction", stop)
    with pytest.raises(_FirstStep) as e:
        solve_ma(ScalarField.from_modes(grid, modes), g, tol=1e-10)
    op, weights, R, rtol = e.value.args
    assert all(w.size == 1 for w in weights)
    one, iters, info = real(op, weights, R.copy(), rtol)
    assert (iters, info) == (0, 0)
    full, iters, info = real(op, [np.broadcast_to(w, grid.shape).copy()
                                  for w in weights], R.copy(), rtol)
    assert (iters, info) == (1, 0)
    assert np.abs(one - full).max() <= 1e-12 * np.abs(full).max()


def test_z1_only_zero_start_solves_in_one_closed_form_step():
    # a forcing of z_1 alone leaves H_12 = H_22 = 0, so det(g + H) is linear
    # in phi and the zero start's closed-form step solves it exactly
    grid = TorusGrid(2, 16)
    F = ScalarField.from_modes(grid, [((1, 0, 0, 0), 0.3), ((0, 2, 0, 0), 0.1),
                                      ((2, 1, 0, 0), 0.05 + 0.02j)])
    d = solve_ma(F, np.eye(2), tol=1e-10).diagnostics
    assert d.converged
    assert (d.newton_iterations, d.gmres_iterations) == (1, 0)


@pytest.mark.parametrize("grid", [TorusGrid(1, 64), TorusGrid(2, 8)])
def test_numpy_transforms_match_scipy_below_the_boundary(grid):
    import scipy.fft
    op = HessianOp(grid)
    assert grid.points < masolver.SCIPY_FFT_POINTS and op._fft is np.fft
    v = np.random.default_rng(5).normal(size=grid.shape)
    want = scipy.fft.rfftn(v)
    got = op.rfft(v)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    back = scipy.fft.irfftn(want, s=grid.shape)
    spectrum = want.copy()
    tracemalloc.start()
    try:
        got = op.irfft(spectrum)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(got - back).max() <= 1e-14 * np.abs(back).max()
    # the lead-axis pass runs in the spectrum's array: besides the real
    # output the transform holds no second spectrum
    assert peak - got.nbytes < 0.25 * spectrum.nbytes


def test_scipy_transforms_start_at_the_boundary():
    import scipy.fft
    assert masolver.SCIPY_FFT_POINTS == 2 ** 16
    for grid in (TorusGrid(1, 256), TorusGrid(2, 16)):
        assert grid.points == 2 ** 16
        assert HessianOp(grid)._fft is scipy.fft
    assert HessianOp(TorusGrid(1, 128))._fft is np.fft


@pytest.mark.parametrize("grid,shape", [
    # the benchmark's three sections, a one-point one and a scipy.fft one
    (masolver._Quotient(2, 16, ((1, -1, -1, 1),)), (1, 16, 16, 16)),
    (masolver._Quotient(2, 32, ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
     (32, 1, 1, 1)),
    (masolver._Quotient(3, 8, ((1, 0, -1, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                               (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1))),
     (1, 1, 8, 1, 8, 1)),
    (masolver._Quotient(2, 8, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                               (0, 0, 0, 1))), (1, 1, 1, 1)),
    (masolver._Quotient(2, 64, ((1, 0, 0, 0),)), (1, 64, 64, 64)),
])
def test_transforms_skipping_one_sample_axes_are_the_all_axes_ones(grid,
                                                                   shape):
    # a length-1 transform is the identity, so leaving those axes out
    # changes no bit: the forward transform is the all-axes rfftn, and the
    # inverse is ifftn over every lead axis, then irfft on the last
    op = HessianOp(grid)
    assert op.shape == shape
    assert (op._fft is np.fft) == (grid.points < masolver.SCIPY_FFT_POINTS)
    v = np.random.default_rng(7).normal(size=shape)
    want = op._fft.rfftn(v)
    got = op.rfft(v)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    back = np.fft.irfft(op._fft.ifftn(want, axes=range(v.ndim - 1)),
                        n=shape[-1], axis=-1)
    got = op.irfft(op.rfft(v))
    assert got.shape == shape and got.tobytes() == back.tobytes()


def test_no_solver_transform_runs_on_a_one_sample_axis(monkeypatch):
    # the benchmark's Krylov-bound forcing solves on (1, 16, 16, 16): no
    # numpy.fft call of the solve transforms an axis of length 1, except the
    # last axis, the half-spectrum axis.  The solver's passes are 1-D, one
    # lead axis at a time
    lengths, calls = [], {}
    for name in ("rfft", "fft", "ifft", "irfft"):
        real = getattr(np.fft, name)

        def spy(a, *args, name=name, real=real, **kw):
            calls[name] = calls.get(name, 0) + 1
            axis = kw.get("axis", -1) % a.ndim
            if axis < a.ndim - 1:
                lengths.append(a.shape[axis])
            return real(a, *args, **kw)
        monkeypatch.setattr(np.fft, name, spy)
    F = ScalarField.from_modes(TorusGrid(2, 16), [
        ((1, 0, 1, 0), 2.0), ((0, 1, 0, 1), 1.0), ((1, 1, 0, 0), 2 / 3)])
    d = solve_ma(F, np.eye(2), tol=1e-9).diagnostics
    assert d.converged and d.solve_shape == (1, 16, 16, 16)
    assert min(calls.values()) > 0 and len(calls) == 4
    assert lengths and 1 not in lengths


def test_constant_axis_search_compares_every_plane():
    # a field alike on planes 0 and 1 of an axis but not beyond keeps that
    # axis; a generic field constant along a set of axes is left unchanged
    # by exactly those e_a
    rng = np.random.default_rng(11)
    unit = lambda a: tuple(int(b == a) for b in range(4))
    for axes in [(), (1,), (0, 3), (1, 2, 3), (0, 1, 2, 3)]:
        v = rng.normal(size=[1 if a in axes else 8 for a in range(4)])
        v = np.broadcast_to(v, (8,) * 4).copy()
        alike = next((a for a in range(4) if a not in axes), None)
        if alike is not None:   # planes 0 and 1 of that axis made equal
            s = (slice(None),) * alike
            v[s + (1,)] = v[s + (0,)]
            assert not np.array_equal(v[s + (2,)], v[s + (0,)])
        assert masolver._translations(
            8, masolver._constant_axis_cut([v])) == tuple(map(unit, axes))
    # two fields: only the axes along which both are constant
    v = np.broadcast_to(rng.normal(size=(8, 1, 8, 1)), (8,) * 4)
    w = np.broadcast_to(rng.normal(size=(8, 8, 8, 1)), (8,) * 4)
    assert masolver._translations(
        8, masolver._constant_axis_cut([v, w])) == (unit(3),)


def test_chunked_constancy_is_the_full_comparison():
    # _constant_along compares neighbours chunk by chunk; it must agree with
    # (v == v's first plane).all() along every axis, signed zeros equal,
    # a NaN never constant and an infinity constant, over several chunks
    rng = np.random.default_rng(17)
    for _ in range(60):
        shape = tuple(rng.choice([2, 4, 16], size=rng.integers(2, 5)))
        keep = [rng.random() < 0.5 for _ in shape]
        v = rng.choice([0.0, -0.0, 1.5, np.inf, -np.inf],
                       size=[m if k else 1 for m, k in zip(shape, keep)])
        v = np.broadcast_to(v, shape).copy()
        if rng.random() < 0.3:
            v[tuple(rng.integers(m) for m in shape)] = np.nan
        elif rng.random() < 0.3:
            v[tuple(rng.integers(m) for m in shape)] *= -1
        for a in range(v.ndim):
            want = (v == v[(slice(None),) * a + (slice(1),)]).all()
            assert masolver._constant_along(v, a) == want, (v.shape, a)
            cut = v[(slice(None),) * (v.ndim - 1) + (slice(1),)]
            if a < v.ndim - 1:   # a strided view, as after a cut
                want = (cut == cut[(slice(None),) * a + (slice(1),)]).all()
                assert masolver._constant_along(cut, a) == want


@pytest.mark.parametrize("grid,modes", [
    # the cli-session ma input, and a d = 1 solve with a damped step
    (TorusGrid(2, 8), [((1, 0, 0, 0), 0.1), ((0, 0, 1, 0), 0.05)]),
    (TorusGrid(2, 8), [((1, 0, 1, 0), 0.9), ((0, 1, 0, 1), 0.5),
                       ((1, 1, 0, 0), complex(0.3, 0.1))]),
    (TorusGrid(1, 64), [((1, 0), 0.3), ((0, 2), 0.1), ((2, 1), 0.05 + 0.02j)]),
])
def test_both_transform_paths_take_the_same_newton_path(monkeypatch, grid,
                                                        modes):
    F = ScalarField.from_modes(grid, modes)
    gram = _GRAM2[:grid.dim, :grid.dim]
    small = solve_ma(F, gram, tol=1e-9)
    monkeypatch.setattr(masolver, "SCIPY_FFT_POINTS", 1)
    assert HessianOp(grid)._fft is not np.fft
    large = solve_ma(F, gram, tol=1e-9)
    assert _counts(small.diagnostics) == _counts(large.diagnostics)
    h_small = np.array(small.diagnostics.residual_history)
    h_large = np.array(large.diagnostics.residual_history)
    assert h_small.shape == h_large.shape
    assert np.abs(h_small - h_large).max() <= 1e-12 * h_large[0]
    scale = np.abs(large.phi.values).max()
    assert np.abs(small.phi.values - large.phi.values).max() <= 1e-12 * scale
    assert small.C == pytest.approx(large.C, rel=1e-12)
