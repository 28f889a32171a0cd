"""Metric operators: adjoints, Laplacian, Green operator, minimal potentials."""

import json
import pathlib
import random

import numpy as np
import pytest

from balmap.catalog import CATALOG_MAPS, MODELS, get_map
from balmap.exact import CRat, I
from balmap.hodge import (ClassObstructionError, HermitianMetricSpec,
                          MetricContext, aeppli_dim, bc_dim, delta_bc_ortho,
                          exact_ddbar_solve, green_apply, neumann_gamma)
from balmap.forms import wedge
from balmap.invariant import HH, DiffTerm, InvForm, LieModel

from oracles import (adjoint, bc_laplacian_oracle, green_oracle,
                     minimality_residual, neumann_oracle, wedge_gram_oracle)
from test_properties import dim_of, random_nilpotent_model

IW = MODELS["iwasawa"]
T3 = MODELS["torus3"]
NK = MODELS["nakamura"]
HM = MODELS["heis_mixed"]

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "cohomology_golden.json"


def rand_metric(rng, model):
    d = model.dim
    A = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)]
                  for _ in range(d)])
    return HermitianMetricSpec(model, A @ A.conj().T + 2 * np.eye(d))


def rand_form(rng, model, p, q):
    keys = model.basis_keys(p, q)
    vec = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in keys])
    return InvForm.from_vector(model, p, q, vec)


def oracle_gram(metric, p, q):
    """Gram of the wedge basis at (p,q) from the permutation-sum oracle."""
    model = metric.model
    return np.array(wedge_gram_oracle(metric.gram.tolist(),
                                      model.basis_keys(p, q),
                                      float(model.volume_scale)))


def oracle_minimality(gamma, metric):
    """The minimality oracle on gamma, a form at one bidegree (p,q), with
    ddbar from (p,q) and the permutation-sum Grams."""
    p, q = gamma.bidegree()
    return minimality_residual(
        gamma.to_vector(p, q), MetricContext(metric).op("ddbar", p, q),
        oracle_gram(metric, p, q), oracle_gram(metric, p + 1, q + 1))


def test_metric_validation():
    with pytest.raises(ValueError):
        HermitianMetricSpec(IW, np.array([[1, 2], [3, 4]]))
    with pytest.raises(ValueError):
        HermitianMetricSpec(IW, -np.eye(3))
    with pytest.raises(ValueError):
        HermitianMetricSpec(IW, np.array([[1, 1j, 0], [1j, 1, 0], [0, 0, 1]]))


def test_adjointness_random_metrics():
    rng = random.Random(0)
    for model in (IW, HM):
        for _ in range(3):
            m = rand_metric(rng, model)
            ctx = MetricContext(m)
            D = ctx.op("del", 1, 1)
            H11, H21 = oracle_gram(m, 1, 1), oracle_gram(m, 2, 1)
            Ds = adjoint(D, H11, H21)
            for _ in range(5):
                u = rand_form(rng, model, 1, 1)
                v = rand_form(rng, model, 2, 1)
                lhs = ctx.inner(InvForm.from_vector(model, 2, 1,
                                                    D @ u.to_vector(1, 1)), v)
                rhs = ctx.inner(u, InvForm.from_vector(model, 1, 1,
                                                       Ds @ v.to_vector(2, 1)))
                assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))
            # involution
            assert np.linalg.norm(adjoint(Ds, H21, H11) - D) < 1e-10


def test_torus_laplacian_vanishes():
    ctx = MetricContext(HermitianMetricSpec.flat(T3))
    A = delta_bc_ortho(ctx, 1, 1)
    assert np.linalg.norm(A) < 1e-14
    assert int(np.linalg.matrix_rank(A)) == 0  # kernel is everything


def test_laplacian_selfadjoint_psd_and_kernel():
    rng = random.Random(1)
    for model in (IW, NK, HM):
        m = rand_metric(rng, model)
        ctx = MetricContext(m)
        for (p, q) in np.ndindex(model.dim + 1, model.dim + 1):
            A = delta_bc_ortho(ctx, p, q)
            assert np.linalg.norm(A - A.conj().T) < 1e-12
            w = np.linalg.eigvalsh(A)
            assert w.min() > -1e-10
            kdim = int((w <= 1e-9 * max(w.max(), 1.0)).sum())
            assert kdim == bc_dim(model, p, q)


def filiform(n):
    """d(phi_k) = phi_1 ^ phi_(k-1) for k >= 3."""
    return LieModel("filiform%d" % n, n,
                    {k: [DiffTerm(HH, 1, k - 1, CRat(1))] for k in range(3, n + 1)})


def test_gram_matches_leibniz_minor_oracle():
    rng = random.Random(4)
    for model in (IW, filiform(5)):
        for _ in range(2):
            m = rand_metric(rng, model)
            ctx = MetricContext(m)
            for p, q in np.ndindex(model.dim + 1, model.dim + 1):
                want = np.array(wedge_gram_oracle(
                    m.gram.tolist(), model.basis_keys(p, q),
                    float(model.volume_scale)))
                got = ctx.gram(p, q)
                assert got.shape == want.shape
                assert np.abs(got - want).max() < 1e-12 * max(
                    1.0, np.abs(want).max()), (model.name, p, q)


def test_laplacian_is_the_six_term_sum_in_raw_coordinates():
    rng = random.Random(5)
    for model in (IW, HM):
        m = rand_metric(rng, model)
        ctx = MetricContext(m)
        H = lambda p, q: oracle_gram(m, p, q)
        for p, q in np.ndindex(model.dim + 1, model.dim + 1):
            want = bc_laplacian_oracle(ctx.op, H, p, q)
            # orthonormal coordinates x -> L^H x with H = L L^H, back to raw
            Lh = np.linalg.cholesky(H(p, q)).conj().T
            raw = np.linalg.solve(Lh, delta_bc_ortho(ctx, p, q) @ Lh)
            assert np.abs(raw - want).max() < 1e-9 * max(
                1.0, np.abs(want).max()), (model.name, p, q)


def test_green_pseudo_inverse_property():
    rng = random.Random(2)
    m = HermitianMetricSpec.flat(IW)
    ctx = MetricContext(m)
    A = delta_bc_ortho(ctx, 1, 1)
    for _ in range(10):
        u = rand_form(rng, IW, 1, 1)
        gu, hnorm = green_apply(ctx, 1, 1, u)
        vec = ctx.to_ortho(1, 1, u.to_vector(1, 1))
        gvec = ctx.to_ortho(1, 1, gu.to_vector(1, 1))
        assert np.linalg.norm(A @ A @ gvec - A @ vec) < 1e-9
        # G vanishes on the kernel
        w, V = np.linalg.eigh(A)
        kvec = V[:, 0]
        if w[0] < 1e-12:
            ku = InvForm.from_vector(IW, 1, 1, ctx.from_ortho(1, 1, kvec))
            gk, hn = green_apply(ctx, 1, 1, ku)
            assert gk.norm() < 1e-10 and hn > 0.9


@pytest.mark.parametrize("name", sorted(MODELS))
def test_green_matches_the_eigen_projector_oracle(name):
    # G u to 1e-12 relative, and the harmonic norm to 1e-12 of |u|, at every
    # bidegree, under the flat metric and a random one
    model = MODELS[name]
    rng = random.Random(11)
    for m in (HermitianMetricSpec.flat(model), rand_metric(rng, model)):
        ctx = MetricContext(m)
        for p, q in np.ndindex(model.dim + 1, model.dim + 1):
            u = rand_form(rng, model, p, q)
            gu, harm = green_apply(ctx, p, q, u)
            v = ctx.to_ortho(p, q, u.to_vector(p, q))
            want, want_harm = green_oracle(delta_bc_ortho(ctx, p, q), v)
            got = ctx.to_ortho(p, q, gu.to_vector(p, q))
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(
                want), (p, q)
            assert abs(harm - want_harm) <= 1e-12 * np.linalg.norm(v), (p, q)


def test_neumann_reproduction_and_minimality():
    fpull = wedge(wedge(IW.phi(1), IW.phi(2)),
                  wedge(IW.phibar(1), IW.phibar(2)))
    for seed in range(3):
        rng = random.Random(seed)
        m = HermitianMetricSpec.flat(IW) if seed == 0 else rand_metric(rng, IW)
        gam = neumann_gamma(fpull, m)
        back = IW.ce_del(IW.ce_delbar(gam)).scale(1j)
        assert (back - fpull).norm() < 1e-10 * fpull.norm()
        assert oracle_minimality(gam, m) < 1e-10


def test_neumann_agrees_with_hand_potential_flat():
    fpull = wedge(wedge(IW.phi(1), IW.phi(2)),
                  wedge(IW.phibar(1), IW.phibar(2)))
    gam = neumann_gamma(fpull, HermitianMetricSpec.flat(IW))
    hand = wedge(IW.phi(3), IW.phibar(3)).scale(I)
    handf = InvForm(IW, {k: complex(c) for k, c in hand.coeffs.items()})
    diff = gam - handf
    assert IW.ce_del(IW.ce_delbar(diff)).norm() < 1e-12
    assert diff.norm() < 1e-10  # flat metric: the hand potential is minimal


def test_neumann_zero_input():
    gam = neumann_gamma(IW.zero(), HermitianMetricSpec.flat(IW))
    assert gam.norm() == 0.0


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_zero_target_has_the_zero_potential_on_tori(dim):
    # at every torus dimension, even 1, where (d-1, d-1) has no ddbar
    model = MODELS["torus%d" % dim]
    assert exact_ddbar_solve(model, model.zero()) == model.zero()
    assert neumann_gamma(model.zero(),
                         HermitianMetricSpec.flat(model)) == model.zero()


def test_neumann_obstruction_on_torus():
    fpull = wedge(wedge(T3.phi(1), T3.phi(2)),
                  wedge(T3.phibar(1), T3.phibar(2)))
    with pytest.raises(ClassObstructionError) as e:
        neumann_gamma(fpull, HermitianMetricSpec.flat(T3))
    assert e.value.residual > 0.5


def _gamma_or_none(f, metric):
    try:
        return neumann_gamma(f, metric)
    except ClassObstructionError:
        return None


def _assert_matches_neumann_oracle(gamma, f, ctx, p, q):
    """gamma, the potential of f at (p,q), is the six-term oracle's to 1e-12
    relative, in raw coordinates."""
    m = ctx.metric
    want = neumann_oracle(f.to_vector(p, q), ctx.op,
                          lambda a, b: oracle_gram(m, a, b), p, q)
    got = gamma.to_vector(p - 1, q - 1)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (
        ctx.model.name, p, q)


@pytest.mark.parametrize("name", sorted(CATALOG_MAPS))
def test_neumann_matches_the_six_term_oracle_on_catalog_maps(name):
    # the exact pulled power gets the exact verdict, its float copy the
    # residual test: they agree, and each potential is the oracle's
    f = get_map(name)
    model, P = f.source, f.pulled_power()
    Pf = InvForm(model, {k: complex(c) for k, c in P.coeffs.items()})
    p, q = P.bidegree() or (model.dim - 1, model.dim - 1)
    rng = random.Random(7)
    for m in (HermitianMetricSpec.flat(model), rand_metric(rng, model),
              rand_metric(rng, model)):
        ctx = MetricContext(m)
        exact, flt = _gamma_or_none(P, ctx), _gamma_or_none(Pf, ctx)
        assert (exact is None) == (flt is None), name
        assert (exact is None) == (name == "t2_immersion_t3"), name
        for gamma in (exact, flt):
            if gamma is not None:
                _assert_matches_neumann_oracle(gamma, P, ctx, p, q)


@pytest.mark.parametrize("seed", range(3, 10))
def test_neumann_matches_the_six_term_oracle_on_generated_models(seed):
    # targets i ddbar(beta) for an exact beta, in exact and in float form;
    # a random exact target gets the same verdict from both paths
    rng = random.Random(seed)
    model = random_nilpotent_model(rng, dim_of(seed))
    n = model.dim
    ctx = MetricContext(rand_metric(rng, model))
    for p, q in sorted({(2, 2), (n - 1, n - 1), (2, n - 1)}):
        beta = InvForm(model, {k: CRat(rng.randint(-2, 2), rng.randint(-2, 2))
                               for k in model.basis_keys(p - 1, q - 1)})
        f = model.ce_del(model.ce_delbar(beta)).scale(I)
        ff = InvForm(model, {k: complex(c) for k, c in f.coeffs.items()})
        if not f:
            continue
        for target in (f, ff):
            _assert_matches_neumann_oracle(neumann_gamma(target, ctx), f, ctx,
                                           p, q)
        g = InvForm(model, {k: CRat(rng.randint(-2, 2), rng.randint(-2, 2))
                            for k in model.basis_keys(p, q)})
        gf = InvForm(model, {k: complex(c) for k, c in g.coeffs.items()})
        assert ((_gamma_or_none(g, ctx) is None)
                == (_gamma_or_none(gf, ctx) is None)
                == (exact_ddbar_solve(model, g) is None)), (seed, p, q)


def test_exact_solver_matches_float_solvability():
    fpull = wedge(wedge(IW.phi(1), IW.phi(2)),
                  wedge(IW.phibar(1), IW.phibar(2)))
    gam = exact_ddbar_solve(IW, fpull)
    assert gam is not None
    assert IW.ce_del(IW.ce_delbar(gam)).scale(I) == fpull
    bad = wedge(wedge(T3.phi(1), T3.phi(2)),
                wedge(T3.phibar(1), T3.phibar(2)))
    assert exact_ddbar_solve(T3, bad) is None


def test_dimensions_match_frozen_oracle_goldens():
    golden = json.loads(FIXTURE.read_text())
    for name, table in golden["models"].items():
        model = MODELS[name]
        for key, dims in table.items():
            p, q = (int(x) for x in key.split(","))
            assert bc_dim(model, p, q) == dims["bottchern"], (name, p, q)
            assert aeppli_dim(model, p, q) == dims["aeppli"], (name, p, q)


def test_torus_closed_form_counts():
    from math import comb
    for d in (1, 2, 3):
        model = MODELS["torus%d" % d]
        for p in range(d + 1):
            for q in range(d + 1):
                n = comb(d, p) * comb(d, q)
                assert aeppli_dim(model, p, q) == n
                assert bc_dim(model, p, q) == n


def test_torus_adjoint_of_derivative_vanishes():
    ctx = MetricContext(HermitianMetricSpec.flat(T3))
    D = ctx.op("del", 1, 1)
    assert np.linalg.norm(D) == 0.0
    H = lambda p, q: oracle_gram(ctx.metric, p, q)
    assert np.linalg.norm(adjoint(D, H(1, 1), H(2, 1))) == 0.0
