"""Structure-constant models: validation, calculus, integration, flows."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from balmap.catalog import MODELS, get_map, standard_metric_form
from balmap.exact import CRat, I, ONE
from balmap.forms import (MixedField, contract, evaluate, lie01, lie10,
                          lie_std, wedge)
from balmap.hodge import aeppli_dim, bc_dim
from balmap.moment import lie_g_membership
from balmap.invariant import (AA, HH, MIX, ANTI, HOLO, DiffTerm, InvForm,
                              InvVectorField, LieModel, ModelError, expm,
                              flow_pullback, format_model, integrate,
                              parse_model, wedge_power, ParseError)
from oracles import wedge_eval_oracle

IW = MODELS["iwasawa"]
T3 = MODELS["torus3"]
NK = MODELS["nakamura"]
HM = MODELS["heis_mixed"]


def test_model_rejects_non_integrable():
    with pytest.raises(ModelError):
        LieModel("bad", 2, {2: [DiffTerm(AA, 1, 2, ONE)]})


def test_model_rejects_d_squared_violation():
    # d(phi1) = phi2^phibar2 and d(phi2) = phi1^phibar1 break d^2 = 0
    with pytest.raises(ModelError):
        LieModel("bad2", 2, {1: [DiffTerm(MIX, 2, 2, ONE)],
                             2: [DiffTerm(MIX, 1, 1, ONE)]})


def test_model_rejects_bad_volume():
    with pytest.raises(ModelError):
        LieModel("bad3", 2, {}, Fraction(-1))


def test_torus_differential_vanishes():
    u = wedge(T3.phi(1), T3.phibar(2))
    assert not u.d()


def test_iwasawa_delbar_example():
    got = IW.ce_delbar(wedge(IW.phi(3), IW.phibar(3)))
    want = wedge(IW.phi(3), wedge(IW.phibar(1), IW.phibar(2)))
    assert got == want


def test_iwasawa_d_squared_on_forms():
    rng = random.Random(0)
    for _ in range(25):
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        keys = IW.basis_keys(p, q)
        u = IW.zero()
        for k in keys:
            if rng.random() < 0.5:
                u = u + IW.form_basis(p, q, k,
                                      CRat(rng.randint(-2, 2), rng.randint(-2, 2)))
        assert not u.d().d()
        assert not IW.ce_del(IW.ce_del(u))
        assert not IW.ce_delbar(IW.ce_delbar(u))
        anti = IW.ce_del(IW.ce_delbar(u)) + IW.ce_delbar(IW.ce_del(u))
        assert not anti


def test_frame_duality_contraction():
    assert contract(IW.frame(3), wedge(IW.phi(3), IW.phibar(3))) \
        == IW.phibar(3)


def test_lie10_examples():
    assert lie10(IW.frame(1), IW.phi(3)) == IW.phi(2).scale(CRat(-1))
    assert not lie10(IW.frame(1), IW.volume_form())
    for k in (1, 2, 3):
        assert not lie10(IW.frame(k), IW.volume_form())


def test_integrate_conventions():
    for model in (T3, IW, NK, HM):
        assert integrate(model.volume_form()) == CRat(1)
        prod = None
        for k in range(1, model.dim + 1):
            f = wedge(model.phi(k), model.phibar(k)).scale(I)
            prod = f if prod is None else wedge(prod, f)
        assert integrate(prod) == CRat(1)
    with pytest.raises(ValueError):
        integrate(IW.phi(1))


def test_stokes_exact():
    rng = random.Random(1)
    for model in (IW, HM, NK):
        keys = model.basis_keys(3, 2) + model.basis_keys(2, 3)
        for _ in range(15):
            w = model.zero()
            for k in keys:
                if rng.random() < 0.5:
                    p, q = len(k[0]), len(k[1])
                    w = w + model.form_basis(p, q, k,
                                             CRat(rng.randint(-2, 2),
                                                  rng.randint(-2, 2)))
            assert integrate(w.d()) == CRat(0)


def test_conjugation_and_reality():
    om = standard_metric_form(IW)
    assert om.conj() == om
    u = wedge(IW.phi(1), IW.phibar(2))
    assert u.conj() == wedge(IW.phi(2), IW.phibar(1)).scale(CRat(-1))


def test_conjugation_swaps_lie_types():
    rng = random.Random(2)
    for _ in range(20):
        model = rng.choice((IW, HM, NK))
        xi = InvVectorField(model, HOLO,
                            [CRat(rng.randint(-2, 2), rng.randint(-2, 2))
                             for _ in range(model.dim)])
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        keys = model.basis_keys(p, q)
        u = model.form_basis(p, q, keys[rng.randrange(len(keys))],
                             CRat(rng.randint(-2, 2), 1))
        assert lie10(xi, u).conj() == lie01(xi.conj(), u.conj())


def test_mixed_bracket_tables():
    assert IW.bracket(IW.frame(1), IW.frame_bar(1)).is_zero()
    b = IW.bracket(IW.frame(1), IW.frame(2))
    assert b.holo is not None and list(b.holo.comps) == [CRat(0), CRat(0), ONE]
    bm = HM.bracket(HM.frame(1), HM.frame_bar(1))
    assert not bm.is_zero()
    assert bm.holo is not None and bm.anti is not None


def test_lie_standard_vs_typed_for_invariant_holomorphic():
    # on complex-parallelizable models all frame fields are holomorphic
    rng = random.Random(3)
    for model in (IW, NK):
        for _ in range(10):
            k = rng.randint(1, 3)
            p, q = rng.randint(0, 2), rng.randint(0, 2)
            keys = model.basis_keys(p, q)
            u = model.form_basis(p, q, keys[rng.randrange(len(keys))])
            assert lie_std(model.frame(k), u) == lie10(model.frame(k), u)


def test_flow_pullback_properties():
    # s = 0 is the identity; torus flows are trivial
    u = IW.phi(3)
    assert (flow_pullback(IW.frame(1), 0.0, u) - InvForm(
        IW, {k: complex(c) for k, c in u.coeffs.items()})).norm() < 1e-15
    ut = T3.phi(2)
    out = flow_pullback(T3.frame(1), 0.7, ut)
    assert (out - InvForm(T3, {k: complex(c) for k, c in ut.coeffs.items()})).norm() < 1e-14

    # first-order Taylor matches the Lie derivative
    s = 1e-6
    moved = flow_pullback(IW.frame(1), s, u)
    lin = lie10(IW.frame(1), u)
    base = InvForm(IW, {k: complex(c) for k, c in u.coeffs.items()})
    diff = (moved - base).scale(1.0 / s) - InvForm(
        IW, {k: complex(c) for k, c in lin.coeffs.items()})
    assert diff.norm() < 1e-5

    # semigroup property to 1e-12
    a = flow_pullback(IW.frame(1), 0.3, flow_pullback(IW.frame(1), 0.4, u))
    b = flow_pullback(IW.frame(1), 0.7, u)
    assert (a - b).norm() < 1e-12

    # nakamura eigen-flow
    out = flow_pullback(NK.frame(1), 0.25, NK.phi(3))
    assert abs(out.coeffs[((3,), ())] - np.exp(0.25)) < 1e-13


def test_flow_pullback_of_an_inhomogeneous_form_is_the_sum_of_its_parts():
    # each bidegree flows on its own; Z_1 moves phi^3 to phi^3 - s phi^2
    a, b = IW.phi(3), wedge(IW.phi(3), IW.phibar(2))
    for field in (IW.frame(1), IW.frame_bar(1)):
        parts = flow_pullback(field, 0.3, a) + flow_pullback(field, 0.3, b)
        assert flow_pullback(field, 0.3, a + b) == parts
    moved = flow_pullback(IW.frame(1), 0.3, a + b)
    assert moved.bidegrees() == {(1, 0), (1, 1)}
    assert abs(moved.coeffs[((2,), ())] + 0.3) < 1e-15
    assert abs(moved.coeffs[((2,), (2,))] + 0.3) < 1e-15


def _expm_error(A):
    """Relative 1-norm distance of expm(A) from scipy.linalg.expm(A)."""
    ref = scipy.linalg.expm(A)
    return (np.abs(expm(A) - ref).sum(axis=0).max()
            / np.abs(ref).sum(axis=0).max())


def test_expm_matches_scipy():
    # the theorem stencil's generators are diagonal: exactly scipy's values
    f = get_map("nakamura_shear")
    xi = InvVectorField(f.source, HOLO, [CRat(Fraction(1, 2)), CRat(0), CRat(0)])
    Pf = InvForm(f.source, {k: complex(c)
                            for k, c in f.pulled_power().coeffs.items()})
    gens = {}, {}
    for field, g in zip((xi, xi.conj()), gens):
        flow_pullback(field, 0.0, Pf, g)
    Ls = list(gens[0].values()) + list(gens[1].values())
    assert Ls and all(L.shape == (9, 9) for L in Ls)
    for L in Ls:
        for s in (1e-4, 0.1, 3.0, 40.0):
            for A in (s * L, -s * L):
                assert np.array_equal(expm(A), scipy.linalg.expm(A))
    # scaling and squaring: a nilpotent Jordan block, whose series ends, and
    # random complex matrices of 1-norm 1e-4 to 50 (worst measured 2.5e-15)
    J = np.eye(9, k=1, dtype=complex)
    assert max(_expm_error(s * J) for s in (1e-4, 1.0, 40.0)) < 2e-15
    rng = np.random.default_rng(15)
    worst = 0.0
    for norm in np.geomspace(1e-4, 50, 12):
        for _ in range(4):
            A = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
            worst = max(worst, _expm_error(A * norm
                                           / np.abs(A).sum(axis=0).max()))
    assert worst < 2e-14


def test_model_file_round_trip_bit_exact():
    for model in (IW, HM, NK, T3):
        text = format_model(model)
        again = parse_model(text)
        assert format_model(again) == text
        assert again.dim == model.dim and again.diff == model.diff


def test_model_parse_errors_are_located():
    with pytest.raises(ParseError) as e:
        parse_model("name x\ndim 2\ndiff 1 zz 1 0\n", "f.model")
    assert "f.model:3" in str(e.value)
    with pytest.raises(ParseError):
        parse_model("dim 2\n")


def test_custom_model_parse_and_validate():
    text = "name h\ndim 3\nvolume_scale 2\ndiff 3 12 -1 0\ndiff 3 1~1 1 0\n"
    m = parse_model(text)
    assert m.volume_scale == Fraction(2)
    assert integrate(m.volume_form()) == CRat(2)


def test_repeated_labels_are_summed_everywhere():
    # d, the bracket table, the field certificates and the cohomology all
    # read the summed constants: doubled, cancelling and split labels below
    rep = parse_model("name a\ndim 3\ndiff 3 12 -1 0\ndiff 3 12 -1 0\n"
                      "diff 3 1~1 1 0\ndiff 3 1~1 -1 0\n"
                      "diff 3 2~2 1/2 0\ndiff 3 2~2 0 1/2\n")
    summed = parse_model("name a\ndim 3\ndiff 3 12 -2 0\n"
                         "diff 3 2~2 1/2 1/2\n")
    assert rep.diff == summed.diff
    assert format_model(rep) == format_model(summed)

    def d_table(m):
        return {(p, q, key): m.form_basis(p, q, key).d().coeffs
                for p in range(4) for q in range(4)
                for key in m.basis_keys(p, q)}

    def bracket_table(m):
        fields = ([m.frame(k) for k in range(1, 4)]
                  + [m.frame_bar(k) for k in range(1, 4)])
        return [[tuple(f.comps if f else None for f in (br.holo, br.anti))
                 for br in (m.bracket(a, b) for b in fields)] for a in fields]

    assert d_table(rep) == d_table(summed)
    assert bracket_table(rep) == bracket_table(summed)
    for k in range(1, 4):
        assert lie_g_membership(rep.frame(k)) == lie_g_membership(summed.frame(k))
    for p in range(4):
        for q in range(4):
            assert bc_dim(rep, p, q) == bc_dim(summed, p, q), (p, q)
            assert aeppli_dim(rep, p, q) == aeppli_dim(summed, p, q), (p, q)


def test_wedge_inv_graded_commutativity_and_associativity():
    rng = random.Random(9)
    for model in (IW, HM, NK):
        for _ in range(10):
            def rnd(p, q):
                keys = model.basis_keys(p, q)
                u = model.zero()
                for k in keys:
                    if rng.random() < 0.4:
                        u = u + model.form_basis(p, q, k,
                                                 CRat(rng.randint(-2, 2),
                                                      rng.randint(-2, 2)))
                return u
            p1, q1 = rng.randint(0, 2), rng.randint(0, 2)
            p2, q2 = rng.randint(0, 2), rng.randint(0, 2)
            u, v = rnd(p1, q1), rnd(p2, q2)
            sign = (-1) ** ((p1 + q1) * (p2 + q2))
            assert wedge(u, v) == wedge(v, u).scale(CRat(sign))
            w = rnd(1, 0)
            assert wedge(wedge(u, v), w) == wedge(u, wedge(v, w))


def test_contraction_antiderivation_invariant():
    rng = random.Random(10)
    for model in (IW, HM):
        for _ in range(12):
            kind = rng.choice((HOLO, ANTI))
            v = InvVectorField(model, kind,
                               [CRat(rng.randint(-2, 2), rng.randint(-2, 2))
                                for _ in range(model.dim)])
            def rnd(p, q):
                keys = model.basis_keys(p, q)
                k = keys[rng.randrange(len(keys))]
                return model.form_basis(p, q, k, CRat(rng.randint(-2, 2), 1))
            p1, q1 = rng.randint(0, 2), rng.randint(0, 2)
            u = rnd(p1, q1)
            w = rnd(rng.randint(0, 1), rng.randint(0, 1))
            lhs = contract(v, wedge(u, w))
            rhs = (wedge(contract(v, u), w)
                   + wedge(u, contract(v, w)).scale(CRat((-1) ** (p1 + q1))))
            assert lhs == rhs


def test_nan_coefficient_is_not_zero():
    u = InvForm(IW, {((1,), ()): float("nan")})
    assert u
    assert u != IW.zero()
    assert math.isnan(u.norm())


def test_wedge_evaluation_matches_permutation_oracle():
    # mixed-type invariant 1-forms on mixed frame fields against a
    # brute-force permutation sum: entries 0..d-1 pair phi^j with Z_j,
    # entries d..2d-1 pair phibar^j with Zbar_j
    rng = random.Random(11)
    for model in (HM, NK):
        d = model.dim
        for _ in range(15):
            k = rng.randint(1, 4)
            covs = [[complex(rng.randint(-2, 2), rng.randint(-2, 2))
                     for _ in range(2 * d)] for _ in range(k)]
            vecs = [[complex(rng.randint(-2, 2), rng.randint(-2, 2))
                     for _ in range(2 * d)] for _ in range(k)]

            def exact(z):
                return CRat(int(z.real), int(z.imag))
            form = None
            for cv in covs:
                one = model.zero()
                for j in range(1, d + 1):
                    one = (one + model.phi(j).scale(exact(cv[j - 1]))
                           + model.phibar(j).scale(exact(cv[d + j - 1])))
                form = one if form is None else wedge(form, one)
            fields = [MixedField(model,
                                 InvVectorField(model, HOLO, [exact(x) for x in v[:d]]),
                                 InvVectorField(model, ANTI, [exact(x) for x in v[d:]]))
                      for v in vecs]
            got = complex(evaluate(form, fields))
            assert abs(got - wedge_eval_oracle(covs, vecs)) < 1e-9
