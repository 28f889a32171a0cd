"""Invariant calculus against its polynomial coordinate realization.

The Heisenberg-type catalog models have global polynomial coframes:

  iwasawa:     phi = (dz1, dz2, dz3 - z1 dz2)
  heis_mixed:  phi = (dz1, dz2, dz3 - z1 dz2 - zbar1 dz1)

Embedding invariant forms and frame fields through these coframes must
intertwine every operation with the exact chart backend; this pins the sign
conventions of the structure-constant calculus against direct expansion.
"""

import random

from balmap.catalog import MODELS
from balmap.exact import CRat
from balmap import symalg
from balmap.symalg import (ChartForm, ChartVectorField, Poly, contract,
                           lie01, lie10, lie_bracket, wedge)
from balmap.forms import MixedField
from balmap.invariant import ANTI, HOLO, InvForm, InvVectorField

IW = MODELS["iwasawa"]
HM = MODELS["heis_mixed"]


def coframe(model):
    d = 3
    dz = [ChartForm.basis(d, (k,), ()) for k in (1, 2, 3)]
    z1 = Poly.z(d, 1)
    if model is IW:
        phi3 = dz[2] - ChartForm.basis(d, (2,), (), z1)
    else:
        phi3 = (dz[2] - ChartForm.basis(d, (2,), (), z1)
                - ChartForm.basis(d, (1,), (), Poly.zbar(d, 1)))
    return [dz[0], dz[1], phi3]


def frames(model):
    d = 3
    Z3 = ChartVectorField.frame(d, 3)
    comps1 = [Poly.const(d, 1), Poly(d), Poly(d)]
    comps2 = [Poly(d), Poly.const(d, 1), Poly.z(d, 1)]
    if model is HM:
        comps1 = [Poly.const(d, 1), Poly(d), Poly.zbar(d, 1)]
    Z1 = ChartVectorField(d, HOLO, comps1)
    Z2 = ChartVectorField(d, HOLO, comps2)
    return [Z1, Z2, Z3]


def embed_form(model, u: InvForm) -> ChartForm:
    phis = coframe(model)
    phibars = [p.conj() for p in phis]
    out = ChartForm.zero(3)
    for (Iidx, Jidx), c in u.coeffs.items():
        term = ChartForm.from_function(Poly.const(3, c))
        for i in Iidx:
            term = wedge(term, phis[i - 1])
        for j in Jidx:
            term = wedge(term, phibars[j - 1])
        out = out + term
    return out


def embed_field(model, v) -> object:
    if isinstance(v, MixedField):
        parts = [embed_field(model, p) for p in v.parts()]
        out = symalg.MixedField(3, None, None)
        for p in parts:
            out = out + symalg.MixedField.of(p)
        return out
    Zs = frames(model)
    if v.kind == ANTI:
        acc = None
        for c, Z in zip(v.comps, Zs):
            piece = Z.conj().scale(Poly.const(3, c))
            acc = piece if acc is None else acc + piece
        return acc
    acc = None
    for c, Z in zip(v.comps, Zs):
        piece = Z.scale(Poly.const(3, c))
        acc = piece if acc is None else acc + piece
    return acc


def test_coframe_realizes_structure_constants():
    for model in (IW, HM):
        phis = coframe(model)
        for k in range(1, 4):
            got = phis[k - 1].d()
            want = embed_form(model, model.phi(k).d())
            assert got == want, (model.name, k)
        # duality phi^i(Z_j) = delta_ij, phi^i(Zbar_j) = 0
        Zs = frames(model)
        for i in range(3):
            for j in range(3):
                pairing = contract(Zs[j], phis[i])
                want = ChartForm.from_function(Poly.const(3, int(i == j)))
                assert (pairing == want) if i == j else not pairing
                assert not contract(Zs[j].conj(), phis[i])


def rand_invform(rng, model, p, q):
    keys = model.basis_keys(p, q)
    u = model.zero()
    for k in keys:
        if rng.random() < 0.4:
            u = u + model.form_basis(p, q, k,
                                     CRat(rng.randint(-2, 2), rng.randint(-2, 2)))
    return u


def rand_invfield(rng, model, kind=HOLO):
    return InvVectorField(model, kind,
                          [CRat(rng.randint(-2, 2), rng.randint(-2, 2))
                           for _ in range(3)])


def test_wedge_intertwines():
    rng = random.Random(0)
    for model in (IW, HM):
        for _ in range(10):
            u = rand_invform(rng, model, rng.randint(0, 2), rng.randint(0, 2))
            v = rand_invform(rng, model, rng.randint(0, 2), rng.randint(0, 2))
            assert embed_form(model, wedge(u, v)) \
                == wedge(embed_form(model, u), embed_form(model, v))


def test_derivatives_intertwine():
    rng = random.Random(1)
    for model in (IW, HM):
        for _ in range(12):
            u = rand_invform(rng, model, rng.randint(0, 3), rng.randint(0, 3))
            assert embed_form(model, model.ce_del(u)) \
                == embed_form(model, u).del_()
            assert embed_form(model, model.ce_delbar(u)) \
                == embed_form(model, u).delbar()


def test_contraction_intertwines():
    rng = random.Random(2)
    for model in (IW, HM):
        for _ in range(12):
            u = rand_invform(rng, model, rng.randint(0, 3), rng.randint(0, 3))
            kind = rng.choice((HOLO, ANTI))
            v = rand_invfield(rng, model, kind)
            assert embed_form(model, contract(v, u)) \
                == contract(embed_field(model, v), embed_form(model, u))


def test_lie_derivatives_intertwine():
    rng = random.Random(3)
    for model in (IW, HM):
        for _ in range(12):
            u = rand_invform(rng, model, rng.randint(0, 2), rng.randint(0, 2))
            xi = rand_invfield(rng, model, HOLO)
            eb = rand_invfield(rng, model, ANTI)
            assert embed_form(model, lie10(xi, u)) \
                == lie10(embed_field(model, xi), embed_form(model, u))
            assert embed_form(model, lie01(eb, u)) \
                == lie01(embed_field(model, eb), embed_form(model, u))


def test_brackets_intertwine():
    rng = random.Random(4)
    for model in (IW, HM):
        for _ in range(10):
            kinds = (rng.choice((HOLO, ANTI)), rng.choice((HOLO, ANTI)))
            a = rand_invfield(rng, model, kinds[0])
            b = rand_invfield(rng, model, kinds[1])
            br = model.bracket(a, b)
            chart_br = lie_bracket(embed_field(model, a), embed_field(model, b))
            # compare through contraction against a generic form
            u = rand_invform(rng, model, 2, 2)
            lhs = embed_form(model, contract(br, u))
            rhs = contract(chart_br, embed_form(model, u))
            assert lhs == rhs


def test_volume_form_embeds_to_standard_volume():
    for model in (IW, HM):
        got = embed_form(model, model.volume_form())
        assert got == symalg.standard_volume(3)
