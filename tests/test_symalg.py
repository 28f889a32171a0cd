"""Chart-backend calculus: worked examples, laws, and the identity suite."""

import json
import pathlib
import random
from fractions import Fraction

from balmap.exact import CRat, I
from balmap.symalg import (ANTI, HOLO, ChartForm, ChartVectorField, Poly,
                           chart_d, chart_del, chart_delbar, contract,
                           dbar_field_contract, evaluate, identity_suite,
                           lie01, lie10, lie_bracket, lie_std,
                           mixed_second_derivative_check, random_field,
                           random_form, standard_volume, wedge)
from oracles import wedge_eval_oracle

SUITE_FIXTURE = (pathlib.Path(__file__).parent / "fixtures"
                 / "identity_suite_golden.json")


def test_wedge_alternation_and_sign():
    d = 2
    dz1 = ChartForm.basis(d, (1,), ())
    dw1 = ChartForm.basis(d, (), (1,))
    assert not wedge(dz1, dz1)
    assert wedge(dz1, dw1) == -wedge(dw1, dz1)


def test_wedge_polynomial_example():
    d = 2
    z1, w2 = Poly.z(d, 1), Poly.zbar(d, 2)
    lhs = wedge(ChartForm.basis(d, (1,), (), z1),
                ChartForm.basis(d, (2,), (), w2))
    assert lhs == ChartForm.basis(d, (1, 2), (), z1 * w2)


def test_wedge_graded_commutativity_random():
    rng = random.Random(3)
    for _ in range(40):
        d = rng.choice((2, 3))
        p1, q1 = rng.randint(0, 2), rng.randint(0, 2)
        p2, q2 = rng.randint(0, 2), rng.randint(0, 2)
        u = random_form(rng, d, min(p1, d), min(q1, d), nterms=1)
        v = random_form(rng, d, min(p2, d), min(q2, d), nterms=1)
        du, dv = (min(p1, d) + min(q1, d)), (min(p2, d) + min(q2, d))
        sign = (-1) ** (du * dv)
        assert wedge(u, v) == wedge(v, u).scale(CRat(sign))


def test_wedge_dimension_mismatch():
    import pytest
    with pytest.raises(ValueError):
        wedge(ChartForm.basis(2, (1,), ()), ChartForm.basis(3, (1,), ()))


def test_contract_examples():
    d = 2
    u = wedge(ChartForm.basis(d, (1,), ()), ChartForm.basis(d, (), (1,)))
    assert contract(ChartVectorField.frame(d, 1), u) == ChartForm.basis(d, (), (1,))
    assert contract(ChartVectorField.frame_bar(d, 1), u) == -ChartForm.basis(d, (1,), ())
    v = ChartVectorField(d, HOLO, [Poly.z(d, 2), Poly(d)])
    dz12 = ChartForm.basis(d, (1, 2), ())
    assert contract(v, dz12) == ChartForm.basis(d, (2,), (), Poly.z(d, 2))
    # p = 0: contracting a (1,0) field gives zero, not an error
    assert not contract(ChartVectorField.frame(d, 1), ChartForm.basis(d, (), (1,)))


def test_contract_antiderivation_random():
    rng = random.Random(4)
    for _ in range(30):
        d = rng.choice((2, 3))
        v = random_field(rng, d, rng.choice((HOLO, ANTI)))
        u = random_form(rng, d, rng.randint(0, 2), rng.randint(0, 2), nterms=1)
        w = random_form(rng, d, rng.randint(0, 2), rng.randint(0, 2), nterms=1)
        deg = sum(u.bidegree() or (0, 0))
        lhs = contract(v, wedge(u, w))
        rhs = wedge(contract(v, u), w) + wedge(u, contract(v, w)).scale(CRat((-1) ** deg))
        assert lhs == rhs


def test_evaluation_matches_permutation_oracle():
    # constant-coefficient (k,0)-forms on constant fields vs brute force
    rng = random.Random(5)
    d = 3
    for _ in range(20):
        k = rng.randint(1, 3)
        covs = [[complex(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(d)]
                for _ in range(k)]
        vecs = [[complex(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(d)]
                for _ in range(k)]
        form = None
        for cv in covs:
            one = ChartForm.zero(d)
            for j, c in enumerate(cv, start=1):
                coeff = Poly.const(d, CRat(int(c.real), int(c.imag)))
                one = one + ChartForm.basis(d, (j,), (), coeff)
            form = one if form is None else wedge(form, one)
        fields = [ChartVectorField(d, HOLO,
                                   [Poly.const(d, CRat(int(x.real), int(x.imag)))
                                    for x in vec]) for vec in vecs]
        got = evaluate(form, fields)
        want = wedge_eval_oracle(covs, vecs)
        gc = complex(got.terms.get(((0,) * d, (0,) * d), CRat(0)))
        assert abs(gc - want) < 1e-9


def test_derivative_examples():
    d = 2
    assert not chart_del(ChartForm.from_function(Poly.zbar(d, 1)))
    got = chart_delbar(ChartForm.basis(d, (1,), (), Poly.z(d, 1) * Poly.zbar(d, 1)))
    assert got == ChartForm.basis(d, (1,), (1,), -Poly.z(d, 1))
    f = ChartForm.from_function(Poly.z(d, 1) * Poly.z(d, 1) * Poly.zbar(d, 2))
    assert not chart_d(chart_d(f))


def test_poly_operators_decline_unsupported_operands():
    import pytest
    p = Poly.const(2, 1)
    assert p == 1 and p == CRat(1) and p == Fraction(1)
    assert not p == None  # noqa: E711 -- None is not a polynomial
    assert p != "1" and p != 1.0
    for op in (lambda: p + 1.5, lambda: 1.5 + p, lambda: p * 1.5,
               lambda: 1.5 * p, lambda: p - 1.5, lambda: p + None,
               lambda: p * "x"):
        with pytest.raises(TypeError):
            op()
    assert p + 1 == 2 == 1 + p
    assert p * CRat(3) == 3 == CRat(3) * p
    assert p - Fraction(1, 2) == Fraction(1, 2)


def test_bracket_examples():
    d = 2
    Z1, Z2 = ChartVectorField.frame(d, 1), ChartVectorField.frame(d, 2)
    assert not any(lie_bracket(Z1, Z2).comps)
    b = lie_bracket(ChartVectorField(d, HOLO, [Poly.z(d, 1), Poly(d)]), Z1)
    assert b.comps[0] == Poly.const(d, -1) and not b.comps[1]
    assert lie_bracket(Z1, ChartVectorField.frame_bar(d, 1)).is_zero()


def test_bracket_jacobi_random():
    from balmap.symalg import MixedField
    rng = random.Random(6)
    for _ in range(15):
        d = 2
        kinds = [rng.choice((HOLO, ANTI)) for _ in range(3)]
        a, b, c = (random_field(rng, d, k) for k in kinds)
        total = (MixedField.of(lie_bracket(lie_bracket(a, b), c))
                 + MixedField.of(lie_bracket(lie_bracket(b, c), a))
                 + MixedField.of(lie_bracket(lie_bracket(c, a), b)))
        assert total.is_zero()


def test_lie_examples():
    d = 2
    Z1 = ChartVectorField.frame(d, 1)
    assert lie10(Z1, ChartForm.from_function(Poly.z(d, 1) * Poly.zbar(d, 2))) \
        == ChartForm.from_function(Poly.zbar(d, 2))
    v = ChartVectorField(d, HOLO, [Poly.z(d, 2), Poly(d)])
    assert lie10(v, ChartForm.basis(d, (1,), ())) == ChartForm.basis(d, (2,), ())
    W1 = ChartVectorField.frame_bar(d, 1)
    assert lie01(W1, ChartForm.from_function(Poly.zbar(d, 1) * Poly.z(d, 2))) \
        == ChartForm.from_function(Poly.z(d, 2))
    vb = ChartVectorField(d, ANTI, [Poly.zbar(d, 2), Poly(d)])
    assert lie01(vb, ChartForm.basis(d, (), (1,))) == ChartForm.basis(d, (), (2,))


def test_lie_std_reduces_for_holomorphic_fields():
    rng = random.Random(7)
    from balmap.symalg import random_holomorphic_field
    for _ in range(20):
        d = rng.choice((2, 3))
        xi = random_holomorphic_field(rng, d)
        u = random_form(rng, d, rng.randint(0, 2), rng.randint(0, 2), nterms=1)
        assert lie_std(xi, u) == lie10(xi, u)
        assert not dbar_field_contract(xi, u)


def test_standard_volume_positive():
    # dV equals the product of the positive unit forms i dz_k ^ dzbar_k
    for d in (1, 2, 3):
        dV = standard_volume(d)
        assert dV.conj() == dV
        prod = None
        for k in range(1, d + 1):
            f = wedge(ChartForm.basis(d, (k,), ()),
                      ChartForm.basis(d, (), (k,))).scale(I)
            prod = f if prod is None else wedge(prod, f)
        assert dV == prod


def test_identity_suite_passes():
    rep = identity_suite(seed=0, trials=50)
    bad = [r for r in rep.records if not r.ok]
    assert not bad, bad
    assert any(r.expected_failure for r in rep.records)


def test_identity_suite_outcome_is_pinned():
    # the drawn data and every equality verdict, record by record, as frozen
    # in the fixture: a change of arithmetic must not move either
    golden = json.loads(SUITE_FIXTURE.read_text())
    for seed, want in sorted(golden["seeds"].items()):
        rep = identity_suite(seed=int(seed), trials=golden["trials"])
        got = [[r.name, r.trials, r.failures] for r in rep.records]
        assert got == want, seed


def test_identity_suite_reports_counterexamples():
    rep = identity_suite(seed=0, trials=20)
    xfails = [r for r in rep.records if r.expected_failure]
    for r in xfails:
        assert r.failures > 0
        assert r.counterexample


def test_mixed_second_derivative_check():
    rep = mixed_second_derivative_check(seed=1, trials=40)
    assert all(r.ok for r in rep.records)


def test_holomorphic_field_commutes_with_delbar():
    from balmap.symalg import random_holomorphic_field
    rng = random.Random(8)
    for _ in range(20):
        d = rng.choice((2, 3))
        xi = random_holomorphic_field(rng, d)
        u = random_form(rng, d, rng.randint(0, 2), rng.randint(0, 2), nterms=1)
        assert lie10(xi, chart_delbar(u)) == chart_delbar(lie10(xi, u))


def test_identity_suite_deterministic():
    a = identity_suite(seed=5, trials=10)
    b = identity_suite(seed=5, trials=10)
    assert [(r.name, r.failures) for r in a.records] \
        == [(r.name, r.failures) for r in b.records]
