"""Map/tuple membership, the pairing, its invariances, and the flow check."""

import random
from fractions import Fraction

import numpy as np
import pytest

from balmap.catalog import MODELS, get_map, standard_metric_form
from balmap.exact import CRat, I, largest_size
from balmap.forms import wedge
from balmap.hodge import (ClassObstructionError, HermitianMetricSpec,
                          MetricContext, neumann_gamma)
from balmap.invariant import ANTI, HOLO, InvForm, InvVectorField
from balmap.moment import (BalancedTarget, MapSpec, MomentTuple, ValidationError,
                           chart_contraction_derivative_trials,
                           chart_reversal_trials, chart_tuple_fields,
                           conjugation_swap_value,
                           contraction_derivative_check, flow_derivative_check,
                           invariant_contraction_derivative_check,
                           iterated_contraction, lie_g_membership, mu_eval,
                           omega_eval, parse_mapspec, parse_tuple,
                           pg_membership, tuple_residual_forms,
                           well_definedness_check, x_membership)
from balmap.symalg import standard_volume

IW = MODELS["iwasawa"]
T3 = MODELS["torus3"]
NK = MODELS["nakamura"]
HM = MODELS["heis_mixed"]


# -- balanced targets -------------------------------------------------------------


def test_flat_torus_form_accepted():
    bt = BalancedTarget(T3, standard_metric_form(T3))
    assert bt.n == 3


def test_iwasawa_standard_form_balanced():
    BalancedTarget(IW, standard_metric_form(IW))
    BalancedTarget(NK, standard_metric_form(NK))


def test_non_positive_form_rejected():
    bad = standard_metric_form(IW).scale(CRat(-1))
    with pytest.raises(ValidationError):
        BalancedTarget(IW, bad)


def test_non_balanced_form_rejected():
    # on the iwasawa model the differential vanishes on all invariant
    # (2,2)-forms, so every invariant metric there is balanced; the mixed
    # Heisenberg model is where closedness of the square genuinely fails
    om = standard_metric_form(HM)
    assert om.conj() == om
    with pytest.raises(ValidationError) as e:
        BalancedTarget(HM, om)
    assert "balanced" in str(e.value)
    for model in (IW, NK, T3):
        BalancedTarget(model, standard_metric_form(model))


# -- map specs ----------------------------------------------------------------------


def test_incompatible_matrix_rejected():
    bt = BalancedTarget(T3, standard_metric_form(T3))
    # f* psi3 = phi3 needs d(phi3) = 0 on the source; it is not
    with pytest.raises(ValidationError):
        MapSpec("bad", IW, bt, [[CRat(1), CRat(0), CRat(0)],
                                [CRat(0), CRat(1), CRat(0)],
                                [CRat(0), CRat(0), CRat(1)]])


def test_dimension_guard():
    bt = BalancedTarget(T3, standard_metric_form(T3))
    with pytest.raises(ValidationError):
        MapSpec("small", MODELS["torus1"], bt, [[CRat(1)], [CRat(0)], [CRat(0)]])


def test_pullback_rank_deficiency():
    f = get_map("iwasawa_to_t3")
    pulled = f.pullback(wedge(T3.phi(3), T3.phibar(3)).scale(I))
    assert not pulled
    ident = get_map("t3_rank1")
    assert not ident.pulled_power()


def test_pullback_naturality_random_maps():
    rng = random.Random(4)
    bt = BalancedTarget(T3, standard_metric_form(T3))
    for _ in range(10):
        rows = [[CRat(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(3)]
                for _ in range(3)]
        # rows into the closed directions only, so compatibility holds
        for r in rows:
            r[2] = CRat(0)
        f = MapSpec("rnd", IW, bt, rows)
        for k in range(1, 4):
            u = T3.phi(k)
            assert f.pullback(u.d()) == f.pullback(u).d()
        u = wedge(T3.phi(1), T3.phibar(2))
        assert f.pullback(T3.ce_delbar(u)) == IW.ce_delbar(f.pullback(u))


def test_natural_map_pullback_value():
    f = get_map("iwasawa_to_t3")
    want = wedge(wedge(IW.phi(1), IW.phibar(1)).scale(I),
                 wedge(IW.phi(2), IW.phibar(2)).scale(I))
    assert f.pulled_power() == want


# -- membership ----------------------------------------------------------------------


def test_x_membership_catalog():
    assert x_membership(get_map("iwasawa_to_t3")).member
    assert x_membership(get_map("nakamura_shear")).member
    rep = x_membership(get_map("t3_rank1"))
    assert rep.member and not rep.gamma


def test_impossibility_diagnosis():
    rep = x_membership(get_map("t2_immersion_t3"))
    assert not rep.member
    assert rep.impossibility and "Stokes" in rep.impossibility


def test_lie_g_membership():
    for k in (1, 2, 3):
        assert lie_g_membership(IW.frame(k)).member
        assert lie_g_membership(T3.frame(k) if k <= 3 else T3.frame(1)).member
    cert = lie_g_membership(HM.frame(1))
    assert not cert.member and cert.dbar_norm > 0


def test_exact_verdicts_survive_float_underflow():
    # 1e-400 Z_1 on heis_mixed: dbar and both residuals are nonzero forms
    # whose float norms are 0.0
    tiny = HM.frame(1, CRat(Fraction(1, 10 ** 400)))
    cert = lie_g_membership(tiny)
    assert not cert.holomorphic and cert.dbar_norm == 0.0
    rep = pg_membership(MomentTuple([tiny], [tiny.conj()]))
    assert not rep.member and not rep.swap_member and not rep.lie_g_ok
    assert rep.residual_bar == rep.residual_del == 0.0


def test_exact_sizes_survive_float_underflow():
    # the same forms' sizes, read from their exact coefficients
    tiny = HM.frame(1, CRat(Fraction(1, 10 ** 400)))
    forms = tuple_residual_forms([tiny], [tiny.conj()], HM.volume_form())
    assert largest_size([c for u in forms for c in u.coeffs.values()]) \
        == "1.000e-800"
    assert largest_size([CRat(0), 0, CRat(-3, 4), 2.5]) == "5.000e+00"  # |-3+4i|
    assert largest_size([CRat(0)]) == "0"
    with pytest.raises(ValidationError, match=r"holomorphic=False \(largest "
                       r"dbar entry 1\.000e-400\), volume_preserving=True "
                       r"\(largest L_xi dV coefficient 0\)"):
        flow_derivative_check(get_map("heis_mixed_to_t3"), tiny, HM.frame(3))


def test_pg_membership_of_an_empty_tuple_needs_its_model():
    with pytest.raises(ValidationError, match="arity-0 tuple names no model"):
        pg_membership(MomentTuple([], []))
    assert pg_membership(MomentTuple([], []), MODELS["torus2"]).member


def test_map_membership_residual_is_the_neumann_solves():
    # 0 for a member; else the residual neumann_gamma raises under the flat
    # metric, which the theorem path reports for the same power
    rep = x_membership(get_map("iwasawa_to_t3"))
    assert rep.member and rep.residual == 0.0 and rep.pulled_norm > 0
    f = get_map("t2_immersion_t3")
    rep = x_membership(f)
    with pytest.raises(ClassObstructionError) as e:
        neumann_gamma(f.pulled_power(), HermitianMetricSpec.flat(f.source))
    assert not rep.member and rep.residual == e.value.residual > 0


def test_neumann_obstruction_below_bidegree_one_one():
    # no ddbar reaches a (0,0)-form: all of its norm is residual
    ctx = MetricContext(HermitianMetricSpec.flat(MODELS["torus2"]))
    two = InvForm(MODELS["torus2"], {((), ()): CRat(2)})
    with pytest.raises(ClassObstructionError) as e:
        neumann_gamma(two, ctx)
    assert e.value.residual == pytest.approx(abs(ctx.inner(two, two)) ** 0.5)


def test_pg_membership_parallelizable_pairs():
    t = MomentTuple([IW.frame(3)], [IW.frame_bar(3)])
    rep = pg_membership(t)
    assert rep.member and rep.swap_member and rep.swap_symmetric
    for model in (T3, NK):
        t2 = MomentTuple([model.frame(1)], [model.frame_bar(2)])
        assert pg_membership(t2).member


def test_pg_membership_broken_cases():
    broken = MomentTuple([HM.frame(1)], [HM.frame_bar(1)])
    rep = pg_membership(broken)
    assert not rep.member and not rep.lie_g_ok
    assert rep.residual_bar > 1e-6 or rep.residual_del > 1e-6

    n4 = MomentTuple([IW.frame(1), IW.frame(2)],
                     [IW.frame_bar(1), IW.frame_bar(2)])
    rep4 = pg_membership(n4)
    assert not rep4.member and rep4.lie_g_ok
    n4good = MomentTuple([IW.frame(1), IW.frame(3)],
                         [IW.frame_bar(1), IW.frame_bar(3)])
    assert pg_membership(n4good).member


def test_tuple_arity_guard():
    f = get_map("iwasawa_to_t3")
    t = MomentTuple([IW.frame(1), IW.frame(2)],
                    [IW.frame_bar(1), IW.frame_bar(2)])
    with pytest.raises(ValidationError):
        mu_eval(f, t)
    with pytest.raises(ValidationError):
        well_definedness_check(f, t, trials=1)


# -- closed double-sum and reversal identities (chart backend, exact) -----------------


def test_contraction_derivative_chart_n3_n4():
    for (n, dim, seed) in [(3, 2, 10), (3, 3, 11), (4, 3, 12), (4, 4, 13)]:
        assert chart_contraction_derivative_trials(n, dim, seed=seed, trials=5)


def test_contraction_derivative_n4_nontrivial():
    rng = random.Random(2)
    dV = standard_volume(3)
    saw_nonzero = False
    for _ in range(6):
        xis, etabars = chart_tuple_fields(rng, 3, 2)
        okd, okdb, lhs_del, _, lhs_db, _ = contraction_derivative_check(
            xis, etabars, dV)
        assert okd and okdb
        saw_nonzero = saw_nonzero or bool(lhs_del) or bool(lhs_db)
    assert saw_nonzero


def test_reversal_signs_chart_n3_n4():
    for (n, dim, seed) in [(3, 2, 20), (3, 3, 21), (4, 3, 22)]:
        assert chart_reversal_trials(n, dim, seed=seed, trials=5)


def test_contraction_derivative_invariant_models():
    assert invariant_contraction_derivative_check(
        T3, [T3.frame(1)], [T3.frame_bar(2)])
    assert invariant_contraction_derivative_check(
        IW, [IW.frame(1)], [IW.frame_bar(2)])
    assert invariant_contraction_derivative_check(
        IW, [IW.frame(1), IW.frame(2)], [IW.frame_bar(1), IW.frame_bar(3)])
    assert invariant_contraction_derivative_check(
        NK, [NK.frame(2)], [NK.frame_bar(3)])


# -- pairing -------------------------------------------------------------------------


def test_mu_value_on_catalog_example():
    f = get_map("iwasawa_to_t3")
    v_n = mu_eval(f, MomentTuple([IW.frame(3)], [IW.frame_bar(3)], "neumann"))
    v_a = mu_eval(f, MomentTuple([IW.frame(3)], [IW.frame_bar(3)],
                                 "any-solution"))
    assert abs(v_n - (-1)) < 1e-12
    assert abs(v_a - (-1)) < 1e-12


def test_mu_policies_agree_for_admissible_tuples():
    f = get_map("iwasawa_to_t3")
    for (j, k) in [(1, 1), (2, 2), (3, 3), (1, 2)]:
        v_n = mu_eval(f, MomentTuple([IW.frame(j)], [IW.frame_bar(k)],
                                     "neumann"))
        v_a = mu_eval(f, MomentTuple([IW.frame(j)], [IW.frame_bar(k)],
                                     "any-solution"))
        assert abs(v_n - v_a) < 1e-10


def test_mu_multilinearity():
    f = get_map("iwasawa_to_t3")
    base = mu_eval(f, MomentTuple([IW.frame(3)], [IW.frame_bar(3)]))
    for lam in (2, 3):
        t = MomentTuple([IW.frame(3).scale(CRat(lam))], [IW.frame_bar(3)])
        assert abs(mu_eval(f, t) - lam * base) < 1e-12
        t2 = MomentTuple([IW.frame(3)], [IW.frame_bar(3).scale(CRat(lam))])
        assert abs(mu_eval(f, t2) - lam * base) < 1e-12


def test_zero_map_pairs_the_empty_tuple_to_zero():
    # a 2-dimensional target pairs tuples of arity 0; the zero map pulls
    # back the zero power, whose potential is zero at any source dimension
    T1, T2 = MODELS["torus1"], MODELS["torus2"]
    f = MapSpec("zero", T1, BalancedTarget(T2, standard_metric_form(T2)),
                [[CRat(0)], [CRat(0)]])
    assert x_membership(f).member
    for policy in ("neumann", "any-solution"):
        assert mu_eval(f, MomentTuple([], [], policy)) == 0
    rep = well_definedness_check(f, MomentTuple([], []), trials=5)
    assert rep.base_value == 0 and rep.max_deviation == 0
    assert rep.reversal_ok


def test_mu_rejects_inadmissible_tuple():
    f4 = get_map("iwasawa_to_t4")
    broken = MomentTuple([IW.frame(1), IW.frame(2)],
                         [IW.frame_bar(1), IW.frame_bar(2)])
    with pytest.raises(ValidationError):
        mu_eval(f4, broken)


def test_conjugation_swap_convention():
    f = get_map("iwasawa_to_t3")
    for (j, k) in [(3, 3), (1, 2)]:
        t = MomentTuple([IW.frame(j)], [IW.frame_bar(k)])
        got, want = conjugation_swap_value(f, t)
        assert abs(got - want) < 1e-10
    f4 = get_map("iwasawa_to_t4")
    t4 = MomentTuple([IW.frame(1), IW.frame(3)],
                     [IW.frame_bar(1), IW.frame_bar(3)])
    got, want = conjugation_swap_value(f4, t4)
    assert abs(got - want) < 1e-10


def test_omega_eval_values_and_antisymmetry():
    f = get_map("iwasawa_to_t3")
    args = [IW.frame(1), IW.frame(2), IW.frame_bar(1), IW.frame_bar(2)]
    v = omega_eval(f, args)
    assert abs(v - 1.0) < 1e-12
    swapped = [IW.frame(2), IW.frame(1), IW.frame_bar(1), IW.frame_bar(2)]
    assert abs(omega_eval(f, swapped) + v) < 1e-12
    rank1 = get_map("t3_rank1")
    assert omega_eval(rank1, [T3.frame(1), T3.frame(2),
                              T3.frame_bar(1), T3.frame_bar(2)]) == 0


# -- gauge invariance ------------------------------------------------------------------


def test_gauge_invariance_iwasawa():
    f = get_map("iwasawa_to_t3")
    t = MomentTuple([IW.frame(3)], [IW.frame_bar(3)])
    rep = well_definedness_check(f, t, trials=20, seed=0)
    assert rep.max_deviation < 1e-10
    assert rep.reversal_ok
    assert rep.shift_rank == 0   # every shift is zero here
    assert rep.closure_del_norm < 1e-12 and rep.closure_delbar_norm < 1e-12


def test_gauge_invariance_nontrivial_shifts():
    # heis_mixed has a genuinely nonzero invariant gauge direction
    fh = get_map("heis_mixed_to_t3")
    shift_space = HM.ce_del(HM.phi(3).scale(I).conj()) + HM.ce_delbar(HM.phi(3).scale(I))
    assert shift_space  # the shifts sampled below are not all zero
    t = MomentTuple([HM.frame(2)], [HM.frame_bar(2)])
    rep = well_definedness_check(fh, t, trials=20, seed=1)
    assert rep.max_deviation < 1e-10 and rep.shift_rank == 1

    f4 = get_map("iwasawa_to_t4")
    t4 = MomentTuple([IW.frame(1), IW.frame(3)],
                     [IW.frame_bar(1), IW.frame_bar(3)])
    rep4 = well_definedness_check(f4, t4, trials=20, seed=2)
    assert rep4.max_deviation < 1e-10 and rep4.shift_rank == 3
    assert rep4.reversal_ok


def test_gauge_deviation_for_broken_tuple():
    fh = get_map("heis_mixed_to_t3")
    broken = MomentTuple([HM.frame(1)], [HM.frame_bar(1)])
    rep = well_definedness_check(fh, broken, trials=20, seed=3)
    assert rep.max_deviation > 1e-6
    assert rep.closure_del_norm > 1e-6 or rep.closure_delbar_norm > 1e-6

    f4 = get_map("iwasawa_to_t4")
    broken4 = MomentTuple([IW.frame(1), IW.frame(2)],
                          [IW.frame_bar(1), IW.frame_bar(2)])
    rep4 = well_definedness_check(f4, broken4, trials=20, seed=3)
    assert rep4.max_deviation > 1e-6


def test_closure_consequence_for_members():
    dV = IW.volume_form()
    t = MomentTuple([IW.frame(1), IW.frame(3)],
                    [IW.frame_bar(1), IW.frame_bar(3)])
    C = iterated_contraction(t.xis, t.etabars, dV)
    assert not IW.ce_del(C) and not IW.ce_delbar(C)


# -- flow-derivative confirmation -------------------------------------------------------


def test_flow_check_nontrivial_catalog_example():
    f = get_map("nakamura_shear")
    xi = NK.frame(1, CRat(Fraction(1, 2)))
    rep = flow_derivative_check(f, xi, xi)
    assert rep.ok and not rep.trivial
    assert rep.target_norm > 0
    assert rep.observed_order >= 1.9
    assert rep.steps[-1].rel_error < 1e-4
    # error decreases with h
    errs = [s.error for s in rep.steps]
    assert errs[0] > errs[1] > errs[2]


def test_flow_check_richardson_extrapolates_to_zero():
    from oracles import richardson_limit
    f = get_map("nakamura_shear")
    xi = NK.frame(1, CRat(Fraction(1, 2)))
    rep = flow_derivative_check(f, xi, xi, steps=(0.1, 0.05))
    errs = [s.error for s in rep.steps]
    hs = [s.h for s in rep.steps]
    lim = richardson_limit(errs, hs)
    assert abs(lim) < 2e-3 * errs[0]


def test_flow_check_trivial_branches():
    f = get_map("iwasawa_to_t3")
    rep = flow_derivative_check(f, IW.frame(3), IW.frame(3))
    assert rep.trivial and all(s.error < 1e-12 for s in rep.steps)
    rank1 = get_map("t3_rank1")
    rep2 = flow_derivative_check(rank1, T3.frame(1), T3.frame(2))
    assert rep2.trivial and all(s.error < 1e-12 for s in rep2.steps)


def test_flow_check_rejects_bad_fields():
    fh = get_map("heis_mixed_to_t3")
    with pytest.raises(ValidationError):
        flow_derivative_check(fh, HM.frame(1), HM.frame(1))


# -- file formats -------------------------------------------------------------------------


def test_tuple_file_round_trip(tmp_path):
    text = ("tuple z3\nmodel iwasawa\ngamma_policy any-solution\n"
            "xi 0 0 0 0 1 0\netabar 0 0 0 0 1 0\n")
    name, t = parse_tuple(text, MODELS)
    assert name == "z3" and t.arity == 1
    assert t.gamma_policy == "any-solution"
    assert t.xis[0].comps[2] == CRat(1)


def test_tuple_file_errors_are_located():
    from balmap.invariant import ParseError
    with pytest.raises(ParseError) as e:
        parse_tuple("tuple a\nmodel iwasawa\nxi 1 2\n", MODELS, "t.txt")
    assert "t.txt:3" in str(e.value)
    with pytest.raises(ParseError):
        parse_tuple("tuple a\n", MODELS)


def test_map_file_parses_and_validates():
    text = ("map demo\nsource iwasawa\ntarget torus3\n"
            "row 1 1 0 0 0 0 0\nrow 2 0 0 1 0 0 0\nrow 3 0 0 0 0 0 0\n")
    f = parse_mapspec(text, MODELS)
    assert f.name == "demo"
    assert x_membership(f).member


def test_map_file_detects_incompatibility():
    from balmap.invariant import ParseError
    text = ("map bad\nsource iwasawa\ntarget torus3\n"
            "row 1 1 0 0 0 0 0\nrow 2 0 0 1 0 0 0\nrow 3 0 0 0 0 1 0\n")
    with pytest.raises(ParseError):
        parse_mapspec(text, MODELS)


def test_pullback_is_algebra_homomorphism():
    rng = random.Random(11)
    f = get_map("iwasawa_to_t3")
    for _ in range(10):
        def rnd(p, q):
            keys = T3.basis_keys(p, q)
            k = keys[rng.randrange(len(keys))]
            return T3.form_basis(p, q, k, CRat(rng.randint(-2, 2),
                                               rng.randint(-2, 2)))
        u = rnd(rng.randint(0, 2), rng.randint(0, 2))
        v = rnd(rng.randint(0, 1), rng.randint(0, 1))
        assert f.pullback(wedge(u, v)) \
            == wedge(f.pullback(u), f.pullback(v))
