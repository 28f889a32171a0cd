"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line; run with `pytest -s tests/test_acceptance.py`
(or plain pytest; the lines then show only on failure).  Tolerances are pinned
here, not configurable.
"""

import json
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from balmap.catalog import MODELS, get_map
from balmap.exact import CRat
from balmap.hodge import (ClassObstructionError, HermitianMetricSpec,
                          MetricContext, aeppli_dim, bc_dim, neumann_gamma)
from balmap.forms import wedge
from balmap.masolver import ScalarField, TorusGrid, solve_ma
from balmap.moment import (MomentTuple, chart_contraction_derivative_trials,
                           chart_reversal_trials, flow_derivative_check,
                           invariant_contraction_derivative_check, mu_eval,
                           well_definedness_check, x_membership)
from balmap.symalg import identity_suite
from oracles import linear_oracle_d1, minimality_residual, wedge_gram_oracle

IW = MODELS["iwasawa"]
T3 = MODELS["torus3"]
NK = MODELS["nakamura"]
HM = MODELS["heis_mixed"]

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "cohomology_golden.json"


def _report(name, ok, detail=""):
    line = "ACCEPTANCE %-38s %s %s" % (name, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def test_criterion_1_identity_suite():
    """Lie-derivative laws, intrinsic formula, mixed second derivative:
    exact over >= 50 random instances per identity, within 60 s."""
    t0 = time.time()
    rep = identity_suite(seed=0, trials=50)
    elapsed = time.time() - t0
    bad = [r.name for r in rep.records if not r.ok]
    per_identity = min(r.trials for r in rep.records)
    ok = not bad and per_identity >= 50 and elapsed <= 60.0
    _report("1-identity-suite", ok,
            "(%d identities, %d trials each, %.1fs)" % (len(rep.records),
                                                        per_identity, elapsed))


def test_criterion_2_contraction_derivative_formulas():
    """Closed double-sum formulas: exact on the chart at n = 3, 4 and exact
    (rational data) on the invariant backend for torus and iwasawa."""
    ok = True
    for (n, dim, seed) in [(3, 2, 2), (3, 3, 3), (4, 3, 4), (4, 4, 5)]:
        ok &= chart_contraction_derivative_trials(n, dim, seed=seed, trials=5)
    ok &= invariant_contraction_derivative_check(
        T3, [T3.frame(1)], [T3.frame_bar(2)])
    ok &= invariant_contraction_derivative_check(
        IW, [IW.frame(1)], [IW.frame_bar(2)])
    ok &= invariant_contraction_derivative_check(
        IW, [IW.frame(1), IW.frame(2)], [IW.frame_bar(1), IW.frame_bar(3)])
    _report("2-derivative-of-contraction", ok)


def test_criterion_3_reversal_sign_identities():
    """Both (-1)^(n-2) reversal formulas, exact, n = 3 and 4, random data."""
    ok = True
    for (n, dim, seed) in [(3, 2, 6), (3, 3, 7), (4, 3, 8), (4, 4, 9)]:
        ok &= chart_reversal_trials(n, dim, seed=seed, trials=5)
    _report("3-reversal-signs", ok)


def test_criterion_4_well_definedness():
    """Pairing invariant under 20 random potential shifts to 1e-10 on the
    catalog examples; a tuple with nonzero admissibility residual deviates
    above 1e-6 (realized where the invariant gauge space is nonzero)."""
    f = get_map("iwasawa_to_t3")
    t = MomentTuple([IW.frame(3)], [IW.frame_bar(3)])
    r1 = well_definedness_check(f, t, trials=20, seed=0)
    ok = r1.max_deviation <= 1e-10 and r1.reversal_ok

    fh = get_map("heis_mixed_to_t3")
    tg = MomentTuple([HM.frame(2)], [HM.frame_bar(2)])
    r2 = well_definedness_check(fh, tg, trials=20, seed=1)
    ok &= r2.max_deviation <= 1e-10

    f4 = get_map("iwasawa_to_t4")
    t4 = MomentTuple([IW.frame(1), IW.frame(3)],
                     [IW.frame_bar(1), IW.frame_bar(3)])
    r3 = well_definedness_check(f4, t4, trials=20, seed=2)
    ok &= r3.max_deviation <= 1e-10

    broken = MomentTuple([HM.frame(1)], [HM.frame_bar(1)])
    rb = well_definedness_check(fh, broken, trials=20, seed=3)
    ok &= rb.max_deviation > 1e-6
    broken4 = MomentTuple([IW.frame(1), IW.frame(2)],
                          [IW.frame_bar(1), IW.frame_bar(2)])
    rb4 = well_definedness_check(f4, broken4, trials=20, seed=3)
    ok &= rb4.max_deviation > 1e-6
    _report("4-well-definedness", ok,
            "(good <= %.1e, broken >= %.1e)" % (
                max(r1.max_deviation, r2.max_deviation, r3.max_deviation),
                min(rb.max_deviation, rb4.max_deviation)))


def test_criterion_5_minimal_potential_formula():
    """i ddbar of the minimal potential reproduces the pullback to 1e-10
    relative; the potential lies in the image of the adjoint to 1e-10; the
    torus case raises the class obstruction."""
    f = get_map("iwasawa_to_t3")
    m = HermitianMetricSpec.flat(IW)
    P = f.pulled_power()
    from balmap.invariant import InvForm
    Pf = InvForm(IW, {k: complex(c) for k, c in P.coeffs.items()})
    gam = neumann_gamma(Pf, m)
    back = IW.ce_del(IW.ce_delbar(gam)).scale(1j)
    rel = (back - Pf).norm() / Pf.norm()
    gram = [wedge_gram_oracle(m.gram.tolist(), IW.basis_keys(p, p),
                              float(IW.volume_scale)) for p in (1, 2)]
    minres = minimality_residual(gam.to_vector(1, 1),
                                 MetricContext(m).op("ddbar", 1, 1), *gram)
    ok = rel <= 1e-10 and minres <= 1e-10
    obstructed = False
    try:
        neumann_gamma(wedge(wedge(T3.phi(1), T3.phi(2)),
                            wedge(T3.phibar(1), T3.phibar(2))),
                      HermitianMetricSpec.flat(T3))
    except ClassObstructionError:
        obstructed = True
    ok &= obstructed
    _report("5-minimal-potential", ok,
            "(reproduction %.1e, minimality %.1e)" % (rel, minres))


def test_criterion_6_cohomology_dimensions():
    """Torus counts closed form; all catalog dimensions match the frozen
    goldens of the independent elimination oracle, integers, zero tolerance."""
    ok = (aeppli_dim(T3, 1, 1) == 9 and aeppli_dim(T3, 2, 2) == 9
          and bc_dim(T3, 1, 1) == 9 and bc_dim(T3, 2, 2) == 9)
    golden = json.loads(FIXTURE.read_text())
    for name, table in golden["models"].items():
        model = MODELS[name]
        for key, dims in table.items():
            p, q = (int(x) for x in key.split(","))
            ok &= bc_dim(model, p, q) == dims["bottchern"]
            ok &= aeppli_dim(model, p, q) == dims["aeppli"]
    _report("6-cohomology-goldens", ok)


def test_criterion_7_flow_derivative_convergence():
    """Mixed finite difference of the potential family converges to the
    contraction with observed order >= 1.9 over h in {1e-1, 5e-2, 2.5e-2};
    relative error at the finest step below 1e-4, on a catalog example whose
    flow acts nontrivially."""
    f = get_map("nakamura_shear")
    xi = NK.frame(1, CRat(Fraction(1, 2)))
    rep = flow_derivative_check(f, xi, xi, steps=(1e-1, 5e-2, 2.5e-2))
    ok = (rep.ok and not rep.trivial and rep.target_norm > 0
          and rep.observed_order >= 1.9 and rep.steps[-1].rel_error < 1e-4)
    _report("7-flow-derivative", ok,
            "(orders %s, final rel %.2e)" % (["%.3f" % o for o in rep.orders],
                                             rep.steps[-1].rel_error))


def test_criterion_8_volume_normalization_solver():
    """Flat input returns the zero potential with constant one; complex
    dimension one matches the linear oracle to 1e-10; dimension two at
    res = 64 meets residual 1e-9, positivity, conservation 1e-9 and
    initialization independence 1e-8 within five minutes total."""
    t0 = time.time()
    g0 = TorusGrid(1, 16)
    r0 = solve_ma(ScalarField.zeros(g0), [[1.0]])
    ok = np.abs(r0.phi.values).max() == 0.0 and r0.C == 1.0

    g1 = TorusGrid(1, 64)
    F1 = ScalarField.from_modes(g1, [((1, 0), 0.3), ((0, 2), 0.1)])
    r1 = solve_ma(F1, [[1.0]], tol=1e-12)
    o1, C1 = linear_oracle_d1(F1.values, [[1.0]])
    d1_gap = float(np.abs(r1.phi.values - o1).max())
    ok &= d1_gap <= 1e-10

    g2 = TorusGrid(2, 64)
    F2 = ScalarField.from_modes(g2, [((1, 0, 0, 0), 0.1)])
    r2 = solve_ma(F2, np.eye(2), tol=1e-9)
    d = r2.diagnostics
    ok &= d.converged and d.residual_history[-1] <= 1e-9
    ok &= d.min_eigenvalue > 0
    ok &= d.conservation_gap <= 1e-9
    seed = ScalarField.from_modes(g2, [((0, 1, 0, 0), 0.05)])
    r2b = solve_ma(F2, np.eye(2), tol=1e-9, phi0=seed)
    init_gap = float(np.abs(r2.phi.values - r2b.phi.values).max())
    ok &= init_gap <= 1e-8
    elapsed = time.time() - t0
    ok &= elapsed <= 300.0
    _report("8-volume-normalization", ok,
            "(d1 oracle %.1e, init gap %.1e, %.0fs)" % (d1_gap, init_gap,
                                                        elapsed))


def test_criterion_9_boundary_dimension_impossibility():
    """A non-degenerate map from a source of dimension one less than the
    target is rejected with the Stokes-based diagnosis."""
    rep = x_membership(get_map("t2_immersion_t3"))
    ok = (not rep.member) and rep.impossibility is not None \
        and "Stokes" in rep.impossibility
    _report("9-boundary-impossibility", ok)


def test_criterion_10_deterministic_reports(tmp_path):
    """Identical seeded CLI runs emit byte-identical structured reports."""
    tf = tmp_path / "t.tuple"
    tf.write_text("tuple z3\nmodel iwasawa\ngamma_policy neumann\n"
                  "xi 0 0 0 0 1 0\netabar 0 0 0 0 1 0\n")
    blobs = []
    for rep in (1, 2):
        outs = []
        for cmd in (
            ["verify-identities", "--seed", "3", "--trials", "6"],
            ["moment", "--map", "iwasawa_to_t3", "--tuple", str(tf),
             "--seed", "3"],
            ["cohomology", "--model", "iwasawa", "--p", "1", "--q", "1",
             "--kind", "aeppli"],
            ["theorem", "--map", "nakamura_shear", "--xi", "1/2,0,0",
             "--eta", "1/2,0,0"],
            ["ma", "--dim", "1", "--res", "16", "--tol", "1e-10"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "balmap.cli"] + cmd
                + ["--format", "structured"],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        blobs.append("\n====\n".join(outs))
    ok = blobs[0] == blobs[1]
    _report("10-determinism", ok)
