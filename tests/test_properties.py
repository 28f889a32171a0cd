"""Cross-layer cohomology laws on generated nilpotent and solvable models.

The generator draws d(phi^k) as random (2,0) and (1,1) combinations of
lower-index coframe letters, so every accepted model is nilpotent; drafts
that LieModel rejects (d^2 != 0) and tori are redrawn.  On each accepted model,
and on the unimodular seeded solvable models of dimension 3 and 4, the
exact Bott-Chern and Aeppli dimensions must satisfy

* duality: h_BC^{p,q} = h_A^{n-p,n-q};
* conjugation symmetry: h_BC^{p,q} = h_BC^{q,p};
* the kernel of the float Bott-Chern Laplacian, under a random Hermitian
  metric, has the exact dimension h_BC^{p,q}.

On these models and the catalog ones, del and delbar of every basis word
must also be the two bidegree parts of the letter-by-letter Leibniz oracle,
and the unimodularity guard of LieModel must pass exactly where d vanishes
on (2n-1)-forms; seeded solvable drafts, unimodular or not, and two whose
(1,0) and (0,1) traces cancel or add check the guard where it can fail.
"""

import random

import numpy as np
import pytest

from balmap.catalog import MODELS
from balmap.exact import CRat
from balmap.hodge import (HermitianMetricSpec, MetricContext, aeppli_dim,
                          bc_dim, delta_bc_ortho, operator_rows)
from balmap.invariant import HH, MIX, DiffTerm, LieModel, ModelError
from oracles import leibniz_d_oracle


def random_nilpotent_model(rng: random.Random, dim: int) -> LieModel:
    while True:
        diff = {}
        for k in range(2, dim + 1):
            terms = []
            for i in range(1, k):
                for j in range(1, k):
                    if i < j and rng.random() < 0.3:
                        terms.append(DiffTerm(HH, i, j, CRat(rng.choice((-2, -1, 1, 2)))))
                    if rng.random() < 0.15:
                        terms.append(DiffTerm(MIX, i, j, CRat(rng.randint(-1, 1),
                                                              rng.randint(-1, 1))))
            diff[k] = terms
        try:
            model = LieModel("generated%d" % dim, dim, diff)
        except ModelError:
            continue
        if model.diff:
            return model


def dim_of(seed: int) -> int:
    """Seeds 0-2 draw dim-3 models, 3-5 dim 4 and 6-9 dim 5."""
    return 3 if seed < 3 else 4 if seed < 6 else 5


# the unimodular solvable_diff models, as "solvable<seed>-<dim>"
SOLVABLE = ["solvable%d-%d" % (s, d) for d in (3, 4) for s in range(4)]


def drawn_model(case):
    """The nilpotent model drawn from an int seed, or a SOLVABLE model, and
    the generator that draws the rest of the case's data."""
    if isinstance(case, int):
        rng = random.Random(case)
        return rng, random_nilpotent_model(rng, dim_of(case))
    seed, dim = map(int, case[8:].split("-"))
    return random.Random(seed), LieModel(case, dim, solvable_diff(seed, dim))


@pytest.mark.parametrize("case", list(range(10)) + SOLVABLE)
def test_duality_and_conjugation_symmetry_on_generated_models(case):
    _, model = drawn_model(case)
    n = model.dim
    bc = {(p, q): bc_dim(model, p, q) for p in range(n + 1) for q in range(n + 1)}
    ae = {(p, q): aeppli_dim(model, p, q) for p in range(n + 1) for q in range(n + 1)}
    for (p, q), h in bc.items():
        assert h == ae[(n - p, n - q)], ("duality", model.diff, p, q)
        assert h == bc[(q, p)], ("conjugation symmetry", model.diff, p, q)


@pytest.mark.parametrize("case", list(range(10)) + SOLVABLE)
def test_harmonic_kernel_has_the_exact_dimension_on_generated_models(case):
    rng, model = drawn_model(case)
    n = model.dim
    B = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
                  for _ in range(n)])
    ctx = MetricContext(HermitianMetricSpec(model, B @ B.conj().T + np.eye(n)))
    for p, q in np.ndindex(n + 1, n + 1):
        w = np.linalg.eigvalsh(delta_bc_ortho(ctx, p, q))
        kdim = int((w <= 1e-9 * max(w.max(), 1.0)).sum())
        assert kdim == bc_dim(model, p, q), (model.diff, p, q)


@pytest.mark.parametrize("name", sorted(MODELS) + ["seed%d" % s for s in range(10)])
def test_del_and_delbar_match_the_leibniz_oracle(name):
    if name in MODELS:
        model = MODELS[name]
    else:
        seed = int(name[4:])
        model = random_nilpotent_model(random.Random(seed), dim_of(seed))
    n = model.dim
    for p, q in np.ndindex(n + 1, n + 1):
        for key in model.basis_keys(p, q):
            u = model.form_basis(p, q, key)
            want = leibniz_d_oracle(model.diff, key)
            parts = {(p + 1, q): {}, (p, q + 1): {}}
            for k2, c in want.items():
                parts[(len(k2[0]), len(k2[1]))][k2] = c
            assert model.ce_del(u).coeffs == parts[(p + 1, q)], (name, key)
            assert model.ce_delbar(u).coeffs == parts[(p, q + 1)], (name, key)


def solvable_diff(seed: int, dim: int = 3) -> dict:
    """d(phi^1) = 0 and d(phi^k) = sum_j a_kj phi^1 ^ phi^j (even seeds) or
    sum_j a_kj phi^j ^ phibar^1 (odd seeds), j, k >= 2: d^2 = 0 for every A,
    and tr A, the trace of ad on the first frame field up to sign and
    conjugation, is 0 for seeds below 4 and 1 from seed 4 on."""
    rng = random.Random(seed)
    idx = range(2, dim + 1)
    A = {(k, j): CRat(rng.randint(-2, 2), rng.randint(-2, 2))
         for k in idx for j in idx}
    A[(dim, dim)] += CRat(int(seed >= 4)) - sum((A[(k, k)] for k in idx),
                                                 CRat(0))
    return {k: [DiffTerm(HH, 1, j, A[(k, j)]) if seed % 2 == 0
                else DiffTerm(MIX, j, 1, A[(k, j)]) for j in idx] for k in idx}


@pytest.mark.parametrize("name", sorted(MODELS)
                         + ["seed%d" % s for s in range(10)]
                         + ["solvable%d" % s for s in range(8)]
                         + ["mixed+1", "mixed-1"])
def test_unimodularity_guard_agrees_with_d_on_top_minus_one_forms(
        name, monkeypatch):
    if name in MODELS:
        dim, diff = MODELS[name].dim, MODELS[name].diff
    elif name.startswith("seed"):
        seed = int(name[4:])
        dim = dim_of(seed)
        diff = random_nilpotent_model(random.Random(seed), dim).diff
    elif name.startswith("solvable"):
        dim, diff = 3, solvable_diff(int(name[8:]))
    else:
        # d(phi^2) = phi^1 ^ phi^2 and d(phi^3) = c phi^3 ^ phibar^1: the
        # (1,0) and (0,1) parts of the trace cancel in tr ad for c = 1 only
        dim, diff = 3, {2: [DiffTerm(HH, 1, 2, CRat(1))],
                        3: [DiffTerm(MIX, 3, 1, CRat(int(name[5:])))]}
    try:
        LieModel(name, dim, diff)
        guard = True
    except ModelError as e:
        assert "not unimodular" in str(e) and name in str(e)
        guard = False
    if name.startswith("solvable"):
        assert guard == (int(name[8:]) < 4)
    if name.startswith("mixed"):
        assert guard == (name == "mixed+1")
    monkeypatch.setattr(LieModel, "_check_unimodular", lambda self, dbar: None)
    model = LieModel(name, dim, diff)
    n = model.dim
    rows = (operator_rows(model, "del", n - 1, n)
            + operator_rows(model, "delbar", n, n - 1))
    assert guard == (not any(rows)), name
