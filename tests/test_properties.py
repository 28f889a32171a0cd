"""Cross-layer cohomology laws on generated nilpotent models.

The generator draws d(phi^k) as random (2,0) and (1,1) combinations of
lower-index coframe letters, so every accepted model is nilpotent; drafts
that LieModel rejects (d^2 != 0) and tori are redrawn.  On each accepted model the
exact Bott-Chern and Aeppli dimensions must satisfy

* duality: h_BC^{p,q} = h_A^{n-p,n-q};
* conjugation symmetry: h_BC^{p,q} = h_BC^{q,p};
* the kernel of the float Bott-Chern Laplacian, under a random Hermitian
  metric, has the exact dimension h_BC^{p,q}.

On these models and the catalog ones, del and delbar of every basis word
must also be the two bidegree parts of the letter-by-letter Leibniz oracle.
"""

import random

import numpy as np
import pytest

from balmap.catalog import MODELS
from balmap.exact import CRat
from balmap.hodge import (HermitianMetricSpec, MetricContext, aeppli_dim,
                          bc_dim, delta_bc_ortho)
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


@pytest.mark.parametrize("seed", range(10))
def test_duality_and_conjugation_symmetry_on_generated_models(seed):
    rng = random.Random(seed)
    model = random_nilpotent_model(rng, dim_of(seed))
    n = model.dim
    bc = {(p, q): bc_dim(model, p, q) for p in range(n + 1) for q in range(n + 1)}
    ae = {(p, q): aeppli_dim(model, p, q) for p in range(n + 1) for q in range(n + 1)}
    for (p, q), h in bc.items():
        assert h == ae[(n - p, n - q)], ("duality", model.diff, p, q)
        assert h == bc[(q, p)], ("conjugation symmetry", model.diff, p, q)


@pytest.mark.parametrize("seed", range(10))
def test_harmonic_kernel_has_the_exact_dimension_on_generated_models(seed):
    rng = random.Random(seed)
    model = random_nilpotent_model(rng, dim_of(seed))
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
