"""Shipped models, maps and field tuples.

The model list covers the qualitatively distinct situations the test suites
need: tori (everything closed), the Iwasawa manifold (complex parallelizable
nilpotent, the standard balanced non-Kahler example), a Heisenberg-type
nilmanifold with a mixed structure constant (nonzero invariant gauge
directions, non-holomorphic frame fields), and a complex parallelizable
solvable model on which holomorphic flows genuinely move pullback forms so
the mixed-flow derivative check is exercised away from zero.
"""

from __future__ import annotations

from typing import Dict

from .exact import CRat, ONE, I
from .invariant import HH, MIX, DiffTerm, LieModel


def build_models() -> Dict[str, LieModel]:
    models = {}
    for d in (1, 2, 3, 4):
        t = LieModel.torus(d)
        models[t.name] = t
    # d(phi3) = -phi1 ^ phi2
    models["iwasawa"] = LieModel("iwasawa", 3, {
        3: [DiffTerm(HH, 1, 2, CRat(-1))]})
    # d(phi3) = -phi1 ^ phi2 + phi1 ^ phibar1
    models["heis_mixed"] = LieModel("heis_mixed", 3, {
        3: [DiffTerm(HH, 1, 2, CRat(-1)), DiffTerm(MIX, 1, 1, ONE)]})
    # complex parallelizable solvable: d(phi2) = -phi1^phi2, d(phi3) = phi1^phi3
    models["nakamura"] = LieModel("nakamura", 3, {
        2: [DiffTerm(HH, 1, 2, CRat(-1))],
        3: [DiffTerm(HH, 1, 3, ONE)]})
    return models


MODELS = build_models()


def get_model(name: str) -> LieModel:
    try:
        return MODELS[name]
    except KeyError:
        raise KeyError("unknown catalog model %r (have: %s)"
                       % (name, ", ".join(sorted(MODELS)))) from None


def standard_metric_form(model: LieModel):
    """omega = i * sum_k phi_k ^ phibar_k, the flat diagonal (1,1)-form."""
    from .invariant import InvForm
    coeffs = {((k,), (k,)): I for k in range(1, model.dim + 1)}
    return InvForm(model, coeffs)


# -- shipped maps ---------------------------------------------------------------
#
# Each entry: source model, target model, coframe matrix rows (target index k
# gives f* psi_k = sum_j M[k][j] phi_j on the source).

CATALOG_MAPS: Dict[str, dict] = {
    "iwasawa_to_t3": {
        "source": "iwasawa", "target": "torus3",
        "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
        "comment": "rank-2 projection onto the abelianized directions",
    },
    "heis_mixed_to_t3": {
        "source": "heis_mixed", "target": "torus3",
        "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
        "comment": "rank-2 projection; source has a nonzero gauge direction",
    },
    "iwasawa_to_t4": {
        "source": "iwasawa", "target": "torus4",
        "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0]],
        "comment": "rank-2 map into a 4-torus (pairs of fields in each slot)",
    },
    "t3_rank1": {
        "source": "torus3", "target": "torus3",
        "matrix": [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        "comment": "degenerate rank-1 self-map, pullback power vanishes",
    },
    "t2_immersion_t3": {
        "source": "torus2", "target": "torus3",
        "matrix": [[1, 0], [0, 1], [0, 0]],
        "comment": "non-degenerate map with source dimension = target - 1",
    },
    "nakamura_shear": {
        "source": "nakamura", "target": "nakamura",
        "matrix": [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
        "comment": "self-map whose pullback is moved by the holomorphic flow",
    },
}


def get_map(name: str):
    from .moment import BalancedTarget, MapSpec
    try:
        entry = CATALOG_MAPS[name]
    except KeyError:
        raise KeyError("unknown catalog map %r (have: %s)"
                       % (name, ", ".join(sorted(CATALOG_MAPS)))) from None
    source = get_model(entry["source"])
    target_model = get_model(entry["target"])
    target = BalancedTarget(target_model, standard_metric_form(target_model))
    matrix = [[CRat(x) for x in row] for row in entry["matrix"]]
    return MapSpec(name, source, target, matrix)
