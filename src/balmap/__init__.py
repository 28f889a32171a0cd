"""Bigraded exterior calculus, invariant cohomology and moment-map checks.

Layers, bottom up:

* exact   -- Gaussian-rational scalars and exact linear algebra
* forms   -- the bigraded form algebra both backends share: forms, (1,0)/(0,1)
             fields, wedge, contraction, evaluation, conjugation, brackets and
             the Lie derivatives
* symalg  -- polynomial chart backend (coefficients, split derivatives by
             partials, the exact identity suite)
* invariant -- structure-constant models and their finite complexes
* hodge   -- exact operator rows built once per model, then densified; the
             six-term Laplacian, Green operator, minimal potentials, exact
             cohomology ranks
* moment  -- balanced targets, map and tuple membership, the pairing and
             its invariances, the flow-derivative confirmation
* masolver -- spectral Newton solver for volume normalization on flat tori
* cli     -- the command-line surface with deterministic reports

``import balmap`` loads the exact layers (exact, forms, invariant, catalog).
The names of symalg, hodge, moment and masolver load their module on first
access (``LAZY_NAMES``), so a command pays only for the layers it runs.
"""

__version__ = "0.1.0"

import importlib

from .exact import CRat
from .forms import (Form, Field, MixedField, contract, evaluate, lie01, lie10,
                    lie_bracket, lie_std, wedge)
from .invariant import (InvForm, InvVectorField, LieModel, flow_pullback,
                        integrate, load_model, parse_model)
from .catalog import CATALOG_MAPS, MODELS, get_map, get_model

# these layers load on first use: symalg is the chart calculus that only the
# identity suite and moment's chart trials run, hodge and moment import numpy,
# and the spectral solver numpy (scipy.fft once a grid reaches
# masolver.SCIPY_FFT_POINTS points)
LAZY_NAMES = {
    "symalg": ("ChartForm", "ChartVectorField", "Poly", "identity_suite",
               "mixed_second_derivative_check"),
    "hodge": ("ClassObstructionError", "HermitianMetricSpec", "MetricContext",
              "aeppli_dim", "bc_dim", "green_apply", "neumann_gamma"),
    "moment": ("BalancedTarget", "MapSpec", "MomentTuple",
               "flow_derivative_check", "lie_g_membership", "mu_eval",
               "omega_eval", "pg_membership", "well_definedness_check",
               "x_membership"),
    "masolver": ("MAResult", "ScalarField", "TorusGrid", "positivity_check",
                 "residual", "solve_ma"),
}


def __getattr__(name):
    for module, names in LAZY_NAMES.items():
        if name in names:
            return getattr(importlib.import_module("." + module, __name__),
                           name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
