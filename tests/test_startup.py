"""Start-up cost and call-site stability.

Each command imports only the layers it runs: ``import balmap.cli``,
``catalog`` and ``verify-identities`` load no numpy, the commands that never
solve on a grid (``theorem`` included) load no scipy, ``ma`` loads no scipy
below ``masolver.SCIPY_FFT_POINTS`` grid points and only ``scipy.fft`` from
there on, and only ``verify-identities`` loads the chart calculus
(``balmap.symalg``).  The names of the lazy layers stay reachable from
``balmap`` and ``balmap.cli`` and load on first access.  A flow-derivative
check builds each Gram once, and a wrapper installed on
``balmap.masolver.solve_ma`` still sees the ``ma`` command's solve.
"""

import importlib
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from balmap import cli, hodge, masolver, moment
from balmap.catalog import get_map
from balmap.exact import CRat
from balmap.forms import contract
from balmap.hodge import HermitianMetricSpec, neumann_gamma
from balmap.invariant import HOLO, InvForm, InvVectorField, flow_pullback

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
TUPLE_Z3 = ("tuple z3\nmodel iwasawa\ngamma_policy neumann\n"
            "xi 0 0 0 0 1 0\netabar 0 0 0 0 1 0\n")


def _fresh_python(args, **kw):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable] + args, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), **kw)


def test_commands_without_a_grid_never_import_scipy(tmp_path):
    tf = tmp_path / "z3.tuple"
    tf.write_text(TUPLE_Z3)
    script = textwrap.dedent("""
        import sys
        import balmap.cli
        for argv in (["catalog"],
                     ["cohomology", "--model", "iwasawa", "--p", "1",
                      "--q", "1", "--kind", "bottchern"],
                     ["moment", "--map", "iwasawa_to_t3", "--tuple", %r],
                     ["theorem", "--map", "nakamura_shear", "--xi", "1/2,0,0",
                      "--eta", "1/2,0,0"]):
            assert balmap.cli.main(argv + ["--output", "report.txt"]) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        import balmap
        assert balmap.solve_ma is balmap.masolver.solve_ma
        for name in ("solve_ma", "flow_derivative_check",
                     "well_definedness_check"):
            assert callable(getattr(balmap.cli, name)), name
        for module in (balmap, balmap.cli):
            try:
                module.no_such_name
            except AttributeError:
                pass
            else:
                raise SystemExit("no AttributeError from %%s" %% module)
    """ % str(tf))
    proc = _fresh_python(["-c", script], cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_exact_commands_never_import_numpy(tmp_path):
    script = textwrap.dedent("""
        import sys
        import balmap.cli
        assert "numpy" not in sys.modules
        for argv in (["catalog"], ["verify-identities", "--trials", "3"]):
            assert balmap.cli.main(argv + ["--output", "report.txt"]) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
    """)
    proc = _fresh_python(["-c", script], cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_lazy_package_names_are_the_module_attributes():
    import balmap
    served = [(module, name) for module, names in balmap.LAZY_NAMES.items()
              for name in names]
    assert served
    for module, name in served:
        owner = importlib.import_module("balmap." + module)
        assert getattr(balmap, name) is getattr(owner, name), name
    # the command-line module serves these through the package
    for name in ("flow_derivative_check", "well_definedness_check",
                 "solve_ma", "identity_suite"):
        assert getattr(cli, name) is getattr(balmap, name), name


def test_ma_imports_no_scipy_sparse(tmp_path):
    # the solver's GMRES is its own, and numpy.fft serves grids below 2^16
    # points: a 2^12-point solve loads no scipy, a 2^16-point one scipy.fft.
    # The Krylov modes leave a grid translation, so their 2^16-point forcing
    # is solved and its spectral tail taken on a 2^12-point section; a
    # fourth mode spans all four axes
    krylov = "1 0 1 0 2.0\n0 1 0 1 1.0\n1 1 0 0 0.6667\n"
    (tmp_path / "krylov.modes").write_text(krylov)
    (tmp_path / "full.modes").write_text(krylov + "0 0 0 1 0.1\n")
    (tmp_path / "mild.modes").write_text(
        "1 0 1 0 0.1\n0 1 0 1 0.05\n1 1 0 0 0.03\n0 0 0 1 0.02\n")
    script = textwrap.dedent("""
        import sys
        import balmap.masolver
        import balmap.cli
        for res, modes in zip(sys.argv[1::2], sys.argv[2::2]):
            assert balmap.cli.main(["ma", "--dim", "2", "--res", res,
                                    "--modes", modes,
                                    "--output", "report.txt"]) == 0
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    proc = _fresh_python(["-c", script, "8", "mild.modes", "16", "krylov.modes",
                          "16", "full.modes"], cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    small, section, large = proc.stdout.splitlines()
    assert small == "[]" and section == "[]"
    assert "'scipy.fft'" in large and "scipy.sparse" not in large


def test_ma_solve_shapes_run_without_scipy_fft(tmp_path):
    # the three forcings of the benchmark's ma-solve workload: each leaves
    # a grid translation, and each section has fewer than 2^16 points
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from balmap.masolver import ScalarField, TorusGrid, solve_ma
        for d, res, modes in (
                (2, 16, [((1, 0, 1, 0), 2.0), ((0, 1, 0, 1), 1.0),
                         ((1, 1, 0, 0), 2 / 3)]),
                (2, 32, [((1, 0, 0, 0), 0.1)]),
                (3, 8, [((1, 0, 1, 0, 0, 0), 0.1), ((0, 0, 0, 0, 1, 0), 0.05)])):
            F = ScalarField.from_modes(TorusGrid(d, res), modes)
            diag = solve_ma(F, np.eye(d), tol=1e-9).diagnostics
            assert diag.converged, diag
            print(diag.solve_shape)
        print("scipy.fft" in sys.modules)
    """)
    proc = _fresh_python(["-c", script], cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "(1, 16, 16, 16)", "(32, 1, 1, 1)", "(1, 1, 8, 1, 8, 1)", "False"]


def test_only_the_identity_suite_loads_the_chart_calculus(tmp_path):
    tf = tmp_path / "z3.tuple"
    tf.write_text(TUPLE_Z3)
    script = textwrap.dedent("""
        import sys
        import balmap.cli
        for argv in (["catalog"],
                     ["cohomology", "--model", "iwasawa", "--p", "1",
                      "--q", "1", "--kind", "bottchern"]):
            assert balmap.cli.main(argv + ["--output", "report.txt"]) == 0
        print("balmap.moment" in sys.modules, "balmap.symalg" in sys.modules)
        for argv in (["moment", "--map", "iwasawa_to_t3", "--tuple", %r],
                     ["theorem", "--map", "nakamura_shear", "--xi", "1/2,0,0",
                      "--eta", "1/2,0,0"],
                     ["ma", "--dim", "1", "--res", "8"]):
            assert balmap.cli.main(argv + ["--output", "report.txt"]) == 0
        print("balmap.symalg" in sys.modules)
        assert balmap.cli.main(["verify-identities", "--trials", "2",
                                "--output", "report.txt"]) == 0
        print("balmap.symalg" in sys.modules)
        import balmap
        assert balmap.cli.identity_suite is balmap.symalg.identity_suite
        assert balmap.Poly is balmap.symalg.Poly
    """ % str(tf))
    proc = _fresh_python(["-c", script], cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False False", "False", "True"]


def test_out_of_range_bidegree_is_rejected_before_the_float_layers(tmp_path):
    script = textwrap.dedent("""
        import sys
        import balmap.cli
        code = balmap.cli.main(["cohomology", "--model", "iwasawa", "--p", "4",
                                "--q", "1", "--kind", "aeppli"])
        print(code, sorted(m for m in ("balmap.hodge", "balmap.moment", "numpy")
                           if m in sys.modules))
    """)
    proc = _fresh_python(["-c", script], cwd=str(tmp_path))
    assert proc.stdout.strip() == "2 []"
    assert proc.stderr == ("input error: --p 4 is outside 0..3 for model "
                           "iwasawa\n")


def test_ma_runs_as_main_module():
    # under ``python -m`` the CLI module is ``__main__``, not ``balmap.cli``
    proc = _fresh_python(["-m", "balmap.cli", "ma", "--dim", "1", "--res", "8"])
    assert proc.returncode == 0, proc.stderr
    assert "[PASS] solve" in proc.stdout


def test_ma_solves_through_the_masolver_attribute(monkeypatch, capsys):
    calls = []
    real = masolver.solve_ma

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(masolver, "solve_ma", spy)
    assert cli.main(["ma", "--dim", "1", "--res", "8"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def _uncached_errors(f, xi, eta, steps):
    """The stencil errors with a fresh metric context and fresh Lie-derivative
    matrices at every corner."""
    model = f.source
    Pf = InvForm(model, {k: complex(c) for k, c in f.pulled_power().coeffs.items()})
    etabar = eta.conj()
    A = contract(etabar, contract(xi, Pf))
    errors = []
    for h in steps:
        fd = model.zero()
        for es in (+1, -1):
            for et in (+1, -1):
                G = flow_pullback(etabar, et * h, flow_pullback(xi, es * h, Pf))
                gamma = neumann_gamma(G, HermitianMetricSpec.flat(model))
                fd = fd + gamma.scale(es * et / (4.0 * h * h))
        errors.append(max(abs(complex(c))
                          for c in (fd.scale(1j) - A).coeffs.values()))
    return errors


def test_flow_check_builds_each_gram_once(monkeypatch):
    f = get_map("nakamura_shear")
    xi = InvVectorField(f.source, HOLO,
                        [CRat(Fraction(1, 2)), CRat(0), CRat(0)])
    built = []
    real = hodge._minor_gram

    def spy(g, keys, vol):
        built.append(tuple(map(len, keys[0])) if keys else None)
        return real(g, keys, vol)

    monkeypatch.setattr(hodge, "_minor_gram", spy)
    rep = moment.flow_derivative_check(f, xi, xi)
    assert built and len(built) == len(set(built))
    monkeypatch.undo()
    steps = [s.h for s in rep.steps]
    errors = _uncached_errors(f, xi, xi, steps)
    assert [s.error for s in rep.steps] == pytest.approx(errors, rel=1e-12)
    assert rep.orders == pytest.approx(
        [math.log(a / b) / math.log(ha / hb)
         for a, b, ha, hb in zip(errors, errors[1:], steps, steps[1:])],
        rel=1e-9)
