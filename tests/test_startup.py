"""Start-up cost and call-site stability.

Each command imports only the layers it runs: ``import balmap.cli``,
``catalog`` and ``verify-identities`` load no numpy, the commands that never
solve on a grid (``theorem`` included) load no scipy, and ``ma`` imports no
``scipy.sparse`` module.  The names of the float layers stay reachable from
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


def test_ma_imports_no_scipy_sparse(tmp_path):
    # the solver's GMRES is its own; scipy.fft is its only scipy dependency
    script = textwrap.dedent("""
        import sys
        import balmap.masolver
        import balmap.cli
        assert balmap.cli.main(["ma", "--dim", "2", "--res", "8",
                                "--output", "report.txt"]) == 0
        print(sorted(m for m in sys.modules if m.startswith("scipy.sparse")))
        print("scipy.fft" in sys.modules)
    """)
    proc = _fresh_python(["-c", script], cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]


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
