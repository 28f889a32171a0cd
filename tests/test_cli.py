"""Command-line surface: reports, determinism, exit codes, file handling."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from balmap.cli import main
from balmap.reports import CheckRecord, Report, SchemaError

TUPLE_Z3 = ("tuple z3\nmodel iwasawa\ngamma_policy neumann\n"
            "xi 0 0 0 0 1 0\netabar 0 0 0 0 1 0\n")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_lists_models_and_maps(capsys):
    code, out, _ = run_cli(["catalog"], capsys)
    assert code == 0
    for name in ("iwasawa", "torus3", "nakamura", "heis_mixed",
                 "iwasawa_to_t3", "t2_immersion_t3", "nakamura_shear"):
        assert name in out


def test_verify_identities_passes(capsys):
    code, out, _ = run_cli(["verify-identities", "--seed", "0",
                            "--trials", "8"], capsys)
    assert code == 0
    assert "[FAIL]" not in out
    assert "[EXPECTED-FAIL]" in out


def test_cohomology_values(capsys):
    code, out, _ = run_cli(["cohomology", "--model", "torus3", "--p", "1",
                            "--q", "1", "--kind", "aeppli"], capsys)
    assert code == 0 and "dimension 9" in out
    code, out, _ = run_cli(["cohomology", "--model", "iwasawa", "--p", "1",
                            "--q", "1", "--kind", "bottchern"], capsys)
    assert code == 0 and "dimension 4" in out


def test_cohomology_accepts_model_file(tmp_path, capsys):
    from balmap.catalog import MODELS
    from balmap.invariant import format_model
    path = tmp_path / "iw.model"
    path.write_text(format_model(MODELS["iwasawa"]))
    code, out, _ = run_cli(["cohomology", "--model", str(path), "--p", "2",
                            "--q", "2", "--kind", "bottchern"], capsys)
    assert code == 0 and "dimension 8" in out


def test_residual_field_holds_only_residuals(capsys):
    # failure counts and dimensions are not residuals: the count goes in the
    # detail, the dimension in the detail and in extra
    code, out, _ = run_cli(["verify-identities", "--seed", "0", "--trials", "8",
                            "--format", "structured"], capsys)
    records = [json.loads(line) for line in out.splitlines()[1:-1]]
    assert code == 0 and records
    for rec in records:
        assert "residual" not in rec
        count = int(rec["detail"].split(" of 8 trials failed")[0])
        assert (count > 0) == (rec["status"] == "expected-fail")
    code, out, _ = run_cli(["verify-identities", "--seed", "0", "--trials", "1"],
                           capsys)
    assert code == 1
    assert ("[FAIL] lie10-function-linear-10-restricted "
            "(function-linearity-outside-0q) - 0 of 1 trials failed") in out
    code, out, _ = run_cli(["cohomology", "--model", "iwasawa", "--p", "1",
                            "--q", "1", "--kind", "bottchern",
                            "--format", "structured"], capsys)
    header, rec = (json.loads(line) for line in out.splitlines()[:2])
    assert code == 0 and header["extra"]["dimension"] == 4
    assert "residual" not in rec and rec["detail"] == "dimension 4"


def test_moment_command(tmp_path, capsys):
    tf = tmp_path / "t.tuple"
    tf.write_text(TUPLE_Z3)
    code, out, _ = run_cli(["moment", "--map", "iwasawa_to_t3",
                            "--tuple", str(tf)], capsys)
    assert code == 0
    assert "pairing-value" in out and "gauge-invariance" in out
    # the exact rank of the shift space; at rank 0 nothing is shifted, the
    # check passes vacuously and reports no residual
    for map_name, fields, rank in (
            ("iwasawa_to_t3", TUPLE_Z3, 0),
            ("heis_mixed_to_t3", "tuple z2\nmodel heis_mixed\n"
             "xi 0 0 1 0 0 0\netabar 0 0 1 0 0 0\n", 1),
            ("iwasawa_to_t4", "tuple t4\nmodel iwasawa\nxi 1 0 0 0 0 0\n"
             "xi 0 0 0 0 1 0\netabar 1 0 0 0 0 0\netabar 0 0 0 0 1 0\n", 3)):
        tf.write_text(fields)
        code, out, _ = run_cli(["moment", "--map", map_name, "--tuple",
                                str(tf), "--format", "structured"], capsys)
        lines = [json.loads(line) for line in out.splitlines()]
        gauge, = [r for r in lines if r.get("name") == "gauge-invariance"]
        assert code == 0 and lines[0]["extra"]["gauge_rank"] == rank
        assert gauge["status"] == "pass"
        assert ("residual" in gauge) == (rank > 0)
        assert (gauge["detail"] == "nothing to shift: every potential shift "
                "is zero") == (rank == 0)


def test_moment_structured_deterministic(tmp_path):
    tf = tmp_path / "t.tuple"
    tf.write_text(TUPLE_Z3)
    outs = []
    for i in (1, 2):
        op = tmp_path / ("r%d.jsonl" % i)
        code = main(["moment", "--map", "iwasawa_to_t3", "--tuple", str(tf),
                     "--seed", "7", "--format", "structured",
                     "--output", str(op)])
        assert code == 0
        outs.append(op.read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().strip().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == "balmap-report/1" and header["seed"] == 7
    for line in lines[1:-1]:
        rec = json.loads(line)
        assert rec["law"]
    assert json.loads(lines[-1])["ok"] is True


def test_moment_solves_for_the_potential_once(tmp_path, capsys, monkeypatch):
    import balmap.moment as moment
    calls = []
    real = moment.neumann_gamma

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(moment, "neumann_gamma", spy)
    tf = tmp_path / "t.tuple"
    tf.write_text(TUPLE_Z3)
    code, out, _ = run_cli(["moment", "--map", "iwasawa_to_t3",
                            "--tuple", str(tf)], capsys)
    assert code == 0 and "value (-1+0j)" in out
    assert len(calls) == 1


def test_moment_rejects_tuple_of_wrong_arity(tmp_path, capsys):
    # admissible on iwasawa, but iwasawa_to_t3 pairs one xi with one etabar
    tf = tmp_path / "t.tuple"
    tf.write_text("tuple two\nmodel iwasawa\nxi 1 0 0 0 0 0\nxi 0 0 0 0 1 0\n"
                  "etabar 1 0 0 0 0 0\netabar 0 0 0 0 1 0\n")
    code, out, _ = run_cli(["moment", "--map", "iwasawa_to_t3",
                            "--tuple", str(tf)], capsys)
    assert code == 1
    assert ("[FAIL] pairing-value (potential-pairing) - tuple arity 2 does "
            "not match target dimension 3") in out
    assert "gauge-invariance" not in out


def test_moment_reports_obstruction(tmp_path, capsys):
    tf = tmp_path / "t.tuple"
    tf.write_text("tuple t\nmodel torus2\nxi 1 0 0 0\netabar 1 0 0 0\n")
    code, out, _ = run_cli(["moment", "--map", "t2_immersion_t3",
                            "--tuple", str(tf)], capsys)
    assert code == 1
    assert "Stokes" in out


def test_theorem_command(capsys):
    code, out, _ = run_cli(["theorem", "--map", "nakamura_shear",
                            "--xi", "1/2,0,0", "--eta", "1/2,0,0"], capsys)
    assert code == 0
    assert "convergence-order" in out


def test_theorem_trivial_orbit(capsys):
    code, out, _ = run_cli(["theorem", "--map", "iwasawa_to_t3",
                            "--xi", "0,0,1", "--eta", "0,0,1"], capsys)
    assert code == 0
    assert "trivial orbit" in out


def test_ma_command(tmp_path, capsys):
    mf = tmp_path / "modes.txt"
    mf.write_text("1 0 0.3\n")
    sol = tmp_path / "phi.txt"
    code, out, _ = run_cli(["ma", "--dim", "1", "--res", "16",
                            "--modes", str(mf), "--tol", "1e-10",
                            "--solution-out", str(sol)], capsys)
    assert code == 0
    assert "conservation" in out
    assert sol.exists() and len(sol.read_text().splitlines()) == 256


def _ma_report(tmp_path, capsys, dim, res, modes, tol="1e-9"):
    mf = tmp_path / "modes.txt"
    mf.write_text(modes)
    code, out, _ = run_cli(["ma", "--dim", str(dim), "--res", str(res),
                            "--tol", tol, "--modes", str(mf),
                            "--format", "structured"], capsys)
    lines = [json.loads(line) for line in out.splitlines()]
    return code, lines[0]["extra"], {c["name"]: c for c in lines[1:-1]}


def test_ma_reports_the_shape_it_solved_on(tmp_path, capsys):
    # the forcing varies along x_1 and x_2 only: y_1 and y_2 hold one sample
    code, extra, checks = _ma_report(tmp_path, capsys, 2, 8,
                                     "1 0 0 0 0.1\n0 0 1 0 0.05\n")
    assert code == 0 and extra["solve_shape"] == [8, 1, 8, 1]
    assert extra["translations"] == [[0, 1, 0, 0], [0, 0, 0, 1]]
    # a passing conservation check is worked out no further
    assert "detail" not in checks["conservation"]
    assert "conservation_nyquist_share" not in extra
    assert "phi_spectral_tail" not in extra
    # three modes leave the translation by (1, -1, -1, 1) / 8: the solve
    # runs on the section x_1 = 0; a fourth mode spans all four axes
    krylov = "1 0 1 0 0.1\n0 1 0 1 0.05\n1 1 0 0 0.03\n"
    code, extra, _ = _ma_report(tmp_path, capsys, 2, 8, krylov)
    assert code == 0 and extra["solve_shape"] == [1, 8, 8, 8]
    assert extra["translations"] == [[1, -1, -1, 1]]
    code, extra, _ = _ma_report(tmp_path, capsys, 2, 8,
                                krylov + "0 0 0 1 0.02\n")
    assert code == 0 and extra["solve_shape"] == [8, 8, 8, 8]
    assert extra["translations"] == []


def _ma_samples_report(tmp_path, capsys, dim, res, values):
    sf = tmp_path / "forcing.samples"
    sf.write_text("\n".join(repr(float(v)) for v in values.ravel()) + "\n")
    code, out, _ = run_cli(["ma", "--dim", str(dim), "--res", str(res),
                            "--tol", "1e-9", "--samples", str(sf),
                            "--format", "structured"], capsys)
    return code, json.loads(out.splitlines()[0])["extra"]


def test_ma_spectral_tail_on_the_quotient_is_the_full_grids(tmp_path, capsys):
    # the tail is taken on the grid the solve ran on; the pivot axis's
    # wavenumbers give the full grid's mask, so it agrees with the tail of
    # the caller's grid.  The samples add a mode (5, 5, 0, 0) above res/4
    # that keeps the symmetry
    from balmap.masolver import ScalarField, TorusGrid
    grid = TorusGrid(2, 16)
    krylov = [((1, 0, 1, 0), 2.0), ((0, 1, 0, 1), 1.0), ((1, 1, 0, 0), 2 / 3)]
    code, extra, _ = _ma_report(tmp_path, capsys, 2, 16, "".join(
        "%s %r\n" % (" ".join(map(str, k)), a) for k, a in krylov))
    assert code == 0 and extra["solve_shape"] == [1, 16, 16, 16]
    full = ScalarField.from_modes(grid, krylov).spectral_tail()
    assert full < 1e-20
    assert extra["forcing_spectral_tail"] == pytest.approx(full, abs=1e-20)
    F = ScalarField.from_modes(grid, krylov + [((5, 5, 0, 0), 0.01)])
    code, extra = _ma_samples_report(tmp_path, capsys, 2, 16, F.values)
    assert code == 0 and extra["solve_shape"] == [1, 16, 16, 16]
    assert F.spectral_tail() > 1e-6
    assert extra["forcing_spectral_tail"] == pytest.approx(
        F.spectral_tail(), rel=1e-12)


def test_ma_samples_one_ulp_off_a_symmetry_solve_on_the_full_grid(tmp_path,
                                                                  capsys):
    # a translation is kept only if it leaves every sample's bits unchanged
    from balmap.masolver import ScalarField, TorusGrid
    F = ScalarField.from_modes(TorusGrid(2, 8), [
        ((1, 0, 1, 0), 0.1), ((0, 1, 0, 1), 0.05), ((1, 1, 0, 0), 0.03)])
    code, extra = _ma_samples_report(tmp_path, capsys, 2, 8, F.values)
    assert code == 0 and extra["translations"] == [[1, -1, -1, 1]]
    values = F.values.copy()
    values[3, 1, 4, 1] = np.nextafter(values[3, 1, 4, 1], np.inf)
    code, extra = _ma_samples_report(tmp_path, capsys, 2, 8, values)
    assert code == 0 and extra["solve_shape"] == [8, 8, 8, 8]
    assert extra["translations"] == []


def test_ma_conservation_failure_names_the_nyquist_modes(tmp_path, capsys):
    # at res 8 phi's Nyquist modes carry the whole gap (1.075e-7): with them
    # set to 0 the mean determinant is det g
    code, extra, checks = _ma_report(
        tmp_path, capsys, 2, 8, "1 0 1 0 0.9\n0 1 0 1 0.5\n1 1 0 0 0.3 0.1\n")
    assert code == 1 and checks["solve"]["status"] == "pass"
    check = checks["conservation"]
    assert check["status"] == "fail" and check["residual"] > 1e-9
    assert check["detail"].startswith(
        "grid too coarse: phi's Nyquist modes carry the gap (%.3e; "
        % check["residual"])
    assert 1 - 1e-6 <= extra["conservation_nyquist_share"] <= 1
    # phi's spectral tail, taken on the section x_1 = 0 it was solved on,
    # is the tail of the solution on the caller's grid
    from balmap.masolver import ScalarField, TorusGrid, solve_ma
    assert extra["translations"] == [[1, -1, -1, 1]]
    F = ScalarField.from_modes(TorusGrid(2, 8), [
        ((1, 0, 1, 0), 0.9), ((0, 1, 0, 1), 0.5), ((1, 1, 0, 0), 0.3 + 0.1j)])
    full = solve_ma(F, np.eye(2), tol=1e-9).phi.spectral_tail()
    assert 0 < full < 1
    assert extra["phi_spectral_tail"] == pytest.approx(full, rel=1e-9)


def test_ma_reports_the_work_of_a_failed_solve(tmp_path, capsys):
    # a forcing of amplitude 40 at d = 1: the solution's determinant is at
    # round-off where F is least, so the positivity guard halves every
    # Newton step; the direct attempt stops at the iteration limit and a
    # continuation stage stalls, and the detail says the guard was the cause
    mf = tmp_path / "modes.txt"
    mf.write_text("1 0 40\n")
    code, out, err = run_cli(["ma", "--dim", "1", "--res", "8", "--tol",
                              "1e-12", "--modes", str(mf),
                              "--format", "structured"], capsys)
    assert code == 1 and "Traceback" not in err
    header, solve, summary = (json.loads(line) for line in out.splitlines())
    assert solve["name"] == "solve" and solve["status"] == "fail"
    assert solve["detail"].startswith("newton did not converge in 40 ")
    counts = solve["detail"].split("; ")[1]
    assert counts.startswith("newton ") and ", inner " in counts
    assert ", inner unconverged " in counts
    newton = int(counts.split(",")[0].split()[1])
    rejected = int(counts.split(", positivity rejections ")[1])
    assert rejected >= newton >= 40
    history = header["extra"]["residual_history"]
    assert solve["residual"] == history[-1] > 1e-12 and len(history) > 1
    assert summary["failures"] == 1


def test_ma_solves_a_d1_forcing_in_one_closed_form_step(tmp_path, capsys):
    # d = 1 is linear, and its zero start's step is -P^-1 R with no GMRES
    mf = tmp_path / "modes.txt"
    mf.write_text("1 0 0.3\n0 2 0.1\n")
    code, out, _ = run_cli(["ma", "--dim", "1", "--res", "256", "--tol",
                            "1e-12", "--modes", str(mf)], capsys)
    assert code == 0
    assert "newton 1, inner 0, inner unconverged 0" in out


def test_input_errors_exit_2(tmp_path, capsys):
    code, _, err = run_cli(["cohomology", "--model", "nosuch", "--p", "1",
                            "--q", "1", "--kind", "aeppli"], capsys)
    assert code == 2 and "input error" in err
    bad = tmp_path / "bad.tuple"
    bad.write_text("tuple t\nmodel iwasawa\nxi 1\n")
    code, _, err = run_cli(["moment", "--map", "iwasawa_to_t3",
                            "--tuple", str(bad)], capsys)
    assert code == 2 and "bad.tuple:3" in err
    code, _, err = run_cli(["ma", "--dim", "1", "--res", "10"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv, bad", [
    (["cohomology", "--model", "iwasawa", "--p", "-1", "--q", "1",
      "--kind", "bottchern"], "--p -1"),
    (["cohomology", "--model", "iwasawa", "--p", "5", "--q", "1",
      "--kind", "bottchern"], "--p 5"),
    (["theorem", "--map", "nakamura_shear", "--xi", "1/2,0,0",
      "--eta", "1/2,0,0", "--steps", "0"], "step 0.0"),
    (["theorem", "--map", "nakamura_shear", "--xi", "1/2,0,0",
      "--eta", "1/2,0,0", "--steps", "0.1,-0.05"], "step -0.05"),
    (["theorem", "--map", "nakamura_shear", "--xi", "1/2,0,0",
      "--eta", "1/2,0,0", "--steps", "0.1"], "[0.1]"),
    (["theorem", "--map", "nakamura_shear", "--xi", "1/0,0,0",
      "--eta", "1/2,0,0"], "'1/0'"),
    (["theorem", "--map", "nakamura_shear", "--xi", "1e309,0,0",
      "--eta", "1/2,0,0"], "too large for floating point"),
    (["ma", "--dim", "1", "--res", "16", "--tol", "1e-15"], "1e-15"),
    (["ma", "--dim", "1", "--res", "16", "--tol", "-1"], "-1.0"),
    (["ma", "--dim", "1", "--res", "16", "--tol", "nan"], "nan"),
    (["ma", "--dim", "0", "--res", "8"], "dim 0"),
    (["ma", "--dim", "-1", "--res", "8"], "dim -1"),
    # rejected when the grid is built, before any grid-sized array exists
    (["ma", "--dim", "4", "--res", "8"], "dim 4"),
    (["catalog", "--output", "/nonexistent/dir/x.txt"], "/nonexistent/dir"),
])
def test_out_of_range_input_exits_2_naming_the_value(argv, bad, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert "input error" in err and bad in err
    assert "passed" not in out


@pytest.mark.parametrize("command", ["verify-identities", "catalog"])
def test_non_positive_trials_exit_2(command, capsys):
    with pytest.raises(SystemExit) as e:
        main([command, "--trials", "0"])
    assert e.value.code == 2
    assert "'0' is not a positive integer" in capsys.readouterr().err


def test_moment_rejects_tuple_on_another_model(tmp_path, capsys):
    tf = tmp_path / "t.tuple"
    tf.write_text(TUPLE_Z3)
    code, _, err = run_cli(["moment", "--map", "heis_mixed_to_t3",
                            "--tuple", str(tf)], capsys)
    assert code == 2 and "iwasawa" in err and "heis_mixed" in err


def test_schema_validator_rejects_anonymous_checks():
    rep = Report(command="x")
    rep.checks.append(CheckRecord(name="a", law="", status="pass"))
    with pytest.raises(SchemaError):
        rep.to_lines("0")


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "balmap.cli", "catalog"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def test_output_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BALMAP_OUTPUT_DIR", str(tmp_path))
    code = main(["cohomology", "--model", "torus2", "--p", "1", "--q", "1",
                 "--kind", "bottchern", "--format", "structured"])
    assert code == 0
    out = tmp_path / "cohomology-report.jsonl"
    assert out.exists()
    assert json.loads(out.read_text().splitlines()[0])["schema"]
    # relative --output lands inside the directory too
    code = main(["catalog", "--output", "cat.txt"])
    assert code == 0
    assert (tmp_path / "cat.txt").exists()


def test_moment_gamma_policy_override(tmp_path, capsys):
    tf = tmp_path / "t.tuple"
    tf.write_text(TUPLE_Z3)
    code, out, _ = run_cli(["moment", "--map", "iwasawa_to_t3", "--tuple",
                            str(tf), "--gamma-policy", "any-solution"], capsys)
    assert code == 0 and "value (-1+0j)" in out


def test_theorem_accepts_map_file(tmp_path, capsys):
    mf = tmp_path / "m.map"
    mf.write_text("map shear\nsource nakamura\ntarget nakamura\n"
                  "row 1 1 0 0 0 0 0\nrow 2 0 0 0 0 0 0\nrow 3 0 0 0 0 1 0\n")
    code, out, _ = run_cli(["theorem", "--map", str(mf),
                            "--xi", "1/2,0,0", "--eta", "1/2,0,0"], capsys)
    assert code == 0 and "convergence-order" in out


def test_solution_out_into_missing_directory_exits_2(tmp_path, capsys):
    code, _, err = run_cli(["ma", "--dim", "1", "--res", "8", "--solution-out",
                            str(tmp_path / "no" / "phi.txt")], capsys)
    assert code == 2 and "phi.txt" in err


@pytest.mark.parametrize("name, text, argv, bad", [
    ("z.tuple", "tuple z\nmodel iwasawa\nxi 1/0 0 0 0 1 0\n",
     ["moment", "--map", "iwasawa_to_t3", "--tuple"], "z.tuple:3"),
    ("z.model", "name z\ndim 2\ndiff 2 1~1 1/0 0\n",
     ["cohomology", "--p", "1", "--q", "1", "--kind", "aeppli", "--model"],
     "z.model:3"),
    ("z.map", "map z\nsource nakamura\nrow 1 1/0 0 0 0 0 0\n",
     ["theorem", "--xi", "1/2,0,0", "--eta", "1/2,0,0", "--map"], "z.map:3"),
    ("nan.modes", "1 0 nan\n", ["ma", "--dim", "1", "--res", "8", "--modes"],
     "non-finite"),
    ("big.tuple", "tuple big\nmodel iwasawa\nxi 0 0 0 0 1e309 0\n"
                  "etabar 0 0 0 0 1 0\n",
     ["moment", "--map", "iwasawa_to_t3", "--tuple"],
     "too large for floating point"),
    # the affine group of C: d(phi^2) = phi^1 ^ phi^2, tr ad Z_1 = -1
    ("affine.model", "name affine\ndim 2\ndiff 2 12 1 0\n",
     ["cohomology", "--p", "0", "--q", "0", "--kind", "bottchern", "--model"],
     "affine.model:0: model affine is not unimodular"),
    ("d.model", "name d\ndim 0\n",
     ["cohomology", "--p", "0", "--q", "0", "--kind", "bottchern", "--model"],
     "d.model:0: model d: dim 0 must be at least 1"),
    ("d.model", "name d\ndim -2\n",
     ["cohomology", "--p", "0", "--q", "0", "--kind", "bottchern", "--model"],
     "d.model:0: model d: dim -2 must be at least 1"),
    # mean(e^F) overflows (the sum of e^709 terms) or underflows to 0
    ("e709.modes", "1 0 0 0 709\n", ["ma", "--dim", "2", "--res", "8", "--modes"],
     "forcing F has mean(e^F) inf"),
    ("e710.modes", "1 0 0 0 710\n", ["ma", "--dim", "2", "--res", "8", "--modes"],
     "forcing F has mean(e^F) inf"),
    ("c800.modes", "0 0 0 0 800\n", ["ma", "--dim", "2", "--res", "8", "--modes"],
     "forcing F has mean(e^F) inf"),
    ("c-1000.modes", "0 0 0 0 -1000\n",
     ["ma", "--dim", "2", "--res", "8", "--modes"],
     "forcing F has mean(e^F) 0.0"),
    ("e308.samples", "1e308\n" + "0\n" * 63,
     ["ma", "--dim", "1", "--res", "8", "--samples"],
     "forcing F has mean(e^F) inf"),
    ("long.modes", "1 0 0 0 0.1 0.2 0.3\n",
     ["ma", "--dim", "2", "--res", "8", "--modes"],
     "long.modes:1: bad mode line '1 0 0 0 0.1 0.2 0.3'"),
], ids=["tuple-zero-denominator", "model-zero-denominator",
        "map-zero-denominator", "non-finite-forcing", "tuple-beyond-float",
        "model-not-unimodular", "model-dim-zero", "model-dim-negative",
        "forcing-exp-709", "forcing-exp-710", "forcing-constant-800",
        "forcing-constant-minus-1000", "forcing-sample-1e308",
        "mode-line-too-long"])
def test_malformed_file_exits_2_naming_the_problem(tmp_path, capsys, name,
                                                   text, argv, bad):
    path = tmp_path / name
    path.write_text(text)
    # a rejected forcing is never transformed, so it raises no overflow
    # warning on the way to its input error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv + [str(path)], capsys)
    assert code == 2 and bad in err and "passed" not in out
    assert not caught, [str(w.message) for w in caught]


def test_theorem_stencil_with_full_relative_error_fails(capsys):
    # at these steps the finite difference cancels to zero: 100 % error
    code, out, _ = run_cli(["theorem", "--map", "nakamura_shear",
                            "--xi", "1/2,0,0", "--eta", "1/2,0,0",
                            "--steps", "1e-9,5e-10"], capsys)
    assert code == 1
    assert "[PASS] stencil" not in out
    assert out.count("[FAIL] stencil-h-") == 2


def test_theorem_stencils_fail_on_a_target_that_underflows(capsys):
    # 1e-400 fields: the exact target is nonzero, its float norm 0, so a
    # stencil's error has no relative size; no step may pass with residual 0
    code, out, _ = run_cli(["theorem", "--map", "nakamura_shear",
                            "--xi", "1e-400,0,0", "--eta", "1e-400,0,0"],
                           capsys)
    assert code == 1 and "[PASS]" not in out and "residual=" not in out
    assert out.count("[FAIL] stencil-h-") == 3
    assert out.count("the target underflows, largest coefficient "
                     "1.000e-800") == 4


def test_theorem_without_a_measured_order_fails(capsys):
    # the error at h = 1e-4 is exactly 0, so no convergence order is
    # measured; at 1e-200 and 1e-400 the exact target is nonzero but its
    # float norm underflows: no trivial orbit, and the detail gives its size
    for xi, steps, size in (("1/2", "1e-4,5e-5", None),
                            ("1e-200", "1e-1,5e-2", "1.000e-400"),
                            ("1e-400", "1e-1,5e-2", "1.000e-800")):
        code, out, _ = run_cli(["theorem", "--map", "nakamura_shear",
                                "--xi", xi + ",0,0", "--eta", xi + ",0,0",
                                "--steps", steps], capsys)
        assert code == 1 and "trivial orbit" not in out
        assert "[FAIL] convergence-order" in out and "orders []" in out
        assert size is None or (
            "the target underflows, largest coefficient %s" % size in out)


# an arity-0 tuple is what a target of dimension 2 pairs with
EMPTY_TUPLE = "tuple empty\nmodel %s\n"


def test_moment_pairs_an_empty_tuple_through_a_zero_map(tmp_path, capsys):
    mf, tf = tmp_path / "zero.map", tmp_path / "e.tuple"
    mf.write_text("map zero\nsource torus1\ntarget torus2\n"
                  "row 1 0 0\nrow 2 0 0\n")
    tf.write_text(EMPTY_TUPLE % "torus1")
    code, out, err = run_cli(["moment", "--map", str(mf), "--tuple", str(tf)],
                             capsys)
    assert code == 0, err
    assert "[PASS] pairing-value (potential-pairing) - value 0j" in out


def test_moment_checks_map_membership_with_an_empty_tuple(tmp_path, capsys):
    mf, tf = tmp_path / "id.map", tmp_path / "e.tuple"
    mf.write_text("map id\nsource torus2\ntarget torus2\n"
                  "row 1 1 0 0 0\nrow 2 0 0 1 0\n")
    tf.write_text(EMPTY_TUPLE % "torus2")
    code, out, _ = run_cli(["moment", "--map", str(mf), "--tuple", str(tf)],
                           capsys)
    assert code == 1
    assert "[FAIL] map-membership" in out and "pairing-value" not in out


def test_moment_rejects_an_empty_tuple_for_a_larger_target(tmp_path, capsys):
    tf = tmp_path / "e.tuple"
    tf.write_text(EMPTY_TUPLE % "iwasawa")
    code, out, _ = run_cli(["moment", "--map", "iwasawa_to_t3",
                            "--tuple", str(tf)], capsys)
    assert code == 1
    assert ("[FAIL] pairing-value (potential-pairing) - tuple arity 0 does "
            "not match target dimension 3") in out


def test_moment_decides_admissibility_exactly(tmp_path, capsys):
    # 1e-400 Z_1 is not holomorphic on heis_mixed; its residuals and its
    # dbar are nonzero but underflow to 0.0 as floats
    tf = tmp_path / "tiny.tuple"
    tf.write_text("tuple tiny\nmodel heis_mixed\nxi 1e-400 0 0 0 0 0\n"
                  "etabar 1e-400 0 0 0 0 0\n")
    code, out, _ = run_cli(["moment", "--map", "heis_mixed_to_t3",
                            "--tuple", str(tf)], capsys)
    assert code == 1
    # the residual forms' float norms underflow: no residual=0 is printed,
    # and the detail gives their size from the exact coefficients
    assert ("[FAIL] tuple-membership (bracket-contraction-sums-vanish) - "
            "lie-algebra certificates: False; swap-symmetric: True; largest "
            "residual coefficient 1.000e-800") in out
    assert "pairing-value" not in out


def test_theorem_rejects_a_field_holomorphic_only_in_floats(capsys):
    code, out, err = run_cli(["theorem", "--map", "heis_mixed_to_t3",
                              "--xi", "1e-400,0,0", "--eta", "0,0,1"], capsys)
    assert code == 2 and out == ""
    assert "flow field xi is not holomorphic" in err
    assert "holomorphic=False (largest dbar entry 1.000e-400)" in err
    assert "dbar_norm" not in err


def test_map_membership_reports_the_ddbar_solve_residual(tmp_path, capsys):
    # the residual is the ddbar solve's: 0 for the exact potential, the
    # least-squares one when obstructed; the pulled-back norm goes in extra
    tf = tmp_path / "t.tuple"
    tf.write_text(TUPLE_Z3)
    code, out, _ = run_cli(["moment", "--map", "iwasawa_to_t3", "--tuple",
                            str(tf), "--format", "structured"], capsys)
    header, rec = (json.loads(line) for line in out.splitlines()[:2])
    assert code == 0 and rec["name"] == "map-membership"
    assert rec["residual"] == 0.0 and header["extra"]["pulled_norm"] > 0
    # on a torus ddbar vanishes on invariant forms: the least-squares
    # residual is the whole pulled-back power
    tf.write_text("tuple t\nmodel torus2\nxi 1 0 0 0\netabar 0 0 1 0\n")
    code, out, _ = run_cli(["moment", "--map", "t2_immersion_t3", "--tuple",
                            str(tf), "--format", "structured"], capsys)
    header, rec = (json.loads(line) for line in out.splitlines()[:2])
    assert code == 1 and rec["status"] == "fail"
    assert rec["residual"] == header["extra"]["pulled_norm"] == 1.0


def test_theorem_reports_an_obstruction_at_every_step(capsys):
    # the pulled power of t2_immersion_t3 has no potential at any corner
    code, out, _ = run_cli(["theorem", "--map", "t2_immersion_t3",
                            "--xi", "1,0", "--eta", "0,1"], capsys)
    assert code == 1
    for h in ("0.1", "0.05", "0.025"):
        assert ("[FAIL] stencil-h-%s (mixed-flow-derivative-vs-contraction) "
                "- form is not ddbar-exact on the invariant complex" % h) in out
    assert ("[FAIL] convergence-order (mixed-flow-derivative-vs-contraction) "
            "- orders []") in out
