"""Command-line surface.

Subcommands: catalog, verify-identities, cohomology, moment, theorem, ma.
Reports are emitted either human readable or as line-delimited JSON
(--format structured); runs with identical arguments and seeds produce byte
identical structured output.  Exit codes: 0 all checks passed, 1 at least
one check failed, 2 malformed input.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional

from . import __version__
from .exact import CRat, largest_size
from .invariant import (HOLO, InvVectorField, LieModel, ModelError,
                        ParseError, load_model)
from .catalog import CATALOG_MAPS, MODELS, get_map
from .reports import Report

if TYPE_CHECKING:
    from .moment import MapSpec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def __getattr__(name):
    # each command imports the layers it runs; these names stay public and
    # load their layer on first access through ``balmap.LAZY_NAMES``
    if name in ("flow_derivative_check", "well_definedness_check", "solve_ma",
                "identity_suite"):
        return getattr(sys.modules[__package__], name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def _resolve_map(ref: str, models) -> MapSpec:
    from .moment import load_mapspec
    if ref in CATALOG_MAPS:
        return get_map(ref)
    return load_mapspec(ref, models)


def _parse_field_coeffs(model: LieModel, text: str, kind: str) -> InvVectorField:
    from .moment import ValidationError
    parts = text.split(",")
    if len(parts) != model.dim:
        raise ValidationError("field needs %d comma-separated entries" % model.dim)
    coeffs = []
    for p in parts:
        p = p.strip()
        if "i" in p:
            raise ValidationError("command-line fields take rational entries; "
                                  "use a tuple file for complex coefficients")
        try:
            coeffs.append(CRat(Fraction(p)))
        except (ValueError, ZeroDivisionError):
            raise ValidationError("field entry %r is not a rational number"
                                  % p) from None
    return InvVectorField(model, kind, coeffs)


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("%r is not a positive integer" % text)
    return n


def _input_error(e: object) -> int:
    print("input error: %s" % e, file=sys.stderr)
    return EXIT_INPUT_ERROR


def _emit(report: Report, args) -> int:
    import os
    lines = (report.to_lines(__version__) if args.format == "structured"
             else report.to_human())
    text = "\n".join(lines) + "\n"
    out = args.output
    outdir = os.environ.get("BALMAP_OUTPUT_DIR")
    if out and outdir and not os.path.isabs(out):
        out = os.path.join(outdir, out)
    elif out is None and outdir:
        ext = "jsonl" if args.format == "structured" else "txt"
        out = os.path.join(outdir, "%s-report.%s" % (report.command, ext))
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:
            return _input_error(e)
    else:
        sys.stdout.write(text)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


# -- subcommands ------------------------------------------------------------------


def cmd_catalog(args) -> int:
    rep = Report(command="catalog")
    for name in sorted(MODELS):
        m = MODELS[name]
        rep.add("model-%s" % name, "catalog-entry", True,
                detail="dim %d, volume_scale %s" % (m.dim, m.volume_scale))
    for name in sorted(CATALOG_MAPS):
        e = CATALOG_MAPS[name]
        rep.add("map-%s" % name, "catalog-entry", True,
                detail="%s -> %s: %s" % (e["source"], e["target"], e["comment"]))
    return _emit(rep, args)


def cmd_verify_identities(args) -> int:
    # the chart calculus loads for this command only
    from .symalg import identity_suite
    rep = Report(command="verify-identities", seed=args.seed)
    suite = identity_suite(seed=args.seed, trials=args.trials)
    for r in suite.records:
        detail = "%d of %d trials failed" % (r.failures, r.trials)
        if not r.ok and r.counterexample:
            detail += ": " + r.counterexample[:400]
        rep.add(r.name, r.law, r.ok, detail=detail,
                expected_failure=r.expected_failure)
    return _emit(rep, args)


def cmd_cohomology(args) -> int:
    rep = Report(command="cohomology")
    try:
        model = MODELS[args.model] if args.model in MODELS else load_model(args.model)
    except (ParseError, ModelError, OSError) as e:
        return _input_error(e)
    for flag, v in (("--p", args.p), ("--q", args.q)):
        if not 0 <= v <= model.dim:
            return _input_error("%s %d is outside 0..%d for model %s"
                                % (flag, v, model.dim, model.name))
    from .hodge import aeppli_dim, bc_dim
    if args.kind == "aeppli":
        dim = aeppli_dim(model, args.p, args.q)
        law = "aeppli-dimension-exact-rank"
    else:
        dim = bc_dim(model, args.p, args.q)
        law = "bott-chern-dimension-exact-rank"
    rep.add("%s-%s-%d-%d" % (args.kind, model.name, args.p, args.q), law, True,
            detail="dimension %d" % dim, provenance="exact rational elimination")
    rep.extra["dimension"] = dim
    return _emit(rep, args)


def cmd_moment(args) -> int:
    from .hodge import ClassObstructionError
    from .moment import (MomentTuple, ValidationError, load_tuple,
                         pg_membership, tuple_residual_forms,
                         well_definedness_check, x_membership)
    try:
        f = _resolve_map(args.map, MODELS)
        tuple_name, t = load_tuple(args.tuple, MODELS)
        if args.gamma_policy:
            t = MomentTuple(t.xis, t.etabars, args.gamma_policy)
        if any(v.model is not f.source for v in t.xis + t.etabars):
            raise ValidationError("tuple %s lives on model %s, not on the source "
                                  "model %s of map %s" % (
                                      tuple_name, t.model().name,
                                      f.source.name, f.name))
    except (ParseError, ValidationError, OSError, KeyError) as e:
        return _input_error(e)
    rep = Report(command="moment", seed=args.seed)
    rep.extra["map"] = f.name
    rep.extra["tuple"] = tuple_name
    rep.extra["gamma_policy"] = t.gamma_policy

    xm = x_membership(f)
    rep.add("map-membership", "pullback-class-vanishing", xm.member,
            residual=xm.residual,
            detail=(xm.impossibility or xm.obstruction) if not xm.member
            else xm.scope_note)
    rep.extra["pulled_norm"] = xm.pulled_norm
    pg = pg_membership(t, f.source)
    residual = max(pg.residual_bar, pg.residual_del)
    detail = ("lie-algebra certificates: %s; swap-symmetric: %s"
              % (pg.lie_g_ok, pg.swap_symmetric))
    if not pg.member and residual == 0.0:   # exact forms below float range
        forms = tuple_residual_forms(t.xis, t.etabars, f.source.volume_form())
        residual = None
        detail += "; largest residual coefficient %s" % largest_size(
            [c for u in forms for c in u.coeffs.values()])
    rep.add("tuple-membership", "bracket-contraction-sums-vanish", pg.member,
            residual=residual, detail=detail)
    if not (xm.member and pg.member):
        return _emit(rep, args)
    try:
        # the tuple is admissible here, so the check's base value is mu_eval's
        wd = well_definedness_check(f, t, trials=args.trials, seed=args.seed)
    except (ClassObstructionError, ValidationError) as e:
        rep.add("pairing-value", "potential-pairing", False, detail=str(e))
        return _emit(rep, args)
    rep.add("pairing-value", "potential-pairing", True,
            detail="value %r" % wd.base_value)
    rep.extra["value"] = [wd.base_value.real, wd.base_value.imag]
    # with no nonzero shift the invariance holds vacuously: a pass that says so
    rep.extra["gauge_rank"] = wd.shift_rank
    rep.add("gauge-invariance", "pairing-invariant-under-potential-shifts",
            wd.max_deviation <= 1e-10,
            residual=wd.max_deviation if wd.shift_rank else None,
            detail="%d random shifts" % args.trials if wd.shift_rank
            else "nothing to shift: every potential shift is zero")
    rep.add("reversal-signs", "contraction-reversal-identities",
            wd.reversal_ok)
    rep.add("closure", "derivatives-of-iterated-contraction-vanish",
            max(wd.closure_del_norm, wd.closure_delbar_norm) <= 1e-12,
            residual=max(wd.closure_del_norm, wd.closure_delbar_norm))
    return _emit(rep, args)


def cmd_theorem(args) -> int:
    from .hodge import ClassObstructionError
    from .moment import ValidationError, flow_derivative_check
    try:
        f = _resolve_map(args.map, MODELS)
        xi = _parse_field_coeffs(f.source, args.xi, HOLO)
        eta = _parse_field_coeffs(f.source, args.eta, HOLO)
        steps = [float(s) for s in args.steps.split(",")]
    except (ParseError, ValidationError, ValueError, OSError, KeyError) as e:
        return _input_error(e)
    rep = Report(command="theorem")
    rep.extra["map"] = f.name
    try:
        fr = flow_derivative_check(f, xi, eta, steps=steps)
    except (ValidationError, ClassObstructionError) as e:
        return _input_error(e)
    underflow = ("the target underflows, largest coefficient %s" % largest_size(
        fr.target.coeffs.values()) if fr.target_norm == 0.0 else None)
    # a stencil point passes only if it is solvable and its error below 100 %;
    # against an exact target below float range it has no relative error
    for s in fr.steps:
        bad = s.obstruction or (underflow if fr.target else None)
        rep.add("stencil-h-%g" % s.h, "mixed-flow-derivative-vs-contraction",
                not bad and s.rel_error < 1,
                residual=None if bad else s.rel_error, detail=bad)
    if fr.trivial:
        rep.add("convergence-order", "mixed-flow-derivative-vs-contraction",
                fr.ok, detail="both sides vanish identically (trivial orbit)")
    else:
        # no measured order (an error of exactly 0) establishes nothing
        order_ok = bool(fr.orders) and fr.observed_order >= 1.9
        detail = "orders %s" % (["%.3f" % o for o in fr.orders],)
        if fr.orders:
            detail = "observed order %.3f, %s" % (fr.observed_order, detail)
            rep.extra["observed_order"] = fr.observed_order
        if underflow:
            detail += "; " + underflow
        rep.add("convergence-order", "mixed-flow-derivative-vs-contraction",
                fr.ok and order_ok, detail=detail)
    rep.extra["target_norm"] = fr.target_norm
    return _emit(rep, args)


def cmd_ma(args) -> int:
    # imported at call time: ``solve_ma`` is what ``balmap.masolver`` holds now
    import numpy as np
    from .masolver import (GridError, NewtonFailure, ScalarField, TorusGrid,
                           format_samples, nyquist_free_gap, parse_modes,
                           parse_samples, solve_ma)
    try:
        grid = TorusGrid(args.dim, args.res)
        if args.modes:
            with open(args.modes) as fh:
                F = parse_modes(fh.read(), grid, args.modes)
        elif args.samples:
            with open(args.samples) as fh:
                F = parse_samples(fh.read(), grid, args.samples)
        else:
            F = ScalarField.zeros(grid)
        gram = np.eye(args.dim)
    except (GridError, OSError) as e:
        return _input_error(e)
    rep = Report(command="ma")
    rep.extra["dim"] = args.dim
    rep.extra["res"] = args.res
    try:
        result = solve_ma(F, gram, tol=args.tol)
    except GridError as e:
        return _input_error(e)
    except NewtonFailure as e:   # its result holds the work of every attempt
        result = e.result
    d = result.diagnostics
    # taken once solve_ma has accepted the forcing (the spectrum of a
    # rejected one may overflow), on the quotient it was solved on
    tail = F.section(d.translations).spectral_tail()
    rep.extra["forcing_spectral_tail"] = tail
    counts = "newton %d, inner %d, inner unconverged %d" % (
        d.newton_iterations, d.gmres_iterations, d.inner_unconverged)
    rep.add("solve", "volume-normalization-equation", d.converged,
            residual=d.residual_history[-1],
            detail=counts if d.converged
            else "%s; %s, positivity rejections %d"
            % (d.failure, counts, d.positivity_rejections))
    rep.extra["residual_history"] = [float(r) for r in d.residual_history]
    # the grid the solve ran on: the section of the grid translations that
    # leave the forcing unchanged, each pivot axis holding one sample
    rep.extra["solve_shape"] = list(d.solve_shape)
    rep.extra["translations"] = [list(v) for v in d.translations]
    if not d.converged:
        return _emit(rep, args)
    rep.add("positivity", "metric-positivity-along-solution",
            d.min_eigenvalue > 0,
            detail="minimum eigenvalue %.3e" % d.min_eigenvalue)
    conserved, detail = d.conservation_gap <= 1e-9, None
    if not conserved:   # worked out only here: a passing report keeps its bytes
        free = nyquist_free_gap(result.phi, gram)
        rep.extra["conservation_nyquist_share"] = 1 - free / d.conservation_gap
        rep.extra["phi_spectral_tail"] = result.phi.section(
            d.translations).spectral_tail()
        detail = ("grid too coarse: phi's Nyquist modes carry the gap "
                  "(%.3e; %.3e without them)" if free <= 1e-9 else
                  "%.3e; %.3e without phi's Nyquist modes") % (
                      d.conservation_gap, free)
    rep.add("conservation", "volume-conservation-identity", conserved,
            residual=d.conservation_gap, detail=detail)
    rep.add("normalization", "sup-normalized-potential",
            abs(result.phi.values.max()) == 0.0,
            residual=abs(result.phi.values.max()))
    rep.extra["C"] = result.C
    rep.extra["min_eigenvalue"] = d.min_eigenvalue
    if args.solution_out:
        try:
            with open(args.solution_out, "w") as fh:
                fh.write(format_samples(result.phi))
        except OSError as e:
            return _input_error(e)
    return _emit(rep, args)


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="balmap",
        description="Exact bigraded calculus, invariant cohomology and "
                    "moment-map checks on structure-constant models.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    # every command writes a report; only the two that draw random data
    # (the identity suite and the gauge trials) take a seed and a trial count
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=("human", "structured"),
                        default="human")
    report.add_argument("--output", default=None,
                        help="write the report to a file instead of stdout")
    drawn = argparse.ArgumentParser(add_help=False)
    drawn.add_argument("--seed", type=int, default=0)
    drawn.add_argument("--trials", type=_positive_int, default=20)

    p = sub.add_parser("catalog", parents=[report],
                       help="list shipped models and maps")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify-identities", parents=[drawn, report],
                       help="run the exact Lie-derivative identity suite")
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser("cohomology", parents=[report],
                       help="exact invariant cohomology dimension")
    p.add_argument("--model", required=True,
                   help="catalog model name or model file path")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--kind", choices=("aeppli", "bottchern"), required=True)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("moment", parents=[drawn, report],
                       help="membership, pairing and gauge invariance")
    p.add_argument("--map", required=True,
                   help="catalog map name or map file path")
    p.add_argument("--tuple", required=True, help="tuple file path")
    p.add_argument("--gamma-policy", choices=("neumann", "any-solution"))
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("theorem", parents=[report],
                       help="finite-difference confirmation of the "
                            "moment-map derivative identity")
    p.add_argument("--map", required=True)
    p.add_argument("--xi", required=True,
                   help="comma-separated rational frame coefficients")
    p.add_argument("--eta", required=True)
    p.add_argument("--steps", default="1e-1,5e-2,2.5e-2")
    p.set_defaults(func=cmd_theorem)

    p = sub.add_parser("ma", parents=[report],
                       help="volume-normalization solve on a flat torus")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--res", type=int, default=16)
    p.add_argument("--tol", type=float, default=1e-10)
    forcing = p.add_mutually_exclusive_group()
    forcing.add_argument("--modes", help="Fourier-mode input file")
    forcing.add_argument("--samples", help="raw sample input file")
    p.add_argument("--solution-out", default=None,
                   help="write the solution samples to this path")
    p.set_defaults(func=cmd_ma)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except OverflowError as e:
        # an exact coefficient beyond the range of the floating-point layers
        return _input_error("value too large for floating point: %s" % e)


if __name__ == "__main__":
    sys.exit(main())
