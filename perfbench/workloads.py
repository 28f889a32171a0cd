"""The four workloads: seeded inputs, one task each, and output checks.

Inputs come from ``random.Random`` seeded with the run seed, the workload
name and, where tasks differ, the task index, so the same seed gives the same
inputs.  balmap receives only the generated inputs.  Tasks call balmap
through module attributes (``hodge.bc_dim`` rather than a name imported here)
so that the wrappers in ``tracing`` see them.  Checks recompute what they can
with numpy, compare with the frozen goldens, and do not call balmap's
``residual`` or ``positivity_check``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np

from balmap import exact, hodge, invariant, masolver, moment, symalg
from balmap.catalog import MODELS, get_map

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(ROOT, "tests", "fixtures", "cohomology_golden.json")


def _rng(seed, *key):
    return random.Random("%d:%s" % (seed, ":".join(str(k) for k in key)))


# magnitudes of the filiform coefficients; a seed picks their order and signs,
# so exact elimination works on numbers of the same size for every seed
MAGNITUDES = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 2))


def filiform(rng, n):
    """d(phi_k) = c_k phi_1 ^ phi_(k-1) for k >= 3 with seeded rational c_k.

    LieModel checks d^2 = 0 on construction and raises ModelError otherwise.
    """
    mags = rng.sample(MAGNITUDES, n - 2)
    diff = {k: [invariant.DiffTerm(invariant.HH, 1, k - 1,
                                   exact.CRat(c * rng.choice((1, -1))))]
            for k, c in zip(range(3, n + 1), mags)}
    return invariant.LieModel("filiform%d" % n, n, diff)


class Workload:
    """A task's inputs, the task itself and the check of its output."""

    name = ""
    # set while the traced loop runs
    tracer = None
    # peak RSS is taken from the largest child process instead of the worker
    rss_of_children = False


class ExactAlgebra(Workload):
    """Bott-Chern and Aeppli dimensions over every (p,q) of a filiform-5
    model, then the exact identity suite at a fixed trial count."""

    name = "exact-algebra"
    DIM = 5
    TRIALS = 10

    def __init__(self, seed, workdir):
        self.seed = seed

    def inputs(self, i):
        rng = _rng(self.seed, self.name, i)
        return filiform(rng, self.DIM), rng.randrange(2 ** 31)

    def run(self, inp):
        model, suite_seed = inp
        n = self.DIM
        bidegrees = [(p, q) for p in range(n + 1) for q in range(n + 1)]
        bc = {pq: hodge.bc_dim(model, *pq) for pq in bidegrees}
        ae = {pq: hodge.aeppli_dim(model, *pq) for pq in bidegrees}
        return bc, ae, symalg.identity_suite(seed=suite_seed, trials=self.TRIALS)

    def check(self, inp, out):
        bc, ae, suite = out
        n = self.DIM
        bad = []
        for (p, q), h in bc.items():
            if h != ae[(n - p, n - q)]:
                bad.append("BC/Aeppli duality fails at (%d,%d)" % (p, q))
            if h != bc[(q, p)] or ae[(p, q)] != ae[(q, p)]:
                bad.append("conjugation symmetry fails at (%d,%d)" % (p, q))
        if bc[(0, 0)] != 1 or bc[(n, n)] != 1:
            bad.append("h_BC^{0,0} or h_BC^{n,n} is not 1")
        for r in suite.records:
            if not r.ok or r.trials != self.TRIALS:
                bad.append("identity %s: %d failures" % (r.name, r.failures))
        return bad


def _wedge_gram(g, keys, vol):
    """Gram of phi_I ^ phibar_J under the coframe Gram g, by minors."""
    def minor(rows, cols):
        if not rows:
            return 1.0
        return np.linalg.det(g[np.ix_([r - 1 for r in rows],
                                      [c - 1 for c in cols])])
    return np.array([[minor(Ia, Ib) * np.conj(minor(Ja, Jb)) * vol
                      for (Ib, Jb) in keys] for (Ia, Ja) in keys])


class HodgeMoment(Workload):
    """Bott-Chern Laplacian and Green operator at (2,2) of a filiform-4 model
    under a non-diagonal metric, the flow-derivative check on nakamura_shear
    and the gauge check on iwasawa_to_t4."""

    name = "hodge-moment"
    P, Q = 2, 2

    def __init__(self, seed, workdir):
        self.seed = seed
        self.shear = get_map("nakamura_shear")
        self.to_t4 = get_map("iwasawa_to_t4")
        iw = MODELS["iwasawa"]
        self.t4 = moment.MomentTuple([iw.frame(1), iw.frame(3)],
                                     [iw.frame_bar(1), iw.frame_bar(3)])
        # the harmonic kernel must have the exact Bott-Chern dimension; all
        # nonzero c_k give isomorphic models, so one exact rank serves every task
        rng = random.Random(0)
        self.kernel_dim = hodge.bc_dim(filiform(rng, 4), self.P, self.Q)

    def inputs(self, i):
        rng = _rng(self.seed, self.name, i)
        model = filiform(rng, 4)
        n = model.dim
        B = np.array([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                       for _ in range(n)] for _ in range(n)])
        A = np.eye(n) + 0.3 * B
        g = A @ A.conj().T + 0.5 * np.eye(n)
        if np.linalg.eigvalsh(g).min() <= 0:
            raise ValueError("generated metric is not positive definite")
        u = invariant.InvForm(model, {
            k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for k in model.basis_keys(self.P, self.Q)})
        # multiples up to 2/3 keep the finest stencil error below 1e-4
        c = Fraction(rng.randint(1, 2), rng.randint(3, 5))
        xi = self.shear.source.frame(1, exact.CRat(c))
        if not moment.lie_g_membership(xi).member:
            raise ValueError("generated field is not in lie(g)")
        return model, g, u, xi, rng.randrange(2 ** 31)

    def run(self, inp):
        model, g, u, xi, gauge_seed = inp
        ctx = hodge.MetricContext(hodge.HermitianMetricSpec(model, g))
        lap = hodge.delta_bc_ortho(ctx, self.P, self.Q)
        green, harm = hodge.green_apply(ctx, self.P, self.Q, u, laplacian=lap)
        flow = moment.flow_derivative_check(self.shear, xi, xi)
        gauge = moment.well_definedness_check(self.to_t4, self.t4, trials=20,
                                              seed=gauge_seed)
        return lap, green, harm, flow, gauge

    def check(self, inp, out):
        model, g, u, _, _ = inp
        lap, green, harm, flow, gauge = out
        bad = []
        scale = max(np.abs(lap).max(), 1.0)
        if np.abs(lap - lap.conj().T).max() > 1e-10 * scale:
            bad.append("Laplacian is not Hermitian")
        w, V = np.linalg.eigh((lap + lap.conj().T) / 2)
        if w.min() < -1e-10 * scale:
            bad.append("Laplacian is not positive semi-definite")
        kernel = w <= 1e-9 * max(w.max(), 1e-300)
        if int(kernel.sum()) != self.kernel_dim:
            bad.append("harmonic kernel %d != exact h_BC %d"
                       % (kernel.sum(), self.kernel_dim))
        # Green identity in orthonormal coordinates: lap G u = u - harmonic(u)
        keys = model.basis_keys(self.P, self.Q)
        L = np.linalg.cholesky(_wedge_gram(g, keys, float(model.volume_scale)))
        v = L.conj().T @ np.array([complex(u.coeffs.get(k, 0)) for k in keys])
        gv = L.conj().T @ np.array([complex(green.coeffs.get(k, 0))
                                    for k in keys])
        Vk = V[:, kernel]
        hv = Vk @ (Vk.conj().T @ v)
        tol = 1e-8 * np.linalg.norm(v)
        if np.linalg.norm(lap @ gv - (v - hv)) > tol:
            bad.append("Green operator does not invert the Laplacian")
        if abs(np.linalg.norm(hv) - harm) > tol:
            bad.append("harmonic projection norm is wrong")
        if not flow.ok or flow.trivial or flow.observed_order < 1.9 \
                or flow.steps[-1].rel_error >= 1e-4:
            bad.append("flow derivative order %.3f" % flow.observed_order)
        if gauge.max_deviation > 1e-10 or not gauge.reversal_ok \
                or max(gauge.closure_del_norm, gauge.closure_delbar_norm) > 1e-12:
            bad.append("gauge deviation %.3e" % gauge.max_deviation)
        return bad


def _hessian_det_positive(phi, gram):
    """det(g + i ddbar phi) and whether g + i ddbar phi is positive definite
    at every grid point, by numpy real FFTs, for complex dimension 2 or 3.

    Axes run x1, y1, x2, y2, ...; with wave numbers m (x) and n (y) the (j,k)
    entry has symbol -pi^2 (m_j - i n_j)(m_k + i n_k), applied as its real and
    imaginary parts.  The last axis holds the half spectrum, so its Nyquist
    wave number is +res/2 while the other axes take -res/2.  Positivity is
    Sylvester's criterion on the leading principal minors, in closed form so
    that the check allocates less than the solve it checks.
    """
    d = phi.ndim // 2
    res = phi.shape[0]
    ax = []
    for a in range(2 * d):
        wav = (np.fft.rfftfreq(res) if a == 2 * d - 1 else np.fft.fftfreq(res)) * res
        shape = [1] * (2 * d)
        shape[a] = len(wav)
        ax.append(wav.reshape(shape))
    phat = np.fft.rfftn(phi)
    A = {}
    for j in range(d):
        mj, nj = ax[2 * j], ax[2 * j + 1]
        for k in range(j, d):
            mk, nk = ax[2 * k], ax[2 * k + 1]
            A[j, k] = gram[j, k] + np.fft.irfftn(
                -np.pi ** 2 * (mj * mk + nj * nk) * phat, s=phi.shape)
            if k > j:
                A[j, k] = A[j, k] + 1j * np.fft.irfftn(
                    -np.pi ** 2 * (mj * nk - nj * mk) * phat, s=phi.shape)
    a11, a22, a12 = A[0, 0].real, A[1, 1].real, A[0, 1]
    minor2 = a11 * a22 - np.abs(a12) ** 2
    if d == 2:
        det = minor2
    else:
        a33, a13, a23 = A[2, 2].real, A[0, 2], A[1, 2]
        det = (minor2 * a33 + 2 * (a12 * a23 * np.conj(a13)).real
               - a11 * np.abs(a23) ** 2 - a22 * np.abs(a13) ** 2)
    return det, min(a11.min(), minor2.min(), det.min()) > 0


class MASolve(Workload):
    """Three solve_ma runs at tol 1e-9: one Krylov-bound, two grid-bound."""

    name = "ma-solve"
    TOL = 1e-9

    def __init__(self, seed, workdir):
        rng = _rng(seed, self.name)
        e = lambda: 1 + rng.uniform(-0.02, 0.02)
        # (shape, complex dimension, resolution, Fourier modes)
        specs = (
            ("krylov", 2, 16, [((1, 0, 1, 0), 2 * e()), ((0, 1, 0, 1), e()),
                               ((1, 1, 0, 0), 2 / 3 * e())]),
            ("grid_d2r32", 2, 32, [((1, 0, 0, 0), 0.1 * e())]),
            ("grid_d3r8", 3, 8, [((1, 0, 1, 0, 0, 0), 0.1 * e()),
                                 ((0, 0, 0, 0, 1, 0), 0.05 * e())]),
        )
        self.solves = [(shape, masolver.ScalarField.from_modes(
            masolver.TorusGrid(d, res), modes), np.eye(d))
            for shape, d, res, modes in specs]

    def inputs(self, i):
        return self.solves

    def run(self, inp):
        out = []
        for shape, F, gram in inp:
            result = masolver.solve_ma(F, gram, tol=self.TOL)
            if self.tracer is not None:
                dg = result.diagnostics
                self.tracer.count("masolver.newton_steps." + shape,
                                  dg.newton_iterations)
                self.tracer.count("masolver.krylov_iters." + shape,
                                  dg.gmres_iterations)
                self.tracer.count("masolver.damping_events." + shape,
                                  dg.damping_events)
            out.append(result)
        return out

    def check(self, inp, out):
        bad = []
        for (shape, F, gram), result in zip(inp, out):
            dg = result.diagnostics
            phi = result.phi.values
            det, positive = _hessian_det_positive(phi, gram)
            detg = np.linalg.det(gram).real
            eF = np.exp(F.values)
            C = det.mean() / (eF.mean() * detg)
            res = np.abs(det - C * eF * detg).max() / detg
            if not dg.converged or dg.residual_history[-1] > self.TOL:
                bad.append("%s: not converged" % shape)
            if res > self.TOL:
                bad.append("%s: residual %.3e" % (shape, res))
            if not positive:
                bad.append("%s: metric not positive" % shape)
            if abs(result.C * eF.mean() - 1) > 1e-9:
                bad.append("%s: conservation gap" % shape)
            if phi.max() != 0.0:
                bad.append("%s: sup phi = %r" % (shape, phi.max()))
        return bad


class CLISession(Workload):
    """The six README subcommands as fresh ``python -m balmap.cli`` processes
    with seeded arguments and input files."""

    name = "cli-session"
    rss_of_children = True

    def __init__(self, seed, workdir):
        # every task repeats the same commands: each runs in a fresh process,
        # so nothing carries over between tasks
        self.workdir = workdir
        self.env = dict(os.environ)
        with open(GOLDEN) as fh:
            self.golden = json.load(fh)["models"]
        rng = _rng(seed, self.name)
        tuple_path = os.path.join(workdir, "session.tuple")
        a = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        b = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        with open(tuple_path, "w") as fh:
            fh.write("tuple z3\nmodel iwasawa\ngamma_policy neumann\n"
                     "xi 0 0 0 0 %s 0\netabar 0 0 0 0 %s 0\n" % (a, b))
        modes_path = os.path.join(workdir, "session.modes")
        e = lambda: 1 + rng.uniform(-0.02, 0.02)
        with open(modes_path, "w") as fh:
            fh.write("1 0 0 0 %r\n0 0 1 0 %r\n" % (0.1 * e(), 0.05 * e()))
        model = rng.choice(sorted(self.golden))
        dim = MODELS[model].dim
        p, q = rng.randint(0, dim), rng.randint(0, dim)
        kind = rng.choice(("aeppli", "bottchern"))
        self.golden_dim = self.golden[model]["%d,%d" % (p, q)][kind]
        c = "%s" % Fraction(rng.randint(1, 2), rng.randint(3, 5))
        cli_seed = str(rng.randrange(1000))
        self.commands = [
            ["catalog"],
            ["verify-identities", "--seed", cli_seed, "--trials", "50"],
            ["cohomology", "--model", model, "--p", str(p), "--q", str(q),
             "--kind", kind],
            ["moment", "--map", "iwasawa_to_t3", "--tuple", tuple_path,
             "--seed", cli_seed],
            ["theorem", "--map", "nakamura_shear", "--xi", c + ",0,0",
             "--eta", c + ",0,0"],
            ["ma", "--dim", "2", "--res", "8", "--modes", modes_path,
             "--tol", "1e-9"],
        ]

    def inputs(self, i):
        return i, self.commands, self.golden_dim

    def run(self, inp):
        task, commands, _ = inp
        out = []
        for k, argv in enumerate(commands):
            argv = argv + ["--format", "structured"]
            if self.tracer is None:
                proc = subprocess.run([sys.executable, "-m", "balmap.cli"] + argv,
                                      capture_output=True, text=True,
                                      env=self.env)
            else:
                proc = self._traced(task, k, argv)
            out.append((proc.returncode, proc.stdout, proc.stderr))
        return out

    def _traced(self, task, k, argv):
        spans_path = os.path.join(self.workdir, "spans%d-%d.json" % (task, k))
        launcher = [sys.executable, os.path.join(HERE, "cli_child.py"),
                    spans_path, str(task), "--"]
        idx = self.tracer.open("cli.command." + argv[0])
        try:
            proc = subprocess.run(launcher + argv, capture_output=True,
                                  text=True, env=self.env)
        finally:
            self.tracer.close(idx)
        if os.path.exists(spans_path):
            with open(spans_path) as fh:
                child = json.load(fh)
            os.remove(spans_path)
            self.tracer.merge(child["spans"], child["counts"], idx)
        return proc

    def check(self, inp, out):
        _, commands, golden_dim = inp
        bad = []
        for argv, (code, stdout, stderr) in zip(commands, out):
            sub = argv[0]
            if code != 0:
                bad.append("%s exited %d: %s" % (sub, code, stderr[-300:]))
                continue
            try:
                lines = [json.loads(line) for line in stdout.splitlines()]
            except ValueError:
                bad.append("%s: report does not parse" % sub)
                continue
            header, summary = lines[0], lines[-1]
            if (header.get("schema") != "balmap-report/1"
                    or header.get("command") != sub
                    or summary.get("type") != "summary"
                    or summary.get("ok") is not True
                    or summary.get("checks") != len(lines) - 2
                    or any(r.get("status") == "fail" for r in lines[1:-1])):
                bad.append("%s: report is not a passing report" % sub)
            if sub == "cohomology" and \
                    header.get("extra", {}).get("dimension") != golden_dim:
                bad.append("cohomology dimension differs from the golden")
            if sub == "catalog":
                names = {r.get("name") for r in lines[1:-1]}
                missing = {"model-" + m for m in self.golden} - names
                if missing:
                    bad.append("catalog misses %s" % sorted(missing))
        return bad


WORKLOADS = {w.name: w for w in (CLISession, ExactAlgebra, HodgeMoment,
                                 MASolve)}
