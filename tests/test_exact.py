"""Gaussian-rational scalars and exact linear algebra."""

import ast
import copy
import math
import operator
import pathlib
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from balmap import hodge
from balmap.catalog import MODELS
from balmap.exact import CRat, I, ONE, ZERO, exact_rank, exact_solve, ipow
from balmap.hodge import (HermitianMetricSpec, MetricContext, aeppli_dim,
                          bc_dim, exact_ddbar_solve, operator_rows)
from balmap.invariant import (HH, MIX, DiffTerm, InvForm, LieModel,
                              operator_rows_exact)
from oracles import FracPair, bareiss_rank
from test_properties import random_nilpotent_model


def rand_crat(rng):
    return CRat(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def test_field_axioms_random():
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = (rand_crat(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a / b) * b == a
        assert a * a.conjugate() == CRat(a.re * a.re + a.im * a.im)


def test_ipow_cycle():
    assert ipow(0) == ONE and ipow(1) == I
    assert ipow(2) == CRat(-1) and ipow(3) == CRat(0, -1)
    assert ipow(9) == I and ipow(-1) == CRat(0, -1)


def test_mixed_arithmetic_degrades_to_complex():
    a = CRat(Fraction(1, 2), 1)
    assert a + 0.5 == complex(1.0, 1.0)
    assert (a * 2j) == complex(a) * 2j


def sparse(rows):
    """Dense rows as the rows {column: CRat} of their nonzero entries."""
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


def apply(rows, x):
    return [sum((a * x[j] for j, a in r.items()), ZERO) for r in rows]


def test_exact_rank_against_integer_oracle():
    rng = random.Random(1)
    for _ in range(30):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rand_crat(rng) if rng.random() < 0.7 else ZERO
                 for _ in range(nc)] for _ in range(nr)]
        assert exact_rank(sparse(rows)) == bareiss_rank(rows)


def test_exact_solve_round_trips():
    rng = random.Random(2)
    for _ in range(30):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = sparse([[rand_crat(rng) if rng.random() < 0.7 else ZERO
                        for _ in range(nc)] for _ in range(nr)])
        x0 = [rand_crat(rng) if rng.random() < 0.7 else ZERO
              for _ in range(nc)]
        rhs = apply(rows, x0)
        before = [dict(r) for r in rows]
        x = exact_solve(rows, rhs, nc)
        assert x is not None and len(x) == nc
        assert apply(rows, x) == rhs
        assert rows == before
        # x is 0 off the leftmost independent columns, as an RREF gives it
        dense = [[r.get(j, ZERO) for j in range(nc)] for r in rows]
        ranks = [bareiss_rank([row[:j] for row in dense]) if j else 0
                 for j in range(nc + 1)]
        assert all(ranks[j + 1] > ranks[j] or not x[j] for j in range(nc))


def test_exact_solve_reports_inconsistency():
    rows = sparse([[ONE, ONE], [ONE, ONE]])
    assert exact_solve(rows, [ONE, CRat(2)], 2) is None
    # a zero row with a nonzero right-hand side
    assert exact_solve([{0: ONE}, {}], [ONE, I], 1) is None


def test_sparse_elimination_edge_cases():
    assert exact_rank([]) == 0 and exact_rank([{}, {}]) == 0
    assert exact_solve([], [], 3) == [ZERO] * 3
    # a zero right-hand-side entry is no entry: zero rows stay consistent
    assert exact_solve([{}, {}], [ZERO, ZERO], 2) == [ZERO, ZERO]
    # free unknowns are 0
    assert exact_solve([{0: ONE, 1: ONE}], [ONE], 2) == [ONE, ZERO]
    assert exact_solve([{1: CRat(2)}], [I], 3) == [ZERO, CRat(0, Fraction(1, 2)),
                                                   ZERO]
    rows = [{0: ONE, 2: I}, {1: CRat(3)}, {0: CRat(2), 2: CRat(0, 2)}]
    assert exact_rank(rows) == 2
    x = exact_solve(rows, [I, ZERO, CRat(0, 2)], 3)
    assert x == [I, ZERO, ZERO]


def filiform(n):
    """d(phi_k) = phi_1 ^ phi_(k-1) for k >= 3."""
    return LieModel("filiform%d" % n, n, {k: [DiffTerm(HH, 1, k - 1, ONE)]
                                           for k in range(3, n + 1)})


def fresh_rows(model, top):
    """Rows of del, delbar and ddbar at every (p,q) in -1..top, each built
    anew by applying the operator to every basis form; ddbar is applied as
    del after delbar, not as a product of rows."""
    ddbar = lambda u: model.ce_del(model.ce_delbar(u))
    ops = {"del": (model.ce_del, 1, 0), "delbar": (model.ce_delbar, 0, 1),
           "ddbar": (ddbar, 1, 1)}
    return {(kind, p, q): operator_rows_exact(model, op, p, q, p + a, q + b)
            for kind, (op, a, b) in ops.items()
            for p in range(-1, top + 1) for q in range(-1, top + 1)}


def test_rank_of_operator_rows_against_integer_oracle():
    model = filiform(4)
    for (kind, p, q), want in fresh_rows(model, 4).items():
        rows = operator_rows(model, kind, p, q)
        assert rows == want, (kind, p, q)
        ncols = len(model.basis_keys(p, q))
        assert all(all(r.values()) and max(r, default=-1) < ncols
                   for r in rows)
        dense = [[r.get(j, ZERO) for j in range(ncols)] for r in rows]
        assert exact_rank(rows) == bareiss_rank(dense), (kind, p, q)


def test_operator_store_matches_fresh_rows_after_use():
    generated = [random_nilpotent_model(random.Random(s), 4) for s in (3, 4)]
    # d(phi4) = d(phi5) = phi1 ^ phibar1 + phi2 ^ phi3: on phi4 ^ phi5 the
    # two paths through delbar then del cancel, so the ddbar row product
    # holds sums that vanish and must drop them
    d45 = [DiffTerm(MIX, 1, 1, ONE), DiffTerm(HH, 2, 3, ONE)]
    cancelling = LieModel("cancelling", 5, {4: d45, 5: d45})
    for model in [*MODELS.values(), *generated, cancelling]:
        n = model.dim
        # callers reach one bidegree past dim: aeppli_dim at q = n asks for
        # ddbar at (p, n), hence del at (p, n + 1)
        want = fresh_rows(model, n + 1)
        for p, q in np.ndindex(n + 2, n + 2):
            assert operator_rows(model, "ddbar", p - 1, q - 1) == want[
                ("ddbar", p - 1, q - 1)], (model.name, p, q)
        for p, q in np.ndindex(n + 1, n + 1):
            bc_dim(model, p, q)
            aeppli_dim(model, p, q)
            ones = InvForm(model, {k: ONE for k in model.basis_keys(p, q)})
            for target in (ones, model.ce_del(model.ce_delbar(ones))):
                if target.bidegree() is not None:
                    exact_ddbar_solve(model, target)
        # no caller modified the shared rows
        assert model.op_rows and all(
            rows == want[key] for key, rows in model.op_rows.items())
        ctx = MetricContext(HermitianMetricSpec.flat(model))
        for (kind, p, q), rows in want.items():
            ncols = len(model.basis_keys(p, q))
            dense = np.zeros((len(rows), ncols), dtype=complex)
            for i, r in enumerate(rows):
                for j, c in r.items():
                    dense[i, j] = complex(c)
            assert np.array_equal(ctx.op(kind, p, q), dense), (kind, p, q)


def test_operator_rows_are_built_once_per_operator_and_bidegree(monkeypatch):
    model = filiform(5)
    builds = []
    build = hodge.operator_rows_exact

    def counted(model, op, p, q, p_out, q_out):
        builds.append((p, q, p_out, q_out))
        return build(model, op, p, q, p_out, q_out)

    monkeypatch.setattr(hodge, "operator_rows_exact", counted)
    totals = []
    for _ in range(2):
        for p, q in np.ndindex(6, 6):
            bc_dim(model, p, q)
            aeppli_dim(model, p, q)
        totals.append(len(builds))
    # del and delbar, each at most once per bidegree (ddbar is their
    # product), and nothing more in the second round
    assert len(set(builds)) == totals[0] == totals[1] <= 96


def test_filiform_bott_chern_dimensions_at_the_middle_bidegree():
    # the dense Gauss-Jordan elimination this one replaced gave these
    assert bc_dim(filiform(6), 3, 3) == 80
    assert bc_dim(filiform(7), 3, 3) == 180


# -- CRat against the Fraction-pair oracle -------------------------------------

# large coprime denominators: two Mersenne primes, a product of two primes
# and a power of two
BIG_DENS = (2 ** 61 - 1, 2 ** 31 - 1, 1000003 * 998244353, 2 ** 64)


def oracle_operands(rng, count):
    def part():
        kind = rng.random()
        if kind < 0.2:
            return Fraction(0)
        if kind < 0.5:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        return Fraction(rng.randint(-10 ** 20, 10 ** 20), rng.choice(BIG_DENS))
    out = [CRat(0), CRat(-3), CRat(0, -1), CRat(Fraction(-1, 2 ** 61 - 1))]
    out += [CRat(part(), part()) for _ in range(count)]
    return out


def assert_normal_form(z):
    # the stored triple is the one .re and .im give over their common
    # denominator: positive, and with no common factor left
    re, im = z.re, z.im
    d = math.lcm(re.denominator, im.denominator)
    assert (z._a, z._b, z._d) == (re.numerator * (d // re.denominator),
                                  im.numerator * (d // im.denominator), d)
    assert d > 0 and math.gcd(z._a, z._b, z._d) == 1


def test_crat_matches_fraction_pair_oracle():
    rng = random.Random(11)
    xs = oracle_operands(rng, 40)
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)
    for x in xs:
        X = FracPair.of(x)
        assert_normal_form(x)
        assert bool(x) == bool(X) and repr(x) == repr(X)
        assert (-x) == -X and x.conjugate() == X.conjugate()
        assert_normal_form(-x)
        assert_normal_form(x.conjugate())
        assert complex(x) == complex(X)
        for y in rng.sample(xs, 8):
            Y = FracPair.of(y)
            assert (x == y) == (X == Y) and (x != y) == (not X == Y)
            for op in ops:
                if op is operator.truediv and not Y:
                    with pytest.raises(ZeroDivisionError):
                        x / y
                    continue
                z = op(x, y)
                assert type(z) is CRat
                assert z == op(X, Y), (op, x, y)
                assert repr(z) == repr(op(X, Y))
                assert_normal_form(z)
        for k in (0, 1, -7, Fraction(-3, 2 ** 61 - 1)):
            K = FracPair(k)
            assert x + k == X + K and k + x == K + X
            assert x - k == X - K and k - x == K - X
            assert x * k == X * K and k * x == K * X
            if k:
                assert x / k == X / K
            if X:
                assert k / x == K / X


def test_crat_equal_values_have_equal_fields_and_hashes():
    rng = random.Random(12)
    xs = [x for x in oracle_operands(rng, 20) if x]
    for x, y in zip(xs, xs[1:]):
        back = (x * y) / y
        assert back == x and hash(back) == hash(x)
        assert (back._a, back._b, back._d) == (x._a, x._b, x._d)
        assert (x + y) - y == x and x - x == ZERO and not (x - x)


def test_crat_hash_agrees_with_equality_for_real_values():
    assert CRat(1) == 1 and len({CRat(1), 1}) == 1
    half = Fraction(1, 2)
    assert CRat(half) == half and len({CRat(half), half}) == 1
    assert {CRat(-3): "x"}[-3] == "x" and {Fraction(2, 6): "y"}[CRat(1, 0) / 3] == "y"


def test_crat_division_by_zero():
    with pytest.raises(ZeroDivisionError, match="division by zero CRat"):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        CRat(Fraction(1, 3), 2) / 0
    with pytest.raises(ZeroDivisionError):
        1 / ZERO


def test_crat_is_immutable():
    x = CRat(Fraction(1, 3), -2)
    for name in ("re", "im", "_a", "_b", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 5)
    assert x == FracPair(Fraction(1, 3), -2)


def test_crat_copies_and_pickles():
    # the default slot-state restore would go through the raising __setattr__
    rng = random.Random(17)
    for x in oracle_operands(rng, 20):
        for y in (copy.copy(x), copy.deepcopy([x])[0],
                  pickle.loads(pickle.dumps(x))):
            assert type(y) is CRat and y == x and hash(y) == hash(x)
            assert_normal_form(y)


def test_crat_degrades_to_complex_with_floats():
    rng = random.Random(13)
    for x in oracle_operands(rng, 10):
        c = complex(FracPair.of(x))
        for f in (0.5, -2.0, 1.5 - 0.25j, 3j):
            assert x + f == c + f and f + x == f + c
            assert x - f == c - f and f - x == f - c
            assert x * f == c * f and f * x == f * c
            assert x / f == c / f
            if c:
                assert f / x == f / c
            assert type(x * f) is complex
        assert (x == c) == (complex(x) == c) and abs(x) == abs(c)
    assert CRat(Fraction(1, 2)) == 0.5 and CRat(0, 1) == 1j
    assert CRat(1).__add__("1") is NotImplemented
    with pytest.raises(TypeError):
        CRat(1) + "1"


def test_oracles_share_no_code_with_src():
    # tests/oracles.py may take CRat from the library as an input type and
    # nothing else
    tree = ast.parse((pathlib.Path(__file__).parent / "oracles.py").read_text())
    seen = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            seen += [(a.name, None) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in oracles.py"
            seen += [(node.module, a.name) for a in node.names]
    from_balmap = [(m, n) for m, n in seen
                   if m == "balmap" or m.startswith("balmap.")]
    assert from_balmap == [("balmap.exact", "CRat")], from_balmap
