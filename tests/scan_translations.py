"""Seeded scan of the grid translations ``solve_ma`` finds for a forcing.

Usage:
    PYTHONPATH=<tree>/src python tests/scan_translations.py run > T.json
    python tests/scan_translations.py compare OLD.json NEW.json

``run`` draws 300 forcings (d = 1 to 3, seeded), half ``from_modes`` and
half ``oracles.manufactured_forcing`` of the same modes, whose harmonics
reach the Nyquist planes, and writes the translations that
``masolver._translations`` keeps on each forcing's constant-axis cut.
``compare`` reads two such files, from two source trees, and prints each
draw whose group differs, with the solve's points on each side, and how
many draws found the same group, a larger one, a smaller one or neither.
It exits 1 if any group of OLD is not contained in NEW's.
"""

import json
import random
import sys

import numpy as np

DRAWS = 300
GRIDS = {1: (8, 16, 32, 64), 2: (8, 16), 3: (8,)}


def draw(rng):
    """(d, res, modes): 1 to 4 modes from 1 to 2d - 1 small integer
    generators, so that many draws leave some translation unchanged; each
    amplitude is at most 0.005 / |k|^2, which keeps g + H(phi*) positive."""
    d = rng.choice((1, 2, 2, 3))
    res = rng.choice(GRIDS[d])
    gens = [[rng.randint(-2, 2) for _ in range(2 * d)]
            for _ in range(rng.randint(1, max(1, 2 * d - 1)))]
    modes = []
    for _ in range(rng.randint(1, 4)):
        k = [sum(rng.randint(-1, 1) * g[a] for g in gens) for a in range(2 * d)]
        if any(k):
            modes.append((tuple(k), rng.choice((0.002, 0.005))
                          / sum(c * c for c in k)))
    return d, res, modes or [((1,) + (0,) * (2 * d - 1), 0.005)]


def run():
    from balmap import masolver
    from oracles import manufactured_forcing
    rng = random.Random(0)
    out = []
    for i in range(DRAWS):
        d, res, modes = draw(rng)
        grid = masolver.TorusGrid(d, res)
        if i % 2:
            F = manufactured_forcing(res, modes, np.eye(d))[1]
            assert np.isfinite(F).all(), modes
            kind = "manufactured"
        else:
            F = masolver.ScalarField.from_modes(
                grid, [(k, 10 * a) for k, a in modes]).values
            kind = "from_modes"
        cut = masolver._constant_axis_cut([F])
        out.append({"draw": i, "d": d, "res": res, "kind": kind,
                    "modes": modes,
                    "translations": masolver._translations(res, cut)})
    json.dump(out, sys.stdout)


def contains(res, basis, w):
    """Whether w lies in the group mod res spanned by ``basis``, whose
    vectors each have a pivot, a first odd entry of 1 where the others
    have 0: w less w's pivot entries times the vectors is then 0."""
    for v in basis:
        p = next(a for a, c in enumerate(v) if c % 2)
        w = [(x - w[p] * y) % res for x, y in zip(w, v)]
    return not any(w)


def points(rec, vectors):
    return (rec["res"] ** (2 * rec["d"])) // rec["res"] ** len(vectors)


def compare(old_path, new_path):
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    tally = {"same": 0, "larger": 0, "smaller": 0, "neither": 0}
    for a, b in zip(old, new):
        res, va, vb = a["res"], a["translations"], b["translations"]
        up = all(contains(res, vb, w) for w in va)
        down = all(contains(res, va, w) for w in vb)
        key = ("same" if up and down else "larger" if up
               else "smaller" if down else "neither")
        tally[key] += 1
        if key != "same":
            print("draw %d d=%d res=%d %s %s: %s -> %s, %d -> %d points"
                  % (a["draw"], a["d"], res, a["kind"], key, va, vb,
                     points(a, va), points(b, vb)))
    print(", ".join("%s %d" % kv for kv in tally.items()))
    return 0 if tally["smaller"] == tally["neither"] == 0 else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["run"]:
        run()
    else:
        sys.exit(compare(*sys.argv[2:4]))
