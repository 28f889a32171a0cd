"""Seeded fuzz of the command line: malformed input never escapes.

Each case runs ``balmap.cli.main(argv)`` in-process with malformed argument
values or with a malformed model, map, tuple, mode or sample file, made by
mutating the tokens and lines of a valid file.  Whatever the input, the exit
code must be 0, 1 or 2 (argparse usage errors exit 2 through SystemExit) and
no exception may escape.

Only malformed values are drawn, not well-formed large ones: a huge trial
count or model dimension is valid input whose cost no size guard bounds yet.
Solver grids have at most 8**4 points unless the grid is one that TorusGrid
rejects before any array is allocated.  The one exception is the forcing's
amplitude, whose cost is bounded: well-formed mode files with amplitudes
from 1e1 to 1e308 must give a report or an input error.
"""

import random

import pytest

from balmap.cli import main

# integers stay small: a token may land on a model's dim line
BAD = ["", "x", "-1", "0", "1", "2", "4", "1/0", "0/0", "-2/3", "nan", "inf",
       "-inf", "1e309", "1e-400", "0.5", "1+2j", "i", "~", "1~", "~1~", "3~3",
       "--", ",", "1,2", "#", "é"]

MODEL = "name m\ndim 3\nvolume_scale 1\ndiff 3 12 -1 0\ndiff 3 1~2 1/2 0\n"
MAP = ("map f\nsource iwasawa\ntarget torus3\nrow 1 1 0 0 0 0 0\n"
       "row 2 0 0 1 0 0 0\nrow 3 0 0 0 0 0 0\nomega 1 1 0 1\n")
TUPLE = ("tuple t\nmodel iwasawa\ngamma_policy neumann\n"
         "xi 0 0 0 0 1 0\netabar 0 0 0 0 1 0\n")
MODES = "1 0 0.3\n0 1 0 0.2\n"

# (dim, res) pairs: at most 8**4 points, or rejected when the grid is built
GRIDS = [(1, 8), (1, 16), (1, 64), (2, 8), (1, 8), (2, 8), (2, 128), (3, 32),
         (1, 12), (2, 4), (0, 8), (-1, 8), (4, 8), (7, 8), (1, 2 ** 40)]


def mutate(rng, text):
    """One to three token or line edits of a valid file, mostly one token."""
    lines = text.splitlines()
    for _ in range(rng.choice((1, 1, 2, 3))):
        i = rng.randrange(len(lines)) if lines else 0
        edit = rng.choice((0, 0, 0, 1, 2, 3, 4, 5))
        if edit == 0 and lines:
            toks = lines[i].split() or [""]
            toks[rng.randrange(len(toks))] = rng.choice(BAD)
            lines[i] = " ".join(toks)
        elif edit == 1 and lines:
            del lines[i]
        elif edit == 2 and lines:
            lines.insert(i, lines[i])
        elif edit == 3 and lines:
            toks = lines[i].split()
            lines[i] = " ".join(toks[:rng.randrange(len(toks) + 1)])
        elif edit == 4:
            lines.insert(i, " ".join(rng.choice(BAD) for _ in range(3)))
        else:
            rng.shuffle(lines)
    return "\n".join(lines) + rng.choice(["\n", ""])


def bad_fields(rng):
    """A frame-coefficient list with one entry replaced or one too many."""
    entries = ["1/2", "0", "0"]
    if rng.random() < 0.2:
        entries.append(rng.choice(BAD))
    else:
        entries[rng.randrange(3)] = rng.choice(BAD + ["2/3", "-1"])
    return ",".join(entries)


def case(rng, tmp):
    """One argv with a malformed input in it."""
    def file(name, text):
        path = tmp / ("%s-%d" % (name, rng.randrange(10 ** 9)))
        path.write_text(mutate(rng, text))
        return str(path)

    kind = rng.randrange(8)
    if kind == 0:
        argv = ["cohomology", "--model", file("m", MODEL),
                "--p", rng.choice(["0", "1", "2", "3"]),
                "--q", rng.choice(["0", "1", "3"]),
                "--kind", rng.choice(["aeppli", "bottchern"])]
    elif kind == 1:
        argv = ["cohomology", "--model",
                rng.choice(["iwasawa", "torus2", "nosuch", str(tmp / "none")]),
                "--p", rng.choice(BAD), "--q", rng.choice(BAD),
                "--kind", rng.choice(["aeppli", "bottchern", "x"])]
    elif kind == 2:
        argv = ["moment", "--map", rng.choice([file("f", MAP), "iwasawa_to_t3"]),
                "--tuple", file("t", TUPLE)]
    elif kind == 3:
        argv = ["theorem", "--map", rng.choice(["nakamura_shear", "iwasawa_to_t3",
                                                file("f", MAP)]),
                "--xi", bad_fields(rng), "--eta", bad_fields(rng),
                "--steps", rng.choice(["0.1,0.05", ",".join(
                    rng.choice(BAD) for _ in range(rng.randint(1, 3)))])]
    elif kind in (4, 5):
        dim, res = rng.choice(GRIDS)
        argv = ["ma", "--dim", str(dim), "--res", str(res),
                "--tol", rng.choice(["1e-9", "1e-6", rng.choice(BAD)])]
        if kind == 4:
            argv += ["--modes", file("modes", MODES)]
        else:
            n = res ** (2 * dim) if 1 <= dim <= 3 else 0
            argv += ["--samples", file("samples", "\n".join(
                "%.3f" % rng.uniform(-0.1, 0.1)
                for _ in range(n if 0 < n <= 8 ** 4 else 4)))]
    elif kind == 6:   # the two commands that take a seed and a trial count
        tuple_path = tmp / "valid.tuple"
        tuple_path.write_text(TUPLE)
        argv = rng.choice([["verify-identities"], [
            "moment", "--map", "iwasawa_to_t3", "--tuple", str(tuple_path)]])
        argv += ["--trials", rng.choice(["1", "2"] + BAD),
                 "--seed", rng.choice(["0", "7"] + BAD)]
    else:
        argv = rng.choice([["catalog"], ["cohomology", "--model", "iwasawa",
                                         "--p", "1", "--q", "1", "--kind",
                                         "bottchern"]])
        argv += ["--format", rng.choice(["human", "structured", "json"]),
                "--output", rng.choice([str(tmp / "out.txt"),
                                        str(tmp / "no" / "out.txt"), str(tmp)])]
    return argv


@pytest.mark.parametrize("seed", range(6))
def test_malformed_input_never_escapes(seed, tmp_path, capsys):
    rng = random.Random(seed)
    for _ in range(50):
        argv = case(rng, tmp_path)
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        assert code in (0, 1, 2), argv
        capsys.readouterr()


@pytest.mark.parametrize("seed", range(2))
def test_large_forcing_amplitudes_report_or_exit_2(seed, tmp_path, capsys):
    # e^F overflows or underflows in the forcing's mean from |F| of about 700
    # on, and an amplitude past 1.8e308 reads as inf: either is an input
    # error naming the forcing, never a traceback
    rng = random.Random(seed)
    path = tmp_path / "large.modes"
    for _ in range(40):
        dim = rng.choice((1, 2))
        amp = "%s%.1fe%d" % (rng.choice(("", "-")), rng.uniform(1, 10),
                             rng.randint(1, 308))
        index = rng.choice(([0] * 2 * dim, [1] + [0] * (2 * dim - 1)))
        path.write_text(" ".join(map(str, index)) + " " + amp + "\n")
        code = main(["ma", "--dim", str(dim), "--res", "8", "--modes",
                     str(path)])
        out, err = capsys.readouterr()
        if code == 2:
            assert "input error: forcing" in err, (index, amp)
        else:
            assert code in (0, 1) and "checks" in out, (index, amp)
