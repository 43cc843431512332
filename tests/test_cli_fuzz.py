"""Fuzz guard for the CLI exit contract on diagram files, family specs
and curve words.

Generated diagrams, unfilled and filled, are mutated as JSON: keys are
dropped, values change type, integers move a little or jump to huge values
and darts are duplicated.  Each mutant runs in-process through the diagram
commands.  Family specs of all three kinds, with an inline base, list-form
curves and every filling, get the same mutations; they reach list elements
such as `s` and `t` entries, `phi` exponents and curve entries, and run
through ``family``.  The ``curves`` commands get short words with junk
text mixed in, at genera from negative to far past the cap.  ``generate``
gets genera and circle counts from negative to far past its caps, with
seeds, half-twist probabilities and the checkerboard filter.  Every run
must end in exit 0, 1 or 2; exit 3 means an internal error.  A diagram
that ``validate`` reports as not four-valent or not cellular must also be
refused, with exit 2 and empty stdout, by every other diagram command.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from surflink import cli
from surflink.fal_diagram import fill_all
from surflink.generator import generate_fal
from surflink.io import diagram_to_json_dict
from test_cli import EMPTY_DIAGRAM, ONE_CIRCLE_NOT_FOUR_VALENT, ONE_CROSSING_NOT_FOUR_VALENT


def _bases():
    out = []
    for g, c, seed in ((2, 4, 1), (3, 5, 2)):
        d = generate_fal(g, c, seed=seed, half_twist_probability=0.5)
        out.append(diagram_to_json_dict(d))
        out.append(diagram_to_json_dict(fill_all(d, {k: (-1) ** k for k in d.circles})))
    return out


BASES = _bases()
ODD_VALUES = [None, "x", 1.5, True, [], {}, [[]], [None]]
BIG = [-1, -(2**40), 2**40, 10**30]


@st.composite
def mutants(draw, pool=BASES):
    data = copy.deepcopy(draw(st.sampled_from(pool)))
    for _ in range(draw(st.integers(1, 3))):
        if not data:
            break
        # A top-level key, then deeper into its value while the draw says so.
        node, key = data, draw(st.sampled_from(sorted(data)))
        while isinstance(node[key], (list, dict)) and node[key] and draw(st.booleans()):
            node = node[key]
            key = draw(st.sampled_from(range(len(node)) if isinstance(node, list) else sorted(node)))
        action = draw(st.sampled_from(["drop", "retype", "integer", "duplicate"]))
        if action == "drop":
            del node[key]
        elif action == "retype":
            node[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        elif action == "integer":
            value = node[key]
            if isinstance(value, int) and not isinstance(value, bool) and draw(st.booleans()):
                node[key] = value + draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
            else:
                node[key] = draw(st.sampled_from(BIG))
        elif isinstance(data.get("vertices"), list) and data["vertices"]:
            # duplicate: a dart already in use appears at a second slot.
            groups = [grp for grp in data["vertices"] if isinstance(grp, list) and grp]
            if groups:
                dart = draw(st.sampled_from(draw(st.sampled_from(groups))))
                draw(st.sampled_from(groups)).append(dart)
    return data


@given(mutants())
@example(dict(BASES[0], genus=BASES[0]["genus"] + 1))  # fill meets a wrong genus
@example(dict(BASES[1], genus=BASES[1]["genus"] + 3))  # augment meets a wrong genus
@example(ONE_CIRCLE_NOT_FOUR_VALENT["eight_valent"])  # fill used to exit 3
@example(ONE_CROSSING_NOT_FOUR_VALENT["six_valent"])  # fill used to write it back
@example(EMPTY_DIAGRAM)  # validate, decompose, fill and augment used to exit 0
@settings(max_examples=100, deadline=5000)
def test_mutated_diagrams_exit_zero_one_or_two(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "d.json"
    path.write_text(json.dumps(data))
    kinds = data.get("vertex_kind")
    c = kinds.count("circle") if isinstance(kinds, list) else 0
    commands = [
        ["validate", str(path), "--json"],
        ["decompose", str(path), "--json"],
        ["augment", str(path)],
        ["fill", str(path), "--t=" + ",".join(["1"] * c)],
        ["bounds", str(path), "--m", "2", "--json"],
    ]
    refused = False
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2), (argv[0], code, err.getvalue(), data)
        if argv[0] == "validate" and code != 2:
            # A map that validate reports as not four-valent or not cellular
            # is a violated precondition for every other diagram command.
            checks = json.loads(out.getvalue())["checks"]
            refused = not (checks["four_valent"] and checks["cellular"])
        elif refused:
            assert (code, out.getvalue()) == (2, ""), (argv[0], code, err.getvalue(), data)


def _specs():
    # fill_to_wga needs a checkerboard base; this one has four circles.
    base = diagram_to_json_dict(generate_fal(2, 4, seed=1, require_checkerboard=True))
    common = {"base": base, "m": 2, "t": [1, 2], "s": [1, -2, 1, 3]}
    return [
        dict(common, kind="TrivialMappingTorus", gamma_odd=[1, 0, 0, 0], gamma_even="b1"),
        dict(
            common,
            kind="MappingTorus",
            gamma_odd="a1",
            gamma_even=[2],
            phi=[["a1", 1], [[0, 1, 0, 0], -2]],
        ),
        dict(
            common,
            kind="DoubledThickenedSurface",
            base2=BASES[0],
            gamma_odd=[1, 2],
            gamma_even="b1",
            m=1,
            t=[3],
        ),
    ]


SPECS = _specs()


@given(mutants(SPECS))
@example({**{k: v for k, v in SPECS[0].items() if k != "t"}, "m": 10**12})  # m is only a count
@example(dict(SPECS[0], s=[2**40, 1, 1, 1]))  # fill past the crossing cap
@example(dict(SPECS[1], s=[10**30, 1, 1, 1]))
@settings(max_examples=100, deadline=5000)
def test_mutated_family_specs_exit_zero_one_or_two(tmp_path_factory, spec):
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    path.write_text(json.dumps(spec))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["family", str(path), "--json"])
    assert code in (0, 1, 2), (code, err.getvalue(), spec)


LETTERS = [f"{kind}{index}" for kind in "abAB" for index in (1, 2, 3)]
JUNK = ["", " ", "x", "a", "1", "a0", "c1", "a1b", "()", "é", "-1", "a 1"]
GENERA = [-1, 0, 1, 2, 3, 2**40, 10**30]
WORDS = st.lists(st.sampled_from(LETTERS + JUNK), max_size=10).map("".join)


@pytest.mark.parametrize("action,count", [("intersect", 2), ("reduce", 1), ("conjugate", 2)])
@given(words=st.lists(WORDS, min_size=2, max_size=2), genus=st.sampled_from(GENERA))
@example(words=["a1", "b1"], genus=10**10)  # dense 2g-entry vectors at a huge genus
@settings(max_examples=60, deadline=5000)
def test_curves_exit_zero_one_or_two(action, count, words, genus):
    argv = ["curves", action, *words[:count], "--genus", str(genus)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())


SIZES = [-(2**40), -1, 0, 1, 2, 3, 4, 5, 8, 2**40, 10**30]
PROBABILITIES = ["0", "0.3", "1", "-0.1", "1.5", "nan", "x"]


@given(
    genus=st.sampled_from(SIZES),
    circles=st.sampled_from(SIZES),
    seed=st.sampled_from([None, -1, 0, 7, 2**70]),
    probability=st.sampled_from(PROBABILITIES),
    checkerboard=st.booleans(),
)
@example(genus=2, circles=10**8, seed=None, probability="0", checkerboard=False)
@example(genus=10**6, circles=2 * 10**6, seed=None, probability="0", checkerboard=False)
@settings(max_examples=100, deadline=5000)
def test_generate_exit_zero_one_or_two(genus, circles, seed, probability, checkerboard):
    argv = ["generate", "--genus", str(genus), "--circles", str(circles)]
    argv += ["--half-twist-probability", probability] + ["--require-checkerboard"] * checkerboard
    argv += [] if seed is None else ["--seed", str(seed)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
