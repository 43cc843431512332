"""The FAL and WGA checks against the former strand walks.

`validate_fal` and `check_wga` read a condition from the vertex kinds
when the kinds settle it: `validate_fal` walks the strands only for a
diagram with both circles and crossings, and `check_wga` not for one of
crossings only.  The references below walk every strand, as
the checks did before, and must give equal reports on every kind of
input: circles only, crossings only, both, vertices not 4-valent, and the
empty diagram."""

import random

from surflink.errors import Claim, SurflinkError, UnfilledCircle
from surflink.fal_diagram import (
    ValidationReport,
    WgaReport,
    check_wga,
    fill_all,
    validate_fal,
)
from surflink.generator import generate_fal
from surflink.io import diagram_from_json_dict
from surflink.surface_map import checkerboard_coloring, genus
from test_cli import EMPTY_DIAGRAM, ONE_CIRCLE_NOT_FOUR_VALENT, ONE_CROSSING_NOT_FOUR_VALENT
from test_fal_diagram import (
    connect_sum_of_trefoils,
    count_computations,
    random_decorated,
    random_map_any_degree,
    reference_check_alternating,
    reference_strand_components,
    trefoil,
)
from test_weak_primeness import connect_sum, kink, reference_check_weakly_prime, torus_grid


def reference_validate_fal(diagram):
    """The former validate_fal: every strand is walked for its anchor."""
    m = diagram.map
    four_valent = all(m.degree(v) == 4 for v in range(m.vertex_count))
    circles = set(diagram.circles)
    crossings = set(diagram.crossings)
    crossing_discs = all(m.degree(v) == 4 for v in circles)
    if circles and crossings:
        anchored = all(any(m.vertex_of(m.opposite[d]) in circles for d in m.rotation[v]) for v in crossings)
    else:
        anchored = True
    anchors = circles or crossings
    meet = all(any(m.vertex_of(d) in anchors for d in comp) for comp in reference_strand_components(diagram))
    cellular = four_valent and genus(m) == diagram.genus
    return ValidationReport(four_valent, crossing_discs, anchored, meet, cellular)


INCOMPRESSIBLE = Claim("asserted", float("inf"), ("the projection surface is incompressible",))


def reference_check_wga(diagram, surface_incompressible):
    """The former check_wga: every strand is walked for a crossing."""
    m = diagram.map
    crossings = set(diagram.crossings)
    try:
        alternating = reference_check_alternating(diagram)
    except UnfilledCircle:
        alternating = False
    weakly_prime, witness = reference_check_weakly_prime(diagram)
    per_component = all(
        any(m.vertex_of(d) in crossings for d in comp) for comp in reference_strand_components(diagram)
    )
    return WgaReport(
        weakly_prime=weakly_prime,
        weakly_prime_witness=witness,
        components_on_all_surfaces=genus(m) == diagram.genus,
        crossing_per_component=per_component,
        checkerboard=checkerboard_coloring(m) is not None,
        alternating=alternating,
        representativity=INCOMPRESSIBLE if surface_incompressible else None,
    )


def _outcome(f, *args):
    try:
        return f(*args)
    except SurflinkError as exc:
        return type(exc), str(exc)


def kind_of(diagram):
    circles, crossings = bool(diagram.circles), bool(diagram.crossings)
    return {(True, False): "circles", (False, True): "crossings", (True, True): "mixed"}.get(
        (circles, crossings), "empty"
    )


def assert_checks_match(diagram):
    """Assert both checks equal their references on `diagram`; return its
    kind and the two strand flags the references gave."""
    expected = _outcome(reference_validate_fal, diagram)
    assert _outcome(validate_fal, diagram) == expected
    for incompressible in (True, False):
        expected_wga = _outcome(reference_check_wga, diagram, incompressible)
        assert _outcome(check_wga, diagram, incompressible) == expected_wga
    meet = expected.components_meet_circles if isinstance(expected, ValidationReport) else None
    per_component = expected_wga.crossing_per_component if isinstance(expected_wga, WgaReport) else None
    return kind_of(diagram), meet, per_component


def generated_diagrams():
    """Generated diagrams with circles only, each filled in full and in
    part, and each with a trefoil spliced in."""
    rng = random.Random(0)
    for g, c, seed in ((2, 4, 1), (2, 6, 4), (3, 5, 2), (2, 12, 7), (3, 9, 3)):
        d = generate_fal(g, c, seed=seed, half_twist_probability=0.5)
        yield d
        yield fill_all(d, {k: rng.choice((1, -1, 2)) for k in d.circles})
        yield fill_all(d, {k: 1 for k in rng.sample(d.circles, c // 2)})
        yield connect_sum(d, trefoil(), seed, 0)
        yield connect_sum(fill_all(d, {k: -1 for k in d.circles}), trefoil(), seed, 1)


def fixtures():
    yield from (trefoil(), kink(), torus_grid(), connect_sum_of_trefoils())
    for data in (*ONE_CIRCLE_NOT_FOUR_VALENT.values(), *ONE_CROSSING_NOT_FOUR_VALENT.values(), EMPTY_DIAGRAM):
        yield diagram_from_json_dict(data)


def test_checks_match_the_strand_walks_on_generated_diagrams_and_fixtures():
    seen = {assert_checks_match(d) for d in (*generated_diagrams(), *fixtures())}
    assert {kind for kind, _, _ in seen} == {"circles", "crossings", "mixed", "empty"}


def test_checks_match_the_strand_walks_on_random_maps():
    """Random maps of any degree with circles only, and random decorated
    maps of degree 4 and 6 with both kinds or crossings only.  Both flags
    come out false as well as true, so the comparison is not vacuous."""
    rng = random.Random(1)
    seen = set()
    for _ in range(600):
        for d in (random_map_any_degree(rng), random_decorated(rng)):
            if d is not None:
                seen.add(assert_checks_match(d))
    assert {kind for kind, _, _ in seen} == {"circles", "crossings", "mixed"}
    assert {meet for _, meet, _ in seen} == {True, False}
    assert {per_component for _, _, per_component in seen} == {True, False}


def test_checks_walk_no_strands_when_the_kinds_decide(monkeypatch):
    d = generate_fal(2, 6, seed=4, require_checkerboard=True)
    filled = fill_all(d, {k: 1 for k in d.circles})
    mixed = fill_all(d, {d.circles[0]: 1})
    partitions = count_computations(monkeypatch, "strands")
    assert validate_fal(d).ok and validate_fal(filled).ok
    check_wga(filled, surface_incompressible=True)
    assert partitions == []
    validate_fal(mixed)
    check_wga(mixed, surface_incompressible=True)
    assert partitions == [mixed]
