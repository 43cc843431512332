"""The pruned canonical form against the all-darts BFS it replaced."""

import random

from hypothesis import given, settings, strategies as st

from surflink.fal_diagram import (
    Crossing,
    CrossingCircle,
    FalDiagram,
    _dart_label,
    diagram_canonical_form,
    diagrams_isomorphic,
    fill_all,
)
from surflink.generator import generate_fal
from surflink.surface_map import CombinatorialMap, canonical_form
from test_surface_map import genus2_one_vertex, square_grid_torus, torus_one_vertex


def reference_canonical_form(m, dart_label=None):
    """Smallest breadth-first transcript over every start dart."""
    best = None
    for start in m.darts:
        label = {start: 0}
        order = [start]
        i = 0
        while i < len(order):
            d = order[i]
            i += 1
            for e in (m.rotation_successor(d), m.opposite[d]):
                if e not in label:
                    label[e] = len(order)
                    order.append(e)
        transcript = []
        for d in order:
            entry = [label[m.rotation_successor(d)], label[m.opposite[d]]]
            if dart_label is not None:
                entry.append(dart_label(d))
            transcript.append(tuple(entry))
        encoded = tuple(transcript)
        if best is None or encoded < best:
            best = encoded
    return best if best is not None else ()


def reference_diagram_form(diagram):
    return (diagram.genus, reference_canonical_form(diagram.map, dart_label=_dart_label(diagram)))


def relabel(diagram, rng, flip_half_twist=False):
    """The same diagram under a random dart permutation, vertex order and
    cyclic shift of every rotation.  A crossing shifted by an odd number of
    slots swaps its over pair, so its strands stay as they were.  With
    flip_half_twist, one circle's half-twist flag is toggled."""
    m = diagram.map
    darts = m.darts
    new_ids = rng.sample(range(10 * len(darts)), len(darts))
    dart = dict(zip(darts, new_ids))
    order = list(range(m.vertex_count))
    rng.shuffle(order)
    rotation, kinds = [], []
    for v in order:
        cycle = m.rotation[v]
        k = rng.randrange(len(cycle))
        rotation.append(tuple(dart[d] for d in cycle[k:] + cycle[:k]))
        kind = diagram.vertex_kind[v]
        if isinstance(kind, Crossing):
            kind = Crossing(kind.over_pair ^ (k % 2))
        kinds.append(kind)
    circles = [i for i, kind in enumerate(kinds) if isinstance(kind, CrossingCircle)]
    if flip_half_twist and circles:
        i = rng.choice(circles)
        kinds[i] = CrossingCircle(not kinds[i].half_twist, kinds[i].half_twist_sign)
    opposite = {dart[a]: dart[b] for a, b in m.opposite.items()}
    return FalDiagram(CombinatorialMap(tuple(rotation), opposite), diagram.genus, tuple(kinds))


@st.composite
def diagrams(draw):
    """Generated diagrams, some of them filled so crossings occur too."""
    g = draw(st.sampled_from((2, 3)))
    c = draw(st.integers(min_value=2 * g - 1, max_value=14))
    d = generate_fal(g, c, seed=draw(st.integers(0, 2**16)), half_twist_probability=0.3)
    if draw(st.booleans()):
        t = draw(st.lists(st.sampled_from((-2, -1, 1, 2)), min_size=c, max_size=c))
        k = draw(st.integers(1, c))
        d = fill_all(d, dict(zip(d.circles[:k], t)))
    return d


@given(diagrams(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_invariant_under_relabeling(d, rng):
    assert diagram_canonical_form(relabel(d, rng)) == diagram_canonical_form(d)


@given(diagrams(), st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=40, deadline=None)
def test_isomorphism_agrees_with_reference(d, rng, flip):
    other = relabel(d, rng, flip_half_twist=flip)
    expected = reference_diagram_form(d) == reference_diagram_form(other)
    assert diagrams_isomorphic(d, other) == expected


def test_distinct_generated_diagrams_agree_with_reference():
    pool = [generate_fal(2, 6, seed=s, half_twist_probability=0.5) for s in range(6)]
    for a in pool:
        for b in pool:
            expected = reference_diagram_form(a) == reference_diagram_form(b)
            assert diagrams_isomorphic(a, b) == expected


def test_half_twist_flip_is_seen():
    d = generate_fal(2, 5, seed=3)
    flipped = FalDiagram(d.map, d.genus, (CrossingCircle(True),) + d.vertex_kind[1:])
    assert not diagrams_isomorphic(d, flipped)


def test_one_class_maps_equal_the_reference():
    # Every dart of these maps gets the same colour, so every dart is a
    # start, exactly as in the all-darts search.
    for m in (genus2_one_vertex(), torus_one_vertex(), square_grid_torus()):
        assert canonical_form(m) == reference_canonical_form(m)
    rng = random.Random(5)
    d = FalDiagram(genus2_one_vertex(), 2, (CrossingCircle(),))
    assert diagram_canonical_form(relabel(d, rng)) == reference_diagram_form(d)
