"""Weak primeness by cycle-space cut labels, checked against the all-pairs
scan it replaced and against networkx connectivity."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from surflink import fal_diagram
from surflink.errors import MalformedMap
from surflink.fal_diagram import Crossing, FalDiagram, check_weakly_prime, fill_all
from surflink.generator import generate_fal
from surflink.surface_map import (
    CombinatorialMap,
    cut_along_two_cut,
    cycle_space_labels,
    _spanning_walk,
    genus,
    trace_faces,
)
from test_fal_diagram import connect_sum_of_trefoils, trefoil
from test_surface_map import flank_valid_pairs, reference_cut_along_two_cut, square_grid_torus


def reference_check_weakly_prime(diagram):
    """The all-pairs scan: cut along every same-corridor edge pair."""
    m = diagram.map
    fs = trace_faces(m)
    by_corridor = {}
    for d in m.edges():
        key = frozenset((fs.face_of[d], fs.face_of[m.opposite[d]]))
        if len(key) == 2:
            by_corridor.setdefault(key, []).append(d)
    for key in sorted(by_corridor, key=sorted):
        group = by_corridor[key]
        fa, fb = sorted(key)
        for i, e1 in enumerate(group):
            for e2 in group[i + 1 :]:
                a, b, disc_a, disc_b = cut_along_two_cut(m, e1, e2, fa, fb)
                if (disc_a and a.vertices) or (disc_b and b.vertices):
                    return False, (e1, e2)
    return True, None


def kink():
    """One crossing closed by two loops: a planar figure eight."""
    m = CombinatorialMap(((0, 1, 2, 3),), {0: 1, 1: 0, 2: 3, 3: 2})
    return FalDiagram(m, 0, (Crossing(0),))


def torus_grid():
    """Four crossings on the torus: splicing it in gives a separating
    candidate whose small side is not a disc."""
    return FalDiagram(square_grid_torus(), 1, tuple(Crossing(0) for _ in range(4)))


SUMMANDS = {"trefoil": trefoil, "kink": kink, "torus": torus_grid}


def connect_sum(d, piece, i, j):
    """Splice `piece` into edge i of d through its edge j.

    Of the two ways to rewire the pair of cut edges, the first that keeps
    the genus additive is used; None when neither does."""
    m, p = d.map, piece.map
    shift = max(m.darts) + 1
    rotation = m.rotation + tuple(tuple(x + shift for x in cycle) for cycle in p.rotation)
    a = m.edges()[i % m.edge_count]
    a2 = m.opposite[a]
    x = p.edges()[j % p.edge_count] + shift
    x2 = p.opposite[x - shift] + shift
    for u, w in ((x, x2), (x2, x)):
        opposite = {**m.opposite, **{s + shift: t + shift for s, t in p.opposite.items()}}
        opposite.update({a: u, u: a, a2: w, w: a2})
        out = CombinatorialMap(rotation, opposite)
        if genus(out) == d.genus + piece.genus:
            return FalDiagram(out, d.genus + piece.genus, d.vertex_kind + piece.vertex_kind)
    return None


@st.composite
def diagrams(draw, max_c=50):
    """Generated diagrams, g in {2, 3}, c <= max_c, with an optional
    summand spliced in at drawn edges."""
    g = draw(st.sampled_from((2, 3)))
    c = draw(st.integers(min_value=2 * g - 1, max_value=max_c))
    d = generate_fal(g, c, seed=draw(st.integers(0, 2**16)), half_twist_probability=0.3)
    summand = draw(st.sampled_from((None,) + tuple(sorted(SUMMANDS))))
    if summand is not None:
        spliced = connect_sum(d, SUMMANDS[summand](), draw(st.integers(0, 999)), draw(st.integers(0, 999)))
        if spliced is not None:
            d = spliced
    return d


@given(diagrams())
@settings(max_examples=30, deadline=None)
def test_label_scan_matches_all_pairs_scan(d):
    assert check_weakly_prime(d) == reference_check_weakly_prime(d)


def two_spliced_trefoils():
    """Two trefoils spliced into a filled diagram.  Each gives a witness in
    its own corridor, and the one in the corridor of smaller faces holds
    the larger edges, so only a scan in corridor order finds the reference's
    witness."""
    d = generate_fal(2, 4, seed=1)
    d = fill_all(d, {k: 1 for k in d.circles})
    return connect_sum(connect_sum(d, trefoil(), 2, 0), trefoil(), 5, 0)


@pytest.mark.parametrize("build", [connect_sum_of_trefoils, trefoil, kink, torus_grid, two_spliced_trefoils])
def test_fixtures_match_all_pairs_scan(build):
    d = build()
    assert check_weakly_prime(d) == reference_check_weakly_prime(d)


def test_spliced_diagrams_reach_both_verdicts(monkeypatch):
    """The differential test is not vacuous: splicing in a trefoil or a kink
    makes a diagram non-prime, a torus summand a separating candidate that
    is cut and found to bound no disc."""
    calls = []
    original = fal_diagram.cut_along_two_cut

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fal_diagram, "cut_along_two_cut", counting)
    for seed in range(3):
        base = generate_fal(2, 8, seed=seed)
        assert check_weakly_prime(base) == (True, None)
        # Splice at an edge between two distinct faces, so the curve around
        # the summand is a candidate.
        fs = trace_faces(base.map)
        edges = base.map.edges()
        at = next(i for i, e in enumerate(edges) if fs.face_of[e] != fs.face_of[base.map.opposite[e]])
        for name in ("trefoil", "kink"):
            d = connect_sum(base, SUMMANDS[name](), at, 0)
            verdict, witness = check_weakly_prime(d)
            assert not verdict
            assert (verdict, witness) == reference_check_weakly_prime(d)
        calls.clear()
        d = connect_sum(base, torus_grid(), at, 0)
        assert check_weakly_prime(d) == (True, None) == reference_check_weakly_prime(d)
        assert calls  # the spliced pair separates and goes to the disc test


def test_prime_scan_makes_no_cut_calls(monkeypatch):
    def refuse(*args):
        raise AssertionError("no candidate separates, so nothing should be cut")

    monkeypatch.setattr(fal_diagram, "cut_along_two_cut", refuse)
    for g, c in ((2, 25), (3, 40)):
        assert check_weakly_prime(generate_fal(g, c, seed=1)) == (True, None)


def test_empty_map_has_no_labels():
    empty = FalDiagram(CombinatorialMap((), {}), 2, ())
    assert cycle_space_labels(empty.map) == {}
    assert check_weakly_prime(empty) == (True, None)


def test_bridge_has_label_zero():
    # Two one-loop vertices joined by a bridge (darts 0/1).
    m = CombinatorialMap(((0, 2, 3), (1, 4, 5)), {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4})
    labels = cycle_space_labels(m)
    assert labels[0] == 0
    assert labels[2] != 0 and labels[4] != 0 and labels[2] != labels[4]


def primal_multigraph(m):
    graph = nx.MultiGraph()
    graph.add_nodes_from(range(m.vertex_count))
    for e in m.edges():
        graph.add_edge(m.vertex_of(e), m.vertex_of(m.opposite[e]), key=e)
    return graph


def disconnects(graph, m, edges):
    removed = [(m.vertex_of(e), m.vertex_of(m.opposite[e]), e) for e in edges]
    graph.remove_edges_from(removed)
    try:
        return not nx.is_connected(graph)
    finally:
        graph.add_edges_from(removed)


@given(diagrams(max_c=12))
@settings(max_examples=25, deadline=None)
def test_equal_labels_exactly_when_the_pair_disconnects(d):
    m = d.map
    labels = cycle_space_labels(m)
    graph = primal_multigraph(m)
    bridges = {e for e in m.edges() if disconnects(graph, m, [e])}
    assert {e for e in m.edges() if labels[e] == 0} == bridges
    for e1, e2 in itertools.combinations(sorted(set(m.edges()) - bridges), 2):
        assert (labels[e1] == labels[e2]) == disconnects(graph, m, [e1, e2])


def random_dart_pairing(rng):
    """Rotation and opposite of 1-8 vertices of degree 1-5 with a random
    edge pairing; the primal graph may be disconnected."""
    degrees = [rng.randint(1, 5) for _ in range(rng.randint(1, 8))]
    if sum(degrees) % 2:
        degrees.append(1)
    darts = list(range(sum(degrees)))
    rotation, start = [], 0
    for k in degrees:
        rotation.append(tuple(darts[start : start + k]))
        start += k
    rng.shuffle(darts)
    opposite = {}
    for a, b in zip(darts[::2], darts[1::2]):
        opposite[a], opposite[b] = b, a
    return rotation, opposite


def random_small_degree_map(rng):
    """A connected map from `random_dart_pairing`, or None when the draw
    is disconnected."""
    try:
        return CombinatorialMap(*random_dart_pairing(rng))
    except MalformedMap:
        return None


def test_disconnected_exactly_when_networkx_says_so():
    """Full validation refuses a draw exactly when networkx finds its
    primal multigraph disconnected; on the others the spanning walk from
    vertex 0 is a spanning tree whose every dart sits at a vertex reached
    before the one it reaches."""
    rng = random.Random(27)
    outcomes = set()
    for _ in range(400):
        rotation, opposite = random_dart_pairing(rng)
        vertex_of = {d: v for v, cycle in enumerate(rotation) for d in cycle}
        graph = nx.MultiGraph()
        graph.add_nodes_from(range(len(rotation)))
        graph.add_edges_from((vertex_of[d], vertex_of[e]) for d, e in opposite.items() if d < e)
        connected = nx.is_connected(graph)
        outcomes.add(connected)
        if not connected:
            with pytest.raises(MalformedMap, match="^map is disconnected$"):
                CombinatorialMap(rotation, opposite)
            continue
        m = CombinatorialMap(rotation, opposite)
        via = _spanning_walk(m, 0)
        assert sorted(via) == list(range(m.vertex_count))
        order = {v: i for i, v in enumerate(via)}
        tree = [(v, d) for v, d in via.items() if d is not None]
        assert len({m.edge_of(d) for _, d in tree}) == len(tree) == m.vertex_count - 1
        for v, d in tree:
            assert m.vertex_of(m.opposite[d]) == v
            assert order[m.vertex_of(d)] < order[v]
    assert outcomes == {True, False}


def differential_cut_maps():
    rng = random.Random(20)
    for _ in range(400):
        m = random_small_degree_map(rng)
        if m is not None:
            yield m
    for g, c, seed in ((2, 6, 0), (2, 12, 1), (3, 10, 2)):
        d = generate_fal(g, c, seed=seed, half_twist_probability=0.3)
        yield d.map
        yield fill_all(d, {k: 1 + (k % 3) for k in d.circles}).map
        spliced = connect_sum(d, torus_grid(), 0, 0)
        if spliced is not None:
            yield spliced.map


def test_cut_matches_union_find_reference():
    """The one-walk cut gives the pieces, characteristics and flags of the
    union-find cut on every flank-valid pair, and no such pair leaves the
    uncut graph in three pieces (the reference asserts it)."""
    calls = separating = 0
    for m in differential_cut_maps():
        for e1, e2, fa, fb in flank_valid_pairs(m):
            got = cut_along_two_cut(m, e1, e2, fa, fb)
            assert got == reference_cut_along_two_cut(m, e1, e2, fa, fb)
            calls += 1
            separating += got[0] != got[1]
    # Not vacuous: both outcomes are reached many times.
    assert calls > 1000 and separating > 100
