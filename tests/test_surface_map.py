import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import re

from surflink.errors import InternalInvariant, InvalidCorridor, MalformedMap
from surflink.surface_map import (
    CombinatorialMap,
    CutPiece,
    FaceSet,
    canonical_form,
    checkerboard_coloring,
    cut_along_two_cut,
    genus,
    trace_faces,
)
from surflink.io import map_from_json_dict, map_to_json_dict

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "surflink"


def theta_graph():
    # Two vertices joined by three parallel edges, planar rotations.
    return CombinatorialMap(
        rotation=((0, 2, 4), (5, 3, 1)),
        opposite={0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4},
    )


def torus_one_vertex():
    # Rotation (a, b, a-bar, b-bar) at a single vertex.
    return CombinatorialMap(
        rotation=((0, 2, 1, 3),),
        opposite={0: 1, 1: 0, 2: 3, 3: 2},
    )


def genus2_one_vertex():
    # Standard 4g-gon scheme, g=2.
    return CombinatorialMap(
        rotation=((0, 2, 1, 3, 4, 6, 5, 7),),
        opposite={0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6},
    )


def square_grid_torus():
    """2x2 grid of squares on the torus: 4 vertices, 8 edges, 4 faces."""
    # Vertex v has darts 8v..8v+3 going right, up, left, down; opposite darts
    # pair right(v) with left(v + dx) etc. on the 2x2 integer torus.
    opposite = {}

    def dart(v, i):
        return 4 * v + i

    def vid(x, y):
        return (x % 2) + 2 * (y % 2)

    rotation = [tuple(4 * v + i for i in range(4)) for v in range(4)]
    for y in range(2):
        for x in range(2):
            v = vid(x, y)
            right = vid(x + 1, y)
            up = vid(x, y + 1)
            opposite[dart(v, 0)] = dart(right, 2)
            opposite[dart(right, 2)] = dart(v, 0)
            opposite[dart(v, 1)] = dart(up, 3)
            opposite[dart(up, 3)] = dart(v, 1)
    return CombinatorialMap(tuple(rotation), opposite)


class TestValidation:
    def test_fixed_point_rejected(self):
        with pytest.raises(MalformedMap):
            CombinatorialMap(((0, 1),), {0: 0, 1: 1})

    def test_dart_in_two_slots_rejected(self):
        with pytest.raises(MalformedMap):
            CombinatorialMap(((0, 1), (1, 2)), {0: 1, 1: 0, 2: 0})

    def test_disconnected_rejected(self):
        with pytest.raises(MalformedMap):
            CombinatorialMap(
                ((0, 1), (2, 3)),
                {0: 1, 1: 0, 2: 3, 3: 2},
            )

    def test_opposite_domain_mismatch_rejected(self):
        with pytest.raises(MalformedMap):
            CombinatorialMap(((0, 1),), {0: 1, 1: 0, 2: 3, 3: 2})


MALFORMED = [
    ("empty-vertex", ((0, 1), ()), {0: 1, 1: 0}, "vertex 1 has no incident darts"),
    ("two-slots", ((0, 1), (1, 2)), {0: 1, 1: 0, 2: 0}, "dart 1 appears at more than one vertex slot"),
    ("domain", ((0, 1),), {0: 1, 1: 0, 2: 3, 3: 2}, "opposite involution is not defined on exactly the darts"),
    ("fixed-point", ((0, 1),), {0: 0, 1: 1}, "opposite fixes dart 0"),
    ("not-involution", ((0, 1, 2),), {0: 1, 1: 2, 2: 0}, "opposite is not an involution at dart 0"),
    ("disconnected", ((0, 1), (2, 3)), {0: 1, 1: 0, 2: 3, 3: 2}, "map is disconnected"),
]


@pytest.mark.parametrize(
    "rotation,opposite,message", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
)
def test_malformed_map_messages(rotation, opposite, message):
    with pytest.raises(MalformedMap, match=f"^{re.escape(message)}$"):
        CombinatorialMap(rotation, opposite)


@pytest.mark.parametrize(
    "rotation,opposite,message", [case[1:4] for case in MALFORMED[:5]], ids=[case[0] for case in MALFORMED[:5]]
)
def test_handed_over_faces_keep_the_structural_checks(rotation, opposite, message):
    """Faces spare a builder only the connectivity walk and the trace: the
    structural faults raise the same MalformedMap before the faces are read."""
    darts = sorted({d for cycle in rotation for d in cycle})
    faces = tuple((d,) for d in darts)
    with pytest.raises(MalformedMap, match=f"^{re.escape(message)}$"):
        CombinatorialMap(rotation, opposite, faces)


class TestFaces:
    def test_theta_graph_three_faces(self):
        fs = trace_faces(theta_graph())
        assert fs.count == 3
        assert sorted(fs.degrees()) == [2, 2, 2]
        assert genus(theta_graph()) == 0

    def test_torus_one_face(self):
        m = torus_one_vertex()
        fs = trace_faces(m)
        assert fs.count == 1
        assert fs.degree(0) == 4
        assert genus(m) == 1

    def test_genus2_one_face(self):
        m = genus2_one_vertex()
        fs = trace_faces(m)
        assert fs.count == 1
        assert fs.degree(0) == 8
        assert genus(m) == 2

    def test_face_degrees_sum(self):
        for m in (theta_graph(), torus_one_vertex(), genus2_one_vertex(), square_grid_torus()):
            assert sum(trace_faces(m).degrees()) == 2 * m.edge_count

    def test_each_dart_in_one_face(self):
        m = square_grid_torus()
        fs = trace_faces(m)
        seen = [d for cycle in fs.faces for d in cycle]
        assert sorted(seen) == sorted(m.darts)


class TestCheckerboard:
    def test_grid_on_torus_colorable(self):
        m = square_grid_torus()
        assert genus(m) == 1
        coloring = checkerboard_coloring(m)
        assert coloring is not None
        fs = trace_faces(m)
        for d in m.edges():
            assert coloring[fs.face_of[d]] != coloring[fs.face_of[m.opposite[d]]]

    def test_theta_not_colorable(self):
        # Three mutually adjacent faces form an odd cycle.
        assert checkerboard_coloring(theta_graph()) is None

    def test_agrees_with_networkx_bipartiteness(self):
        import networkx as nx

        for m in (theta_graph(), torus_one_vertex(), genus2_one_vertex(), square_grid_torus()):
            fs = trace_faces(m)
            graph = nx.MultiGraph()
            graph.add_nodes_from(range(fs.count))
            for d in m.edges():
                graph.add_edge(fs.face_of[d], fs.face_of[m.opposite[d]])
            expected = nx.is_bipartite(graph)
            assert (checkerboard_coloring(m) is not None) == expected


def loop_cluster():
    """Planar map with a 2-cut isolating a one-vertex loop cluster.

    Vertex 0 carries a loop (darts 2,3); vertex 1 carries a loop (6,7);
    the two vertices are joined by two parallel edges (0-1 via darts 0/1,
    4/5 via darts 4/5).  Cutting both joining edges isolates each loop
    vertex in a disc.
    """
    return CombinatorialMap(
        rotation=((0, 2, 3, 4), (5, 7, 6, 1)),
        opposite={0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6},
    )


def reference_components(nodes, pairs):
    """Connected components of the graph on `nodes` with edges `pairs`, in
    order of each component's first node, by union-find: the reference the
    map core's own walks are checked against."""
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        a, b = find(x), find(y)
        if a != b:
            parent[a] = b
    groups = {}
    for x in parent:
        groups.setdefault(find(x), set()).add(x)
    return list(groups.values())


def reference_cut_along_two_cut(m, e1, e2, fa, fb):
    """The union-find cut: the uncut graph's components, which must be at
    most two, the side holding e1's smaller dart first, each side's uncut
    edges counted by the vertex of their smaller dart."""
    e1, e2 = m.edge_of(e1), m.edge_of(e2)
    fs = trace_faces(m)
    inner = [d for d in m.edges() if d not in (e1, e2)]
    pairs = ((m.vertex_of(d), m.vertex_of(m.opposite[d])) for d in inner)
    components = reference_components(range(m.vertex_count), pairs)
    chi_surface = 2 - 2 * genus(m)
    if len(components) == 1:
        piece = CutPiece(frozenset(components[0]), chi_surface + 2, False)
        return piece, piece, False, False
    assert len(components) == 2
    first = m.vertex_of(e1)
    components.sort(key=lambda comp: (first not in comp, min(comp)))
    comp_a, comp_b = components
    n_edges = sum(1 for d in inner if m.vertex_of(d) in comp_a)
    n_faces = sum(
        1 for i, cycle in enumerate(fs.faces) if i not in (fa, fb) and m.vertex_of(cycle[0]) in comp_a
    )
    chi_a = len(comp_a) - n_edges + n_faces + 1
    chi_b = chi_surface + 2 - chi_a
    a = CutPiece(frozenset(comp_a), chi_a, chi_a == 2)
    b = CutPiece(frozenset(comp_b), chi_b, chi_b == 2)
    return a, b, a.disc, b.disc


def flank_valid_pairs(m):
    """Every (e1, e2, fa, fb) that `cut_along_two_cut` accepts, each edge
    pair in both orders: distinct edges flanked by the same two faces."""
    fs = trace_faces(m)
    by_corridor = {}
    for d in m.edges():
        key = frozenset((fs.face_of[d], fs.face_of[m.opposite[d]]))
        if len(key) == 2:
            by_corridor.setdefault(key, []).append(d)
    for key, group in by_corridor.items():
        fa, fb = sorted(key)
        for e1 in group:
            for e2 in group:
                if e1 != e2:
                    yield e1, e2, fa, fb


class TestTwoCut:
    def test_separating_discs(self):
        m = loop_cluster()
        assert genus(m) == 0
        fs = trace_faces(m)
        corridor = sorted({fs.face_of[0], fs.face_of[1]} | {fs.face_of[4], fs.face_of[5]})
        assert len(corridor) == 2
        a, b, flag_a, flag_b = cut_along_two_cut(m, 0, 4, corridor[0], corridor[1])
        assert flag_a and flag_b
        assert a.chi_capped == 2 and b.chi_capped == 2
        assert a.vertices == frozenset({0})
        assert b.vertices == frozenset({1})

    def test_chi_additivity_when_separating(self):
        m = loop_cluster()
        fs = trace_faces(m)
        corridor = sorted({fs.face_of[0], fs.face_of[1]})
        a, b, _, _ = cut_along_two_cut(m, 0, 4, corridor[0], corridor[1])
        assert a.chi_capped + b.chi_capped == (2 - 2 * genus(m)) + 2

    def test_nonseparating_on_torus(self):
        # Two-vertex, two-edge map on the torus whose edges are parallel
        # essential circles; cutting both is non-separating... build a map
        # where the cut leaves one component.
        m = CombinatorialMap(
            rotation=((0, 2, 1, 3),),
            opposite={0: 1, 1: 0, 2: 3, 3: 2},
        )
        fs = trace_faces(m)
        assert fs.count == 1
        with pytest.raises(InvalidCorridor):
            # Single face: corridor faces cannot be distinct.
            cut_along_two_cut(m, 0, 2, 0, 0)

    def test_nonseparating_flags_false(self):
        # Square grid on the torus: removing a vertical pair of parallel
        # edges leaves the graph connected, so the cut curve is
        # non-separating and neither side is a disc.
        m = square_grid_torus()
        fs = trace_faces(m)
        # Find an edge pair sharing both flanking faces.
        flank = {}
        pair = None
        for d in m.edges():
            key = frozenset((fs.face_of[d], fs.face_of[m.opposite[d]]))
            if key in flank and flank[key] != d:
                pair = (flank[key], d, key)
            flank[key] = d
        assert pair is not None
        e1, e2, key = pair
        fa, fb = sorted(key)
        a, b, flag_a, flag_b = cut_along_two_cut(m, e1, e2, fa, fb)
        assert not flag_a and not flag_b
        assert a.chi_capped == (2 - 2 * genus(m)) + 2

    def test_same_edge_rejected(self):
        m = loop_cluster()
        with pytest.raises(InvalidCorridor):
            cut_along_two_cut(m, 0, 1, 0, 1)

    def test_wrong_corridor_rejected(self):
        m = loop_cluster()
        fs = trace_faces(m)
        loop_face = fs.face_of[2]
        with pytest.raises(InvalidCorridor):
            cut_along_two_cut(m, 0, 4, loop_face, loop_face)

    def test_edge_outside_the_corridor_rejected(self):
        # The loop edge 2 is not flanked by the two faces that flank edge 0.
        m = loop_cluster()
        fs = trace_faces(m)
        fa, fb = sorted({fs.face_of[0], fs.face_of[1]})
        assert {fs.face_of[2], fs.face_of[3]} != {fa, fb}
        with pytest.raises(InvalidCorridor, match="edge 2 is not flanked by the two corridor faces"):
            cut_along_two_cut(m, 0, 2, fa, fb)


class TestSerialization:
    def test_round_trip(self):
        for m in (theta_graph(), torus_one_vertex(), genus2_one_vertex(), square_grid_torus()):
            again = map_from_json_dict(map_to_json_dict(m))
            assert again.rotation == m.rotation
            assert dict(again.opposite) == dict(m.opposite)

    def test_canonical_form_relabel_invariant(self):
        m = torus_one_vertex()
        # Relabel darts 0..3 -> 10..13 via a permutation.
        relabel = {0: 12, 1: 10, 2: 13, 3: 11}
        m2 = CombinatorialMap(
            (tuple(relabel[d] for d in m.rotation[0]),),
            {relabel[a]: relabel[b] for a, b in m.opposite.items()},
        )
        assert canonical_form(m) == canonical_form(m2)

    def test_canonical_form_distinguishes(self):
        assert canonical_form(torus_one_vertex()) != canonical_form(genus2_one_vertex())


@st.composite
def random_one_vertex_maps(draw):
    """One-vertex maps from a random chord pairing of 2n dart slots."""
    n = draw(st.integers(min_value=1, max_value=6))
    darts = list(range(2 * n))
    pairing = {}
    pool = darts[:]
    rng = draw(st.randoms(use_true_random=False))
    rng.shuffle(pool)
    for i in range(0, 2 * n, 2):
        a, b = pool[i], pool[i + 1]
        pairing[a] = b
        pairing[b] = a
    return CombinatorialMap((tuple(darts),), pairing)


@given(random_one_vertex_maps())
@settings(max_examples=200, deadline=None)
def test_euler_formula_random_maps(m):
    fs = trace_faces(m)
    chi = m.vertex_count - m.edge_count + fs.count
    assert chi % 2 == 0
    g = (2 - chi) // 2
    assert g >= 0
    assert genus(m) == g
    assert sum(fs.degrees()) == 2 * m.edge_count


def uncached_faces(m):
    """A fresh face walk, independent of the map's cache."""
    faces, face_of = [], {}
    for start in m.darts:
        if start in face_of:
            continue
        cycle, d = [], start
        while True:
            cycle.append(d)
            face_of[d] = len(faces)
            d = m.rotation_successor(m.opposite[d])
            if d == start:
                break
        faces.append(tuple(cycle))
    return FaceSet(tuple(faces), face_of)


class TestFaceCache:
    MAPS = (theta_graph, torus_one_vertex, genus2_one_vertex, square_grid_torus, loop_cluster)

    def test_traced_once_and_shared(self):
        for build in self.MAPS:
            m = build()
            assert trace_faces(m) is trace_faces(m)
            assert trace_faces(m) is m.faces

    def test_cache_equals_an_uncached_walk(self):
        for build in self.MAPS:
            m = build()
            assert trace_faces(m) == uncached_faces(m)

    def test_cache_is_not_part_of_the_value(self):
        for build in self.MAPS:
            m, fresh = build(), build()
            before = (repr(m), map_to_json_dict(m))
            trace_faces(m)
            assert "faces" in vars(m)
            assert m == fresh
            assert (repr(m), map_to_json_dict(m)) == before == (repr(fresh), map_to_json_dict(fresh))
            assert repr(m) == f"CombinatorialMap(rotation={m.rotation!r}, opposite={m.opposite!r})"
            with pytest.raises(TypeError):
                hash(m)


@pytest.mark.parametrize("build", TestFaceCache.MAPS, ids=lambda b: b.__name__)
def test_handed_over_faces_become_the_face_cache(build):
    m = build()
    fs = uncached_faces(m)
    handed = CombinatorialMap(m.rotation, m.opposite, fs.faces)
    assert handed == m
    assert "faces" in vars(handed)
    assert trace_faces(handed).faces is fs.faces
    assert trace_faces(handed) == fs == trace_faces(m)
    assert "_succ" not in vars(handed)
    assert (handed._vertex_of, handed._succ) == (m._vertex_of, m._succ)


def _drop_last_face(faces):
    return faces[:-1]


def _stale_first_face(faces):
    # The first face listed again in place of the second, as a face list
    # left over from before a rebuild would.
    return (faces[0], faces[0]) + faces[2:]


def _empty_face_added(faces):
    return faces + ((),)


@pytest.mark.parametrize(
    "corrupt", [_drop_last_face, _stale_first_face, _empty_face_added],
    ids=lambda f: f.__name__.strip("_"),
)
@pytest.mark.parametrize("build", TestFaceCache.MAPS, ids=lambda b: b.__name__)
def test_faces_that_do_not_partition_the_darts_raise(build, corrupt):
    m = build()
    with pytest.raises(InternalInvariant, match="handed-over faces do not partition the darts"):
        CombinatorialMap(m.rotation, m.opposite, corrupt(uncached_faces(m).faces))


def check_value_record(record, hashable=True):
    """A record rebuilt from its fields equals it, hashes as its field tuple
    (or, like that tuple, not at all), and refuses a field assignment."""
    rebuilt = type(record)(*record)
    assert rebuilt == record and rebuilt is not record
    if hashable:
        assert hash(record) == hash(tuple(record))
    else:
        with pytest.raises(TypeError):
            hash(record)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


def test_face_set_and_cut_piece_are_values():
    m = CombinatorialMap(((0, 1),), {0: 1, 1: 0})
    piece = CutPiece(frozenset({0}), 2, True)
    assert repr(m.faces) == "FaceSet(faces=((0,), (1,)), face_of={0: 0, 1: 1})"
    assert repr(piece) == "CutPiece(vertices=frozenset({0}), chi_capped=2, disc=True)"
    check_value_record(m.faces, hashable=False)
    check_value_record(piece)


FACESET_PARTS = {"faces", "face_of"}
MUTATORS = {
    "append", "extend", "insert", "pop", "popitem", "clear", "update", "setdefault",
    "remove", "sort", "reverse", "__setitem__", "__delitem__",
}


def faceset_writes(source):
    """Lines that assign into, delete from or mutate `<x>.faces` or
    `<x>.face_of`, or rebind those attributes."""

    def touches_faceset(node):
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            if isinstance(node, ast.Attribute) and node.attr in FACESET_PARTS:
                return True
            node = node.value
        return False

    hits = []
    for node in ast.walk(ast.parse(source)):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
            and touches_faceset(node.func.value)
        ):
            hits.append(node.lineno)
        hits.extend(t.lineno for t in targets if touches_faceset(t))
    return sorted(hits)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_writes_into_a_faceset(path):
    # trace_faces returns one FaceSet shared by every caller of the map.
    assert faceset_writes(path.read_text()) == []


def test_faceset_write_detector_fires():
    source = (
        "fs = trace_faces(m)\n"
        "fs.face_of[3] = 1\n"
        "fs.faces[0] += (1,)\n"
        "del m.faces.face_of[2]\n"
        "fs.face_of.update({})\n"
        "x.faces = None\n"
        "faces = []\n"
        "faces.append(1)\n"
        "n = len(fs.faces[fs.face_of[0]])\n"
    )
    assert faceset_writes(source) == [2, 3, 4, 5, 6]
