import hashlib
import math
import random
from itertools import permutations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from surflink import bowtie, cli
from surflink.bowtie import (
    V_TET,
    BowtieDecomposition,
    build_nerve,
    decompose,
    prism_triangulation,
    reglue,
    triangulate_white_faces,
    volume_bounds,
)
from surflink.errors import (
    Claim,
    DegenerateFace,
    GenusTooSmall,
    InternalInvariant,
    MalformedMap,
    NotCellular,
)
from surflink.fal_diagram import FalDiagram, diagrams_isomorphic, fill_crossing_circle
from surflink.generator import generate_fal
from surflink.io import dump_diagram
from test_surface_map import check_value_record


CASES = [(g, c, seed) for g in (2, 3) for c in (2 * g - 1, 2 * g + 2, 11) for seed in (0, 1)]


@pytest.mark.parametrize("g,c,seed", CASES)
def test_white_face_law(g, c, seed):
    d = decompose(generate_fal(g, c, seed=seed))
    assert d.white_count == c + 2 - 2 * g
    assert d.shaded_count == 2 * c
    assert d.ideal_vertices() == tuple(range(3 * c))


@pytest.mark.parametrize("g,c,seed", CASES)
def test_nerve_counts(g, c, seed):
    nerve = build_nerve(decompose(generate_fal(g, c, seed=seed)))
    assert nerve.node_count == c + 2 - 2 * g
    assert nerve.edge_count == 3 * c
    assert nerve.face_count == 2 * c
    assert nerve.chi == 2 - 2 * g


@pytest.mark.parametrize("g,c,seed", CASES)
def test_triangle_count_law(g, c, seed):
    surf = triangulate_white_faces(decompose(generate_fal(g, c, seed=seed)))
    assert surf.triangle_count == 6 * c + 4 * g - 4
    # Closed surface: every 1-cell is shared by exactly two triangle sides.
    use = {}
    for t in surf.triangles:
        for cell, _ in t:
            use[cell] = use.get(cell, 0) + 1
    assert set(use.values()) == {2}
    assert len(use) == 9 * c + 6 * g - 6


@pytest.mark.parametrize("g,c,seed", CASES)
def test_prism_triangulation_closure(g, c, seed):
    pt = prism_triangulation(decompose(generate_fal(g, c, seed=seed)))
    assert pt.tetrahedron_count == 6 * (3 * c + 2 * g - 2)
    for tet, faces in enumerate(pt.gluings):
        assert len(faces) == 4
        for face, (nbr, nf, perm) in enumerate(faces):
            assert sorted(perm) == [0, 1, 2, 3]
            back_nbr, back_face, back_perm = pt.gluings[nbr][nf]
            assert (back_nbr, back_face) == (tet, face)
            assert tuple(back_perm[p] for p in perm) == (0, 1, 2, 3)


def test_export_format():
    pt = prism_triangulation(decompose(generate_fal(2, 3, seed=0)))
    text = pt.export_gluing_table()
    lines = text.strip().splitlines()
    assert len(lines) == pt.tetrahedron_count
    first = lines[0]
    assert first.startswith("0 : ")
    assert first.count("(") == 4
    # Closed triangulation: no cusp-boundary markers anywhere.
    assert " - " not in text


def test_decompose_rejects_filled_vertices():
    fal = generate_fal(2, 4, seed=0)
    partially_filled = fill_crossing_circle(fal, 0, 1)
    with pytest.raises(MalformedMap):
        decompose(partially_filled)


def test_decompose_rejects_wrong_genus():
    fal = generate_fal(2, 4, seed=0)
    with pytest.raises(NotCellular):
        decompose(FalDiagram(fal.map, 3, fal.vertex_kind))


def test_degenerate_white_face_rejected():
    good = decompose(generate_fal(2, 4, seed=0))
    bad = BowtieDecomposition(
        genus=good.genus,
        c=good.c,
        white=(good.white[0][:2],) + good.white[1:],
        circle_slots=good.circle_slots,
        half_twists=good.half_twists,
    )
    with pytest.raises(DegenerateFace):
        triangulate_white_faces(bad)


def test_white_polygon_missing_a_side_is_an_internal_error():
    good = decompose(generate_fal(2, 4, seed=0))
    white = list(good.white)
    longest = max(range(len(white)), key=lambda p: len(white[p]))
    white[longest] = white[longest][1:]
    with pytest.raises(InternalInvariant, match="borders no white polygon"):
        triangulate_white_faces(good._replace(white=tuple(white)))


def test_reglue_round_trip():
    signs = set()
    for seed in range(4):
        fal = generate_fal(2, 6, seed=seed, half_twist_probability=0.5)
        back = reglue(decompose(fal))
        assert diagrams_isomorphic(back, fal)
        assert back.vertex_kind == fal.vertex_kind
        signs.update(k.half_twist_sign for k in fal.vertex_kind if k.half_twist)
    assert signs == {1, -1}  # both signs are carried back


@pytest.mark.parametrize("fills", [1, 3], ids=["one-slot", "three-slots"])
def test_reglue_refuses_an_arc_not_in_two_slots(fills):
    d = decompose(generate_fal(2, 4, seed=1))
    slots = [list(s) for s in d.circle_slots]
    arc = slots[0][0]
    if fills == 1:
        arc = 1 + max(e for s in slots for e in s)
        slots[0][0] = arc
    else:
        k, pos = next((k, pos) for k, s in enumerate(slots) for pos, e in enumerate(s) if e != arc)
        slots[k][pos] = arc
    with pytest.raises(MalformedMap, match=f"arc {arc} does not have exactly two circle slots"):
        reglue(d._replace(circle_slots=tuple(map(tuple, slots))))


def test_decompose_relabel_invariant():
    from surflink.surface_map import CombinatorialMap

    fal = generate_fal(2, 5, seed=3)
    relabel = {d: d + 17 for d in fal.map.darts}
    m2 = CombinatorialMap(
        tuple(tuple(relabel[x] for x in cy) for cy in fal.map.rotation),
        {relabel[a]: relabel[b] for a, b in fal.map.opposite.items()},
    )
    fal2 = FalDiagram(m2, fal.genus, fal.vertex_kind)
    assert decompose(fal) == decompose(fal2)
    assert diagrams_isomorphic(reglue(decompose(fal2)), fal2)


class TestVolumeBounds:
    def test_v_tet_five_printed_digits(self):
        assert f"{V_TET:.5f}".startswith("1.01494")

    def test_spot_values(self):
        lower, upper = volume_bounds(1 + 3, 3, 2, 0, "TrivialMappingTorus")
        assert math.isclose(lower.value, 4 * V_TET, abs_tol=1e-9)
        assert math.isclose(upper.value, 66 * V_TET, abs_tol=1e-9)
        lower, upper = volume_bounds(1 + 6, 6, 2, 0, "TrivialMappingTorus")
        assert math.isclose(upper.value, 120 * V_TET, abs_tol=1e-9)

    def test_upper_only_for_trivial_torus(self):
        assert volume_bounds(1 + 3, 3, 2, 0, "MappingTorus")[1] is None
        assert volume_bounds(1 + 3 + 2 * 2, 3, 2, 2, "DoubledThickenedSurface")[1] is None

    @pytest.mark.parametrize("kind", ["TrivialMappingTorus", "MappingTorus", "DoubledThickenedSurface"])
    def test_bounds_are_claims_that_name_their_hypotheses(self, kind):
        lower, upper = volume_bounds(1 + 3, 3, 2, 0, kind)
        assert lower == Claim("Adams", 4 * V_TET, ("hyperbolic",))
        if kind == "TrivialMappingTorus":
            assert upper == Claim(
                "prism count", 66 * V_TET, ("hyperbolic", "the prisms triangulate the link complement")
            )
        else:
            assert upper is None

    @given(
        st.integers(0, 300),
        st.integers(2, 8),
        st.integers(0, 600),
        st.integers(0, 60),
        st.sampled_from(["TrivialMappingTorus", "MappingTorus", "DoubledThickenedSurface"]),
        st.booleans(),
    )
    def test_printed_lower_never_exceeds_printed_upper(self, c, g, l, m, kind, filled):
        l = min(l, 2 * c)  # a 4-valent map has 2c edges, so at most 2c strands
        lower, upper = volume_bounds(l + c + 2 * m, c, g, m, kind, filled)
        assert (upper is not None) == (kind == "TrivialMappingTorus" and m == 0 and not filled)
        assert upper is None or lower.value <= upper.value

    @given(
        st.integers(0, 300),
        st.integers(2, 8),
        st.integers(0, 10**4),
        st.integers(0, 60),
        st.sampled_from(["TrivialMappingTorus", "MappingTorus", "DoubledThickenedSurface"]),
    )
    def test_a_base_with_crossings_prints_no_upper(self, c, g, l, m, kind):
        """Strands can outnumber 2c once crossings exist: filling every
        circle of generate_fal(2, 25, seed=3) with t = 1 leaves c = 0 and
        l = 13.  Such a base is a filling, so no upper bound is claimed
        and no strand count raises."""
        lower, upper = volume_bounds(l + c + 2 * m, c, g, m, kind, True)
        assert upper is None
        assert lower.value == (l + c + 2 * m) * V_TET

    def test_lower_above_upper_is_an_internal_error(self):
        with pytest.raises(InternalInvariant, match="exceeds"):
            volume_bounds(100 + 0, 0, 2, 0, "TrivialMappingTorus")

    def test_low_genus_rejected(self):
        with pytest.raises(GenusTooSmall):
            volume_bounds(1 + 3, 3, 1, 0, "TrivialMappingTorus")

    @pytest.mark.parametrize("cusps, c, m", [(-1, 3, 0), (4, -1, 0), (4, 3, -1)], ids=["cusps", "c", "m"])
    def test_negative_count_rejected(self, cusps, c, m):
        with pytest.raises(MalformedMap, match="^counts must be nonnegative$"):
            volume_bounds(cusps, c, 2, m, "MappingTorus")

    @pytest.mark.parametrize("m", [10**400, int(8.9e307)], ids=["past_float", "product_inf"])
    def test_lower_bound_past_the_largest_float_refused(self, m):
        """10**400 does not convert to a float; 8.9e307 does, but times
        v_tet it overflows to infinity."""
        with pytest.raises(MalformedMap, match="not a finite float"):
            volume_bounds(1 + 3 + 2 * m, 3, 2, m, "MappingTorus")
        assert math.isfinite(volume_bounds(1 + 3 + 2 * int(8.8e307), 3, 2, int(8.8e307), "MappingTorus")[0].value)

    def test_planning_lower_bound(self):
        lower, _ = volume_bounds(1 + 3 + 2 * 50, 3, 2, 50, "MappingTorus")
        assert lower.value > 2 * 50 * V_TET - 1e-9
        assert 2 * 50 * V_TET > 100


# Diagrams whose boundary triangulation has cells with both ends at the
# same ideal vertex site; one-face diagrams (c = 2g - 1) always have them.
EQUAL_SITE_CASES = [(2, 3, 0), (2, 4, 1), (2, 9, 0), (3, 5, 0), (3, 12, 5)]


@pytest.mark.parametrize("g,c,seed", EQUAL_SITE_CASES)
def test_equal_site_cells_orient_by_default(g, c, seed):
    d = decompose(generate_fal(g, c, seed=seed))
    assert any(a == b for a, b in triangulate_white_faces(d).cells)
    # Each site is a corner exactly twice, so no fan triangle has three
    # equal corners and the site order ranks every prism's corners.
    corners = [site for poly in d.white for site, _ in poly]
    assert sorted(corners) == sorted(d.ideal_vertices() * 2)
    assert prism_triangulation(d).tetrahedron_count == 6 * (3 * c + 2 * g - 2)


def test_square_face_off_every_tetrahedron_exits_three(monkeypatch, tmp_path, capsys):
    """A square face that no staircase tetrahedron holds is an internal
    error, reported as such also under -O."""
    monkeypatch.setattr(bowtie, "_TET_LABELS", ((), (), ()))
    path = tmp_path / "d.json"
    dump_diagram(generate_fal(2, 4, seed=1), str(path))
    table = tmp_path / "table.txt"
    assert cli.main(["decompose", str(path), "--export-gluing", str(table)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal: InternalInvariant: ")
    assert "staircase tetrahedron" in captured.err


def test_equal_site_gluing_table_digest():
    table = prism_triangulation(decompose(generate_fal(2, 4, seed=1))).export_gluing_table()
    assert hashlib.sha256(table.encode()).hexdigest() == GOLDEN_G2C4S1_TABLE


GOLDEN_G2C4S1_TABLE = "54ea3fe5790cea230cf274b6f04dfedddd7bf5cd6f5e025d7c6142c25d80b784"


# -- table-driven prisms against the per-face routine they replaced ---------


def reference_prism_triangulation(d):
    """The per-face routine that prism_triangulation replaced: every gluing
    found by matching (corner rank, level) labels.  Returns (gluings, text)."""
    s1 = ((0, 0), (1, 0), (2, 0), (2, 1))
    s2 = ((0, 0), (1, 0), (1, 1), (2, 1))
    s3 = ((0, 0), (0, 1), (1, 1), (2, 1))

    def side_end_corners(side_idx, flipped):
        a, b = side_idx, (side_idx + 1) % 3
        return (b, a) if flipped else (a, b)

    def corner_order(tri, tail_end):
        wins = [0, 0, 0]
        for s, (cell, flipped) in enumerate(tri):
            c0, c1 = side_end_corners(s, flipped)
            tail_corner = c0 if tail_end[cell] == 0 else c1
            head_corner = c1 if tail_corner == c0 else c0
            wins[head_corner] += 1
        if sorted(wins) != [0, 1, 2]:
            return None
        return tuple(sorted(range(3), key=lambda i: wins[i]))

    def glue(table, tet_a, labels_a, tet_b, labels_b, label_map):
        slot_b = {lab: i for i, lab in enumerate(labels_b)}
        perm = [None] * 4
        matched_a = set()
        for i, lab in enumerate(labels_a):
            if lab in label_map:
                perm[i] = slot_b[label_map[lab]]
                matched_a.add(i)
        (face_a,) = set(range(4)) - matched_a
        (face_b,) = set(range(4)) - set(perm[i] for i in matched_a)
        perm[face_a] = face_b
        inverse = [None] * 4
        for i, j in enumerate(perm):
            inverse[j] = i
        assert table[tet_a][face_a] is None and table[tet_b][face_b] is None
        table[tet_a][face_a] = (tet_b, face_b, tuple(perm))
        table[tet_b][face_b] = (tet_a, face_a, tuple(inverse))

    surface = triangulate_white_faces(d)
    tail_end = {cid: 0 if a <= b else 1 for cid, (a, b) in enumerate(surface.cells)}
    order = [corner_order(tri, tail_end) for tri in surface.triangles]
    assert None not in order
    table = [[None] * 4 for _ in range(3 * surface.triangle_count)]
    for t in range(surface.triangle_count):
        glue(table, 3 * t, s1, 3 * t + 1, s2, {(0, 0): (0, 0), (1, 0): (1, 0), (2, 1): (2, 1)})
        glue(table, 3 * t + 1, s2, 3 * t + 2, s3, {(0, 0): (0, 0), (1, 1): (1, 1), (2, 1): (2, 1)})
        glue(table, 3 * t + 2, s3, 3 * t, s1, {(0, 1): (0, 0), (1, 1): (1, 0), (2, 1): (2, 0)})
    incident = {}
    for t, tri in enumerate(surface.triangles):
        for s, (cell, flipped) in enumerate(tri):
            incident.setdefault(cell, []).append((t, s, flipped))
    for cell, occ in sorted(incident.items()):
        (ta, sa, fa), (tb, sb, fb) = occ

        def square_faces(t, s, flipped):
            c0, c1 = side_end_corners(s, flipped)
            tail = c0 if tail_end[cell] == 0 else c1
            head = c1 if tail == c0 else c0
            rank = {corner: r for r, corner in enumerate(order[t])}
            lower = ((rank[tail], 0), (rank[head], 0), (rank[head], 1))
            upper = ((rank[tail], 0), (rank[head], 1), (rank[tail], 1))
            end_of = {rank[tail]: tail_end[cell], rank[head]: 1 - tail_end[cell]}
            return lower, upper, end_of

        def find_tet(t, face_labels):
            for tet, labels in zip((3 * t, 3 * t + 1, 3 * t + 2), (s1, s2, s3)):
                if set(face_labels) <= set(labels):
                    return tet, labels
            raise AssertionError("face not on any staircase tetrahedron")

        lo_a, up_a, end_a = square_faces(ta, sa, fa)
        lo_b, up_b, end_b = square_faces(tb, sb, fb)
        rank_from_end_b = {end: rank for rank, end in end_b.items()}
        for face_a, face_b in ((lo_a, lo_b), (up_a, up_b)):
            tet_a, labels_a = find_tet(ta, face_a)
            tet_b, labels_b = find_tet(tb, face_b)
            label_map = {(r, lv): (rank_from_end_b[end_a[r]], lv) for (r, lv) in face_a}
            glue(table, tet_a, labels_a, tet_b, labels_b, label_map)
    gluings = tuple(tuple(faces) for faces in table)
    lines = []
    for tet, faces in enumerate(gluings):
        parts = [f"({nbr},{face},{''.join(map(str, perm))})" for nbr, face, perm in faces]
        lines.append(f"{tet} : " + " ".join(parts))
    return gluings, "\n".join(lines) + "\n"


def reference_export(gluings):
    """The per-row f-string export that export_gluing_table replaced, from
    per-tet (neighbour, neighbour face, perm) entries."""
    text = {p: "".join(map(str, p)) for p in permutations(range(4))}
    return "\n".join(
        f"{tet} : ({n0},{f0},{text[p0]}) ({n1},{f1},{text[p1]}) "
        f"({n2},{f2},{text[p2]}) ({n3},{f3},{text[p3]})"
        for tet, ((n0, f0, p0), (n1, f1, p1), (n2, f2, p2), (n3, f3, p3)) in enumerate(gluings)
    ) + "\n"


def _assert_matches_reference(d):
    pt = prism_triangulation(d)
    gluings, text = reference_prism_triangulation(d)
    assert pt.gluings == gluings
    assert pt.export_gluing_table() == text


@given(g=st.sampled_from((2, 3, 4)), seed=st.integers(0, 2**16), data=st.data())
@settings(max_examples=40, deadline=None)
def test_table_driven_prisms_match_reference(g, seed, data):
    c = data.draw(st.integers(2 * g - 1, 60), label="c")
    _assert_matches_reference(decompose(generate_fal(g, c, seed=seed, half_twist_probability=0.5)))


@pytest.mark.parametrize("g,c,seed", EQUAL_SITE_CASES)
def test_equal_site_prisms_match_reference(g, c, seed):
    _assert_matches_reference(decompose(generate_fal(g, c, seed=seed)))


# Three seeded (c, seed) draws per genus with c up to 400, plus c = 400 itself.
_draw = random.Random(400)
EXPORT_CASES = [
    (g, c, _draw.randrange(2**16))
    for g in (2, 3, 4)
    for c in sorted(_draw.sample(range(2 * g - 1, 400), 3)) + [400]
]


@pytest.mark.parametrize("g,c,seed", EXPORT_CASES)
def test_export_matches_reference_export(g, c, seed):
    pt = prism_triangulation(decompose(generate_fal(g, c, seed=seed, half_twist_probability=0.5)))
    assert pt.export_gluing_table() == reference_export(pt.gluings)


# sha256 of export_gluing_table() for generate_fal(g, c, seed=seed), taken
# from the per-face routine above.
GOLDEN_TABLE_DIGESTS = {
    (3, 12, 5): "9bf95a5308d91ab7fd67553eb14b4325850b154f1ebb399230e38b9c809b2557",
    (2, 25, 1): "875c7ec08c0fe089d76c3861795dc9d415e3e5357fb17f9f3f6d1f8c7628920b",
    (3, 50, 2): "4a7fae77c6ba44154baa5f02df80d88bc4c0a0a8786d5e39e3df60c37edfef7a",
    (2, 400, 1): "2bb564d1a6d7419ee9ca95fd949822b99b291575f95d3cb58747ef7eb630ae69",
    (3, 400, 2): "9b16e1f12edaee69a1ad1345786cda7031d8084f6c3924f698a1fb1a86798a15",
}


@pytest.mark.parametrize("g,c,seed", sorted(GOLDEN_TABLE_DIGESTS))
def test_gluing_table_digest(g, c, seed):
    table = prism_triangulation(decompose(generate_fal(g, c, seed=seed))).export_gluing_table()
    assert hashlib.sha256(table.encode()).hexdigest() == GOLDEN_TABLE_DIGESTS[g, c, seed]


# -- flat side indices against the record-based bowtie layer -----------------


def reference_decompose(fal):
    """The record-based decomposition that decompose replaced.  Returns
    (white, shaded): white polygons as lists of (site, (circle, half, side,
    (corner walked from, corner walked to))), shaded triangles as
    ((circle, half), corners)."""
    m = fal.map
    arc = m.edge_of
    shaded = []
    for k in range(m.vertex_count):
        rot = m.rotation[k]
        shaded.append(((k, 0), (("beta", k), ("arc", arc(rot[0])), ("arc", arc(rot[1])))))
        shaded.append(((k, 1), (("beta", k), ("arc", arc(rot[2])), ("arc", arc(rot[3])))))
    white = []
    for cycle in m.faces.faces:
        entries = []
        for d in cycle:
            x = m.opposite[d]
            k = m.vertex_of(x)
            q = m.position_of(x)
            rot = m.rotation[k]
            if q == 0:
                entries.append((("arc", arc(rot[0])), (k, 0, 1, (1, 2))))
            elif q == 1:
                entries.append((("arc", arc(rot[1])), (k, 0, 2, (2, 0))))
                entries.append((("beta", k), (k, 1, 0, (0, 1))))
            elif q == 2:
                entries.append((("arc", arc(rot[2])), (k, 1, 1, (1, 2))))
            else:
                entries.append((("arc", arc(rot[3])), (k, 1, 2, (2, 0))))
                entries.append((("beta", k), (k, 0, 0, (0, 1))))
        white.append(entries)
    used = [ref[:3] for poly in white for _, ref in poly]
    assert len(used) == len(set(used)) == 6 * m.vertex_count
    return white, shaded


def reference_build_nerve(white, shaded):
    """(edges, faces) of the nerve, from per-side dict keys."""
    side_owner = {}
    incidences = {}
    for p, poly in enumerate(white):
        for i, (site, ref) in enumerate(poly):
            side_owner[ref[:3]] = p
            incidences.setdefault(site, []).append((p, i))
    edges = tuple((site, (occ[0][0], occ[1][0])) for site, occ in sorted(incidences.items()))
    faces = tuple((key, tuple(side_owner[(*key, s)] for s in range(3))) for key, _ in shaded)
    return edges, faces


def reference_triangulate_white_faces(white, shaded):
    """(per-triangle sides, cells) of the boundary, each fan started at
    the least rotation found by comparing all n rotations."""

    def rotate_to_canonical(entries):
        n = len(entries)
        best, best_i = None, 0
        for i in range(n):
            key = tuple(entries[(i + j) % n][0] for j in range(n))
            if best is None or key < best:
                best, best_i = key, i
        return tuple(entries[(best_i + j) % n] for j in range(n))

    cells = []

    def new_cell(end0, end1):
        cells.append((end0, end1))
        return len(cells) - 1

    shaded_sides = {}
    triangles = []
    for poly in white:
        entries = rotate_to_canonical(poly)
        n = len(entries)
        verts = [site for site, _ in entries]
        boundary = []
        for j in range(n):
            cell = new_cell(verts[j], verts[(j + 1) % n])
            boundary.append(cell)
            shaded_sides[entries[j][1][:3]] = (cell, False)
        diagonal = {i: new_cell(verts[0], verts[i]) for i in range(2, n - 1)}
        for i in range(1, n - 1):
            side0 = (boundary[0], False) if i == 1 else (diagonal[i], False)
            side1 = (boundary[i], False)
            side2 = (boundary[n - 1], False) if i == n - 2 else (diagonal[i + 1], True)
            triangles.append((side0, side1, side2))
    for key, _ in shaded:
        triangles.append(tuple(shaded_sides[(*key, s)] for s in range(3)))
    return tuple(triangles), tuple(cells)


def tagged(fal, d):
    """The positional pieces of d = decompose(fal) in the tagged form the
    reference builders use: site s < 2c as ("arc", e) for the s-th edge of
    fal.map.edges(), site 2c + k as ("beta", k); nerve edges as (site,
    pair) and nerve faces as ((circle, half), triple)."""
    name = [("arc", e) for e in fal.map.edges()] + [("beta", k) for k in range(d.c)]
    nerve = build_nerve(d)
    return SimpleNamespace(
        white=tuple(tuple((name[s], side) for s, side in poly) for poly in d.white),
        ideal_vertices=tuple(name[s] for s in d.ideal_vertices()),
        nerve_edges=tuple((name[s], pair) for s, pair in enumerate(nerve.edges)),
        nerve_faces=tuple(((t >> 1, t & 1), triple) for t, triple in enumerate(nerve.faces)),
        cells=tuple((name[a], name[b]) for a, b in d.boundary.cells),
    )


def _assert_bowtie_matches_reference(fal):
    d = decompose(fal)
    view = tagged(fal, d)
    white, shaded = reference_decompose(fal)
    assert view.white == tuple(
        tuple((site, 3 * (2 * k + half) + s) for site, (k, half, s, _) in poly) for poly in white
    )
    assert d.shaded_count == len(shaded)
    assert view.ideal_vertices == tuple(sorted({site for _, corners in shaded for site in corners}))
    assert (view.nerve_edges, view.nerve_faces) == reference_build_nerve(white, shaded)
    surface = triangulate_white_faces(d)
    assert (surface.triangles, view.cells) == reference_triangulate_white_faces(white, shaded)


@given(g=st.sampled_from((2, 3, 4)), seed=st.integers(0, 2**16), data=st.data())
@settings(max_examples=40, deadline=None)
def test_flat_bowtie_layer_matches_reference(g, seed, data):
    c = data.draw(st.integers(2 * g - 1, 60), label="c")
    _assert_bowtie_matches_reference(generate_fal(g, c, seed=seed, half_twist_probability=0.5))


# One-face diagrams put every site twice in one polygon, so the fan start
# picks between two occurrences of the least site: the later one starts the
# least rotation in the one-face EQUAL_SITE_CASES, the earlier one here.
EARLIER_START_CASES = [(2, 3, 23), (3, 5, 20)]


@pytest.mark.parametrize("g,c,seed", EQUAL_SITE_CASES + EARLIER_START_CASES)
def test_equal_site_bowtie_layer_matches_reference(g, c, seed):
    _assert_bowtie_matches_reference(generate_fal(g, c, seed=seed))


# sha256 of repr((cells, triangles, nerve edges, nerve faces, ideal
# vertices)) for generate_fal(g, c, seed=seed, half_twist_probability=0.5),
# taken from the record-based bowtie layer above.
GOLDEN_BOUNDARY_DIGESTS = {
    (2, 3, 0): "5a340c970101f093128f9a3dea039d496f96dd3ebdf1f312060abd6f74e8f5f6",
    (3, 12, 5): "c631c8c2621695d322ba6df1388e7479b54cfe2b9e845187a35b3085659322c6",
    (2, 25, 1): "b722fda3ed41728a6c7df6bb805a34d2f74d4d2adad854f451b680611e7bb2bd",
    (3, 50, 2): "b010e2179c7367791edba159ce479f5aec4c95b58a78bea7425022a5d7c8f667",
}


@pytest.mark.parametrize("g,c,seed", sorted(GOLDEN_BOUNDARY_DIGESTS))
def test_boundary_digest(g, c, seed):
    fal = generate_fal(g, c, seed=seed, half_twist_probability=0.5)
    d = decompose(fal)
    view = tagged(fal, d)
    key = repr((view.cells, d.boundary.triangles, view.nerve_edges, view.nerve_faces, view.ideal_vertices))
    assert hashlib.sha256(key.encode()).hexdigest() == GOLDEN_BOUNDARY_DIGESTS[g, c, seed]


def _corrupt_site(d, old, new):
    """d with the first polygon corner at site `old` moved to site `new`,
    or dropped when `new` is None."""
    p, i = next((p, i) for p, poly in enumerate(d.white) for i, (site, _) in enumerate(poly) if site == old)
    poly = list(d.white[p])
    poly[i : i + 1] = [] if new is None else [(new, poly[i][1])]
    return d._replace(white=d.white[:p] + (tuple(poly),) + d.white[p + 1 :])


@pytest.mark.parametrize(
    "new, match",
    [(15, "is not one of the 3c"), (-1, "is not one of the 3c"), (None, "1 polygon corners, not 2")],
    ids=["past_3c", "negative", "used_once"],
)
def test_nerve_refuses_a_corrupt_site(new, match):
    """The sites of c = 5 are 0..14.  A corner moved off site 14 to -1
    would wrap back onto site 14 and leave it looking twice used; the
    range check refuses it."""
    d = decompose(generate_fal(2, 5, seed=2))
    with pytest.raises(InternalInvariant, match=match):
        build_nerve(_corrupt_site(d, 14, new))


@pytest.mark.parametrize("corrupt", ["repeated", "replaced"])
def test_face_trace_listing_a_dart_twice_is_an_internal_error(monkeypatch, corrupt):
    fal = generate_fal(2, 9, seed=3)
    faces = list(fal.map.faces.faces)
    cycle = faces[0]
    faces[0] = cycle + cycle[:1] if corrupt == "repeated" else cycle[1:2] + cycle[1:]
    monkeypatch.setattr(bowtie, "trace_faces", lambda m: SimpleNamespace(faces=tuple(faces)))
    with pytest.raises(InternalInvariant, match="shaded side does not border exactly one"):
        decompose(fal)


# -- table-only verification: topology read from the gluings alone -----------


def _rank_mod_p(rows, p):
    """Rank over GF(p) of sparse rows given as {column: coefficient}."""
    pivots = {}
    for row in rows:
        row = {k: v % p for k, v in row.items() if v % p}
        while row:
            col = min(row)
            if col not in pivots:
                inv = pow(row[col], -1, p)
                pivots[col] = {k: v * inv % p for k, v in row.items()}
                break
            factor = row[col]
            for k, v in pivots[col].items():
                row[k] = (row.get(k, 0) - factor * v) % p
                if not row[k]:
                    del row[k]
    return len(pivots)


def table_topology(gluings, p=10007):
    """Vertex and edge class counts, edges glued to themselves reversed,
    the set of vertex-link Euler characteristics and b1 over GF(p) of the
    closed triangulation that `gluings` describes."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # Corners (tet, v) and oriented edges (tet, v, w) are identified across
    # every glued face that holds them.
    for tet, faces in enumerate(gluings):
        for f, (nbr, nf, perm) in enumerate(faces):
            for v in range(4):
                if v == f:
                    continue
                parent[find((tet, v))] = find((nbr, perm[v]))
                for w in range(4):
                    if w not in (v, f):
                        parent[find((tet, v, w))] = find((nbr, perm[v], perm[w]))
    corners = [(tet, v) for tet in range(len(gluings)) for v in range(4)]
    oriented = [(tet, v, w) for tet, v in corners for w in range(4) if w != v]
    vertex = {}
    for corner in corners:
        vertex.setdefault(find(corner), len(vertex))
    edge = {}  # oriented edge class -> (edge index, sign)
    d1 = []  # per edge: its head vertex minus its tail vertex
    folded = 0
    for tet, v, w in oriented:
        fwd, back = find((tet, v, w)), find((tet, w, v))
        if fwd not in edge:
            folded += fwd == back
            edge[back], edge[fwd] = (len(d1), -1), (len(d1), 1)
            row = {}
            for corner, coeff in (((tet, w), 1), ((tet, v), -1)):
                x = vertex[find(corner)]
                row[x] = row.get(x, 0) + coeff
            d1.append(row)
    # A vertex's link has a triangle per corner and a vertex per edge end.
    link_triangles, link_vertices = {}, {}
    for tet, v in corners:
        x = vertex[find((tet, v))]
        link_triangles[x] = link_triangles.get(x, 0) + 1
        link_vertices.setdefault(x, set()).update(find((tet, v, w)) for w in range(4) if w != v)
    link_chi = {len(link_vertices[x]) - link_triangles[x] // 2 for x in link_triangles}
    d2 = []  # per glued face pair: its oriented boundary
    for tet, faces in enumerate(gluings):
        for f, (nbr, nf, _) in enumerate(faces):
            if (tet, f) < (nbr, nf):
                a, b, c = (v for v in range(4) if v != f)
                row = {}
                for (x, y), coeff in (((b, c), 1), ((a, c), -1), ((a, b), 1)):
                    index, sign = edge[find((tet, x, y))]
                    row[index] = row.get(index, 0) + coeff * sign
                d2.append(row)
    b1 = len(d1) - _rank_mod_p(d1, p) - _rank_mod_p(d2, p)
    return {"vertices": len(vertex), "edges": len(d1), "folded_edges": folded, "link_chi": link_chi, "b1": b1}


def sigma_times_circle(g, c):
    """table_topology of the prism triangulation of Sigma_g x S^1 over a
    c-circle diagram: V = 3c material vertices with sphere links, E = V + T
    (Euler characteristic 0) and b1 = 2g + 1."""
    n_tets = 6 * (3 * c + 2 * g - 2)
    return {"vertices": 3 * c, "edges": 3 * c + n_tets, "folded_edges": 0, "link_chi": {2}, "b1": 2 * g + 1}


@pytest.mark.parametrize("g,c,seed", CASES)
def test_gluing_table_alone_is_sigma_times_circle(g, c, seed):
    pt = prism_triangulation(decompose(generate_fal(g, c, seed=seed)))
    assert table_topology(pt.gluings) == sigma_times_circle(g, c)


def test_table_topology_sees_a_twisted_face_pairing():
    """The verifier is not vacuous: re-gluing one face pair through a
    transposition of its face keeps an involution but breaks the topology."""
    g, c = 2, 4
    gluings = [list(faces) for faces in prism_triangulation(decompose(generate_fal(g, c, seed=1))).gluings]
    nbr, nf, perm = gluings[0][0]
    twisted = list(perm)
    twisted[1], twisted[2] = perm[2], perm[1]
    gluings[0][0] = (nbr, nf, tuple(twisted))
    gluings[nbr][nf] = (0, 0, tuple(twisted.index(j) for j in range(4)))
    assert table_topology(gluings) != sigma_times_circle(g, c)


# -- corrupted gluing rules ----------------------------------------------------

# Across-rule indices 3 * (name in the first prism) + (name in the second)
# that generate_fal(2, 25, seed=1) reads; no diagram tried reads rule 6.
READ_RULES = (0, 1, 2, 3, 4, 5, 7, 8)


def _corrupt_rules(monkeypatch, inside=None, rule=None, index=None):
    real_inside, across, sides = bowtie._gluing_rules(bowtie._TET_LABELS)
    across = list(across)
    if index is not None:
        across[index] = rule(across[index])
    corrupted = (real_inside if inside is None else inside(real_inside), tuple(across), sides)
    monkeypatch.setattr(bowtie, "_gluing_rules", lambda labels: corrupted)
    return decompose(generate_fal(2, 25, seed=1))


@pytest.mark.parametrize("index", READ_RULES)
def test_rule_gluing_a_face_twice_is_an_internal_error(monkeypatch, index):
    # The upper square glued from the lower square's face of the first prism.
    d = _corrupt_rules(monkeypatch, rule=lambda r: (r[0], (r[0][0], r[1][1], r[0][2], *r[1][3:])), index=index)
    with pytest.raises(InternalInvariant, match="glued twice"):
        prism_triangulation(d)


@pytest.mark.parametrize("index", READ_RULES)
def test_rule_leaving_a_face_unglued_is_an_internal_error(monkeypatch, index):
    d = _corrupt_rules(monkeypatch, rule=lambda r: r[:1], index=index)
    with pytest.raises(InternalInvariant, match="left unglued"):
        prism_triangulation(d)


def test_inside_rule_left_out_is_an_internal_error(monkeypatch):
    d = _corrupt_rules(monkeypatch, inside=lambda r: r[:2])
    with pytest.raises(InternalInvariant, match="left unglued"):
        prism_triangulation(d)


def test_inside_rule_with_a_wrong_inverse_is_an_internal_error(monkeypatch):
    # The vertical gluing's perm (3, 0, 1, 2) written back in place of its inverse.
    d = _corrupt_rules(monkeypatch, inside=lambda r: r[:2] + ((*r[2][:5], r[2][4]),))
    with pytest.raises(InternalInvariant, match="not an involution"):
        prism_triangulation(d)


def test_cyclic_corner_order_is_rejected(monkeypatch):
    """_orient_cells never makes a triangle's sides cyclic; if it did, the
    prism could not be cut into a staircase."""
    d = decompose(generate_fal(2, 4, seed=1))
    orient = bowtie._orient_cells

    def cyclic_first_triangle(surface):
        tail_end = orient(surface)
        for cell, flipped in surface.triangles[0]:
            tail_end[cell] = int(flipped)  # every side runs up from corner s
        return tail_end

    monkeypatch.setattr(bowtie, "_orient_cells", cyclic_first_triangle)
    with pytest.raises(MalformedMap, match="no diagonal orientation"):
        prism_triangulation(d)


def test_bowtie_records_are_values():
    d = decompose(generate_fal(2, 4, seed=1))
    assert d.boundary is d.boundary  # cached, outside the value
    assert d == BowtieDecomposition(*d) and repr(d) == repr(BowtieDecomposition(*d))
    assert repr(BowtieDecomposition(2, 0, (), (), ())) == (
        "BowtieDecomposition(genus=2, c=0, white=(), circle_slots=(), half_twists=())"
    )
    assert repr(volume_bounds(2 + 0, 0, 2, 0, "MappingTorus")) == (
        "(Claim(kind='Adams', value=2.0298832128193074, hypotheses=('hyperbolic',)), None)"
    )
    lower, upper = volume_bounds(1 + 4, 4, 2, 0, "TrivialMappingTorus")
    for record in (d, build_nerve(d), d.boundary, prism_triangulation(d), lower, upper):
        check_value_record(record)
