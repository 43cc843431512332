import math

import pytest

from surflink import bowtie, cli
from surflink.bowtie import (
    V_TET,
    BowtieDecomposition,
    WhitePolygon,
    build_nerve,
    decompose,
    prism_triangulation,
    reglue,
    triangulate_white_faces,
    volume_bounds,
)
from surflink.errors import (
    DegenerateFace,
    GenusTooSmall,
    MalformedMap,
    NotCellular,
    WrongManifoldKind,
)
from surflink.fal_diagram import FalDiagram, diagrams_isomorphic, fill_crossing_circle
from surflink.generator import generate_fal
from surflink.io import dump_diagram


CASES = [(g, c, seed) for g in (2, 3) for c in (2 * g - 1, 2 * g + 2, 11) for seed in (0, 1)]


@pytest.mark.parametrize("g,c,seed", CASES)
def test_white_face_law(g, c, seed):
    d = decompose(generate_fal(g, c, seed=seed))
    assert d.white_count == c + 2 - 2 * g
    assert d.shaded_count == 2 * c
    assert len(d.ideal_vertices()) == 3 * c


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
    assert sum(1 for t in surf.triangles if t.kind == "shaded") == 2 * c
    # Closed surface: every 1-cell is shared by exactly two triangle sides.
    use = {}
    for t in surf.triangles:
        for cell, _ in t.sides:
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
        white=(WhitePolygon(good.white[0].entries[:2]),) + good.white[1:],
        shaded=good.shaded,
        circle_slots=good.circle_slots,
        half_twists=good.half_twists,
    )
    with pytest.raises(DegenerateFace):
        triangulate_white_faces(bad)


def test_reglue_round_trip():
    for seed in range(4):
        fal = generate_fal(2, 6, seed=seed, half_twist_probability=0.5)
        back = reglue(decompose(fal))
        assert diagrams_isomorphic(back, fal)
        assert [k.half_twist for k in back.vertex_kind] == [
            k.half_twist for k in fal.vertex_kind
        ]


def test_decompose_relabel_invariant():
    from surflink.surface_map import CombinatorialMap

    fal = generate_fal(2, 5, seed=3)
    relabel = {d: d + 17 for d in fal.map.darts}
    m2 = CombinatorialMap(
        tuple(tuple(relabel[x] for x in cy) for cy in fal.map.rotation),
        {relabel[a]: relabel[b] for a, b in fal.map.opposite.items()},
    )
    fal2 = FalDiagram(m2, fal.genus, fal.vertex_kind)
    a, b = decompose(fal), decompose(fal2)
    assert a.white_count == b.white_count
    assert sorted(len(p.entries) for p in a.white) == sorted(len(p.entries) for p in b.white)
    assert diagrams_isomorphic(reglue(a), reglue(b))


class TestVolumeBounds:
    def test_v_tet_five_printed_digits(self):
        assert f"{V_TET:.5f}".startswith("1.01494")

    def test_spot_values(self):
        vb = volume_bounds(3, 2, 1, 0, "TrivialMappingTorus")
        assert math.isclose(vb.lower, 4 * V_TET, abs_tol=1e-9)
        assert math.isclose(vb.upper, 66 * V_TET, abs_tol=1e-9)
        vb = volume_bounds(6, 2, 1, 0, "TrivialMappingTorus")
        assert math.isclose(vb.upper, 120 * V_TET, abs_tol=1e-9)

    def test_upper_only_for_trivial_torus(self):
        assert volume_bounds(3, 2, 1, 0, "MappingTorus").upper is None
        assert volume_bounds(3, 2, 1, 2, "DoubledThickenedSurface").upper is None

    def test_low_genus_rejected(self):
        with pytest.raises(GenusTooSmall):
            volume_bounds(3, 1, 1, 0, "TrivialMappingTorus")

    def test_planning_lower_bound(self):
        vb = volume_bounds(3, 2, 1, 50, "MappingTorus")
        assert vb.lower > 2 * 50 * V_TET - 1e-9
        assert 2 * 50 * V_TET > 100


def test_kind_checked():
    d = decompose(generate_fal(2, 3, seed=0))
    with pytest.raises(WrongManifoldKind):
        prism_triangulation(d, kind="MappingTorus")


# Diagrams whose boundary triangulation has cells with both ends at the
# same ideal vertex site; one-face diagrams (c = 2g - 1) always have them.
EQUAL_SITE_CASES = [(2, 3, 0), (2, 4, 1), (2, 9, 0), (3, 5, 0), (3, 12, 5)]


@pytest.mark.parametrize("g,c,seed", EQUAL_SITE_CASES)
def test_equal_site_cells_orient_by_default(g, c, seed):
    d = decompose(generate_fal(g, c, seed=seed))
    assert any(a == b for a, b in triangulate_white_faces(d).cells)
    # Each site is a corner exactly twice, so no fan triangle has three
    # equal corners and the site order ranks every prism's corners.
    corners = [site for poly in d.white for site, _ in poly.entries]
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
    import hashlib

    table = prism_triangulation(decompose(generate_fal(2, 4, seed=1))).export_gluing_table()
    assert hashlib.sha256(table.encode()).hexdigest() == GOLDEN_G2C4S1_TABLE


GOLDEN_G2C4S1_TABLE = "54ea3fe5790cea230cf274b6f04dfedddd7bf5cd6f5e025d7c6142c25d80b784"
