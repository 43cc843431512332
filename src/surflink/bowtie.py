"""Bowtie decomposition of a FAL projection and its triangulations.

Cutting the trivial mapping torus along the surface and bisecting every
crossing disc flattens the complement onto the projection surface: each
crossing circle contributes two shaded triangles (the bowtie) whose third
corner is the circle's ideal vertex, strand arcs collapse to ideal
vertices, and the complementary regions become white ideal polygons.

The 3c ideal vertices are named by position.  Site i < 2c is the
collapsed strand arc of the i-th edge of ``m.edges()``, in increasing edge
id; site 2c + k is circle k.  The decomposition depends only on the map's
combinatorics and its dart order, so relabelling the darts in order leaves
it unchanged.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import permutations, product

from .errors import (
    Claim,
    DegenerateFace,
    GenusTooSmall,
    InternalInvariant,
    MalformedMap,
)
from .fal_diagram import FalDiagram, require_cellular
from .surface_map import CombinatorialMap, trace_faces

__all__ = [
    "V_TET",
    "BowtieDecomposition",
    "Nerve",
    "SurfaceTriangulation",
    "PrismTriangulation",
    "decompose",
    "reglue",
    "build_nerve",
    "triangulate_white_faces",
    "prism_triangulation",
    "volume_bounds",
]

# Volume of the regular ideal hyperbolic tetrahedron, 3 * Lobachevsky(pi/3).
V_TET = 1.0149416064096536


class BowtieDecomposition(namedtuple("BowtieDecomposition", "genus c white circle_slots half_twists")):
    """Sites are 0..3c-1: arc i < 2c for the i-th map edge by increasing
    edge id, 2c + k for circle k.  Shaded triangle t = 2k + half of circle
    k has corners 2c + k and the arcs of slots 2 * half and 2 * half + 1 of
    circle k, in that order; its side s runs from corner s to corner
    s + 1 mod 3 and is named by the integer 3t + s.  Each white polygon is
    its boundary walk, a tuple of (site, side): the site and the shaded
    side leading from it to the next entry's site.  circle_slots holds, per
    circle, the four arc sites in slot order; half_twists the recorded and
    stripped CrossingCircle records.  Relabelling the darts in order gives
    an equal decomposition.  The boundary triangulation is cached in the
    instance ``__dict__``, outside the value."""

    @property
    def white_count(self) -> int:
        return len(self.white)

    @property
    def shaded_count(self) -> int:
        return 2 * self.c

    @cached_property
    def boundary(self) -> "SurfaceTriangulation":
        """The boundary triangulation, built on first use and then shared."""
        return triangulate_white_faces(self)

    def ideal_vertices(self) -> tuple:
        return tuple(range(3 * self.c))


def decompose(fal: FalDiagram) -> BowtieDecomposition:
    """The five cutting steps, done combinatorially.

    Half-twist flags are recorded and stripped; each circle splits into two
    shaded triangles hanging off its strand passages; strands collapse to
    ideal vertices; the map faces survive as the white polygons.
    """
    m = fal.map
    if fal.crossings:
        raise MalformedMap(f"vertex {fal.crossings[0]} is not a crossing circle; augment first")
    require_cellular(fal)

    c = m.vertex_count
    site = {}  # dart -> the site of its collapsed strand arc
    for i, e in enumerate(m.edges()):
        site[e] = site[m.opposite[e]] = i

    white = []
    for cycle in trace_faces(m).faces:
        poly = []
        for d in cycle:
            x = m.opposite[d]
            k = m.vertex_of(x)
            q = m.rotation[k].index(x)
            # Slot q is corner 1 + q % 2 of triangle t, which the polygon
            # leaves along side 1 + q % 2.  Side 2 ends at the circle corner,
            # left along side 0 of the circle's other triangle.
            t = 2 * k + (q >> 1)
            poly.append((site[x], 3 * t + 1 + (q & 1)))
            if q & 1:
                poly.append((2 * c + k, 3 * (t ^ 1)))
        white.append(tuple(poly))

    # Every shaded side must border exactly one white polygon.
    if sorted(side for poly in white for _, side in poly) != list(range(6 * c)):
        raise InternalInvariant("a shaded side does not border exactly one white polygon")

    if len(white) != c + 2 - 2 * fal.genus:
        raise InternalInvariant(
            f"white-face law: {len(white)} white faces, expected c + 2 - 2g = {c + 2 - 2 * fal.genus}"
        )
    return BowtieDecomposition(
        genus=fal.genus,
        c=c,
        white=tuple(white),
        circle_slots=tuple(tuple(map(site.__getitem__, darts)) for darts in m.rotation),
        half_twists=fal.vertex_kind,
    )


def reglue(d: BowtieDecomposition) -> FalDiagram:
    """Rebuild the FAL by gluing the shaded faces back along the arcs and
    reapplying the recorded half-twists."""
    occurrences: dict = {}
    for k, slots in enumerate(d.circle_slots):
        for pos, e in enumerate(slots):
            occurrences.setdefault(e, []).append(4 * k + pos)
    opposite = {}
    for e, darts in occurrences.items():
        if len(darts) != 2:
            raise MalformedMap(f"arc {e} does not have exactly two circle slots")
        a, b = darts
        opposite[a] = b
        opposite[b] = a
    rotation = tuple(tuple(range(4 * k, 4 * k + 4)) for k in range(d.c))
    return FalDiagram(CombinatorialMap(rotation, opposite), d.genus, d.half_twists)


class Nerve(namedtuple("Nerve", "node_count edges faces")):
    """edges[s] is the (polygon, polygon) pair of ideal vertex site s, in
    the decomposition's site numbering; faces[t] is the (polygon, polygon,
    polygon) triple that borders sides 0, 1, 2 of shaded triangle t."""

    __slots__ = ()

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @property
    def chi(self) -> int:
        return self.node_count - self.edge_count + self.face_count


def build_nerve(d: BowtieDecomposition) -> Nerve:
    """One node per white polygon, one edge per ideal vertex site, one
    triangular face per shaded triangle."""
    n = 3 * d.c
    side_owner = [None] * (6 * d.c)
    incidences = [[] for _ in range(n)]  # site -> the polygons it is a corner of
    for p, poly in enumerate(d.white):
        for site, side in poly:
            if not 0 <= site < n:
                raise InternalInvariant(f"ideal vertex {site} is not one of the 3c = {n} sites")
            side_owner[side] = p
            incidences[site].append(p)
    for site, occ in enumerate(incidences):
        if len(occ) != 2:
            raise InternalInvariant(f"ideal vertex {site} has {len(occ)} polygon corners, not 2")
    it = iter(side_owner)
    return Nerve(d.white_count, tuple(map(tuple, incidences)), tuple(zip(it, it, it)))


# -- boundary triangulation --------------------------------------------------


class SurfaceTriangulation(namedtuple("SurfaceTriangulation", "triangles cells")):
    """triangles[t] is the triple of sides of triangle t, side i running
    from corner i to corner i + 1, each as (cell id, flipped): flipped when
    the side walks its cell from end 1 to end 0.  The fans of the white
    polygons come first, in polygon order, then shaded triangle t of the
    decomposition.  cells[i] is the (end0 site, end1 site) of cell i."""

    __slots__ = ()

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)


def triangulate_white_faces(d: BowtieDecomposition) -> SurfaceTriangulation:
    """Fan every white n-gon into n-2 ideal triangles and assemble the
    closed boundary surface (fans plus the 2c shaded triangles) with its
    1-cells identified.

    Each fan starts at the least rotation of the polygon's site sequence.
    That rotation starts at an occurrence of the least site, and the first
    such occurrence wins a tie."""
    cells: list = []
    shaded_sides = [None] * (6 * d.c)  # side 3t + s -> (cell, flipped)
    triangles = []

    for p, poly in enumerate(d.white):
        n = len(poly)
        if n < 3:
            raise DegenerateFace(f"white face {p} has only {n} sides")
        verts = [site for site, _ in poly]
        least = min(verts)
        start = min(
            (i for i, site in enumerate(verts) if site == least),
            key=lambda i: verts[i:] + verts[:i],
        )
        verts = verts[start:] + verts[:start]
        first = len(cells)
        for j, (_, side) in enumerate(poly[start:] + poly[:start]):
            # Shaded sides always walk end0 -> end1 in corner order.
            shaded_sides[side] = (first + j, False)
        cells.extend(zip(verts, verts[1:] + verts[:1]))
        cells.extend((verts[0], verts[i]) for i in range(2, n - 1))
        diagonal = first + n - 2  # diagonal to corner i is cell diagonal + i
        for i in range(1, n - 1):
            triangles.append((
                (first if i == 1 else diagonal + i, False),
                (first + i, False),
                (first + n - 1, False) if i == n - 2 else (diagonal + i + 1, True),
            ))

    if None in shaded_sides:
        raise InternalInvariant("a shaded side borders no white polygon")
    it = iter(shaded_sides)
    triangles.extend(zip(it, it, it))
    out = SurfaceTriangulation(tuple(triangles), tuple(cells))
    if out.triangle_count != 6 * d.c + 4 * d.genus - 4:
        raise InternalInvariant(
            f"{out.triangle_count} boundary triangles, expected 6c + 4g - 4 = "
            f"{6 * d.c + 4 * d.genus - 4}"
        )
    if len(cells) != 9 * d.c + 6 * d.genus - 6:
        raise InternalInvariant(
            f"{len(cells)} boundary edges, expected 9c + 6g - 6 = {9 * d.c + 6 * d.genus - 6}"
        )
    # Closed surface: every cell used by exactly two triangle sides.
    use = [0] * len(cells)
    for tri in triangles:
        for cell, _ in tri:
            use[cell] += 1
    if use.count(2) != len(use):
        raise InternalInvariant("a boundary edge is not shared by exactly two triangles")
    return out


# -- prisms over the boundary ------------------------------------------------


def _orient_cells(surface: SurfaceTriangulation) -> list:
    """Diagonal direction per cell id: tail at the smaller ideal vertex
    site, at end 0 when both ends are the same site.

    Every triangle then has a linear corner order.  Sides between distinct
    sites follow the strict site order, so a triangle can only be cyclic
    when all three of its corners are the same site.  Shaded triangles have
    a circle corner and two arc corners.  decompose rejects every circle
    vertex that is not 4-valent, so each site occurs exactly twice among the
    white-polygon corners and no fan triangle repeats a corner three times.
    """
    return [0 if a <= b else 1 for a, b in surface.cells]


# Tetrahedron slot labels within one prism, as (corner rank, level): rank 0
# is the lowest corner of the triangle's linear order.
_S1 = ((0, 0), (1, 0), (2, 0), (2, 1))
_S2 = ((0, 0), (1, 0), (1, 1), (2, 1))
_S3 = ((0, 0), (0, 1), (1, 1), (2, 1))
_TET_LABELS = (_S1, _S2, _S3)


# The 24 permutations of (0, 1, 2, 3) in lexicographic order, the index of
# each one's inverse, and the printed tail ",face,digits)" of a table entry
# at 24 * (neighbour face) + (perm index).
_PERMS = tuple(permutations(range(4)))
_PERM_INDEX = {p: i for i, p in enumerate(_PERMS)}
_INVERSE = tuple(_PERM_INDEX[tuple(map(p.index, range(4)))] for p in _PERMS)
_TAILS = tuple(f",{face},{''.join(map(str, p))})" for face in range(4) for p in _PERMS)


class PrismTriangulation(namedtuple("PrismTriangulation", "tetrahedron_count target perm")):
    """Face slot 4 * tet + face glues to slot target[4 * tet + face] = 4 *
    neighbour + neighbour's face, through _PERMS[perm[4 * tet + face]].
    gluings, per tet four (neighbour, neighbour face, perm) entries, is
    built on first use and cached in the instance ``__dict__``."""

    @cached_property
    def gluings(self) -> tuple:
        it = iter([(t >> 2, t & 3, _PERMS[p]) for t, p in zip(self.target, self.perm)])
        return tuple(zip(it, it, it, it))

    def export_gluing_table(self) -> str:
        ids = list(map(str, range(self.tetrahedron_count)))
        t, p = iter(self.target), iter(self.perm)
        return "".join([
            f"{tet} : ({ids[a >> 2]}{_TAILS[24 * (a & 3) + pa]} ({ids[b >> 2]}{_TAILS[24 * (b & 3) + pb]} "
            f"({ids[c >> 2]}{_TAILS[24 * (c & 3) + pc]} ({ids[d >> 2]}{_TAILS[24 * (d & 3) + pd]}\n"
            for tet, a, b, c, d, pa, pb, pc, pd in zip(ids, t, t, t, t, p, p, p, p)
        ])


def _glue(labels_a, labels_b, label_map):
    """The gluing of the faces of two tetrahedra spanned by the three
    matched labels, the off-face vertices paired with each other, as
    (face a, face b, perm, inverse perm)."""
    slot_b = {lab: i for i, lab in enumerate(labels_b)}
    perm = [slot_b[label_map[lab]] if lab in label_map else None for lab in labels_a]
    (face_a,) = [i for i, j in enumerate(perm) if j is None]
    (face_b,) = set(range(4)) - set(perm)
    perm[face_a] = face_b
    return face_a, face_b, tuple(perm), tuple(perm.index(j) for j in range(4))


@lru_cache(maxsize=None)
def _gluing_rules(labels: tuple) -> tuple:
    """The gluings of staircase prisms whose three tetrahedra carry `labels`.

    A gluing is (tet a, tet b, face a, face b, perm, inverse perm), each tet
    counted from its own prism's first.  A triangle side is named by the
    rank of its opposite corner; its tail and head hold the other two ranks,
    the tail the lower.  Returns (inside, across, sides):
    - inside: the prism's own three gluings;
    - across[3 * i + j]: the lower and upper square gluings of side i of
      prism a with side j of prism b, tail to tail and head to head, since
      both sides read the same tail end of their cell;
    - sides[u]: the names of sides 0, 1, 2 of a triangle whose side s runs
      up from corner s exactly when bit s of u is set; None when cyclic.
    """

    def tet_of(face):
        for i, tet_labels in enumerate(labels):
            if set(face) <= set(tet_labels):
                return i, tet_labels
        raise InternalInvariant("face not on any staircase tetrahedron")

    across = []
    for side_a, side_b in product(range(3), repeat=2):
        (tail_a, head_a), (tail_b, head_b) = (sorted({0, 1, 2} - {n}) for n in (side_a, side_b))
        rule = []
        for face in (
            ((tail_a, 0), (head_a, 0), (head_a, 1)),  # lower
            ((tail_a, 0), (head_a, 1), (tail_a, 1)),  # upper
        ):
            label_map = {(r, lv): ({tail_a: tail_b, head_a: head_b}[r], lv) for r, lv in face}
            (tet_a, labels_a), (tet_b, labels_b) = tet_of(face), tet_of(label_map.values())
            rule.append((tet_a, tet_b, *_glue(labels_a, labels_b, label_map)))
        across.append(tuple(rule))

    # Within each prism: the two staircase cuts and the vertical S^1 gluing.
    inside = tuple(
        (a, b, *_glue(labels[a], labels[b], label_map))
        for a, b, label_map in (
            (0, 1, {(0, 0): (0, 0), (1, 0): (1, 0), (2, 1): (2, 1)}),
            (1, 2, {(0, 0): (0, 0), (1, 1): (1, 1), (2, 1): (2, 1)}),
            (2, 0, {(0, 1): (0, 0), (1, 1): (1, 0), (2, 1): (2, 0)}),
        )
    )

    sides = []
    for u in range(8):
        rank = [0, 0, 0]  # a corner's rank is the number of sides it heads
        for s in range(3):
            rank[(s + 1) % 3 if u >> s & 1 else s] += 1
        sides.append((rank[2], rank[0], rank[1]) if sorted(rank) == [0, 1, 2] else None)
    return inside, tuple(across), tuple(sides)


def prism_triangulation(d: BowtieDecomposition) -> PrismTriangulation:
    """Triangulate (surface) x S^1: one prism per boundary triangle, cut
    into three tetrahedra along the staircase of its side diagonals.
    Prism t holds tets 3t..3t+2, so face slots 12t..12t+11."""
    surface = d.boundary
    tail_end = _orient_cells(surface)
    inside, across, sides = _gluing_rules(_TET_LABELS)

    def offsets(rule):  # (slot a, slot b, perm index, inverse index) within 12 slots
        return tuple((4 * a + fa, 4 * b + fb, _PERM_INDEX[p], _PERM_INDEX[q]) for a, b, fa, fb, p, q in rule)

    prisms = surface.triangle_count
    n = 12 * prisms
    target, perm = [-1] * n, [0] * n
    # Every prism glues its own tets alike, at the same slots of its twelve.
    for i, j, p, inverse in offsets(inside):
        target[i::12], perm[i::12] = range(j, n, 12), [p] * prisms
        target[j::12], perm[j::12] = range(i, n, 12), [inverse] * prisms
    rules = list(map(offsets, across))
    # cell -> first prism's slot base plus its side name; bases are
    # multiples of 12, so the name is the remainder mod 3.
    first = [-1] * len(surface.cells)
    for base, ((cell0, flip0), (cell1, flip1), (cell2, flip2)) in zip(range(0, n, 12), surface.triangles):
        up = (flip0 == tail_end[cell0]) + 2 * (flip1 == tail_end[cell1]) + 4 * (flip2 == tail_end[cell2])
        names = sides[up]
        if names is None:
            raise MalformedMap("no diagonal orientation triangulates all prisms")
        for cell, side in zip((cell0, cell1, cell2), names):
            other = first[cell]
            if other < 0:
                first[cell] = base + side
                continue
            side_a = other % 3
            for i, j, p, inverse in rules[3 * side_a + side]:
                i += other - side_a
                j += base
                if target[i] >= 0 or target[j] >= 0:
                    raise InternalInvariant(
                        f"tetrahedron face glued twice: ({i >> 2}, {i & 3}) or ({j >> 2}, {j & 3})"
                    )
                target[i], perm[i] = j, p
                target[j], perm[j] = i, inverse

    if -1 in target:
        raise InternalInvariant("a tetrahedron face is left unglued")
    if [target[t] for t in target] != list(range(n)) or [perm[t] for t in target] != [_INVERSE[p] for p in perm]:
        i = next(i for i, t in enumerate(target) if target[t] != i or perm[t] != _INVERSE[perm[i]])
        raise InternalInvariant(f"gluing of tetrahedron {i >> 2} face {i & 3} is not an involution")
    expected = 6 * (3 * d.c + 2 * d.genus - 2)
    if 3 * prisms != expected:
        raise InternalInvariant(f"{3 * prisms} tetrahedra, expected 6(3c + 2g - 2) = {expected}")
    return PrismTriangulation(3 * prisms, tuple(target), tuple(perm))


def volume_bounds(cusps: int, c: int, g: int, m: int, kind: str, filled: bool = False) -> tuple:
    """(lower, upper) Claims: Adams's lower bound cusps * v_tet for a link
    of that many components, counted by the caller, and the prism upper
    bound when the manifold is the trivial mapping torus over the base
    diagram alone: m = 0 and no fills.  The prisms triangulate Sigma x S^1
    minus a diagram of circles only; layer curves and fillings are not in
    that triangulation, so upper is None for them.  A base with crossings
    is itself a filling, of the diagram its twist regions augment to, and
    its caller passes filled=True.  Both bounds rest on hyperbolicity.  A
    count whose bound is past the largest float raises MalformedMap."""
    if g < 2:
        raise GenusTooSmall("volume bounds require an ambient surface of genus >= 2")
    if min(cusps, c, m) < 0:
        raise MalformedMap("counts must be nonnegative")
    try:
        lower = cusps * V_TET
    except OverflowError:  # the count itself is past the largest float
        lower = math.inf
    if not math.isfinite(lower):
        raise MalformedMap("counts too large: the lower bound cusp_count * v_tet is not a finite float")
    adams = Claim("Adams", lower, ("hyperbolic",))
    if kind != "TrivialMappingTorus" or m > 0 or filled:
        return adams, None
    upper = 6 * (3 * c + 2 * g - 2) * V_TET
    if lower > upper:
        raise InternalInvariant(f"volume lower bound {lower} exceeds upper bound {upper}")
    return adams, Claim("prism count", upper, ("hyperbolic", "the prisms triangulate the link complement"))
