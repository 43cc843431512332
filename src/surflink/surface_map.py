"""Combinatorial maps (rotation systems) on closed orientable surfaces.

A map is stored as a rotation system: per vertex, the counterclockwise cyclic
order of incident darts, together with a fixed-point-free involution pairing
the two darts of every edge.  Faces are traced with the convention

    next dart in a face  =  rotation successor of the opposite dart,

so face cycles, Euler characteristic and genus are all derived data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .errors import InternalParity, InvalidCorridor, MalformedMap

__all__ = [
    "CombinatorialMap",
    "FaceSet",
    "CutPiece",
    "trace_faces",
    "genus",
    "checkerboard_coloring",
    "cut_along_two_cut",
    "components_of",
]


@dataclass(frozen=True)
class CombinatorialMap:
    """A connected graph cellularly embedded in a closed orientable surface.

    rotation[v] lists the darts at vertex v in counterclockwise order;
    opposite[d] is the other dart of d's edge.
    """

    rotation: tuple[tuple[int, ...], ...]
    opposite: Mapping[int, int]
    _vertex_of: dict[int, int] = field(repr=False, compare=False, default_factory=dict)
    _pos_of: dict[int, int] = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rotation", tuple(tuple(cycle) for cycle in self.rotation))
        object.__setattr__(self, "opposite", dict(self.opposite))
        self._validate()

    # -- construction checks -------------------------------------------------

    def _validate(self) -> None:
        seen: dict[int, int] = {}
        pos: dict[int, int] = {}
        for v, cycle in enumerate(self.rotation):
            if not cycle:
                raise MalformedMap(f"vertex {v} has no incident darts")
            for i, d in enumerate(cycle):
                if d in seen:
                    raise MalformedMap(f"dart {d} appears at more than one vertex slot")
                seen[d] = v
                pos[d] = i
        darts = set(seen)
        if set(self.opposite) != darts:
            raise MalformedMap("opposite involution is not defined on exactly the darts")
        for d, e in self.opposite.items():
            if e == d:
                raise MalformedMap(f"opposite fixes dart {d}")
            if self.opposite.get(e) != d:
                raise MalformedMap(f"opposite is not an involution at dart {d}")
        object.__setattr__(self, "_vertex_of", seen)
        object.__setattr__(self, "_pos_of", pos)
        if not self._connected():
            raise MalformedMap("map is disconnected")

    def _connected(self) -> bool:
        darts = list(self._vertex_of)
        if not darts:
            return True
        todo = [darts[0]]
        seen = {darts[0]}
        while todo:
            d = todo.pop()
            for e in (self.opposite[d], self.rotation_successor(d)):
                if e not in seen:
                    seen.add(e)
                    todo.append(e)
        return len(seen) == len(darts)

    # -- basic accessors -----------------------------------------------------

    @property
    def darts(self) -> tuple[int, ...]:
        return tuple(sorted(self._vertex_of))

    @property
    def vertex_count(self) -> int:
        return len(self.rotation)

    @property
    def edge_count(self) -> int:
        return len(self.opposite) // 2

    def vertex_of(self, dart: int) -> int:
        return self._vertex_of[dart]

    def position_of(self, dart: int) -> int:
        return self._pos_of[dart]

    def degree(self, vertex: int) -> int:
        return len(self.rotation[vertex])

    def rotation_successor(self, dart: int) -> int:
        cycle = self.rotation[self._vertex_of[dart]]
        return cycle[(self._pos_of[dart] + 1) % len(cycle)]

    def edge_of(self, dart: int) -> int:
        """Canonical edge id: the smaller dart of the pair."""
        return min(dart, self.opposite[dart])

    def edges(self) -> list[int]:
        return sorted(d for d in self._vertex_of if d < self.opposite[d])

    def face_successor(self, dart: int) -> int:
        return self.rotation_successor(self.opposite[dart])


@dataclass(frozen=True)
class FaceSet:
    """Face cycles of a map, each as a tuple of darts in trace order."""

    faces: tuple[tuple[int, ...], ...]
    face_of: Mapping[int, int]

    @property
    def count(self) -> int:
        return len(self.faces)

    def degree(self, face: int) -> int:
        return len(self.faces[face])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.faces)


def trace_faces(m: CombinatorialMap) -> FaceSet:
    """Return the face cycles of the map under the fixed tracing convention."""
    unseen = set(m._vertex_of)
    faces: list[tuple[int, ...]] = []
    face_of: dict[int, int] = {}
    for start in sorted(m._vertex_of):
        if start not in unseen:
            continue
        cycle = []
        d = start
        while True:
            cycle.append(d)
            unseen.discard(d)
            face_of[d] = len(faces)
            d = m.face_successor(d)
            if d == start:
                break
        faces.append(tuple(cycle))
    return FaceSet(tuple(faces), face_of)


def genus(m: CombinatorialMap) -> int:
    """Genus of the closed orientable surface the map is cellular in."""
    chi = m.vertex_count - m.edge_count + trace_faces(m).count
    if chi % 2 != 0:
        raise InternalParity(f"odd Euler characteristic {chi}")
    g = (2 - chi) // 2
    if g < 0:
        raise InternalParity(f"negative genus from chi={chi}")
    return g


def checkerboard_coloring(m: CombinatorialMap, faces: Optional[FaceSet] = None) -> Optional[tuple[int, ...]]:
    """Two-color the faces so edge-adjacent faces differ, or None if impossible.

    Faces meeting only at a vertex may share a color; one arc of the face
    adjacency graph is used per edge of the map, so parallel edges and loops
    all impose constraints.
    """
    fs = faces if faces is not None else trace_faces(m)
    color: dict[int, int] = {}
    adjacency: dict[int, list[int]] = {i: [] for i in range(fs.count)}
    for d in m.edges():
        a, b = fs.face_of[d], fs.face_of[m.opposite[d]]
        adjacency[a].append(b)
        adjacency[b].append(a)
    for root in range(fs.count):
        if root in color:
            continue
        color[root] = 0
        todo = [root]
        while todo:
            f = todo.pop()
            for nbr in adjacency[f]:
                if nbr not in color:
                    color[nbr] = 1 - color[f]
                    todo.append(nbr)
                elif color[nbr] == color[f]:
                    return None
    return tuple(color[i] for i in range(fs.count))


@dataclass(frozen=True)
class CutPiece:
    """One complementary piece of a two-cut curve (internal use only)."""

    vertices: frozenset[int]
    chi_capped: int
    disc: bool


def components_of(nodes: Iterable[int], pairs: Iterable[tuple[int, int]]) -> list[set[int]]:
    """Connected components of the graph on `nodes` with edges `pairs`,
    in order of each component's first node."""
    parent = {x: x for x in nodes}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        a, b = find(x), find(y)
        if a != b:
            parent[a] = b
    groups: dict[int, set[int]] = {}
    for x in parent:
        groups.setdefault(find(x), set()).add(x)
    return list(groups.values())


def cut_along_two_cut(
    m: CombinatorialMap, e1: int, e2: int, f_corridor_a: int, f_corridor_b: int
) -> tuple[CutPiece, CutPiece, bool, bool]:
    """Cut along the simple closed curve crossing exactly edges e1 and e2.

    The curve crosses e1, runs through f_corridor_a, crosses e2, and returns
    through f_corridor_b.  Both corridor faces must be the two faces flanking
    each edge.  Returns the two complementary pieces with the Euler
    characteristics they have after capping the cut circle with a disc; a
    piece is flagged as a disc when that capped characteristic is 2.  For a
    non-separating curve the single piece is returned twice with both flags
    false.
    """
    e1 = m.edge_of(e1)
    e2 = m.edge_of(e2)
    if e1 == e2:
        raise InvalidCorridor("the two cut edges must be distinct")
    if f_corridor_a == f_corridor_b:
        raise InvalidCorridor("corridor faces must be distinct")
    fs = trace_faces(m)
    corridor = {f_corridor_a, f_corridor_b}
    for e in (e1, e2):
        flanks = {fs.face_of[e], fs.face_of[m.opposite[e]]}
        if flanks != corridor:
            raise InvalidCorridor(f"edge {e} is not flanked by the two corridor faces")

    components = components_of(
        range(m.vertex_count),
        ((m.vertex_of(d), m.vertex_of(m.opposite[d])) for d in m.edges() if d not in (e1, e2)),
    )
    chi_surface = 2 - 2 * genus(m)
    if len(components) == 1:
        piece = CutPiece(frozenset(components[0]), chi_surface + 2, False)
        return piece, piece, False, False
    if len(components) != 2:
        raise InvalidCorridor("cut curve crosses a disconnecting pair of bridges")

    # Side of e1's smaller dart first, for determinism.
    first = m.vertex_of(e1)
    components.sort(key=lambda comp: (first not in comp, min(comp)))
    pieces = []
    for comp in components:
        n_vertices = len(comp)
        n_edges = sum(
            1
            for d in m.edges()
            if d not in (e1, e2) and m.vertex_of(d) in comp
        )
        n_faces = sum(
            1
            for i, cycle in enumerate(fs.faces)
            if i not in corridor and m.vertex_of(cycle[0]) in comp
        )
        chi_capped = n_vertices - n_edges + n_faces + 1
        pieces.append(CutPiece(frozenset(comp), chi_capped, chi_capped == 2))
    a, b = pieces
    return a, b, a.disc, b.disc


def map_from_json_dict(data: dict) -> CombinatorialMap:
    """Build a map from the shared JSON structure (see cli module)."""
    rotation = tuple(tuple(cycle) for cycle in data["vertices"])
    opposite: dict[int, int] = {}
    for pair in data["opposite"]:
        a, b = pair
        opposite[a] = b
        opposite[b] = a
    return CombinatorialMap(rotation, opposite)


def map_to_json_dict(m: CombinatorialMap) -> dict:
    pairs = [[d, m.opposite[d]] for d in m.edges()]
    return {"vertices": [list(c) for c in m.rotation], "opposite": pairs}


def canonical_form(m: CombinatorialMap, dart_label=None) -> tuple:
    """Canonical encoding of the map up to dart relabeling.

    A breadth-first relabeling is performed from every starting dart and the
    lexicographically smallest transcript is returned.  dart_label, when
    given, maps a dart to extra data carried into the encoding (used to
    compare decorated diagrams).
    """
    best = None
    for start in sorted(m._vertex_of):
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
