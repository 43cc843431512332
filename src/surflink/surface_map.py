"""Combinatorial maps (rotation systems) on closed orientable surfaces.

A map is stored as a rotation system: per vertex, the counterclockwise cyclic
order of incident darts, together with a fixed-point-free involution pairing
the two darts of every edge.  Faces are traced with the convention

    next dart in a face  =  rotation successor of the opposite dart,

so face cycles, Euler characteristic and genus are all derived data.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .errors import InternalInvariant, InvalidCorridor, MalformedMap, NotCellular

__all__ = [
    "CombinatorialMap",
    "FaceSet",
    "CutPiece",
    "trace_faces",
    "genus",
    "checkerboard_coloring",
    "cut_along_two_cut",
    "cycle_space_labels",
]


class CombinatorialMap:
    """A connected graph cellularly embedded in a closed orientable surface.

    rotation[v] lists the darts at vertex v in counterclockwise order;
    opposite[d] is the other dart of d's edge.  Equality and repr see only
    these two; the dart tables and the face cache are derived from them.

    A map is validated in full, connectivity included, unless its builder
    hands over `faces`: the face cycles, as dart tuples in the order and
    from the start darts that `trace_faces` would give, which a builder
    may pass only when its own construction proved the map connected and
    traced every face.  Then the structural checks still run, the faces
    must partition the darts (else InternalInvariant), and the connectivity
    walk and the face trace are skipped.
    """

    def __init__(self, rotation, opposite, faces: "tuple[tuple[int, ...], ...] | None" = None) -> None:
        self.rotation: tuple[tuple[int, ...], ...] = tuple(map(tuple, rotation))
        self.opposite: dict[int, int] = dict(opposite)
        self._validate(faces)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rotation, self.opposite) == (other.rotation, other.opposite)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(rotation={self.rotation!r}, opposite={self.opposite!r})"

    # -- construction checks -------------------------------------------------

    def _validate(self, faces: "tuple[tuple[int, ...], ...] | None") -> None:
        seen: dict[int, int] = {}
        for v, cycle in enumerate(self.rotation):
            if not cycle:
                raise MalformedMap(f"vertex {v} has no incident darts")
            for d in cycle:
                if d in seen:
                    raise MalformedMap(f"dart {d} appears at more than one vertex slot")
                seen[d] = v
        if self.opposite.keys() != seen.keys():
            raise MalformedMap("opposite involution is not defined on exactly the darts")
        for d, e in self.opposite.items():
            if e == d:
                raise MalformedMap(f"opposite fixes dart {d}")
            if self.opposite.get(e) != d:
                raise MalformedMap(f"opposite is not an involution at dart {d}")
        self._vertex_of = seen
        if faces is None:
            if self.rotation and len(_spanning_walk(self, 0)) != len(self.rotation):
                raise MalformedMap("map is disconnected")
            return
        faces = tuple(faces)
        face_of = {d: i for i, cycle in enumerate(faces) for d in cycle}
        if face_of.keys() != seen.keys() or sum(map(len, faces)) != len(seen) or not all(faces):
            raise InternalInvariant("handed-over faces do not partition the darts")
        # Seeds the `faces` cache, as the first trace would.
        self.__dict__["faces"] = FaceSet(faces, face_of)

    # -- dart tables, derived on first use -------------------------------------

    @cached_property
    def darts(self) -> tuple[int, ...]:
        """The darts in sorted order, the one order every walk starts from."""
        return tuple(sorted(self._vertex_of))

    @cached_property
    def _succ(self) -> dict[int, int]:
        succ: dict[int, int] = {}
        for cycle in self.rotation:
            succ.update(zip(cycle, cycle[1:] + cycle[:1]))
        return succ

    # -- basic accessors -----------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.rotation)

    @property
    def edge_count(self) -> int:
        return len(self.opposite) // 2

    def vertex_of(self, dart: int) -> int:
        return self._vertex_of[dart]

    def position_of(self, dart: int) -> int:
        return self.rotation[self._vertex_of[dart]].index(dart)

    def degree(self, vertex: int) -> int:
        return len(self.rotation[vertex])

    def rotation_successor(self, dart: int) -> int:
        return self._succ[dart]

    def edge_of(self, dart: int) -> int:
        """Canonical edge id: the smaller dart of the pair."""
        return min(dart, self.opposite[dart])

    def edges(self) -> list[int]:
        opp = self.opposite
        return [d for d in self.darts if d < opp[d]]

    @cached_property
    def faces(self) -> "FaceSet":
        """The face cycles, traced on first use and then shared.

        Equality and repr do not see the cache.  Callers must treat the
        returned FaceSet as read-only.
        """
        nxt = self._succ
        opp = self.opposite
        faces: list[tuple[int, ...]] = []
        face_of: dict[int, int] = {}
        for start in self.darts:
            if start in face_of:
                continue
            index = len(faces)
            cycle = []
            d = start
            while True:
                cycle.append(d)
                face_of[d] = index
                d = nxt[opp[d]]
                if d == start:
                    break
            faces.append(tuple(cycle))
        return FaceSet(tuple(faces), face_of)


class FaceSet(namedtuple("FaceSet", "faces face_of")):
    """Face cycles of a map, each as a tuple of darts in trace order, and
    the dict from each dart to the index of its face."""

    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.faces)

    def degree(self, face: int) -> int:
        return len(self.faces[face])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.faces)


def trace_faces(m: CombinatorialMap) -> FaceSet:
    """Return the face cycles of the map under the fixed tracing convention.

    The walk runs once per map; later calls return the same shared object.
    """
    return m.faces


def genus(m: CombinatorialMap) -> int:
    """Genus of the closed orientable surface the map is cellular in.

    The empty map is cellular on no surface, so it raises NotCellular."""
    if not m.rotation:
        raise NotCellular("map has no vertices")
    chi = m.vertex_count - m.edge_count + trace_faces(m).count
    if chi % 2 != 0:
        raise InternalInvariant(f"odd Euler characteristic {chi}")
    g = (2 - chi) // 2
    if g < 0:
        raise InternalInvariant(f"negative genus from chi={chi}")
    return g


def checkerboard_coloring(m: CombinatorialMap, faces: FaceSet | None = None) -> tuple[int, ...] | None:
    """Two-color the faces so edge-adjacent faces differ, or None if impossible.

    Faces meeting only at a vertex may share a color.  The walk crosses
    every dart of each face to the face of its opposite dart, so parallel
    edges and loops all impose constraints.
    """
    fs = faces if faces is not None else trace_faces(m)
    opp, face_of = m.opposite, fs.face_of
    color = [-1] * fs.count
    for root in range(fs.count):
        if color[root] >= 0:
            continue
        color[root] = 0
        todo = [root]
        while todo:
            f = todo.pop()
            for d in fs.faces[f]:
                nbr = face_of[opp[d]]
                if color[nbr] < 0:
                    color[nbr] = 1 - color[f]
                    todo.append(nbr)
                elif color[nbr] == color[f]:
                    return None
    return tuple(color)


class CutPiece(namedtuple("CutPiece", "vertices chi_capped disc")):
    """One complementary piece of a two-cut curve (internal use only): its
    vertex frozenset, its Euler characteristic once capped, and whether
    that makes it a disc."""

    __slots__ = ()


def _spanning_walk(m: CombinatorialMap, root: int, skip=frozenset()) -> dict[int, int | None]:
    """Breadth-first walk of the primal graph from `root`, never leaving a
    vertex through a dart in `skip`.  Returns each reached vertex, in the
    order reached, with the dart it was reached by: that dart sits at its
    parent, and the root's entry is None."""
    vertex_of, opp, rotation = m._vertex_of, m.opposite, m.rotation
    via: dict[int, int | None] = {root: None}
    order = [root]
    for v in order:
        for d in rotation[v]:
            if d not in skip:
                u = vertex_of[opp[d]]
                if u not in via:
                    via[u] = d
                    order.append(u)
    return via


def cycle_space_labels(m: CombinatorialMap) -> dict[int, int]:
    """Cut label of every edge, keyed by edge id, as a Python-int bitset.

    A BFS spanning tree of the primal graph is grown from vertex 0.  Each
    non-tree edge gets its own bit; each tree edge gets the XOR of the bits
    of the non-tree edges whose fundamental cycles run through it.  An edge
    set lies in the cut space exactly when its labels XOR to 0, so two
    non-bridge edges have equal labels exactly when removing both
    disconnects the graph, and a bridge has label 0.  These are the labels
    of Pritchard and Thurimella ("Fast computation of small cuts via cycle
    space sampling", ACM TALG 2011) with one bit per non-tree edge in place
    of random sampling, so equality is exact.
    """
    if not m.rotation:
        return {}
    vertex_of, opp = m._vertex_of, m.opposite
    via = _spanning_walk(m, 0)
    del via[0]
    tree = {min(d, opp[d]) for d in via.values()}
    labels: dict[int, int] = {}
    leaving = [0] * m.vertex_count  # XOR of the non-tree bits leaving each vertex's subtree
    bit = 1
    for e in m.edges():
        if e not in tree:
            labels[e] = bit
            leaving[vertex_of[e]] ^= bit
            leaving[vertex_of[opp[e]]] ^= bit
            bit <<= 1
    for v, d in reversed(via.items()):
        labels[min(d, opp[d])] = leaving[v]
        leaving[vertex_of[d]] ^= leaving[v]
    return labels


def cut_along_two_cut(
    m: CombinatorialMap, e1: int, e2: int, f_corridor_a: int, f_corridor_b: int
) -> tuple[CutPiece, CutPiece, bool, bool]:
    """Cut along the simple closed curve crossing exactly edges e1 and e2.

    The curve crosses e1, runs through f_corridor_a, crosses e2, and returns
    through f_corridor_b.  Both corridor faces must be the two faces flanking
    each edge.  Returns the two complementary pieces, the side of e1's
    smaller dart first, with the Euler characteristics they have after
    capping the cut circle with a disc; a piece is flagged as a disc when
    that capped characteristic is 2.  For a non-separating curve the single
    piece is returned twice with both flags false.

    The uncut graph has at most two pieces.  An edge flanked by two
    distinct faces is not a bridge, so removing e1 leaves the graph
    connected, and removing e2 from a connected graph leaves at most two
    pieces.  So one walk from the vertex of e1's smaller dart, skipping the
    four cut darts, finds that dart's side, and the curve separates exactly
    when the walk misses a vertex.  Then each cut edge has one dart on each
    side, since otherwise the other cut edge would be a bridge, and the
    side's degree sum counts each of its uncut edges twice and each cut
    edge once.
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

    vertex_of = m._vertex_of
    side = _spanning_walk(m, vertex_of[e1], {e1, e2, m.opposite[e1], m.opposite[e2]})
    chi_surface = 2 - 2 * genus(m)
    if len(side) == m.vertex_count:
        piece = CutPiece(frozenset(side), chi_surface + 2, False)
        return piece, piece, False, False

    n_edges = (sum(len(m.rotation[v]) for v in side) - 2) // 2
    n_faces = sum(
        1
        for i, cycle in enumerate(fs.faces)
        if i not in corridor and vertex_of[cycle[0]] in side
    )
    # Capping both sides gives chi_a + chi_b = chi(S) + 2: the two pieces
    # share out every vertex, every uncut edge and every non-corridor face.
    chi_a = len(side) - n_edges + n_faces + 1
    chi_b = chi_surface + 2 - chi_a
    a = CutPiece(frozenset(side), chi_a, chi_a == 2)
    b = CutPiece(frozenset(range(m.vertex_count)) - a.vertices, chi_b, chi_b == 2)
    return a, b, a.disc, b.disc


def canonical_form(m: CombinatorialMap, dart_label=None) -> tuple:
    """Canonical encoding of the map up to dart relabeling.

    A breadth-first relabeling from a start dart gives a transcript that
    determines the map, so the smallest transcript over any set of starts
    picked by isomorphism-invariant data is canonical.  Each dart is
    coloured by its dart_label, its vertex degree and the lengths of its own
    face and of its opposite dart's face; one refinement round adds the
    colours of its rotation successor and its opposite dart.  The starts
    are the darts of the smallest colour class, ties broken by colour value.
    dart_label, when given, maps a dart to hashable, ordered extra data
    carried into the colours and the encoding (used to compare decorated
    diagrams).
    """
    darts = m.darts
    if not darts:
        return ()
    index = {d: i for i, d in enumerate(darts)}
    succ = [index[m._succ[d]] for d in darts]
    opp = [index[m.opposite[d]] for d in darts]
    extra = [(dart_label(d),) for d in darts] if dart_label is not None else [()] * len(darts)
    fs = trace_faces(m)
    face_len = [len(fs.faces[fs.face_of[d]]) for d in darts]
    colour = [
        (extra[i], m.degree(m._vertex_of[d]), face_len[i], face_len[opp[i]])
        for i, d in enumerate(darts)
    ]
    rank = {c: r for r, c in enumerate(sorted(set(colour)))}
    base = [rank[c] for c in colour]
    classes: dict[tuple[int, int, int], list[int]] = {}
    for i in range(len(darts)):
        classes.setdefault((base[i], base[succ[i]], base[opp[i]]), []).append(i)
    _, starts = min(classes.items(), key=lambda item: (len(item[1]), item[0]))

    best = None
    for start in starts:
        label = [-1] * len(darts)
        label[start] = 0
        order = [start]
        for d in order:
            for e in (succ[d], opp[d]):
                if label[e] < 0:
                    label[e] = len(order)
                    order.append(e)
        encoded = tuple((label[succ[d]], label[opp[d]]) + extra[d] for d in order)
        if best is None or encoded < best:
            best = encoded
    return best
