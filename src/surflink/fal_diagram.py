"""Typed link diagrams on surfaces: FAL structure, twist regions, and fills.

A diagram is a 4-valent combinatorial map whose vertices carry a kind:
either a crossing-circle site (possibly with a half-twist) or a plain
crossing that remembers which opposite dart pair runs over.  Strands pass
straight through every vertex: darts at opposite rotation positions belong
to the same strand arc.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .errors import (
    Claim,
    FillTooLarge,
    InternalInvariant,
    MalformedMap,
    NonAlternatingTwistRegion,
    NotACrossingCircle,
    NotCellular,
    NotCheckerboard,
    UnfilledCircle,
    ZeroCoefficient,
)
from .surface_map import (
    CombinatorialMap,
    canonical_form,
    checkerboard_coloring,
    cut_along_two_cut,
    cycle_space_labels,
    genus as map_genus,
    trace_faces,
)

__all__ = [
    "CrossingCircle",
    "Crossing",
    "FalDiagram",
    "TwistRegion",
    "WgaReport",
    "ValidationReport",
    "validate_fal",
    "require_cellular",
    "detect_twist_regions",
    "augment",
    "fill_crossing_circle",
    "choose_alternating_signs",
    "check_alternating",
    "check_weakly_prime",
    "check_wga",
    "diagrams_isomorphic",
]


class CrossingCircle(namedtuple("CrossingCircle", "half_twist half_twist_sign")):
    """A crossing-circle site; the circle is perpendicular to the surface."""

    __slots__ = ()

    def __new__(cls, half_twist: bool = False, half_twist_sign: int = 1):
        if half_twist_sign not in (1, -1):
            raise MalformedMap("half-twist sign must be +1 or -1")
        return super().__new__(cls, half_twist, half_twist_sign)


class Crossing(namedtuple("Crossing", "over_pair")):
    """A plain crossing; over_pair selects which dart pair {0,2} / {1,3}
    runs over."""

    __slots__ = ()

    def __new__(cls, over_pair: int):
        if over_pair not in (0, 1):
            raise MalformedMap("over_pair must be 0 or 1")
        return super().__new__(cls, over_pair)


class FalDiagram(namedtuple("FalDiagram", "map genus vertex_kind")):
    """A CombinatorialMap, the genus of its surface, and one vertex kind, a
    CrossingCircle or a Crossing, per vertex.  Derived data is cached in
    the instance ``__dict__``, outside the value."""

    def __new__(cls, map: CombinatorialMap, genus: int, vertex_kind):
        vertex_kind = tuple(vertex_kind)
        if len(vertex_kind) != map.vertex_count:
            raise MalformedMap("one vertex kind required per vertex")
        for k in vertex_kind:
            if not isinstance(k, (CrossingCircle, Crossing)):
                raise MalformedMap(f"unknown vertex kind {k!r}")
        return super().__new__(cls, map, genus, vertex_kind)

    @property
    def circles(self) -> tuple[int, ...]:
        """Vertex indices of the crossing circles, in vertex order."""
        return tuple(v for v, k in enumerate(self.vertex_kind) if isinstance(k, CrossingCircle))

    @property
    def crossings(self) -> tuple[int, ...]:
        """Vertex indices of the plain crossings, in vertex order."""
        return tuple(v for v, k in enumerate(self.vertex_kind) if isinstance(k, Crossing))

    @property
    def c(self) -> int:
        """Number of crossing circles."""
        return len(self.circles)

    @property
    def l(self) -> int:
        """Number of projection (strand) components."""
        return len(self.strands)

    @cached_property
    def strands(self) -> tuple[frozenset[int], ...]:
        """Partition of darts into closed strand cycles, by least dart.

        Darts of one edge share a strand, as do darts at opposite rotation
        positions of any vertex (strands pass straight through): at a
        vertex of degree k, slot i faces slot i + k//2 for i < k//2.  Both
        are matchings, so a strand alternates between them and is one
        walk, O(D) for D darts in all.  At an odd degree the last slot
        faces nothing, and its strand is a path, not a cycle: the walk
        goes across the edge first, and from a path end back across the
        vertex from the start.  Starting from each unseen dart in sorted
        order lists the strands by least dart.
        """
        m = self.map
        opp = m.opposite
        through: dict[int, int] = {}
        for cycle in m.rotation:
            half = len(cycle) // 2
            for a, b in zip(cycle[:half], cycle[half:]):
                through[a] = b
                through[b] = a
        seen: set[int] = set()
        strands = []
        for start in m.darts:
            if start in seen:
                continue
            strand = [start, opp[start]]
            d = through.get(strand[-1])
            while d is not None and d != start:
                strand += (d, opp[d])
                d = through.get(strand[-1])
            if d is None:
                d = through.get(start)
                while d is not None:
                    strand += (d, opp[d])
                    d = through.get(strand[-1])
            seen.update(strand)
            strands.append(frozenset(strand))
        return tuple(strands)

    @cached_property
    def canonical(self) -> tuple:
        """The diagram's canonical form (see `diagram_canonical_form`),
        computed once per diagram."""
        return (self.genus, canonical_form(self.map, dart_label=_dart_label(self)))

    @cached_property
    def over_ends(self) -> frozenset[int]:
        """The darts on the overstrand at their crossing: the slots whose
        parity is the crossing's over_pair."""
        rotation = self.map.rotation
        return frozenset(
            d
            for v, kind in enumerate(self.vertex_kind)
            if isinstance(kind, Crossing)
            for d in rotation[v][kind.over_pair :: 2]
        )

    @cached_property
    def twist_regions(self) -> tuple["TwistRegion", ...]:
        """Maximal end-to-end bigon chains of crossings, plus lone crossings,
        in order of each region's least crossing.

        A bigon face joining two distinct crossings links them.  A crossing
        in more than two bigons is rejected before the walk leaves it, so
        every chain is a path, read from its smaller end, or a closed cycle,
        which is rejected.  Each bigon of a chain is checked once for
        alternation.
        """
        m = self.map
        over = self.over_ends
        # links[v]: (u, p, q) per bigon (p, q) with p at v and q at u, for
        # each crossing v in vertex order.
        links: dict[int, list[tuple[int, int, int]]] = {v: [] for v in self.crossings}
        for cycle in trace_faces(m).faces:
            if len(cycle) != 2:
                continue
            p, q = cycle
            vp, vq = m.vertex_of(p), m.vertex_of(q)
            if vp == vq or vp not in links or vq not in links:
                continue
            links[vp].append((vq, p, q))
            links[vq].append((vp, q, p))

        regions: list[TwistRegion] = []
        seen: set[int] = set()
        for start in links:
            if start in seen:
                continue
            if not links[start]:
                seen.add(start)
                ports = m.rotation[start]
                regions.append(TwistRegion((start,), ports, 1 if ports[0] in over else -1))
                continue
            # start is its chain's least crossing: the first end unless
            # the chain runs on both sides of it.
            _require_two_bigons(links, start)
            first = start
            if len(links[start]) == 2:
                first = min(_walk_bigons(links, start, step)[-1][0] for step in links[start])
            steps = _walk_bigons(links, first, links[first][0])
            chain = (first,) + tuple(u for u, _, _ in steps)
            seen.update(chain)
            for _, p, q in steps:
                # Each bigon side must pass over at one crossing and under at
                # the other, otherwise a Reidemeister II move would shorten it.
                for d in (p, q):
                    if (d in over) == (m.opposite[d] in over):
                        raise NonAlternatingTwistRegion(
                            f"bigon edge at dart {d} has two over-ends or two under-ends"
                        )
            # The bigon dart at the first end is the first step's p, at the
            # last end the last step's q.
            x, y = _end_ports(m, steps[0][1])
            z, w = _end_ports(m, steps[-1][2])
            regions.append(TwistRegion(chain, (x, y, z, w), 1 if x in over else -1))
        return tuple(regions)


class TwistRegion(namedtuple("TwistRegion", "crossings boundary_darts sign")):
    """A chain of crossings, its four boundary darts and its crossing sign."""

    __slots__ = ()

    @property
    def parity(self) -> int:
        return len(self.crossings) % 2


class ValidationReport(
    namedtuple(
        "ValidationReport",
        "four_valent crossing_circles_bound_discs crossings_anchored components_meet_circles cellular",
    )
):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(self)


class WgaReport(
    namedtuple(
        "WgaReport",
        "weakly_prime weakly_prime_witness components_on_all_surfaces "
        "crossing_per_component checkerboard alternating representativity",
    )
):
    """The WGA conditions as flags; weakly_prime_witness is None or the
    edge pair (e1, e2) that `check_weakly_prime` returned, and
    representativity is None (not checked) or a Claim of its value."""

    __slots__ = ()

    @property
    def wga_positive(self) -> bool:
        return (
            self.weakly_prime
            and self.components_on_all_surfaces
            and self.crossing_per_component
            and self.checkerboard
            and self.alternating
            and self.representativity is not None
            and self.representativity.value >= 4
        )


def _strands_meet(diagram: FalDiagram, anchors: set[int]) -> bool:
    """Whether every strand meets a vertex of `anchors`.  When every vertex
    is an anchor the strands are not walked: every strand holds a dart, and
    every dart sits at a vertex."""
    m = diagram.map
    return len(anchors) == m.vertex_count or all(
        any(m.vertex_of(d) in anchors for d in comp) for comp in diagram.strands
    )


def validate_fal(diagram: FalDiagram) -> ValidationReport:
    """The FAL conditions as flags.  Every strand must meet a circle, or a
    crossing when the diagram has no circle, so the strands are walked only
    when the diagram has both kinds."""
    m = diagram.map
    four_valent = all(m.degree(v) == 4 for v in range(m.vertex_count))
    # A crossing disc is met exactly twice iff its circle vertex carries
    # exactly the two strand passages, i.e. is 4-valent.
    circles = set(diagram.circles)
    crossings = set(diagram.crossings)
    crossing_discs = four_valent or all(m.degree(v) == 4 for v in circles)
    anchored = not circles or all(
        any(m.vertex_of(m.opposite[d]) in circles for d in m.rotation[v]) for v in crossings
    )
    meet = _strands_meet(diagram, circles or crossings)
    cellular = four_valent and map_genus(m) == diagram.genus
    return ValidationReport(four_valent, crossing_discs, anchored, meet, cellular)


def require_cellular(diagram: FalDiagram) -> None:
    """Raise unless every crossing and every circle vertex is 4-valent, in
    that order, and the map is cellular on the surface of the declared
    genus: the FAL precondition, checked on entry by every operation.  The
    genus reads the cached face trace."""
    m = diagram.map
    for v in diagram.crossings:
        if m.degree(v) != 4:
            raise MalformedMap(f"crossing {v} has degree {m.degree(v)}, not 4")
    for v in diagram.circles:
        if m.degree(v) != 4:
            raise MalformedMap(f"circle vertex {v} has degree {m.degree(v)}, not 4")
    g = map_genus(m)
    if g != diagram.genus:
        raise NotCellular(f"map genus {g} differs from declared genus {diagram.genus}")


# -- twist regions ----------------------------------------------------------


def detect_twist_regions(diagram: FalDiagram) -> tuple[TwistRegion, ...]:
    """The diagram's twist regions, found once per diagram and then shared."""
    return diagram.twist_regions


def _require_two_bigons(links, v: int) -> None:
    if len(links[v]) > 2:
        raise MalformedMap(f"crossing {v} sits in more than two bigons")


def _walk_bigons(links, start: int, step):
    """The bigons crossed from `start` through `step` to the chain's end;
    each crossing is left by its other bigon."""
    steps = [step]
    while True:
        u, _, q = steps[-1]
        if u == start:
            raise MalformedMap("closed cycle of bigons has no twist-region ends")
        _require_two_bigons(links, u)
        if len(links[u]) == 1:
            return steps
        a, b = links[u]
        steps.append(b if a[1] == q else a)


def _end_ports(m: CombinatorialMap, p: int) -> tuple[int, int]:
    """The two non-bigon darts at the chain end v of bigon dart p, in
    rotation order.

    The end's one bigon (p, q) has p at v, and faces are traced by
    d -> succ(opp(d)), so its darts at v are exactly p and opp(q), with
    p = succ(opp(q)).  Two ports besides them make v 4-valent, so the
    ports are the two darts that follow p."""
    v = m.vertex_of(p)
    if m.degree(v) != 4:
        raise MalformedMap(f"chain end {v} has {m.degree(v) - 2} boundary darts")
    x = m.rotation_successor(p)
    return x, m.rotation_successor(x)


# -- augmentation and filling -----------------------------------------------


def _replace_tangles(diagram: FalDiagram, kinds, tangles) -> FalDiagram:
    """Cut each tangle out of `diagram` and glue a ladder in its place.

    A tangle is (vertices, ports, new_kinds); its vertices go, with all
    their darts.  In their place goes a ladder of one 4-valent vertex per
    new kind, each rotation reading (a, b, c, d) with a, b facing the
    previous vertex and c, d the next, as in a twist region.  Ladder darts
    are numbered upward from the diagram's largest dart, one tangle after
    another, and the ladders' vertices follow the kept ones, whose kinds
    come from `kinds`.  The partner of each of the four ports is glued to
    the matching end dart: a, b of the first ladder vertex, then c, d of
    the last.  The caller has checked the input with require_cellular;
    one map is built, and a genus the surgery changed is an InternalInvariant.
    """
    m = diagram.map
    cut = {v for tangle in tangles for v in tangle[0]}
    rotation = [m.rotation[v] for v in range(m.vertex_count) if v not in cut]
    out_kinds = [kinds[v] for v in range(m.vertex_count) if v not in cut]
    end: dict[int, int] = {}
    rungs: list[tuple[int, int]] = []
    next_dart = max(m.opposite) + 1
    for _, ports, new_kinds in tangles:
        ladder = [tuple(range(d, d + 4)) for d in range(next_dart, next_dart + 4 * len(new_kinds), 4)]
        next_dart += 4 * len(new_kinds)
        end.update(zip(ports, ladder[0][:2] + ladder[-1][2:]))
        for (_, _, c_i, d_i), (a_next, b_next, _, _) in zip(ladder, ladder[1:]):
            rungs += ((c_i, b_next), (b_next, c_i), (d_i, a_next), (a_next, d_i))
        rotation.extend(ladder)
        out_kinds.extend(new_kinds)
    inner = {d for v in cut for d in m.rotation[v] if d not in end}
    opposite = {end.get(d, d): end.get(e, e) for d, e in m.opposite.items() if d not in inner}
    opposite.update(rungs)
    out = FalDiagram(CombinatorialMap(tuple(rotation), opposite), diagram.genus, tuple(out_kinds))
    g = map_genus(out.map)
    if g != diagram.genus:
        raise InternalInvariant(f"surgery changed the surface genus from {diagram.genus} to {g}")
    return out


def augment(diagram: FalDiagram) -> FalDiagram:
    """Replace every twist region by a crossing circle.

    A region with k crossings becomes a circle with half_twist = (k odd);
    the half-twist sign records the region's common crossing sign.  A lone
    crossing changes kind in place; each longer chain is cut out and a new
    circle vertex is glued to its four ports.
    The input must pass require_cellular, even with nothing to rewrite."""
    require_cellular(diagram)
    regions = detect_twist_regions(diagram)
    if not regions:
        return diagram
    kinds = list(diagram.vertex_kind)
    tangles = []
    for r in regions:
        circle = CrossingCircle(half_twist=r.parity == 1, half_twist_sign=r.sign)
        if len(r.crossings) == 1:
            kinds[r.crossings[0]] = circle
        else:
            tangles.append((r.crossings, r.boundary_darts, [circle]))
    return _replace_tangles(diagram, kinds, tangles)


# A fill builds one map holding every added crossing, so its time and
# memory grow linearly with them: `fill` of a genus-2 diagram adding 10^5
# crossings takes about 2-3 s and 290 MB on a shared 2-core x86-64 host.
MAX_FILL_CROSSINGS = 10**5


def fill_crossing_circle(diagram: FalDiagram, k: int, t: int) -> FalDiagram:
    """1/t Dehn filling on circle k alone; see fill_all."""
    return fill_all(diagram, {k: t})


def fill_all(diagram: FalDiagram, coefficients: dict[int, int]) -> FalDiagram:
    """1/t Dehn filling on each circle k -> t of `coefficients`, whose keys
    are vertex indices of `diagram`: every filled circle becomes a twist
    region.

    Without a half-twist the region has 2|t| crossings of sign sgn(t);
    a half-twist merges in (2|t|+1) when its sign matches sgn(t) and
    cancels one crossing (2|t|-1) otherwise.

    The input must pass require_cellular first, even with no coefficients.
    Keys are checked from the highest down, t before k, so the first bad
    key raises ZeroCoefficient or NotACrossingCircle.  The unfilled
    vertices keep their order; one ladder of crossings per filled circle
    follows them, from the highest circle index down, with darts numbered
    upward from the diagram's largest dart, so the result equals filling
    one circle at a time from the highest index down.  One map is built,
    and its genus is checked once.  Fillings that would add more than
    MAX_FILL_CROSSINGS crossings in total raise FillTooLarge before any
    surgery.
    """
    require_cellular(diagram)
    if not coefficients:
        return diagram
    m = diagram.map
    keys = sorted(coefficients, reverse=True)
    for k in keys:
        if coefficients[k] == 0:
            raise ZeroCoefficient("filling coefficient t must be nonzero")
        if not (0 <= k < m.vertex_count) or not isinstance(diagram.vertex_kind[k], CrossingCircle):
            raise NotACrossingCircle(f"vertex {k} is not a crossing circle")

    tangles, added = [], 0
    for k in keys:
        t, kind = coefficients[k], diagram.vertex_kind[k]
        sign = 1 if t > 0 else -1
        n = 2 * abs(t)
        if kind.half_twist:
            n = n + 1 if sign == kind.half_twist_sign else n - 1
        added += n
        if added > MAX_FILL_CROSSINGS:
            raise FillTooLarge(
                f"filling circle {k} brings the added crossings to {added}, "
                f"above the cap of {MAX_FILL_CROSSINGS}"
            )
        tangles.append(((k,), m.rotation[k], [Crossing(0 if sign == 1 else 1)] * n))
    return _replace_tangles(diagram, diagram.vertex_kind, tangles)


# -- alternation ------------------------------------------------------------


def check_alternating(diagram: FalDiagram) -> bool:
    """True iff every edge runs from an overstrand end to an understrand end.

    Equivalent to over/under alternation along every face boundary.
    """
    m = diagram.map
    if diagram.circles:
        raise UnfilledCircle(f"vertex {diagram.circles[0]} is still a crossing circle")
    over = diagram.over_ends
    return all((d in over) != (m.opposite[d] in over) for d in m.edges())


def choose_alternating_signs(diagram: FalDiagram) -> tuple[int, ...]:
    """Per-circle filling signs making every filling alternate.

    The corner faces around a 4-valent vertex alternate checkerboard
    colors, so the color of a circle's slot-0 corner face determines which
    dart pair must run over after filling.  Any fill magnitude works: the
    twist chain's four end darts sit at the same slot parities regardless
    of its length.  The two globally-flipped solutions are disambiguated by
    forcing +1 at the lowest-index circle.
    """
    m = diagram.map
    coloring = checkerboard_coloring(m)
    if coloring is None:
        raise NotCheckerboard("diagram faces admit no checkerboard coloring")
    fs = trace_faces(m)
    signs = [1 if coloring[fs.face_of[m.rotation[v][0]]] == 0 else -1 for v in diagram.circles]
    if signs and signs[0] == -1:
        signs = [-s for s in signs]
    return tuple(signs)


# -- weak primeness and the WGA report --------------------------------------


def check_weakly_prime(diagram: FalDiagram):
    """Scan all realizable 2-cut curves for a disc side.

    Candidate curves cross a pair of distinct edges sharing both flanking
    faces.  A separating candidate whose disc side contains vertices is a
    weak-primeness witness: on a disc any vertex-free strand would be
    unknotted, so only vertex-carrying disc sides disqualify the diagram.
    A candidate separates exactly when its two edges have equal cycle-space
    labels, so one pass over the edges in sorted order groups them by
    corridor (the flanking faces, smaller first) and label, and only pairs
    within a group are cut and tested for a disc side.  The scan order is
    by corridor, then by edge pair.
    Returns (True, None) or (False, (e1, e2)).
    """
    m = diagram.map
    face_of, opp = trace_faces(m).face_of, m.opposite
    labels = cycle_space_labels(m)
    groups: dict[tuple[int, int, int], list[int]] = {}
    for e in m.edges():
        fa, fb = face_of[e], face_of[opp[e]]
        if fa != fb:
            key = (fa, fb, labels[e]) if fa < fb else (fb, fa, labels[e])
            groups.setdefault(key, []).append(e)
    candidates = sorted(
        (fa, fb, e1, e2)
        for (fa, fb, _), group in groups.items()
        if len(group) > 1
        for i, e1 in enumerate(group)
        for e2 in group[i + 1 :]
    )
    for fa, fb, e1, e2 in candidates:
        a, b, disc_a, disc_b = cut_along_two_cut(m, e1, e2, fa, fb)
        if (disc_a and a.vertices) or (disc_b and b.vertices):
            return False, (e1, e2)
    return True, None


def check_wga(diagram: FalDiagram, surface_incompressible: bool) -> WgaReport:
    """The WGA conditions as flags, with the weak-primeness witness; every
    strand must meet a crossing.  The caller's surface_incompressible is
    asserted, not checked: it makes the representativity infinite."""
    m = diagram.map
    try:
        alternating = check_alternating(diagram)
    except UnfilledCircle:
        alternating = False
    weakly_prime, witness = check_weakly_prime(diagram)
    incompressible = Claim("asserted", float("inf"), ("the projection surface is incompressible",))
    return WgaReport(
        weakly_prime=weakly_prime,
        weakly_prime_witness=witness,
        components_on_all_surfaces=map_genus(m) == diagram.genus,
        crossing_per_component=_strands_meet(diagram, set(diagram.crossings)),
        checkerboard=checkerboard_coloring(m) is not None,
        alternating=alternating,
        representativity=incompressible if surface_incompressible else None,
    )


# -- isomorphism ------------------------------------------------------------


def _dart_label(diagram: FalDiagram):
    vertex_of, kinds, over = diagram.map.vertex_of, diagram.vertex_kind, diagram.over_ends

    def label(d: int):
        kind = kinds[vertex_of(d)]
        if isinstance(kind, CrossingCircle):
            return ("O", kind.half_twist)
        return ("X", d in over)

    return label


def diagram_canonical_form(diagram: FalDiagram) -> tuple:
    """The genus and the canonical form of the map with each dart labelled by
    its vertex kind; cached on the diagram, as its strands are."""
    return diagram.canonical


def diagrams_isomorphic(a: FalDiagram, b: FalDiagram) -> bool:
    """Equality up to dart relabeling; half-twist flags compared, their
    signs not (the sign is a presentation choice)."""
    return diagram_canonical_form(a) == diagram_canonical_form(b)
