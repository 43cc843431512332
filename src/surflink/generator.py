"""Random cellular FAL diagrams with prescribed genus and circle count.

Strategy: rejection-sample a 4-valent rotation system with the minimum
number of circles for the genus (c = 2g-1, a one-face map), then grow it
one crossing circle at a time by rerouting two edges of a common face
through a fresh 4-valent vertex, keeping the genus fixed at every step.
Pure rejection at large c is hopeless -- one-face maps are common, but
maps hitting an exact intermediate face count are rare -- so growth does
the heavy lifting.
"""

from __future__ import annotations

import random
from typing import Optional

from .errors import GenerationFailed, MalformedMap
from .fal_diagram import CrossingCircle, FalDiagram
from .surface_map import CombinatorialMap, checkerboard_coloring, trace_faces

__all__ = ["generate_fal"]

BASE_TRIES = 4000  # random pairings per one-face base map
INSERT_TRIES = 200  # (face, u, w) draws per circle insertion
GENERATE_TRIES = 50  # base maps grown per diagram
CHECKERBOARD_TRIES = 2000  # the same, when the checkerboard filter is on


def _has_same_parity_loop(m: CombinatorialMap) -> bool:
    """A loop joining two equal-parity slots of one vertex pinches a strand
    passage; such diagrams fill to non-checkerboard messes and are skipped."""
    for d in m.darts:
        e = m.opposite[d]
        if m.vertex_of(d) == m.vertex_of(e) and m.position_of(d) % 2 == m.position_of(e) % 2:
            return True
    return False


def _random_base(rng: random.Random, g: int) -> CombinatorialMap:
    """One-face 4-valent map on 2g-1 vertices (the minimum circle count).

    With V = 2g-1, E = 4g-2 and F = 1 the Euler characteristic is 2-2g,
    so one face is exactly genus g."""
    n = 2 * g - 1
    darts = list(range(4 * n))
    rotation = tuple(tuple(darts[4 * v : 4 * v + 4]) for v in range(n))
    for _ in range(BASE_TRIES):
        pool = darts[:]
        rng.shuffle(pool)
        opposite = {}
        for i in range(0, len(pool), 2):
            a, b = pool[i], pool[i + 1]
            opposite[a] = b
            opposite[b] = a
        try:
            m = CombinatorialMap(rotation, opposite)
        except MalformedMap:
            continue
        if _has_same_parity_loop(m):
            continue
        if trace_faces(m).count == 1:
            return m
    raise GenerationFailed(f"no one-face base map found for genus {g}")


def _insert_circle(rng: random.Random, m: CombinatorialMap) -> Optional[CombinatorialMap]:
    """Reroute two edges of one face through a new vertex, preserving genus.

    The new vertex h = (h0, h1, h2, h3) takes the severed edge u-u2 on the
    slot pair {0, 2} and w-w2 on {1, 3}, so both strand passages are
    genuine.  Of the four ways of reattaching the ends, the two with u on
    h2 are the two with u on h0 under the swap h0<->h2, h1<->h3.  The swap
    keeps the cyclic order of h and every slot parity, so each twin has the
    same faces as its partner; only the wirings with u on h0 are built.
    The insertion adds one vertex and two edges, so a wiring keeps the
    genus exactly when it adds one face.  Many draws admit no such wiring;
    they are redrawn.

    The grown map is always a valid map: the four new darts are fresh and
    paired with distinct old darts, and every old adjacency A-B across a
    severed edge becomes A-h-B, so it stays connected.  It has no
    same-parity loop either: no edge joins h to itself, and the old
    vertices keep their slots and gain no edge between two old darts, so
    it has one only if the parent has -- and neither the base nor any map
    grown from it does.
    """
    fs = trace_faces(m)
    base = max(m.darts) + 1
    h = (base, base + 1, base + 2, base + 3)
    rotation = m.rotation + (h,)
    for _ in range(INSERT_TRIES):
        face = fs.faces[rng.randrange(fs.count)]
        u = face[rng.randrange(len(face))]
        w = face[rng.randrange(len(face))]
        if m.edge_of(u) == m.edge_of(w):
            continue
        u2, w2 = m.opposite[u], m.opposite[w]
        for ends in ((u, w, u2, w2), (u, w2, u2, w)):
            opposite = dict(m.opposite)
            for old, new in zip(ends, h):
                opposite[old] = new
                opposite[new] = old
            grown = CombinatorialMap(rotation, opposite)
            # Reduced diagrams only: a bigon face between two circles would
            # let their twist regions merge after filling, spoiling the
            # one-region-per-circle correspondence.  The one-face base map
            # has 4(2g-1) >= 12 darts, so checking each insertion suffices,
            # and every face drawn from above has at least three darts.
            faces = trace_faces(grown).faces
            if len(faces) == fs.count + 1 and all(len(f) >= 3 for f in faces):
                return grown
    return None


def generate_fal(
    g: int,
    c: int,
    seed: Optional[int] = None,
    half_twist_probability: float = 0.0,
    require_checkerboard: bool = False,
) -> FalDiagram:
    """Random cellular FAL with c crossing circles on a genus-g surface.

    Raises GenerationFailed when c < 2g-1: a cellular diagram has
    c + 2 - 2g complementary faces, so at least one face forces c >= 2g-1.
    With require_checkerboard the sampling is filtered on checkerboard
    colorability; that needs at least two faces, i.e. c >= 2g.
    """
    if g < 2:
        raise GenerationFailed("generator targets surfaces of genus >= 2")
    if c < 2 * g - 1:
        raise GenerationFailed(
            f"no cellular diagram exists with c={c} < 2g-1={2 * g - 1} on genus {g}"
        )
    if require_checkerboard and c < 2 * g:
        raise GenerationFailed(
            "a one-face diagram is self-adjacent, never checkerboard; need c >= 2g"
        )
    rng = random.Random(seed)
    for _ in range(CHECKERBOARD_TRIES if require_checkerboard else GENERATE_TRIES):
        m = _random_base(rng, g)
        while m is not None and m.vertex_count < c:
            m = _insert_circle(rng, m)
        if m is None or (require_checkerboard and checkerboard_coloring(m) is None):
            continue
        kinds = []
        for _ in range(c):
            if half_twist_probability > 0 and rng.random() < half_twist_probability:
                kinds.append(CrossingCircle(half_twist=True, half_twist_sign=rng.choice((1, -1))))
            else:
                kinds.append(CrossingCircle())
        return FalDiagram(m, g, tuple(kinds))
    raise GenerationFailed(f"could not generate a (g={g}, c={c}) diagram")
