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
from .surface_map import (
    CombinatorialMap,
    checkerboard_coloring,
    genus as map_genus,
    trace_faces,
)

__all__ = ["generate_fal"]


def _has_same_parity_loop(m: CombinatorialMap) -> bool:
    """A loop joining two equal-parity slots of one vertex pinches a strand
    passage; such diagrams fill to non-checkerboard messes and are skipped."""
    for d in m.darts:
        e = m.opposite[d]
        if m.vertex_of(d) == m.vertex_of(e) and m.position_of(d) % 2 == m.position_of(e) % 2:
            return True
    return False


def _random_base(rng: random.Random, g: int, tries: int = 4000) -> CombinatorialMap:
    """One-face 4-valent map on 2g-1 vertices (the minimum circle count)."""
    n = 2 * g - 1
    darts = list(range(4 * n))
    rotation = tuple(tuple(darts[4 * v : 4 * v + 4]) for v in range(n))
    for _ in range(tries):
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
            assert map_genus(m) == g
            return m
    raise GenerationFailed(f"no one-face base map found for genus {g}")


def _insert_circle(rng: random.Random, m: CombinatorialMap, tries: int = 200) -> Optional[CombinatorialMap]:
    """Reroute two edges of one face through a new vertex, preserving genus.

    The new vertex's slot pairs {0,2} and {1,3} each carry one of the two
    severed edges, so both strand passages are genuine.  Of the four ways
    of reattaching the severed ends, the ones that keep the curve between
    the two edges inside the chosen face add exactly one face; the wiring
    is found by trying them.
    """
    g = map_genus(m)
    fs = trace_faces(m)
    base = max(m.darts) + 1
    h = (base, base + 1, base + 2, base + 3)
    for _ in range(tries):
        face = fs.faces[rng.randrange(fs.count)]
        if len(face) < 2:
            continue
        u = face[rng.randrange(len(face))]
        w = face[rng.randrange(len(face))]
        if m.edge_of(u) == m.edge_of(w):
            continue
        u2, w2 = m.opposite[u], m.opposite[w]
        rotation = m.rotation + (h,)
        for ends_u, ends_w in (
            ((u, u2), (w, w2)),
            ((u, u2), (w2, w)),
            ((u2, u), (w, w2)),
            ((u2, u), (w2, w)),
        ):
            opposite = dict(m.opposite)
            opposite[ends_u[0]] = h[0]
            opposite[h[0]] = ends_u[0]
            opposite[ends_u[1]] = h[2]
            opposite[h[2]] = ends_u[1]
            opposite[ends_w[0]] = h[1]
            opposite[h[1]] = ends_w[0]
            opposite[ends_w[1]] = h[3]
            opposite[h[3]] = ends_w[1]
            try:
                grown = CombinatorialMap(rotation, opposite)
            except MalformedMap:
                continue
            # Reduced diagrams only: a bigon face between two circles would
            # let their twist regions merge after filling, spoiling the
            # one-region-per-circle correspondence.  The one-face base map
            # has 4(2g-1) >= 12 darts, so checking each insertion suffices.
            if (
                map_genus(grown) == g
                and not _has_same_parity_loop(grown)
                and all(len(f) >= 3 for f in trace_faces(grown).faces)
            ):
                return grown
    return None


def generate_fal(
    g: int,
    c: int,
    seed: Optional[int] = None,
    half_twist_probability: float = 0.0,
    require_checkerboard: bool = False,
    tries: int = 50,
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
    if require_checkerboard:
        if c < 2 * g:
            raise GenerationFailed(
                "a one-face diagram is self-adjacent, never checkerboard; need c >= 2g"
            )
        tries = max(tries, 2000)
    rng = random.Random(seed)
    for _ in range(tries):
        m = _random_base(rng, g)
        ok = True
        while m.vertex_count < c:
            grown = _insert_circle(rng, m)
            if grown is None:
                ok = False
                break
            m = grown
        if not ok:
            continue
        if require_checkerboard and checkerboard_coloring(m) is None:
            continue
        kinds = []
        for _ in range(c):
            if half_twist_probability > 0 and rng.random() < half_twist_probability:
                kinds.append(CrossingCircle(half_twist=True, half_twist_sign=rng.choice((1, -1))))
            else:
                kinds.append(CrossingCircle())
        return FalDiagram(m, g, tuple(kinds))
    raise GenerationFailed(f"could not generate a (g={g}, c={c}) diagram")
