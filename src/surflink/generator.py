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

from .errors import GenerationFailed
from .fal_diagram import CrossingCircle, FalDiagram
from .surface_map import CombinatorialMap, FaceSet, checkerboard_coloring, trace_faces

__all__ = ["generate_fal"]

BASE_TRIES = 4000  # random pairings per one-face base map
INSERT_TRIES = 200  # (face, u, w) draws per circle insertion
GENERATE_TRIES = 50  # base maps grown per diagram
CHECKERBOARD_TRIES = 2000  # the same, when the checkerboard filter is on


def _random_base(rng: random.Random, g: int) -> CombinatorialMap:
    """One-face 4-valent map on 2g-1 vertices (the minimum circle count).

    With V = 2g-1, E = 4g-2 and F = 1 the Euler characteristic is 2-2g,
    so one face is exactly genus g.

    Vertex v holds darts 4v..4v+3 in slot order, so each shuffled pairing
    is decided on the flat pool and only the returned one is built.  A
    pair (a, b) is a same-parity loop -- it joins two equal-parity slots of
    one vertex, pinching a strand passage, and such diagrams fill to
    non-checkerboard messes -- when a//4 == b//4 and a-b is even.  The
    pairing has one face when the face walk from dart 0, d -> the slot
    after opposite[d], takes all 4(2g-1) darts; one face visits every
    dart, so the map is connected.
    """
    n = 2 * g - 1
    darts = list(range(4 * n))
    rotation = tuple(tuple(darts[4 * v : 4 * v + 4]) for v in range(n))
    for _ in range(BASE_TRIES):
        pool = darts[:]
        rng.shuffle(pool)
        pairs = list(zip(pool[::2], pool[1::2]))
        if any(a // 4 == b // 4 and (a - b) % 2 == 0 for a, b in pairs):
            continue
        opposite = {}
        for a, b in pairs:
            opposite[a] = b
            opposite[b] = a
        d, length = 0, 0
        while True:
            e = opposite[d]
            d = e - e % 4 + (e + 1) % 4
            length += 1
            if d == 0:
                break
        if length == len(darts):
            return CombinatorialMap(rotation, opposite)
    raise GenerationFailed(f"no one-face base map found for genus {g}")


def _splice(
    fs: FaceSet, position: dict[int, int], ends: tuple[int, int, int, int]
) -> tuple[int, list[int]]:
    """Faces gained, and the lengths of the faces through the new vertex,
    when the parent's darts ends[i] are paired with the new darts h[i].

    The ends are two edges of the parent, ends[i] opposite ends[i+2].  A
    dart's face successor is the rotation successor of its opposite, so
    the parent's successor phi is kept by every old dart but the four
    ends, and the grown map has phi'(ends[i]) = h[i+1] and phi'(h[i+1]) =
    the rotation successor of ends[i+1] = phi(ends[i-1]).  From ends[i]
    a face thus runs through h[i+1] and on along the parent's face of
    ends[i-1] up to the next end there, gap(ends[i-1]) phi-steps away
    (the whole face length when ends[i-1] is that face's only end): that
    is 1 + gap(ends[i-1]) darts.  The faces through h are the cycles of
    ends[i] -> next end after ends[i-1]; every other face is a parent face
    that holds no end.  `position` is each dart's index in its parent face.
    """
    after = []
    for i, e in enumerate(ends):
        face = fs.face_of[e]
        size = len(fs.faces[face])
        steps, nxt = size, i
        for j, x in enumerate(ends):
            if j != i and fs.face_of[x] == face:
                k = (position[x] - position[e]) % size
                if k < steps:
                    steps, nxt = k, j
        after.append((nxt, steps))
    lengths = []
    seen = [False] * 4
    for start in range(4):
        i, length = start, 0
        while not seen[i]:
            seen[i] = True
            i, steps = after[i - 1]
            length += 1 + steps
        if length:
            lengths.append(length)
    return len(lengths) - len({fs.face_of[e] for e in ends}), lengths


def _insert_circle(rng: random.Random, m: CombinatorialMap) -> Optional[CombinatorialMap]:
    """Reroute two edges of one face through a new vertex, preserving genus.

    The new vertex h = (h0, h1, h2, h3) takes the severed edge u-u2 on the
    slot pair {0, 2} and w-w2 on {1, 3}, so both strand passages are
    genuine.  Of the four ways of reattaching the ends, the two with u on
    h2 are the two with u on h0 under the swap h0<->h2, h1<->h3.  The swap
    keeps the cyclic order of h and every slot parity, so each twin has the
    same faces as its partner; only the wirings with u on h0 are tried.
    The insertion adds one vertex and two edges, so a wiring keeps the
    genus exactly when it adds one face.  Reduced diagrams only: a bigon
    between two circles would let their twist regions merge after
    filling, spoiling the one-region-per-circle correspondence, so every
    new face needs at least three darts; the faces the splice leaves
    alone are parent faces, which have them already (the one-face base
    has 4(2g-1) >= 12 darts, and every insertion is checked).  `_splice`
    reads both numbers off the parent's faces, so a draw is decided
    without building a map, and only the accepted wiring is built.  Many
    draws admit no such wiring; they are redrawn.

    The grown map is always a valid map: the four new darts are fresh and
    paired with distinct old darts, and every old adjacency A-B across a
    severed edge becomes A-h-B, so it stays connected.  It has no
    same-parity loop either: no edge joins h to itself, and the old
    vertices keep their slots and gain no edge between two old darts, so
    it has one only if the parent has -- and neither the base nor any map
    grown from it does.
    """
    fs = trace_faces(m)
    position = {d: k for face in fs.faces for k, d in enumerate(face)}
    base = max(m.darts) + 1
    h = (base, base + 1, base + 2, base + 3)
    for _ in range(INSERT_TRIES):
        face = fs.faces[rng.randrange(fs.count)]
        u = face[rng.randrange(len(face))]
        w = face[rng.randrange(len(face))]
        if m.edge_of(u) == m.edge_of(w):
            continue
        u2, w2 = m.opposite[u], m.opposite[w]
        for ends in ((u, w, u2, w2), (u, w2, u2, w)):
            gained, lengths = _splice(fs, position, ends)
            if gained == 1 and min(lengths) >= 3:
                opposite = dict(m.opposite)
                for old, new in zip(ends, h):
                    opposite[old] = new
                    opposite[new] = old
                return CombinatorialMap(m.rotation + (h,), opposite)
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
