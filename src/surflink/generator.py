"""Random cellular FAL diagrams with prescribed genus and circle count.

Strategy: rejection-sample a 4-valent rotation system with the minimum
number of circles for the genus (c = 2g-1, a one-face map), then grow it
one crossing circle at a time by rerouting two edges of a common face
through a fresh 4-valent vertex, keeping the genus fixed at every step.
Pure rejection at large c is hopeless -- one-face maps are common, but
maps hitting an exact intermediate face count are rare -- so growth does
the heavy lifting.

Growth runs on flat state, never on a `CombinatorialMap`.  Vertex v holds
darts 4v..4v+3 in slot order, so a map is its edge involution `opp`
alone, and the face successor of d is the slot after e = opp[d],
e - e%4 + (e+1)%4.  The rng draws index into the face list, so the faces
are kept in the order `trace_faces` lists them for the built map: by
minimum dart, each face's tuple starting at its minimum dart.  Accepting
a draw drops the faces that held the rerouted ends and traces again only
from the four new darts, since every face that changes passes through
the new vertex; the cost per step is the length of the faces through it,
not the size of the map.  One map is built per grown diagram, handed
these faces: the map core runs its structural checks and checks that the
faces partition the darts, but neither walks the map for connectivity nor
traces it again (`_build_map` says why both are proved), and the counting
laws growth kept are checked on the handed-over faces.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort

from .errors import GenerationFailed, GenerationTooLarge, InternalInvariant
from .fal_diagram import MAX_FILL_CROSSINGS, CrossingCircle, FalDiagram
from .surface_map import CombinatorialMap, checkerboard_coloring

__all__ = ["generate_fal"]

BASE_TRIES = 4000  # random pairings per one-face base map
INSERT_TRIES = 200  # (face, u, w) draws per circle insertion
GENERATE_TRIES = 50  # base maps grown per diagram
CHECKERBOARD_TRIES = 2000  # the same, when the checkerboard filter is on
# Size caps, checked before any draw.  Growth time and memory are linear in
# c: 10^5 circles, the `fill` crossing cap, take about 11 s and 320 MB on a
# shared 2-core x86-64 host.  A base-map try shuffles 4(2g-1) darts, so a
# failing BASE_TRIES budget is linear in g: about 21 s at g = 2000 there.
MAX_GENERATE_CIRCLES = MAX_FILL_CROSSINGS
MAX_GENERATE_GENUS = 2000


def _below(getrandbits, n: int) -> int:
    """A random index in [0, n), drawn with exactly the `getrandbits` calls
    of CPython's `Random._randbelow_with_getrandbits(n)` (the same in 3.10
    through 3.13), which is what `randrange(n)` and each step of `shuffle`
    run: k = n.bit_length() bits at a time, drawn again while the draw is
    >= n.  Defined only for n > 0: `getrandbits(0)` returns 0, so for n <= 0
    the loop would never end."""
    if n <= 0:
        raise InternalInvariant(f"no index below {n} to draw")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _shuffle_steps(size: int) -> list[tuple[int, int, int]]:
    """(i, n, k) for each step of `Random.shuffle` on `size` items, in the
    order it runs them: i from size-1 down to 1, n = i+1 and k =
    n.bit_length(), so that step i swaps positions i and `_below(n)`."""
    return [(i, i + 1, (i + 1).bit_length()) for i in range(size - 1, 0, -1)]


def _random_base(rng: random.Random, g: int) -> list[int]:
    """One-face 4-valent map on 2g-1 vertices (the minimum circle count),
    as its flat involution: opp[d] is the other dart of d's edge.

    With V = 2g-1, E = 4g-2 and F = 1 the Euler characteristic is 2-2g,
    so one face is exactly genus g.

    A pair (a, b) of the shuffled pool is a same-parity loop -- it joins
    two equal-parity slots of one vertex, pinching a strand passage, and
    such diagrams fill to non-checkerboard messes -- when a//4 == b//4 and
    a-b is even, that is when a ^ b == 2.  The pairing has one face when
    the face walk from dart 0 takes all 4(2g-1) darts; one face visits
    every dart, so the map is connected.

    The pool is shuffled inline with the `getrandbits` calls of
    `rng.shuffle(pool)`: step i, from the top down to 1, draws
    j = `_below(getrandbits, i+1)` and swaps positions i and j.  Step i
    writes only positions i and j <= i, so position i never changes after
    step i: pair (2t, 2t+1) is final after step 2t for t >= 1, and pair 0
    after step 1.  Each pair is tested as soon as it is final.  Once a loop
    appears, the remaining steps still draw but skip the swaps and tests:
    how many `getrandbits` calls a draw makes depends on the values drawn,
    so only the full set of draws leaves the rng where `shuffle` leaves it.
    """
    size = 4 * (2 * g - 1)
    darts = list(range(size))
    steps = _shuffle_steps(size)
    getrandbits = rng.getrandbits
    for _ in range(BASE_TRIES):
        pool = darts[:]
        opp = [0] * size
        loop = False
        for i, n, k in steps:
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            if loop:
                continue
            pool[i], pool[j] = pool[j], pool[i]
            if not i & 1 or i == 1:
                t = i & ~1
                a, b = pool[t], pool[t + 1]
                if a ^ b == 2:
                    loop = True
                    continue
                opp[a] = b
                opp[b] = a
        if loop:
            continue
        d, length = 0, 0
        while True:
            e = opp[d]
            d = e - e % 4 + (e + 1) % 4
            length += 1
            if d == 0:
                break
        if length == size:
            return opp
    raise GenerationFailed(f"no one-face base map found for genus {g}")


class _Growth:
    """A growing 4-valent map as flat arrays, with its faces in trace order.

    `opp` is the edge involution.  A face is keyed by its minimum dart:
    `mins` lists the keys in increasing order, `face_at[k]` is the face's
    dart tuple starting at k, and `key_of[d]` and `pos[d]` are dart d's
    face key and its index in that tuple.  `face_at[mins[i]]` is then the
    i-th face `trace_faces` gives for the built map.
    """

    __slots__ = ("opp", "mins", "face_at", "key_of", "pos")

    def __init__(self, opp: list[int]) -> None:
        self.opp = opp
        self.mins: list[int] = []
        self.face_at: dict[int, tuple[int, ...]] = {}
        self.key_of = [-1] * len(opp)
        self.pos = [0] * len(opp)
        for d in range(len(opp)):
            if self.key_of[d] < 0:
                self._trace(d)

    @property
    def vertex_count(self) -> int:
        return len(self.opp) // 4

    def _trace(self, start: int) -> None:
        opp = self.opp
        cycle = [start]
        e = opp[start]
        d = e - e % 4 + (e + 1) % 4
        while d != start:
            cycle.append(d)
            e = opp[d]
            d = e - e % 4 + (e + 1) % 4
        k = cycle.index(min(cycle))
        face = tuple(cycle[k:] + cycle[:k])
        key = face[0]
        for i, x in enumerate(face):
            self.key_of[x] = key
            self.pos[x] = i
        self.face_at[key] = face
        insort(self.mins, key)

    def grow(self, ends: tuple[int, int, int, int]) -> None:
        """Pair ends[i] with the new vertex's dart h[i] and update the faces.

        Only the faces holding an end change, and each of their darts ends
        up on a face through h, so the stale entries of those darts are all
        overwritten by the traces from h.
        """
        h = range(len(self.opp), len(self.opp) + 4)
        for key in {self.key_of[e] for e in ends}:
            del self.face_at[key]
            del self.mins[bisect_left(self.mins, key)]
        for e, x in zip(ends, h):
            self.opp[e] = x
        self.opp.extend(ends)
        self.key_of.extend((-1, -1, -1, -1))
        self.pos.extend((0, 0, 0, 0))
        for x in h:
            if self.key_of[x] < 0:
                self._trace(x)


def _build_map(state: _Growth, g: int) -> CombinatorialMap:
    """The map of a state grown at genus g, handed its faces.

    Growth keeps the genus and the reduced-face condition by face
    arithmetic alone, and `_Growth` traces every face through each new
    vertex, so the state's faces are those `trace_faces` would give, in
    its order.  They are checked here, with `InternalInvariant`: c + 2 - 2g
    faces (the white-face law, with V = c and E = 2c) and no face of fewer
    than 3 darts.  The map core checks that they partition the darts, and
    skips its connectivity walk and its own trace: the one-face base is
    connected, since its face visits every dart, and each insertion turns
    an adjacency A-B into A-h-B.
    """
    opp, mins = state.opp, state.mins
    c = len(opp) // 4
    if len(mins) != c + 2 - 2 * g:
        raise InternalInvariant(f"grown map has {len(mins)} faces, not c + 2 - 2g = {c + 2 - 2 * g}")
    faces = tuple(map(state.face_at.__getitem__, mins))
    if min(map(len, faces)) < 3:
        raise InternalInvariant("grown map has a face of fewer than 3 darts")
    darts = iter(range(4 * c))
    rotation = tuple(zip(darts, darts, darts, darts))
    return CombinatorialMap(rotation, dict(enumerate(opp)), faces)


def _splice(state: _Growth, ends: tuple[int, int, int, int]) -> tuple[int, list[int]]:
    """Faces gained, and the lengths of the faces through the new vertex,
    when the current darts ends[i] are paired with the new darts h[i].

    The ends are two edges, ends[i] opposite ends[i+2].  A dart's face
    successor is the rotation successor of its opposite, so the current
    successor phi is kept by every old dart but the four ends, and the
    grown map has phi'(ends[i]) = h[i+1] and phi'(h[i+1]) = the rotation
    successor of ends[i+1] = phi(ends[i-1]).  From ends[i] a face thus
    runs through h[i+1] and on along the face of ends[i-1] up to the next
    end there, gap(ends[i-1]) phi-steps away (the whole face length when
    ends[i-1] is that face's only end): that is 1 + gap(ends[i-1]) darts.
    The faces through h are the cycles of ends[i] -> next end after
    ends[i-1]; every other face is a current face that holds no end.
    """
    key_of, pos = state.key_of, state.pos
    after = []
    for i, e in enumerate(ends):
        key = key_of[e]
        size = len(state.face_at[key])
        steps, nxt = size, i
        for j, x in enumerate(ends):
            if j != i and key_of[x] == key:
                k = (pos[x] - pos[e]) % size
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
    return len(lengths) - len({key_of[e] for e in ends}), lengths


def _on_three_faces(key_of: list[int], u: int, u2: int, w2: int) -> bool:
    """Whether a draw's ends lie on three faces: u (and w) on the drawn
    face F, the far ends u2 and w2 alone on two other faces F2 and F3.

    Such a draw admits no wiring, so it is rejected from its face keys
    alone, before any `_splice`.  In either wiring the ends u2 and w2 are
    each the only end on their face, and for an end i alone on its face
    `_splice` sets after[i] = (i, size).  The cycle map of the faces
    through the new vertex, j -> after[j-1][0], then sends j = i+1 to i,
    so it is not the identity and has at most 3 cycles: at most 3 faces
    through the new vertex replace the 3 faces that held ends, gained <= 0
    for both wirings, and neither is accepted.  The rng draws and the
    accepted wirings are those of splicing every draw.
    """
    f2, f3 = key_of[u2], key_of[w2]
    return f2 != f3 and key_of[u] != f2 and key_of[u] != f3


def _insert_circle(rng: random.Random, state: _Growth) -> bool:
    """Reroute two edges of one face through a new vertex, preserving
    genus; False when no draw of the budget admits a wiring.

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
    alone are current faces, which have them already (the one-face base
    has 4(2g-1) >= 12 darts, and every insertion is checked).  `_splice`
    reads both numbers off the current faces, so a draw is decided
    without touching the state, and only the accepted wiring is applied.
    Many draws admit no such wiring; they are redrawn.  A draw whose ends
    lie on three faces is one of them (`_on_three_faces`), and is redrawn
    without a splice.

    The grown map is always a valid map: the four new darts are fresh and
    paired with distinct old darts, and every old adjacency A-B across a
    severed edge becomes A-h-B, so it stays connected.  It has no
    same-parity loop either: no edge joins h to itself, and the old
    vertices keep their slots and gain no edge between two old darts, so
    it has one only if the parent has -- and neither the base nor any map
    grown from it does.
    """
    opp, mins, face_at, key_of = state.opp, state.mins, state.face_at, state.key_of
    getrandbits = rng.getrandbits
    for _ in range(INSERT_TRIES):
        face = face_at[mins[_below(getrandbits, len(mins))]]
        u = face[_below(getrandbits, len(face))]
        w = face[_below(getrandbits, len(face))]
        if w == u or w == opp[u]:
            continue
        u2, w2 = opp[u], opp[w]
        if _on_three_faces(key_of, u, u2, w2):
            continue
        for ends in ((u, w, u2, w2), (u, w2, u2, w)):
            gained, lengths = _splice(state, ends)
            if gained == 1 and min(lengths) >= 3:
                state.grow(ends)
                return True
    return False


def generate_fal(
    g: int,
    c: int,
    seed: int | None = None,
    half_twist_probability: float = 0.0,
    require_checkerboard: bool = False,
) -> FalDiagram:
    """Random cellular FAL with c crossing circles on a genus-g surface.

    Raises GenerationFailed when c < 2g-1: a cellular diagram has
    c + 2 - 2g complementary faces, so at least one face forces c >= 2g-1.
    With require_checkerboard the sampling is filtered on checkerboard
    colorability; that needs at least two faces, i.e. c >= 2g.
    A genus above MAX_GENERATE_GENUS or more than MAX_GENERATE_CIRCLES
    circles raise GenerationTooLarge, before any draw.

    The output is a strict subset of the diagrams validate_fal accepts. No
    generated map has a same-parity loop (an edge joining two opposite
    slots of one vertex): _random_base rejects every base with one, and
    growth adds none, yet validate_fal accepts such diagrams. Of the rest
    only part is reached. At genus 2 the 6 isomorphism classes of maps
    with c = 3 (4-valent, connected, no face of degree below 3) include 2
    without such a loop, and the generator reaches both; of the 75 with
    c = 4, 39 have none, and it reaches 17 of them (ROADMAP item 14).
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
    if g > MAX_GENERATE_GENUS:
        raise GenerationTooLarge(f"genus {g} is above the generator's cap of {MAX_GENERATE_GENUS}")
    if c > MAX_GENERATE_CIRCLES:
        raise GenerationTooLarge(f"{c} circles are above the generator's cap of {MAX_GENERATE_CIRCLES}")
    rng = random.Random(seed)
    for _ in range(CHECKERBOARD_TRIES if require_checkerboard else GENERATE_TRIES):
        state = _Growth(_random_base(rng, g))
        grown = True
        while grown and state.vertex_count < c:
            grown = _insert_circle(rng, state)
        if not grown:
            continue
        m = _build_map(state, g)
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
