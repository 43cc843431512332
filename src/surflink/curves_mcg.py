"""Curves on a genus-g surface and mapping-class actions.

Two levels.  The homology engine is exact and always available: classes
are integer vectors in the symplectic basis (a1, b1, ..., ag, bg) and Dehn
twists act by transvection.  The word level works in the one-relator
surface group at desk scale: Dehn's algorithm for reduction and conjugacy,
plus a geometric intersection oracle that counts linked axis pairs on the
boundary circle of the universal cover.

Curve words are tuples of nonzero signed integers: letter 2i-1 is a_i,
letter 2i is b_i, negation is inversion.  In text form, ``a1 B2`` style
tokens are concatenated with uppercase meaning inverse.
"""

from __future__ import annotations

import functools
import re
import sys
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .errors import (
    Claim,
    GenusTooSmall,
    InternalInvariant,
    LengthBudgetExceeded,
    LengthMismatch,
    MalformedMap,
    ParseError,
    ZeroClass,
)

__all__ = [
    "HomologyClass",
    "CurveWord",
    "MappingClassWord",
    "algebraic_intersection",
    "twist_action",
    "mcg_apply",
    "acts_nontrivially",
    "dehn_reduce",
    "conjugacy_equal",
    "geometric_intersection_oracle",
    "basis_class",
    "word_to_homology",
    "split_curve",
    "parse_curve_word",
    "format_curve_word",
    "MAX_CURVE_WORD_LETTERS",
    "require_word_length",
]

HomologyClass = tuple  # length 2g, integer entries
CurveWord = tuple  # nonzero signed generator indices


# -- homology engine ---------------------------------------------------------


def _check_lengths(x: Sequence[int], y: Sequence[int]) -> int:
    if len(x) != len(y) or len(x) % 2 != 0 or not x:
        raise LengthMismatch(f"incompatible vector lengths {len(x)} and {len(y)}")
    return len(x) // 2


def basis_class(letter: int, g: int) -> HomologyClass:
    """Homology class of a single generator (signed letter index)."""
    return word_to_homology((letter,), g)


def algebraic_intersection(x: HomologyClass, y: HomologyClass) -> int:
    g = _check_lengths(x, y)
    return sum(x[2 * i] * y[2 * i + 1] - x[2 * i + 1] * y[2 * i] for i in range(g))


def twist_action(alpha: HomologyClass, x: HomologyClass, t: int = 1) -> HomologyClass:
    """Transvection: the homology action of the t-fold Dehn twist about a
    curve of class alpha."""
    k = t * algebraic_intersection(x, alpha)
    return tuple(xi + k * ai for xi, ai in zip(x, alpha))


class MappingClassWord(namedtuple("MappingClassWord", "letters g")):
    """Composition of Dehn twists; letters apply right to left.  letters is
    ((curve, exponent), ...), each curve a class or a word."""

    __slots__ = ()

    def __new__(cls, letters, g: int):
        letters = tuple(letters)
        for curve, exp in letters:
            if exp == 0:
                raise MalformedMap("twist exponents must be nonzero")
        return super().__new__(cls, letters, g)

    def inverse(self) -> "MappingClassWord":
        return MappingClassWord(
            tuple((curve, -exp) for curve, exp in reversed(self.letters)), self.g
        )


def _check_letters(w: CurveWord, g: int) -> None:
    for letter in w:
        if letter == 0 or abs(letter) > 2 * g:
            raise ParseError(f"letter {letter} outside generator range for genus {g}")


def word_to_homology(w: CurveWord, g: int) -> HomologyClass:
    _check_letters(w, g)
    coords = [0] * (2 * g)
    for letter in w:
        coords[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(coords)


def split_curve(curve, g: int) -> tuple:
    """(word or None, homology class) of a curve given as word text, a word
    tuple or a class vector.  Text is a word; an integer sequence of length
    2g is a class vector, any other length a word.  A word of exactly 2g
    letters is therefore misread as a class (a known defect).  A word of
    more than MAX_CURVE_WORD_LETTERS letters raises ParseError."""
    if isinstance(curve, str):
        word = parse_curve_word(curve, g)
    else:
        word = tuple(curve)
        if len(word) == 2 * g:
            return None, word
        require_word_length(len(word))
    return word, word_to_homology(word, g)


def mcg_apply(phi: MappingClassWord, x: HomologyClass) -> HomologyClass:
    if len(x) != 2 * phi.g:
        raise LengthMismatch(f"class length {len(x)} does not match genus {phi.g}")
    out = tuple(x)
    for curve, exp in reversed(phi.letters):
        out = twist_action(split_curve(curve, phi.g)[1], out, exp)
    return out


def acts_nontrivially(phi: MappingClassWord, gamma: HomologyClass) -> Claim | None:
    """Claim("homology", True) when phi maps the class to neither itself nor
    its negative, so moves every curve of it; None when homology cannot tell."""
    if all(v == 0 for v in gamma):
        raise ZeroClass("the zero class carries no curve")
    image = mcg_apply(phi, gamma)
    if image != tuple(gamma) and image != tuple(-v for v in gamma):
        return Claim("homology", True)
    return None


# -- word level: Dehn's algorithm --------------------------------------------


def _free_reduce(w: Iterable[int]) -> list[int]:
    out: list[int] = []
    for letter in w:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return out


def _cyclic_reduce(w: Sequence[int]) -> tuple[int, ...]:
    w = _free_reduce(w)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def _inverse_word(w: Sequence[int]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(w))


def surface_relator(g: int) -> tuple[int, ...]:
    """R = a1 b1 A1 B1 ... ag bg Ag Bg, the one relator of the surface group."""
    return tuple(x for a in range(1, 2 * g, 2) for x in (a, a + 1, -a, -a - 1))


@functools.lru_cache(maxsize=None)
def _direction_order(g: int) -> dict:
    """Each letter's position in R: p in the letter code, and the oracle's direction order."""
    return {letter: pos for pos, letter in enumerate(surface_relator(g))}


@functools.lru_cache(maxsize=None)
def _piece_units(g: int) -> tuple:
    """(width, fmt, R, code, doubled): the letter code that Dehn reduction
    and the conjugacy closure hold their words in, at genus g.

    A letter x has four numbers mod 4g: its position p in R, the position q
    of its inverse, p + 1 and q - 1.  Each is a native unsigned integer of
    width 1, 2 or 4 bytes, the narrowest that holds 4g - 1, and fmt is its
    memoryview format.  code[x] interleaves the four numbers byte by byte
    (the first bytes of p, q, p + 1 and q - 1, then their second bytes), so
    word_code[k::4] is the string of every letter's k-th number.
    doubled[0] and doubled[1] are the codes of R + R and of R^-1 + R^-1.
    The tables take O(g) memory."""
    n = 4 * g
    width, fmt = next((w, f) for w, f in ((1, "B"), (2, "H"), (4, "I")) if n <= 256**w)
    R = surface_relator(g)
    pos = _direction_order(g)
    code = {}
    for x in R:
        numbers = (pos[x], pos[-x], pos[x] + 1, pos[-x] - 1)
        digits = zip(*((v % n).to_bytes(width, sys.byteorder) for v in numbers))
        code[x] = bytes(b for digit in digits for b in digit)
    doubled = tuple(b"".join(map(code.__getitem__, rel + rel)) for rel in (R, _inverse_word(R)))
    return width, fmt, R, code, doubled


def dehn_reduce(w: CurveWord, g: int) -> CurveWord:
    """Cyclically reduced form with no subword longer than half the surface
    relator; length-nonincreasing and idempotent.

    Each step takes the longest piece of R or R^-1 with 2g + 1 to 4g
    letters, at the least cyclic start counted from the word's first
    letter, replaces it by the inverse of its complement, and starts the
    new word right after the piece, cyclically reduced.  The word is held
    in the letter code of _piece_units while _reduce_code runs the steps."""
    if g < 2:
        raise GenusTooSmall("surface-group reduction needs genus >= 2")
    _check_letters(w, g)
    word = _cyclic_reduce(w)
    if len(word) <= 2 * g:
        return word
    width, fmt, R, code_of, doubled = _piece_units(g)
    code = b"".join(map(code_of.__getitem__, word))
    reduced = _reduce_code(code, len(word), g, width, doubled)
    if reduced is code:
        return word
    return tuple(map(R.__getitem__, memoryview(reduced[::4]).cast(fmt)))


def _reduce_code(code: bytes, n: int, g: int, w: int, doubled: tuple) -> bytes:
    """Dehn's algorithm on a letter code of n letters: replace the piece of
    _find_piece until there is none (code itself if it has none)."""
    while (piece := _find_piece(code, n, g, w)) is not None:
        code, n = _replace_piece(code, n, g, w, doubled, *piece)
    return code


def _links(code: bytes, w: int, wrap: int) -> tuple:
    """Two strings of one byte per letter pair of the code, extended
    cyclically by wrap letters.  A pair (x, y) follows R when p(y) = p(x) + 1
    and R^-1 when q(y) = q(x) - 1; its byte is zero in the first string
    when it follows R, and in the second when it follows R^-1, never both,
    as q = p XOR 2.  So a piece of L letters is a run of L - 1 zero bytes in
    one of the two at its first letter's offset, never in both at one offset.

    XORing the code with itself 4w - 2 bytes on, w the width of a number,
    puts each letter's p + 1 and q - 1 against the next letter's p and q, in
    bytes 2::4 and 3::4 of the XOR.  ORing each number's w bytes onto its
    first leaves one byte per pair in bytes 2::4w and 3::4w."""
    r = 4 * w
    ext = code + code[: wrap * r]
    size = len(ext) - r + 2
    xor = int.from_bytes(ext[:size], "little") ^ int.from_bytes(ext[r - 2 :], "little")
    for k in range(w.bit_length() - 1):
        xor |= xor >> (32 << k)
    links = xor.to_bytes(size, "little")
    return links[2::r], links[3::r]


def _find_piece(code: bytes, n: int, g: int, w: int):
    """(length, start, orientation) of the next Dehn step's piece in a code
    of n letters, orientation 0 for R and 1 for R^-1, or None.  The strings
    of _links repeat every n letters, so a first run starts before n; the
    first run of 2g zero bytes bounds the search for longer ones."""
    if n <= 2 * g:
        return None
    top = min(n, 4 * g)
    kinds = _links(code, w, top - 1)
    found = [kinds[0].find(bytes(2 * g)), kinds[1].find(bytes(2 * g))]
    if found == [-1, -1]:
        return None
    for length in range(top, 2 * g, -1):
        zeros = bytes(length - 1)
        hits = [-1 if at < 0 else pairs.find(zeros, at) for pairs, at in zip(kinds, found)]
        if hits != [-1, -1]:
            kind = 0 if hits[1] < 0 or 0 <= hits[0] < hits[1] else 1
            return length, hits[kind], kind


def _replace_piece(code: bytes, n: int, g: int, w: int, doubled: tuple, length: int, start: int, kind: int):
    """The code of the word that follows the piece, and its letter count:
    the rest of the cyclic word from the piece's end, then the inverse of
    the piece's complement, cyclically reduced.

    The inverted complement of a piece of R whose first letter sits at
    position p is the slice of R^-1 + R^-1 from -p; for a piece of R^-1
    whose first letter's inverse sits at position q of R, it is the slice
    of R + R from q + 1.  No letter cancels where the rest meets the
    replacement: the letter before the piece cancelling the replacement's
    first letter, or the letter after it cancelling its last, would extend
    the piece by a letter.  For Dehn reduction that longer piece has at
    most min(n, 4g) letters, and _find_piece takes it first; the 2g-letter
    pieces of _half_relator_swaps lie in a Dehn-reduced word, which has no
    piece of 2g + 1 letters.  So only the two ends of the new word cancel,
    when the rest or the replacement is empty."""
    r = 4 * w
    end = start + length
    rest = code[end * r :] + code[: start * r] if end <= n else code[(end - n) * r : start * r]
    first = int.from_bytes(code[start * r + kind : (start + 1) * r : 4], sys.byteorder)
    at = (-first if kind == 0 else first + 1) % (4 * g)
    word = rest + doubled[1 - kind][at * r : (at + 4 * g - length) * r]
    size = n - 2 * length + 4 * g
    trim = 0  # letters cancel when the first's p is the last's q
    while size - 2 * trim >= 2 and (
        word[trim * r : (trim + 1) * r : 4] == word[(size - 1 - trim) * r + 1 : (size - trim) * r : 4]
    ):
        trim += 1
    return word[trim * r : (size - trim) * r], size - 2 * trim


def _half_relator_swaps(code: bytes, n: int, g: int) -> set:
    """The Dehn reductions of the half-relator swaps of a Dehn-reduced
    cyclic word, given as its letter code of n letters: for each cyclic
    position of a piece of exactly 2g letters of R or R^-1, a run of 2g - 1
    zero bytes of _links, the code that _replace_piece makes of it, reduced
    by _reduce_code."""
    if n < 2 * g:
        return set()
    width, _, _, _, doubled = _piece_units(g)
    zeros = bytes(2 * g - 1)
    swaps = set()
    for kind, pairs in enumerate(_links(code, width, 2 * g - 1)):
        at = pairs.find(zeros)
        while at >= 0:
            swaps.add(_replace_piece(code, n, g, width, doubled, 2 * g, at, kind))
            at = pairs.find(zeros, at + 1)
    return {_reduce_code(*swap, g, width, doubled) for swap in swaps}


def _conjugacy_key(w: CurveWord, g: int, budget: int) -> bytes:
    """The least letter code in the closure of w's Dehn reduction under
    rotation and Dehn-reduced half-relator swaps (2g letters to the inverse
    of the other half), closed over cyclic words: each is stored once,
    keyed by its least rotation, and expanded once.  This is exact: a swap
    is the rest of the cyclic word after the piece followed by the piece's
    replacement, which does not depend on the rotation the word starts at.
    So every rotation has the same swaps, the closure reaches the same
    cyclic words as one over every rotation, and the least of their least
    rotations names the rotation-closed class."""
    if len(w) > budget:
        raise LengthBudgetExceeded(f"word of length {len(w)} exceeds budget {budget}")
    width, _, _, code_of, _ = _piece_units(g)
    r = 4 * width
    seen = set()
    frontier = [b"".join(map(code_of.__getitem__, dehn_reduce(w, g)))]
    while frontier:
        code = frontier.pop()
        # The least rotation starts at a letter whose first byte is least.
        least = min(code[::r], default=None)
        key = min((code[i:] + code[:i] for i in range(0, len(code), r) if code[i] == least), default=code)
        if key not in seen:
            seen.add(key)
            frontier += _half_relator_swaps(key, len(key) // r, g)
    return min(seen)


def conjugacy_equal(
    w1: CurveWord, w2: CurveWord, g: int, budget: int = 64, up_to_inverse: bool = False
) -> bool:
    """Free-homotopy (conjugacy) equality by comparing conjugacy keys: w1's,
    w2's, then under up_to_inverse that of w2's inverse."""
    key1 = _conjugacy_key(tuple(w1), g, budget)
    if key1 == _conjugacy_key(tuple(w2), g, budget):
        return True
    return up_to_inverse and key1 == _conjugacy_key(_inverse_word(tuple(w2)), g, budget)


# -- geometric intersection oracle -------------------------------------------
#
# The universal cover of the genus-g surface is tiled by 4g-gons, one
# vertex class; the cyclic order of the one-vertex rotation system gives
# the circular order of the directions a ray can leave the base vertex in.
# Two closed geodesics intersect once for every pair of lifted axes whose
# endpoint pairs link on the circle at infinity.  Candidate lifts are the
# axes of the cyclic rotations of the two words; linked candidates that
# differ by deck transformations stabilising both axes (left multiplication
# by a power of one word, right by a power of the other, applied to the
# prefix element connecting the two lifts) are the same surface point and
# are merged before counting.


def _orient(x: CurveWord, y: CurveWord, z: CurveWord, pos: dict) -> int:
    """Circular orientation (+1/-1) of the three distinct boundary rays
    x^inf, y^inf, z^inf, with z the inverse of x.

    x and z start with different letters, as every word here is cyclically
    reduced, so at most one pair of rays runs together.  Walking the base
    vertex along that pair's common prefix leaves the two rays' own letters
    at their first difference and the inverse of the last common letter
    for the third ray.  Two distinct periodic rays with periods |p| and |q|
    differ within their first |p| + |q| letters (Fine and Wilf)."""
    first = [x[0], y[0], z[0]]
    if first[0] == first[1] or first[1] == first[2]:
        i = 0 if first[0] == first[1] else 1  # rays i and i + 1 run together
        p, q = (x, y, z)[i : i + 2]
        lp, lq = len(p), len(q)
        k = next((k for k in range(1, lp + lq) if p[k % lp] != q[k % lq]), None)
        if k is None:
            raise InternalInvariant("equal rays passed to the orientation test")
        first[i], first[i + 1] = p[k % lp], q[k % lq]
        first[(i + 2) % 3] = -p[(k - 1) % lp]
    n = len(pos)
    d2 = (pos[first[1]] - pos[first[0]]) % n
    d3 = (pos[first[2]] - pos[first[0]]) % n
    return 1 if d2 < d3 else -1


def _axes_linked(u: CurveWord, v: CurveWord, pos: dict) -> bool:
    """Whether the axes of u and v cross.  They share an endpoint when x y =
    y x for some x in (u, u^-1) and y in (v, v^-1); inverting x y = y x makes
    (u^-1, v^-1) the test of (u, v) and (u^-1, v) that of (u, v^-1)."""
    iu, iv = _inverse_word(u), _inverse_word(v)
    if u + v == v + u or u + iv == iv + u:
        return False  # shared endpoint: same axis, no transverse crossing
    return _orient(u, v, iu, pos) != _orient(u, iv, iu, pos)


def geometric_intersection_oracle(
    w1: CurveWord, w2: CurveWord, g: int, budget: int = 16
) -> int:
    """Minimal transverse intersection number of two simple closed curves
    given as surface-group words (simplicity assumed, not checked)."""
    u = dehn_reduce(tuple(w1), g)
    v = dehn_reduce(tuple(w2), g)
    if len(u) > budget or len(v) > budget:
        raise LengthBudgetExceeded(
            f"words of length {len(u)}, {len(v)} exceed budget {budget}"
        )
    if not u or not v:
        return 0
    if conjugacy_equal(u, v, g, budget=max(64, budget), up_to_inverse=True):
        return 0
    pos = _direction_order(g)
    linked = []
    for i in range(len(u)):
        ui = u[i:] + u[:i]
        for j in range(len(v)):
            vj = v[j:] + v[:j]
            if _axes_linked(ui, vj, pos):
                linked.append((i, j))
    return _count_orbits(linked, u, v, g)


def _count_orbits(linked, u: CurveWord, v: CurveWord, g: int) -> int:
    """Merge linked rotation pairs that name the same surface intersection.

    The pair (i, j) corresponds to the lifts p_i^-1 axis(u) and
    q_j^-1 axis(v), with p_i, q_j the length-i and length-j prefixes.  Two
    pairs coincide on the surface exactly when the connecting elements
    e = p_i q_j^-1 satisfy e' = u^k e v^l in the group for some integers
    k, l (deck transformations preserving both axes).

    Candidates are searched only for |k|, |l| <= K = 4; that window is not
    proved (ROADMAP item 10).  For each pair of pairs they are tried in
    order of k, then of l, each from -K up, and the first that Dehn-reduces
    u^k e v^l e'^-1 to the empty word merges the two.  Only (k, l) with
    k[u] + l[v] = [e'] - [e] can pass, so for each k this reads l off
    the pivot, the first nonzero entry of [v], and then checks the other
    entries lazily, stopping at the first that fails, without building the
    residual [e'] - [e] - k[u]: at most one l, the one the l loop would have
    reached first.  When [v] = 0 every l passes if that residual is 0, in
    order.  So the same candidates reach dehn_reduce in the same order, and
    every merge is the one the full (k, l) window makes.  Each connecting
    element's class is computed once.
    """
    elements = {
        (i, j): tuple(_free_reduce(u[:i] + _inverse_word(v[:j]))) for i, j in linked
    }
    classes = {pair: word_to_homology(e, g) for pair, e in elements.items()}
    ab_u = word_to_homology(u, g)
    ab_v = word_to_homology(v, g)
    pivot = next((t for t, x in enumerate(ab_v) if x), None)
    parent = {pair: pair for pair in linked}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    K = 4
    window = range(-K, K + 1)

    def solutions(diff):
        """(k, l) in the window with k[u] + l[v] = diff, in window order."""
        for k in window:
            if pivot is None:
                if not any(d - k * a for d, a in zip(diff, ab_u)):
                    yield from ((k, l) for l in window)
                continue
            l, rest = divmod(diff[pivot] - k * ab_u[pivot], ab_v[pivot])
            if not rest and l in window and all(
                d - k * a == l * b for d, a, b in zip(diff, ab_u, ab_v)
            ):
                yield k, l

    for idx, p1 in enumerate(linked):
        for p2 in linked[idx + 1 :]:
            if find(p1) == find(p2):
                continue
            e1, e2 = elements[p1], elements[p2]
            diff = [a - b for a, b in zip(classes[p2], classes[p1])]
            for k, l in solutions(diff):
                candidate = (
                    (u if k > 0 else _inverse_word(u)) * abs(k)
                    + e1
                    + (v if l > 0 else _inverse_word(v)) * abs(l)
                )
                if dehn_reduce(candidate + _inverse_word(e2), g) == ():
                    parent[find(p2)] = find(p1)
                    break
    return len({find(pair) for pair in linked})


# -- parsing -----------------------------------------------------------------

_TOKEN = re.compile(r"([aAbB])(\d+)")

# Each Dehn step still scans the whole word, though with byte operations, so
# reduction time grows with about the square of the word's length: on a
# shared 2-core x86-64 host, (a1b1A1B1a2)^k reduces in 3 ms in-process at
# 10^3 letters and 0.15 s at 10^4, and `curves reduce` of that 10^4-letter
# word takes 0.25 s end to end, `curves intersect` 0.3 s before its budget
# refuses it.  A higher cap waits for a reduction in one pass (ROADMAP item 16).
MAX_CURVE_WORD_LETTERS = 10**4


def require_word_length(letters: int) -> None:
    """Raise ParseError when a curve word read from input has more than
    MAX_CURVE_WORD_LETTERS letters."""
    if letters > MAX_CURVE_WORD_LETTERS:
        raise ParseError(f"curve word has more than the cap of {MAX_CURVE_WORD_LETTERS} letters")


def parse_curve_word(text: str, g: int) -> CurveWord:
    """Parse ``a1B2``-style words; uppercase letters are inverses.  A word
    of more than MAX_CURVE_WORD_LETTERS letters raises ParseError as soon
    as its next letter is read."""
    stripped = re.sub(r"\s+", "", text)
    out = []
    position = 0
    while position < len(stripped):
        match = _TOKEN.match(stripped, position)
        if match is None:
            raise ParseError(f"unexpected text in curve word: {stripped[position:]!r}")
        require_word_length(len(out) + 1)
        position = match.end()
        kind, index = match.group(1), int(match.group(2))
        if not (1 <= index <= g):
            raise ParseError(f"handle index {index} out of range for genus {g}")
        letter = 2 * index - 1 if kind.lower() == "a" else 2 * index
        if kind.isupper():
            letter = -letter
        out.append(letter)
    return tuple(out)


def format_curve_word(w: CurveWord) -> str:
    parts = []
    for letter in w:
        index = (abs(letter) + 1) // 2
        kind = "a" if abs(letter) % 2 == 1 else "b"
        if letter < 0:
            kind = kind.upper()
        parts.append(f"{kind}{index}")
    return "".join(parts)
