import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from surflink import generator
from surflink.errors import GenerationFailed, InternalInvariant, MalformedMap
from surflink.fal_diagram import CrossingCircle, validate_fal
from surflink.generator import (
    INSERT_TRIES,
    _build_map,
    _below,
    _Growth,
    _insert_circle,
    _on_three_faces,
    _random_base,
    _shuffle_steps,
    _splice,
    generate_fal,
)
from surflink.io import diagram_to_json_dict, dumps_json
from surflink.surface_map import CombinatorialMap, checkerboard_coloring, genus, trace_faces


def test_counts_and_validity():
    for g in (2, 3):
        for c in (2 * g - 1, 2 * g, 10):
            d = generate_fal(g, c, seed=42)
            assert d.c == c
            assert genus(d.map) == g
            assert validate_fal(d).ok
            assert all(isinstance(k, CrossingCircle) for k in d.vertex_kind)


def test_determinism():
    a = generate_fal(2, 7, seed=5)
    b = generate_fal(2, 7, seed=5)
    assert a.map.rotation == b.map.rotation
    assert dict(a.map.opposite) == dict(b.map.opposite)
    assert a.vertex_kind == b.vertex_kind


def test_below_minimum_circles_fails():
    with pytest.raises(GenerationFailed):
        generate_fal(2, 2, seed=0)
    with pytest.raises(GenerationFailed):
        generate_fal(3, 4, seed=0)


def test_low_genus_rejected():
    with pytest.raises(GenerationFailed):
        generate_fal(1, 3, seed=0)


def test_no_insertion_tries_fails(monkeypatch):
    monkeypatch.setattr(generator, "INSERT_TRIES", 0)
    with pytest.raises(GenerationFailed, match=r"^could not generate a \(g=2, c=4\) diagram$"):
        generate_fal(2, 4, seed=0)


def test_reduced_no_small_faces():
    for seed in range(5):
        d = generate_fal(2, 8, seed=seed)
        assert all(len(f) >= 3 for f in trace_faces(d.map).faces)


def test_checkerboard_filter():
    d = generate_fal(2, 6, seed=1, require_checkerboard=True)
    assert checkerboard_coloring(d.map) is not None
    # One-face diagrams are self-adjacent and can never satisfy the filter.
    with pytest.raises(GenerationFailed):
        generate_fal(2, 3, seed=1, require_checkerboard=True)


def test_half_twist_sprinkling():
    d = generate_fal(2, 9, seed=3, half_twist_probability=1.0)
    assert all(k.half_twist for k in d.vertex_kind)
    d = generate_fal(2, 9, seed=3)
    assert not any(k.half_twist for k in d.vertex_kind)


def traced_map(opp):
    """The map of a flat involution as the map core validates and traces it
    in full, with no faces handed over: the reference for the grown state."""
    rotation = tuple(tuple(range(4 * v, 4 * v + 4)) for v in range(len(opp) // 4))
    return CombinatorialMap(rotation, dict(enumerate(opp)))


def _has_same_parity_loop(m):
    """A loop joining two equal-parity slots of one vertex."""
    for d in m.darts:
        e = m.opposite[d]
        if m.vertex_of(d) == m.vertex_of(e) and m.position_of(d) % 2 == m.position_of(e) % 2:
            return True
    return False


def reference_random_base(rng, g, tries=4000):
    """The base sampler that built a map for every shuffled pairing; kept
    as the oracle for the flat-pool decision in `_random_base`."""
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
            return m
    raise GenerationFailed(f"no one-face base map found for genus {g}")


@pytest.mark.parametrize("g", (2, 3, 4, 5, 6))
@pytest.mark.parametrize("seed", range(8))
def test_random_base_matches_reference(g, seed):
    rng = random.Random(seed)
    ref_rng = random.Random(seed)
    m = _build_map(_Growth(_random_base(rng, g)), g)
    expected = reference_random_base(ref_rng, g)
    assert rng.getstate() == ref_rng.getstate()
    assert m.rotation == expected.rotation
    assert m.opposite == expected.opposite


@pytest.mark.parametrize("seed", range(40))
def test_below_matches_randrange(seed):
    """Same index and same rng state as `randrange(n)`, for n around the
    powers of two, where the number of rejected draws changes most."""
    rng, ref = random.Random(seed), random.Random(seed)
    sizes = [1, 2, 3, 5, 7, 64, 65, 1000, 2**31 - 1, 2**32 + 1, 2**70 + 3]
    for n in sizes + list(range(1, 200)):
        assert _below(rng.getrandbits, n) == ref.randrange(n)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("seed", range(40))
def test_shuffle_steps_match_shuffle(seed):
    """Fisher-Yates over `_shuffle_steps`, drawing as `_random_base` draws
    inline, gives `Random.shuffle`'s order and leaves the rng where it does,
    for every size 1-64."""
    rng, ref = random.Random(seed), random.Random(seed)
    for size in range(1, 65):
        pool, expected = list(range(size)), list(range(size))
        for i, n, k in _shuffle_steps(size):
            assert k == n.bit_length()
            j = rng.getrandbits(k)
            while j >= n:
                j = rng.getrandbits(k)
            pool[i], pool[j] = pool[j], pool[i]
        ref.shuffle(expected)
        assert pool == expected
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("n", (0, -1))
def test_below_refuses_an_empty_range(n):
    with pytest.raises(InternalInvariant, match=f"no index below {n}"):
        _below(random.Random(1).getrandbits, n)


def reference_insert_circle(rng, m, tries=200):
    """The four-wiring insertion the generator used before it was cut down
    to the two distinct wirings; kept as the oracle for the differential
    test below."""
    g = genus(m)
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
            if (
                genus(grown) == g
                and not _has_same_parity_loop(grown)
                and all(len(f) >= 3 for f in trace_faces(grown).faces)
            ):
                return grown
    return None


@pytest.mark.parametrize("g,c", [(2, 12), (3, 12), (2, 40), (3, 60)])
@pytest.mark.parametrize("seed", range(4))
def test_insert_circle_matches_reference(g, c, seed):
    """Same grown map and same rng state as the four-wiring routine, at
    every step of a seeded growth run; the flat state is built into a map
    before and after each step."""
    rng = random.Random(seed)
    state = _Growth(_random_base(rng, g))
    while state.vertex_count < c:
        ref_rng = random.Random()
        ref_rng.setstate(rng.getstate())
        m = traced_map(state.opp)
        grown = _insert_circle(rng, state)
        expected = reference_insert_circle(ref_rng, m)
        assert rng.getstate() == ref_rng.getstate()
        if expected is None:
            assert not grown
            break
        assert grown
        built = _build_map(state, g)
        assert built.rotation == expected.rotation
        assert built.opposite == expected.opposite


def test_generated_output_digest():
    """sha256 of the JSON of 15 generated diagrams, taken before the growth
    step was cut down to two wirings; any change to a generated diagram or
    to the rng stream shows here."""
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        for g, c in ((2, 4), (2, 9), (3, 8), (2, 25), (3, 50)):
            d = generate_fal(
                g, c, seed=seed, half_twist_probability=0.3, require_checkerboard=c >= 2 * g
            )
            digest.update(dumps_json(diagram_to_json_dict(d)).encode())
    assert digest.hexdigest() == "8f2afe7b24ff94d572c6c90cf7b33c97b611666a799d75f55f6e24c1a1ee4e7a"


def _wire(m, ends, h):
    opposite = dict(m.opposite)
    for old, new in zip(ends, h):
        opposite[old] = new
        opposite[new] = old
    return CombinatorialMap(m.rotation + (h,), opposite)


@pytest.mark.parametrize("g,c", [(2, 20), (3, 20)])
@pytest.mark.parametrize("seed", range(3))
def test_splice_predicts_traced_faces(g, c, seed):
    """Every draw of a seeded growth run, rejected ones included, and both
    wirings: the face count and the new-face lengths `_splice` reads off
    the flat state equal those traced on the map built by hand.  Draws
    index into the traced faces of the map built from the state, so the
    growth step must also keep the faces in trace order."""
    rng = random.Random(seed)
    state = _Growth(_random_base(rng, g))
    outcomes = {"count": 0, "bigon": 0}
    while state.vertex_count < c:
        m = traced_map(state.opp)
        fs = trace_faces(m)
        base = len(state.opp)
        h = tuple(range(base, base + 4))
        draws = random.Random()
        draws.setstate(rng.getstate())
        accepted = None
        for _ in range(INSERT_TRIES):
            face = fs.faces[draws.randrange(fs.count)]
            u = face[draws.randrange(len(face))]
            w = face[draws.randrange(len(face))]
            if m.edge_of(u) == m.edge_of(w):
                continue
            u2, w2 = m.opposite[u], m.opposite[w]
            for ends in ((u, w, u2, w2), (u, w2, u2, w)):
                gained, lengths = _splice(state, ends)
                grown = _wire(m, ends, h)
                traced = trace_faces(grown).faces
                assert fs.count + gained == len(traced)
                assert sorted(lengths) == sorted(len(f) for f in traced if max(f) >= base)
                if len(traced) != fs.count + 1:
                    outcomes["count"] += 1
                elif min(map(len, traced)) < 3:
                    outcomes["bigon"] += 1
                elif accepted is None:
                    accepted = grown
            if accepted is not None:
                break
        grown = _insert_circle(rng, state)
        assert rng.getstate() == draws.getstate()
        if accepted is None:
            assert not grown
            break
        built = _build_map(state, g)
        assert built.rotation == accepted.rotation
        assert built.opposite == accepted.opposite
    assert outcomes["count"] and outcomes["bigon"]


@given(
    g=st.sampled_from((2, 3)),
    extra=st.integers(min_value=0, max_value=25),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_three_face_draws_gain_no_face(g, extra, seed):
    """Every draw of a seeded growth state: the face-key test holds exactly
    when the ends lie on three faces, and then `_splice` gains no face with
    either wiring, so the test rejects only draws that splicing rejects."""
    rng = random.Random(seed)
    state = _Growth(_random_base(rng, g))
    while state.vertex_count < 2 * g - 1 + extra and _insert_circle(rng, state):
        pass
    opp, key_of = state.opp, state.key_of
    for face in state.face_at.values():
        for u in face:
            for w in face:
                if w == u or w == opp[u]:
                    continue
                u2, w2 = opp[u], opp[w]
                on_three = len({key_of[u], key_of[u2], key_of[w2]}) == 3
                assert _on_three_faces(key_of, u, u2, w2) == on_three
                if on_three:
                    for ends in ((u, w, u2, w2), (u, w2, u2, w)):
                        assert _splice(state, ends)[0] <= 0


def test_no_splice_sees_ends_on_three_faces(monkeypatch):
    """Design pin: three-face draws are rejected by their face keys, and
    never reach `_splice`."""
    faces_seen, rejected = [], []

    def spy_splice(state, ends):
        faces_seen.append(len({state.key_of[e] for e in ends}))
        return _splice(state, ends)

    def spy_key_test(key_of, u, u2, w2):
        rejected.append(_on_three_faces(key_of, u, u2, w2))
        return rejected[-1]

    monkeypatch.setattr(generator, "_splice", spy_splice)
    monkeypatch.setattr(generator, "_on_three_faces", spy_key_test)
    generate_fal(2, 200, seed=1)
    assert faces_seen and max(faces_seen) <= 2
    assert any(rejected)


def _assert_faces_match(state, g):
    fs = trace_faces(traced_map(state.opp))
    assert [state.face_at[k] for k in state.mins] == list(fs.faces)
    assert state.mins == [face[0] for face in fs.faces]
    for d in range(len(state.opp)):
        face = fs.faces[fs.face_of[d]]
        assert state.key_of[d] == face[0]
        assert face[state.pos[d]] == d


@given(
    g=st.sampled_from((2, 3, 4)),
    extra=st.integers(min_value=0, max_value=53),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_incremental_faces_equal_traced_faces(g, extra, seed):
    """After the base and after every accepted step, the incrementally kept
    face list, face keys and positions are those of `trace_faces` on the
    map built from `opp`."""
    c = min(2 * g - 1 + extra, 60)
    rng = random.Random(seed)
    state = _Growth(_random_base(rng, g))
    _assert_faces_match(state, g)
    while state.vertex_count < c and _insert_circle(rng, state):
        _assert_faces_match(state, g)


def _assert_handed_over_map_is_traced_map(state, g):
    """The map built from the state's own faces equals the map the core
    validates and traces in full, with the same faces and dart tables; the
    handed-over map builds its rotation tables only when read."""
    built = _build_map(state, g)
    assert "faces" in vars(built)
    assert "_succ" not in vars(built)
    reference = traced_map(state.opp)
    assert built == reference
    assert trace_faces(built) == trace_faces(reference)
    assert built._vertex_of == reference._vertex_of == {d: d // 4 for d in range(len(state.opp))}
    assert built._succ == reference._succ == {d: d - d % 4 + (d + 1) % 4 for d in range(len(state.opp))}


@pytest.mark.parametrize("g,c", [(2, 3), (2, 30), (3, 20), (4, 40)])
@pytest.mark.parametrize("seed", range(3))
def test_handed_over_map_equals_traced_map(g, c, seed):
    rng = random.Random(seed)
    state = _Growth(_random_base(rng, g))
    _assert_handed_over_map_is_traced_map(state, g)
    while state.vertex_count < c and _insert_circle(rng, state):
        _assert_handed_over_map_is_traced_map(state, g)


@given(
    g=st.sampled_from((2, 3, 4)),
    extra=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_handed_over_map_equals_traced_map_fuzzed(g, extra, seed):
    rng = random.Random(seed)
    state = _Growth(_random_base(rng, g))
    while state.vertex_count < 2 * g - 1 + extra and _insert_circle(rng, state):
        pass
    _assert_handed_over_map_is_traced_map(state, g)


def test_faces_of_an_earlier_step_raise():
    """Faces handed over from before the last insertion miss the new
    vertex's darts; the map core refuses them with `InternalInvariant`."""
    rng = random.Random(3)
    state = _Growth(_random_base(rng, 2))
    stale = _build_map(state, 2).faces
    assert _insert_circle(rng, state)
    grown = traced_map(state.opp)
    with pytest.raises(InternalInvariant, match="handed-over faces do not partition the darts"):
        CombinatorialMap(grown.rotation, grown.opposite, stale.faces)


@pytest.mark.parametrize("g,c", [(2, 3), (2, 40), (3, 25)])
@pytest.mark.parametrize("seed", range(3))
def test_one_map_per_diagram(g, c, seed, monkeypatch):
    """Without the checkerboard filter, a generated diagram builds exactly
    one `CombinatorialMap`: growth never builds one per step."""
    built = []
    init = CombinatorialMap.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CombinatorialMap, "__init__", counting_init)
    d = generate_fal(g, c, seed=seed, half_twist_probability=0.3)
    assert d.c == c
    assert len(built) == 1


def _splice_ignoring_face_count(state, ends):
    return 1, _splice(state, ends)[1]


def _splice_hiding_bigons(state, ends):
    gained, lengths = _splice(state, ends)
    return gained, [max(3, n) for n in lengths]


@pytest.mark.parametrize(
    "corrupt,message",
    [(_splice_ignoring_face_count, "faces, not"), (_splice_hiding_bigons, "fewer than 3")],
    ids=["face-count", "bigon"],
)
def test_corrupt_face_bookkeeping_raises(corrupt, message, monkeypatch):
    """Growth that misreads its faces yields a map whose own trace breaks
    the white-face law or has a bigon; the one built map catches it with
    `InternalInvariant`, which `python -O` keeps."""
    monkeypatch.setattr(generator, "_splice", corrupt)
    if corrupt is _splice_ignoring_face_count:
        # The misread count must also reach the draws that the face-key
        # test rejects without a splice.
        monkeypatch.setattr(generator, "_on_three_faces", lambda *args: False)
    with pytest.raises(InternalInvariant, match=message):
        generate_fal(2, 40, seed=0)
