import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from surflink import fal_diagram
from surflink.constructions import build_layered, build_trivial_torus, fill_to_wga
from surflink.errors import (
    InternalInvariant,
    MalformedMap,
    NonAlternatingTwistRegion,
    NotACrossingCircle,
    NotCheckerboard,
    SurflinkError,
    UnfilledCircle,
    ZeroCoefficient,
)
from surflink.fal_diagram import (
    Crossing,
    CrossingCircle,
    FalDiagram,
    TwistRegion,
    augment,
    check_alternating,
    check_weakly_prime,
    check_wga,
    choose_alternating_signs,
    detect_twist_regions,
    diagram_canonical_form,
    diagrams_isomorphic,
    fill_all,
    fill_crossing_circle,
    validate_fal,
)
from surflink.generator import generate_fal
from surflink.io import diagram_from_json_dict
from surflink.surface_map import (
    CombinatorialMap,
    checkerboard_coloring,
    genus,
    trace_faces,
)
from test_surface_map import check_value_record, reference_components


def ladder_data(n, shift=0):
    """Chain of n crossings: rotation (a,b,c,d) per vertex and the rung
    pairings c_i-b_{i+1}, d_i-a_{i+1}.  Ends are left open."""
    rotation = tuple(tuple(range(shift + 4 * i, shift + 4 * i + 4)) for i in range(n))
    opposite = {}
    for i in range(n - 1):
        _, _, c, d = rotation[i]
        a2, b2, _, _ = rotation[i + 1]
        opposite[c] = b2
        opposite[b2] = c
        opposite[d] = a2
        opposite[a2] = d
    return rotation, opposite


def trefoil():
    """Alternating trefoil as a 3-crossing twist closed by end loops."""
    rotation, opposite = ladder_data(3)
    opposite.update({0: 1, 1: 0, 10: 11, 11: 10})
    m = CombinatorialMap(rotation, opposite)
    return FalDiagram(m, 0, (Crossing(0), Crossing(0), Crossing(0)))


class TestTrefoil:
    def test_planar(self):
        assert genus(trefoil().map) == 0

    def test_alternating(self):
        assert check_alternating(trefoil())

    def test_one_switched_crossing_not_alternating(self):
        d = trefoil()
        d = FalDiagram(d.map, 0, (Crossing(0), Crossing(1), Crossing(0)))
        assert not check_alternating(d)

    def test_single_twist_region_of_three(self):
        regions = detect_twist_regions(trefoil())
        assert len(regions) == 1
        assert len(regions[0].crossings) == 3
        assert regions[0].parity == 1

    def test_kinked_presentation_fails_weak_primeness(self):
        # The end loops are Reidemeister-I kinks: a 2-cut through the two
        # rungs next to an end isolates that crossing in a disc.  The
        # vertex-counting criterion flags exactly this, even though the
        # underlying link is prime.
        ok, witness = check_weakly_prime(trefoil())
        assert not ok and witness is not None

    def test_augment_gives_half_twist_circle(self):
        a = augment(trefoil())
        assert a.c == 1
        assert a.map.vertex_count == 1
        (kind,) = a.vertex_kind
        assert isinstance(kind, CrossingCircle) and kind.half_twist
        assert genus(a.map) == 0
        assert a.l == 1  # the augmented trefoil strand is a single unknot

    def test_augment_then_fill_restores_trefoil(self):
        a = augment(trefoil())
        sign = a.vertex_kind[0].half_twist_sign
        back = fill_crossing_circle(a, 0, sign)  # |t|=1, matching sign: 3 crossings
        assert diagrams_isomorphic(back, trefoil())


class TestTwistRegions:
    def test_two_isolated_crossings(self):
        # Two crossings joined by four non-bigon-forming edges on the torus.
        m = CombinatorialMap(
            ((0, 1, 2, 3), (4, 5, 6, 7)),
            {0: 4, 4: 0, 1: 5, 5: 1, 2: 6, 6: 2, 3: 7, 7: 3},
        )
        from surflink.surface_map import trace_faces

        assert all(len(f) != 2 for f in trace_faces(m).faces)
        d = FalDiagram(m, genus(m), (Crossing(0), Crossing(0)))
        regions = detect_twist_regions(d)
        assert sorted(len(r.crossings) for r in regions) == [1, 1]

    def test_region_sizes_four_and_one(self):
        base = generate_fal(2, 5, seed=11, require_checkerboard=True)
        signs = choose_alternating_signs(base)
        # One long region and, via a mismatched half-twist, one lone crossing.
        ht = CrossingCircle(half_twist=True, half_twist_sign=-signs[1])
        kinds = list(base.vertex_kind)
        kinds[1] = ht
        base = FalDiagram(base.map, base.genus, tuple(kinds))
        partial = fill_all(base, {0: signs[0] * 2, 1: signs[1] * 1})
        regions = detect_twist_regions(partial)
        assert sorted(len(r.crossings) for r in regions) == [1, 4]


class TestFill:
    def test_zero_coefficient(self):
        a = augment(trefoil())
        with pytest.raises(ZeroCoefficient):
            fill_crossing_circle(a, 0, 0)

    def test_not_a_circle(self):
        with pytest.raises(NotACrossingCircle):
            fill_crossing_circle(trefoil(), 0, 1)

    def test_plain_fill_t1_two_crossings(self):
        d = generate_fal(2, 4, seed=0)
        filled = fill_crossing_circle(d, 0, 1)
        crossings = [k for k in filled.vertex_kind if isinstance(k, Crossing)]
        assert len(crossings) == 2
        assert all(k.over_pair == 0 for k in crossings)
        assert filled.c == d.c - 1

    def test_half_twist_fill_t1_three_crossings(self):
        d = generate_fal(2, 4, seed=0)
        kinds = list(d.vertex_kind)
        kinds[0] = CrossingCircle(half_twist=True, half_twist_sign=1)
        d = FalDiagram(d.map, d.genus, tuple(kinds))
        filled = fill_crossing_circle(d, 0, 1)
        assert sum(isinstance(k, Crossing) for k in filled.vertex_kind) == 3

    def test_half_twist_fill_opposite_sign_cancels(self):
        d = generate_fal(2, 4, seed=0)
        kinds = list(d.vertex_kind)
        kinds[0] = CrossingCircle(half_twist=True, half_twist_sign=-1)
        d = FalDiagram(d.map, d.genus, tuple(kinds))
        filled = fill_crossing_circle(d, 0, 1)
        assert sum(isinstance(k, Crossing) for k in filled.vertex_kind) == 1

    def test_fill_preserves_genus_and_checkerboard(self):
        d = generate_fal(2, 6, seed=2, require_checkerboard=True)
        for k in range(6):
            for t in (-3, -2, -1, 1, 2, 3):
                filled = fill_crossing_circle(d, k, t)
                assert genus(filled.map) == 2
                assert checkerboard_coloring(filled.map) is not None


class TestAlternation:
    def test_unfilled_circle_rejected(self):
        with pytest.raises(UnfilledCircle):
            check_alternating(augment(trefoil()))

    def test_chosen_signs_alternate(self):
        for g, c, seed in ((2, 4, 1), (2, 7, 5), (3, 6, 0)):
            d = generate_fal(g, c, seed=seed, require_checkerboard=True)
            signs = choose_alternating_signs(d)
            assert signs[0] == 1  # deterministic tie-break
            for t in (1, 2, 3):
                filled = fill_all(d, {k: signs[k] * t for k in range(c)})
                assert check_alternating(filled)

    def test_single_circle_both_signs_work(self):
        a = augment(trefoil())
        for s in (1, -1):
            for t in (1, 2):
                filled = fill_crossing_circle(a, 0, s * t)
                assert check_alternating(filled)

    def test_signs_flipped_to_start_at_plus_one(self):
        """Relabelling dart d as D - 1 - d puts the first circle's slot-0
        corner face in colour class 1, so the signs are flipped as a whole."""
        d = generate_fal(2, 4, seed=4, require_checkerboard=True)
        top = max(d.map.darts)
        m = CombinatorialMap(
            tuple(tuple(top - x for x in cycle) for cycle in d.map.rotation),
            {top - a: top - b for a, b in d.map.opposite.items()},
        )
        r = FalDiagram(m, d.genus, d.vertex_kind)
        assert checkerboard_coloring(m)[trace_faces(m).face_of[m.rotation[r.circles[0]][0]]] == 1
        signs = choose_alternating_signs(r)
        assert signs == (1, 1, -1, 1)
        assert check_alternating(fill_all(r, dict(zip(r.circles, signs))))

    def test_not_checkerboard_raises(self):
        d = generate_fal(2, 3, seed=0)  # one complementary face, self-adjacent
        with pytest.raises(NotCheckerboard):
            choose_alternating_signs(d)


def connect_sum_of_trefoils():
    """Two 3-crossing twists spliced along two parallel strands."""
    rot1, opp1 = ladder_data(3)
    rot2, opp2 = ladder_data(3, shift=12)
    opposite = {**opp1, **opp2}
    # Bottom loops close each summand; the open tops are spliced together.
    opposite.update({10: 11, 11: 10, 22: 23, 23: 22})
    opposite.update({0: 12, 12: 0, 1: 13, 13: 1})
    return FalDiagram(
        CombinatorialMap(rot1 + rot2, opposite), 0, tuple(Crossing(0) for _ in range(6))
    )


class TestWeaklyPrime:
    def test_connect_sum_detected(self):
        d = connect_sum_of_trefoils()
        assert genus(d.map) == 0
        ok, witness = check_weakly_prime(d)
        assert not ok
        assert witness is not None
        e1, e2 = witness
        assert d.map.edge_of(e1) != d.map.edge_of(e2)

    def test_generated_instances_report(self):
        # The scan must terminate and be relabel-invariant; generated
        # diagrams are not guaranteed prime, only consistently judged.
        d = generate_fal(2, 4, seed=7)
        first, _ = check_weakly_prime(d)
        relabel = {x: x + 100 for x in d.map.darts}
        m2 = CombinatorialMap(
            tuple(tuple(relabel[x] for x in cy) for cy in d.map.rotation),
            {relabel[a]: relabel[b] for a, b in d.map.opposite.items()},
        )
        second, _ = check_weakly_prime(FalDiagram(m2, d.genus, d.vertex_kind))
        assert first == second


class TestValidate:
    def test_generated_fal_passes(self):
        d = generate_fal(2, 3, seed=1)
        assert validate_fal(d).ok

    def test_six_valent_circle_fails_disc_check(self):
        m = CombinatorialMap(((0, 1, 2, 3, 4, 5),), {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4})
        d = FalDiagram(m, genus(m), (CrossingCircle(),))
        report = validate_fal(d)
        assert not report.four_valent
        assert not report.crossing_circles_bound_discs

    def test_component_missing_circle_fails(self):
        # Circle A, crossings B and C; one strand runs through B and C only.
        m = CombinatorialMap(
            (
                (0, 1, 2, 3),  # A: circle
                (4, 5, 6, 7),  # B
                (8, 9, 10, 11),  # C
            ),
            {
                7: 0, 0: 7,
                11: 1, 1: 11,
                2: 3, 3: 2,
                4: 8, 8: 4,
                5: 9, 9: 5,
                6: 10, 10: 6,
            },
        )
        d = FalDiagram(m, genus(m), (CrossingCircle(), Crossing(0), Crossing(0)))
        report = validate_fal(d)
        assert not report.components_meet_circles

    def test_wrong_declared_genus_fails_cellularity(self):
        d = generate_fal(2, 3, seed=1)
        wrong = FalDiagram(d.map, 3, d.vertex_kind)
        assert not validate_fal(wrong).cellular


class TestWga:
    def test_pipeline_positive(self):
        d = generate_fal(2, 6, seed=4, require_checkerboard=True)
        signs = choose_alternating_signs(d)
        filled = fill_all(d, {k: signs[k] for k in range(6)})
        report = check_wga(filled, surface_incompressible=True)
        assert report.checkerboard
        assert report.alternating
        assert report.crossing_per_component
        assert report.components_on_all_surfaces
        if report.weakly_prime:
            assert report.wga_positive

    def test_compressible_flag_inconclusive(self):
        d = generate_fal(2, 6, seed=4, require_checkerboard=True)
        signs = choose_alternating_signs(d)
        filled = fill_all(d, {k: signs[k] for k in range(6)})
        report = check_wga(filled, surface_incompressible=False)
        assert report.representativity is None
        assert not report.wga_positive

    def test_incompressible_surface_is_asserted(self):
        d = generate_fal(2, 6, seed=4, require_checkerboard=True)
        filled = fill_all(d, dict(zip(d.circles, choose_alternating_signs(d))))
        claim = check_wga(filled, surface_incompressible=True).representativity
        assert claim == ("asserted", float("inf"), ("the projection surface is incompressible",))

    def test_non_alternating_reported(self):
        filled = fill_all(
            generate_fal(2, 6, seed=4, require_checkerboard=True),
            {k: 1 for k in range(6)},
        )
        report = check_wga(filled, surface_incompressible=True)
        # All-positive fills need not alternate; the report just records it.
        assert report.alternating == check_alternating(filled)


class TestRoundTrips:
    def test_augment_inverts_fill(self):
        for seed in range(3):
            d = generate_fal(2, 5, seed=seed, half_twist_probability=0.5)
            coeffs = {k: (k % 3 + 1) * (1 if k % 2 == 0 else -1) for k in range(5)}
            back = augment(fill_all(d, coeffs))
            assert diagrams_isomorphic(back, d)

    def test_half_twist_parity_survives(self):
        d = generate_fal(3, 7, seed=2, half_twist_probability=0.7)
        back = augment(fill_all(d, {k: 2 for k in range(7)}))
        before = sorted(k.half_twist for k in d.vertex_kind)
        after = sorted(k.half_twist for k in back.vertex_kind)
        assert before == after

    def test_fill_then_c_drops_to_zero(self):
        d = generate_fal(2, 4, seed=9)
        filled = fill_all(d, {k: 1 for k in range(4)})
        assert filled.c == 0
        assert len(detect_twist_regions(filled)) == 4


# -- fill_all against the one-circle-at-a-time chain ------------------------


def reference_fill_crossing_circle(diagram, k, t):
    """The former single-circle fill: one validated map per circle."""
    if t == 0:
        raise ZeroCoefficient("filling coefficient t must be nonzero")
    m = diagram.map
    if not (0 <= k < m.vertex_count) or not isinstance(diagram.vertex_kind[k], CrossingCircle):
        raise NotACrossingCircle(f"vertex {k} is not a crossing circle")
    kind = diagram.vertex_kind[k]
    sign = 1 if t > 0 else -1
    n = 2 * abs(t)
    if kind.half_twist:
        n = n + 1 if sign == kind.half_twist_sign else n - 1
    over_pair = 0 if sign == 1 else 1

    circle = m.rotation[k]
    next_dart = max(m.darts) + 1
    ladder = []
    for _ in range(n):
        ladder.append(tuple(range(next_dart, next_dart + 4)))
        next_dart += 4

    rep = {
        circle[0]: ladder[0][0],
        circle[1]: ladder[0][1],
        circle[2]: ladder[-1][2],
        circle[3]: ladder[-1][3],
    }
    opposite = {}
    for d in m.edges():
        e = m.opposite[d]
        a, b = rep.get(d, d), rep.get(e, e)
        opposite[a] = b
        opposite[b] = a
    for i in range(n - 1):
        _, _, c_i, d_i = ladder[i]
        a_next, b_next, _, _ = ladder[i + 1]
        opposite[c_i] = b_next
        opposite[b_next] = c_i
        opposite[d_i] = a_next
        opposite[a_next] = d_i

    rotation = [m.rotation[v] for v in range(m.vertex_count) if v != k]
    kinds = [diagram.vertex_kind[v] for v in range(m.vertex_count) if v != k]
    rotation.extend(ladder)
    kinds.extend(Crossing(over_pair) for _ in range(n))

    out = FalDiagram(CombinatorialMap(tuple(rotation), opposite), diagram.genus, tuple(kinds))
    assert genus(out.map) == diagram.genus
    return out


def reference_fill_all(diagram, coefficients):
    """The former fill_all: single-circle fills from the highest index down."""
    out = diagram
    for k in sorted(coefficients, reverse=True):
        out = reference_fill_crossing_circle(out, k, coefficients[k])
    return out


def assert_same_diagram(a, b):
    assert a.map.rotation == b.map.rotation
    assert a.map.opposite == b.map.opposite
    assert a.vertex_kind == b.vertex_kind
    assert a.genus == b.genus


def crossings_first(d, order):
    """`d` with its vertices renumbered: crossings in the drawn order, then
    circles in the drawn order."""
    order = sorted(order, key=lambda v: isinstance(d.vertex_kind[v], CrossingCircle))
    m = CombinatorialMap(tuple(d.map.rotation[v] for v in order), d.map.opposite)
    return FalDiagram(m, d.genus, tuple(d.vertex_kind[v] for v in order))


COEFFICIENT = st.sampled_from((-3, -2, -1, 1, 2, 3))


@given(
    g=st.sampled_from((2, 3)),
    c=st.integers(5, 40),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_fill_all_matches_reference(g, c, seed, data):
    """One-pass fill equals the per-circle chain, on a fresh diagram and
    again on the partly filled result with its crossings renumbered ahead
    of its circles."""
    d = generate_fal(g, c, seed=seed, half_twist_probability=0.5)
    first = data.draw(st.dictionaries(st.sampled_from(d.circles), COEFFICIENT))
    partial = fill_all(d, first)
    assert_same_diagram(partial, reference_fill_all(d, first))
    if not partial.circles:
        return
    order = data.draw(st.permutations(range(partial.map.vertex_count)))
    shuffled = crossings_first(partial, order)
    second = data.draw(st.dictionaries(st.sampled_from(shuffled.circles), COEFFICIENT))
    assert_same_diagram(fill_all(shuffled, second), reference_fill_all(shuffled, second))


@pytest.mark.parametrize("seed", range(4))
def test_unit_fill_on_half_twists_matches_reference(seed):
    """t = +-1 on half-twist circles gives ladders of 3 (sign matches) and
    1 (sign cancels); both occur and both equal the chain."""
    d = generate_fal(2, 8, seed=seed, half_twist_probability=1.0)
    coefficients = {k: (-1) ** k for k in d.circles}
    filled = fill_all(d, coefficients)
    assert_same_diagram(filled, reference_fill_all(d, coefficients))
    lengths = [3 if d.vertex_kind[k].half_twist_sign == t else 1 for k, t in coefficients.items()]
    assert set(lengths) == {1, 3}
    assert filled.map.vertex_count == sum(lengths)


def _outcome(fill, diagram, coefficients):
    try:
        fill(diagram, coefficients)
    except SurflinkError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "coefficients",
    [
        {0: 0},
        {1: 2, 0: 0},
        {0: 2, 1: 0},
        {8: 1},
        {8: 0, 9: 1},
        {-1: 1},
        {0: 1, 11: 2},
        {11: 0, 12: 1},
        {2: 1, 99: 0},
    ],
    ids=str,
)
def test_fill_all_raises_like_reference(coefficients):
    """On a diagram whose circles 0-2 precede crossings 3-10 (and vertices
    11+ do not exist), the first bad key from the top raises the same
    error as the chain."""
    d = fill_all(generate_fal(2, 5, seed=3), {4: 2, 3: -2})
    assert d.circles == (0, 1, 2) and d.map.vertex_count == 11
    expected = _outcome(reference_fill_all, d, coefficients)
    assert expected is not None
    assert _outcome(fill_all, d, coefficients) == expected


def count_surgery(monkeypatch):
    """Record each map built and each map whose genus fal_diagram checks."""
    built, checked = [], []
    init = CombinatorialMap.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counting_genus(m):
        checked.append(m)
        return genus(m)

    monkeypatch.setattr(CombinatorialMap, "__init__", counting_init)
    monkeypatch.setattr(fal_diagram, "map_genus", counting_genus)
    return built, checked


def test_fill_all_builds_one_map(monkeypatch):
    d = generate_fal(3, 12, seed=5, half_twist_probability=0.5)
    built, checked = count_surgery(monkeypatch)
    filled = fill_all(d, {k: 2 - 4 * (k % 2) for k in d.circles})
    assert filled.c == 0
    assert len(built) == 1
    assert checked == [d.map, filled.map]  # the input's genus, then the result's


def test_fill_all_checks_genus(monkeypatch):
    """The genus check is a raise, not an assert, so it also runs under -O."""
    d = generate_fal(2, 4, seed=1)
    monkeypatch.setattr(fal_diagram, "map_genus", lambda m: d.genus + (m is not d.map))
    with pytest.raises(InternalInvariant, match="surgery changed the surface genus"):
        fill_all(d, {0: 1, 2: -2})


# -- twist regions, over-ends and strands against the former per-call code ---


class WalkLoops(Exception):
    """The former chain walk would repeat a step and never end."""


def reference_is_over_end(diagram, dart):
    v = diagram.map.vertex_of(dart)
    kind = diagram.vertex_kind[v]
    if not isinstance(kind, Crossing):
        raise UnfilledCircle(f"vertex {v} is not a crossing")
    return diagram.map.position_of(dart) % 2 == kind.over_pair


def reference_strand_components(diagram):
    m = diagram.map
    pairs = list(m.opposite.items())
    for cycle in m.rotation:
        half = len(cycle) // 2
        pairs.extend(zip(cycle[:half], cycle[half:]))
    return sorted((frozenset(g) for g in reference_components(m.darts, pairs)), key=min)


def reference_check_alternating(diagram):
    m = diagram.map
    for v, kind in enumerate(diagram.vertex_kind):
        if isinstance(kind, CrossingCircle):
            raise UnfilledCircle(f"vertex {v} is still a crossing circle")
    return all(
        reference_is_over_end(diagram, d) != reference_is_over_end(diagram, m.opposite[d])
        for d in m.edges()
    )


def reference_dart_label(diagram, d):
    kind = diagram.vertex_kind[diagram.map.vertex_of(d)]
    if isinstance(kind, CrossingCircle):
        return ("O", kind.half_twist)
    return ("X", reference_is_over_end(diagram, d))


def reference_walk_chain(links, first):
    """The former walk, which steps to the first neighbour that is not the
    previous crossing; a repeated (previous, current) step means it loops."""
    chain = [first]
    prev, cur = None, first
    steps = set()
    while True:
        if (prev, cur) in steps:
            raise WalkLoops(f"walk from {first} repeats the step {prev} -> {cur}")
        steps.add((prev, cur))
        nxt = [u for u, _ in links[cur] if u != prev]
        if not nxt:
            return chain
        prev, cur = cur, nxt[0]
        chain.append(cur)


def reference_end_ports(m, v, internal):
    """The two darts at chain end v outside every bigon, ordered so that
    the second is the rotation successor of the first."""
    ports = [d for d in m.rotation[v] if d not in internal]
    if len(ports) != 2:
        raise MalformedMap(f"chain end {v} has {len(ports)} boundary darts")
    a, b = ports
    return (a, b) if m.rotation_successor(a) == b else (b, a)


def reference_detect_twist_regions(diagram):
    """The former region finder: a component search, then a walk from the
    least end, then the bigon-count and alternation checks."""
    m = diagram.map
    fs = trace_faces(m)
    crossings = set(diagram.crossings)
    links = {v: [] for v in crossings}
    for cycle in fs.faces:
        if len(cycle) != 2:
            continue
        p, q = cycle
        vp, vq = m.vertex_of(p), m.vertex_of(q)
        if vp == vq or vp not in crossings or vq not in crossings:
            continue
        links[vp].append((vq, (p, q)))
        links[vq].append((vp, (q, p)))
    internal = set()
    for v in crossings:
        for _, (p, q) in links[v]:
            internal.update((p, m.opposite[p], q, m.opposite[q]))
    regions = []
    seen = set()
    for start in sorted(crossings):
        if start in seen:
            continue
        if not links[start]:
            seen.add(start)
            ports = tuple(m.rotation[start])
            sign = 1 if reference_is_over_end(diagram, ports[0]) else -1
            regions.append(TwistRegion((start,), ports, sign))
            continue
        comp = {start}
        todo = [start]
        while todo:
            for u, _ in links[todo.pop()]:
                if u not in comp:
                    comp.add(u)
                    todo.append(u)
        ends = [v for v in comp if len(links[v]) == 1]
        if not ends:
            raise MalformedMap("closed cycle of bigons has no twist-region ends")
        chain = reference_walk_chain(links, min(ends))
        seen.update(chain)
        for v in chain:
            if len(links[v]) > 2:
                raise MalformedMap(f"crossing {v} sits in more than two bigons")
        for v in chain:
            for _, (p, q) in links[v]:
                for d in (p, q):
                    if reference_is_over_end(diagram, d) == reference_is_over_end(diagram, m.opposite[d]):
                        raise NonAlternatingTwistRegion(f"bigon edge at dart {d}")
        x, y = reference_end_ports(m, chain[0], internal)
        z, w = reference_end_ports(m, chain[-1], internal)
        sign = 1 if reference_is_over_end(diagram, x) else -1
        regions.append(TwistRegion(tuple(chain), (x, y, z, w), sign))
    return regions


# A crossing of degree 6 (vertex 1) in three bigons, with vertices 0 and 2:
# the bigons close a cycle 0-1-2 and vertex 3 hangs off vertex 1.  The
# former walk went round the cycle for ever.
THREE_BIGON_CROSSING = {
    "vertices": [[0, 1, 2, 3], [4, 5, 6, 7, 8, 9], [10, 11, 12, 13], [14, 15, 16, 17]],
    "opposite": [[0, 7], [1, 6], [2, 13], [3, 12], [4, 15], [5, 14], [8, 11], [9, 10], [16, 17]],
    "genus": 0,
    "vertex_kind": ["crossing"] * 4,
    "over_pair": [0] * 4,
    "half_twist": [None] * 4,
    "half_twist_sign": [None] * 4,
}


def test_crossing_in_three_bigons_rejected():
    d = diagram_from_json_dict(THREE_BIGON_CROSSING)
    with pytest.raises(WalkLoops):
        reference_detect_twist_regions(d)
    with pytest.raises(MalformedMap, match="crossing 1 sits in more than two bigons"):
        detect_twist_regions(d)


def random_decorated(rng):
    """A connected diagram on 1-5 vertices of degree 4 or 6, or None.

    Degree-4 vertices are sometimes crossing circles; crossings get a
    random over_pair.  Most edges come in pairs x-succ(y), y-succ(x) for
    consecutive free slots x, succ(x) and y, succ(y), which makes a bigon,
    so chains, crossings in three bigons and closed bigon cycles all occur.
    """
    degrees = [rng.choice((4, 4, 6)) for _ in range(rng.randint(1, 5))]
    kinds = [
        CrossingCircle(rng.random() < 0.5) if k == 4 and rng.random() < 0.2 else Crossing(rng.randint(0, 1))
        for k in degrees
    ]
    rotation, start = [], 0
    for k in degrees:
        rotation.append(tuple(range(start, start + k)))
        start += k
    succ = {cycle[i - 1]: d for cycle in rotation for i, d in enumerate(cycle)}
    free = set(succ)
    opposite = {}

    def pair(a, b):
        opposite[a], opposite[b] = b, a
        free.difference_update((a, b))

    while free:
        slots = sorted(x for x in free if succ[x] in free)
        if len(slots) >= 2 and rng.random() < 0.7:
            x, y = rng.sample(slots, 2)
            if len({x, succ[x], y, succ[y]}) == 4:
                pair(x, succ[y])
                pair(y, succ[x])
                continue
        pair(*rng.sample(sorted(free), 2))
    try:
        m = CombinatorialMap(tuple(rotation), opposite)
    except MalformedMap:
        return None
    return FalDiagram(m, genus(m), tuple(kinds))


def _result_or_type(f, *args):
    try:
        return f(*args)
    except (SurflinkError, WalkLoops) as exc:
        return type(exc)


def compare_with_reference(d):
    """Assert the cached facts equal the former per-call code on `d`; return
    what the former region finder did."""
    expected = _result_or_type(reference_detect_twist_regions, d)
    got = _result_or_type(detect_twist_regions, d)
    if expected is WalkLoops:
        assert got is MalformedMap
    elif isinstance(expected, type):
        assert got is expected
    else:
        assert got == tuple(expected)
    assert _result_or_type(check_alternating, d) == _result_or_type(reference_check_alternating, d)
    assert d.strands == tuple(reference_strand_components(d))
    label = fal_diagram._dart_label(d)
    assert [label(x) for x in d.map.darts] == [reference_dart_label(d, x) for x in d.map.darts]
    if isinstance(expected, type):
        return expected.__name__
    return "chain" if any(len(r.crossings) > 1 for r in expected) else "lone"


@given(st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_cached_facts_match_reference(rng):
    """Wherever the former walk ends, the regions, alternation, strands and
    dart labels are the same, or the same exception type is raised; where
    it would loop, MalformedMap is raised."""
    d = random_decorated(rng)
    assume(d is not None)
    compare_with_reference(d)


def test_reference_comparison_reaches_every_outcome():
    """A seeded sweep of the same maps meets lone crossings, chains, loops
    of the former walk, non-alternating bigons and malformed chains."""
    rng = random.Random(0)
    seen = set()
    for _ in range(2000):
        d = random_decorated(rng)
        if d is not None:
            seen.add(compare_with_reference(d))
    assert {"lone", "chain", "WalkLoops", "NonAlternatingTwistRegion", "MalformedMap"} <= seen


def random_map_any_degree(rng):
    """A map on 1 to 6 vertices of degree 1 to 6, with scattered dart ids
    in random rotation order, or None when the random pairing leaves it
    disconnected."""
    degrees = [rng.randint(1, 6) for _ in range(rng.randint(1, 6))]
    if sum(degrees) % 2:
        i = rng.randrange(len(degrees))
        degrees[i] += 1 if degrees[i] < 6 else -1
    darts = rng.sample(range(200), sum(degrees))
    rotation, k = [], 0
    for degree in degrees:
        rotation.append(tuple(darts[k : k + degree]))
        k += degree
    rng.shuffle(darts)
    opposite = {}
    for a, b in zip(darts[::2], darts[1::2]):
        opposite[a] = b
        opposite[b] = a
    try:
        m = CombinatorialMap(tuple(rotation), opposite)
    except MalformedMap:
        return None
    return FalDiagram(m, genus(m), (CrossingCircle(),) * len(rotation))


def test_theta_graph_strand_is_one_path():
    """At a vertex of degree 3 the last slot faces nothing, so the strand
    through it is a path: here one strand holding all six darts."""
    m = CombinatorialMap(((0, 1, 2), (3, 5, 4)), {0: 3, 3: 0, 1: 4, 4: 1, 2: 5, 5: 2})
    d = FalDiagram(m, genus(m), (CrossingCircle(),) * 2)
    assert genus(m) == 0
    assert d.strands == (frozenset(range(6)),) == tuple(reference_strand_components(d))
    assert d.l == 1


@given(st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_strands_match_union_find_at_every_degree(rng):
    d = random_map_any_degree(rng)
    assume(d is not None)
    assert d.strands == tuple(reference_strand_components(d))


def test_strands_sweep_meets_every_degree_and_paths():
    """A seeded sweep of the same maps: degrees 1 to 6 all occur, and
    strands that are paths (through an odd-degree vertex) occur beside
    closed ones."""
    rng = random.Random(0)
    degrees, paths, cycles = set(), 0, 0
    for _ in range(3000):
        d = random_map_any_degree(rng)
        if d is None:
            continue
        assert d.strands == tuple(reference_strand_components(d))
        m = d.map
        degrees.update(map(len, m.rotation))
        odd = {x for cycle in m.rotation if len(cycle) % 2 for x in cycle[-1:]}
        for strand in d.strands:
            if strand & odd:
                paths += 1
            else:
                cycles += 1
    assert degrees == set(range(1, 7))
    assert paths and cycles


def count_computations(monkeypatch, name):
    """Record each diagram on which the cached FalDiagram value `name` is
    computed."""
    prop = FalDiagram.__dict__[name]
    func = prop.func
    calls = []

    def counted(self):
        calls.append(self)
        return func(self)

    monkeypatch.setattr(prop, "func", counted)
    return calls


def test_canonical_form_computed_once_per_diagram(monkeypatch):
    a = generate_fal(2, 6, seed=4, half_twist_probability=0.5)
    b = FalDiagram(a.map, a.genus, a.vertex_kind)
    forms = count_computations(monkeypatch, "canonical")
    assert diagrams_isomorphic(a, b) and diagrams_isomorphic(b, a)
    assert diagram_canonical_form(a) == diagram_canonical_form(b)
    assert len(forms) == 2 and forms[0] is a and forms[1] is b
    assert a == b and "canonical" in vars(a)


def test_fill_to_wga_and_augment_share_one_region_walk(monkeypatch):
    base = generate_fal(2, 6, seed=4, require_checkerboard=True)
    walks = count_computations(monkeypatch, "twist_regions")
    link = fill_to_wga(build_trivial_torus(base, build_layered(base, "a1", "b1", 0)), (1, -2, 3, 1, 2, 1))
    filled = link.filled_diagram
    assert link.twist_region_count == 6
    assert diagrams_isomorphic(augment(filled), base)
    assert walks == [filled]


def test_one_strand_partition_per_diagram(monkeypatch):
    d = generate_fal(2, 6, seed=4, require_checkerboard=True)
    partitions = count_computations(monkeypatch, "strands")
    assert validate_fal(d).ok
    assert d.l >= 1
    check_wga(d, surface_incompressible=True)
    assert partitions == [d]


# -- augment against the former two-pass rebuild ----------------------------


def reference_augment(diagram):
    """The former augment: its own dart allocator, port renaming and
    opposite rebuild."""
    m = diagram.map
    for v in diagram.crossings:
        if m.degree(v) != 4:
            raise MalformedMap(f"crossing {v} has degree {m.degree(v)}, not 4")
    regions = detect_twist_regions(diagram)
    if not regions:
        return diagram

    removed = set()
    singles = {}
    chains = []
    for r in regions:
        if len(r.crossings) == 1:
            singles[r.crossings[0]] = r
        else:
            removed.update(r.crossings)
            chains.append(r)

    interior = set()
    for r in chains:
        for v in r.crossings:
            interior.update(m.rotation[v])
        interior.difference_update(r.boundary_darts)

    next_dart = max(m.darts) + 1
    rep = {}
    new_vertices = []
    new_kinds = []
    for r in chains:
        slots = tuple(range(next_dart, next_dart + 4))
        next_dart += 4
        for port, slot in zip(r.boundary_darts, slots):
            rep[port] = slot
        new_vertices.append(slots)
        new_kinds.append(CrossingCircle(half_twist=len(r.crossings) % 2 == 1, half_twist_sign=r.sign))

    rotation = []
    kinds = []
    for v in range(m.vertex_count):
        if v in removed:
            continue
        rotation.append(m.rotation[v])
        if v in singles:
            kinds.append(CrossingCircle(half_twist=True, half_twist_sign=singles[v].sign))
        else:
            kinds.append(diagram.vertex_kind[v])
    rotation.extend(new_vertices)
    kinds.extend(new_kinds)

    opposite = {}
    for d in m.edges():
        e = m.opposite[d]
        if d in interior or e in interior:
            continue
        a, b = rep.get(d, d), rep.get(e, e)
        opposite[a] = b
        opposite[b] = a

    out = FalDiagram(CombinatorialMap(tuple(rotation), opposite), diagram.genus, tuple(kinds))
    if genus(out.map) != diagram.genus:
        raise InternalInvariant(f"surgery changed the surface genus from {diagram.genus} to {genus(out.map)}")
    return out


@given(g=st.sampled_from((2, 3, 4)), seed=st.integers(0, 2**16), data=st.data())
@settings(max_examples=40, deadline=None)
def test_augment_matches_reference(g, seed, data):
    """On a diagram with some circles filled, so that circles, lone
    crossings and chains mix, augment equals the former rebuild."""
    c = data.draw(st.integers(2 * g - 1, 40))
    d = generate_fal(g, c, seed=seed, half_twist_probability=0.5)
    filled = fill_all(d, data.draw(st.dictionaries(st.sampled_from(d.circles), COEFFICIENT)))
    assert_same_diagram(augment(filled), reference_augment(filled))


@given(st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_augment_raises_like_reference(rng):
    """On small decorated maps augment gives the former result, or raises
    the same exception type."""
    d = random_decorated(rng)
    assume(d is not None)
    expected = _result_or_type(reference_augment, d)
    got = _result_or_type(augment, d)
    if isinstance(expected, type):
        assert got is expected
    else:
        assert_same_diagram(got, expected)


def test_augment_builds_one_map(monkeypatch):
    """Lone crossings and chains in one diagram: still one map, one check."""
    d = generate_fal(3, 12, seed=5, half_twist_probability=0.5)
    filled = fill_all(d, {k: (-1) ** k for k in d.circles})
    assert {len(r.crossings) > 1 for r in detect_twist_regions(filled)} == {True, False}
    built, checked = count_surgery(monkeypatch)
    out = augment(filled)
    assert out.c == 12
    assert len(built) == 1
    assert checked == [filled.map, out.map]  # the input's genus, then the result's


def test_augment_checks_genus(monkeypatch):
    """The genus check is a raise, not an assert, so it also runs under -O."""
    d = fill_all(generate_fal(2, 4, seed=1), {0: 1, 2: -2})
    monkeypatch.setattr(fal_diagram, "map_genus", lambda m: d.genus + (m is not d.map))
    with pytest.raises(InternalInvariant, match="surgery changed the surface genus"):
        augment(d)


ONE_CIRCLE_MAP = CombinatorialMap(((0, 1, 2, 3),), {0: 2, 2: 0, 1: 3, 3: 1})


def test_diagram_records_are_values():
    d = FalDiagram(ONE_CIRCLE_MAP, 1, [CrossingCircle(True, -1)])
    pinned = (
        "FalDiagram(map=CombinatorialMap(rotation=((0, 1, 2, 3),), opposite={0: 2, 2: 0, 1: 3, 3: 1}), "
        "genus=1, vertex_kind=(CrossingCircle(half_twist=True, half_twist_sign=-1),))"
    )
    assert repr(d) == pinned
    assert d.strands and d.twist_regions == ()  # cached, outside the value
    assert repr(d) == pinned and d == FalDiagram(ONE_CIRCLE_MAP, 1, [CrossingCircle(True, -1)])
    assert repr(CrossingCircle()) == "CrossingCircle(half_twist=False, half_twist_sign=1)"
    assert repr(Crossing(1)) == "Crossing(over_pair=1)"
    assert repr(TwistRegion((3, 4), (1, 2, 3, 4), -1)) == (
        "TwistRegion(crossings=(3, 4), boundary_darts=(1, 2, 3, 4), sign=-1)"
    )
    g = generate_fal(2, 4, seed=1)
    check_value_record(d, hashable=False)
    for record in (
        CrossingCircle(),
        Crossing(0),
        TwistRegion((3, 4), (1, 2, 3, 4), -1),
        validate_fal(g),
        check_wga(fill_all(g, {k: 1 for k in g.circles}), surface_incompressible=False),
    ):
        check_value_record(record)


@pytest.mark.parametrize(
    "build",
    [
        lambda: CrossingCircle(half_twist_sign=0),
        lambda: Crossing(over_pair=2),
        lambda: FalDiagram(ONE_CIRCLE_MAP, 1, []),
        lambda: FalDiagram(ONE_CIRCLE_MAP, 1, [CrossingCircle(), Crossing(0)]),
        lambda: FalDiagram(ONE_CIRCLE_MAP, 1, [(False, 1)]),
    ],
)
def test_record_checks_still_raise(build):
    with pytest.raises(MalformedMap):
        build()



@pytest.mark.xfail(
    strict=True,
    reason="an even ladder of 2|t| crossings joins ports 0-3 and 1-2 of the circle it "
    "replaces, while FalDiagram.strands joins opposite slots 0-2 and 1-3 at every "
    "vertex, circles included, so filling changes l (ROADMAP item 2)",
)
def test_fill_keeps_the_strand_count():
    """Dehn filling a crossing circle removes that circle and keeps every
    strand of the projection, so the strand count l is unchanged.  Filling
    every circle with t = 1 takes l from 2 to 1 on the first diagram and
    from 1 to 2 on the second."""
    diagrams = [generate_fal(2, 4, seed=0), generate_fal(2, 4, seed=1, require_checkerboard=True)]
    filled = [fill_all(d, {k: 1 for k in d.circles}) for d in diagrams]
    assert [f.l for f in filled] == [d.l for d in diagrams]
