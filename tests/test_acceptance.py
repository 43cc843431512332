"""Acceptance suite: one test per headline criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
captured output on failure) and enforces the stated tolerances exactly.
"""

import math
import random
import time

import pytest

from surflink.bowtie import (
    V_TET,
    build_nerve,
    decompose,
    prism_triangulation,
    reglue,
    triangulate_white_faces,
    volume_bounds,
)
from surflink.constructions import (
    annular_fill,
    build_layered,
    build_trivial_torus,
    fill_to_wga,
    plan_volume_target,
)
from surflink.curves_mcg import (
    algebraic_intersection,
    basis_class,
    geometric_intersection_oracle,
    parse_curve_word,
    twist_action,
    word_to_homology,
)
from surflink.fal_diagram import (
    check_alternating,
    choose_alternating_signs,
    diagrams_isomorphic,
    augment,
    fill_all,
    fill_crossing_circle,
)
from surflink.generator import generate_fal
from surflink.io import diagram_from_json_dict, diagram_to_json_dict, dumps_json
from surflink.surface_map import checkerboard_coloring


def _report(number, name, passed):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'}")


def _instances():
    out = []
    for g in (2, 3):
        for c in range(2 * g - 1, 13):
            for seed in range(29):
                out.append((g, c, seed))
                if len(out) >= 520:
                    return out
    return out


@pytest.fixture(scope="module")
def decompositions():
    start = time.monotonic()
    items = [
        (g, c, decompose(generate_fal(g, c, seed=seed))) for g, c, seed in _instances()
    ]
    elapsed = time.monotonic() - start
    return items, elapsed


def test_criterion_1_white_face_law(decompositions):
    items, elapsed = decompositions
    ok = len(items) >= 500 and elapsed < 10.0
    failures = [(g, c) for g, c, d in items if d.white_count != c + 2 - 2 * g]
    ok = ok and not failures
    _report(1, "white-face law", ok)
    assert len(items) >= 500
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    assert failures == []


def test_criterion_2_nerve_counts(decompositions):
    items, _ = decompositions
    failures = []
    for g, c, d in items:
        nerve = build_nerve(d)
        if (
            nerve.node_count != c + 2 - 2 * g
            or nerve.edge_count != 3 * c
            or nerve.face_count != 2 * c
            or nerve.chi != 2 - 2 * g
        ):
            failures.append((g, c))
    _report(2, "nerve counts", not failures)
    assert failures == []


def test_criterion_3_triangulation_counts_and_closure():
    failures = []
    for g in (2, 3):
        for c in (2 * g - 1, 2 * g + 1, 9, 12):
            for seed in (0, 1):
                d = decompose(generate_fal(g, c, seed=seed))
                surf = triangulate_white_faces(d)
                if surf.triangle_count != 6 * c + 4 * g - 4:
                    failures.append(("triangles", g, c, seed))
                pt = prism_triangulation(d)
                if pt.tetrahedron_count != 6 * (3 * c + 2 * g - 2):
                    failures.append(("tetrahedra", g, c, seed))
                for tet, faces in enumerate(pt.gluings):
                    for face, (nbr, nf, perm) in enumerate(faces):
                        back_nbr, back_face, back_perm = pt.gluings[nbr][nf]
                        if (back_nbr, back_face) != (tet, face) or tuple(
                            back_perm[p] for p in perm
                        ) != (0, 1, 2, 3):
                            failures.append(("closure", g, c, seed))
    _report(3, "triangulation counts and gluing closure", not failures)
    assert failures == []


def test_criterion_4_bound_values():
    ok = f"{V_TET:.5f}".startswith("1.01494")
    upper1 = volume_bounds(1 + 3, 3, 2, 0, "TrivialMappingTorus")[1].value
    upper2 = volume_bounds(1 + 6, 6, 2, 0, "TrivialMappingTorus")[1].value
    ok = ok and math.isclose(upper1, 66 * V_TET, abs_tol=1e-9)
    ok = ok and math.isclose(upper2, 120 * V_TET, abs_tol=1e-9)
    ok = ok and math.isclose(
        upper1, 6 * (3 * 3 + 2 * 2 - 2) * V_TET, abs_tol=1e-9
    )
    _report(4, "volume bound values", ok)
    assert ok


def test_criterion_5_transvection_identity():
    rng = random.Random(2024)
    failures = 0
    checked = 0
    for g in (2, 3, 5):
        for _ in range(3400):
            gamma = tuple(rng.randint(-50, 50) for _ in range(2 * g))
            alpha = tuple(rng.randint(-50, 50) for _ in range(2 * g))
            t = rng.randint(-6, 6) or 1
            lhs = algebraic_intersection(gamma, twist_action(alpha, gamma, t))
            if lhs != t * algebraic_intersection(gamma, alpha) ** 2:
                failures += 1
            checked += 1
    ok = checked >= 10_000 and failures == 0
    _report(5, "transvection identity", ok)
    assert checked >= 10_000
    assert failures == 0


def test_criterion_6_geometric_oracle():
    start = time.monotonic()
    g = 2
    a1 = parse_curve_word("a1", g)
    values = (
        geometric_intersection_oracle(a1, parse_curve_word("b1", g), g),
        geometric_intersection_oracle(a1, parse_curve_word("a2", g), g),
        # The twist of a1 about b1 is the word a1 b1.
        geometric_intersection_oracle(a1, parse_curve_word("a1b1", g), g),
    )
    ok = values == (1, 0, 1)
    rng = random.Random(5)
    letters = [1, -1, 2, -2, 3, -3, 4, -4]
    for _ in range(40):
        w1 = tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        w2 = tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        geo = geometric_intersection_oracle(w1, w2, g)
        alg = algebraic_intersection(word_to_homology(w1, g), word_to_homology(w2, g))
        if geo < abs(alg):
            ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _report(6, "geometric oracle agreement", ok)
    assert values == (1, 0, 1)
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    assert ok


def test_criterion_7_checkerboard_preservation_and_alternation():
    failures = []
    for g, c, seed in [(2, 4, 0), (2, 5, 1), (2, 6, 2), (3, 6, 0), (3, 7, 1)]:
        base = generate_fal(g, c, seed=seed, require_checkerboard=True)
        for k in range(base.c):
            for t in (-3, -2, -1, 1, 2, 3):
                filled = fill_crossing_circle(base, k, t)
                if checkerboard_coloring(filled.map) is None:
                    failures.append(("checkerboard", g, c, seed, k, t))
        signs = choose_alternating_signs(base)
        for magnitude in (1, 2, 3):
            coefficients = {k: signs[k] * magnitude for k in range(base.c)}
            full = fill_all(base, coefficients)
            if not check_alternating(full):
                failures.append(("alternating", g, c, seed, magnitude))
        # Mixed magnitudes with the chosen signs must also alternate.
        rng = random.Random(seed)
        coefficients = {k: signs[k] * rng.randint(1, 3) for k in range(base.c)}
        if not check_alternating(fill_all(base, coefficients)):
            failures.append(("alternating-mixed", g, c, seed))
    _report(7, "checkerboard preservation and alternation", not failures)
    assert failures == []


def test_criterion_8_constancy_laws():
    a1, b1 = basis_class(1, 2), basis_class(2, 2)
    specs = 0
    failures = []
    for c, seed in [(5, s) for s in range(6)] + [(6, s) for s in range(4)]:
        base = generate_fal(2, c, seed=seed, require_checkerboard=True)
        for m in (0, 1, 2, 3, 5):
            link = build_trivial_torus(base, build_layered(base, a1, b1, m))
            for t_val in (1, 2):
                filled = annular_fill(link, (t_val,) * m)
                if filled.family.base.c != c:
                    failures.append(("c", c, seed, m))
                if link.cusp_count - filled.cusp_count != 2 * m:
                    failures.append(("cusps", c, seed, m))
                if link.cusp_count != base.l + c + 2 * m:
                    failures.append(("cusp-formula", c, seed, m))
                wga = fill_to_wga(filled, tuple(range(1, c + 1)))
                if wga.twist_region_count != c:
                    failures.append(("twist-regions", c, seed, m))
                specs += 1
    planning_ok = True
    for target, expected in ((10, 5), (100, 50), (1000, 493)):
        m = plan_volume_target(target)
        if m != expected or not 2 * m * V_TET > target or 2 * (m - 1) * V_TET > target:
            planning_ok = False
    ok = specs >= 100 and not failures and planning_ok
    _report(8, "constancy laws and planning", ok)
    assert specs >= 100
    assert failures == []
    assert planning_ok


def test_criterion_9_round_trips():
    ok = True
    # augment . fill is the identity up to diagram isomorphism.
    for seed in range(3):
        base = generate_fal(2, 5, seed=seed)
        filled = fill_all(base, {k: (-1) ** k * (k % 3 + 1) for k in range(base.c)})
        if not diagrams_isomorphic(augment(filled), base):
            ok = False
    # Bowtie reglue restores half-twist flags exactly.
    for seed in range(3):
        fal = generate_fal(2, 6, seed=seed, half_twist_probability=0.5)
        back = reglue(decompose(fal))
        if not diagrams_isomorphic(back, fal):
            ok = False
        if [k.half_twist for k in back.vertex_kind] != [
            k.half_twist for k in fal.vertex_kind
        ]:
            ok = False
    # Serialize -> parse -> serialize is the identity.
    fal = generate_fal(3, 7, seed=4, half_twist_probability=0.3)
    text = dumps_json(diagram_to_json_dict(fal))
    back = diagram_from_json_dict(diagram_to_json_dict(fal))
    if dumps_json(diagram_to_json_dict(back)) != text:
        ok = False
    if not diagrams_isomorphic(back, fal):
        ok = False
    _report(9, "round trips", ok)
    assert ok
