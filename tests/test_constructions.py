import math

import pytest

from surflink.bowtie import V_TET, volume_bounds
from surflink.constructions import (
    ManifoldLink,
    build_doubled,
    build_layered,
    build_mapping_torus,
    build_trivial_torus,
    annular_fill,
    fill_to_wga,
    plan_volume_target,
)
from surflink.curves_mcg import MAX_CURVE_WORD_LETTERS, MappingClassWord, basis_class, split_curve, twist_action
from surflink.errors import (
    Claim,
    CoefficientCountMismatch,
    GenusMismatch,
    MonodromyActsTrivially,
    NoIntersectionCertificate,
    NonPositiveCoefficient,
    ParseError,
    ZeroCoefficient,
)
from surflink.fal_diagram import (
    CrossingCircle,
    FalDiagram,
    check_wga,
    detect_twist_regions,
    fill_crossing_circle,
)
from surflink.generator import generate_fal
from surflink.io import build_link_from_spec, diagram_to_json_dict
from surflink.surface_map import CombinatorialMap
from test_surface_map import check_value_record


def base_diagram(g=2, c=6, seed=1, checkerboard=True):
    return generate_fal(g, c, seed=seed, require_checkerboard=checkerboard)


A1 = basis_class(1, 2)
B1 = basis_class(2, 2)
A2 = basis_class(3, 2)


class TestCurveClass:
    def test_class_vector_passthrough(self):
        assert split_curve((1, 0, 0, 0), 2)[1] == (1, 0, 0, 0)

    def test_word_string(self):
        assert split_curve("a1b1", 2)[1] == (1, 1, 0, 0)

    def test_short_word_tuple_abelianizes(self):
        assert split_curve((1, 2), 2)[1] == (1, 1, 0, 0)

    def test_word_tuple_above_cap_refused(self):
        with pytest.raises(ParseError, match=f"cap of {MAX_CURVE_WORD_LETTERS} letters"):
            split_curve((1,) * (MAX_CURVE_WORD_LETTERS + 1), 2)
        assert split_curve([1] * MAX_CURVE_WORD_LETTERS, 2)[1] == (MAX_CURVE_WORD_LETTERS, 0, 0, 0)

    def test_list_of_2g_entries_is_a_class_not_a_word(self):
        # Entries past the generator range show that no letter is checked.
        assert split_curve([7, 0, -9, 0], 2) == (None, (7, 0, -9, 0))


class TestBuildLayered:
    def test_m_zero_is_base_alone(self):
        fam = build_layered(base_diagram(), A1, B1, 0)
        assert fam.m == 0
        assert fam.certificate == Claim("homology", 1)

    def test_parity_and_pairing(self):
        fam = build_layered(base_diagram(), "a1", (0, 1, 0, 0), 3)
        assert (fam.gamma_odd_class, fam.gamma_even_class, fam.m) == (A1, B1, 3)
        assert fam.certificate == Claim("homology", 1)

    def test_no_certificate(self):
        with pytest.raises(NoIntersectionCertificate):
            build_layered(base_diagram(), A1, A2, 2)

    def test_oracle_certificate_from_words(self):
        # a1 and a1 b1 b1 pair to zero on homology of the b-side?  No:
        # <a1, a1+2b1> = 2, so use a disjoint-in-homology pair that the
        # oracle still certifies: none exists for simple basis words, so
        # check the oracle path with <a1, a1 b1> = 1 forced through words
        # whose classes pair to zero: a1 versus a1 (same class) has oracle
        # 0; instead verify the asserted path.
        fam = build_layered(base_diagram(), A1, A2, 2, assert_intersection=True)
        assert fam.certificate.kind == "asserted"

    def test_word_inputs_get_certificates(self):
        fam = build_layered(base_diagram(), "a1", "b1", 1)
        assert fam.certificate == Claim("homology", 1)

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            build_layered(base_diagram(), A1, B1, -1)


class TestBuildDoubled:
    def test_cusp_formula(self):
        b1 = generate_fal(2, 3, seed=0)
        b2 = generate_fal(2, 3, seed=2)
        fam = build_layered(b1, A1, B1, 0)
        link = build_doubled(b1, b2, fam)
        expected = b1.l + b1.c + b2.l + b2.c
        assert link.cusp_count == expected
        fam5 = build_layered(b1, A1, B1, 5)
        assert build_doubled(b1, b2, fam5).cusp_count == expected + 10

    def test_genus_mismatch(self):
        b1 = generate_fal(2, 3, seed=0)
        b3 = generate_fal(3, 5, seed=0)
        fam = build_layered(b1, A1, B1, 1)
        with pytest.raises(GenusMismatch):
            build_doubled(b1, b3, fam)

    def test_kind_and_flag(self):
        b1 = generate_fal(2, 3, seed=0)
        link = build_doubled(b1, b1, build_layered(b1, A1, B1, 1))
        assert link.kind == "DoubledThickenedSurface"
        assert link.hyperbolic_assumed


class TestBuildMappingTorus:
    def test_accepted_with_certificates(self):
        base = generate_fal(2, 3, seed=0)
        phi = MappingClassWord(((A1, 1),), 2)
        # The twist about a1 moves b1 and moves a1+b1.
        fam = build_layered(base, B1, twist_action(B1, A1, 1), 1)
        link = build_mapping_torus(base, phi, fam)
        assert link.kind == "MappingTorus"
        assert link.cusp_count == base.l + base.c + 2
        assert dict(link.certificates) == {
            "gamma_odd": "CertifiedNontrivial",
            "gamma_even": "CertifiedNontrivial",
        }

    def test_trivial_monodromy_rejected(self):
        base = generate_fal(2, 3, seed=0)
        identity_like = MappingClassWord(((A1, 1), (A1, -1)), 2)
        fam = build_layered(base, A1, B1, 1)
        with pytest.raises(MonodromyActsTrivially):
            build_mapping_torus(base, identity_like, fam)

    def test_fixed_even_curve_needs_justification(self):
        # Only a homology certificate moves a class; no text stands in for it.
        base = generate_fal(2, 3, seed=0)
        phi = MappingClassWord(((B1, 1),), 2)  # fixes b1, moves a1
        fam = build_layered(base, A1, B1, 1)
        with pytest.raises(MonodromyActsTrivially, match="on gamma_even is"):
            build_mapping_torus(base, phi, fam)
        with pytest.raises(TypeError):
            build_mapping_torus(base, phi, fam, gamma_even_justification="Twisted")

    def test_cusp_spot_value(self):
        base = generate_fal(2, 3, seed=4)
        assert base.c == 3
        phi = MappingClassWord(((A1, 1),), 2)
        fam = build_layered(base, B1, twist_action(B1, A1, 1), 4)
        link = build_mapping_torus(base, phi, fam)
        assert link.cusp_count == base.l + 3 + 8


class TestAnnularFill:
    def test_identity_for_m_zero(self):
        base = generate_fal(2, 4, seed=0)
        link = build_trivial_torus(base, build_layered(base, A1, B1, 0))
        filled = annular_fill(link, ())
        assert filled.cusp_count == link.cusp_count
        assert filled.family.base.c == base.c

    def test_cusp_drop_and_constancy(self):
        base = generate_fal(2, 4, seed=0)
        phi = MappingClassWord(((A1, 1),), 2)
        fam = build_layered(base, B1, twist_action(B1, A1, 1), 2)
        link = build_mapping_torus(base, phi, fam)
        filled = annular_fill(link, (3, 5))
        assert link.cusp_count - filled.cusp_count == 4
        assert filled.family.base.c == base.c
        assert filled.family.base.map is base.map
        # Monodromy extended by one twist per annulus pair, exponents +t.
        assert len(filled.monodromy.letters) == 3
        assert filled.monodromy.letters[1] == (fam.gamma_odd_class, 3)
        assert filled.monodromy.letters[2] == (fam.gamma_even_class, 5)

    def test_coefficient_errors(self):
        base = generate_fal(2, 4, seed=0)
        link = build_trivial_torus(base, build_layered(base, A1, B1, 2))
        with pytest.raises(CoefficientCountMismatch):
            annular_fill(link, (1,))
        with pytest.raises(NonPositiveCoefficient):
            annular_fill(link, (1, 0))
        with pytest.raises(NonPositiveCoefficient):
            annular_fill(link, (1, -2))


class TestFillToWga:
    def test_pipeline_counts(self):
        base = base_diagram(g=2, c=6, seed=1)
        link = build_trivial_torus(base, build_layered(base, A1, B1, 1))
        out = fill_to_wga(link, (1,) * base.c)
        assert out.twist_region_count == base.c
        assert out.wga_report is not None
        assert out.wga_report.alternating
        assert out.wga_report.checkerboard

    def test_region_sizes_follow_magnitudes(self):
        base = base_diagram(g=2, c=6, seed=1)
        assert base.c == 6
        link = build_trivial_torus(base, build_layered(base, A1, B1, 0))
        s = (2, 1, 4, -3, 1, 2)
        out = fill_to_wga(link, s)
        sizes = sorted(len(r.crossings) for r in detect_twist_regions(out.filled_diagram))
        assert sizes == sorted(2 * abs(x) for x in s)

    def test_zero_coefficient(self):
        base = base_diagram(g=2, c=6, seed=1)
        link = build_trivial_torus(base, build_layered(base, A1, B1, 0))
        with pytest.raises(ZeroCoefficient):
            fill_to_wga(link, (1, 0, 1, 1, 1, 1))

    def test_count_mismatch(self):
        base = base_diagram(g=2, c=6, seed=1)
        link = build_trivial_torus(base, build_layered(base, A1, B1, 0))
        with pytest.raises(CoefficientCountMismatch):
            fill_to_wga(link, (1, 1))

    def test_crossings_before_circles(self):
        # s_k goes to the k-th crossing circle, not to vertex k.
        filled = fill_crossing_circle(base_diagram(g=2, c=6, seed=3), 0, 1)
        n = filled.map.vertex_count
        order = [n - 2, n - 1] + list(range(n - 2))  # the two new crossings first
        base = FalDiagram(
            CombinatorialMap(tuple(filled.map.rotation[v] for v in order), filled.map.opposite),
            2,
            tuple(filled.vertex_kind[v] for v in order),
        )
        assert not any(isinstance(k, CrossingCircle) for k in base.vertex_kind[:2])
        link = build_trivial_torus(base, build_layered(base, A1, B1, 0))
        out = fill_to_wga(link, (1,) * base.c)
        assert out.filled_diagram.c == 0
        assert out.twist_region_count == 6
        assert out.wga_report.alternating


class TestPlanVolumeTarget:
    @pytest.mark.parametrize("target,expected", [(10, 5), (100, 50), (1000, 493)])
    def test_spot_values(self, target, expected):
        m = plan_volume_target(target)
        assert m == expected
        assert 2 * m * V_TET > target
        assert 2 * (m - 1) * V_TET <= target

    def test_boundary_strictness(self):
        assert plan_volume_target(2 * V_TET) == 2

    def test_tiny_target(self):
        assert plan_volume_target(0.5) == 1

    def test_planned_family_beats_target(self):
        base = generate_fal(2, 4, seed=0)
        m = plan_volume_target(100)
        link = build_trivial_torus(base, build_layered(base, A1, B1, m))
        lower, _ = volume_bounds(base.l + base.c + 2 * m, base.c, base.genus, m, link.kind)
        assert lower.value > 2 * m * V_TET - 1e-9
        assert lower.value > 100


class TestConstancySweep:
    def test_many_specs(self):
        count = 0
        for g, c, seed in [(2, 5, s) for s in range(6)] + [(2, 6, s) for s in range(4)]:
            base = generate_fal(g, c, seed=seed, require_checkerboard=True)
            for m in (0, 1, 2, 3, 5):
                fam = build_layered(base, A1, B1, m)
                link = build_trivial_torus(base, fam)
                for t_val in (1, 2):
                    filled = annular_fill(link, (t_val,) * m)
                    assert filled.family.base.c == c
                    assert link.cusp_count - filled.cusp_count == 2 * m
                    wga = fill_to_wga(filled, tuple(range(1, c + 1)))
                    assert wga.twist_region_count == c
                    count += 1
        assert count >= 100


def test_family_records_are_values():
    family = build_layered(base_diagram(), "a1", "b1", 2)
    link = build_trivial_torus(family.base, family)
    assert repr(family).startswith("LayeredFamily(base=FalDiagram(")
    assert repr(family).endswith(
        "gamma_odd_class=(1, 0, 0, 0), gamma_even_class=(0, 1, 0, 0), m=2, "
        "certificate=Claim(kind='homology', value=1, hypotheses=()), base2=None)"
    )
    assert repr(family.certificate) == "Claim(kind='homology', value=1, hypotheses=())"
    assert repr(link).startswith("ManifoldLink(kind='TrivialMappingTorus', family=LayeredFamily(base=FalDiagram(")
    assert repr(link).endswith(
        "monodromy=None, annular_coefficients=None, circle_coefficients=None, "
        "moves=(), filled_diagram=None, wga_report=None, twist_region_count=None)"
    )
    assert link == ManifoldLink("TrivialMappingTorus", family)
    check_value_record(family.certificate)
    check_value_record(family, hashable=False)
    check_value_record(link, hashable=False)


def mapping_torus_spec(base, **extra):
    return {
        "kind": "MappingTorus",
        "base": diagram_to_json_dict(base),
        "phi": [["a1", 1], ["b1", 1]],
        "gamma_odd": "a1",
        "gamma_even": "b1",
        "m": 2,
        **extra,
    }


class TestClaims:
    def test_asserted_intersection_names_its_hypothesis(self):
        link = build_link_from_spec(
            mapping_torus_spec(base_diagram(c=4), kind="TrivialMappingTorus", gamma_even="a2", assert_intersection=True)
        )
        claim = link.family.certificate
        assert (claim.kind, claim.value) == ("asserted", None)
        assert claim.hypotheses == ("the curves intersect essentially",)

    def test_oracle_intersection_names_what_it_rests_on(self):
        # b1 and a1a2A1A2 pair to zero on homology; the oracle finds 2.
        claim = build_layered(base_diagram(c=4), "b1", "a1a2A1A2", 1).certificate
        assert claim[:2] == ("oracle", 2)
        assert "the curves are simple" in claim.hypotheses

    def test_monodromy_claims_are_homology_proofs(self):
        link = build_link_from_spec(mapping_torus_spec(base_diagram(c=4)))
        assert link.moves == (Claim("homology", True), Claim("homology", True))

    @pytest.mark.parametrize("name", ["certificates", "hyperbolic_assumed"])
    def test_read_only_properties(self, name):
        base = base_diagram(c=4)
        link = build_trivial_torus(base, build_layered(base, "a1", "b1", 1))
        assert name not in ManifoldLink._fields
        with pytest.raises(AttributeError):
            setattr(link, name, None)


def test_names_the_benchmark_harness_reads():
    """perfbench/workloads.py reads these names of the library in-process,
    so a change to any of them fails here before it breaks a benchmark run."""
    base = base_diagram(c=4)
    link = build_link_from_spec(mapping_torus_spec(base))
    assert link.kind == "MappingTorus"
    assert link.cusp_count == base.l + base.c + 4
    assert (link.family.certificate.kind, link.family.certificate.value) == ("homology", 1)
    assert link.certificates == (("gamma_odd", "CertifiedNontrivial"), ("gamma_even", "CertifiedNontrivial"))
    assert link.hyperbolic_assumed is True
    trivial = build_link_from_spec(mapping_torus_spec(base, kind="TrivialMappingTorus"))
    assert (trivial.certificates, trivial.hyperbolic_assumed) == ((), False)
    wga = fill_to_wga(build_trivial_torus(base, build_layered(base, "a1", "b1", 1)), [1] * base.c)
    assert wga.filled_diagram.c == 0
    assert wga.twist_region_count == base.c
    report = check_wga(wga.filled_diagram, surface_incompressible=True)
    assert wga.wga_report == report
    assert wga.wga_report.wga_positive is report.weakly_prime
