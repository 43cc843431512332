"""Link-family builders on thickened surfaces and mapping tori.

A layered family adds m pairs of parallel curves above a fully augmented
base diagram, alternating between two transverse curve classes, so it is
kept as the base, the two classes and m; no per-layer record is built,
and a family costs the same for every m.  The family embeds in one of
three closed ambient pieces: a doubled thickened surface, a mapping torus
whose monodromy is certified on homology to move both classes, or the
trivial mapping torus used for triangulation volume bounds.  Annular Dehn
filling consumes the layer pairs (each filling spins transverse curves and
costs two cusps); crossing-circle filling turns the base into an
alternating twisted diagram.  Hyperbolicity is not checked; the volume
bounds name it as a hypothesis.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .bowtie import V_TET
from .curves_mcg import (
    MappingClassWord,
    acts_nontrivially,
    algebraic_intersection,
    geometric_intersection_oracle,
    split_curve,
)
from .errors import (
    Claim,
    CoefficientCountMismatch,
    GenusMismatch,
    MonodromyActsTrivially,
    NoIntersectionCertificate,
    NonPositiveCoefficient,
    NonPrimitiveClass,
    ZeroCoefficient,
)
from .fal_diagram import (
    FalDiagram,
    check_wga,
    choose_alternating_signs,
    detect_twist_regions,
    fill_all,
)

__all__ = [
    "LayeredFamily",
    "ManifoldLink",
    "build_layered",
    "build_doubled",
    "build_mapping_torus",
    "build_trivial_torus",
    "annular_fill",
    "fill_to_wga",
    "plan_volume_target",
]

class LayeredFamily(
    namedtuple(
        "LayeredFamily",
        "base gamma_odd_class gamma_even_class m certificate base2",
        defaults=(None,),
    )
):
    """Base diagram plus m pairs of layered curves C_i, C_-i (i = 1..m).

    Odd-index pairs carry gamma_odd_class, even-index pairs
    gamma_even_class; smaller |i| lies nearer the projection surface.
    certificate is the Claim that the curves meet essentially; base2 is
    the second base of a doubled family, otherwise None.
    """

    __slots__ = ()


class ManifoldLink(
    namedtuple(
        "ManifoldLink",
        "kind family monodromy annular_coefficients circle_coefficients "
        "moves filled_diagram wga_report twist_region_count",
        defaults=(None, None, None, (), None, None, None),
    )
):
    """A layered family embedded in a closed ambient manifold.

    kind is "DoubledThickenedSurface", "MappingTorus" or
    "TrivialMappingTorus".  The monodromy is a MappingClassWord, the
    filled diagram a FalDiagram and its report a WgaReport, each None
    until set, as are the coefficient tuples and the twist-region count.
    moves holds a mapping torus's Claims that the monodromy moves
    gamma_odd and gamma_even, in that order.
    """

    __slots__ = ()

    @property
    def certificates(self) -> tuple:
        """(name, "CertifiedNontrivial") for each class the monodromy moves."""
        return tuple((name, "CertifiedNontrivial") for name, _ in zip(("gamma_odd", "gamma_even"), self.moves))

    @property
    def hyperbolic_assumed(self) -> bool:
        """As the family report prints it; every kind's volume bounds rest on it."""
        return self.kind != "TrivialMappingTorus"

    @property
    def cusp_count(self) -> int:
        """Components of the link as built: strands and circles of the base
        (or its filled diagram) and base2, plus 2m layer curves until annular_fill."""
        family = self.family
        base = family.base if self.filled_diagram is None else self.filled_diagram
        total = base.l + base.c
        if family.base2 is not None:
            total += family.base2.l + family.base2.c
        if self.annular_coefficients is None:
            total += 2 * family.m
        return total


def build_layered(
    base: FalDiagram,
    gamma_odd: str | tuple,
    gamma_even: str | tuple,
    m: int,
    assert_intersection: bool = False,
) -> LayeredFamily:
    """Stack m pairs of unknotted, unlinked curves above the base diagram,
    alternating between the two given classes by layer parity.

    Each layer is a simple closed curve, and the class of a simple closed
    curve is zero or primitive, so a nonzero class whose entries share a
    factor d > 1 (d times a class, as of the word a1a1) is refused."""
    if m < 0:
        raise ValueError("layer pair count must be nonnegative")
    g = base.genus
    odd_word, odd_class = split_curve(gamma_odd, g)
    even_word, even_class = split_curve(gamma_even, g)
    for name, cls in (("gamma_odd", odd_class), ("gamma_even", even_class)):
        divisor = math.gcd(*cls)
        if divisor > 1:
            raise NonPrimitiveClass(
                f"{name} has class {list(cls)}, {divisor} times another class; "
                "no simple closed curve has it"
            )
    pairing = algebraic_intersection(odd_class, even_class)
    if pairing != 0:
        certificate = Claim("homology", pairing)
    else:
        oracle = None
        if odd_word is not None and even_word is not None:
            oracle = geometric_intersection_oracle(odd_word, even_word, g)
        if oracle:
            certificate = Claim("oracle", oracle, ("the curves are simple", "merge window |k|, |l| <= 4"))
        elif assert_intersection:
            certificate = Claim("asserted", None, ("the curves intersect essentially",))
        else:
            raise NoIntersectionCertificate(
                "no evidence that the two curves intersect essentially"
            )
    return LayeredFamily(base, odd_class, even_class, m, certificate)


def build_doubled(
    base: FalDiagram,
    base2: FalDiagram,
    family: LayeredFamily,
) -> ManifoldLink:
    """Glue two thickened-surface pieces along their inner boundaries."""
    if base.genus != base2.genus:
        raise GenusMismatch(
            f"cannot glue genus {base.genus} to genus {base2.genus}"
        )
    family = family._replace(base=base, base2=base2)
    return ManifoldLink(kind="DoubledThickenedSurface", family=family)


def build_mapping_torus(
    base: FalDiagram,
    phi: MappingClassWord,
    family: LayeredFamily,
) -> ManifoldLink:
    """Close the thickened surface up by a monodromy that moves both
    family curves.  Each class must be certified on homology: phi maps it
    to neither itself nor its negative.  An inconclusive class raises
    MonodromyActsTrivially."""
    family = family._replace(base=base)
    moves = ()
    for name, cls in zip(("gamma_odd", "gamma_even"), (family.gamma_odd_class, family.gamma_even_class)):
        moves += (acts_nontrivially(phi, cls),)
        if moves[-1] is None:
            raise MonodromyActsTrivially(f"monodromy action on {name} is homology-inconclusive")
    return ManifoldLink(kind="MappingTorus", family=family, monodromy=phi, moves=moves)


def build_trivial_torus(base: FalDiagram, family: LayeredFamily) -> ManifoldLink:
    """The product Sigma x S^1; the one ambient kind with a triangulation
    volume upper bound."""
    return ManifoldLink(kind="TrivialMappingTorus", family=family._replace(base=base))


def annular_fill(link: ManifoldLink, t: Sequence[int]) -> ManifoldLink:
    """Fill the m annulus pairs with coefficients (+t_i, -t_i).

    Each filled pair spins transverse curves t_i times, so the effective
    relative monodromy gains a twist with exponent +t_i about the layer's
    curve class.  The base diagram and its crossing-circle count are
    untouched; the layer curves are no longer cusps.
    """
    t = tuple(t)
    m = link.family.m
    if len(t) != m:
        raise CoefficientCountMismatch(
            f"expected {m} annular coefficients, got {len(t)}"
        )
    if any(ti < 1 for ti in t):
        raise NonPositiveCoefficient("annular coefficients must be >= 1")
    classes = (link.family.gamma_odd_class, link.family.gamma_even_class)
    twist_letters = tuple((classes[i % 2], ti) for i, ti in enumerate(t))
    monodromy = link.monodromy
    if twist_letters:
        base_letters = monodromy.letters if monodromy is not None else ()
        monodromy = MappingClassWord(base_letters + twist_letters, link.family.base.genus)
    return link._replace(annular_coefficients=t, monodromy=monodromy)


def fill_to_wga(link: ManifoldLink, s: Sequence[int]) -> ManifoldLink:
    """Fill every crossing circle of the base with magnitude |s_k| and the
    alternation-preserving sign choice, attaching a WGA report.  s_k goes to
    the k-th crossing circle in vertex order; plain crossings are skipped."""
    s = tuple(s)
    base = link.family.base
    if len(s) != base.c:
        raise CoefficientCountMismatch(
            f"expected {base.c} crossing-circle coefficients, got {len(s)}"
        )
    if any(sk == 0 for sk in s):
        raise ZeroCoefficient("crossing-circle coefficients must be nonzero")
    signs = choose_alternating_signs(base)
    coefficients = {k: sign * abs(sk) for k, sign, sk in zip(base.circles, signs, s)}
    filled = fill_all(base, coefficients)
    return link._replace(
        circle_coefficients=s,
        filled_diagram=filled,
        twist_region_count=len(detect_twist_regions(filled)),
        wga_report=check_wga(filled, surface_incompressible=True),
    )


def plan_volume_target(target: float) -> int:
    """Smallest layer-pair count m >= 1 with 2 m v_tet > target strictly.

    That m puts the filled family past the volume target only under two
    hypotheses this function does not check: the manifold is hyperbolic,
    and the filling coefficients t are large enough.  Thurston's hyperbolic
    Dehn filling theorem says such t exist but gives no explicit bound."""
    if target <= 0:
        return 1
    m = max(1, math.floor(target / (2 * V_TET)))
    while 2 * m * V_TET <= target:
        m += 1
    return m
