"""Exception hierarchy and the Claim record shared by all surflink modules."""

from collections import namedtuple


class Claim(namedtuple("Claim", "kind value hypotheses", defaults=((),))):
    """A value and how it is known.  kind names the proof ("homology",
    "oracle", "Adams", "prism count"), or is "asserted" for a value taken
    unproved from the input; hypotheses names what the value rests on."""

    __slots__ = ()


class SurflinkError(Exception):
    """Base class for all errors raised by surflink."""


class MalformedMap(SurflinkError):
    """The dart/rotation/opposite data does not describe a combinatorial map."""


class InternalInvariant(SurflinkError):
    """A counting law or consistency check of a construction failed;
    indicates an internal bug, never bad input."""


class InvalidCorridor(SurflinkError):
    """The requested two-cut curve is not realizable through the named faces."""


class NonAlternatingTwistRegion(SurflinkError):
    """A bigon chain mixes crossing signs; the diagram is not reduced."""


class ZeroCoefficient(SurflinkError):
    """A Dehn-filling coefficient of zero was supplied."""


class FillTooLarge(SurflinkError):
    """Dehn-filling coefficients would add more crossings than the cap."""


class NotACrossingCircle(SurflinkError):
    """The named vertex is not a crossing-circle site."""


class NotCheckerboard(SurflinkError):
    """The diagram's faces admit no checkerboard two-coloring."""


class UnfilledCircle(SurflinkError):
    """An operation requiring a fully filled diagram met a crossing circle."""


class NotCellular(SurflinkError):
    """The diagram is not cellular on its declared surface."""


class DegenerateFace(SurflinkError):
    """A white face of degree < 3 appeared; upstream invariant broken."""


class GenusTooSmall(SurflinkError):
    """Surface genus below 2; the constructions need hyperbolic ambient pieces."""


class LengthMismatch(SurflinkError):
    """Homology vectors of different genus were combined."""


class ZeroClass(SurflinkError):
    """The zero homology class was supplied where a curve class is required."""


class NonPrimitiveClass(SurflinkError):
    """A nonzero homology class whose entries share a factor > 1 was
    supplied where a simple closed curve is required; no such curve has it."""


class LengthBudgetExceeded(SurflinkError):
    """Word-level computation exceeded its configured length budget."""


class NoIntersectionCertificate(SurflinkError):
    """No certificate that the two layer curves intersect essentially."""


class GenusMismatch(SurflinkError):
    """The two base diagrams live on surfaces of different genus."""


class MonodromyActsTrivially(SurflinkError):
    """No certificate that the monodromy moves the layer curves."""


class CoefficientCountMismatch(SurflinkError):
    """Filling coefficient list has the wrong length."""


class NonPositiveCoefficient(SurflinkError):
    """Annular filling coefficients must be >= 1."""


class ParseError(SurflinkError):
    """Input file could not be parsed into the expected structure."""


class GenerationFailed(SurflinkError):
    """Random diagram generation exhausted its retry budget."""


class GenerationTooLarge(SurflinkError):
    """The requested genus or circle count is above the generator's cap."""
