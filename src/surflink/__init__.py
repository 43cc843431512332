"""Fully augmented link diagrams on closed orientable surfaces of genus >= 2.

Validation, augmentation/filling transforms, bowtie decompositions with exact
counting laws, a gluing-table export that triangulates (surface) x S^1 with
the link in its 1-skeleton (the vertical loop edges, site x S^1), volume
bounds, link-family constructions, and a mapping-class certificate engine.
"""

__version__ = "0.1.0"
