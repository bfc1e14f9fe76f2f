"""Numerics for hypersurfaces of S^k x H^(n-k+1).

The package checks whether candidate structure data (g, S, f, U, lambda)
on a coordinate chart satisfies the compatibility equations of a product
of a sphere and a hyperbolic space, and rebuilds the isometric immersion
into the Minkowski model of the product by parallel transport in a flat
extended bundle.
"""

from .ambient import (AmbientModel, ParametrizedHypersurface, audit_equations,
                      catalog_entry, catalog_names, extract_structure,
                      solve_congruence)
from .bundle import ConnectionField, staircase_path
from .geometry import Chart, MetricField
from .reconstruct import Immersion, Samples, immerse, validate_theorem
from .structure import (CompatibilityReport, InadmissibleStructureError,
                        StructureSpec, admit, determine_k)

__version__ = "0.1.0"

__all__ = [
    "AmbientModel", "Chart", "CompatibilityReport", "ConnectionField",
    "Immersion", "InadmissibleStructureError", "MetricField",
    "ParametrizedHypersurface", "Samples", "StructureSpec",
    "admit", "audit_equations", "catalog_entry", "catalog_names",
    "determine_k", "extract_structure", "immerse", "solve_congruence",
    "staircase_path", "validate_theorem", "__version__",
]
