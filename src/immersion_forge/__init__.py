"""Numerics for hypersurfaces of S^k x H^(n-k+1).

The package checks whether candidate structure data (g, S, f, U, lambda)
on a coordinate chart satisfies the compatibility equations of a product
of a sphere and a hyperbolic space, and rebuilds the isometric immersion
into the Minkowski model of the product by parallel transport in a flat
extended bundle.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module defining it, imported on first access (PEP 562)
# so that importing a submodule such as ``cli`` does not import numpy first
_HOMES = {
    "ambient": ("AmbientModel", "ParametrizedHypersurface", "Samples",
                "audit_equations", "catalog_entry", "catalog_names",
                "extract_structure", "solve_congruence"),
    "bundle": ("ConnectionField", "staircase_path"),
    "geometry": ("Chart",),
    "reconstruct": ("Immersion", "immerse", "validate_theorem"),
    "structure": ("CompatibilityReport", "InadmissibleStructureError",
                  "StructureSpec", "admit", "determine_k"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items()
              for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
