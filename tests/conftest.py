import numpy as np
import oracles
import pytest

from immersion_forge import ambient as am


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def catalog_structures():
    """Extracted structures for every catalog entry (shared, read-only)."""
    out = {}
    for name in am.catalog_names():
        h = am.catalog_entry(name)
        out[name] = (h, am.extract_structure(h))
    return out


@pytest.fixture(scope="session")
def mixed_structures():
    """(hypersurface, structure) of the two mixed k = 2 inputs, of the
    n = 3 members of the mixed family for k = 1 and 3, and of an
    inadmissible mutant of ``mixed_s2h2`` with S scaled by 1.1."""
    out = {}
    for h in (oracles.mixed_s2h2(), oracles.mixed_s2h3(),
              oracles.mixed_family(3, 1), oracles.mixed_family(3, 3)):
        out[h.name] = (h, am.extract_structure(h))
    h, spec = out["mixed_s2h2"]
    out["mixed_s2h2_S1.1"] = (h, oracles.scaled_shape_operator(spec, 1.1))
    return out
