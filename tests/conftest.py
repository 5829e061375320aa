"""Shared test helpers: seeded mean-zero fields and hypothesis profile."""

import warnings

import numpy as np
from hypothesis import HealthCheck, settings

from mkdvlab import FourierField, random_real_field  # noqa: F401  (re-exported to the tests)

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")

# On a failing example hypothesis imports its patch writer, which imports
# libcst, and libcst's use of mypy_extensions.TypedDict raises a
# DeprecationWarning. pyproject.toml turns that warning into an error, which
# inside pytest's reporting hook ends the whole session with INTERNALERROR.
# Importing the module once here, with the warning ignored, leaves the later
# import a cache hit.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def random_complex_field(K: int, seed) -> FourierField:
    """General complex mode vector without reality symmetry."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
    return FourierField(c)
