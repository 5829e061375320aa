"""Shared test helpers: seeded mean-zero fields and hypothesis profile."""

import numpy as np
from hypothesis import HealthCheck, settings

from mkdvlab import FourierField, random_real_field  # noqa: F401  (re-exported to the tests)

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


def random_complex_field(K: int, seed) -> FourierField:
    """General complex mode vector without reality symmetry."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
    return FourierField(c)
