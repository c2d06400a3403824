"""Shared fixtures; the expensive mixture-model fits are computed once."""

import numpy as np
import pytest

from gaussbound import (
    PairedSamples,
    ace_fit,
    agce_fit_1d,
    gm1d_sample,
    offshelf_lower_1d,
)


@pytest.fixture(scope="session")
def gm_mix_samples():
    """Mixture-model draw at the documented experiment size."""
    return gm1d_sample(10_000, 10.0, 0.1, seed=7).samples


@pytest.fixture(scope="session")
def gm_mix_ace(gm_mix_samples):
    return ace_fit(gm_mix_samples, seed=9)


@pytest.fixture(scope="session")
def gm_mix_agce(gm_mix_samples):
    return agce_fit_1d(gm_mix_samples, n_restarts=8, seed=10)


@pytest.fixture(scope="session")
def gm_mix_offshelf(gm_mix_samples):
    return offshelf_lower_1d(gm_mix_samples, seed=10)


@pytest.fixture(scope="session")
def gaussian_pair_06():
    """Jointly Gaussian 1-D pair with correlation 0.6, n = 1e4."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal(10_000)
    y = 0.6 * x + np.sqrt(1 - 0.36) * rng.standard_normal(10_000)
    return PairedSamples(x, y)


@pytest.fixture(scope="session")
def independent_pair():
    rng = np.random.default_rng(4)
    return PairedSamples(rng.standard_normal(10_000), rng.standard_normal(10_000))
