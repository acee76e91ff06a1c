import numpy as np
import pytest

from rcassoc import fit, load_mobility


@pytest.fixture(scope="session")
def mobility():
    """The bundled 5x5 father-son status table with global logits."""
    return load_mobility()


@pytest.fixture(scope="session")
def mobility_counts(mobility):
    return np.asarray(mobility.counts, dtype=np.float64)


@pytest.fixture
def random_table():
    """Factory for strictly positive random probability tables.

    The floor keeps entries away from zero so finite-difference checks
    and log-based links stay well conditioned.
    """

    def make(rng, shape, floor=0.05):
        size = shape[0] * shape[1]
        pi = rng.dirichlet(np.ones(size)).reshape(shape)
        pi = pi + floor / size
        return pi / pi.sum()

    return make


# tolerances of a polished fit, far below fit's defaults
POLISH = {"tol_h": 1e-11, "tol_rel": 1e-15, "tol_score": 1e-12}


@pytest.fixture(scope="session")
def polished():
    """Refit counts under a spec at the ``POLISH`` tolerances.

    The polished deviance is the yardstick for a default-tolerance fit: its
    own stopping rule, a relative log-likelihood change of tol_rel, lets it
    end up to about 2 tol_rel (|loglik| + 1) away in deviance.
    """

    def refit(counts, spec):
        result = fit(counts, spec, **POLISH)
        assert result.converged, result.message
        return result

    return refit
