"""Power-divergence families and the link F they select."""

import math

import numpy as np
import pytest

from rcassoc.divergence import DivergenceFamily, cressie_read, kl
from rcassoc.kernels import _flink


def test_family_construction():
    assert kl().lam == 0.0
    assert cressie_read(0.0) == kl()
    assert cressie_read(1e-12) == kl()
    fam = cressie_read(0.5)
    assert fam.lam == 0.5
    with pytest.raises(ValueError):
        cressie_read(-1.0)
    with pytest.raises(ValueError):
        cressie_read(float("nan"))


def test_f_link_values():
    # the program's link, F(u) = (u**lam - 1) / lam and log at lam = 0
    for fam in (kl(), cressie_read(0.5), cressie_read(3.0)):
        assert _flink(1.0, fam.lam) == pytest.approx(0.0, abs=1e-15)
    assert _flink(math.e, kl().lam) == pytest.approx(1.0, abs=1e-12)
    assert _flink(2.0, cressie_read(1.0).lam) == pytest.approx(1.0, abs=1e-14)


def test_f_link_monotone():
    rng = np.random.default_rng(12)
    for fam in (kl(), cressie_read(-0.5), cressie_read(0.25), cressie_read(2.0)):
        for _ in range(200):
            u, w = np.sort(rng.uniform(1e-4, 1e4, size=2))
            if u == w:
                continue
            assert _flink(u, fam.lam) < _flink(w, fam.lam)


def test_family_is_frozen():
    fam = cressie_read(0.5)
    with pytest.raises(AttributeError):
        fam.lam = 1.0
    assert isinstance(kl(), DivergenceFamily)
