"""Power-divergence families: phi, the F/G link pair, and divergences."""

import math

import numpy as np
import pytest

from rcassoc.divergence import DivergenceFamily, LinkDomainError, cressie_read, kl


def test_family_construction():
    assert kl().is_kl
    assert cressie_read(0.0).is_kl
    assert cressie_read(1e-12).is_kl
    fam = cressie_read(0.5)
    assert not fam.is_kl and fam.lam == 0.5
    with pytest.raises(ValueError):
        cressie_read(-1.0)
    with pytest.raises(ValueError):
        cressie_read(float("nan"))


def test_phi_point_values():
    for fam in (kl(), cressie_read(0.7), cressie_read(-0.5), cressie_read(2.0)):
        assert fam.phi(1.0) == pytest.approx(0.0, abs=1e-15)
    assert kl().phi(2.0) == pytest.approx(2 * math.log(2) - 1, abs=1e-12)
    assert kl().phi(0.0) == pytest.approx(1.0, abs=1e-15)


def test_phi_convexity():
    rng = np.random.default_rng(11)
    fams = [kl(), cressie_read(-0.5), cressie_read(0.5), cressie_read(2.0)]
    for _ in range(300):
        fam = fams[rng.integers(len(fams))]
        u, w = rng.uniform(0.05, 20.0, size=2)
        t = rng.uniform()
        lhs = fam.phi(t * u + (1 - t) * w)
        rhs = t * fam.phi(u) + (1 - t) * fam.phi(w)
        assert lhs <= rhs + 1e-12


def test_f_link_values():
    for fam in (kl(), cressie_read(0.5), cressie_read(3.0)):
        assert fam.f_link(1.0) == pytest.approx(0.0, abs=1e-15)
    assert kl().f_link(math.e) == pytest.approx(1.0, abs=1e-12)
    assert cressie_read(1.0).f_link(2.0) == pytest.approx(1.0, abs=1e-14)
    for fam in (kl(), cressie_read(0.5)):
        with pytest.raises(LinkDomainError):
            fam.f_link(0.0)
        with pytest.raises(LinkDomainError):
            fam.f_link(-2.0)


def test_f_link_monotone():
    rng = np.random.default_rng(12)
    for fam in (kl(), cressie_read(-0.5), cressie_read(0.25), cressie_read(2.0)):
        for _ in range(200):
            u, w = np.sort(rng.uniform(1e-4, 1e4, size=2))
            if u == w:
                continue
            assert fam.f_link(u) < fam.f_link(w)


def test_g_link_values():
    for fam in (kl(), cressie_read(0.5), cressie_read(2.0)):
        assert fam.g_link(0.0) == pytest.approx(1.0, abs=1e-14)
    assert kl().g_link(1.0) == pytest.approx(math.e, abs=1e-12)
    assert cressie_read(1.0).g_link(3.0) == pytest.approx(4.0, abs=1e-14)
    with pytest.raises(LinkDomainError):
        cressie_read(1.0).g_link(-1.0)  # lambda*y + 1 = 0
    with pytest.raises(LinkDomainError):
        cressie_read(2.0).g_link(-0.75)


def test_link_round_trip():
    us = np.logspace(-6, 6, 200)
    fam = kl()
    for u in us:
        assert abs(fam.g_link(fam.f_link(u)) - u) <= 1e-10 * u
    for lam in (-0.5, 0.25, 1.0, 2.0):
        fam = cressie_read(lam)
        for u in us:
            y = fam.f_link(u)
            # restrict to the part of the domain where lam*y + 1 = u**lam is
            # not dominated by cancellation in (u**lam - 1) + 1; below that
            # the pair is not invertible at this precision by construction
            if lam * y + 1.0 < 1e-4:
                continue
            assert abs(fam.g_link(y) - u) <= 1e-10 * u


def test_divergence_values():
    fam = kl()
    p = np.array([0.2, 0.3, 0.5])
    assert fam.divergence(p, p) == pytest.approx(0.0, abs=1e-15)
    val = fam.divergence(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
    assert val == pytest.approx(0.5 * math.log(2) + 0.5 * math.log(2 / 3), abs=1e-12)
    near = cressie_read(1e-6).divergence(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
    # the family snaps tiny lambda to KL, so this is the limit value itself
    assert near == pytest.approx(val, rel=1e-5)


def test_divergence_positive_off_identity():
    rng = np.random.default_rng(14)
    for fam in (kl(), cressie_read(0.5), cressie_read(2.0)):
        for _ in range(100):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4)) + 0.01
            q = q / q.sum()
            if np.allclose(p, q):
                continue
            assert fam.divergence(p, q) > 0


def test_divergence_errors():
    fam = kl()
    with pytest.raises(ValueError):
        fam.divergence(np.array([0.5, 0.5]), np.array([1.0]))
    with pytest.raises(ValueError):
        fam.divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


def test_family_is_frozen_and_named():
    fam = cressie_read(0.5)
    with pytest.raises(AttributeError):
        fam.lam = 1.0
    assert "0.5" in fam.name
    assert isinstance(kl(), DivergenceFamily)
