"""Divergence families scaling the association measure.

A family is given by a convex generator ``phi`` with phi(1) = 0.  The
interaction measure applies the induced link ``F(u) = phi'(u)`` normalized
so that F(1) = 0, together with its inverse ``G``.  Two families are
provided: Kullback-Leibler and the one-parameter Cressie-Read class.  The
Cressie-Read family degenerates to KL as the parameter goes to 0, so tiny
parameters are normalized to the exact KL form.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DivergenceFamily", "LinkDomainError", "kl", "cressie_read"]

_KL_EPS = 1e-8


class LinkDomainError(ValueError):
    """Inverse link evaluated outside its domain; recoverable by the caller."""


@dataclass(frozen=True)
class DivergenceFamily:
    """One member of the divergence class, identified by ``name`` and ``lam``.

    ``lam`` is 0 exactly for the KL family.  ``f_link`` and ``g_link``
    accept scalars or arrays and are mutually inverse on the link domain.
    """

    name: str
    lam: float

    @property
    def is_kl(self):
        return self.lam == 0.0

    def phi(self, x):
        """Convex generator, defined for x >= 0 with phi(1) = 0."""
        x = np.asarray(x, dtype=np.float64)
        if np.any(x < 0):
            raise ValueError("phi is defined for non-negative arguments")
        if self.is_kl:
            with np.errstate(divide="ignore", invalid="ignore"):
                xlogx = np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)
            out = xlogx - x + 1.0
        else:
            lam = self.lam
            out = (x ** (lam + 1.0) - x - lam * (x - 1.0)) / (lam * (lam + 1.0))
        return out if out.ndim else float(out)

    def f_link(self, u):
        """Link F(u): log u for KL, (u**lam - 1)/lam otherwise.  Needs u > 0."""
        u = np.asarray(u, dtype=np.float64)
        if np.any(u <= 0):
            raise LinkDomainError("link requires strictly positive arguments")
        if self.is_kl:
            out = np.log(u)
        else:
            out = (u ** self.lam - 1.0) / self.lam
        return out if out.ndim else float(out)

    def g_link(self, y):
        """Inverse link G = F**-1.  Raises LinkDomainError when lam*y + 1 <= 0."""
        y = np.asarray(y, dtype=np.float64)
        if self.is_kl:
            out = np.exp(y)
        else:
            base = self.lam * y + 1.0
            if np.any(base <= 0):
                raise LinkDomainError(
                    "inverse link undefined: lam * y + 1 must stay positive"
                )
            out = base ** (1.0 / self.lam)
        return out if out.ndim else float(out)

    def divergence(self, p, q):
        """phi-divergence D(p || q) = sum q * phi(p / q) over matching shapes."""
        p = np.asarray(p, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        if p.shape != q.shape:
            raise ValueError("distributions must have matching shapes")
        if np.any(q <= 0):
            raise ValueError("reference distribution must be strictly positive")
        return float(np.sum(q * self.phi(p / q)))

    def __str__(self):
        return self.name


def kl():
    """Kullback-Leibler family: phi(x) = x log x - x + 1, F = log, G = exp."""
    return DivergenceFamily(name="KL", lam=0.0)


def cressie_read(lam):
    """Cressie-Read family with parameter ``lam``.

    ``lam`` close to 0 (within 1e-8) returns the exact KL family; ``lam``
    equal to -1 has no valid generator here and is rejected.
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")
    if abs(lam) < _KL_EPS:
        return kl()
    if abs(lam + 1.0) < _KL_EPS:
        raise ValueError("lam = -1 is outside this family; no valid generator")
    return DivergenceFamily(name=f"CR({lam:g})", lam=lam)
