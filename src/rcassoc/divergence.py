"""Divergence families scaling the association measure.

A family is named by its Cressie-Read parameter ``lam``: the interaction
measure applies the link F(u) = (u**lam - 1) / lam, with F = log at
lam = 0, the Kullback-Leibler family.  The link itself is evaluated in
``kernels``.  The Cressie-Read family degenerates to KL as the parameter
goes to 0, so tiny parameters are normalized to the exact KL form.
"""

import math
from dataclasses import dataclass

__all__ = ["DivergenceFamily", "kl", "cressie_read"]

_KL_EPS = 1e-8


@dataclass(frozen=True)
class DivergenceFamily:
    """One member of the divergence class, identified by ``lam``.

    ``lam`` is 0 exactly for the KL family.
    """

    lam: float


def kl():
    """Kullback-Leibler family: F = log."""
    return DivergenceFamily(lam=0.0)


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
    return DivergenceFamily(lam=lam)
