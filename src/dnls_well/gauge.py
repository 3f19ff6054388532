"""Gauge transformations G_a: pointwise phase rotation by a running |u|^2 integral.

G_a(u)(x) = exp(i a int_{-L}^{x} |u(y)|^2 dy) u(x).  The continuum lower
limit -inf is replaced by the left grid edge; since |G_a u| = |u| exactly,
the composition law G_a G_b = G_{a+b} holds exactly under this convention.
"""
from __future__ import annotations

import numpy as np

from .closedform import as_float
from .field import Field, cumulative_integral


def gauge_transform(f: Field, a: float) -> Field:
    a = as_float(a)
    if a == 0.0:
        return f
    cum = cumulative_integral(np.abs(f.values) ** 2, f.grid)
    return Field(f.grid, np.exp(1j * a * cum) * f.values)
