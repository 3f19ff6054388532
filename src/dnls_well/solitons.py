"""Closed-form traveling-wave profiles; their existence region is in closedform.

The model is i u_t + u_xx + i|u|^2 u_x + b|u|^4 u = 0 with gamma = 1 + 16b/3.
Profiles come in three gauges:

  capital Phi : real positive even solution of the double-power elliptic ODE
  varphi      : e^{i c x / 2} * Phi (frame of the gauge-transformed equation)
  phi         : Phi * exp(i c x/2 - (i/4) * cumulative integral of Phi^2)

The decay is exponential for omega > c^2/4 ("bright") and ~1/x when
c = 2*sqrt(omega) ("algebraic", only for gamma > 0).  Profiles read
q = 4 omega - c^2 as the closed-form kernel forms it, so each is the soliton
whose M and P the kernel reports, algebraic exactly where that q is 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closedform import ModelParams, RegionError, _mass_momentum, _t_u, as_float
from .field import Field, Grid
from .gauge import gauge_transform


@dataclass(frozen=True)
class SolitonParams:
    """(omega, c) soliton parameters in the existence region, stored as floats,
    with the kernel's q = 4 omega - c^2."""

    params: ModelParams
    omega: float
    c: float
    q: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        omega, c = as_float(self.omega), as_float(self.c)
        # the kernel raises RegionError outside the region
        object.__setattr__(self, "q", _mass_momentum(self.params, omega, c)[3])
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "c", c)

    @property
    def algebraic(self) -> bool:
        """c = 2 sqrt(omega) exactly, the kernel's edge: q = 0 with c > 0 (at a
        subnormal omega q also underflows to 0 just inside the edge c = -2 sqrt(omega))."""
        return self.q == 0.0 < self.c


def phi_sq(sp: SolitonParams, x) -> np.ndarray:
    """Squared modulus Phi^2 of the profile at position(s) x."""
    q, c, g = sp.q, sp.c, sp.params.gamma
    x = np.asarray(x, dtype=float)
    if sp.algebraic:
        return 4.0 * c / ((c * x) ** 2 + g)
    r, y = np.sqrt(c * c + g * q), np.sqrt(q) * x
    # r cosh y - c, for c > 0 as g q/(r + c) + 2 r sinh^2(y/2), which does not
    # cancel at small g; far tails overflow to inf and the quotient underflows to 0
    with np.errstate(over="ignore"):
        denom = g * q / (r + c) + 2.0 * r * np.sinh(0.5 * y) ** 2 if c > 0 else r * np.cosh(y) - c
        return 2.0 * q / denom


def suggested_half_length(sp: SolitonParams) -> float:
    """Half-length 30/sqrt(q), q = 4 omega - c^2; exponential regime only.

    Phi^2 decays like (4q/r) exp(-sqrt(q) |x|), with r = sqrt(c^2 + gamma q),
    so at L it is about 1e-13 (4q/r): below 1e-12 for the O(1) profiles used here.
    """
    if sp.algebraic:
        raise RegionError("algebraic profile has 1/x decay; choose L by tail mass")
    return 30.0 / math.sqrt(sp.q)


def sample_capital_phi(sp: SolitonParams, g: Grid) -> Field:
    """Real positive even profile Phi on the grid."""
    return Field(g, np.sqrt(phi_sq(sp, g.x)).astype(complex))


def sample_varphi(sp: SolitonParams, g: Grid) -> Field:
    """Gauge-frame profile e^{i c x / 2} Phi."""
    phi = np.sqrt(phi_sq(sp, g.x))
    return Field(g, np.exp(0.5j * sp.c * g.x) * phi)


def sample_phi(sp: SolitonParams, g: Grid) -> Field:
    """Original-frame profile G_{-1/4}(varphi).

    The lower limit -inf of the phase integral is replaced by the left grid
    edge, as in the gauge module; the difference is a constant phase,
    invisible to every functional used here.
    """
    return gauge_transform(sample_varphi(sp, g), -0.25)


def phi_one_two(x) -> np.ndarray:
    """Algebraic profile at b=0, (omega, c) = (1, 2), original frame, closed form.

    Phi^2 = 8/(4x^2+1) is `phi_sq`'s, and the phase integral is elementary,
    with the genuine -inf anchoring (no grid-dependent constant):
    phase(x) = x - arctan(2x) - pi/2.
    """
    x = np.asarray(x, dtype=float)
    amp = np.sqrt(phi_sq(SolitonParams(ModelParams(0.0), 1.0, 2.0), x))
    return amp * np.exp(1j * (x - np.arctan(2.0 * x) - 0.5 * np.pi))


def algebraic_tail_mass(sp: SolitonParams, L: float) -> float:
    """Mass of the algebraic profile outside [-L, L]: (8/sqrt(g)) atan(sqrt(g)/(cL)),
    the form that keeps its digits as cL grows."""
    if not sp.algebraic:
        raise RegionError("tail-mass model applies to the algebraic profile only")
    c, g, L = sp.c, sp.params.gamma, as_float(L)
    rg = math.sqrt(g)
    return (8.0 / rg) * math.atan2(rg, c * L)


def algebraic_tail_l4(sp: SolitonParams, L: float) -> float:
    """||Phi||_4^4 outside [-L, L] for the algebraic profile, in closed form.

    Both tails of Phi^4 = (4c)^2/(c^2 x^2 + g)^2 give 32c int_{cL}^inf dt/(t^2 + g)^2.
    With u = cL, the integral is (atan(sqrt(g)/u)/sqrt(g) - u/(u^2 + g)) / (2g),
    whose two terms cancel to z = g/u^2 relative.  Below z = 1e-2 it is
    sum_k (k + 1)(-z)^k / (2k + 3) / u^3 = (1/(1 + z) - U(z)) / (2 u^3) instead,
    with the series U of `closedform._t_u`, which does not cancel there.
    """
    if not sp.algebraic:
        raise RegionError("tail model applies to the algebraic profile only")
    c, g, L = sp.c, sp.params.gamma, as_float(L)
    u = c * L
    if g >= 1e-2 * u * u:
        rg = math.sqrt(g)
        inner = (math.atan2(rg, u) / rg - u / (u * u + g)) / (2.0 * g)
    else:
        z = g / u / u
        inner = (1.0 / (1.0 + z) - _t_u(z, 1.0 + z)[1]) / (2.0 * u * u * u)
    return 32.0 * c * inner
