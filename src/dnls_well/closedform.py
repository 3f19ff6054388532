"""Exact scalar formulas for the soliton family.

`_mass_momentum(p, omega, c)` checks the existence region and reads gamma
once, computes the mass M once and forms the momentum P from it; mass,
momentum, energy E = -(c/4) P and d = (M + s P)/2 at (1, 2s) call it.  The
first matching mass branch applies (q = 4 omega - c^2):

  gamma > 0, c = 2 sqrt(omega) : 4 pi / sqrt(gamma), the algebraic soliton
  |gamma| < _GAMMA_EPS         : 4 sqrt(q) / (-c), the gamma = 0 limit
  gamma > 0                    : (4 / sqrt(gamma)) acos(-c / sqrt(c^2 + gamma q))
  gamma < 0                    : (4 / sqrt(-gamma)) acosh(|c| / sqrt(c^2 + gamma q))

The scalar parameter layer (`ModelParams`, `RegionError`, the existence
region) lives here too, so that this module runs on plain `math` and the
closed-form subcommands load no numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property


class RegionError(ValueError):
    """Parameters outside the soliton existence region."""


@dataclass(frozen=True)
class ModelParams:
    """Quintic coefficient b and derived gamma = 1 + 16b/3."""

    b: float

    @cached_property
    def gamma(self) -> float:
        return 1.0 + (16.0 / 3.0) * self.b


def s_lower(p: ModelParams) -> float:
    """Velocity-parameter bound s_* = sqrt(-gamma/(1-gamma)) for gamma <= 0."""
    g = p.gamma
    if g > 0:
        raise RegionError("s_* is defined only for gamma <= 0 (b <= -3/16)")
    return math.sqrt(-g / (1.0 - g))


def _region_rw(p: ModelParams, omega: float, c: float) -> float | None:
    """2 sqrt(omega) if (omega, c) is admissible (see `existence_region`), else None."""
    if omega <= 0:
        raise RegionError(f"omega must be positive, got {omega}")
    rw = 2.0 * math.sqrt(omega)
    inside = -rw < c <= rw if p.gamma > 0 else -rw < c < -s_lower(p) * rw
    return rw if inside else None


def existence_region(p: ModelParams, omega: float, c: float) -> bool:
    """Admissibility of (omega, c).

    gamma > 0 : -2 sqrt(omega) < c <= 2 sqrt(omega)
    gamma <= 0: -2 sqrt(omega) < c < -2 s_* sqrt(omega)
    """
    return _region_rw(p, omega, c) is not None


def _algebraic_rw(rw: float, c: float) -> bool:
    return c > 0 and abs(c - rw) <= 1e-13 * rw


def is_algebraic(omega: float, c: float) -> bool:
    """c = 2 sqrt(omega) to 1e-13 relative: the algebraic soliton."""
    return _algebraic_rw(2.0 * math.sqrt(omega), c)

# Eq-2.31's 1/gamma has a finite limit as gamma -> 0; below this threshold
# the dedicated gamma = 0 formula is used to avoid cancellation.
_GAMMA_EPS = 1e-8


def _half_acos(a: float) -> float:
    """arctan(sqrt((1-a)/(1+a))) evaluated stably as acos(a)/2."""
    return 0.5 * math.acos(min(max(a, -1.0), 1.0))


def cosh_integral(alpha: float, power: int) -> float:
    """int_R dy / (cosh y + alpha)^power for power in {1, 2}, alpha > -1."""
    if alpha <= -1.0:
        raise ValueError(f"cosh integral requires alpha > -1, got {alpha}")
    if power not in (1, 2):
        raise ValueError(f"power must be 1 or 2, got {power}")
    if abs(alpha - 1.0) < 1e-3:
        # substitute u = tanh(y/2): both branches reduce to rational
        # integrals whose geometric-series expansion in (1-alpha)/(1+alpha)
        # avoids the catastrophic cancellation of the closed forms here
        big = 1.0 + alpha
        ratio = -(1.0 - alpha) / big
        total, term, k = 0.0, 1.0, 0
        while abs(term) > 1e-18 * max(abs(total), 1.0):
            if power == 1:
                term = ratio**k / (2 * k + 1)
            else:
                term = (k + 1) * ratio**k / ((2 * k + 1) * (2 * k + 3))
            total += term
            k += 1
        return 4.0 * total / big if power == 1 else 8.0 * total / (big * big)
    if abs(alpha) < 1.0:
        t = _half_acos(alpha)
        r = 1.0 - alpha * alpha
        if power == 1:
            return 4.0 * t / math.sqrt(r)
        return 2.0 / r - 4.0 * alpha * t / r**1.5
    lg = math.log(alpha + math.sqrt(alpha * alpha - 1.0))
    r = alpha * alpha - 1.0
    if power == 1:
        return 2.0 * lg / math.sqrt(r)
    return -2.0 / r + 2.0 * alpha * lg / r**1.5


def _require_region(p: ModelParams, omega: float, c: float) -> float:
    rw = _region_rw(p, omega, c)
    if rw is None:
        raise RegionError(f"(omega={omega}, c={c}) outside existence region for b={p.b}")
    return rw


def _mass_momentum(p: ModelParams, omega: float, c: float) -> tuple[float, float]:
    """(M, P) of phi_{omega,c}, branchwise in gamma; M is computed once."""
    rw = _require_region(p, omega, c)
    g = p.gamma
    small = abs(g) < _GAMMA_EPS
    if g > 0 and _algebraic_rw(rw, c):
        m = 4.0 * math.pi / math.sqrt(g)
    elif small:
        m = 4.0 * math.sqrt(4.0 * omega - c * c) / (-c)
    elif g > 0:
        # (8/sqrt(g)) arctan sqrt((1+beta)/(1-beta)), stable form near beta = 1
        beta = c / math.sqrt(c * c + g * (4.0 * omega - c * c))
        m = 8.0 / math.sqrt(g) * _half_acos(-beta)
    else:
        # acosh(alpha) = log1p(delta + ...), alpha = |c| / r: delta = alpha - 1 is
        # formed without cancelling, which matters for small |g| and for s -> -1
        q = (rw - c) * (rw + c)
        r = math.sqrt(c * c + g * q)
        delta = -g * q / (r * (abs(c) + r))
        m = 4.0 / math.sqrt(-g) * math.log1p(delta + math.sqrt(delta * (2.0 + delta)))
    if small:
        return m, -(2.0 * omega + c * c) / (3.0 * c) * m
    return m, 0.5 * c * (-1.0 + 1.0 / g) * m + 2.0 / g * math.sqrt(max(4.0 * omega - c * c, 0.0))


def soliton_mass(p: ModelParams, omega: float, c: float) -> float:
    """M(phi_{omega,c})."""
    return _mass_momentum(p, omega, c)[0]


def soliton_momentum(p: ModelParams, omega: float, c: float) -> float:
    """P(phi_{omega,c}); the same formula covers gamma > 0 and gamma < 0."""
    return _mass_momentum(p, omega, c)[1]


def soliton_energy(p: ModelParams, omega: float, c: float) -> float:
    """Pohozaev identity: E = -(c/4) P on the soliton family."""
    return -0.25 * c * _mass_momentum(p, omega, c)[1]


def d_value(p: ModelParams, omega: float, c: float) -> float:
    """Action value d(omega, c) of the soliton.

    Computed via 2 d(1, 2s) = M(phi_{1,2s}) + s P(phi_{1,2s}) and the
    scaling d(omega, 2 s sqrt(omega)) = omega d(1, 2s).
    """
    s = c / _require_region(p, omega, c)
    m, mom = _mass_momentum(p, 1.0, 2.0 * s)
    return omega * 0.5 * (m + s * mom)


def turning_point(b: float) -> tuple[float, float]:
    """(s*, M*) for b > 0: the zero s* of s -> P(phi_{1,2s}) and M(phi_{1,2s*}).

    P decreases from P(0) = 4/gamma > 0 to P(1) < 0 at the algebraic end.  A
    secant step from the point of smaller |P| is kept if it lands inside the
    sign-change bracket and moves less than half the step before last, else
    the bracket is bisected; a step below an ulp probes the float neighbour
    across the root.  The search ends on adjacent floats lo < hi with
    P(lo) > 0 >= P(hi), not on a residual, which tiny b would defeat: there s*
    is within a few ulp of 1 and P jumps between neighbouring floats.  The one
    of lo, hi with the smaller |P| is returned, with the mass computed with it.
    """
    p = ModelParams(b)
    if not (b > 0 and math.isfinite(p.gamma)):
        raise ValueError(f"s* is defined for b > 0 with gamma finite, got b={b}")
    (m_lo, p_lo), (m_hi, p_hi) = _mass_momentum(p, 1.0, 0.0), _mass_momentum(p, 1.0, 2.0)
    lo, hi, x0, f0, x1, f1 = 0.0, 1.0, 1.0, p_hi, 0.0, p_lo
    step = last_step = math.inf
    while True:
        if abs(f0) < abs(f1):
            x0, f0, x1, f1 = x1, f1, x0, f0
        # the ratio first, so that no product of small P and a short step underflows
        x = x1 - (x1 - x0) * (f1 / (f1 - f0)) if f1 != f0 else lo
        if x == x1:
            x = math.nextafter(x1, hi if f1 > 0.0 else lo)
        if not lo < x < hi or abs(x - x1) > 0.5 * last_step:
            x = 0.5 * (lo + hi)
            if x == lo or x == hi:
                break
        last_step, step = step, abs(x - x1)
        m, f = _mass_momentum(p, 1.0, 2.0 * x)
        if f > 0.0:
            lo, m_lo, p_lo = x, m, f
        else:
            hi, m_hi, p_hi = x, m, f
        x0, f0, x1, f1 = x1, f1, x, f
    # lo, hi are adjacent; the sign change across them is the certificate
    if not p_lo > 0.0 >= p_hi:
        raise RuntimeError(f"momentum lost its sign change on [0, 1] at b={b}")
    return (lo, m_lo) if abs(p_lo) < abs(p_hi) else (hi, m_hi)


def s_star(b: float) -> float:
    """Unique zero of s -> P(phi_{1,2s}) in (0, 1) for b > 0; see `turning_point`."""
    return turning_point(b)[0]


def mass_threshold(b: float) -> float:
    """Turning-point mass M*(b).

    b > 0        : M(phi_{1, 2 s*(b)}), from `turning_point`
    b = 0        : 4 pi (limit s* -> 1)
    -3/16 < b < 0: M(phi_{1,2}) + P(phi_{1,2}) = 4 pi / gamma^{3/2}
    """
    if not b > -3.0 / 16.0:
        raise ValueError(f"mass threshold requires b > -3/16, got {b}")
    if b > 0:
        return turning_point(b)[1]
    gamma = 1.0 + (16.0 / 3.0) * b
    return 4.0 * math.pi / gamma**1.5


def admissible_s_range(p: ModelParams) -> tuple[float, float, bool]:
    """(lo, hi, hi_closed) for the scaling parameter s."""
    if p.gamma > 0:
        return -1.0, 1.0, True
    return -1.0, -s_lower(p), False
