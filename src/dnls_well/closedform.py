"""Exact scalar formulas for the soliton family.

`_mass_momentum(p, omega, c)` is the one place that tests the existence
region; it forms 2 sqrt(omega) and sqrt(q) once each and computes the mass M
once, with the momentum P and the action value d formed from it.  Mass,
momentum, energy E = -(c/4) P and d call it, and `existence_region` reads
its answer from the same test.  With
q = (2 sqrt(omega) - c)(2 sqrt(omega) + c) and z = gamma q / c^2 there are
two formulas and no case of gamma:

  c < 0, z <= 1 : M = (4 sqrt(q) / |c|) T(z),  P = -c M / 2 + (2 q^{3/2} / c^2) U(z),
                  d = q^{3/2} (T(z) - U(z)) / (2 |c|)
  otherwise     : M = 4 atan2(sqrt(gamma) sqrt(q), -c) / sqrt(gamma),
                  P = (c/2) (1/gamma - 1) M + 2 sqrt(q) / gamma,
                  d = (omega/2) M + (c/4) P

T(z) = atan(sqrt z)/sqrt z (atanh for -1 < z < 0), T(0) = 1, U = (1 - T)/z.
The first has no 1/gamma, so it holds through gamma = 0 and does not cancel
as s -> -1; the second needs gamma > 0, which z > 1 or c >= 0 implies, and
covers c = 0 and the algebraic soliton (q = 0, M = 4 pi / sqrt(gamma)).
The first d is (omega/2) M + (c/4) P, omega read as q reads it, with the
cancelling terms taken out by hand: as s -> -1, d ~ q^{3/2} while both
terms ~ q^{1/2}, so the sum would lose about 1/q of its digits.
`cosh_integral` is the same integral, M = (2 sqrt(q) / r) I_1(-c / r) with
r = sqrt(c^2 + gamma q), and shares `_t_u`.

The scalar parameter layer lives here too, so that this module runs on
plain `math` and the closed-form subcommands load no numpy: the critical
coupling `B_CRIT`, `RegionError`, the rule every scalar parameter meets
where it enters the package (`as_float`, and `finite_floats` where it must
also be finite), the existence region and `ModelParams`, which stores b
as a finite float and whose cached properties compute b's constants once
(gamma, the s range's upper edge, atan2 terms, and (s*, M*), the one place
that picks them by b); `ModelParams.curve_d` keeps d(1, 2s) the same way,
once per s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from math import atan2, sqrt


# The critical coupling, gamma = 0.  Tests of it read b: b = -0.18750000000000003
# rounds to gamma = 0.0, so a test on gamma would admit a b below it.
B_CRIT = -3.0 / 16.0


class RegionError(ValueError):
    """Parameters outside the soliton existence region."""


def as_float(x) -> float:
    """x as a Python float, so that a numpy x (np.float32 above all, which
    NumPy 2 keeps when a Python float meets it) computes as its float.
    A value that is not a real number (a string, None) raises TypeError, as
    arithmetic on it would; nan and inf pass, for the caller's own refusal."""
    if not isinstance(x, float):  # float's subclasses (np.float64, Frame) are no strings
        math.isfinite(x)  # the TypeError; float() would read a string
    return float(x)


def finite_floats(what: str, *xs) -> list[float]:
    """xs as Python floats, each a finite real number: ValueError
    "<what> must be finite" otherwise, and TypeError, from math.isfinite, for
    a value that is not a real number."""
    floats = []  # a loop and a list: map and tuple would double the cost of a call
    for x in xs:
        if not math.isfinite(x):
            raise ValueError(f"{what} must be finite, got {xs[0] if len(xs) == 1 else xs}")
        floats.append(float(x))
    return floats


@dataclass(frozen=True)
class ModelParams:
    """Quintic coefficient b; gamma = 1 + 16b/3 and b's other constants, each computed once."""

    b: float

    def __post_init__(self):
        # stored as a float, as Grid stores L, so that no constant is a numpy scalar
        object.__setattr__(self, "b", *finite_floats("b", self.b))

    @cached_property
    def gamma(self) -> float:
        return 1.0 + (16.0 / 3.0) * self.b

    @cached_property
    def s_hi(self) -> float:
        """Upper edge of the admissible s range: 1 for gamma > 0, else -s_*."""
        g = self.gamma
        return 1.0 if g > 0 else -math.sqrt(-g / (1.0 - g))

    @cached_property
    def atan2_terms(self) -> tuple[float, float, float]:
        """sqrt(gamma), 1/gamma - 1 and 2/gamma, for the atan2 form (gamma > 0)."""
        g = self.gamma
        return math.sqrt(g), 1.0 / g - 1.0, 2.0 / g

    @cached_property
    def turning(self) -> tuple[float | None, float]:
        """(s*, M*): `turning_point(b)` for b > 0; for -3/16 < b <= 0 no s*, and
        M* = M(phi_{1,2}) + P(phi_{1,2}) = 4 pi / gamma^{3/2}, 4 pi at b = 0 (s* -> 1)."""
        if self.b > 0:
            return turning_point(self.b)
        if not self.b > B_CRIT:
            raise ValueError(f"mass threshold requires b > -3/16, got {self.b}")
        return None, 4.0 * math.pi / self.gamma**1.5

    @cached_property
    def _curve_d(self) -> dict[float, float]:
        return {}

    def curve_d(self, s: float) -> float:
        """d(1, 2s), the one s-dependent constant of the curve c = 2 s sqrt(omega),
        computed once per s; an s outside the admissible range raises RegionError
        and is not kept."""
        d = self._curve_d.get(s)
        if d is None:
            d = self._curve_d[s] = d_value(self, 1.0, 2.0 * s)
        return d


def s_lower(p: ModelParams) -> float:
    """Velocity-parameter bound s_* = sqrt(-gamma/(1-gamma)) for gamma <= 0."""
    if p.gamma > 0:
        raise RegionError("s_* is defined only for gamma <= 0 (b <= -3/16)")
    return -p.s_hi


def existence_region(p: ModelParams, omega: float, c: float) -> bool:
    """Admissibility of (omega, c), answered by the kernel's region test.

    gamma > 0 : -2 sqrt(omega) < c <= 2 sqrt(omega)
    gamma <= 0: -2 sqrt(omega) < c < -2 s_* sqrt(omega)

    omega <= 0 raises `RegionError`, as the kernel does.
    """
    try:
        _mass_momentum(p, omega, c)
    except RegionError:
        if omega <= 0:
            raise
        return False
    return True


def is_algebraic(omega: float, c: float) -> bool:
    """c = 2 sqrt(omega) to 1e-13 relative: the algebraic soliton."""
    c = as_float(c)
    rw = 2.0 * math.sqrt(omega)
    return c > 0 and abs(c - rw) <= 1e-13 * rw


def _t_u(z: float, zp1: float) -> tuple[float, float]:
    """T(z) and U(z) of the module docstring for z > -1; zp1 = 1 + z, formed without cancelling."""
    if abs(z) < 1e-2:
        # U = sum_k (-z)^k / (2k + 3); the terms left out are below 1e-19
        u = 1 / 3 - z * (1 / 5 - z * (1 / 7 - z * (1 / 9 - z * (
            1 / 11 - z * (1 / 13 - z * (1 / 15 - z * (1 / 17 - z / 19)))))))
        return 1.0 - z * u, u
    r = math.sqrt(abs(z))
    if z > 0:
        t = math.atan(r) / r
    else:
        # atanh(r) = log1p(2r / (1 - r)) / 2, with 1 - r = (1 + z) / (1 + r)
        t = 0.5 * math.log1p(2.0 * r * (1.0 + r) / zp1) / r
    return t, (1.0 - t) / z


def cosh_integral(alpha: float, power: int) -> float:
    """int_R dy / (cosh y + alpha)^power for power in {1, 2}, finite alpha > -1.

    With z = (1 - alpha)/(1 + alpha): I_1 = 2 (1 + z) T(z) and
    I_2 = (1 + z)^2 (T(z) + U(z)) / 2.
    """
    alpha = as_float(alpha)
    if not -1.0 < alpha < math.inf:  # false for nan as well
        raise ValueError(f"cosh integral requires a finite alpha > -1, got {alpha}")
    if power not in (1, 2):
        raise ValueError(f"power must be 1 or 2, got {power}")
    zp1 = 2.0 / (1.0 + alpha)
    t, u = _t_u((1.0 - alpha) / (1.0 + alpha), zp1)
    return 2.0 * zp1 * t if power == 1 else 0.5 * zp1 * zp1 * (t + u)


def _mass_momentum(p: ModelParams, omega: float, c: float) -> tuple[float, float, float]:
    """(M, P, d) of phi_{omega,c} by the formulas of the module docstring."""
    c = float(c)  # a numpy scalar would slow every operation below
    if omega <= 0:
        raise RegionError(f"omega must be positive, got {omega}")
    rw = 2.0 * sqrt(omega)
    g = p.gamma
    # the existence region, written only here (see `existence_region`)
    if not (-rw < c <= rw if g > 0 else -rw < c < p.s_hi * rw):
        raise RegionError(f"(omega={omega}, c={c}) outside existence region for b={p.b}")
    q = (rw - c) * (rw + c)
    sq = sqrt(q)
    if c < 0:
        z = g * q / c / c  # not over c * c, which underflows
        # z > 1 takes the atan2 form, which has no c in a denominator
        if z <= 1.0:
            zp1 = 1.0 + z
            # q^{3/2} / |c| as (q sqrt(q)) / |c|: q (sqrt(q) / |c|) would overflow
            # where sqrt(q) / |c| does and the quotient does not (subnormal c at gamma = 0)
            h = q * sq / -c
            if z < -0.99:
                # near the gamma < 0 edge: 1 + z = (c^2 + gamma q) / c^2, exactly, from
                # the floats' integer ratios; int / int rounds the quotient once
                (cn, cd), (rn, rd), (gn, gd) = (x.as_integer_ratio() for x in (c, rw, g))
                den = gd * (cn * rd) ** 2
                zp1 = (den + gn * (rn * cd - cn * rd) * (rn * cd + cn * rd)) / den
                if zp1 <= 0.0:
                    # admitted by the rounded edge, but on or past the exact
                    # one, where M and P grow without bound and T - U -> 1
                    return math.inf, math.inf, h / 2.0
            t, u = _t_u(z, zp1)
            m = 4.0 * sq / -c * t
            return m, -c * m / 2.0 + 2.0 * h / -c * u, h * (t - u) / 2.0
    rg, k1, k2 = p.atan2_terms
    m = 4.0 * atan2(rg * sq, -c) / rg
    mom = 0.5 * c * k1 * m + k2 * sq
    # omega's one direct use: float() keeps a numpy omega out of d
    return m, mom, float(omega) * m / 2.0 + c * mom / 4.0


def soliton_mass(p: ModelParams, omega: float, c: float) -> float:
    """M(phi_{omega,c})."""
    return _mass_momentum(p, omega, c)[0]


def soliton_momentum(p: ModelParams, omega: float, c: float) -> float:
    """P(phi_{omega,c})."""
    return _mass_momentum(p, omega, c)[1]


def soliton_energy(p: ModelParams, omega: float, c: float) -> float:
    """Pohozaev identity: E = -(c/4) P on the soliton family."""
    c = as_float(c)
    # -c / 4 would underflow to 0 at the smallest c and give 0 * inf = nan
    return -c * _mass_momentum(p, omega, c)[1] / 4.0


def d_value(p: ModelParams, omega: float, c: float) -> float:
    """Action value d(omega, c) = (omega/2) M + (c/4) P, in the module docstring's two forms."""
    return _mass_momentum(p, omega, c)[2]


def turning_point(b: float) -> tuple[float, float]:
    """(s*, M*) for b > 0: the zero s* of s -> P(phi_{1,2s}) and M(phi_{1,2s*}).

    P decreases from P(0) = 4/gamma > 0 to P(1) < 0 at the algebraic end, so
    [0, 1] brackets s*.  Bisection ends on adjacent floats lo < hi with
    P(lo) > 0 >= P(hi), not on a residual, which tiny b would defeat: there s*
    is within a few ulp of 1 and P jumps between neighbouring floats.  The one
    of lo, hi with the smaller |P| is returned, with the mass computed with it.
    """
    p = ModelParams(b)
    if not (b > 0 and math.isfinite(p.gamma)):
        raise ValueError(f"s* is defined for b > 0 with gamma finite, got b={b}")
    (m_lo, p_lo, _), (m_hi, p_hi, _) = _mass_momentum(p, 1.0, 0.0), _mass_momentum(p, 1.0, 2.0)
    lo, hi = 0.0, 1.0
    while True:
        x = 0.5 * (lo + hi)
        if x == lo or x == hi:
            break
        m, f, _ = _mass_momentum(p, 1.0, 2.0 * x)
        if f > 0.0:
            lo, m_lo, p_lo = x, m, f
        else:
            hi, m_hi, p_hi = x, m, f
    # lo, hi are adjacent; the sign change across them is the certificate
    if not p_lo > 0.0 >= p_hi:
        raise RuntimeError(f"momentum lost its sign change on [0, 1] at b={b}")
    return (lo, m_lo) if abs(p_lo) < abs(p_hi) else (hi, m_hi)


def s_star(b: float) -> float:
    """Unique zero of s -> P(phi_{1,2s}) in (0, 1) for b > 0; see `turning_point`."""
    return turning_point(b)[0]


def mass_threshold(b: float) -> float:
    """Turning-point mass M*(b) for b > -3/16; see `ModelParams.turning`."""
    return ModelParams(b).turning[1]


def admissible_s_range(p: ModelParams) -> tuple[float, float, bool]:
    """(lo, hi, hi_closed) for the scaling parameter s."""
    return -1.0, p.s_hi, p.gamma > 0
