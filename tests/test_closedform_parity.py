"""The closed forms against 50-digit mpmath evaluations of the same formulas.

The reference evaluates the module's two formulas for M and P at 50 digits
from the same floats the code sees: gamma, c, and 2 sqrt(omega) as the region
test rounds it.  (At the algebraic end c = 2 sqrt(omega), P has an infinite
slope in c, so an ulp of 2 sqrt(omega) is not resolvable; q is formed from
the float edge the region test uses.)  Every point of the grid is held to
1e-13 of |M| + |P|, and d = (omega/2) M + (c/4) P to 1e-13 of |d|, including
b within 1e-10 of -3/16, s -> -1 and both region edges.  The test names
keep their earlier "numpy_reference", from the numpy implementation they
first compared against, so that their ids stay the same; the reference is
mpmath now.
"""
import math

import mpmath
import numpy as np
import pytest

from dnls_well import closedform as cf
from dnls_well.solitons import ModelParams

BCRIT = -3.0 / 16.0


def _t_u_mp(z):
    """T(z) and U(z) = (1 - T)/z at the working precision."""
    if abs(z) < mpmath.mpf("1e-6"):
        u = mpmath.fsum((-z) ** k / (2 * k + 3) for k in range(12))
        return 1 - z * u, u
    r = mpmath.sqrt(abs(z))
    t = (mpmath.atan(r) if z > 0 else mpmath.atanh(r)) / r
    return t, (1 - t) / z


def _reference(gamma: float, omega: float, c: float):
    """(M, P) at 50 digits from the float gamma, c and 2 sqrt(omega)."""
    with mpmath.workdps(50):
        g, c = mpmath.mpf(gamma), mpmath.mpf(c)
        rw = mpmath.mpf(2.0 * math.sqrt(omega))
        q = (rw - c) * (rw + c)
        if c < 0 and g * q <= c * c:
            t, u = _t_u_mp(g * q / (c * c))
            m = 4 * mpmath.sqrt(q) / -c * t
            return m, -c * m / 2 + 2 * q * mpmath.sqrt(q) / (c * c) * u
        m = 4 * mpmath.atan2(mpmath.sqrt(g * q), -c) / mpmath.sqrt(g)
        return m, c / 2 * (1 / g - 1) * m + 2 / g * mpmath.sqrt(q)


def _s_grid(p: ModelParams, n: int = 1001) -> np.ndarray:
    """n - 2 dense s points plus lo + 10^-k and hi - 10^-k for k = 2 .. 14."""
    lo, hi, closed = cf.admissible_s_range(p)
    edge = 10.0 ** -np.arange(2.0, 15.0)
    pts = [np.linspace(lo, hi, n)[1:-1], lo + edge, hi - edge]
    if closed:
        pts.append([hi])
    return np.unique(np.concatenate(pts))


B_VALUES = [
    0.1, -0.1, BCRIT, BCRIT - 1e-10, -0.3, 0.5, BCRIT + 1e-3, BCRIT - 1e-3,
    BCRIT + 1e-10, BCRIT + 1e-6, BCRIT - 1e-6, 1e-9, 3.0, -2.0,
]


@pytest.mark.parametrize("b", B_VALUES)
def test_scalar_closed_forms_match_numpy_reference(b):
    p = ModelParams(b)
    # omega = 1 on a dense grid, the edges also at omega = 0.7 and 2.3
    cases = [(1.0, s) for s in _s_grid(p, 257)]
    cases += [(omega, s) for omega in (0.7, 2.3) for s in _s_grid(p, 2)]
    for omega, s in cases:
        c = float(2.0 * s * math.sqrt(omega))
        ref_m, ref_p = _reference(p.gamma, omega, c)
        scale = 1e-13 * float(abs(ref_m) + abs(ref_p))
        m, mom = cf.soliton_mass(p, omega, c), cf.soliton_momentum(p, omega, c)
        assert abs(m - ref_m) <= scale, (omega, s, m, ref_m)
        assert abs(mom - ref_p) <= scale, (omega, s, mom, ref_p)


@pytest.mark.parametrize("b", B_VALUES)
def test_d_matches_reference_relative_to_d(b):
    # as s -> -1, d ~ q^{3/2} while (omega/2) M and (c/4) P ~ q^{1/2}: a
    # bound relative to |M| + |P| would not see that sum cancel
    p = ModelParams(b)
    for omega in (0.7, 1.0, 2.3):
        rw = mpmath.mpf(2.0 * math.sqrt(omega))
        for s in _s_grid(p, 257):
            c = float(2.0 * s * math.sqrt(omega))
            ref_m, ref_p = _reference(p.gamma, omega, c)
            with mpmath.workdps(50):
                ref_d = rw * rw / 8 * ref_m + mpmath.mpf(c) / 4 * ref_p
            d = cf.d_value(p, omega, c)
            assert abs(d - ref_d) <= 1e-13 * abs(ref_d), (omega, s, d, ref_d)


def _cosh_integral_mp(alpha: float, power: int):
    """int_R dy / (cosh y + alpha)^power at 50 digits, in acos/acosh form."""
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        if a == 1:
            return mpmath.mpf(2) if power == 1 else mpmath.mpf(2) / 3
        r = abs(1 - a * a)
        arc = mpmath.acos(a) if a < 1 else mpmath.acosh(a)
        if power == 1:
            return 2 * arc / mpmath.sqrt(r)
        return (2 - 2 * a * arc / mpmath.sqrt(r)) / (1 - a * a)


@pytest.mark.parametrize("power", [1, 2])
def test_cosh_integral_matches_numpy_reference(power):
    # dense across alpha = 1 (and the earlier series band |alpha - 1| < 1e-3),
    # then from -0.999 to 1e6
    near = np.concatenate([np.linspace(1.0 - 4e-3, 1.0 + 4e-3, 401), 1.0 + np.array([-1e-3, 1e-3])])
    far = np.concatenate([np.linspace(-0.999, 0.99, 100), 1.0 + np.logspace(-2.0, 6.0, 100)])
    for a in np.concatenate([near, far]):
        a = float(a)
        ref = _cosh_integral_mp(a, power)
        assert abs(cf.cosh_integral(a, power) - ref) <= 1e-12 * abs(ref), a


# --- gamma < 0 mass against 50 digits ----------------------------------------


def _mass_50_digits(p: ModelParams, c: float) -> float:
    """(4/sqrt(-g)) acosh(alpha), alpha = |c| / sqrt(c^2 + g (4 - c^2)), omega = 1."""
    with mpmath.workdps(50):
        g, c = mpmath.mpf(p.gamma), mpmath.mpf(c)
        alpha = abs(c) / mpmath.sqrt(c * c + g * (4 - c * c))
        return float(4 / mpmath.sqrt(-g) * mpmath.acosh(alpha))


@pytest.mark.parametrize(
    "b",
    [-0.3, -3.0 / 16.0 - 1e-3, 3.0 * (-5e-5 - 1.0) / 16.0, 3.0 * (-5e-7 - 1.0) / 16.0],
    ids=["b=-0.3", "b=-3/16-1e-3", "gamma=-5e-5", "gamma=-5e-7"],
)
def test_negative_gamma_mass_matches_50_digits(b):
    # the s -> -1 half of the grid, where alpha -> 1 and the plain
    # log(alpha + sqrt(alpha^2 - 1)) lost up to 1.1e6 of |M| + |P|
    p = ModelParams(b)
    lo, hi, _ = cf.admissible_s_range(p)
    grid = _s_grid(p)
    for s in grid[grid < 0.5 * (lo + hi)]:
        c = 2.0 * s
        m = cf.soliton_mass(p, 1.0, c)
        scale = 1e-15 * (abs(m) + abs(cf.soliton_momentum(p, 1.0, c)))
        assert abs(m - _mass_50_digits(p, c)) <= scale, s
