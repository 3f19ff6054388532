"""The pure-`math` closed forms against the numpy versions they replaced.

The reference functions below are the earlier numpy implementation, kept
verbatim (numpy ufuncs, `np.isclose` for the algebraic test), except for the
gamma < 0 mass, which both sides now take in a form that does not cancel.  Both paths
evaluate the same formulas, so they may differ only by the last-ulp
differences of the libm calls.  Near gamma = 0 the 1/gamma form of the
momentum amplifies such differences (3.5e-10 relative at gamma = -5e-7),
so b with 1e-8 <= |gamma| < 1e-3 is left to the monotonicity and
criterion checks instead.
"""
import mpmath
import numpy as np
import pytest

from dnls_well import closedform as cf
from dnls_well.solitons import ModelParams, RegionError, existence_region

# --- earlier numpy implementation, verbatim ---------------------------------

_GAMMA_EPS = 1e-8


def is_algebraic(omega: float, c: float) -> bool:
    return c > 0 and np.isclose(c, 2.0 * np.sqrt(omega), rtol=1e-13, atol=0.0)


def _half_acos(a: float) -> float:
    """arctan(sqrt((1-a)/(1+a))) evaluated stably as acos(a)/2."""
    return 0.5 * np.arccos(np.clip(a, -1.0, 1.0))


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
            return 4.0 * t / np.sqrt(r)
        return 2.0 / r - 4.0 * alpha * t / r**1.5
    lg = np.log(alpha + np.sqrt(alpha * alpha - 1.0))
    r = alpha * alpha - 1.0
    if power == 1:
        return 2.0 * lg / np.sqrt(r)
    return -2.0 / r + 2.0 * alpha * lg / r**1.5


def curve_beta(p: ModelParams, omega: float, c: float) -> float:
    """beta(omega, c) = c / sqrt(c^2 + gamma (4 omega - c^2)); alpha = -beta."""
    return c / np.sqrt(c * c + p.gamma * (4.0 * omega - c * c))


def _require_region(p: ModelParams, omega: float, c: float) -> None:
    if not existence_region(p, omega, c):
        raise RegionError(
            f"(omega={omega}, c={c}) outside existence region for b={p.b}"
        )


def soliton_mass(p: ModelParams, omega: float, c: float) -> float:
    """M(phi_{omega,c}), branchwise in gamma."""
    _require_region(p, omega, c)
    g = p.gamma
    if g > 0 and is_algebraic(omega, c):
        return 4.0 * np.pi / np.sqrt(g)
    if abs(g) < _GAMMA_EPS:
        return 4.0 * np.sqrt(4.0 * omega - c * c) / (-c)
    beta = curve_beta(p, omega, c)
    if g > 0:
        # (8/sqrt(g)) arctan sqrt((1+beta)/(1-beta)), stable form near beta = 1
        return 8.0 / np.sqrt(g) * _half_acos(-beta)
    # not verbatim: log(alpha + sqrt(alpha^2 - 1)) cancels as alpha -> 1, so
    # the reference takes acosh(alpha) = log1p(delta + sqrt(delta (2 + delta)))
    # with delta = alpha - 1 formed without cancelling, as the code now does
    q = (2.0 * np.sqrt(omega) - c) * (2.0 * np.sqrt(omega) + c)
    r = np.sqrt(c * c + g * q)
    delta = -g * q / (r * (abs(c) + r))
    return 4.0 / np.sqrt(-g) * np.log1p(delta + np.sqrt(delta * (2.0 + delta)))


def soliton_momentum(p: ModelParams, omega: float, c: float) -> float:
    """P(phi_{omega,c}); the same formula covers gamma > 0 and gamma < 0."""
    _require_region(p, omega, c)
    g = p.gamma
    m = soliton_mass(p, omega, c)
    if abs(g) < _GAMMA_EPS:
        return -(2.0 * omega + c * c) / (3.0 * c) * m
    return 0.5 * c * (-1.0 + 1.0 / g) * m + 2.0 / g * np.sqrt(
        max(4.0 * omega - c * c, 0.0)
    )


def d_value(p: ModelParams, omega: float, c: float) -> float:
    """Action value d(omega, c) of the soliton.

    Computed via 2 d(1, 2s) = M(phi_{1,2s}) + s P(phi_{1,2s}) and the
    scaling d(omega, 2 s sqrt(omega)) = omega d(1, 2s).
    """
    _require_region(p, omega, c)
    s = c / (2.0 * np.sqrt(omega))
    c1 = 2.0 * s
    return omega * 0.5 * (soliton_mass(p, 1.0, c1) + s * soliton_momentum(p, 1.0, c1))


# --- parity ----------------------------------------------------------------


def _s_grid(p: ModelParams) -> np.ndarray:
    """Dense s points plus lo + 10^-k and hi - 10^-k for k = 2 .. 14."""
    lo, hi, closed = cf.admissible_s_range(p)
    edge = 10.0 ** -np.arange(2.0, 15.0)
    pts = [np.linspace(lo, hi, 1001)[1:-1], lo + edge, hi - edge]
    if closed:
        pts.append([hi])
    return np.unique(np.concatenate(pts))


@pytest.mark.parametrize(
    "b",
    [0.1, -0.1, -3.0 / 16.0, -3.0 / 16.0 - 1e-10, -0.3, 0.5, -3.0 / 16.0 + 1e-3, -3.0 / 16.0 - 1e-3],
)
def test_scalar_closed_forms_match_numpy_reference(b):
    p = ModelParams(b)
    for s in _s_grid(p):
        c = 2.0 * s
        m, mom = soliton_mass(p, 1.0, c), soliton_momentum(p, 1.0, c)
        scale = 1e-13 * (abs(m) + abs(mom))
        assert abs(cf.soliton_mass(p, 1.0, c) - m) <= scale, s
        assert abs(cf.soliton_momentum(p, 1.0, c) - mom) <= scale, s
        assert abs(cf.d_value(p, 1.0, c) - d_value(p, 1.0, c)) <= scale, s


@pytest.mark.parametrize("power", [1, 2])
def test_cosh_integral_matches_numpy_reference(power):
    switch = 1.0 + np.array([-1e-3, 1e-3]) * (1.0 + np.array([[-1e-9], [1e-9]]))
    alphas = np.concatenate([np.linspace(1.0 - 4e-3, 1.0 + 4e-3, 801), switch.ravel()])
    for a in alphas:
        ref = cosh_integral(a, power)
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
