"""The one mass-momentum kernel against the separate functions it replaced.

The reference functions below are the earlier `soliton_mass`,
`soliton_momentum`, `soliton_energy` and `d_value`, kept verbatim with the
helpers they called.  The kernel keeps every branch's arithmetic, so the
outputs must be the same floats, compared with `==`, and `RegionError` must
be raised on the same inputs, including the floats next to both region edges.
The earlier code also fails at a few admissible edge points (a
ZeroDivisionError, or nan for E and d at c = -5e-324 with gamma = 0); the
kernel must fail there in the same way.
"""
import math

import numpy as np
import pytest

from dnls_well import closedform as cf
from dnls_well.solitons import ModelParams, RegionError, existence_region, is_algebraic, s_lower

# --- earlier implementation, verbatim -----------------------------------------

_GAMMA_EPS = 1e-8


def _half_acos(a: float) -> float:
    """arctan(sqrt((1-a)/(1+a))) evaluated stably as acos(a)/2."""
    return 0.5 * math.acos(min(max(a, -1.0), 1.0))


def curve_beta(p: ModelParams, omega: float, c: float) -> float:
    """beta(omega, c) = c / sqrt(c^2 + gamma (4 omega - c^2)); alpha = -beta."""
    return c / math.sqrt(c * c + p.gamma * (4.0 * omega - c * c))


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
        return 4.0 * math.pi / math.sqrt(g)
    if abs(g) < _GAMMA_EPS:
        return 4.0 * math.sqrt(4.0 * omega - c * c) / (-c)
    if g > 0:
        # (8/sqrt(g)) arctan sqrt((1+beta)/(1-beta)), stable form near beta = 1
        return 8.0 / math.sqrt(g) * _half_acos(-curve_beta(p, omega, c))
    # (4/sqrt(-g)) acosh(alpha), alpha = -beta = |c| / r, written in
    # delta = alpha - 1 = (c^2 - r^2) / (r (|c| + r)): alpha - 1 is formed
    # without cancelling, which matters for small |g| and for s -> -1
    rw = 2.0 * math.sqrt(omega)
    q = (rw - c) * (rw + c)
    r = math.sqrt(c * c + g * q)
    delta = -g * q / (r * (abs(c) + r))
    return 4.0 / math.sqrt(-g) * math.log1p(delta + math.sqrt(delta * (2.0 + delta)))


def soliton_momentum(p: ModelParams, omega: float, c: float) -> float:
    """P(phi_{omega,c}); the same formula covers gamma > 0 and gamma < 0."""
    _require_region(p, omega, c)
    g = p.gamma
    m = soliton_mass(p, omega, c)
    if abs(g) < _GAMMA_EPS:
        return -(2.0 * omega + c * c) / (3.0 * c) * m
    return 0.5 * c * (-1.0 + 1.0 / g) * m + 2.0 / g * math.sqrt(
        max(4.0 * omega - c * c, 0.0)
    )


def soliton_energy(p: ModelParams, omega: float, c: float) -> float:
    """Pohozaev identity: E = -(c/4) P on the soliton family."""
    return -0.25 * c * soliton_momentum(p, omega, c)


def d_value(p: ModelParams, omega: float, c: float) -> float:
    """Action value d(omega, c) of the soliton.

    Computed via 2 d(1, 2s) = M(phi_{1,2s}) + s P(phi_{1,2s}) and the
    scaling d(omega, 2 s sqrt(omega)) = omega d(1, 2s).
    """
    _require_region(p, omega, c)
    s = c / (2.0 * math.sqrt(omega))
    c1 = 2.0 * s
    return omega * 0.5 * (soliton_mass(p, 1.0, c1) + s * soliton_momentum(p, 1.0, c1))


# --- parity -------------------------------------------------------------------

BCRIT = -3.0 / 16.0
B_GRID = [
    0.1, -0.1, BCRIT, BCRIT + 1e-10, BCRIT - 1e-10, BCRIT + 1e-6, BCRIT - 1e-6,
    BCRIT - 1e-3, -0.3, 1e-9, 3.0,
]
OMEGAS = [0.7, 1.0, 2.3]
PAIRS = [
    (soliton_mass, cf.soliton_mass),
    (soliton_momentum, cf.soliton_momentum),
    (soliton_energy, cf.soliton_energy),
    (d_value, cf.d_value),
]


def _c_grid(p: ModelParams, omega: float) -> np.ndarray:
    """c = 2 s sqrt(omega) over dense s, lo + 10^-k and hi - 10^-k for
    k = 2 .. 14, and each region edge in c with its two float neighbours."""
    lo, hi, closed = cf.admissible_s_range(p)
    edge = 10.0 ** -np.arange(2.0, 15.0)
    s = np.concatenate([np.linspace(lo, hi, 1001)[1:-1], lo + edge, hi - edge, [hi]])
    rw = 2.0 * math.sqrt(omega)
    c_edges = [-rw, rw if p.gamma > 0 else -s_lower(p) * rw]
    near = [np.nextafter(e, d) for e in c_edges for d in (-np.inf, np.inf)]
    return np.unique(np.concatenate([2.0 * s * math.sqrt(omega), c_edges, near]))


def _outcome(fn, p, omega, c):
    """The float as hex, so that == is bitwise and holds for nan; or the
    exception's type and message, which must match too."""
    try:
        return fn(p, omega, c).hex()
    except (ValueError, ArithmeticError) as exc:  # RegionError, ZeroDivisionError
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("b", B_GRID)
def test_kernel_bit_identical_to_separate_functions(b):
    p = ModelParams(b)
    n_region_errors = 0
    for omega in OMEGAS:
        for c in _c_grid(p, omega):
            c = float(c)
            outside = not existence_region(p, omega, c)
            for ref_fn, new_fn in PAIRS:
                ref, got = _outcome(ref_fn, p, omega, c), _outcome(new_fn, p, omega, c)
                assert got == ref, (ref_fn.__name__, omega, c, ref, got)
                if outside:
                    assert ref[0] == "RegionError", (ref_fn.__name__, omega, c, ref)
                n_region_errors += isinstance(ref, tuple) and ref[0] == "RegionError"
    # both edges of every omega lie outside the region on one side
    assert n_region_errors >= 2 * len(OMEGAS) * len(PAIRS)
