"""The public closed forms at and next to the region edges.

Mass, momentum, energy and d all call the one kernel `_mass_momentum`.  On a
dense grid in c, with each region edge and its two float neighbours, every
admissible point must give M, P, E and d with no exception and no nan (the
values may be +inf: at c -> 0- with gamma = 0 the true values overflow), and
`soliton_mass`, `soliton_momentum` and `d_value` must return the kernel's
floats bit for bit.  Every point outside the region must raise `RegionError` with
the message below.

The kernel used to be compared bit for bit with the separate functions it
replaced, which the test name still says; that comparison ended when the
kernel became uniform in gamma and the earlier floats stopped being the
reference (the 50-digit one is in `test_closedform_parity.py`).

Near the gamma < 0 edge (z < -0.99) the kernel forms 1 + z exactly from the
floats' integer ratios.  It did so with `fractions.Fraction` before; that
kernel is kept below, verbatim, as the reference, and on a band of c from one
ulp to 1e-2 (relative) inside the edge both must give the same (M, P, d) by
`repr`, the M = P = inf of the exact edge included.
"""
import math
from math import atan2, sqrt

import numpy as np
import pytest

from dnls_well import closedform as cf
from dnls_well.closedform import _t_u, existence_region
from dnls_well.solitons import ModelParams, RegionError

BCRIT = -3.0 / 16.0
B_GRID = [
    0.1, -0.1, BCRIT, BCRIT + 1e-10, BCRIT - 1e-10, BCRIT + 1e-6, BCRIT - 1e-6,
    BCRIT - 1e-3, -0.3, 1e-9, 3.0,
]
OMEGAS = [0.7, 1.0, 2.3]
PUBLIC = [cf.soliton_mass, cf.soliton_momentum, cf.soliton_energy, cf.d_value]


def _c_grid(p: ModelParams, omega: float) -> np.ndarray:
    """c = 2 s sqrt(omega) over dense s, lo + 10^-k and hi - 10^-k for
    k = 2 .. 14, and each region edge in c with its two float neighbours."""
    lo, hi, closed = cf.admissible_s_range(p)
    edge = 10.0 ** -np.arange(2.0, 15.0)
    s = np.concatenate([np.linspace(lo, hi, 1001)[1:-1], lo + edge, hi - edge, [hi]])
    rw = 2.0 * math.sqrt(omega)
    c_edges = [-rw, rw if p.gamma > 0 else p.s_hi * rw]
    near = [np.nextafter(e, d) for e in c_edges for d in (-np.inf, np.inf)]
    return np.unique(np.concatenate([2.0 * s * math.sqrt(omega), c_edges, near]))


def _outcome(fn, p, omega, c):
    """The float, or the exception's type and message."""
    try:
        return fn(p, omega, c)
    except (ValueError, ArithmeticError) as exc:  # RegionError, ZeroDivisionError
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("b", B_GRID)
def test_kernel_bit_identical_to_separate_functions(b):
    p = ModelParams(b)
    n_outside = 0
    for omega in OMEGAS:
        for c in _c_grid(p, omega):
            c = float(c)
            got = [_outcome(fn, p, omega, c) for fn in PUBLIC]
            if not existence_region(p, omega, c):
                n_outside += 1
                message = f"(omega={omega}, c={c}) outside existence region for b={b}"
                assert all(g == ("RegionError", message) for g in got), (omega, c, got)
                continue
            assert all(isinstance(g, float) and not math.isnan(g) for g in got), (omega, c, got)
            m, mom, d, _ = cf._mass_momentum(p, omega, c)
            assert got[0] == m and got[1] == mom and got[3] == d, (omega, c)
    # both edges of every omega lie outside the region on one side
    assert n_outside >= 2 * len(OMEGAS)


def _fraction_kernel(p: ModelParams, omega: float, c: float) -> tuple[float, float, float]:
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
                # near the gamma < 0 edge: 1 + z = (c^2 + gamma q) / c^2, exactly;
                # imported only here, as every CLI start would pay for it
                from fractions import Fraction

                fc, fr = Fraction(c), Fraction(rw)
                zp1 = float(1 + Fraction(g) * (fr - fc) * (fr + fc) / (fc * fc))
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
    return m, mom, omega * m / 2.0 + c * mom / 4.0


EDGE_B = [-0.3, BCRIT - 1e-6, BCRIT - 1e-10, -2.0]
EDGE_OMEGAS = [0.5, 0.7, 1.0, 3.0]


def _edge_band(p: ModelParams, omega: float) -> list[float]:
    """c from 1 ulp to 1e-2 (relative) inside the edge -2 s_* sqrt(omega), while z < -0.99:
    the first 64 floats below the edge, then 1500 geometric steps."""
    rw = 2.0 * math.sqrt(omega)
    ulps = [p.s_hi * rw]
    for _ in range(64):
        ulps.append(math.nextafter(ulps[-1], -math.inf))
    band = ulps[1:] + [ulps[0] * (1.0 + rel) for rel in np.geomspace(2.0**-52, 1e-2, 1500)]
    return [c for c in band if p.gamma * ((rw - c) * (rw + c)) / c / c < -0.99]


@pytest.mark.parametrize("b", EDGE_B)
def test_edge_band_matches_fraction_kernel(b):
    p = ModelParams(b)
    for omega in EDGE_OMEGAS:
        band = _edge_band(p, omega)
        assert len(band) > 64, omega  # the band reaches past the ulp steps
        for c in band:
            want = repr(_outcome(_fraction_kernel, p, omega, c))
            assert repr(_outcome(cf._mass_momentum, p, omega, c)[:3]) == want, (omega, c)


@pytest.mark.parametrize("b, omega, c, infinite", [
    (BCRIT - 1e-6, 0.7, -0.003864356827327688, False),
    # the rounded edge admits c, but the exact 1 + z is <= 0: M = P = inf
    (-0.27450958886266763, 0.7, -0.9420713888507302, True),
])
def test_edge_points_match_fraction_kernel(b, omega, c, infinite):
    p = ModelParams(b)
    want = _fraction_kernel(p, omega, c)
    assert (want[0] == want[1] == math.inf) is infinite
    assert repr(cf._mass_momentum(p, omega, c)[:3]) == repr(want)
