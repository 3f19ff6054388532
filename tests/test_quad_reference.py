"""The quadrature oracle against 30-digit mpmath quadrature of Phi^2 and Phi^4.

The reference is built in mpmath from the same float64 gamma and
q = 4 omega - c^2 that `solitons.phi_sq` uses, so it checks the quadrature
rule and nothing else; no closed-form branch enters.  The grid covers
gamma > 0, gamma = 0, gamma < 0, both sides of b = -3/16 at 1e-6, and s
from -0.9999 to 0.999.

For 0 < gamma < 1e-3 and s > 0, Phi^2 is a spike of height ~4c/gamma.  The
reference keeps the plain denominator sqrt(c^2 + gamma q) cosh - c, which at
30 digits does not lose what float64 would there; `phi_sq` writes it for
c > 0 in a form that does not cancel, so the spike corner is held to the
same 1e-12 as every other point.
"""
import math

import mpmath
import pytest

from dnls_well.oracle import adaptive_quad, l4_by_quadrature, mass_by_quadrature
from dnls_well.solitons import ModelParams, RegionError, SolitonParams, phi_sq

BCRIT = -3.0 / 16.0
B_GRID = [0.0, 0.1, 0.5, BCRIT, BCRIT + 1e-6, BCRIT - 1e-6, -0.3]
S_GRID = [-0.9999, -0.99, -0.5, 0.0, 0.5, 0.99, 0.999]


def _cases():
    for b in B_GRID:
        for s in S_GRID:
            try:
                SolitonParams(ModelParams(b), 1.0, 2.0 * s)
            except RegionError:
                continue
            yield b, s


def _reference(b: float, c: float, power: int):
    """30-digit int Phi^(2 power) dx, twice the half-line by evenness."""
    gamma = ModelParams(b).gamma
    q = 4.0 - c * c
    with mpmath.workdps(30):
        mc, mg, mq = mpmath.mpf(c), mpmath.mpf(gamma), mpmath.mpf(q)
        root, rq = mpmath.sqrt(mc * mc + mg * mq), mpmath.sqrt(mq)

        def phi2(x):
            return (2 * mq / (root * mpmath.cosh(rq * x) - mc)) ** power

        cuts = sorted({0.0, 1e-4, 1e-2, 1.0 / math.sqrt(q)})
        return 2 * mpmath.quad(phi2, cuts + [mpmath.inf])


@pytest.mark.parametrize("b,s", list(_cases()))
def test_quadrature_matches_mpmath(b, s):
    p, c = ModelParams(b), 2.0 * s
    for power, oracle in ((1, mass_by_quadrature), (2, l4_by_quadrature)):
        ref = _reference(b, c, power)
        got = oracle(p, 1.0, c)
        assert abs(got - ref) <= 1e-12 * abs(ref), (power, got, ref)


@pytest.mark.parametrize("b", [0.0, 0.1, 0.5])
def test_finite_window_algebraic_matches_mpmath(b):
    # criterion 02 integrates the 1/x^2-decaying algebraic profile over [-50, 50]
    sp = SolitonParams(ModelParams(b), 1.0, 2.0)
    got = adaptive_quad(lambda x: phi_sq(sp, x), -50.0, 50.0)
    with mpmath.workdps(30):
        g = mpmath.mpf(sp.params.gamma)
        ref = mpmath.quad(lambda x: 8 / (4 * x * x + g), [-50, 0, 50])
    assert abs(got - ref) <= 1e-12 * abs(ref)
