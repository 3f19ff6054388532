import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dnls_well import closedform as cf
from dnls_well import oracle as orc
from dnls_well.field import Field, make_grid
from dnls_well.functionals import invariants
from dnls_well.oracle import (
    QuadratureError,
    ShootingError,
    adaptive_quad,
    l4_by_quadrature,
    mass_by_quadrature,
    momentum_by_quadrature,
    ode_profile,
)
from dnls_well.solitons import ModelParams, SolitonParams, phi_sq, suggested_half_length


def test_quad_cosh_plus_one():
    v = adaptive_quad(lambda y: 1.0 / (np.cosh(y) + 1.0), -np.inf, np.inf)
    assert abs(v - 2.0) < 1e-10


def test_quad_sech_squared():
    v = adaptive_quad(lambda y: 1.0 / np.cosh(y) ** 2, -np.inf, np.inf)
    assert abs(v - 2.0) < 1e-10


def test_quad_matches_cosh_integral():
    v = adaptive_quad(lambda y: 1.0 / (np.cosh(y) + 3.0), -np.inf, np.inf)
    assert abs(v - cf.cosh_integral(3.0, 1)) < 1e-9


def test_quad_finite_interval():
    v = adaptive_quad(np.sin, 0.0, math.pi)
    assert abs(v - 2.0) < 1e-12


@pytest.mark.parametrize(
    "f, a, b, exact",
    [
        (np.exp, -np.inf, 0.0, 1.0),  # the 'lower' map on (-inf, b]
        (lambda x: x**-2.0, 1.0, np.inf, 1.0),  # a half-line 'upper' map from a != 0
        (np.sin, math.pi, 0.0, -2.0),  # reversed limits
        (lambda x: np.exp(-x * x), -np.inf, 1.0, 0.5 * math.sqrt(math.pi) * (1.0 + math.erf(1.0))),
    ],
    ids=["lower", "upper-from-1", "reversed", "lower-gauss"],
)
def test_quad_half_lines_and_reversed_limits(f, a, b, exact):
    assert abs(adaptive_quad(f, a, b) - exact) < 1e-12


@pytest.mark.parametrize("a", [np.inf, -np.inf, 1.0, -2.5, 0.0])
def test_quad_over_an_empty_range_is_zero(a):
    # equal infinite limits are an empty range, not the whole line folded onto [0, inf)
    assert adaptive_quad(lambda x: np.exp(-x * x), a, a) == 0.0


@pytest.mark.parametrize(
    "b,omega,c",
    [(0.0, 1.0, 0.5), (0.1, 1.5, -0.4), (-0.5, 1.0, -1.9), (-3.0 / 16.0, 1.0, -0.8)],
)
def test_quadrature_matches_closed_forms(b, omega, c):
    p = ModelParams(b)
    assert abs(mass_by_quadrature(p, omega, c) - cf.soliton_mass(p, omega, c)) < 1e-8
    assert (
        abs(momentum_by_quadrature(p, omega, c) - cf.soliton_momentum(p, omega, c))
        < 1e-8
    )


def test_l4_quadrature_consistent_with_momentum():
    # P = -(c/2) M + (1/4) ||phi||_4^4 pointwise in the defining integrals
    p = ModelParams(0.0)
    omega, c = 1.0, 0.6
    m = mass_by_quadrature(p, omega, c)
    l4 = l4_by_quadrature(p, omega, c)
    assert momentum_by_quadrature(p, omega, c) == pytest.approx(
        -0.5 * c * m + 0.25 * l4, abs=1e-10
    )


def test_shooting_peak_b0():
    x, phi = ode_profile(ModelParams(0.0), 1.0, 0.0, half_length=15.0, n=512)
    assert abs(phi[len(phi) // 2] - 2.0) < 1e-7


def test_shooting_pointwise_b_three_sixteenths():
    p = ModelParams(3.0 / 16.0)
    sp = SolitonParams(p, 1.0, 1.0)
    x, phi = ode_profile(p, 1.0, 1.0, half_length=20.0, n=1024)
    assert np.max(np.abs(phi - np.sqrt(phi_sq(sp, x)))) < 1e-6


def test_shooting_negative_gamma():
    p = ModelParams(-0.5)
    sp = SolitonParams(p, 1.0, -1.9)
    x, phi = ode_profile(p, 1.0, -1.9, half_length=25.0, n=1024)
    assert np.max(np.abs(phi - np.sqrt(phi_sq(sp, x)))) < 1e-6


@pytest.mark.parametrize("k", [1, 4, 7])
@pytest.mark.parametrize("b", [-2.0, -0.6, -0.1, 0.0, 0.1, 2.0])
def test_ode_profile_across_the_region(b, k):
    # s = lo + (hi - lo) k/8 over the admissible range, on both sides of
    # gamma = 0; for gamma < 0 a shot far above the peak rises at first
    p = ModelParams(b)
    lo, hi, _ = cf.admissible_s_range(p)
    c = 2.0 * (lo + (hi - lo) * k / 8.0)
    sp = SolitonParams(p, 1.0, c)
    x, phi = ode_profile(p, 1.0, c, half_length=suggested_half_length(sp), n=1024)
    ref = np.sqrt(phi_sq(sp, x))
    assert np.max(np.abs(phi - ref)) < 1e-10 * np.max(ref)


@pytest.mark.parametrize(
    "b,omega,c",
    [
        (0.0, 1.0, 0.0),
        (0.1, 1.0, 0.8),
        (3.0 / 16.0, 1.0, 1.0),
        (-0.1, 1.0, -0.5),
        (-0.5, 1.0, -1.9),
        (-2.0, 1.0, -1.95),
    ],
)
def test_ode_profile_invariants_match_closed_forms(b, omega, c):
    # checks the closed forms with no use of phi_sq: the ODE profile in the
    # gauge frame, through the spectral invariants
    p = ModelParams(b)
    g = make_grid(suggested_half_length(SolitonParams(p, omega, c)), 1024)
    x, phi = ode_profile(p, omega, c, half_length=g.L, n=g.N)
    inv = invariants(Field(g, np.exp(0.5j * c * x) * phi), b, 0.25)
    m, mom = cf.soliton_mass(p, omega, c), cf.soliton_momentum(p, omega, c)
    scale = abs(m) + abs(mom)
    assert abs(inv.mass - m) < 1e-10 * scale
    assert abs(inv.momentum - mom) < 1e-10 * scale
    assert abs(inv.energy - cf.soliton_energy(p, omega, c)) < 1e-10 * scale


@pytest.mark.parametrize("d", [1e-3, 1e-4])
def test_ode_profile_near_the_gamma_negative_edge(d):
    # s -> -s_* from inside: the profile widens into a plateau at the
    # first integral's peak, and one shot from that peak still seeds Newton
    p = ModelParams(-0.3)
    c = 2.0 * (-cf.s_lower(p) - d)
    sp = SolitonParams(p, 1.0, c)
    x, phi = ode_profile(p, 1.0, c, half_length=suggested_half_length(sp), n=1024)
    ref = np.sqrt(phi_sq(sp, x))
    assert np.max(np.abs(phi - ref)) < 3e-10 * np.max(ref)


def _no_solve(*args):
    raise AssertionError("no linear solve may run without a soliton")


def _refused_by_the_first_integral(p, omega, c):
    assert not cf.existence_region(p, omega, c)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "solve", _no_solve)
        with pytest.raises(ShootingError, match="first integral"):
            ode_profile(p, omega, c, half_length=20.0, n=256)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    b=st.one_of(st.just(-3.0 / 16.0), st.floats(-2.0, -3.0 / 16.0)),
    omega=st.floats(0.1, 10.0),
    frac=st.floats(0.0, 1.0, exclude_max=True),
)
def test_no_soliton_is_found_by_the_first_integral(b, omega, frac):
    # gamma <= 0 and s from -s_* + 1e-9 to 1: outside the existence region
    # with omega > c^2/4.  s = -s_* itself is left out, where the radicand
    # is of rounding size and its sign is a matter of rounding.
    p = ModelParams(b)
    lo = -cf.s_lower(p) + 1e-9
    c = 2.0 * (lo + (1.0 - lo) * frac) * math.sqrt(omega)
    assume(omega - 0.25 * c * c > 0.0)
    _refused_by_the_first_integral(p, omega, c)


def test_no_soliton_at_gamma_zero_and_zero_speed():
    # b = -3/16, s = 0: a4 = a6 = 0, so the radicand and the root's denominator
    # are exactly 0, and no division by zero may escape
    _refused_by_the_first_integral(ModelParams(-3.0 / 16.0), 1.0, 0.0)


def test_unresolved_spike_raises():
    # near gamma = 0+ with c > 0 the profile is a spike of height ~1200 and
    # width ~1e-3, far below dx; no profile comes back for it
    p = ModelParams(-3.0 / 16.0 + 1e-6)
    sp = SolitonParams(p, 1.0, 1.96)
    with pytest.raises(ShootingError):
        ode_profile(p, 1.0, 1.96, half_length=suggested_half_length(sp), n=1024)


def _no_operator(*args):
    raise AssertionError("no dense operator may be built above the size bound")


def test_a_system_too_large_for_dense_newton_is_refused(monkeypatch):
    # a slow decay sqrt(a2) = 0.01 asks for m + 1 = 31,234 unknowns, 7.8 GB per
    # (m + 1)^2 array; the refusal comes before any of them is built
    monkeypatch.setattr(orc, "_even_d2", _no_operator)
    with pytest.raises(ShootingError, match="31234 unknowns"):
        ode_profile(ModelParams(0.1), 1.0, 1.9999, half_length=20.0, n=1024)


def test_algebraic_not_shootable():
    with pytest.raises(ShootingError, match="algebraic"):
        ode_profile(ModelParams(0.0), 1.0, 2.0, half_length=20.0, n=128)


def test_quad_error_propagates():
    with pytest.raises(QuadratureError):
        adaptive_quad(lambda y: np.sin(y * y) / (abs(y) + 1e-300) ** 0.999, -np.inf, np.inf)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_quad_of_a_non_finite_integrand_is_refused_without_a_warning(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="non-finite quadrature sum at level 0"):
            adaptive_quad(lambda y: np.full(np.shape(y), value), 0.0, 1.0)


@pytest.mark.parametrize("b,d,bound", [(-0.3, 1e-5, 2e-9), (-0.19, 1e-5, 2e-9), (-0.19, 1e-6, 1e-8)])
def test_ode_profile_closer_to_the_gamma_negative_edge(b, d, bound):
    # closer still to s = -s_*, the Jacobian's plateau mode is nearly singular
    # and Newton's steps wander at rounding level after the first; Newton
    # keeps the iterate before a step that is that small and no longer halves
    p = ModelParams(b)
    c = 2.0 * (-cf.s_lower(p) - d)
    sp = SolitonParams(p, 1.0, c)
    x, phi = ode_profile(p, 1.0, c, half_length=suggested_half_length(sp), n=1024)
    ref = np.sqrt(phi_sq(sp, x))
    assert np.max(np.abs(phi - ref)) < bound * np.max(ref)
