import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dnls_well.closedform import (
    admissible_s_range,
    cosh_integral,
    d_value,
    existence_region,
    mass_threshold,
    s_lower,
    s_star,
    soliton_energy,
    soliton_mass,
    soliton_momentum,
    turning_point,
)
from dnls_well.oracle import mass_by_quadrature, momentum_by_quadrature
from dnls_well.solitons import ModelParams, RegionError


def test_small_negative_gamma_near_s_minus_one_matches_quadrature():
    # alpha - 1 ~ 1e-9 here: the mass as log(alpha + sqrt(alpha^2 - 1)) lost
    # eight digits and the 1/gamma form of P turned that into 1.6% of P
    p = ModelParams(3.0 * (-5e-7 - 1.0) / 16.0)
    c = 2.0 * -0.9925
    m, mom = soliton_mass(p, 1.0, c), soliton_momentum(p, 1.0, c)
    scale = abs(m) + abs(mom)
    assert abs(m - mass_by_quadrature(p, 1.0, c)) <= 1e-9 * scale
    assert abs(mom - momentum_by_quadrature(p, 1.0, c)) <= 1e-9 * scale


@pytest.mark.parametrize("alpha", [-0.9, -0.3, 0.5, 0.999, 1.5, 10.0])
@pytest.mark.parametrize("power", [1, 2])
def test_cosh_integral_vs_quadrature(alpha, power):
    ref = float(mpmath.quad(lambda y: 1 / (mpmath.cosh(y) + alpha) ** power, [-mpmath.inf, 0, mpmath.inf]))
    assert cosh_integral(alpha, power) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("power", [1, 2])
def test_cosh_integral_branch_continuity(power):
    eps = 1e-7
    below = cosh_integral(1.0 - eps, power)
    at = cosh_integral(1.0, power)
    above = cosh_integral(1.0 + eps, power)
    assert abs(below - at) < 1e-6
    assert abs(above - at) < 1e-6


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("power", [1, 2])
def test_cosh_integral_refuses_alpha_outside_its_domain(alpha, power):
    # unchecked, nan gives nan and inf divides by zero in the series
    with pytest.raises(ValueError, match="finite alpha > -1"):
        cosh_integral(alpha, power)


def test_cosh_integral_refuses_a_power_other_than_one_or_two():
    with pytest.raises(ValueError, match="power must be 1 or 2"):
        cosh_integral(1.0, 3)


def test_region_enforced():
    with pytest.raises(RegionError):
        soliton_mass(ModelParams(0.0), 1.0, 2.5)
    with pytest.raises(RegionError):
        d_value(ModelParams(-0.5), 1.0, 0.5)


@pytest.mark.parametrize(
    "b,omega,c",
    [
        (0.0, 1.0, 0.7),
        (0.0, 2.0, -1.0),
        (0.1, 1.5, 0.3),
        (-0.1, 1.0, -0.4),
        (-0.5, 1.0, -1.9),
        (-3.0 / 16.0, 1.0, -1.0),
    ],
)
def test_pohozaev_closed_form(b, omega, c):
    p = ModelParams(b)
    e = soliton_energy(p, omega, c)
    mom = soliton_momentum(p, omega, c)
    assert abs(e + 0.25 * c * mom) / (abs(e) + abs(mom) + 1e-30) < 1e-12


def test_mass_omega_invariance_along_curve():
    # M(phi_{omega, 2 s sqrt(omega)}) is independent of omega
    p = ModelParams(0.05)
    s = 0.4
    m1 = soliton_mass(p, 1.0, 2.0 * s)
    m2 = soliton_mass(p, 2.7, 2.0 * s * np.sqrt(2.7))
    assert m1 == pytest.approx(m2, rel=1e-13)


def test_d_scaling():
    p = ModelParams(0.0)
    s = -0.3
    omega = 1.8
    assert d_value(p, omega, 2.0 * s * np.sqrt(omega)) == pytest.approx(
        omega * d_value(p, 1.0, 2.0 * s), rel=1e-13
    )


def test_gamma_zero_branch_continuity():
    b0 = -3.0 / 16.0
    m_at = soliton_mass(ModelParams(b0), 1.0, -1.0)
    m_near = soliton_mass(ModelParams(b0 + 1e-11), 1.0, -1.0)
    assert m_at == pytest.approx(m_near, rel=1e-6)
    p_at = soliton_momentum(ModelParams(b0), 1.0, -1.0)
    p_near = soliton_momentum(ModelParams(b0 + 1e-11), 1.0, -1.0)
    assert p_at == pytest.approx(p_near, rel=1e-6)


def _momentum_root_mp(gamma: float):
    """Root of s -> P(phi_{1,2s}) on [1e-6, 1] by 200 bisections at 50 digits.

    gamma is taken as the float the closed form sees, so the reference is
    the root of the function that s_star actually evaluates.
    """
    with mpmath.workdps(50):
        g = mpmath.mpf(gamma)

        def mom(s):
            c = 2 * s
            beta = c / mpmath.sqrt(c * c + g * (4 - c * c))
            mass = 4 / mpmath.sqrt(g) * mpmath.acos(-beta)
            return c / 2 * (1 / g - 1) * mass + 2 / g * mpmath.sqrt(4 - c * c)

        lo, hi = mpmath.mpf("1e-6"), mpmath.mpf(1)
        for _ in range(200):
            mid = (lo + hi) / 2
            if mom(mid) > 0:
                lo = mid
            else:
                hi = mid
        return lo


def test_s_star_within_two_ulp_of_high_precision_root():
    # down to b = 1e-9, where the root sits one ulp below s = 1
    for b in np.logspace(-9.0, math.log10(3.0), 60):
        b = float(b)
        ref = _momentum_root_mp(ModelParams(b).gamma)
        err = abs(mpmath.mpf(s_star(b)) - ref)
        assert float(err) <= 2.0 * math.ulp(float(ref)), b


def test_mass_threshold_tiny_b_finite_and_decreasing():
    ms = [mass_threshold(float(b)) for b in np.logspace(-9.0, -6.0, 40)]
    assert np.all(np.isfinite(ms))
    assert np.all(np.diff(ms) < 0)
    assert all(m < 4.0 * np.pi for m in ms)
    # continuity at b = 0 from above
    assert mass_threshold(1e-7) == pytest.approx(4.0 * np.pi, rel=1e-3)


def test_mass_strictly_increasing_in_s():
    p = ModelParams(0.0)
    s = np.linspace(-0.95, 1.0, 41)
    m = [soliton_mass(p, 1.0, 2.0 * si) for si in s]
    assert all(m2 > m1 for m1, m2 in zip(m, m[1:]))


def test_admissible_s_range():
    assert admissible_s_range(ModelParams(0.0)) == (-1.0, 1.0, True)
    lo, hi, closed = admissible_s_range(ModelParams(-0.5))
    assert lo == -1.0 and not closed and -1.0 < hi < 0.0


# --- the per-b constants ModelParams computes once ------------------------------


@pytest.mark.parametrize("b", [0.1, 0.0, -3.0 / 16.0, -3.0 / 16.0 + 1e-10, -3.0 / 16.0 - 1e-10, -0.3])
def test_cached_constants_equal_fresh_formulas(b):
    p = ModelParams(b)
    # the formulas as they read before ModelParams held them
    g = 1.0 + (16.0 / 3.0) * b
    if g > 0:
        assert admissible_s_range(p) == (-1.0, 1.0, True)
        with pytest.raises(RegionError):
            s_lower(p)
        assert p.atan2_terms == (math.sqrt(g), 1.0 / g - 1.0, 2.0 / g)
    else:
        sl = math.sqrt(-g / (1.0 - g))
        assert s_lower(p).hex() == sl.hex()
        lo, hi, closed = admissible_s_range(p)
        assert (lo, hi.hex(), closed) == (-1.0, (-sl).hex(), False)
    for omega in (0.37, 1.0, 2.3):
        rw = 2.0 * math.sqrt(omega)
        for edge in (-rw, rw if g > 0 else -sl * rw):
            for c in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
                fresh = -rw < c <= rw if g > 0 else -rw < c < -sl * rw
                assert existence_region(p, omega, c) == fresh, (omega, c)


@pytest.mark.parametrize("b", [1e-9, 1e-3, 0.1, 5.0])
def test_cached_turning_point_is_the_search(b):
    p = ModelParams(b)
    assert p.turning == turning_point(b)
    assert p.turning is p.turning


@pytest.mark.parametrize("b", [0.1, -3.0 / 16.0, -0.3])
def test_model_params_equal_after_filling_caches(b):
    p, q = ModelParams(b), ModelParams(b)
    d_value(p, 1.0, 2.0 * (admissible_s_range(p)[0] + 1e-3))
    p.curve_d(admissible_s_range(p)[0] + 1e-3)
    cached = {"gamma", "s_hi", "_curve_d"}
    if b > 0:
        d_value(p, 1.0, 1.0)  # the atan2 form
        assert p.turning
        cached |= {"atan2_terms", "turning"}
    assert set(vars(p)) == cached | {"b"} and set(vars(q)) == {"b"}
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)


@st.composite
def _b_and_admissible_s(draw):
    """(b, s) with b in [-3/16, 0.5] and s admissible: either end of the s range, s*, or inside."""
    b = draw(st.floats(-3.0 / 16.0, 0.5) | st.sampled_from([-3.0 / 16.0, 0.0, 1e-9, 0.5]))
    p = ModelParams(b)
    lo, hi, closed = admissible_s_range(p)
    hi = hi if closed else math.nextafter(hi, -math.inf)
    edges = [math.nextafter(lo, math.inf), hi] + ([p.turning[0]] if b > 0 else [])
    s = draw(st.sampled_from(edges) | st.floats(lo, hi, exclude_min=True))
    return b, s


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_b_and_admissible_s())
def test_curve_d_is_d_value_on_every_call(b_s):
    # one ModelParams keeps d(1, 2s) per s: the first call computes it, a repeat reads it back
    b, s = b_s
    p = ModelParams(b)
    fresh = d_value(ModelParams(b), 1.0, 2.0 * s)
    for _ in range(3):
        assert p.curve_d(s) == fresh
    assert p._curve_d == {s: fresh}


@pytest.mark.parametrize("b", [0.1, 0.0, -3.0 / 16.0])
def test_curve_d_outside_the_s_range_raises_and_keeps_nothing(b):
    p = ModelParams(b)
    _, hi, closed = admissible_s_range(p)
    kept = p.curve_d(-0.5)
    for s in (-1.0, -1.5, math.nextafter(hi, math.inf) if closed else hi, 2.0, math.nan):
        for _ in range(2):
            with pytest.raises(RegionError):
                p.curve_d(s)
    assert p._curve_d == {-0.5: kept}


# --- points where the closed forms used to fail --------------------------------

BCRIT = -3.0 / 16.0


def test_c_zero_just_above_gamma_zero():
    # 0 < gamma < 1e-8 once took the gamma = 0 formula, which divides by c
    p = ModelParams(BCRIT + 1e-10)
    g = p.gamma
    assert soliton_mass(p, 1.0, 0.0) == pytest.approx(2.0 * math.pi / math.sqrt(g), rel=1e-15)
    assert soliton_momentum(p, 1.0, 0.0) == pytest.approx(4.0 / g, rel=1e-15)
    assert soliton_energy(p, 1.0, 0.0) == 0.0
    assert d_value(p, 1.0, 0.0) == pytest.approx(math.pi / math.sqrt(g), rel=1e-15)


def test_mass_increasing_on_s_positive_just_above_gamma_zero():
    # the gamma = 0 formula gave M < 0 here for every s > 0
    p = ModelParams(BCRIT + 1e-10)
    m = [soliton_mass(p, 1.0, 2.0 * s) for s in np.linspace(0.0, 1.0, 201)[1:]]
    assert m[0] > 0 and all(m2 > m1 for m1, m2 in zip(m, m[1:]))


def _edge_mass_50_digits(p: ModelParams, omega: float, c: float) -> float:
    """(4/sqrt(-g)) acosh(|c| / sqrt(c^2 + g q)), q from the float 2 sqrt(omega)."""
    with mpmath.workdps(50):
        g, c = mpmath.mpf(p.gamma), mpmath.mpf(c)
        rw = mpmath.mpf(2.0 * math.sqrt(omega))
        alpha = abs(c) / mpmath.sqrt(c * c + g * (rw - c) * (rw + c))
        return float(4 / mpmath.sqrt(-g) * mpmath.acosh(alpha))


def test_64_floats_inside_negative_gamma_edge_are_finite():
    # at omega = 0.7 the first float inside, c = -0.003864356827327688, formed
    # c^2 + gamma q = 0 in floats (ZeroDivisionError); at omega = 37, d once
    # rescaled to (1, 2s) and rounded s out of the region
    p = ModelParams(BCRIT - 1e-6)
    for omega in (0.7, 37.0):
        c = -s_lower(p) * 2.0 * math.sqrt(omega)
        for _ in range(64):
            c = math.nextafter(c, -math.inf)
            values = [f(p, omega, c) for f in (soliton_mass, soliton_momentum, soliton_energy, d_value)]
            assert all(map(math.isfinite, values)), (omega, c)
            assert values[0] == pytest.approx(_edge_mass_50_digits(p, omega, c), rel=1e-14), (omega, c)


def test_subnormal_c_at_gamma_zero_overflows_to_inf():
    # M ~ 8 / |c| = 1.6e324 overflows; P and E = -(c/4) P overflow too, and
    # none of them is inf * 0 = nan; so does d ~ q^{3/2} / (3 |c|)
    p, c = ModelParams(BCRIT), -5e-324
    assert soliton_mass(p, 1.0, c) == math.inf
    assert soliton_momentum(p, 1.0, c) == math.inf
    assert soliton_energy(p, 1.0, c) == math.inf
    assert all(d_value(p, omega, c) == math.inf for omega in (0.7, 1.0, 2.3))
    # at gamma > 0, z = gamma q / c^2 overflows; the atan2 form takes it
    p = ModelParams(0.1)
    assert soliton_mass(p, 1.0, c) == pytest.approx(2.0 * math.pi / math.sqrt(p.gamma), rel=1e-15)
    assert soliton_momentum(p, 1.0, c) == pytest.approx(4.0 / p.gamma, rel=1e-15)


def test_admitted_point_past_the_exact_negative_gamma_edge_is_inf():
    # the rounded edge -2 s_* sqrt(omega) admits this c, but with these float
    # inputs c^2 + gamma q is -6e-19 < 0: M and P take their limit +inf at the
    # edge instead of raising, and d its finite limit q^{3/2} / (2 |c|)
    p, omega, c = ModelParams(-0.1885103820748597), 0.5410806657165566, -0.1077050788701073
    assert soliton_mass(p, omega, c) == math.inf
    assert soliton_momentum(p, omega, c) == math.inf
    assert d_value(p, omega, c) == pytest.approx(14.662763486917031, rel=1e-14)


def test_d_finite_just_inside_negative_gamma_edge():
    # the first four floats inside c = -2 s_* sqrt(omega) on random draws,
    # where d once rescaled s out of the region and raised
    rng = np.random.default_rng(1)
    for _ in range(2000):
        p = ModelParams(BCRIT - 10.0 ** rng.uniform(-15.0, 2.0))
        omega = 10.0 ** rng.uniform(-3.0, 3.0)
        c = -s_lower(p) * 2.0 * math.sqrt(omega)
        for _ in range(4):
            c = math.nextafter(c, -math.inf)
            assert math.isfinite(d_value(p, omega, c)), (p.b, omega, c)


@pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
def test_model_params_rejects_non_finite_b(b):
    with pytest.raises(ValueError, match="b must be finite"):
        ModelParams(b)


def _region_rw(p: ModelParams, omega: float, c: float) -> float | None:
    """2 sqrt(omega) if (omega, c) is admissible (see `existence_region`), else None."""
    if omega <= 0:
        raise RegionError(f"omega must be positive, got {omega}")
    rw = 2.0 * math.sqrt(omega)
    inside = -rw < c <= rw if p.gamma > 0 else -rw < c < p.s_hi * rw
    return rw if inside else None


def _existence_region_before(p, omega, c):
    """The region predicate as it read before the kernel took the test over
    (`_region_rw` above is the helper of that time, verbatim)."""
    return _region_rw(p, omega, c) is not None


BCRIT = -3.0 / 16.0


@pytest.mark.parametrize("b", [0.1, 0.0, -0.1, BCRIT, BCRIT + 1e-10, BCRIT - 1e-10, -0.3])
def test_existence_region_is_the_predicate_before_at_every_edge(b):
    p = ModelParams(b)
    n_in = n_out = 0
    for omega in (0.37, 1.0, 2.3, 1e-12, 1e12):
        rw = 2.0 * math.sqrt(omega)
        edges = (-rw, p.s_hi * rw, rw, 0.0)
        for edge in edges:
            for c in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
                want = _existence_region_before(p, omega, c)
                assert existence_region(p, omega, c) is want, (omega, c)
                n_in, n_out = n_in + want, n_out + (not want)
                if not want:
                    with pytest.raises(RegionError, match="outside existence region"):
                        d_value(p, omega, c)
        for c in (-math.inf, math.inf, math.nan):
            assert existence_region(p, omega, c) is False
    for omega, c in ((math.nan, 0.0), (math.inf, -1.0)):
        assert existence_region(p, omega, c) is _existence_region_before(p, omega, c)
    assert n_in and n_out


@pytest.mark.parametrize("b", [0.1, 0.0, -0.1, BCRIT + 1e-10])
@pytest.mark.parametrize("omega", [0.37, 1.0, 2.3])
def test_algebraic_endpoint_is_admitted_and_its_mass_is_4pi_over_root_gamma(b, omega):
    p = ModelParams(b)
    rw = 2.0 * math.sqrt(omega)
    assert existence_region(p, omega, rw)
    assert soliton_mass(p, omega, rw) == 4.0 * math.pi / math.sqrt(p.gamma)
    assert not existence_region(p, omega, math.nextafter(rw, math.inf))


@pytest.mark.parametrize("omega", [0.0, -0.0, -1.0, -math.inf])
def test_nonpositive_omega_raises_with_its_own_message(omega):
    for b in (0.1, BCRIT):
        p = ModelParams(b)
        for fn in (existence_region, soliton_mass, soliton_momentum, soliton_energy, d_value):
            with pytest.raises(RegionError) as exc:
                fn(p, omega, -0.5)
            assert str(exc.value) == f"omega must be positive, got {omega}"


def test_d_at_subnormal_c_and_gamma_zero_stays_finite():
    # q^{3/2} / |c| is formed as (q sqrt(q)) / |c|: sqrt(q) / |c| alone overflows here
    p = ModelParams(BCRIT)
    assert p.gamma == 0.0
    omega, c = 0.01, -1e-310
    q = (0.2 - c) * (0.2 + c)
    # z = 0: T - U = 2/3, so d = q^{3/2} / (3 |c|)
    assert d_value(p, omega, c) == pytest.approx(q**1.5 / (3.0 * -c), rel=1e-13)


# --- the scaling and the envelope identities over the parameter space -------------

_B = st.floats(-0.6, 0.5)
_OMEGA = st.floats(0.1, 10.0)
_U = st.floats(0.0, 1.0)


def _on_curve(b: float, omega: float, u: float, margin: float = 0.0) -> tuple[ModelParams, float]:
    """(p, c) with c = 2 s sqrt(omega), where s = lo + u (hi - lo) and (lo, hi) is the
    admissible s range (-1, s_hi) pulled in by margin at each end."""
    p = ModelParams(b)
    lo, hi = -1.0 + margin, p.s_hi - margin
    return p, 2.0 * (lo + u * (hi - lo)) * math.sqrt(omega)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_B, _OMEGA, _U, st.integers(-20, 20))
def test_closed_forms_are_exactly_mass_critical(b, omega, u, k):
    # at (lam^2 omega, lam c) with lam = 2^k every float operation of the kernel scales by
    # a power of two, so d(mu^2, 2 s mu) = mu^2 d(1, 2s), which the classifier's
    # quadratics rest on, holds to the bit, as do M and lam P
    p, c = _on_curve(b, omega, u)
    assume(existence_region(p, omega, c))
    lam = 2.0**k
    omega2, c2 = lam * lam * omega, lam * c
    assert soliton_mass(p, omega2, c2) == soliton_mass(p, omega, c)
    assert soliton_momentum(p, omega2, c2) == lam * soliton_momentum(p, omega, c)
    assert d_value(p, omega2, c2) == lam * lam * d_value(p, omega, c)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_B, _OMEGA, _U)
def test_envelope_identities_over_the_parameter_space(b, omega, u):
    # d = S(phi) at a critical point of S, so its partials are those of S at fixed phi:
    # d_omega = M/2 and d_c = P/2.  Central differences step 1e-5 of omega and of the
    # curve's scale 2 sqrt(omega) in c, with s 0.02 inside each end of its range
    p, c = _on_curve(b, omega, u, margin=0.02)
    m, mom = soliton_mass(p, omega, c), soliton_momentum(p, omega, c)
    h_omega, h_c = 1e-5 * omega, 2e-5 * math.sqrt(omega)
    d_omega = (d_value(p, omega + h_omega, c) - d_value(p, omega - h_omega, c)) / (2.0 * h_omega)
    d_c = (d_value(p, omega, c + h_c) - d_value(p, omega, c - h_c)) / (2.0 * h_c)
    tol = 1e-7 * (abs(m) + abs(mom))
    assert abs(d_omega - 0.5 * m) <= tol
    assert abs(d_c - 0.5 * mom) <= tol


def _hessian_of_d(p: ModelParams, s: float, h: float) -> np.ndarray:
    """d'' at (1, 2s) by central differences of step h in omega and in c."""
    c = 2.0 * s

    def d(omega, c):
        return d_value(p, omega, c)

    d_ww = (d(1.0 + h, c) - 2.0 * d(1.0, c) + d(1.0 - h, c)) / (h * h)
    d_cc = (d(1.0, c + h) - 2.0 * d(1.0, c) + d(1.0, c - h)) / (h * h)
    d_wc = (d(1.0 + h, c + h) - d(1.0 + h, c - h) - d(1.0 - h, c + h) + d(1.0 - h, c - h)) / (4.0 * h * h)
    return np.array([[d_ww, d_wc], [d_wc, d_cc]])


_S_STEPS = [round(-0.9 + 0.05 * i, 2) for i in range(38)]  # -0.9, -0.85, ..., 0.95


@pytest.mark.parametrize("b", [0.05, 0.1, 0.5, 0.0, -0.1])
def test_d_hessian_loses_its_positive_direction_at_s_star(b):
    # by the envelope identities and mass criticality det d'' = -(dM/dc) P / 8 at omega = 1;
    # M rises along c, so d'' has one positive eigenvalue while P > 0 and none past s*,
    # where P changes sign (b > 0 only)
    p = ModelParams(b)
    h = 1e-4
    counts = []
    for s in _S_STEPS:
        hess = _hessian_of_d(p, s, h)
        dm_dc = (soliton_mass(p, 1.0, 2.0 * s + h) - soliton_mass(p, 1.0, 2.0 * s - h)) / (2.0 * h)
        det_closed = -dm_dc * soliton_momentum(p, 1.0, 2.0 * s) / 8.0
        assert np.linalg.det(hess) == pytest.approx(det_closed, rel=2e-5), s
        counts.append(int(np.sum(np.linalg.eigvalsh(hess) > 0)))
    n_plus = len(_S_STEPS) if b <= 0 else sum(s < p.turning[0] for s in _S_STEPS)
    assert counts == [1] * n_plus + [0] * (len(_S_STEPS) - n_plus)
