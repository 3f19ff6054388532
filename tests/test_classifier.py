"""Well-membership machinery: invariants, K/action algebra, curve scans.

The `_seed_*` functions at the end are the per-s row kernel as it was before
it was fused into `_scan`, kept verbatim (renamed) as the reference: the
fused kernel does the same float operations, so its rows must be equal to
the bit, 0.0 and -0.0 apart included, wherever the seed's discriminants are
sound.  Elsewhere the reference is the seed with 60-digit roots.
"""
import math
import sys
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dnls_well import classifier
from dnls_well.classifier import (
    REL_TOL,
    apriori_bound,
    _negative_intervals,
    _scan,
    _sign,
    classify_thm17,
    invariant_summary,
    k_sign,
    member,
    nehari_normalize,
    critical_b_membership,
    scan_curve,
)
from dnls_well.closedform import d_value, mass_threshold, s_star, soliton_energy, soliton_mass, soliton_momentum
from dnls_well.closedform import admissible_s_range
from dnls_well.field import Field, GridError, make_grid
from dnls_well.functionals import Frame, Invariants, invariants
from dnls_well.gauge import gauge_transform
from dnls_well.solitons import (
    ModelParams,
    RegionError,
    SolitonParams,
    sample_phi,
    sample_varphi,
    suggested_half_length,
)

from conftest import random_smooth_field


def _soliton_field(b, omega, c, n=2048):
    p = ModelParams(b)
    sp = SolitonParams(p, omega, c)
    g = make_grid(suggested_half_length(sp), n)
    return sample_varphi(sp, g), p


def test_invariant_summary_matches_closed_forms():
    f, p = _soliton_field(0.1, 1.0, 0.8)
    si = invariant_summary(f, p, Frame.GAUGE)
    assert si.mass == pytest.approx(soliton_mass(p, 1.0, 0.8), rel=1e-9)
    assert si.momentum == pytest.approx(soliton_momentum(p, 1.0, 0.8), rel=1e-9)
    assert si.energy == pytest.approx(soliton_energy(p, 1.0, 0.8), abs=1e-9)


def test_soliton_sits_on_the_boundary():
    f, p = _soliton_field(0.1, 1.0, 0.8)
    si = invariant_summary(f, p, Frame.GAUGE)
    res = member(si, p, 1.0, 0.8)
    assert res == {"in_A": False, "K_sign": 0}
    # the same soliton given in the original frame
    u = sample_phi(SolitonParams(p, 1.0, 0.8), f.grid)
    res = member(invariant_summary(u, p, Frame.DNLS), p, 1.0, 0.8)
    assert res == {"in_A": False, "K_sign": 0}


def test_classify_dnls_frame_equals_gauge_image(rng):
    p = ModelParams(0.1)
    s_grid = [-0.5, 0.3]
    g = make_grid(30.0, 512)
    fields = [random_smooth_field(rng, g, amp=0.05), random_smooth_field(rng, g, amp=1.0)]
    sp = SolitonParams(p, 1.0, 0.8)
    fields.append(sample_phi(sp, make_grid(suggested_half_length(sp), 1024)))
    for u in fields:
        res_u = classify_thm17(u, p, s_grid, Frame.DNLS)
        res_v = classify_thm17(gauge_transform(u, 0.25), p, s_grid, Frame.GAUGE)
        assert res_u.to_dict() == res_v.to_dict()


def test_scaled_soliton_membership_signs():
    f, p = _soliton_field(0.1, 1.0, 0.8)
    g = f.grid
    below = invariant_summary(Field(g, 0.9 * f.values), p, Frame.GAUGE)
    above = invariant_summary(Field(g, 1.2 * f.values), p, Frame.GAUGE)
    assert member(below, p, 1.0, 0.8) == {"in_A": True, "K_sign": 1}
    assert member(above, p, 1.0, 0.8)["K_sign"] == -1


def test_nehari_matches_scaled_action_derivative():
    # K(lam phi) = lam * d/dlam S(lam phi), tested at a generic lam
    f, p = _soliton_field(0.05, 1.0, 0.4)
    si = invariant_summary(f, p, Frame.GAUGE)
    lam, h = 0.8, 1e-6
    slope = (
        si.scaled(lam + h).action(1.0, 0.4) - si.scaled(lam - h).action(1.0, 0.4)
    ) / (2.0 * h)
    si_lam = invariant_summary(Field(f.grid, lam * f.values), p, Frame.GAUGE)
    assert lam * slope == pytest.approx(si_lam.nehari(1.0, 0.4), rel=1e-8)


def test_scaled_action_agrees_with_direct_functional():
    f, p = _soliton_field(0.05, 1.0, 0.4)
    si = invariant_summary(f, p, Frame.GAUGE)
    lam = 0.7
    direct = invariants(Field(f.grid, lam * f.values), p.b, Frame.GAUGE).action(1.0, 0.4)
    assert si.scaled(lam).action(1.0, 0.4) == pytest.approx(direct, rel=1e-12)


def test_negative_intervals_quadratic_cases():
    # upward parabola with roots 1, 3
    assert _negative_intervals(1.0, -4.0, 3.0) == [(1.0, 3.0)]
    # no real roots, positive leading coefficient: empty
    assert _negative_intervals(1.0, 0.0, 1.0) == []
    # downward parabola, roots -1 and 2: negative on (2, inf) for mu > 0
    ivals = _negative_intervals(-1.0, 1.0, 2.0)
    assert ivals[-1][0] == pytest.approx(2.0) and ivals[-1][1] == np.inf
    # linear cases
    assert _negative_intervals(0.0, 1.0, -2.0) == [(0.0, 2.0)]
    assert _negative_intervals(0.0, 0.0, -1.0) == [(0.0, np.inf)]
    assert _negative_intervals(0.0, 0.0, 1.0) == []
    # a tiny leading coefficient keeps the root near -c/b
    assert _negative_intervals(1e-297, 1.0, -1.0) == [(0.0, 1.0)]
    # K signs on J through the row kernel: at s = 1 the gap is (M/2 - d1, P, E)
    # and K the dilated record's (M/2, P, E) unchanged
    p = ModelParams(0.1)
    d1 = d_value(p, 1.0, 2.0)
    row = _scan((d1, 0.0, -1.0), (-1e-116, -1.0, 1.0), p, 1.0)
    assert row["J"] == [[0.0, None]] and row["k_signs"] == [-1, 1]
    # K = 1 - mu is negative only beyond the end of J = (0, 1)
    row = _scan((d1, 1.0, -1.0), (0.0, -1.0, 1.0), p, 1.0)
    assert row["J"] == [[0.0, 1.0]] and row["k_signs"] == [1]


normal = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False)


@settings(derandomize=True, deadline=None, database=None, max_examples=1000)
@given(normal, normal, st.one_of(st.sampled_from([0.0, -0.0]), normal), st.data())
def test_negative_intervals_are_invariant_under_powers_of_two(a, b, c, data):
    # 2^k (a x^2 + b x + c) changes sign where a x^2 + b x + c does, at every
    # k that keeps the coefficients zero or normal: past about 1e154 b^2 - 4ac
    # overflows, and below about 1e-154 it leaves the normal floats.  Nonzero
    # coefficients more than 2^1530 apart are drawn too: with the largest
    # rescaled to 2^509 the least leaves the normal floats, and a root past
    # the floats, which one copy then has and the other has not, starts no piece.
    # c = 0 is drawn often: there b^2 alone is the discriminant, and it can
    # leave the floats in one copy and not in the other
    exps = [math.frexp(x)[1] for x in (a, b, c) if x]  # |x| in [2^(e-1), 2^e)
    k = data.draw(st.integers(-1021 - min(exps, default=0), 1024 - max(exps, default=0)), label="k")
    scaled = (math.ldexp(a, k), math.ldexp(b, k), math.ldexp(c, k))
    got = _negative_intervals(a, b, c)
    assert repr(_negative_intervals(*scaled)) == repr(got)
    assert all(math.copysign(1.0, edge) == 1.0 for piece in got for edge in piece)  # no -0.0


@pytest.mark.parametrize(
    "co,k,want",
    [
        # b^2 underflows in the copy, even with a rescaled to 2^509
        ((1.3729718105921635e158, -5.020247908989835e-161, 0.0), -193, [(0.0, 3.6565e-319)]),
        # -b/a underflows to 0.0, so J starts at the root 0 and 0/(-b) is -0.0
        ((-7.953953662375273e284, 1.5269118634044653e-130, 0.0), -360, [(0.0, math.inf)]),
    ],
)
def test_a_zero_constant_is_divided_out(co, k, want):
    # for mu > 0, a mu^2 + b mu has the sign of a mu + b: the roots are 0 and
    # -b/a, which no discriminant has to carry
    scaled = tuple(math.ldexp(x, k) for x in co)
    got = _negative_intervals(*co)
    assert repr(got) == repr(_negative_intervals(*scaled)) == repr(want)
    assert all(math.copysign(1.0, edge) == 1.0 for piece in got for edge in piece)


def test_scan_curve_small_field_is_a_plus(rng):
    g = make_grid(30.0, 512)
    p = ModelParams(0.1)
    f = random_smooth_field(rng, g, amp=0.05)
    si = invariant_summary(f, p, Frame.GAUGE)
    res = scan_curve(si, p, 0.3)
    assert res["verdict"] == "A_plus"
    assert res["J"], "small data must enter the well somewhere on the curve"


def test_scan_curve_rejects_inadmissible_s():
    p = ModelParams(-0.3)  # gamma < 0: s must stay below s_hi
    g = make_grid(30.0, 256)
    si = invariant_summary(Field(g, np.exp(-g.x**2)), p, Frame.GAUGE)
    with pytest.raises(RegionError):
        scan_curve(si, p, 0.5)


@pytest.mark.parametrize("b", [0.1, 0.0, -0.1, -3.0 / 16.0, -0.3])
def test_scan_curve_admits_exactly_the_admissible_s_range(b):
    # (-1, s_hi), closed at s_hi for gamma > 0: the range admissible_s_range states
    p = ModelParams(b)
    lo, hi, closed = admissible_s_range(p)
    g = make_grid(30.0, 256)
    si = invariant_summary(Field(g, np.exp(-g.x**2)), p, Frame.GAUGE)
    for s in (lo, math.nextafter(hi, math.inf), math.nan) + (() if closed else (hi,)):
        with pytest.raises(RegionError, match="outside admissible range"):
            scan_curve(si, p, s)
    for s in (math.nextafter(lo, 0.0), math.nextafter(hi, -math.inf)) + ((hi,) if closed else ()):
        assert scan_curve(si, p, s)["s"] == s


def test_case_ii_witness_is_the_least_certified_bound_on_small_data(rng):
    g = make_grid(30.0, 512)
    p = ModelParams(0.0)
    f = random_smooth_field(rng, g, amp=0.05)
    si = invariant_summary(f, p, Frame.GAUGE)
    res = classify_thm17(f, p)
    assert res.theorem17_case == "ii" and res.global_existence
    # b = 0 has no s*: the witness lies on the algebraic curve s = 1
    mu = res.witness_c / 2.0
    assert res.witness_omega == pytest.approx(mu * mu, rel=1e-15)
    # on a dense grid, every mu the pointwise test certifies bounds no lower
    d1 = d_value(p, 1.0, 2.0)
    grid = np.geomspace(1e-3, 1e3, 60001)
    bounds = [
        apriori_bound(si, m * m, 2.0 * m)
        for m in grid
        if si.action(m * m, 2.0 * m) < m * m * d1 and si.nehari(m * m, 2.0 * m) > 0
    ]
    assert bounds and min(bounds) >= res.apriori_bound
    assert min(bounds) == pytest.approx(res.apriori_bound, rel=1e-3)


def test_classify_small_mass_case_ii(rng):
    g = make_grid(30.0, 512)
    p = ModelParams(0.1)
    f = random_smooth_field(rng, g, amp=0.05)
    res = classify_thm17(f, p)
    assert res.theorem17_case == "ii"
    assert res.global_existence
    assert res.witness_omega is not None and res.apriori_bound is not None
    assert res.mass < res.m_star


def test_classify_boundary_soliton_case_vi_a():
    b = 0.1
    sd = s_star(b)
    f, p = _soliton_field(b, 1.0, 2.0 * sd, n=4096)
    res = classify_thm17(f, p)
    assert res.theorem17_case == "vi-a"
    assert res.boundary_soliton
    assert res.mass == pytest.approx(mass_threshold(b), rel=1e-7)


def test_classify_negative_energy_case_iv():
    # inflate a soliton: mass above threshold and gauge energy negative
    f, p = _soliton_field(0.1, 1.0, 1.9)
    big = Field(f.grid, 1.8 * f.values)
    res = classify_thm17(big, p)
    assert res.theorem17_case == "iv"
    assert not res.global_existence


def test_classify_per_s_grid_output(rng):
    g = make_grid(30.0, 512)
    p = ModelParams(0.1)
    f = random_smooth_field(rng, g, amp=0.05)
    res = classify_thm17(f, p, s_grid=[0.1, 0.5])
    assert len(res.per_s) >= 2
    for row in res.per_s:
        assert row["verdict"] in ("A_plus", "A_minus", "both", "neither")
    d = res.to_dict()
    assert set(d) >= {"mass", "energy", "momentum", "theorem17_case", "per_s"}


@pytest.mark.parametrize("b", [0.1, 0.0, -0.1])
def test_classify_rows_are_scan_curve_rows(rng, b):
    # classify_thm17 builds the dilated record once for its whole s loop
    p = ModelParams(b)
    g = make_grid(20.0, 256)
    s_grid = np.linspace(-0.8, 0.8, 9)
    s_values = list(s_grid) + ([s_star(b)] if b > 0 else [])
    for amp in (0.05, 0.5, 2.0):
        f = random_smooth_field(rng, g, amp=amp)
        si = invariant_summary(f, p, Frame.GAUGE)
        rows = classify_thm17(f, p, s_grid).per_s
        assert [row["s"] for row in rows] == s_values
        # repr tells every float apart bit for bit, 0.0 from -0.0 too
        assert repr(rows) == repr([scan_curve(si, p, s) for s in s_values])


@pytest.mark.parametrize("b", [0.1, 0.0, -0.1, -3.0 / 16.0])
def test_shared_model_params_classifies_as_fresh_ones(rng, b):
    # the second field on reads d(1, 2s) from the shared ModelParams' cache
    g = make_grid(20.0, 256)
    s_grid = np.linspace(-0.8, 0.8, 9) if b > -3.0 / 16.0 else None
    fields = [random_smooth_field(rng, g, amp=amp) for amp in (0.05, 0.3, 1.0, 2.0, 1e3)]
    shared = ModelParams(b)
    for f in fields:
        fresh = classify_thm17(f, ModelParams(b), s_grid)
        assert classify_thm17(f, shared, s_grid).to_dict() == fresh.to_dict()


def test_critical_b_route_certifies_membership(rng):
    p = ModelParams(-3.0 / 16.0)
    g = make_grid(30.0, 512)
    # masses from about 1e-5 to 1e81
    for amp in (1.0, *np.logspace(-3.0, 40.0, 200)):
        f = random_smooth_field(rng, g, amp=amp)
        for frame in Frame:
            si = invariant_summary(f, p, frame)
            out = critical_b_membership(si, p)
            assert out["verdict"] == "A_plus"
            assert -1.0 < out["s"] < 0.0
            # the route returns without scanning; the scan at its s must agree
            assert scan_curve(si, p, out["s"])["verdict"] in ("A_plus", "both"), (amp, frame)
            res = classify_thm17(f, p, frame=frame)
            assert res.theorem17_case == "critical-b" and res.global_existence is True
            assert res.per_s == [out]


def test_critical_b_route_rejected_elsewhere(rng):
    g = make_grid(30.0, 256)
    # the gate is b == -3/16 exactly: a hair to either side is refused
    for b in (0.1, -3.0 / 16.0 + 5e-13, -3.0 / 16.0 - 5e-13):
        p = ModelParams(b)
        si = invariant_summary(Field(g, np.exp(-g.x**2)), p, Frame.GAUGE)
        with pytest.raises(RegionError, match="b = -3/16 only"):
            critical_b_membership(si, p)


def test_critical_b_route_s_is_the_first_halving_past_the_mass(rng):
    # s runs -1/2, -1/4, ... and stops at the first s with 2 d(1, 2s) > M
    p = ModelParams(-3.0 / 16.0)
    for mass in np.concatenate([[0.0, 1e-300], 10.0 ** rng.uniform(-5.0, 300.0, 200)]):
        s = critical_b_membership(Invariants(p.b, 0.25, 1.0, mass, 0.0, 0.0, 0.0, 0.0), p)["s"]
        assert 2.0 * d_value(p, 1.0, 2.0 * s) > mass
        assert s == -0.5 or not 2.0 * d_value(p, 1.0, 4.0 * s) > mass


def test_critical_b_route_has_no_mass_cap():
    # M = 1.25e62 takes 204 halvings of s
    g = make_grid(10.0, 256)
    f = Field(g, 1e31 * np.exp(-g.x**2))
    p = ModelParams(-3.0 / 16.0)
    for frame in Frame:
        res = classify_thm17(f, p, frame=frame)
        assert res.theorem17_case == "critical-b" and res.global_existence is True
        assert res.per_s == [{"s": -1.9446922743316068e-62, "verdict": "A_plus"}]
        si = invariant_summary(f, p, frame)
        assert scan_curve(si, p, res.per_s[0]["s"])["verdict"] == "A_plus"


def test_classify_routes_b_exactly_minus_3_16():
    g = make_grid(10.0, 256)
    f = Field(g, np.exp(-g.x**2))
    # b a hair below -3/16 has gamma < 0 and no classification
    with pytest.raises(RegionError, match="classification requires b >= -3/16"):
        classify_thm17(f, ModelParams(-3.0 / 16.0 - 5e-13))
    # a hair above, gamma > 0: the general case analysis, not the route
    assert classify_thm17(f, ModelParams(-3.0 / 16.0 + 5e-13)).theorem17_case != "critical-b"


@pytest.mark.parametrize("mass", [math.inf, math.nan, -math.inf])
def test_critical_b_route_refuses_a_non_finite_mass(mass):
    # refused before the first halving: no verdict, and no d(1, 2s) computed
    p = ModelParams(-3.0 / 16.0)
    with pytest.raises(RegionError, match=f"finite mass, got M={mass}$"):
        critical_b_membership(Invariants(p.b, 0.25, 1.0, mass, 0.0, 0.0, 0.0, 0.0), p)
    assert p._curve_d == {}


def test_nehari_normalize_soliton_is_identity():
    f, p = _soliton_field(0.05, 1.0, 0.4)
    si = invariant_summary(f, p, Frame.GAUGE)
    assert nehari_normalize(si, 1.0, 0.4) == pytest.approx(1.0, abs=1e-6)


def test_nehari_normalize_refuses_a_root_that_misses_k(monkeypatch):
    f, p = _soliton_field(0.05, 1.0, 0.4)
    si = invariant_summary(f, p, Frame.GAUGE)
    # a positive root of the wrong quadratic: K(lam0 f) is far from 0 there
    monkeypatch.setattr(classifier, "_negative_intervals", lambda a, b, c: [(3.0, math.inf)])
    with pytest.raises(RuntimeError, match="residual too large"):
        nehari_normalize(si, 1.0, 0.4)


def test_nehari_normalize_linear_and_rootless_cases():
    g = make_grid(30.0, 256)
    f = Field(g, np.exp(-g.x**2))
    # b = -3/16: gamma = 0 takes the sextic part K6 out, so t0 = -K2/K4
    si = invariant_summary(f, ModelParams(-3.0 / 16.0), Frame.GAUGE)
    lam0 = nehari_normalize(si, 1.0, -1.0)
    assert abs(si.scaled(lam0).nehari(1.0, -1.0)) <= 1e-12 * si.scaled(lam0).grad_sq
    # b = -0.3, c = 0: K2 > 0, K4 = 0 and K6 > 0, so K(lam f) > 0 for all lam > 0
    si = invariant_summary(f, ModelParams(-0.3), Frame.GAUGE)
    with pytest.raises(RegionError, match="no positive Nehari normalization"):
        nehari_normalize(si, 1.0, 0.0)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 3.0),
    st.sampled_from([0.1, 0.0, -0.1]),
    st.floats(0.1, 10.0),
    st.floats(-0.99, 0.99),
    st.integers(-150, 150),
)
def test_nehari_normalize_commutes_with_powers_of_two(seed, amp, b, omega, s, j):
    # K(lam 2^j f) = K(2^j lam f), so lam0(2^j f) = 2^-j lam0(f) exactly; at
    # gamma > 0 in the well frame K6 < 0 < K2, so lam0 exists for every field
    f = random_smooth_field(np.random.default_rng(seed), make_grid(20.0, 256), amp=amp)
    si = invariant_summary(f, ModelParams(b), Frame.GAUGE)
    c = 2.0 * s * math.sqrt(omega)
    assert nehari_normalize(si.scaled(2.0**j), omega, c) == 2.0**-j * nehari_normalize(si, omega, c)


def test_nehari_normalize_at_any_amplitude_the_floats_resolve():
    # eps e^{-x^2} at every decade from 1e-51, where ||f||_6^6 is still a
    # normal float, to 1e51; once K4^2 left the normal floats, 1e-40 and 1e40
    # raised.  The samples eps e^{-x^2} and the product eps lam0 each round,
    # which costs 2 ulp at some decades (eps = 1e3 among them)
    g = make_grid(20.0, 256)
    p, gauss = ModelParams(0.1), np.exp(-g.x**2)
    for k in range(-51, 52):
        eps = float(f"1e{k}")
        lam0 = nehari_normalize(invariant_summary(Field(g, eps * gauss), p, Frame.GAUGE), 1.0, -1.0)
        assert abs(eps * lam0 - 1.6018367644953737) <= 2.0 * math.ulp(1.6018367644953737), eps


@pytest.mark.parametrize("eps", [1e-52, 1e-60])
def test_nehari_normalize_refuses_an_underflowed_record(eps):
    # ||f||_6^6 is subnormal at 1e-52 (eps lam0 read 10,434 ulp off) and 0 at
    # 1e-60 (eps lam0 read 2.378); the zero field keeps its RegionError
    g = make_grid(20.0, 256)
    p, gauss = ModelParams(0.1), np.exp(-g.x**2)
    si = invariant_summary(Field(g, eps * gauss), p, Frame.GAUGE)
    assert si.l6 < sys.float_info.min and si.mass > 0
    with pytest.raises(GridError, match="underflowed"):
        nehari_normalize(si, 1.0, -1.0)
    with pytest.raises(RegionError, match="no positive Nehari normalization"):
        nehari_normalize(invariant_summary(Field(g, 0.0 * gauss), p, Frame.GAUGE), 1.0, -1.0)


def test_nehari_normalized_action_dominates_d(rng):
    g = make_grid(30.0, 512)
    p = ModelParams(0.0)
    for _ in range(5):
        f = random_smooth_field(rng, g, amp=0.8)
        si = invariant_summary(f, p, Frame.GAUGE)
        lam0 = nehari_normalize(si, 1.0, 0.0)
        s_val = si.scaled(lam0).action(1.0, 0.0)
        assert s_val >= d_value(p, 1.0, 0.0) * (1.0 - 1e-9)


def test_invariant_summary_takes_the_gauge_number():
    p = ModelParams(0.1)
    sp = SolitonParams(p, 1.0, 0.4)
    f = sample_phi(sp, make_grid(suggested_half_length(sp), 512))
    assert invariant_summary(f, p, Frame.DNLS) == invariant_summary(f, p, 0.0)
    assert invariant_summary(f, p, Frame.GAUGE) == invariant_summary(f, p, 0.25)


@pytest.mark.parametrize("b", [0.0, -0.1, -3.0 / 16.0 + 1e-10])
def test_turning_has_no_s_star_for_b_at_most_zero(b):
    s, m = ModelParams(b).turning
    assert s is None
    assert m.hex() == (4.0 * np.pi / (1.0 + 16.0 / 3.0 * b) ** 1.5).hex()


@pytest.mark.parametrize("b", [-3.0 / 16.0, -0.3])
def test_turning_rejects_b_at_or_below_critical(b):
    with pytest.raises(ValueError, match="mass threshold requires b > -3/16"):
        ModelParams(b).turning


@pytest.mark.parametrize("b", [1e-9, 0.1, 0.0, -0.1, -3.0 / 16.0 + 1e-10])
def test_classify_reads_s_star_and_m_star_from_turning(b):
    p = ModelParams(b)
    f = random_smooth_field(np.random.default_rng(3), make_grid(20.0, 256), amp=0.3)
    res = classify_thm17(f, p, [-0.5, 0.5])
    assert res.m_star == mass_threshold(b)
    assert res.s_star == (s_star(b) if b > 0 else None)
    assert [row["s"] for row in res.per_s] == [-0.5, 0.5] + ([s_star(b)] if b > 0 else [])


def test_classify_rows_carry_python_floats_from_a_numpy_grid():
    f = random_smooth_field(np.random.default_rng(3), make_grid(20.0, 256), amp=0.3)
    p = ModelParams(0.1)
    grid = np.linspace(-0.8, 0.8, 9)
    res = classify_thm17(f, p, grid).to_dict()
    assert len(res["per_s"]) == 10
    assert res == classify_thm17(f, p, grid.tolist()).to_dict()
    for row in res["per_s"]:
        assert type(row["s"]) is float
        assert all(type(x) is float or x is None for iv in row["J"] for x in iv)


@pytest.mark.parametrize(
    "size,band",
    [(1.0, REL_TOL), (3.5e4, 3.5e4 * REL_TOL), (2e-7, 2e-7 * REL_TOL), (0.0, REL_TOL * 1e-30)],
)
def test_sign_dead_band_edges(size, band):
    # inside half the band there is no sign, at twice the band the sign of x;
    # a zero size leaves the band at its floor REL_TOL * 1e-30
    assert _sign(0.5 * band, size) == _sign(-0.5 * band, size) == _sign(0.0, size) == 0
    assert _sign(2.0 * band, size) == 1
    assert _sign(-2.0 * band, size) == -1


def test_sign_of_nan_is_zero():
    # a nan action gap must not read as "below d"
    assert _sign(math.nan, 1.0) == 0


@pytest.mark.parametrize("shift,case", [(0.0, "v"), (0.1, "ii")])
@pytest.mark.parametrize("sigma", [0.3, 1.0, 3.0])
def test_on_m_star_the_momentum_sign_decides(sigma, shift, case):
    # a Gaussian of mass M* with carrier e^{i kappa x}: P = l4/4 - kappa M,
    # zero to rounding at kappa = l4/(4M), negative beyond it; E > 0 here
    p = ModelParams(0.1)
    m_star = p.turning[1]
    g = make_grid(40.0, 1024)
    gauss = np.exp(-g.x**2 / (2.0 * sigma**2)).astype(complex)
    gauss *= math.sqrt(m_star / invariants(Field(g, gauss), p.b, 0.25).mass)
    inv = invariants(Field(g, gauss), p.b, 0.25)
    kappa = inv.l4 / (4.0 * inv.mass) + shift
    res = classify_thm17(Field(g, gauss * np.exp(1j * kappa * g.x)), p)
    assert res.energy > 0
    assert res.theorem17_case == case


def test_k_sign_is_the_dead_band_sign_of_k():
    f, p = _soliton_field(0.1, 1.0, 0.8, n=512)
    signs = set()
    for lam in (0.5, 0.9, 1.0, 1.2, 2.0):
        si = invariant_summary(Field(f.grid, lam * f.values), p, Frame.GAUGE)
        for omega, c in ((1.0, 0.8), (2.0, -0.3)):
            want = _sign(si.nehari(omega, c), si.grad_sq)
            assert k_sign(si, omega, c) == want
            signs.add(want)
    assert signs == {-1, 0, 1}


@pytest.mark.parametrize("omega,c", [(np.nan, 0.5), (1.0, np.inf), (-np.inf, 0.0)])
def test_k_sign_refuses_a_non_finite_k(omega, c):
    sp = SolitonParams(ModelParams(0.1), 1.0, 0.5)
    f = sample_varphi(sp, make_grid(suggested_half_length(sp), 256))
    si = invariants(f, 0.1, 0.25)
    with pytest.raises(ValueError, match="K is not finite"):
        k_sign(si, omega, c)


# --- the row kernel before it was fused, verbatim ------------------------------

_SEED_VERDICTS = {
    (True, True): "both",
    (True, False): "A_plus",
    (False, True): "A_minus",
    (False, False): "neither",
}


def _seed_curve(coeffs: tuple[float, float, float], s: float, d1: float = 0.0) -> tuple[float, float, float]:
    """Coefficients in mu of S(mu^2, 2 s mu) - d1 mu^2, from `_coeffs` of the record."""
    half_m, mom, e = coeffs
    return half_m - d1, s * mom, e


def _seed_sign_changes(a: float, b: float, c: float) -> list[float]:
    """Ascending real x where a x^2 + b x + c changes sign; a = 0 allowed."""
    if a == 0.0:
        return [-c / b] if b != 0.0 else []
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return []
    # q and c/q avoid the cancellation of -b + sqrt(disc) when |a c| << b^2
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return sorted((q / a, c / q))


def _seed_negative_intervals(a: float, b: float, c: float) -> list[tuple[float, float]]:
    """{mu > 0 : a mu^2 + b mu + c < 0} as a list of open intervals."""
    inf = math.inf
    roots = _seed_sign_changes(a, b, c)
    if not roots:  # one sign: that of a, or of c when a = b = 0
        return [(0.0, inf)] if (a or c) < 0 else []
    # a linear polynomial is a quadratic with its other root at -inf
    r1, r2 = roots if len(roots) == 2 else (-inf, roots[0])
    if (a or b) > 0:
        lo = max(0.0, r1)
        return [(lo, r2)] if r2 > lo else []
    return ([(0.0, r1)] if r1 > 0 else []) + [(max(0.0, r2), inf)]


def _seed_k_signs_on(intervals, kq) -> set[int]:
    """Signs the quadratic kq takes over a union of open intervals of mu > 0.

    -1 where the union meets {kq < 0}, +1 where it is not contained in it
    (a zero of kq counts as +1).
    """
    neg = _seed_negative_intervals(*kq)
    signs: set[int] = set()
    for lo, hi in intervals:
        inside = False
        for n_lo, n_hi in neg:
            if max(lo, n_lo) < min(hi, n_hi):
                signs.add(-1)
            inside = inside or (n_lo <= lo and hi <= n_hi)
        if not inside:
            signs.add(1)
    return signs


def _seed_scan(co, dil_co, p: ModelParams, s: float) -> dict:
    """`scan_curve` from `_coeffs` of the record (co) and of its dilation
    (dil_co), so that an s loop reads them once."""
    # the admissible range of `admissible_s_range`: (-1, s_hi), closed at s_hi for gamma > 0
    hi = p.s_hi
    if not (-1.0 < s < hi or (s == hi and p.gamma > 0)):
        raise RegionError(f"s={s} outside admissible range for b={p.b}")
    d1 = d_value(p, 1.0, 2.0 * s)
    j = _seed_negative_intervals(*_seed_curve(co, s, d1))
    signs = _seed_k_signs_on(j, _seed_curve(dil_co, s))
    return {
        "s": float(s),
        "verdict": _SEED_VERDICTS[1 in signs, -1 in signs],
        "J": [[float(lo), float(hi) if math.isfinite(hi) else None] for lo, hi in j],
        "k_signs": sorted(signs),
    }


# --- parity -------------------------------------------------------------------

# b = 0.1 and 0.0 close the s range at s_hi = 1; b = -0.3 (gamma < 0) leaves it open
_S_HI_OPEN = ModelParams(-0.3).s_hi
coefficient = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-297, -1e-297, 1.0, -1.0, 2.0, -2.0]),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
record = st.tuples(coefficient, coefficient, coefficient)
s_value = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5, 0.0, -0.0, _S_HI_OPEN, math.nextafter(_S_HI_OPEN, -1.0)]),
    st.floats(-1.0, 1.0),
)


def _row_or_refusal(scan, co, dil_co, p, s) -> str:
    try:
        return repr(scan(co, dil_co, p, s))
    except RegionError as exc:
        return repr(exc)


def _seed_roots_sound(co, dil_co, p, s) -> bool:
    """Whether the seed's float roots of both quadratics of the row hold: each
    is linear, or its b^2 - 4ac is a finite float of size at least 2^-900."""
    quads = (_seed_curve(co, s, d_value(p, 1.0, 2.0 * s)), _seed_curve(dil_co, s))
    return all(a == 0.0 or 2.0**-900 <= abs(b * b - 4.0 * a * c) < math.inf for a, b, c in quads)


def _mp_sign_changes(a: float, b: float, c: float) -> list[float]:
    """`_seed_sign_changes` at 60 digits: the roots of the float coefficients,
    each rounded once.  The q form, since (-b +- sqrt(D))/2a cancels even at
    80 digits on coefficients such as (1e-300, 1, -1)."""
    if a == 0.0:
        return [-c / b] if b != 0.0 else []
    sign = math.copysign(1.0, b)
    with mpmath.workdps(60):
        a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
        disc = b * b - 4 * a * c
        if disc <= 0:
            return []
        q = -(b + sign * mpmath.sqrt(disc)) / 2
        return sorted((float(q / a), float(c / q)))


def _mp_scan(co, dil_co, p, s) -> dict:
    """`_seed_scan` with the 60-digit roots of `_mp_sign_changes`."""
    with mock.patch.dict(globals(), _seed_sign_changes=_mp_sign_changes):
        return _seed_scan(co, dil_co, p, s)


def _assert_rows_agree(row: dict, ref: dict):
    """row is ref but for its J edges, each within 2 ulp of ref's."""
    assert {**row, "J": len(row["J"])} == {**ref, "J": len(ref["J"])}
    for got, want in zip(row["J"], ref["J"]):
        for x, y in zip(got, want):
            assert x == y or (None not in (x, y) and abs(x - y) <= 2.0 * math.ulp(y)), (row, ref)


# the one reference for `_scan`'s rows: `_seed_scan` has its own root and interval
# code, so a fault in `_negative_intervals` or `_VERDICTS` shows here.  Where the
# seed's b^2 - 4ac overflowed or left the normal floats, its roots are off, and the
# reference is the same kernel with the 60-digit roots of the same coefficients
@settings(derandomize=True, deadline=None, database=None, max_examples=800)
@given(st.sampled_from([0.1, 0.0, -0.3]), s_value, record, record, st.booleans())
# action gap linear (a = 0), K linear too
@example(0.1, 0.3, (0.5, 1.0, -1.0), (0.0, 1.0, -2.0), True)
# s = 0 and s = -0.0: both middle coefficients b vanish
@example(0.1, 0.0, (1.0, 5.0, -1.0), (-1.0, 3.0, 2.0), False)
@example(0.0, -0.0, (9.0, 5.0, -1.0), (1.0, 3.0, -2.0), False)
# a tiny leading coefficient of K, and a tiny downward one
@example(0.1, 1.0, (0.0, 1.0, -1.0), (1e-297, 1.0, -1.0), True)
@example(0.1, 1.0, (0.0, 0.0, -1.0), (-1e-116, -1.0, 1.0), True)
# roots at +-0.0: J = [(0.0, r)], as max(0.0, -0.0) keeps its first argument
@example(0.1, 0.5, (10.0, -1.0, -0.0), (1.0, -2.0, -0.0), False)
@example(0.1, 0.5, (10.0, 1.0, 0.0), (1.0, 2.0, 0.0), False)
# disc <= 0 on both quadratics
@example(0.1, 0.3, (10.0, 0.0, 1.0), (1.0, 0.0, 1.0), False)
@example(0.1, 0.3, (-10.0, 0.0, -1.0), (-1.0, 2.0, -1.0), False)
# the s = s_hi edges: admitted for gamma > 0, refused for gamma < 0
@example(0.1, 1.0, (10.0, -8.0, 1.0), (20.0, -30.0, 2.0), False)
@example(-0.3, _S_HI_OPEN, (10.0, -8.0, 1.0), (20.0, -30.0, 2.0), False)
# J = (0, 1) and K = 1 - mu: C = (0, 1), touching {K < 0} = (1, inf) at J's end
@example(0.1, 0.5, (0.0, 2.0, -1.0), (0.0, -2.0, 1.0), True)
# J = (0, 1) inside {K < 0} = (0, 1): C is empty, K < 0 on all of J
@example(0.1, 0.5, (0.0, 2.0, -1.0), (0.0, 2.0, -1.0), True)
# J = (1, inf) against K = mu - 1 and K = 1 - mu
@example(0.1, 0.5, (0.0, -2.0, 1.0), (0.0, 2.0, -1.0), True)
@example(0.1, 0.5, (0.0, -2.0, 1.0), (0.0, -2.0, 1.0), True)
# J = (0, 1) ends on the root 1 of K = (mu - 1)(mu - 3), whose negative interval is (1, 3)
@example(0.1, 1.0, (0.0, 1.0, -1.0), (1.0, -4.0, 3.0), True)
# J = (0, inf) against K = -(mu - 1)(mu - 3): C = [1, 3] between its negative intervals
@example(0.1, 1.0, (0.0, 0.0, 0.0), (-1.0, 4.0, -3.0), False)
# a double root of K = (mu - 1)^2 on J: its zero counts as K > 0
@example(0.1, 1.0, (0.0, 0.0, -1.0), (1.0, -2.0, 1.0), True)
# a double root of K = -(mu - 1)^2: no sign change, so {K < 0} is all of mu > 0
@example(0.1, 1.0, (0.0, 0.0, -1.0), (-1.0, 2.0, -1.0), True)
# a zero record: K vanishes identically on J = (0, inf)
@example(0.1, 0.5, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), False)
# b^2 - 4ac overflowing to inf - inf, with b^2 < 4ac: J, {K < 0} or both empty
@example(0.1, 1.0, (1e300, 1e300, 1e300), (1.0, -4.0, 3.0), False)
@example(0.1, 1.0, (0.0, 1.0, -1.0), (1e300, 1e300, 1e300), True)
@example(0.1, 1.0, (1e300, 1e300, 1e300), (1e300, 1e300, 1e300), False)
# roots past 1e154, where b^2 overflows: J = (1.7e154, inf), inside {K < 0} =
# (1.3e154, inf) in the second; in the third J = (0, inf) meets {K < 0} = (2e154, inf)
@example(0.1, -0.6123724356957945, (0.0, -2.1894858665067568e154, 0.0), (0.0, 0.0, 0.0), False)
@example(0.1, -0.6123724356957945, (0.0, -2.1894858665067568e154, 0.0), (-1.0, -2.1894858665067568e154, 0.0), False)
@example(0.1, 0.5, (1.0, 2.0, -1.0), (-1.0, 4e154, 0.0), False)
def test_scan_matches_seed_row(b, s, co, dil_co, gap_linear):
    p = ModelParams(b)
    if gap_linear:  # M/2 = d(1, 2s) exactly: the action gap has no mu^2 term
        try:
            co = (d_value(p, 1.0, 2.0 * s),) + co[1:]
        except RegionError:
            pass
    want = _row_or_refusal(_seed_scan, co, dil_co, p, s)
    if want.startswith("{") and not _seed_roots_sound(co, dil_co, p, s):
        _assert_rows_agree(_scan(co, dil_co, p, s), _mp_scan(co, dil_co, p, s))
    else:  # repr tells every float apart bit for bit, 0.0 from -0.0 too
        assert _row_or_refusal(_scan, co, dil_co, p, s) == want


_P01 = ModelParams(0.1)


@pytest.mark.parametrize(
    "s,co,dil_co",
    [
        (-0.612, (0.0, -3e154, 0.0), (0.0, 0.0, 0.0)),
        (1.0, (1e300, 1e300, 1e300), (1.0, -4.0, 3.0)),
        (1.0, (d_value(_P01, 1.0, 2.0), 1.0, -1.0), (1e300, 1e300, 1e300)),
        (1.0, (1e300, 1e300, 1e300), (1e300, 1e300, 1e300)),
        (-0.6123724356957945, (0.0, -2.1894858665067568e154, 0.0), (0.0, 0.0, 0.0)),
        (-0.6123724356957945, (0.0, -2.1894858665067568e154, 0.0), (-1.0, -2.1894858665067568e154, 0.0)),
        (0.5, (1.0, 2.0, -1.0), (-1.0, 4e154, 0.0)),
    ],
)
def test_rows_past_overflow_take_the_roots_of_their_float_coefficients(s, co, dil_co):
    # where b^2 - 4ac overflows the row still has the roots of its coefficients
    _assert_rows_agree(_scan(co, dil_co, _P01, s), _mp_scan(co, dil_co, _P01, s))


def test_a_root_past_1e154_is_the_correctly_rounded_root():
    # s P = 1.8e154 overflows b^2; this record once read J = [[inf, None]]
    row = _scan((0.0, -3e154, 0.0), (0.0, 0.0, 0.0), _P01, -0.612)
    assert row["J"] == [[2.3222304277544068e154, None]]


def test_a_root_past_the_floats_starts_no_piece_of_j():
    # the gap's mu^2 coefficient is one ulp of d(1, 1) below 0, so its large
    # root, about 1e300 / 4e-16, is past the floats: J is the piece below the
    # small root alone, with no empty piece [inf, None]
    d = d_value(_P01, 1.0, 1.0)
    co = (math.nextafter(d, 0.0), 2e300, -1.0)
    assert _scan(co, (1.0, 0.0, 1.0), _P01, 0.5)["J"] == [[0.0, 1e-300]]
    # the same gap through scan_curve, on a record built with exactly these M/2, P and E
    rec = _record(_P01.b, 2.0 * co[0], co[2], co[1])
    assert (0.5 * rec.mass, rec.momentum, rec.energy) == co
    assert scan_curve(rec, _P01, 0.5)["J"] == [[0.0, 1e-300]]


# --- the case table on records built by hand ------------------------------------


def _record(b, mass, energy, momentum):
    """A well-frame record with ||v_x||^2 = 1, ||v||_4^4 = 1 and the given M, E, P."""
    sextic = 1.0 / 32.0 + b / 6.0  # E = ||v_x||^2 / 2 - sextic ||v||_6^6 at a = 1/4
    return Invariants(b, 0.25, 1.0, mass, momentum - 0.25, 1.0, (0.5 - energy) / sextic, 0.0)


@pytest.mark.parametrize(
    "mass_over_m_star,energy,momentum,case",
    [
        (2.0, 0.1, 0.5, "none"),
        (2.0, 1e-9, 0.0, "v"),
        (2.0, -1e-9, 0.0, "v"),  # E inside the dead-band: its sign is 0, not that of its rounding
    ],
)
def test_case_table_reads_only_the_dead_band_signs(monkeypatch, mass_over_m_star, energy, momentum, case):
    p = ModelParams(0.1)
    rec = _record(p.b, mass_over_m_star * p.turning[1], energy, momentum)
    assert math.isclose(rec.energy, energy, rel_tol=1e-6) and rec.momentum == momentum
    monkeypatch.setattr(classifier, "invariant_summary", lambda f, p, a: rec)
    g = make_grid(20.0, 64)
    assert classify_thm17(Field(g, np.exp(-g.x**2)), p).theorem17_case == case


def test_classify_refuses_b_below_critical():
    g = make_grid(20.0, 256)
    with pytest.raises(RegionError, match="b >= -3/16"):
        classify_thm17(Field(g, np.exp(-g.x**2)), ModelParams(-0.2))


def test_classify_refuses_b_below_critical_before_reading_the_field():
    # this field's integrals overflow, which reading it would refuse with GridError
    g = make_grid(20.0, 256)
    with pytest.raises(RegionError, match="b >= -3/16"):
        classify_thm17(Field(g, 1e200 * np.exp(-g.x**2)), ModelParams(-0.2))
