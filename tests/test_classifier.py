"""Well-membership machinery: invariants, K/action algebra, curve scans."""
import numpy as np
import pytest

from dnls_well.classifier import (
    _case_ii_witness,
    _k_signs_on,
    _negative_intervals,
    classify_thm17,
    invariant_summary,
    member,
    nehari_normalize,
    critical_b_membership,
    scan_curve,
)
from dnls_well.closedform import d_value, mass_threshold, s_star, soliton_energy, soliton_mass, soliton_momentum
from dnls_well.field import Field, make_grid
from dnls_well.functionals import Frame, invariants
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
    direct = invariants(Field(f.grid, lam * f.values), p.b, Frame.GAUGE.a).action(1.0, 0.4)
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
    assert _k_signs_on([(0.0, np.inf)], (-1e-116, -1.0, 1.0)) == {-1, 1}
    # K = 1 - mu is negative only beyond the end of J = (0, 1)
    assert _k_signs_on([(0.0, 1.0)], (0.0, -1.0, 1.0)) == {1}


def test_scan_curve_small_field_is_a_plus(rng):
    g = make_grid(30.0, 512)
    p = ModelParams(0.1)
    f = random_smooth_field(rng, g, amp=0.05)
    si = invariant_summary(f, p, Frame.GAUGE)
    res = scan_curve(si, p, 0.3)
    assert res["verdict"] == "A_plus"
    assert res["J"], "small data must enter the well somewhere on the curve"


def test_scan_curve_rejects_inadmissible_s():
    p = ModelParams(-0.3)  # gamma < 0: s must stay below -s_lower
    g = make_grid(30.0, 256)
    si = invariant_summary(Field(g, np.exp(-g.x**2)), p, Frame.GAUGE)
    with pytest.raises(RegionError):
        scan_curve(si, p, 0.5)


def test_case_ii_witness_on_small_data(rng):
    g = make_grid(30.0, 512)
    p = ModelParams(0.0)
    f = random_smooth_field(rng, g, amp=0.05)
    si = invariant_summary(f, p, Frame.GAUGE)
    mu = _case_ii_witness(si, p, s=1.0)
    assert mu is not None
    d1 = d_value(p, 1.0, 2.0)
    gap = si.energy + 0.5 * mu * mu * (si.mass - 2.0 * d1) + mu * si.momentum
    assert gap < 0 and si.nehari(mu * mu, 2.0 * mu) > 0


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


def test_critical_b_route_certifies_membership(rng):
    p = ModelParams(-3.0 / 16.0)
    g = make_grid(30.0, 512)
    f = random_smooth_field(rng, g, amp=1.0)
    si = invariant_summary(f, p, Frame.GAUGE)
    out = critical_b_membership(si, p)
    assert out["verdict"] == "A_plus"
    assert -1.0 < out["s"] < 0.0
    res = classify_thm17(f, p)
    assert res.theorem17_case == "critical-b" and res.global_existence


def test_critical_b_route_rejected_elsewhere(rng):
    p = ModelParams(0.1)
    g = make_grid(30.0, 256)
    si = invariant_summary(Field(g, np.exp(-g.x**2)), p, Frame.GAUGE)
    with pytest.raises(RegionError):
        critical_b_membership(si, p)


def test_nehari_normalize_soliton_is_identity():
    f, p = _soliton_field(0.05, 1.0, 0.4)
    si = invariant_summary(f, p, Frame.GAUGE)
    assert nehari_normalize(si, 1.0, 0.4) == pytest.approx(1.0, abs=1e-6)


def test_nehari_normalized_action_dominates_d(rng):
    g = make_grid(30.0, 512)
    p = ModelParams(0.0)
    for _ in range(5):
        f = random_smooth_field(rng, g, amp=0.8)
        si = invariant_summary(f, p, Frame.GAUGE)
        lam0 = nehari_normalize(si, 1.0, 0.0)
        s_val = si.scaled(lam0).action(1.0, 0.0)
        assert s_val >= d_value(p, 1.0, 0.0) * (1.0 - 1e-9)
