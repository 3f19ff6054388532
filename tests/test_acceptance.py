"""Acceptance suite: one test per shipped guarantee, at the stated tolerances.

Run with -v to get one pass/fail line per criterion.
"""
import math

import numpy as np

from dnls_well import closedform as cf
from dnls_well import oracle
from dnls_well.classifier import (
    classify_thm17,
    invariant_summary,
    member,
    nehari_normalize,
    critical_b_membership,
    scan_curve,
)
from dnls_well.evolve import EvolveConfig, evolve, gauge_consistency, profile_fit
from dnls_well.field import Field, l2_norm_sq, make_grid
from dnls_well.functionals import Frame, invariants
from dnls_well.solitons import (
    ModelParams,
    SolitonParams,
    algebraic_tail_l4,
    algebraic_tail_mass,
    phi_one_two,
    phi_sq,
    s_lower,
    sample_phi,
    sample_varphi,
    suggested_half_length,
)

from conftest import random_smooth_field

SEED = 20260826


def _random_exponential_sets(rng, regime: str, n=10):
    """Random admissible (b, omega, c) with exponential decay, per gamma regime."""
    out = []
    while len(out) < n:
        if regime == "positive":
            b = rng.uniform(-3.0 / 16.0 + 0.02, 0.5)
            s = rng.uniform(-0.95, 0.95)
        elif regime == "zero":
            b = -3.0 / 16.0
            s = rng.uniform(-0.95, -0.05)
        else:
            b = rng.uniform(-0.6, -3.0 / 16.0 - 0.02)
            sl = s_lower(ModelParams(b))
            if sl > 0.9:
                continue
            s = rng.uniform(-0.95, -sl - 0.02)
        omega = rng.uniform(0.5, 2.0)
        out.append((b, omega, 2.0 * s * math.sqrt(omega)))
    return out


# --------------------------------------------------------------------------
def test_criterion_01_closed_form_constants():
    tol = 1e-12
    assert abs(cf.mass_threshold(0.0) - 4.0 * np.pi) < tol
    assert abs(cf.mass_threshold(-3.0 / 32.0) - 8.0 * np.sqrt(2.0) * np.pi) < tol
    p0 = ModelParams(0.0)
    assert abs(cf.soliton_mass(p0, 1.0, 2.0) - 4.0 * np.pi) < tol
    assert abs(cf.soliton_mass(p0, 1.0, 0.0) - 2.0 * np.pi) < tol
    assert abs(cf.soliton_momentum(p0, 1.0, 0.0) - 4.0) < tol
    assert abs(cf.cosh_integral(1.0, 1) - 2.0) < tol
    assert abs(cf.cosh_integral(1.0, 2) - 2.0 / 3.0) < tol


def test_criterion_02_closed_form_vs_quadrature():
    rng = np.random.default_rng(SEED)
    for regime in ("positive", "zero", "negative"):
        for b, omega, c in _random_exponential_sets(rng, regime):
            p = ModelParams(b)
            assert abs(
                cf.soliton_mass(p, omega, c) - oracle.mass_by_quadrature(p, omega, c)
            ) < 1e-8
            assert abs(
                cf.soliton_momentum(p, omega, c)
                - oracle.momentum_by_quadrature(p, omega, c)
            ) < 1e-8
    # algebraic regime: finite-window quadrature plus the analytic 1/x tails
    for _ in range(10):
        b = rng.uniform(-3.0 / 16.0 + 0.02, 0.5)
        omega = rng.uniform(0.5, 2.0)
        c = 2.0 * math.sqrt(omega)
        p = ModelParams(b)
        sp = SolitonParams(p, omega, c)
        L = 50.0
        m_quad = oracle.adaptive_quad(
            lambda x: phi_sq(sp, x), -L, L
        ) + algebraic_tail_mass(sp, L)
        l4_quad = oracle.adaptive_quad(
            lambda x: phi_sq(sp, x) ** 2, -L, L
        ) + algebraic_tail_l4(sp, L)
        p_quad = -0.5 * c * m_quad + 0.25 * l4_quad
        assert abs(cf.soliton_mass(p, omega, c) - m_quad) < 1e-4
        assert abs(cf.soliton_momentum(p, omega, c) - p_quad) < 1e-4


def test_criterion_03_pohozaev_identity():
    rng = np.random.default_rng(SEED)
    sets = []
    for regime in ("positive", "zero", "negative"):
        sets += _random_exponential_sets(rng, regime)
    for b, omega, c in sets:
        p = ModelParams(b)
        e = cf.soliton_energy(p, omega, c)
        mom = cf.soliton_momentum(p, omega, c)
        assert abs(e + 0.25 * c * mom) / (abs(e) + abs(mom) + 1e-30) < 1e-8
    # sampled solitons through the functionals module
    for b, omega, c in sets[::5]:
        p = ModelParams(b)
        sp = SolitonParams(p, omega, c)
        g = make_grid(suggested_half_length(sp), 2048)
        inv = invariants(sample_varphi(sp, g), p.b, Frame.GAUGE.a)
        e, mom = inv.energy, inv.momentum
        assert abs(e + 0.25 * c * mom) / (abs(e) + abs(mom) + 1e-30) < 1e-5


def test_criterion_04_monotonicity_suite():
    # mass strictly increasing in s, for every gamma regime
    for b in (0.1, 0.0, -0.1):
        p = ModelParams(b)
        lo, hi, closed = cf.admissible_s_range(p)
        ss = np.linspace(lo + 0.02, hi - 0.02 if not closed else hi, 25)
        masses = [cf.soliton_mass(p, 1.0, 2.0 * s) for s in ss]
        assert all(a < bb for a, bb in zip(masses, masses[1:]))
    # d(1, 2s): increasing up to s* for b > 0, globally for -3/16 < b <= 0
    b = 0.1
    p = ModelParams(b)
    sd = cf.s_star(b)
    ss = np.linspace(-0.9, sd, 30)
    dvals = [cf.d_value(p, 1.0, 2.0 * s) for s in ss]
    assert all(a < bb for a, bb in zip(dvals, dvals[1:]))
    for b in (0.0, -0.1):
        p = ModelParams(b)
        lo, hi, closed = cf.admissible_s_range(p)
        ss = np.linspace(lo + 0.02, hi if closed else hi - 1e-4, 30)
        dvals = [cf.d_value(p, 1.0, 2.0 * s) for s in ss]
        assert all(a < bb for a, bb in zip(dvals, dvals[1:]))
    # finite-difference derivative of d along the curve equals the momentum
    h = 1e-5
    for b, s in ((0.1, 0.3), (0.1, -0.4), (0.0, -0.6), (-0.1, -0.5)):
        p = ModelParams(b)
        fd = (cf.d_value(p, 1.0, 2.0 * (s + h)) - cf.d_value(p, 1.0, 2.0 * (s - h))) / (
            2.0 * h
        )
        mom = cf.soliton_momentum(p, 1.0, 2.0 * s)
        assert abs(fd - mom) / abs(mom) < 1e-4
    # the turning point zeroes the momentum and moves the right way in b
    for b in (1e-3, 1e-1, 0.5):
        sd = cf.s_star(b)
        assert abs(cf.soliton_momentum(ModelParams(b), 1.0, 2.0 * sd)) < 1e-10
    assert 0.0 < cf.s_star(1e-1) < cf.s_star(1e-3) < 1.0


def test_criterion_05_shooting_oracle():
    cases = [
        (0.0, 1.0, 0.0, 18.0),
        (0.1, 1.0, 0.8, 20.0),
        (3.0 / 16.0, 1.0, 1.0, 20.0),
        (-0.1, 1.0, -0.5, 18.0),
        (-0.5, 1.0, -1.9, 25.0),
    ]
    for b, omega, c, L in cases:
        p = ModelParams(b)
        sp = SolitonParams(p, omega, c)
        x, phi = oracle.ode_profile(p, omega, c, half_length=L, n=1024)
        assert np.max(np.abs(phi - np.sqrt(phi_sq(sp, x)))) < 1e-6


def test_criterion_06_evolution_conservation():
    g = make_grid(40.0, 1024)
    mu = 4.0 * np.pi / 40.0  # periodic carrier wavenumber
    gauss = Field(g, 0.8 * np.exp(-0.25 * g.x**2) * np.exp(1j * mu * g.x))
    for b in (0.0, 0.1, -0.1):
        p = ModelParams(b)
        # smooth-data conservation
        traj = evolve(gauss, EvolveConfig(b=b, t_end=1.0))
        assert traj.status == "ok"
        worst = max(max(r["dE"], r["dM"], r["dP"]) for r in traj.drift)
        assert worst < 1e-6
        # standing wave: c = 0 soliton rotates by e^{i omega t}
        sp = SolitonParams(p, 1.0, 0.0)
        f = sample_phi(sp, g)
        traj = evolve(f, EvolveConfig(b=b, t_end=1.0))
        worst = max(max(r["dE"], r["dM"], r["dP"]) for r in traj.drift)
        assert worst < 1e-6
        expect = np.exp(1j * traj.times[-1]) * f.values
        err = np.sqrt(np.sum(np.abs(traj.final.values - expect) ** 2) * g.dx)
        assert err < 1e-5
        # traveling soliton: the modulus translates at speed c
        c = 0.5
        sp = SolitonParams(p, 1.0, c)
        f = sample_phi(sp, g)
        traj = evolve(f, EvolveConfig(b=b, t_end=1.0))
        worst = max(max(r["dE"], r["dM"], r["dP"]) for r in traj.drift)
        assert worst < 1e-6

        def peak(field):
            a = np.abs(field.values)
            i = int(np.argmax(a))
            im, ip = (i - 1) % g.N, (i + 1) % g.N
            # parabolic interpolation of the maximum
            denom = a[im] - 2.0 * a[i] + a[ip]
            shift = 0.5 * (a[im] - a[ip]) / denom if denom != 0 else 0.0
            return g.x[i] + shift * g.dx

        travelled = peak(traj.final) - peak(f)
        assert abs(travelled - c * traj.times[-1]) < 2.0 * g.dx


def test_criterion_07_gauge_consistency():
    rng = np.random.default_rng(SEED)
    g = make_grid(20.0, 512)
    data = [
        random_smooth_field(rng, g, amp=0.5),
        random_smooth_field(rng, g, amp=0.3),
        Field(g, 0.6 * np.exp(-0.5 * g.x**2, dtype=complex)),
    ]
    for f in data:
        assert gauge_consistency(f, 0.1, t_end=0.5) < 1e-5


def test_criterion_08_flow_invariance():
    plus_specs = [
        (0.0, 1.0, 0.0, 0.85),
        (0.0, 1.0, 0.6, 0.9),
        (0.1, 1.0, 0.4, 0.8),
        (0.1, 1.2, -0.5, 0.9),
        (0.15, 1.0, 0.8, 0.85),
        (0.05, 0.8, 0.3, 0.9),
        (-0.1, 1.0, -0.3, 0.85),
        (-0.1, 1.0, 0.5, 0.9),
        (0.2, 1.0, 0.0, 0.7),
        (0.0, 1.5, -0.8, 0.88),
    ]
    minus_specs = [
        (0.0, 1.0, 0.0, 1.2),
        (0.1, 1.0, 0.4, 1.15),
        (0.1, 1.0, -0.5, 1.25),
        (-0.1, 1.0, 0.5, 1.2),
        (0.05, 1.2, 0.3, 1.18),
    ]
    for specs, want in ((plus_specs, 1), (minus_specs, -1)):
        for b, omega, c, lam in specs:
            p = ModelParams(b)
            sp = SolitonParams(p, omega, c)
            g = make_grid(suggested_half_length(sp), 512)
            f = Field(g, lam * sample_varphi(sp, g).values)
            si = invariant_summary(f, p, Frame.GAUGE)
            cert = member(si, p, omega, c)
            assert cert == {"in_A": True, "K_sign": want}, (b, omega, c, lam)
            traj = evolve(
                f, EvolveConfig(b=b, gauge_a=0.25, t_end=1.0), monitor=(omega, c)
            )
            assert traj.status == "ok"
            assert all(sign == want for _, sign in traj.k_signs), (b, omega, c, lam)
            if want == 1:
                bound = traj.apriori_bound
                assert all(
                    grad <= bound * (1.0 + 1e-4) for _, grad in traj.grad_history
                )


def test_criterion_09_classifier_theorem_suite():
    rng = np.random.default_rng(SEED)
    p = ModelParams(0.1)

    # case (ii): small mass comes with a certified well membership
    g = make_grid(30.0, 512)
    small = random_smooth_field(rng, g, amp=0.05)
    res = classify_thm17(small, p)
    assert res.theorem17_case == "ii" and res.global_existence

    # case (iii): oscillation pushes any profile into A+ at s = 1, and a
    # backward carrier lands in A- at s = -(1 - eps)
    p0 = ModelParams(0.0)
    psi = random_smooth_field(rng, g, amp=0.6).values
    step = np.pi / g.L
    found_plus = found_minus = None
    mu = step
    while mu < 2**20 and (found_plus is None or found_minus is None):
        if found_plus is None:
            f = Field(g, np.exp(1j * mu * g.x) * psi)
            si = invariant_summary(f, p0, Frame.GAUGE)
            r = member(si, p0, mu * mu, 2.0 * mu)
            if r == {"in_A": True, "K_sign": 1}:
                found_plus = mu
        if found_minus is None:
            s = -0.9
            f = Field(g, np.exp(1j * s * mu * g.x * 2.0) * psi)
            si = invariant_summary(f, p0, Frame.GAUGE)
            r = member(si, p0, mu * mu, 2.0 * s * mu)
            if r == {"in_A": True, "K_sign": -1}:
                found_minus = mu
        mu *= 2.0
    assert found_plus is not None and found_minus is not None

    # case (iv): negative energy data
    sp = SolitonParams(p, 1.0, 1.9)
    g4 = make_grid(suggested_half_length(sp), 1024)
    big = Field(g4, 1.8 * sample_varphi(sp, g4).values)
    res = classify_thm17(big, p)
    assert res.theorem17_case == "iv"
    for row in res.per_s:
        assert row["verdict"] in ("A_minus", "neither")

    # case (v): nonnegative energy, supercritical mass, zero momentum
    gv = make_grid(40.0, 1024)
    base = np.exp(-((gv.x / 8.0) ** 2))
    amp = math.sqrt(1.1 * cf.mass_threshold(p.b) / l2_norm_sq(Field(gv, base + 0j)))

    def mom_of(beta):
        f = Field(gv, amp * base * np.exp(1j * beta * np.sin(np.pi * gv.x / gv.L)))
        return invariant_summary(f, p, Frame.GAUGE).momentum

    # bisection for the zero of the momentum in beta, to a 1e-14 bracket
    lo, hi = -2.0, 2.0
    lo_positive = mom_of(lo) > 0.0
    assert lo_positive != (mom_of(hi) > 0.0)
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if (mom_of(mid) > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    beta0 = 0.5 * (lo + hi)
    fv = Field(gv, amp * base * np.exp(1j * beta0 * np.sin(np.pi * gv.x / gv.L)))
    res = classify_thm17(fv, p, s_grid=np.linspace(-0.8, 0.8, 9))
    assert res.theorem17_case == "v"
    assert all(row["verdict"] == "neither" for row in res.per_s)

    # case (vi-a): the turning-point soliton sits on the boundary
    sd = cf.s_star(p.b)
    sp = SolitonParams(p, 1.0, 2.0 * sd)
    gb = make_grid(suggested_half_length(sp), 4096)
    res = classify_thm17(sample_varphi(sp, gb), p)
    assert res.theorem17_case == "vi-a" and res.boundary_soliton

    # case (i) disjointness: above the threshold no field shows both signs
    gi = make_grid(20.0, 256)
    m_star = cf.mass_threshold(p.b)
    s_checks = (-0.5, 0.2, cf.s_star(p.b))
    for _ in range(1000):
        f = random_smooth_field(rng, gi, amp=1.0)
        scale = math.sqrt(m_star * (1.0 + rng.uniform(0.0, 2.0)) / l2_norm_sq(f))
        si = invariant_summary(Field(gi, scale * f.values), p, Frame.GAUGE)
        for s in s_checks:
            assert scan_curve(si, p, s)["verdict"] != "both"

    # the b = -3/16 route certifies membership for arbitrary data
    pc = ModelParams(-3.0 / 16.0)
    for _ in range(100):
        f = random_smooth_field(rng, gi, amp=rng.uniform(0.2, 2.0))
        si = invariant_summary(f, pc, Frame.GAUGE)
        assert critical_b_membership(si, pc)["verdict"] == "A_plus"


def test_criterion_10_nehari_minimality():
    rng = np.random.default_rng(SEED)
    g = make_grid(25.0, 512)
    p = ModelParams(0.0)
    for omega, c in ((1.0, 0.0), (1.0, 1.0)):
        d = cf.d_value(p, omega, c)
        for _ in range(100):
            f = random_smooth_field(rng, g, amp=rng.uniform(0.2, 1.5))
            si = invariant_summary(f, p, Frame.GAUGE)
            lam0 = nehari_normalize(si, omega, c)
            assert si.scaled(lam0).action(omega, c) >= d * (1.0 - 1e-3)


def test_criterion_11_profile_fit():
    rng = np.random.default_rng(SEED)
    g = make_grid(60.0, 2048)
    for theta, y, lam in ((0.7, -3.0, 1.0), (2.1, 5.5, 0.7), (5.0, 0.0, 1.4)):
        vals = np.exp(1j * theta) / np.sqrt(lam) * phi_one_two((g.x - y) / lam)
        out = profile_fit(Field(g, vals))
        assert abs(out["theta"] - theta) < 1e-3
        assert abs(out["y"] - y) < 1e-3
        assert out["residual_h1"] < 1e-4
        noise = random_smooth_field(rng, g, amp=1.0).values
        scale = 0.01 * np.max(np.abs(vals)) / np.max(np.abs(noise))
        out = profile_fit(Field(g, vals + scale * noise))
        assert abs(out["theta"] - theta) < 5e-2
        assert abs(out["y"] - y) < 5e-2
        assert abs(out["lam"] - lam) < 5e-2
