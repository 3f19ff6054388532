"""The certified set C on a curve and the case-ii witness read off it.

`earlier_case_ii_witness` is the doubling search that gave the case-ii
witness before the certified set took over, kept verbatim but for its name.
The least-bound witness must certify wherever the doubling search did, with
a bound no larger.  The rows of `_scan` are checked against the seed row
kernel in `test_classifier.test_scan_matches_seed_row`.
"""
import math

import numpy as np
import pytest

from dnls_well import classifier
from dnls_well.classifier import (
    _coeffs,
    _curve,
    apriori_bound,
    classify_thm17,
    invariant_summary,
    member,
)
from dnls_well.closedform import ModelParams, d_value
from dnls_well.evolve import EvolveConfig, evolve
from dnls_well.field import Field, make_grid
from dnls_well.functionals import Frame, Invariants

from conftest import random_smooth_field

_EARLIER_MU_CAP = float(2**30)


def earlier_case_ii_witness(si, dil, p: ModelParams, s: float):
    """Doubling search for mu with action gap < 0 and K > 0 at (mu^2, 2 s mu).

    K is read from dil = si.dilated().  Such a point certifies membership in
    A+.  Returns mu, or None if none is found below the cap (never a
    negative claim).
    """
    d1 = d_value(p, 1.0, 2.0 * s)
    mu = 1.0
    while mu <= _EARLIER_MU_CAP:
        omega, c = mu * mu, 2.0 * s * mu
        if si.action(omega, c) < omega * d1 and dil.action(omega, c) > 0:
            return mu
        mu *= 2.0
    return None


# --- the certified set C on a curve ----------------------------------------------


def test_certified_pieces_at_touching_ends_and_a_double_root():
    p = ModelParams(0.1)
    d1 = d_value(p, 1.0, 1.0)
    # J = (0, 1): K = 1 - mu leaves all of it and K = mu - 1 none; at s = 1 K = (mu - 1)(mu - 3) leaves it all
    assert _curve((d1, 2.0, -1.0), (0.0, -2.0, 1.0), p, 0.5)[1:] == ([(0.0, 1.0)], False)
    assert _curve((d1, 2.0, -1.0), (0.0, 2.0, -1.0), p, 0.5)[1:] == ([], True)
    d1 = d_value(p, 1.0, 2.0)
    assert _curve((d1, 1.0, -1.0), (1.0, -4.0, 3.0), p, 1.0)[1:] == ([(0.0, 1.0)], False)
    # J = (0, inf) and K = (mu - 1)(mu - 3): C = (0, 1] and [3, inf), K < 0 on (1, 3)
    assert _curve((d1, 0.0, -1.0), (1.0, -4.0, 3.0), p, 1.0)[1:] == ([(0.0, 1.0), (3.0, math.inf)], True)
    # K = (mu - 1)^2 vanishes at 1 only: C is J
    assert _curve((d1, 0.0, -1.0), (1.0, -2.0, 1.0), p, 1.0)[1:] == ([(0.0, math.inf)], False)
    # J = (1, inf) and K = (mu - 2)(mu - 4): C = (1, 2] and [4, inf)
    d1 = d_value(p, 1.0, 1.0)
    assert _curve((d1, -2.0, 1.0), (1.0, -12.0, 8.0), p, 0.5)[1:] == ([(1.0, 2.0), (4.0, math.inf)], True)


# --- the witness: no worse than the doubling search, and certified ---------------


def _draws(b, n, lo, hi, seed, L=20.0, N=256):
    """n `random_smooth_field` draws at b, each scaled to mass u M* with u
    uniform in (lo, hi) drawn after its field; for b <= 0 M* is that of b."""
    p = ModelParams(b)
    g = make_grid(L, N)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        f = random_smooth_field(rng, g, amp=1.0)
        mass = float(np.sum(np.abs(f.values) ** 2) * g.dx)
        out.append(Field(g, math.sqrt(rng.uniform(lo, hi) * p.turning[1] / mass) * f.values))
    return p, out


def _check_witness(f, p):
    """The case-ii witness certifies where the doubling search does, with a bound
    no larger, and `member` puts f in A+ at a point of its piece near it."""
    res = classify_thm17(f, p)
    si = invariant_summary(f, p, Frame.GAUGE)
    s_w = 1.0 if res.s_star is None else res.s_star
    if res.theorem17_case != "ii":
        assert not res.global_existence and res.apriori_bound is None
        return res
    mu_old = earlier_case_ii_witness(si, si.dilated(), p, s_w)
    assert res.global_existence == (mu_old is not None)
    if mu_old is None:
        return res
    assert res.apriori_bound <= apriori_bound(si, mu_old**2, 2.0 * s_w * mu_old) * (1.0 + 1e-12)
    mu = res.witness_c / (2.0 * s_w)
    assert res.witness_omega == pytest.approx(mu * mu, rel=1e-15)
    assert res.apriori_bound == apriori_bound(si, res.witness_omega, res.witness_c)
    cert = _curve(_coeffs(si), _coeffs(si.dilated()), p, s_w)[1]
    lo, hi = next((lo, hi) for lo, hi in cert if lo * (1.0 - 1e-15) <= mu <= hi * (1.0 + 1e-15))
    inner = min(max(mu, lo * (1.0 + 1e-3)), hi * (1.0 - 1e-3))
    assert abs(inner - mu) <= 1e-3 * mu * (1.0 + 1e-12)
    assert member(si, p, inner**2, 2.0 * s_w * inner) == {"in_A": True, "K_sign": 1}
    return res


def test_witness_on_the_roadmap_draws_bounds_the_flow():
    # b = 0.1, L = 20, N = 256, seed 7: 24 draws at 0.2-1.6 M*, 12 of them case ii
    p, fields = _draws(0.1, 24, 0.2, 1.6, seed=7)
    n_ii = 0
    for f in fields:
        res = _check_witness(f, p)
        if res.theorem17_case != "ii":
            continue
        assert res.global_existence
        traj = evolve(
            f, EvolveConfig(b=p.b, gauge_a=0.25, t_end=1.0, record_every=50),
            monitor=(res.witness_omega, res.witness_c),
        )
        assert traj.status == "ok" and traj.apriori_bound == pytest.approx(res.apriori_bound, rel=1e-12)
        peak = max(grad for _, grad in traj.grad_history)
        assert peak <= res.apriori_bound * (1.0 + 1e-4)
        n_ii += 1
    assert n_ii == 12


@pytest.mark.parametrize("b", [0.0, 0.1, -0.1])
def test_witness_on_small_mass_fields(b):
    p, fields = _draws(b, 20, 0.02, 0.95, seed=11)
    cases = [_check_witness(f, p).theorem17_case for f in fields]
    assert cases.count("ii") >= 15


def test_witness_is_the_least_point_over_the_pieces_of_c(monkeypatch):
    # a hand-built case-ii record (E < 0) whose C on the s* curve has two pieces, the
    # first starting at a root of K: the witness is that closed end, and a dense scan
    # of the pointwise test through `Invariants.nehari` finds no lower bound
    p = ModelParams(0.1)
    rec = Invariants(0.1, 0.25, 0.37, 0.4, 0.23, 85.0, 344.0, 0.0)
    monkeypatch.setattr(classifier, "invariant_summary", lambda f, p, a: rec)
    g = make_grid(20.0, 64)
    res = classify_thm17(Field(g, np.exp(-g.x**2)), p)
    s = res.s_star
    cert = _curve(_coeffs(rec), _coeffs(rec.dilated()), p, s)[1]
    assert res.theorem17_case == "ii" and len(cert) == 2
    assert res.witness_c == 2.0 * s * cert[0][0]
    d1 = d_value(p, 1.0, 2.0 * s)
    bounds = [
        apriori_bound(rec, m * m, 2.0 * s * m)
        for m in np.geomspace(1e-2, 1e2, 40001)
        if rec.action(m * m, 2.0 * s * m) < m * m * d1 and rec.nehari(m * m, 2.0 * s * m) > 0
    ]
    assert min(bounds) >= res.apriori_bound
    assert min(bounds) == pytest.approx(res.apriori_bound, rel=1e-3)


def test_zero_field_is_certified_at_the_closure_point_mu_0():
    # K vanishes identically and the action gap is -d mu^2 < 0, so C = (0, inf)
    # and B = 8E = 0 everywhere: the least point is the closure point mu = 0
    p = ModelParams(0.1)
    res = classify_thm17(Field(make_grid(20.0, 64), np.zeros(64, dtype=complex)), p)
    assert res.theorem17_case == "ii" and res.global_existence
    assert (res.witness_omega, res.witness_c, res.apriori_bound) == (0.0, 0.0, 0.0)
    assert [row["verdict"] for row in res.per_s] == ["A_plus"]
