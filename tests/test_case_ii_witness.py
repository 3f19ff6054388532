"""The certified set C on a curve and the case-ii witness read off it.

`earlier_scan` is the per-s row kernel as it was before the certified set
took over its K-sign test, and `earlier_case_ii_witness` the doubling
search that gave the case-ii witness; both are kept verbatim but for their
names.  The rows of `_scan` must equal `earlier_scan`'s to the bit, and the
least-bound witness must certify wherever the doubling search did, with a
bound no larger.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dnls_well import classifier
from dnls_well.classifier import (
    _VERDICTS,
    _coeffs,
    _curve,
    _negative_intervals,
    _scan,
    apriori_bound,
    classify_thm17,
    invariant_summary,
    member,
)
from dnls_well.closedform import ModelParams, RegionError, d_value
from dnls_well.evolve import EvolveConfig, evolve
from dnls_well.field import Field, make_grid
from dnls_well.functionals import Frame, Invariants

from conftest import random_smooth_field

_EARLIER_MU_CAP = float(2**30)


def earlier_scan(co, dil_co, p: ModelParams, s: float) -> dict:
    """`scan_curve` at a float s from `_coeffs` of the record (co) and of its
    dilation (dil_co), so that an s loop reads them once.

    J is where the action gap (M/2 - d(1, 2s)) mu^2 + s P mu + E is negative,
    and K is the quadratic of dil_co; K < 0 on J where an interval of J meets
    {K < 0}, and K >= 0 on J unless each interval of J lies inside one of
    {K < 0} (a zero of K counts as K > 0).
    """
    half_m, mom, e = co
    try:  # at (1, 2s) the kernel's region test is exactly the admissible s range
        j = _negative_intervals(half_m - d_value(p, 1.0, 2.0 * s), s * mom, e)
    except RegionError:
        raise RegionError(f"s={s} outside admissible range for b={p.b}") from None
    half_m, mom, e = dil_co
    neg = _negative_intervals(half_m, s * mom, e)
    plus = minus = False
    for lo, hi in j:
        inside = False
        for n_lo, n_hi in neg:
            if max(lo, n_lo) < min(hi, n_hi):
                minus = True
            inside = inside or (n_lo <= lo and hi <= n_hi)
        plus = plus or not inside
    verdict, signs = _VERDICTS[plus, minus]
    return {
        "s": s,
        "verdict": verdict,
        "J": [[lo, hi if math.isfinite(hi) else None] for lo, hi in j],
        "k_signs": list(signs),
    }


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


# --- rows: bit-identical to the earlier kernel ------------------------------------

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


@settings(derandomize=True, deadline=None, database=None, max_examples=800)
@given(st.sampled_from([0.1, 0.0, -0.3]), s_value, record, record, st.booleans())
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
# overflowing discriminants: nan ends of J and of {K < 0}
@example(0.1, 1.0, (1e300, 1e300, 1e300), (1.0, -4.0, 3.0), False)
@example(0.1, 1.0, (0.0, 1.0, -1.0), (1e300, 1e300, 1e300), True)
@example(0.1, 1.0, (1e300, 1e300, 1e300), (1e300, 1e300, 1e300), False)
# a root overflowed to inf: J = [(inf, inf)] counts as an interval of J, and lies
# inside {K < 0} = [(inf, inf)] in the second; in the third {K < 0} = [(inf, inf)] alone
@example(0.1, -0.6123724356957945, (0.0, -2.1894858665067568e154, 0.0), (0.0, 0.0, 0.0), False)
@example(0.1, -0.6123724356957945, (0.0, -2.1894858665067568e154, 0.0), (-1.0, -2.1894858665067568e154, 0.0), False)
@example(0.1, 0.5, (1.0, 2.0, -1.0), (-1.0, 4e154, 0.0), False)
def test_scan_rows_are_the_earlier_kernels(b, s, co, dil_co, gap_linear):
    p = ModelParams(b)
    if gap_linear:  # M/2 = d(1, 2s) exactly: the action gap has no mu^2 term
        try:
            co = (d_value(p, 1.0, 2.0 * s),) + co[1:]
        except RegionError:
            pass
    # repr tells every float apart bit for bit, 0.0 from -0.0 too, and a nan end of J equals itself
    assert _row_or_refusal(_scan, co, dil_co, p, s) == _row_or_refusal(earlier_scan, co, dil_co, p, s)


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
