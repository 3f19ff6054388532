"""Property tests of the invariant kernel, the blow-up screen and the
classifier's interval algebra."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dnls_well.classifier import _scan, classify_thm17, invariant_summary, scan_curve
from dnls_well.closedform import d_value
from dnls_well.evolve import AMP_CAP, _blow_up, _clean
from dnls_well.field import Field, make_grid
from dnls_well.functionals import Frame, Invariants, invariants, report
from dnls_well.gauge import gauge_transform
from dnls_well.solitons import ModelParams

from conftest import random_smooth_field

PROPS = settings(derandomize=True, deadline=None, database=None, max_examples=60)

GRID = make_grid(20.0, 512)

coef = st.floats(-0.8, 0.8)
bump = st.tuples(coef, coef, st.floats(-5.0, 5.0), st.floats(0.7, 2.5), st.floats(-3.0, 3.0))


def _compact_field(bumps) -> Field:
    """Sum of Gaussian wave packets, negligible at the grid edges."""
    x = GRID.x
    vals = np.zeros(GRID.N, dtype=complex)
    for re, im, x0, width, k in bumps:
        vals += (re + 1j * im) * np.exp(-(((x - x0) / width) ** 2) + 1j * k * x)
    return Field(GRID, vals)


def _size(inv: Invariants) -> float:
    return inv.grad_sq + inv.mass + inv.l4 + inv.l6


@PROPS
@given(
    st.lists(bump, min_size=1, max_size=2),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(-0.5, 0.5),
)
def test_gauge_change_conserves_mass_energy_momentum(bumps, a, delta, b):
    # E_{a+delta}(G_delta f) = E_a(f), and the same for M and P
    f = _compact_field(bumps)
    before = invariants(f, b, a)
    after = invariants(gauge_transform(f, delta), b, a + delta)
    tol = 1e-10 * _size(before)
    assert abs(after.mass - before.mass) <= tol
    assert abs(after.energy - before.energy) <= tol
    assert abs(after.momentum - before.momentum) <= tol


@PROPS
@given(
    st.floats(5.0, 40.0),
    st.integers(32, 256).map(lambda h: 2 * h),
    st.sampled_from([0.0, 0.1, -0.1, 0.5]),
    st.integers(0, 2**32 - 1),
    st.floats(0.1, 4.0),
    st.floats(-3.0, 3.0),
)
def test_mass_critical_rescaling_is_exact_on_the_integrals(L, n, b, seed, omega, c):
    # u(x) = 2 v(4 x) is sampled on [-L/4, L/4) by the doubled samples of v;
    # scaling by powers of 2 is exact in floating point, down to the FFT
    f = random_smooth_field(np.random.default_rng(seed), make_grid(L, n))
    u = Field(make_grid(L / 4.0, n), 2.0 * f.values)
    weights = (16.0, 1.0, 4.0, 4.0, 16.0, 16.0)
    assert u.integrals == tuple(w * i for w, i in zip(weights, f.integrals))
    p = ModelParams(b)
    for frame in Frame:
        ref = report(f, p, omega, c, frame)
        rep = report(u, p, 16.0 * omega, 4.0 * c, frame)
        for name in ("energy", "action", "nehari", "ell", "ii"):
            assert getattr(rep, name) == 16.0 * getattr(ref, name), name
        assert (rep.mass, rep.momentum, rep.gn_ratio) == (ref.mass, 4.0 * ref.momentum, ref.gn_ratio)


def _scaled_row(row: dict, lam: float = 4.0) -> dict:
    """A per-s row with its J edges times lam, the row of the lam rescaling."""
    if "J" not in row:  # the b = -3/16 route's row has no J
        return row
    edges = [[lam * lo, None if hi is None else lam * hi] for lo, hi in row["J"]]
    return {**row, "J": edges}


@PROPS
@given(
    st.floats(5.0, 40.0),
    st.integers(32, 256).map(lambda h: 2 * h),
    st.sampled_from([-3.0 / 16.0, 0.0, 0.1, -0.1, 0.5]),
    st.integers(0, 2**32 - 1),
    st.floats(0.1, 4.0),
)
def test_mass_critical_rescaling_is_exact_on_classify(L, n, b, seed, amp):
    # every classify_thm17 key of u(x) = 2 v(4 x) is that of v scaled exactly:
    # the mass, s and each verdict fixed, the momentum, c and J by 4, the
    # energy, omega and the a-priori bound by 16
    f = random_smooth_field(np.random.default_rng(seed), make_grid(L, n), amp=amp)
    u = Field(make_grid(L / 4.0, n), 2.0 * f.values)
    p = ModelParams(b)
    s_grid = np.linspace(-0.8, 0.8, 9)
    for frame in Frame:
        ref = classify_thm17(f, p, s_grid, frame).to_dict()
        res = classify_thm17(u, p, s_grid, frame).to_dict()
        for name in ("energy", "witness_omega", "apriori_bound"):
            assert res[name] == (None if ref[name] is None else 16.0 * ref[name]), name
        for name in ("momentum", "witness_c"):
            assert res[name] == (None if ref[name] is None else 4.0 * ref[name]), name
        assert res["per_s"] == [_scaled_row(row) for row in ref["per_s"]]
        same = ("theorem17_case", "global_existence", "boundary_soliton", "m_star", "s_star", "mass")
        assert [res[k] for k in same] == [ref[k] for k in same]
        assert set(res) == set(same) | {"energy", "witness_omega", "apriori_bound", "momentum",
                                        "witness_c", "per_s"}


@PROPS
@given(
    st.floats(5.0, 40.0),
    st.integers(32, 256).map(lambda h: 2 * h),
    st.sampled_from([-3.0 / 16.0, 0.0, 0.1, -0.1, 0.5]),
    st.integers(0, 2**32 - 1),
    st.floats(0.1, 4.0),
    st.data(),
)
def test_mass_critical_rescaling_is_exact_on_scan_curve(L, n, b, seed, amp, data):
    # at any admissible s, s in (-1, 1] for gamma > 0 and (-1, s_hi) else, the
    # curve row of u(x) = 2 v(4 x) is that of v with its J edges times 4
    p = ModelParams(b)
    s = data.draw(st.floats(-1.0, p.s_hi, exclude_min=True, exclude_max=p.gamma <= 0.0), label="s")
    f = random_smooth_field(np.random.default_rng(seed), make_grid(L, n), amp=amp)
    u = Field(make_grid(L / 4.0, n), 2.0 * f.values)
    for frame in Frame:
        ref = scan_curve(invariant_summary(f, p, frame), p, s)
        assert scan_curve(invariant_summary(u, p, frame), p, s) == _scaled_row(ref)


def _mass_critical(rec: Invariants, lam: float) -> Invariants:
    """The record of lam^{1/2} v(lam x) from that of v: ||v_x||^2, ||v||_6^6 and
    inter times lam^2, p_lin and ||v||_4^4 times lam, the mass unchanged."""
    sq = lam * lam
    return rec._replace(grad_sq=sq * rec.grad_sq, p_lin=lam * rec.p_lin, l4=lam * rec.l4,
                        l6=sq * rec.l6, inter=sq * rec.inter)


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(
    st.floats(5.0, 40.0),
    st.integers(32, 256).map(lambda h: 2 * h),
    st.sampled_from([-3.0 / 16.0, 0.0, 0.1, -0.1, 0.5]),
    st.integers(0, 2**32 - 1),
    st.floats(0.1, 4.0),
    st.integers(500, 510),
    st.data(),
)
def test_scan_curve_scales_with_records_past_the_overflow_of_b_squared(L, n, b, seed, amp, k, data):
    # the row of a record rescaled by lam = 2^k is the row of the record with its
    # J edges times lam, bit for bit.  At k near 510, lam^2 E still fits in the
    # floats while b^2 - 4ac of the rescaled quadratics overflows on about one
    # row in ten, which the roots must not see
    p = ModelParams(b)
    s = data.draw(st.floats(-1.0, p.s_hi, exclude_min=True, exclude_max=p.gamma <= 0.0), label="s")
    f = random_smooth_field(np.random.default_rng(seed), make_grid(L, n), amp=amp)
    lam = 2.0**k
    for frame in Frame:
        rec = invariant_summary(f, p, frame)
        big = _mass_critical(rec, lam)
        dil = big.dilated()
        assume(all(math.isfinite(x) for x in (big.energy, big.momentum, dil.energy, dil.momentum)))
        assert scan_curve(big, p, s) == _scaled_row(scan_curve(rec, p, s), lam)


@PROPS
@given(st.floats(-0.5, 0.5))
def test_sextic_coefficient_in_the_well_frame(b):
    sextic_only = Invariants(b, 0.25, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    assert sextic_only.energy == pytest.approx(-ModelParams(b).gamma / 32.0, abs=1e-15)


# magnitudes from far below to far above the cap, and a band of 1e-8 around it
magnitude = st.one_of(
    st.floats(-3.0, 300.0).map(lambda e: 10.0**e),
    st.floats(-1e-8, 1e-8).map(lambda e: AMP_CAP * (1.0 + e)),
)
bad_entry = st.one_of(st.none(), st.sampled_from([np.nan, np.inf, -np.inf, complex(np.inf, np.nan)]))


@PROPS
@given(
    st.sampled_from([512, 4096]),
    st.sampled_from(["noise", "spike"]),
    magnitude,
    bad_entry,
    st.integers(0, 2**32 - 1),
)
def test_screen_never_passes_a_flagged_state(n, shape, amp, bad, seed):
    # "spike" puts all of the magnitude at one point, where the Parseval
    # bound max |v| <= ||v||_2 behind the screen is sharp
    rng = np.random.default_rng(seed)
    if shape == "noise":
        vhat = amp * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    else:
        vhat = amp * np.exp(-2j * np.pi * rng.integers(n) * np.arange(n) / n)
    if bad is not None:
        vhat[rng.integers(n)] = bad
    if _clean(vhat):
        assert _blow_up(np.fft.ifft(vhat)) is None


def _k_signs_by_sampling(intervals, kq) -> set[int]:
    """Reference: the midpoint and far-point sampling the interval algebra replaced."""
    a2, a1, a0 = kq
    breaks = []
    if a2 != 0.0:
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc > 0:
            rt = math.sqrt(disc)
            breaks = sorted(((-a1 - rt) / (2 * a2), (-a1 + rt) / (2 * a2)))
    elif a1 != 0.0:
        breaks = [-a0 / a1]
    signs: set[int] = set()
    for lo, hi in intervals:
        pts = [b for b in breaks if lo < b < hi]
        edges = [lo] + pts + [hi if math.isfinite(hi) else max(lo, *(pts or [lo]), 1.0) * 2 + 10]
        for left, right in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (left + right)
            if mid <= 0:
                continue
            val = (a2 * mid + a1) * mid + a0
            signs.add(1 if val >= 0 else -1)
        if not math.isfinite(hi):
            far = (max([lo] + pts) + 1.0) * 4.0
            val = (a2 * far + a1) * far + a0
            signs.add(1 if val >= 0 else -1)
    return signs


def _separated(intervals, kq, rel=1e-6) -> bool:
    """True when the real roots of kq keep a relative distance rel from each
    other and from every positive interval end.  Closer than that, the side
    of a root on which an end falls is decided by rounding, and the
    reference's root formula cancels (a = -1e-116, b = -1, c = 1 loses the
    root near 1), so the two may differ by a sliver of rounding width."""
    roots = [r.real for r in np.roots(kq) if abs(r.imag) <= rel * abs(r)] if any(kq) else []
    points = roots + [e for iv in intervals for e in iv if 0 < e < math.inf]
    return all(
        abs(p - r) > rel * max(abs(p), abs(r), 1e-300)
        for i, r in enumerate(roots)
        for p in points[:i] + points[i + 1:]
    )


# zero or of moderate size, as the invariants of a resolved field are
moderate = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))
triple = st.tuples(moderate, moderate, moderate)


# at s = 1 (admitted for b = 0.1) the row's action gap is (M/2 - d1, P, E) and
# its K quadratic the dilated record's (M/2, P, E) as they are
_P = ModelParams(0.1)
_D1 = d_value(_P, 1.0, 2.0)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(triple, triple)
def test_k_signs_interval_algebra_matches_sampling(gap, kq):
    # M/2 = gap[0] + d1 gives a gap of leading coefficient gap[0] to rounding,
    # and exactly 0 when gap[0] is
    row = _scan((gap[0] + _D1,) + gap[1:], kq, _P, 1.0)
    j = [(lo, math.inf if hi is None else hi) for lo, hi in row["J"]]
    assume(_separated(j, kq))
    assert set(row["k_signs"]) == _k_signs_by_sampling(j, kq)
