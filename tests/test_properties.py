"""Property tests of the invariant kernel and the classifier's interval algebra."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dnls_well.classifier import _k_signs_on, _negative_intervals
from dnls_well.field import Field, make_grid
from dnls_well.functionals import Invariants, invariants
from dnls_well.gauge import gauge_transform
from dnls_well.solitons import ModelParams

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
@given(st.floats(-0.5, 0.5))
def test_sextic_coefficient_in_the_well_frame(b):
    sextic_only = Invariants(b, 0.25, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    assert sextic_only.energy == pytest.approx(-ModelParams(b).gamma / 32.0, abs=1e-15)


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


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(triple, triple)
def test_k_signs_interval_algebra_matches_sampling(gap, kq):
    j = _negative_intervals(*gap)
    assume(_separated(j, kq))
    assert _k_signs_on(j, kq) == _k_signs_by_sampling(j, kq)
