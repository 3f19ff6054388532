"""The turning point (s*, M*) found once, by bisection of [0, 1] in
`ModelParams.turning`.

`bisection_s_star` below is the earlier `s_star`, kept verbatim: 53
bisections of [1e-6, 1] down to two adjacent floats.  The search must end
on the same certificate, within one ulp of that float, and from s = 0 it
also reaches the roots below 1e-6 that the old bracket missed.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnls_well import classifier
from dnls_well import closedform as cf
from dnls_well.cli import main
from dnls_well.closedform import mass_threshold, s_star, soliton_mass, soliton_momentum
from dnls_well.field import make_grid
from dnls_well.solitons import ModelParams

from conftest import random_smooth_field

# --- earlier implementation, verbatim -----------------------------------------


def bisection_s_star(b: float) -> float:
    """Unique zero of s -> P(phi_{1,2s}) in (0, 1) for b > 0.

    P is continuous and strictly decreasing on [0, 1] with P > 0 at s = 0 and
    P < 0 at the algebraic end s = 1.  Bisection runs until the bracket is
    two adjacent floats, which also covers tiny b, where the root sits within
    a few ulp of 1 and P jumps by more than any fixed residual between
    neighbouring floats.  The sign change across that pair certifies the
    root; the endpoint with the smaller |P| is returned.
    """
    if b <= 0:
        raise ValueError(f"s* is defined for b > 0, got b={b}")
    p = ModelParams(b)

    def mom(s: float) -> float:
        return soliton_momentum(p, 1.0, 2.0 * s)

    lo, hi = 1e-6, 1.0
    p_lo, p_hi = mom(lo), mom(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        p_mid = mom(mid)
        if p_mid > 0.0:
            lo, p_lo = mid, p_mid
        else:
            hi, p_hi = mid, p_mid
    # the loop leaves lo, hi adjacent; the sign change across them is the
    # certificate, and fails only if the initial bracket had no sign change
    if not p_lo > 0.0 >= p_hi:
        raise RuntimeError(f"momentum has no sign change on [1e-6, 1] at b={b}")
    return lo if abs(p_lo) < abs(p_hi) else hi


# --- the search ------------------------------------------------------------------

B_GRID = [float(b) for b in np.logspace(-9.0, math.log10(3.0), 200)] + [0.5]


def _assert_certificate(b: float, s: float) -> None:
    """s and one float neighbour bracket the sign change, P > 0 >= P, and s
    is the one of the two with the smaller |P|."""
    p = ModelParams(b)
    p_s = soliton_momentum(p, 1.0, 2.0 * s)
    other = math.nextafter(s, math.inf if p_s > 0.0 else -math.inf)
    p_other = soliton_momentum(p, 1.0, 2.0 * other)
    lo_p, hi_p = (p_s, p_other) if p_s > 0.0 else (p_other, p_s)
    assert lo_p > 0.0 >= hi_p, (b, s, p_s, p_other)
    assert abs(p_s) <= abs(p_other), (b, s, p_s, p_other)


@pytest.fixture
def evaluations(monkeypatch):
    """Every (omega, c) at which the mass-momentum kernel is evaluated."""
    calls = []
    kernel = cf._mass_momentum

    def counted(p, omega, c):
        calls.append((omega, c))
        return kernel(p, omega, c)

    monkeypatch.setattr(cf, "_mass_momentum", counted)
    return calls


def test_s_star_within_one_ulp_of_bisection():
    for b in B_GRID:
        got, ref = s_star(b), bisection_s_star(b)
        assert abs(got - ref) <= math.ulp(ref), (b, got, ref)


def test_certificate_holds_on_grid():
    for b in B_GRID:
        _assert_certificate(b, s_star(b))


# b log-uniform in [1e-12, 1e300], where the grid above stops at b = 3; at
# b = 124.6... P is not monotone in floats near s* = 0.0247 and has two sign
# changes there, and the certificate holds at either
@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.floats(-12.0, 300.0).map(lambda e: 10.0**e))
@example(124.61179315127185)
def test_certificate_and_mass_hold_for_log_uniform_b(b):
    s, m = ModelParams(b).turning
    _assert_certificate(b, s)
    assert m == soliton_mass(ModelParams(b), 1.0, 2.0 * s)


@pytest.mark.parametrize("b", [1e8, 1e12, 1e100])
def test_large_b_below_the_old_bracket(b):
    # s* ~ 2 / (pi sqrt(gamma)) lies below 1e-6 from b ~ 1e11 on
    s, m = ModelParams(b).turning
    assert 0.0 < s < 1e-3
    _assert_certificate(b, s)
    assert m == soliton_mass(ModelParams(b), 1.0, 2.0 * s)


def _search_evaluations(b: float) -> int:
    """Kernel evaluations of one (s*, M*) search, on a fresh ModelParams."""
    calls = []
    kernel = cf._mass_momentum

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cf, "_mass_momentum", counted)
        ModelParams(b).turning
    return len(calls)


# a bracket below 1/4 that spans more than a factor 4 is split at its
# geometric mean, so the binades between s* and 1/4 cost a few evaluations,
# not one each.  For b <= 1, s* > 1/4 and every split is a midpoint
@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.floats(-12.0, math.log10(3e307)).map(lambda e: 10.0**e))
@example(1e8)
@example(1e12)
@example(1e100)
@example(1e300)
@example(3e307)
def test_search_takes_at_most_68_evaluations(b):
    assert _search_evaluations(b) <= (56 if b <= 1.0 else 68), b


def test_search_takes_at_most_56_evaluations_up_to_b_1():
    for b in B_GRID:
        if b <= 1.0:
            assert _search_evaluations(b) <= 56, b


@pytest.mark.parametrize("b", [0.0, -0.1, math.nan, math.inf, -math.inf])
def test_s_star_rejects_b_outside_positive_reals(b):
    with pytest.raises(ValueError):
        s_star(b)


@pytest.mark.parametrize("b", [-3.0 / 16.0, math.nan, math.inf])
def test_mass_threshold_rejects_b_outside_its_range(b):
    with pytest.raises(ValueError):
        mass_threshold(b)


def test_turning_point_without_a_sign_change_raises(monkeypatch):
    # a momentum that stays positive on [0, 1] leaves the search no certificate
    monkeypatch.setattr(cf, "_mass_momentum", lambda p, omega, c: (1.0, 2.0 - 0.5 * c, 0.0, 1.0))
    with pytest.raises(RuntimeError, match="momentum lost its sign change"):
        ModelParams(0.137).turning


def test_turning_point_mass_bitwise_equals_mass_threshold():
    for b in (1e-9, 1e-3, 0.1, 3.0):
        s, m = ModelParams(b).turning
        assert s == s_star(b)
        assert m == mass_threshold(b) == soliton_mass(ModelParams(b), 1.0, 2.0 * s)


def _searches(calls) -> int:
    """Number of s* searches: each one starts from P at s = 0, (omega, c) = (1, 0)."""
    return calls.count((1.0, 0.0))


def test_classify_thm17_searches_once(evaluations, rng):
    f = random_smooth_field(rng, make_grid(30.0, 512), amp=0.05)
    res = classifier.classify_thm17(f, ModelParams(0.1))
    assert _searches(evaluations) == 1
    assert res.s_star == s_star(0.1)
    assert res.m_star == mass_threshold(0.1)


def test_cli_threshold_searches_once(evaluations, capsys):
    assert main(["threshold", "--b", "0.1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert _searches(evaluations) == 1
    assert out == {"M_star": mass_threshold(0.1), "s_star": s_star(0.1)}


@pytest.mark.parametrize("b", ["nan", "inf", "1e308"])
def test_cli_threshold_domain_error_for_b_without_turning_point(b, capsys):
    # before, nan printed {"M_star": NaN}, which is not JSON, and exited 0
    assert main(["threshold", "--b", b]) == 1
    assert capsys.readouterr().out == ""
