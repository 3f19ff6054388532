"""The one-transform invariant kernel: Nyquist content, float records,
bit-identical derived values, and the refusal of non-finite integrals.

`invariants` takes the three integrals with a derivative by Parseval from
one (2, N) FFT of [f, |f|^2 f].  Fields with a populated Nyquist mode are
compared with the earlier kernel (`seed_invariants`, kept verbatim in
`test_invariants_parity.py`) on the natural size of each integral.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dnls_well.classifier import _coeffs, _curve, classify_thm17
from dnls_well.cli import main
from dnls_well.closedform import d_value
from dnls_well.field import Field, GridError, make_grid, save_field
from dnls_well.functionals import Frame, Invariants, invariants, report
from dnls_well.solitons import ModelParams

from conftest import random_smooth_field
from test_invariants_parity import seed_invariants

INTEGRALS = ("grad_sq", "mass", "p_lin", "l4", "l6", "inter")


def _alternating(n: int) -> np.ndarray:
    return (-1.0) ** np.arange(n)


def _assert_close(new: Invariants, ref: Invariants):
    """Each integral on its natural size; p_lin and inter, which can cancel,
    on their Cauchy-Schwarz bounds."""
    size = {
        "grad_sq": ref.grad_sq,
        "mass": ref.mass,
        "l4": ref.l4,
        "l6": ref.l6,
        "p_lin": math.sqrt(ref.mass * ref.grad_sq),
        "inter": math.sqrt(ref.l6 * ref.grad_sq),
    }
    for name, scale in size.items():
        assert abs(getattr(new, name) - getattr(ref, name)) <= 1e-13 * scale, name


def test_pure_nyquist_field_has_no_derivative_integrals():
    # at N = 8 the alternating field is the Nyquist mode alone, whose
    # derivative `Grid.ik` sets to zero
    g = make_grid(3.0, 8)
    f = Field(g, 0.7 * _alternating(8))
    new, ref = invariants(f, 0.1, 0.25), seed_invariants(f, 0.1, 0.25)
    assert (new.grad_sq, new.p_lin, new.inter) == (0.0, 0.0, 0.0)
    assert (ref.grad_sq, ref.p_lin, ref.inter) == (0.0, 0.0, 0.0)
    _assert_close(new, ref)
    assert new.mass == pytest.approx(8 * g.dx * 0.49, rel=1e-15)


@pytest.mark.parametrize("a", [0.0, 0.25])
def test_nyquist_populated_field_at_n8_matches_seed_kernel(a):
    g = make_grid(3.0, 8)
    x = g.x * np.pi / g.L
    vals = 0.7 * _alternating(8) + (0.4 - 0.3j) * np.exp(1j * x) + 0.2j * np.exp(-2j * x)
    f = Field(g, vals)
    assert abs(np.fft.fft(vals)[4]) > 1.0  # the Nyquist mode is populated
    new = invariants(f, -0.1, a)
    assert new.grad_sq > 0.0 and new.inter != 0.0
    _assert_close(new, seed_invariants(f, -0.1, a))


@pytest.mark.parametrize("a", [0.0, 0.25])
@pytest.mark.parametrize("seed", [1, 2])
def test_nyquist_populated_field_at_n256_matches_seed_kernel(a, seed):
    g = make_grid(20.0, 256)
    smooth = random_smooth_field(np.random.default_rng(seed), g, amp=0.9).values
    f = Field(g, smooth + 0.05 * (1.0 + 0.5j) * _alternating(256))
    assert abs(np.fft.fft(f.values)[128]) > 1.0
    _assert_close(invariants(f, 0.1, a), seed_invariants(f, 0.1, a))


def test_every_record_member_is_a_python_float(rng):
    g = make_grid(20.0, 256)
    inv = invariants(random_smooth_field(rng, g, amp=0.8), 0.1, 0.25)
    for name in ("b", "a", *INTEGRALS):
        assert type(getattr(inv, name)) is float, name


def test_report_and_classify_output_keeps_its_form(rng):
    # numpy scalars would print as np.float64(...) in the reprs and fail json
    p = ModelParams(0.1)
    g = make_grid(20.0, 256)
    f = random_smooth_field(rng, g, amp=0.1)
    rep = report(f, p, 1.0, 0.3, Frame.GAUGE).to_dict()
    res = classify_thm17(f, p, [-0.8, -0.4, 0.0, 0.4, 0.8])
    assert res.theorem17_case == "ii" and all(row["J"] for row in res.per_s)
    for value in rep.values():
        assert type(value) in (str, float), value
    for name in ("mass", "energy", "momentum", "m_star", "s_star", "witness_omega", "apriori_bound"):
        assert type(getattr(res, name)) is float, name
    assert "np." not in repr(res.per_s) and "np." not in repr(rep)
    json.dumps(rep, allow_nan=False)
    json.dumps(res.to_dict(), allow_nan=False)


@pytest.mark.parametrize("frame", [Frame.DNLS, Frame.GAUGE])
@pytest.mark.parametrize("omega,c", [(1.0, 0.3), (0.37, -1.1), (2.5, 3.0)])
def test_report_ii_is_the_record_method_bit_for_bit(rng, frame, omega, c):
    p = ModelParams(0.1)
    f = random_smooth_field(rng, make_grid(20.0, 256), amp=0.8)
    rep = report(f, p, omega, c, frame)
    inv = invariants(f, p.b, frame)
    action, nehari = inv.action(omega, c), inv.nehari(omega, c)
    assert (rep.action, rep.nehari, rep.ii) == (action, nehari, action - 0.25 * nehari)


def _witness_by_nehari(si: Invariants, p: ModelParams, s: float):
    """The witness search with K read through `Invariants.nehari`, as it was."""
    d1 = d_value(p, 1.0, 2.0 * s)
    mu = 1.0
    while mu <= float(2**30):
        omega, c = mu * mu, 2.0 * s * mu
        if si.action(omega, c) < omega * d1 and si.nehari(omega, c) > 0:
            return mu
        mu *= 2.0
    return None


size = st.floats(1e-6, 50.0)
signed = st.floats(-50.0, 50.0)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    st.sampled_from([0.0, 0.1, 0.5, -0.1]),
    st.sampled_from([0.0, 0.25]),
    size, size, signed, size, size, signed,
    st.floats(-0.95, 0.95),
)
def test_certified_set_holds_what_the_pointwise_test_reads_through_nehari(
    b, a, grad_sq, mass, p_lin, l4, l6, inter, s
):
    # C reads K from the dilated record's quadratic; a mu that the pointwise
    # test through `Invariants.nehari` certifies lies in C, up to rounding at its ends
    p = ModelParams(b)
    si = Invariants(b, a, grad_sq, mass, p_lin, l4, l6, inter)
    mu = _witness_by_nehari(si, p, s)
    cert = _curve(_coeffs(si), _coeffs(si.dilated()), p, s)[1]
    assert mu is None or any(lo * (1 - 1e-9) <= mu <= hi * (1 + 1e-9) for lo, hi in cert)


def _huge_field() -> Field:
    # |f|^6 = 1e360 overflows, while f and its transform are finite
    return Field(make_grid(3.0, 8), np.full(8, 1e60, dtype=complex))


@pytest.mark.parametrize("amp", [1e60, 1e200, 1e307])
def test_invariants_refuse_non_finite_integrals(amp):
    f = Field(make_grid(3.0, 8), np.full(8, amp, dtype=complex))
    # no RuntimeWarning escapes (the test suite turns those into errors)
    with pytest.raises(GridError, match="not finite"):
        invariants(f, 0.1, 0.25)


def test_report_and_classify_refuse_non_finite_integrals():
    f, p = _huge_field(), ModelParams(0.1)
    with pytest.raises(GridError):
        report(f, p, 1.0, 0.5, Frame.GAUGE)
    with pytest.raises(GridError):
        classify_thm17(f, p)
    with pytest.raises(GridError):
        classify_thm17(f, p, frame=Frame.DNLS)


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--b", "0.1", "--omega", "1", "--c", "0.5"],
        ["classify", "--b", "0.1"],
        ["classify", "--b", "0.1", "--frame", "dnls"],
    ],
)
def test_cli_refuses_non_finite_integrals(tmp_path, capsys, argv):
    save_field(_huge_field(), tmp_path / "huge.json")
    assert main([argv[0], "--field", str(tmp_path / "huge.json"), *argv[1:]]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "not finite" in out.err
