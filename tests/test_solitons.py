import mpmath
import numpy as np
import pytest

from dnls_well.closedform import d_value, existence_region, s_lower
from dnls_well.field import cumulative_integral, l2_norm_sq, make_grid
from dnls_well.solitons import (
    ModelParams,
    RegionError,
    SolitonParams,
    algebraic_tail_l4,
    algebraic_tail_mass,
    is_algebraic,
    phi_one_two,
    phi_sq,
    sample_capital_phi,
    sample_phi,
    sample_varphi,
    suggested_half_length,
)


def test_gamma():
    assert ModelParams(0.0).gamma == 1.0
    assert ModelParams(-3.0 / 16.0).gamma == pytest.approx(0.0, abs=1e-15)
    assert ModelParams(3.0 / 16.0).gamma == pytest.approx(2.0)


def test_existence_region_positive_gamma():
    p = ModelParams(0.0)
    assert existence_region(p, 1.0, 0.0)
    assert existence_region(p, 1.0, 2.0)  # algebraic endpoint included
    assert not existence_region(p, 1.0, 2.1)
    assert not existence_region(p, 1.0, -2.0)
    with pytest.raises(RegionError):
        existence_region(p, -1.0, 0.0)


def test_existence_region_negative_gamma():
    p = ModelParams(-0.5)
    sl = s_lower(p)
    assert 0 < sl < 1
    assert existence_region(p, 1.0, -2.0 * 0.5 * (sl + 1.0))
    assert not existence_region(p, 1.0, 0.0)
    assert not existence_region(p, 1.0, -1.9 * sl)


@pytest.mark.parametrize(
    "b, omega, c",
    [(0.0, 1.0, 3.0), (0.1, 1.0, 2.1), (0.1, 1.0, 3), (-0.3, 1.0, 0.0), (0.0, 1.0, -2.0), (0.0, -1.0, 0.0)],
)
def test_soliton_params_refusal_is_the_kernels(b, omega, c):
    p = ModelParams(b)
    with pytest.raises(RegionError) as kernel:
        d_value(p, omega, c)
    with pytest.raises(RegionError) as soliton:
        SolitonParams(p, omega, c)
    assert str(soliton.value) == str(kernel.value)


def test_peak_value():
    # Phi(0)^2 = 2q / (sqrt(c^2 + gamma q) - c), q = 4 omega - c^2
    p = ModelParams(0.0)
    sp = SolitonParams(p, 1.0, 1.0)
    q = 3.0
    expected = 2.0 * q / (np.sqrt(1.0 + q) - 1.0)
    assert phi_sq(sp, 0.0) == pytest.approx(expected, rel=1e-14)


def test_algebraic_profile_and_flag():
    sp = SolitonParams(ModelParams(0.0), 1.0, 2.0)
    assert sp.algebraic and is_algebraic(1.0, 2.0)
    x = np.array([0.0, 1.0])
    assert phi_sq(sp, x) == pytest.approx(8.0 / (4.0 * x * x + 1.0))


def test_sampled_mass_matches_quadrature():
    p = ModelParams(0.1)
    sp = SolitonParams(p, 1.2, -0.7)
    g = make_grid(suggested_half_length(sp), 1024)
    f = sample_capital_phi(sp, g)
    ref = float(mpmath.quad(lambda x: phi_sq(sp, x), [-mpmath.inf, 0, mpmath.inf]))
    assert l2_norm_sq(f) == pytest.approx(ref, abs=1e-9)


def test_three_gauges_share_modulus():
    sp = SolitonParams(ModelParams(0.0), 1.0, 0.5)
    g = make_grid(suggested_half_length(sp), 512)
    a = np.abs(sample_capital_phi(sp, g).values)
    b = np.abs(sample_varphi(sp, g).values)
    c = np.abs(sample_phi(sp, g).values)
    assert np.max(np.abs(a - b)) < 1e-14
    assert np.max(np.abs(a - c)) < 1e-14


def test_sample_phi_matches_explicit_phase():
    # phi = Phi exp(i c x/2 - (i/4) int Phi^2), written out
    sp = SolitonParams(ModelParams(0.1), 1.0, 0.4)
    g = make_grid(suggested_half_length(sp), 512)
    p2 = phi_sq(sp, g.x)
    phase = 0.5 * sp.c * g.x - 0.25 * cumulative_integral(p2, g)
    ref = np.sqrt(p2) * np.exp(1j * phase)
    assert np.max(np.abs(sample_phi(sp, g).values - ref)) < 1e-14


def test_phi_one_two_closed_form():
    sp = SolitonParams(ModelParams(0.0), 1.0, 2.0)
    x = np.linspace(-5, 5, 4001)
    vals = phi_one_two(x)
    assert np.abs(vals) ** 2 == pytest.approx(phi_sq(sp, x), rel=1e-13)
    # phase derivative: c/2 - Phi^2/4 = 1 - 2/(4x^2+1)
    ph = np.unwrap(np.angle(vals))
    dph = np.gradient(ph, x)[1:-1]
    assert np.max(np.abs(dph - (1.0 - 2.0 / (4.0 * x[1:-1] ** 2 + 1.0)))) < 5e-5


def test_algebraic_tail_models_match_quadrature():
    sp = SolitonParams(ModelParams(0.0), 1.0, 2.0)
    L = 40.0
    ref = float(mpmath.quad(lambda x: phi_sq(sp, x), [L, mpmath.inf]))
    assert algebraic_tail_mass(sp, L) == pytest.approx(2.0 * ref, rel=1e-10, abs=0.0)
    ref4 = float(mpmath.quad(lambda x: phi_sq(sp, x) ** 2, [L, mpmath.inf]))
    assert algebraic_tail_l4(sp, L) == pytest.approx(2.0 * ref4, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("b", [0.0, 0.1, 0.5])
def test_algebraic_tail_models_keep_their_digits_as_L_grows(b):
    """Both models to 1e-13 relative of 60-digit quadratures of Phi^2 = 4c/(c^2 x^2 + g)
    and its square over |x| > L, out to L = 30,000, where the tails are 1e-4 and 1e-13."""
    sp = SolitonParams(ModelParams(b), 1.0, 2.0)
    with mpmath.workdps(60):
        c, g = mpmath.mpf(sp.c), mpmath.mpf(sp.params.gamma)
        for L in (3.0, 30.0, 300.0, 3000.0, 30000.0):
            mass, l4 = (
                float(2 * mpmath.quad(lambda x: (4 * c / (c * c * x * x + g)) ** n, [L, mpmath.inf]))
                for n in (1, 2)
            )
            assert algebraic_tail_mass(sp, L) == pytest.approx(mass, rel=1e-13, abs=0.0)
            assert algebraic_tail_l4(sp, L) == pytest.approx(l4, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("tail", [algebraic_tail_mass, algebraic_tail_l4])
def test_algebraic_tail_models_refuse_an_exponential_profile(tail):
    sp = SolitonParams(ModelParams(0.0), 1.0, 1.0)
    with pytest.raises(RegionError, match="algebraic profile only"):
        tail(sp, 40.0)


def test_suggested_half_length_rejects_algebraic():
    sp = SolitonParams(ModelParams(0.0), 1.0, 2.0)
    with pytest.raises(RegionError):
        suggested_half_length(sp)


def test_grid_mass_with_tail_correction():
    from dnls_well.closedform import soliton_mass

    p = ModelParams(0.0)
    sp = SolitonParams(p, 1.0, 2.0)
    L = 2000.0
    g = make_grid(L, 2**16)
    f = sample_capital_phi(sp, g)
    total = l2_norm_sq(f) + algebraic_tail_mass(sp, L)
    assert total == pytest.approx(soliton_mass(p, 1.0, 2.0), abs=1e-3)
