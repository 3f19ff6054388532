import numpy as np
import pytest

from dnls_well import closedform as cf
from dnls_well.field import Field, make_grid
from dnls_well.functionals import Frame, gn_ratio, invariants, report
from dnls_well.solitons import (
    ModelParams,
    SolitonParams,
    sample_phi,
    sample_varphi,
    suggested_half_length,
)
from conftest import random_smooth_field

CASES = [(0.0, 1.0, 0.5), (0.1, 1.2, -0.6), (-0.1, 1.0, 0.8), (-0.5, 1.0, -1.9)]


def _grid_for(sp, n=2048):
    return make_grid(suggested_half_length(sp), n)


@pytest.mark.parametrize("b,omega,c", CASES)
def test_dnls_frame_matches_closed_forms(b, omega, c):
    p = ModelParams(b)
    sp = SolitonParams(p, omega, c)
    f = sample_phi(sp, _grid_for(sp))
    rep = report(f, p, omega, c, Frame.DNLS)
    assert rep.energy == pytest.approx(cf.soliton_energy(p, omega, c), abs=1e-8)
    assert rep.momentum == pytest.approx(cf.soliton_momentum(p, omega, c), abs=1e-8)
    assert rep.mass == pytest.approx(cf.soliton_mass(p, omega, c), abs=1e-8)
    assert abs(rep.nehari) < 1e-7 * rep.grad_sq + 1e-9
    assert rep.action == pytest.approx(cf.d_value(p, omega, c), abs=1e-8)


@pytest.mark.parametrize("b,omega,c", CASES)
def test_gauge_frame_matches_closed_forms(b, omega, c):
    p = ModelParams(b)
    sp = SolitonParams(p, omega, c)
    f = sample_varphi(sp, _grid_for(sp))
    rep = report(f, p, omega, c, Frame.GAUGE)
    assert rep.energy == pytest.approx(cf.soliton_energy(p, omega, c), abs=1e-8)
    assert rep.momentum == pytest.approx(cf.soliton_momentum(p, omega, c), abs=1e-8)
    assert abs(rep.nehari) < 1e-7 * rep.grad_sq + 1e-9
    assert rep.action == pytest.approx(cf.d_value(p, omega, c), abs=1e-8)


def test_frames_agree_through_gauge_transform(rng):
    from dnls_well.gauge import gauge_transform

    p = ModelParams(0.1)
    g = make_grid(15.0, 512)
    u = random_smooth_field(rng, g)
    v = gauge_transform(u, 0.25)
    iu = invariants(u, p.b, Frame.DNLS.a)
    iv = invariants(v, p.b, Frame.GAUGE.a)
    assert iu.energy == pytest.approx(iv.energy, abs=1e-10)
    assert iu.momentum == pytest.approx(iv.momentum, abs=1e-10)
    assert iu.mass == pytest.approx(iv.mass, abs=1e-12)


def test_nehari_is_dilation_derivative(rng):
    p = ModelParams(0.1)
    g = make_grid(15.0, 512)
    f = random_smooth_field(rng, g)
    omega, c = 1.1, 0.4
    h = 1e-6
    for a in (Frame.DNLS.a, Frame.GAUGE.a):
        sp = invariants(Field(g, (1 + h) * f.values), p.b, a).action(omega, c)
        sm = invariants(Field(g, (1 - h) * f.values), p.b, a).action(omega, c)
        fd = (sp - sm) / (2 * h)
        assert invariants(f, p.b, a).nehari(omega, c) == pytest.approx(fd, rel=1e-7)


def test_action_decomposition(rng):
    # S = K/4 + L/4 + (gamma/64) l6 in the gauge frame
    p = ModelParams(-0.05)
    g = make_grid(12.0, 512)
    f = random_smooth_field(rng, g)
    rep = report(f, p, 0.9, -0.3, Frame.GAUGE)
    rhs = 0.25 * rep.nehari + 0.25 * rep.ell + p.gamma / 64.0 * rep.l6
    assert rep.action == pytest.approx(rhs, rel=1e-12)
    # I = S - K/4 in every frame
    for frame in Frame:
        rep = report(f, p, 0.9, -0.3, frame)
        assert rep.ii == pytest.approx(rep.action - 0.25 * rep.nehari, rel=1e-12)


def test_gn_ratio_gaussian():
    g = make_grid(20.0, 1024)
    f = Field(g, np.exp(-(g.x**2)))
    assert gn_ratio(f) == pytest.approx(np.pi / (2.0 * np.sqrt(3.0)), rel=1e-10)


def test_gn_ratio_below_one_on_random_fields(rng):
    g = make_grid(15.0, 512)
    for _ in range(20):
        f = random_smooth_field(rng, g)
        assert gn_ratio(f) < 1.0


def test_gn_ratio_one_on_optimizer():
    # sech^{1/2}(2x) saturates the sextic Gagliardo-Nirenberg inequality
    g = make_grid(40.0, 2**12)
    f = Field(g, 1.0 / np.cosh(2.0 * g.x) ** 0.5)
    assert gn_ratio(f) == pytest.approx(1.0, abs=1e-12)


def test_gn_ratio_zero_field():
    g = make_grid(5.0, 64)
    with pytest.raises(ValueError):
        gn_ratio(Field(g, np.zeros(64)))
