import json

import numpy as np
import pytest

from dnls_well import closedform as cf
from dnls_well.field import Field, make_grid
from dnls_well.functionals import Frame, invariants, report
from dnls_well.functionals import WELL_A
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
@pytest.mark.parametrize(
    "frame, sample", [(Frame.DNLS, sample_phi), (Frame.GAUGE, sample_varphi)], ids=["dnls", "gauge"]
)
def test_frame_matches_closed_forms(frame, sample, b, omega, c):
    p = ModelParams(b)
    sp = SolitonParams(p, omega, c)
    f = sample(sp, _grid_for(sp))
    rep = report(f, p, omega, c, frame)
    assert rep.energy == pytest.approx(cf.soliton_energy(p, omega, c), abs=1e-8)
    assert rep.momentum == pytest.approx(cf.soliton_momentum(p, omega, c), abs=1e-8)
    assert rep.mass == pytest.approx(cf.soliton_mass(p, omega, c), abs=1e-8)
    assert abs(rep.nehari) < 1e-7 * rep.grad_sq + 1e-9
    assert rep.action == pytest.approx(cf.d_value(p, omega, c), abs=1e-8)


def test_frames_agree_through_gauge_transform(rng):
    from dnls_well.gauge import gauge_transform

    p = ModelParams(0.1)
    g = make_grid(15.0, 512)
    u = random_smooth_field(rng, g)
    v = gauge_transform(u, 0.25)
    iu = invariants(u, p.b, Frame.DNLS)
    iv = invariants(v, p.b, Frame.GAUGE)
    assert iu.energy == pytest.approx(iv.energy, abs=1e-10)
    assert iu.momentum == pytest.approx(iv.momentum, abs=1e-10)
    assert iu.mass == pytest.approx(iv.mass, abs=1e-12)


def test_nehari_is_dilation_derivative(rng):
    p = ModelParams(0.1)
    g = make_grid(15.0, 512)
    f = random_smooth_field(rng, g)
    omega, c = 1.1, 0.4
    h = 1e-6
    for a in (Frame.DNLS, Frame.GAUGE):
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
        assert rep.ii == rep.action - 0.25 * rep.nehari


def test_gn_ratio_gaussian():
    g = make_grid(20.0, 1024)
    f = Field(g, np.exp(-(g.x**2)))
    assert invariants(f, 0.0, 0.0).gn_ratio == pytest.approx(np.pi / (2.0 * np.sqrt(3.0)), rel=1e-10)


def test_gn_ratio_below_one_on_random_fields(rng):
    g = make_grid(15.0, 512)
    for _ in range(20):
        f = random_smooth_field(rng, g)
        assert invariants(f, 0.0, 0.0).gn_ratio < 1.0


def test_gn_ratio_one_on_optimizer():
    # sech^{1/2}(2x) saturates the sextic Gagliardo-Nirenberg inequality
    g = make_grid(40.0, 2**12)
    f = Field(g, 1.0 / np.cosh(2.0 * g.x) ** 0.5)
    assert invariants(f, 0.0, 0.0).gn_ratio == pytest.approx(1.0, abs=1e-12)


def test_gn_ratio_of_an_unresolved_spike_passes_the_continuum_bound():
    # the bound holds on the line, not on a grid: a one-sample spike on N = 8
    # points reads M = ||f||_6^6 = dx and, with the Nyquist mode zeroed,
    # ||f_x||^2 = 4 pi^2 (1 + 4 + 9) 2 / (N^3 dx), so the ratio is N^3 / 448 = 8/7
    g = make_grid(3.0, 8)
    for i in range(8):
        spike = np.zeros(8)
        spike[i] = 1.0
        assert invariants(Field(g, spike), 0.0, 0.0).gn_ratio == 8.0 / 7.0


def test_gn_ratio_zero_field():
    g = make_grid(5.0, 64)
    assert invariants(Field(g, np.zeros(64)), 0.0, 0.0).gn_ratio is None


def test_gn_ratio_constant_field():
    g = make_grid(5.0, 64)
    f = Field(g, np.full(64, 0.3 + 0.4j))
    assert invariants(f, 0.0, 0.0).gn_ratio is None


def test_frame_member_is_its_gauge_number():
    assert (Frame.DNLS, Frame.GAUGE) == (0.0, WELL_A)
    for m in Frame:
        assert isinstance(m, float) and float(m) == m and type(float(m)) is float
        assert Frame[m.name] is m


def test_report_names_its_frame():
    sp = SolitonParams(ModelParams(0.1), 1.0, 0.4)
    f = sample_phi(sp, _grid_for(sp, 512))
    for frame, name in ((Frame.DNLS, "dnls"), (Frame.GAUGE, "gauge")):
        rep = report(f, sp.params, 1.0, 0.4, frame)
        assert rep.frame == name
        assert json.loads(json.dumps(rep.to_dict()))["frame"] == name
        assert rep.energy == invariants(f, 0.1, float(frame)).energy


def test_report_takes_the_gauge_number():
    sp = SolitonParams(ModelParams(0.1), 1.0, 0.4)
    f = sample_phi(sp, _grid_for(sp, 256))
    assert report(f, sp.params, 1.0, 0.0, 0.25) == report(f, sp.params, 1.0, 0.0, Frame.GAUGE)
    assert report(f, sp.params, 1.0, 0.0, 0.0) == report(f, sp.params, 1.0, 0.0, Frame.DNLS)
    with pytest.raises(ValueError):
        report(f, sp.params, 1.0, 0.0, 0.3)


@pytest.mark.parametrize("omega,c", [(np.nan, 0.5), (np.inf, 0.5), (1.0, np.nan), (1.0, -np.inf)])
def test_report_rejects_non_finite_omega_and_c(omega, c):
    sp = SolitonParams(ModelParams(0.1), 1.0, 0.5)
    f = sample_phi(sp, _grid_for(sp, 256))
    with pytest.raises(ValueError, match="omega and c must be finite"):
        report(f, ModelParams(0.1), omega, c, Frame.DNLS)
