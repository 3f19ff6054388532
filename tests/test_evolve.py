"""Time integration: conservation, soliton propagation, diagnostics."""
import numpy as np
import pytest

from dnls_well.evolve import (
    EvolveConfig,
    Trajectory,
    evolve,
    gauge_consistency,
    kappa,
    profile_fit,
    step,
)
from dnls_well.field import (
    Field,
    inner_re,
    integrate,
    l2_norm_sq,
    lp_norm_pow,
    make_grid,
    spectral_derivative,
)
from dnls_well.functionals import invariants
from dnls_well.solitons import (
    ModelParams,
    SolitonParams,
    phi_one_two,
    sample_phi,
    sample_varphi,
    suggested_half_length,
)

from conftest import random_smooth_field


def test_kappa_values():
    assert kappa(ModelParams(0.0), 0.25) == pytest.approx(3.0 / 16.0)
    assert kappa(ModelParams(0.2), 0.0) == pytest.approx(0.2)


def test_conserved_quantities_match_functionals(rng):
    g = make_grid(20.0, 256)
    f = random_smooth_field(rng, g)
    p = ModelParams(0.1)
    # the DNLS-frame and gauge-frame formulas, written out
    fx = spectral_derivative(f)
    grad = l2_norm_sq(fx)
    inter = integrate((1j * np.abs(f.values) ** 2 * fx.values * np.conj(f.values)).real, g)
    p_lin = inner_re(Field(g, 1j * fx.values), f)
    l4, l6 = lp_norm_pow(f, 4), lp_norm_pow(f, 6)
    dnls, gauge = invariants(f, p.b, 0.0), invariants(f, p.b, 0.25)
    assert dnls.energy == pytest.approx(0.5 * grad - 0.25 * inter - p.b / 6.0 * l6, rel=1e-12)
    assert dnls.momentum == pytest.approx(p_lin, rel=1e-12)
    assert gauge.energy == pytest.approx(0.5 * grad - p.gamma / 32.0 * l6, rel=1e-12)
    assert gauge.momentum == pytest.approx(p_lin + 0.25 * l4, rel=1e-12)


def test_drift_small_on_smooth_data(rng):
    g = make_grid(20.0, 256)
    f = random_smooth_field(rng, g, amp=0.5)
    cfg = EvolveConfig(b=0.1, t_end=0.1)
    traj = evolve(f, cfg)
    assert traj.status == "ok"
    worst = max(max(row["dE"], row["dM"], row["dP"]) for row in traj.drift)
    assert worst < 1e-6


def test_standing_wave_rotates_in_place():
    p = ModelParams(0.0)
    sp = SolitonParams(p, 1.0, 0.0)
    g = make_grid(suggested_half_length(sp), 512)
    f = sample_phi(sp, g)
    t_end = 0.2
    traj = evolve(f, EvolveConfig(b=0.0, t_end=t_end, dt=1e-3))
    expect = np.exp(1j * 1.0 * traj.times[-1]) * f.values
    err = np.sqrt(np.sum(np.abs(traj.final.values - expect) ** 2) * g.dx)
    assert err < 1e-5


def test_gauge_frame_standing_wave():
    # in the a = 1/4 frame the c = 0 soliton is varphi and still rotates
    p = ModelParams(0.1)
    sp = SolitonParams(p, 1.0, 0.0)
    g = make_grid(suggested_half_length(sp), 512)
    f = sample_varphi(sp, g)
    traj = evolve(f, EvolveConfig(b=0.1, gauge_a=0.25, t_end=0.2, dt=1e-3))
    expect = np.exp(1j * traj.times[-1]) * f.values
    err = np.sqrt(np.sum(np.abs(traj.final.values - expect) ** 2) * g.dx)
    assert err < 1e-5


def test_single_step_preserves_mass(rng):
    g = make_grid(20.0, 256)
    f = random_smooth_field(rng, g, amp=0.5)
    out = step(f, EvolveConfig(b=0.0, dt=1e-3))
    assert l2_norm_sq(out) == pytest.approx(l2_norm_sq(f), rel=1e-10)


def test_blow_up_is_reported_not_raised():
    g = make_grid(10.0, 128)
    f = Field(g, 30.0 * np.exp(-g.x**2, dtype=complex))
    cfg = EvolveConfig(b=0.5, dt=0.05, t_end=1.0, adapt=False, record_every=1)
    traj = evolve(f, cfg)
    assert traj.status == "blow-up"
    assert traj.times[-1] <= 1.0
    for _, snap in traj.snapshots:
        assert np.all(np.isfinite(snap.values))


def test_monitor_tracks_k_sign_and_bound():
    p = ModelParams(0.1)
    sp = SolitonParams(p, 1.0, 0.4)
    g = make_grid(suggested_half_length(sp), 512)
    f = Field(g, 0.9 * sample_varphi(sp, g).values)
    traj = evolve(f, EvolveConfig(b=0.1, gauge_a=0.25, t_end=0.1), monitor=(1.0, 0.4))
    assert traj.apriori_bound is not None
    assert all(sign == 1 for _, sign in traj.k_signs)
    assert all(grad <= traj.apriori_bound * (1 + 1e-4) for _, grad in traj.grad_history)


@pytest.mark.parametrize("t_end", [1e-5, 0.0105])
def test_evolve_lands_on_t_end(rng, t_end):
    g = make_grid(20.0, 256)
    f = random_smooth_field(rng, g, amp=0.5)
    traj = evolve(f, EvolveConfig(b=0.1, dt=1e-3, t_end=t_end))
    assert traj.status == "ok"
    assert traj.times[-1] == pytest.approx(t_end, rel=1e-12)
    assert traj.dt_used <= 1e-3


def test_adaptive_dt_no_larger_than_requested(rng):
    g = make_grid(20.0, 256)
    f = random_smooth_field(rng, g)
    traj = evolve(f, EvolveConfig(b=0.0, dt=1e-2, t_end=0.05))
    assert traj.dt_used <= 1e-2 + 1e-15


def test_gauge_consistency_small(rng):
    g = make_grid(20.0, 512)
    f = random_smooth_field(rng, g, amp=0.5)
    assert gauge_consistency(f, 0.1, t_end=0.1) < 1e-5


def test_profile_fit_recovers_exact_parameters():
    g = make_grid(60.0, 2048)
    theta, y, lam = 1.3, -2.5, 0.8
    vals = np.exp(1j * theta) / np.sqrt(lam) * phi_one_two((g.x - y) / lam)
    out = profile_fit(Field(g, vals))
    assert out["theta"] == pytest.approx(theta, abs=1e-9)
    assert out["y"] == pytest.approx(y, abs=1e-9)
    assert out["lam"] == pytest.approx(lam, abs=1e-9)
    assert out["residual_h1"] < 1e-8


def test_profile_fit_tolerates_small_perturbation(rng):
    g = make_grid(60.0, 2048)
    theta, y, lam = 0.4, 1.0, 1.2
    vals = np.exp(1j * theta) / np.sqrt(lam) * phi_one_two((g.x - y) / lam)
    noise = random_smooth_field(rng, g, amp=1.0).values
    scale = 0.01 * np.max(np.abs(vals)) / np.max(np.abs(noise))
    out = profile_fit(Field(g, vals + scale * noise))
    assert out["theta"] == pytest.approx(theta, abs=5e-2)
    assert out["y"] == pytest.approx(y, abs=5e-2)
    assert out["lam"] == pytest.approx(lam, abs=5e-2)


def test_profile_fit_rejects_zero_field():
    g = make_grid(10.0, 64)
    with pytest.raises(ValueError):
        profile_fit(Field(g, np.zeros(64, dtype=complex)))
