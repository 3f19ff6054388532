"""Time integration: conservation, soliton propagation, diagnostics."""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from dnls_well import evolve as ev
from dnls_well.evolve import (
    EvolveConfig,
    Trajectory,
    _Stepper,
    evolve,
    gauge_consistency,
    kappa,
    profile_fit,
    reversal_error,
    step,
)
from dnls_well.field import (
    Field,
    Grid,
    GridError,
    integrate,
    l2_norm_sq,
    make_grid,
    spectral_derivative,
)
from dnls_well.classifier import apriori_bound, invariant_summary, k_sign
from dnls_well.functionals import invariants
from dnls_well.gauge import gauge_transform
from dnls_well.solitons import (
    ModelParams,
    SolitonParams,
    phi_one_two,
    sample_phi,
    sample_varphi,
    suggested_half_length,
)

from conftest import inner_re, lp_norm_pow, random_smooth_field


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


def test_status_is_read_from_the_reason():
    traj = Trajectory()
    assert (traj.status, traj.reason) == ("ok", None)
    for reason, status in [("non-finite", "blow-up"), ("amp-cap", "blow-up"),
                           ("step-budget", "stopped"), ("under-resolved", "stopped")]:
        traj.reason = reason
        assert traj.status == status
    with pytest.raises(AttributeError):
        traj.status = "ok"


def test_drift_small_on_smooth_data(rng):
    g = make_grid(20.0, 256)
    f = random_smooth_field(rng, g, amp=0.5)
    cfg = EvolveConfig(b=0.1, t_end=0.1)
    traj = evolve(f, cfg)
    assert traj.status == "ok"
    assert traj.reason is None
    assert traj.n_steps == round(0.1 / traj.dt_used)
    assert traj.dt_trail and traj.dt_used <= traj.dt_trail[-1]
    worst = max(max(row["dE"], row["dM"], row["dP"]) for row in traj.drift)
    assert worst < 1e-6


def test_peak_drift_and_phase_times(rng):
    g = make_grid(20.0, 256)
    f = random_smooth_field(rng, g, amp=0.5)
    t0 = time.perf_counter()
    traj = evolve(f, EvolveConfig(b=0.1, t_end=0.1, record_every=3), monitor=(1.0, 0.0))
    wall = time.perf_counter() - t0
    assert traj.peak_drift == max(max(r["dE"], r["dM"], r["dP"]) for r in traj.drift)
    assert traj.peak_drift > 0.0
    assert set(traj.phase_s) == {"tune", "step", "record"}
    assert all(s >= 0.0 for s in traj.phase_s.values())
    assert sum(traj.phase_s.values()) <= wall


def test_data_too_large_for_the_floor_says_so(monkeypatch):
    # the CFL cap alone is below t_end / MAX_STEPS: no Richardson test runs,
    # no step is taken, so no stepper is built either
    def refuse(*args):
        raise AssertionError("a stepper was built")

    monkeypatch.setattr(ev, "_Stepper", refuse)
    g = make_grid(10.0, 128)
    f = Field(g, 9e5 * np.exp(-g.x**2, dtype=complex))
    traj = evolve(f, EvolveConfig(b=0.5, dt=0.05, t_end=1.0))
    cap = 0.5 * g.dx / (1.0 + np.max(np.abs(f.values)) ** 2)
    assert (traj.status, traj.reason, traj.n_steps) == ("stopped", "step-budget", 0)
    assert traj.dt_trail == [] and traj.dt_used == pytest.approx(cap, rel=1e-12)
    assert cap * ev.MAX_STEPS < 1.0
    assert traj.phase_s["step"] == 0.0


def test_step_budget_stops_before_stepping():
    # no dt from the CFL cap 8.7e-5 down to t_end / MAX_STEPS = 1e-6 passes the
    # Richardson test (only one near 4e-8 would, some 2.4e7 steps to t_end)
    g = make_grid(10.0, 128)
    f = Field(g, 30.0 * np.exp(-g.x**2, dtype=complex))
    traj = evolve(f, EvolveConfig(b=0.5, dt=0.05, t_end=1.0))
    assert (traj.status, traj.reason, traj.n_steps) == ("stopped", "step-budget", 0)
    assert traj.times == [0.0] and traj.dt_used < 1.0 / ev.MAX_STEPS


def test_richardson_failure_keeps_its_reason(rng, monkeypatch):
    # a tolerance no step size can meet: the test runs, then gives up at the
    # budget t_end / MAX_STEPS = 1e-4
    monkeypatch.setattr(ev, "ADAPT_TOL", 0.0)
    monkeypatch.setattr(ev, "MAX_STEPS", 1000)
    g = make_grid(20.0, 256)
    f = random_smooth_field(rng, g, amp=0.5)
    traj = evolve(f, EvolveConfig(b=0.1, t_end=0.1))
    assert (traj.status, traj.reason, traj.n_steps) == ("stopped", "step-budget", 0)
    assert traj.dt_trail == [1e-3, 5e-4, 2.5e-4, 1.25e-4]
    assert traj.dt_used == 6.25e-5


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


@pytest.mark.parametrize("b, omega, c", [(0.1, 1.0, 0.5), (-0.1, 1.0, 0.5), (0.1, 1.0, -1.5)])
@pytest.mark.parametrize("a, sample", [(0.0, sample_phi), (0.25, sample_varphi)])
def test_travelling_soliton_is_an_exact_solution(b, omega, c, a, sample):
    # u(t, x) = e^{i omega t} f0(x - c t) in either frame; the shift is taken
    # by Fourier multiplier.  Measured errors are 1.9e-10 to 1.1e-7, the
    # worst at b = -0.1, a = 0, where the time error of dt = 1e-3 dominates
    sp = SolitonParams(ModelParams(b), omega, c)
    g = make_grid(1.5 * suggested_half_length(sp), 1024)
    f0 = sample(sp, g)
    t_end = 1.0
    traj = evolve(f0, EvolveConfig(b=b, gauge_a=a, t_end=t_end))
    assert traj.status == "ok"
    exact = np.exp(1j * omega * t_end) * np.fft.ifft(np.exp(-1j * g.k * c * t_end) * np.fft.fft(f0.values))
    assert np.linalg.norm(traj.final.values - exact) <= 1e-6 * np.linalg.norm(exact)


def test_single_step_preserves_mass(rng):
    g = make_grid(20.0, 256)
    f = random_smooth_field(rng, g, amp=0.5)
    out = step(f, EvolveConfig(b=0.0, dt=1e-3))
    assert l2_norm_sq(out) == pytest.approx(l2_norm_sq(f), rel=1e-10)


def _cfl_dt_only(f0, vhat0, p, cfg):
    """_tune_dt without its Richardson test: the CFL-capped dt, as t_end over
    a whole number of steps."""
    n = max(1, math.ceil(cfg.t_end / ev._cfl_dt(f0, cfg.dt)))
    return cfg.t_end / n, n, _Stepper(f0.grid, cfg.t_end / n, p, cfg.gauge_a), [cfg.t_end / n]


def test_blow_up_is_reported_not_raised(monkeypatch):
    # the step budget stops this run before its first step (see above); step
    # with the CFL-capped dt instead, which meets the blow-up at once
    monkeypatch.setattr(ev, "_tune_dt", _cfl_dt_only)
    g = make_grid(10.0, 128)
    f = Field(g, 30.0 * np.exp(-g.x**2, dtype=complex))
    cfg = EvolveConfig(b=0.5, dt=0.05, t_end=1.0, record_every=1)
    traj = evolve(f, cfg)
    assert traj.status == "blow-up"
    assert traj.reason == "amp-cap"
    assert traj.n_steps == 1 and traj.times[-1] == pytest.approx(traj.dt_used)
    assert len(traj.dt_trail) == 1 and traj.dt_used <= traj.dt_trail[0]
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


def test_t_end_past_any_step_budget_stops_without_a_step_count(rng):
    # t_end / dt overflows to inf here; no step count is formed from it
    g = make_grid(20.0, 256)
    f = random_smooth_field(rng, g, amp=0.5)
    traj = evolve(f, EvolveConfig(b=0.1, t_end=1e306))
    assert (traj.status, traj.reason, traj.n_steps) == ("stopped", "step-budget", 0)
    assert traj.dt_trail == [] and traj.dt_used == 1e-3
    assert traj.times == [0.0]


def test_step_longer_than_the_run_by_more_than_a_float_still_takes_one_step():
    # t_end / dt = 1e-30 / 1.25e299 underflows to 0: still one step, of t_end
    g = make_grid(1e300, 8)
    traj = evolve(Field(g, np.zeros(8, complex)), EvolveConfig(b=0.0, dt=1e300, t_end=1e-30))
    assert (traj.status, traj.n_steps, traj.dt_used) == ("ok", 1, 1e-30)
    assert traj.dt_trail == [1e-30]


@pytest.mark.parametrize("amp", [1e60, 1e200])
def test_data_whose_integrals_overflow_is_refused_before_tuning(amp):
    # at 1e200 the CFL cap's max |v0|^2 would overflow first
    g = make_grid(10.0, 128)
    f = Field(g, amp * np.exp(-g.x**2, dtype=complex))
    with pytest.raises(GridError, match="not finite"):
        evolve(f, EvolveConfig(b=0.5, dt=0.05, t_end=1.0))


@pytest.mark.parametrize("t_end", [1e-5, 0.0105])
def test_evolve_lands_on_t_end(rng, t_end, monkeypatch):
    # the dt tested is the dt stepped: each dt tried builds one stepper, and
    # the accepted trial's full-step stepper runs the whole way
    builds = []

    class Counted(_Stepper):
        def __init__(self, *args):
            builds.append(args[1])
            super().__init__(*args)

    monkeypatch.setattr(ev, "_Stepper", Counted)
    g = make_grid(20.0, 256)
    f = random_smooth_field(rng, g, amp=0.5)
    traj = evolve(f, EvolveConfig(b=0.1, dt=1e-3, t_end=t_end))
    assert traj.status == "ok"
    assert traj.times[-1] == pytest.approx(t_end, rel=1e-12)
    assert traj.dt_used <= 1e-3
    assert traj.dt_trail[-1] == traj.dt_used
    assert len(builds) == len(traj.dt_trail) + 1


@pytest.mark.parametrize(
    "bad",
    [
        {"t_end": -0.5},  # would step backwards
        {"t_end": 0.0},  # would take one step of size 0
        {"t_end": float("inf")},
        {"t_end": float("nan")},
        {"dt": 0.0},  # would be reported as a step-budget blow-up
        {"dt": -1e-3},
        {"dt": float("nan")},
        {"record_every": 0},  # would divide by zero
        {"record_every": -1},
        {"record_every": 2.5},  # i % 2.5 would record every 5th step
        {"record_every": 1.0},
        {"record_every": True},
    ],
)
def test_config_rejects_impossible_runs(bad):
    with pytest.raises(ValueError):
        EvolveConfig(b=0.1, **bad)


def test_adaptive_dt_no_larger_than_requested(rng):
    g = make_grid(20.0, 256)
    f = random_smooth_field(rng, g)
    traj = evolve(f, EvolveConfig(b=0.0, dt=1e-2, t_end=0.05))
    assert traj.dt_used <= 1e-2 + 1e-15


# --- aliasing: a step owns its result, snapshots own their data ---------------


def _stepper_and_state(rng, n=256, a=0.25):
    g = make_grid(20.0, n)
    vhat = np.fft.fft(random_smooth_field(rng, g, amp=0.8).values)
    return g, _Stepper(g, 1e-3, ModelParams(0.1), a), vhat


@pytest.mark.parametrize("a", [0.0, 0.25, 0.1])
def test_step_is_reversed_by_its_conjugate_step(a):
    # w(t, x) = conj v(-t, -x) solves the equation whenever v does, and on the
    # grid x -> -x with conjugation is conj(v-hat); so step, conjugate, step,
    # conjugate returns v-hat_0 up to the step's error.  The dt^5 terms of the
    # two steps cancel, so the round trip is O(dt^6): about 64x per halving
    g = make_grid(20.0, 512)
    vhat0 = np.fft.fft(random_smooth_field(np.random.default_rng(3), g, amp=1.5).values)
    errs = []
    for dt in (4e-2, 2e-2, 1e-2, 5e-3):
        st = _Stepper(g, dt, ModelParams(0.1), a)
        back = np.conj(st.step(np.conj(st.step(vhat0))))
        errs.append(np.linalg.norm(back - vhat0) / np.linalg.norm(vhat0))
    assert errs[-1] > 1e-13  # every halving below is read above rounding
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse >= 32.0 * fine, errs


@pytest.mark.parametrize("a", [0.0, 0.25])
def test_step_leaves_its_input_unchanged(rng, a):
    _, st, vhat = _stepper_and_state(rng, a=a)
    before = vhat.copy()
    st.step(vhat)
    st.step(vhat)
    assert np.array_equal(vhat, before)


def test_steps_return_fresh_arrays(rng):
    _, st, vhat = _stepper_and_state(rng)
    first = st.step(vhat)
    kept = first.copy()
    second = st.step(first)
    buffers = [x for x in vars(st).values() if isinstance(x, np.ndarray)]
    assert buffers
    assert not np.shares_memory(first, second)
    for out in (first, second):
        assert not any(np.shares_memory(out, buf) for buf in buffers)
    assert np.array_equal(first, kept)


def test_every_snapshot_owns_its_data(rng):
    g = make_grid(20.0, 256)
    f = random_smooth_field(rng, g, amp=0.5)
    p = ModelParams(0.1)
    traj = evolve(f, EvolveConfig(b=p.b, gauge_a=0.25, t_end=0.01, record_every=1))
    assert traj.status == "ok" and len(traj.snapshots) == traj.n_steps + 1 >= 3
    values = [snap.values for _, snap in traj.snapshots]
    # a record step takes v and v_x from one (2, N) transform; a snapshot
    # that kept row 0 of it would keep v_x alive too
    assert all(x.base is None or x.base.size == g.N for x in values)
    for i, x in enumerate(values):
        for y in values[i + 1:]:
            assert not np.shares_memory(x, y)
    # an independent re-run, one fresh stepper, reproduces every snapshot
    st = _Stepper(g, traj.dt_used, p, 0.25)
    vhat = np.fft.fft(f.values)
    assert np.array_equal(values[0], f.values)
    for x in values[1:]:
        vhat = st.step(vhat)
        assert np.array_equal(x, np.fft.ifft(vhat))


@pytest.mark.parametrize("a", [0.0, 0.25])
def test_records_equal_a_recomputation_from_the_snapshots(rng, a):
    # each record is the invariants of its stored snapshot (read again in the
    # well frame for the monitor), so recomputing them reproduces it exactly
    g = make_grid(20.0, 512)
    p, monitor = ModelParams(0.1), (1.0, 0.4)
    f = random_smooth_field(rng, g, amp=0.8)
    traj = evolve(f, EvolveConfig(b=p.b, gauge_a=a, t_end=0.05, record_every=7), monitor=monitor)
    assert traj.status == "ok" and len(traj.drift) >= 3
    inv0 = invariants(f, p.b, a)
    char = max(inv0.mass + inv0.grad_sq, 1e-30)
    e0, m0, p0 = inv0.energy, inv0.mass, inv0.momentum
    scales = [max(abs(q), char) for q in (e0, m0, p0)]
    for (t, snap), drift, (t_grad, grad) in zip(traj.snapshots, traj.drift, traj.grad_history):
        assert t == drift["t"] == t_grad
        inv = invariants(snap, p.b, a)
        assert drift == {
            "t": t,
            "dE": abs(inv.energy - e0) / scales[0],
            "dM": abs(inv.mass - m0) / scales[1],
            "dP": abs(inv.momentum - p0) / scales[2],
        }
        well = inv if a == 0.25 else invariants(gauge_transform(snap, 0.25 - a), p.b, 0.25)
        assert grad == well.grad_sq


def test_gauge_consistency_refuses_runs_that_never_stepped():
    # both runs stop on "step-budget" with no step taken: two copies of the
    # data would compare equal, so there is no distance to report
    g = make_grid(20.0, 512)
    f = Field(g, 1e3 * np.exp(-g.x**2))
    assert evolve(f, EvolveConfig(b=0.05, t_end=0.05)).reason == "step-budget"
    with pytest.raises(RuntimeError, match="a = 0 step-budget, a = 0.25 step-budget"):
        gauge_consistency(f, 0.05, t_end=0.05)


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


def test_profile_fit_reports_few_steps_on_the_family(rng):
    # Gauss-Newton converges quadratically where the residual is small
    g = make_grid(60.0, 2048)
    for theta, y, lam in ((0.7, -3.0, 1.0), (2.1, 5.5, 0.7), (5.0, 0.0, 1.4)):
        vals = np.exp(1j * theta) / np.sqrt(lam) * phi_one_two((g.x - y) / lam)
        noise = random_smooth_field(rng, g, amp=1.0).values
        for f in (vals, vals + 0.01 * np.max(np.abs(vals)) / np.max(np.abs(noise)) * noise):
            assert 1 <= profile_fit(Field(g, f))["steps"] <= 8


def test_profile_fit_raises_on_an_amplitude_the_window_cannot_hold():
    # 1e-6 phi_{1,2} is lam^{-1/2} phi_{1,2} only for lam ~ 1e12 >> L, so no
    # fit on this grid means anything.  Rounding-level changes to the data
    # decide whether the fit keeps moving until the step cap or stops after
    # a dozen steps with its centre ~1e9 off the grid (the two perturbations
    # here did so with numpy 2.4 on x86-64); either way it must raise
    g = make_grid(60.0, 2048)
    vals = 1e-6 * phi_one_two(g.x)
    for noise in (0.0, *(np.random.default_rng(s).standard_normal(g.N) for s in (4, 5))):
        with pytest.raises(RuntimeError):
            profile_fit(Field(g, vals * (1.0 + 1e-14 * noise)))


def test_profile_fit_step_cap_names_the_count(monkeypatch):
    monkeypatch.setattr(ev, "FIT_MAX_STEPS", 2)
    g = make_grid(60.0, 2048)
    with pytest.raises(RuntimeError, match="after 2 steps"):
        profile_fit(Field(g, np.exp(-(g.x**2)) + 0j))


def test_monitor_at_a0_is_the_well_frame_read_bit_for_bit():
    # the a-priori bound controls ||(G_{1/4} u)_x||^2, so that is what a
    # frame-a run must record; ||u_x||^2 here is 2.957 against 2.508
    p = ModelParams(0.1)
    sp = SolitonParams(p, 1.0, 0.4)
    g = make_grid(suggested_half_length(sp), 512)
    u0 = gauge_transform(Field(g, 0.9 * sample_varphi(sp, g).values), -0.25)
    traj = evolve(u0, EvolveConfig(b=0.1, gauge_a=0.0, t_end=0.1), monitor=(1.0, 0.4))
    assert traj.status == "ok" and len(traj.snapshots) > 2
    assert traj.apriori_bound == apriori_bound(invariant_summary(u0, p, 0.0), 1.0, 0.4)
    records = zip(traj.snapshots, traj.grad_history, traj.k_signs, strict=True)
    for (t, snap), (tg, grad), (tk, sign) in records:
        well = invariant_summary(snap, p, 0.0)
        assert t == tg == tk
        assert grad == well.grad_sq
        assert grad == pytest.approx(l2_norm_sq(spectral_derivative(gauge_transform(snap, 0.25))), rel=1e-12)
        assert sign == k_sign(well, 1.0, 0.4)
    assert all(grad <= traj.apriori_bound * (1 + 1e-4) for _, grad in traj.grad_history)


@pytest.mark.parametrize("a", [float("nan"), float("inf"), -float("inf")])
def test_config_rejects_non_finite_gauge_a(a):
    with pytest.raises(ValueError):
        EvolveConfig(b=0.0, gauge_a=a)


def test_gauge_consistency_is_the_l2_distance_of_the_two_paths():
    sp = SolitonParams(ModelParams(0.05), 1.0, 0.4)
    f = sample_phi(sp, make_grid(suggested_half_length(sp), 256))
    cfg = EvolveConfig(b=0.05, t_end=0.02, record_every=10**9)
    u = gauge_transform(evolve(f, cfg).final, 0.25)
    v = evolve(gauge_transform(f, 0.25), EvolveConfig(b=0.05, gauge_a=0.25, t_end=0.02)).final
    dist = math.sqrt(l2_norm_sq(Field(f.grid, u.values - v.values)))
    assert gauge_consistency(f, 0.05, t_end=0.02) == dist < 1e-5


@pytest.mark.parametrize("monitor", [(math.nan, 0.5), (1.0, math.inf), (-math.inf, 0.5)])
def test_monitor_rejects_non_finite_omega_and_c(monitor):
    sp = SolitonParams(ModelParams(0.1), 1.0, 0.5)
    f = sample_phi(sp, make_grid(suggested_half_length(sp), 256))
    with pytest.raises(ValueError, match="monitor"):
        evolve(f, EvolveConfig(b=0.1, t_end=0.01), monitor=monitor)


def test_a_resolved_run_is_not_stopped():
    # the perturbation of a flat field grows by many orders from a gradient
    # of about 1e-12 while the spectrum stays resolved; the run goes on until
    # its tail or drift gives out, measured at t = 7.88
    g = make_grid(10.0, 256)
    f = Field(g, 1.5 + 1e-6 * np.cos(np.pi * g.x / 10.0) + 0j)
    traj = evolve(f, EvolveConfig(b=0.5, t_end=10.0))
    assert (traj.status, traj.reason) == ("stopped", "under-resolved")
    assert traj.times[-1] > 7.0
    assert all(tail < 1e-20 for t, tail in traj.tail_history if t <= 6.53)


def test_single_step_blow_up_raises():
    # a constant field of height 10 at b = 0.1 and dt = 0.01: the RK4 stages of
    # the quintic rotation grow past AMP_CAP, still finite
    g = make_grid(3.0, 8)
    with pytest.raises(FloatingPointError, match="blow-up in a single step"):
        step(Field(g, np.full(8, 10.0, dtype=complex)), EvolveConfig(b=0.1, dt=0.01))


def test_each_record_carries_its_spectral_tail():
    # a mode at |n| = 70, inside the band (N/4, N/3] = (64, 85.3] of N = 256,
    # beside one at n = 3: the tail at t = 0 is 0.05^2 / (1 + 0.05^2)
    g = make_grid(20.0, 256)
    f = Field(g, np.exp(3j * np.pi * g.x / g.L) + 0.05 * np.exp(-70j * np.pi * g.x / g.L))
    traj = evolve(f, EvolveConfig(b=0.0, t_end=0.01, record_every=2))
    assert [t for t, _ in traj.tail_history] == [row["t"] for row in traj.drift]
    assert traj.tail_history[0][1] == pytest.approx(0.05**2 / (1.0 + 0.05**2), rel=1e-12)
    assert traj.peak_tail == max(tail for _, tail in traj.tail_history)


@pytest.mark.parametrize("n", [384, 512, 768, 4096])
@pytest.mark.parametrize("L", [1.0, math.pi, 20.0, 30.0, 45.0, 60.0])
def test_masks_keep_the_edges_of_the_expressions_they_replaced(n, L):
    """`_masks` against the kept-mode and band expressions it replaced, copied
    verbatim, element for element.  Every N here has a mode exactly at N/4, on
    the band's lower edge, and N = 384 and 768 one exactly at N/3, on the
    2/3 edge.  There a reordered threshold can fall the other way: at N = 384,
    L = 45, 2 k_max / 3 keeps the N/3 modes that DEALIAS k_max drops."""
    k = make_grid(L, n).k
    kept = (np.abs(k) <= ev.DEALIAS * np.max(np.abs(k))).astype(float)
    k_abs = np.abs(k)
    band = kept * (k_abs > 0.5 * np.max(k_abs))
    new_kept, new_band = ev._masks(k)
    assert np.array_equal(new_kept, kept) and np.array_equal(new_band, band)
    assert new_kept.dtype == new_band.dtype == np.float64


def test_focusing_soliton_stops_under_resolved():
    # 1.005 varphi at s = 0.9, past s*(0.1) = 0.716, focuses: its tail rises
    # from 3e-10 at t = 0 to 1e-4 at t = 4, and the run used to end "ok" at
    # t = 8 with peak_drift 3.4
    sp = SolitonParams(ModelParams(0.1), 1.0, 1.8)
    g = make_grid(3.0 * suggested_half_length(sp), 2048)
    f = Field(g, 1.005 * sample_varphi(sp, g).values)
    traj = evolve(f, EvolveConfig(b=0.1, gauge_a=0.25, t_end=8.0))
    assert (traj.status, traj.reason) == ("stopped", "under-resolved")
    assert traj.times[-1] < 5.0
    assert traj.peak_tail > ev.TAIL_MAX or traj.peak_drift > ev.DRIFT_MAX


def test_focusing_gaussian_stops_under_resolved():
    # 4 e^{-x^2} at b = 0.5 outgrows N = 256 by t = 0.02; it used to end "ok"
    # at t = 3 with peak_drift 5.8e2
    g = make_grid(10.0, 256)
    traj = evolve(Field(g, 4.0 * np.exp(-g.x**2, dtype=complex)), EvolveConfig(b=0.5, t_end=3.0))
    assert (traj.status, traj.reason) == ("stopped", "under-resolved")
    assert traj.times[-1] < 3.0


# --- the time-reversal error estimate ---------------------------------------


def _scaled_soliton(b, omega, c, lam, n=512):
    """lam varphi_{omega,c} in the well frame, on the suggested window."""
    sp = SolitonParams(ModelParams(b), omega, c)
    g = make_grid(suggested_half_length(sp), n)
    return Field(g, lam * sample_varphi(sp, g).values)


def _rel_l2(f: Field, ref: Field) -> float:
    return math.sqrt(l2_norm_sq(Field(ref.grid, f.values - ref.values)) / l2_norm_sq(ref))


def test_reflection_is_an_exact_involution():
    # conj v(-x) on the grid is conj(v-hat) in Fourier space, and its own inverse
    v = random_smooth_field(np.random.default_rng(5), make_grid(20.0, 512), amp=1.5).values
    w = ev._reflect(v)
    assert np.max(np.abs(w - np.fft.ifft(np.conj(np.fft.fft(v))))) < 1e-15 * 512
    assert np.array_equal(ev._reflect(w), v)
    assert w[0] == np.conj(v[0]) and w[1] == np.conj(v[-1])


@pytest.mark.parametrize("b, omega, c, lam", [(0.1, 1.0, -0.5, 1.25), (0.0, 1.0, 0.0, 1.2), (0.05, 1.2, 0.3, 1.18)])
def test_reversal_error_tracks_the_time_error_on_a_minus_data(b, omega, c, lam):
    # criterion 08's A- members have no exact solution; the reference is the
    # same run at dt/8.  Measured ratios: 0.67, 1.21 and 0.41.  Records do not
    # change the steps, so the runs record only at t = 0 and t_end
    f = _scaled_soliton(b, omega, c, lam)
    cfg = EvolveConfig(b=b, gauge_a=0.25, t_end=1.0, record_every=10**9)
    run = evolve(f, cfg)
    ref = evolve(f, replace(cfg, dt=run.dt_used / 8))
    assert run.status == ref.status == "ok"
    err = _rel_l2(run.final, ref.final)
    est = reversal_error(f, cfg)["error"]
    assert 0.1 * err < est < 10.0 * err, (est, err)


@pytest.mark.parametrize("a", [0.25, 0.0])
def test_reversal_error_reports_the_tail_that_its_round_trip_cannot_see(a):
    # the c = 1.9 soliton at b = 0.1 is under-resolved in space at N = 1024
    # (error 6.3e-5 against the exact solution), which a round trip cannot
    # see: it reads 2.9e-10 at a = 1/4 and 6.6e-9 at a = 0.  The tail flags
    # it, 8.8e-8 and 1.7e-7 against 1e-22 at c = 0.5
    sp = SolitonParams(ModelParams(0.1), 1.0, 1.9)
    g = make_grid(1.5 * suggested_half_length(sp), 1024)
    f = (sample_varphi if a else sample_phi)(sp, g)
    res = reversal_error(f, EvolveConfig(b=0.1, gauge_a=a, t_end=1.0))
    assert res["peak_tail"] > 1e-9 and res["error"] < 1e-7, res


def test_reversal_error_refuses_the_zero_field():
    f = Field(make_grid(10.0, 64), np.zeros(64, complex))
    with pytest.raises(ValueError, match="relative reversal error is undefined"):
        reversal_error(f, EvolveConfig(b=0.1, t_end=0.01))


def test_reversal_error_refuses_runs_that_stop_short():
    g = make_grid(20.0, 512)
    f = Field(g, 1e3 * np.exp(-g.x**2))
    with pytest.raises(RuntimeError, match="forward step-budget, reflected step-budget"):
        reversal_error(f, EvolveConfig(b=0.05, t_end=0.05))


@pytest.mark.parametrize(
    "spec, a",
    [((0.1, 1.0, 0.4, 0.8), 0.25), ((0.1, 1.0, 0.4, 0.8), 0.0), ((0.1, 1.0, -0.5, 1.25), 0.25)],
    ids=["A+-a1/4", "A+-a0", "A--a1/4"],
)
def test_flow_commutes_with_the_mass_critical_rescaling(spec, a):
    """u -> 2 u(4 x) on the grid (L/4, N), run to t/16 and halved, is the run
    of u to t, within 5x the larger of the two runs' reversal errors.

    It is not bit-exact: the image does not step at dt/16.  The CFL cap
    0.5 dx / (1 + max |v|^2) and the default dt do not scale with the
    field, so the A+ image steps at 1.76e-4, 2.8e-3 in the unscaled time,
    against 1e-3 for u.  Measured gap over estimate: 0.28 and 0.33 for A+
    at a = 1/4 and a = 0, and 1.16 for A-.
    """
    b = spec[0]
    f = _scaled_soliton(*spec)
    image = Field(Grid(f.grid.L / 4.0, f.grid.N), 2.0 * f.values)
    cfg = EvolveConfig(b=b, gauge_a=a, t_end=1.0, record_every=10**9)
    image_cfg = replace(cfg, t_end=cfg.t_end / 16.0)
    run, image_run = evolve(f, cfg), evolve(image, image_cfg)
    assert run.status == image_run.status == "ok"
    gap = _rel_l2(Field(f.grid, 0.5 * image_run.final.values), run.final)
    est = max(reversal_error(f, cfg)["error"], reversal_error(image, image_cfg)["error"])
    assert gap < 5.0 * est, (gap, est)
