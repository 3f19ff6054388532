"""The Lawson-RK4 stepper against the ones it replaced, and the blow-up screen.

`SeedStepper` below is the earlier implementation, kept verbatim: two
inverse FFTs per stage and |v|^2, |v|^4 through np.abs.  The current
stepper evaluates the same Lawson-RK4 step in a different order, with 1/N
and the dealiasing mask folded into its dt-dependent weights, so one step
may differ only by rounding, at every dt.  `_NpFft` stands in for the
pocketfft gufuncs the current stepper calls and routes its stage FFTs
through `np.fft`, as they were before the step called the gufuncs directly;
that route must agree to the bit.
`evolve` no longer back-transforms every step to look for blow-up; the
screen tests below check that the Fourier-side bound it uses instead lets
no bad state through.
"""
from dataclasses import replace

import numpy as np
import pytest

from dnls_well import evolve as ev
from dnls_well.evolve import AMP_CAP, EvolveConfig, _Stepper, evolve, kappa
from dnls_well.field import Field, Grid, make_grid
from dnls_well.solitons import ModelParams

from conftest import random_smooth_field

# --- earlier implementation, verbatim ----------------------------------------


class SeedStepper:
    """Precomputed Lawson-RK4 data for one (grid, dt, a, b)."""

    def __init__(self, g: Grid, dt: float, p: ModelParams, a: float, dealias: float = 2.0 / 3.0):
        self.dt = dt
        self.a = a
        self.kap = kappa(p, a)
        self.ik = 1j * g.k
        self.ik[g.N // 2] = 0.0
        lam = -1j * g.k**2
        self.e_half = np.exp(0.5 * dt * lam)
        self.e_full = self.e_half**2
        kmax = np.max(np.abs(g.k))
        self.mask = (np.abs(g.k) <= dealias * kmax).astype(float)

    def _nhat(self, vhat):
        vh = self.mask * vhat
        v = np.fft.ifft(vh)
        vx = np.fft.ifft(self.ik * vh)
        n = (
            -(1.0 - 2.0 * self.a) * np.abs(v) ** 2 * vx
            + 2.0 * self.a * v * v * np.conj(vx)
            + 1j * self.kap * np.abs(v) ** 4 * v
        )
        return self.mask * np.fft.fft(n)

    def step(self, vhat):
        dt, eh, ef = self.dt, self.e_half, self.e_full
        k1 = self._nhat(vhat)
        k2 = self._nhat(eh * vhat + 0.5 * dt * eh * k1)
        k3 = self._nhat(eh * vhat + 0.5 * dt * k2)
        k4 = self._nhat(ef * vhat + dt * eh * k3)
        return ef * vhat + dt / 6.0 * (ef * k1 + 2.0 * eh * (k2 + k3) + k4)


class _NpFft:
    """Stand-in for the pocketfft gufunc module: the stage transforms through
    `np.fft`, as the step made them before it called the gufuncs directly."""

    @staticmethod
    def fft(x, factor, out=None):
        assert factor == 1.0
        return np.fft.fft(x, out=out)

    @staticmethod
    def ifft(x, factor, out=None):
        assert factor == 1.0
        return np.fft.ifft(x, norm="forward", out=out)


# --- parity ------------------------------------------------------------------


def _rel(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


# the folded weights depend on dt, so a second step size rides on n; the
# ids of the dt = 1e-3 cases are those of the cases before it was added
@pytest.mark.parametrize(
    "n, dt",
    [(512, 1e-3), (4096, 1e-3), (512, 3.7e-3), (4096, 3.7e-3)],
    ids=["512", "4096", "512-dt3.7e-3", "4096-dt3.7e-3"],
)
@pytest.mark.parametrize("b", [0.0, 0.1, -0.1])
@pytest.mark.parametrize("a", [0.0, 0.25, 0.1, -0.3])
def test_step_matches_seed_stepper(a, b, n, dt):
    g = make_grid(20.0, n)
    vhat = np.fft.fft(random_smooth_field(np.random.default_rng(n), g, amp=1.5).values)
    p = ModelParams(b)
    seed, new = SeedStepper(g, dt, p, a), _Stepper(g, dt, p, a)
    ref = seed.step(vhat)
    assert _rel(new.step(vhat), ref) <= 1e-13
    # the nonlinearity alone: the step is mostly the integrating factor both
    # share, which dilutes a difference in the stage evaluation by ~1e-3.
    # The stepper's _nhat leaves the mask to the weights, so apply it here
    assert _rel(new.mask * new._nhat(vhat, np.empty(n, complex)), seed._nhat(vhat)) <= 1e-13


# --- the pocketfft kernels against np.fft, bit for bit ---------------------


@pytest.mark.parametrize("shape", [(512,), (2, 512), (8,), (2, 4096)])
def test_kernels_are_np_fft_to_the_bit(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    fwd, inv = np.empty_like(x), np.empty_like(x)
    ev.pocketfft.fft(x, 1.0, out=fwd)
    ev.pocketfft.ifft(x, 1.0, out=inv)
    assert np.array_equal(fwd, np.fft.fft(x))
    assert np.array_equal(inv, np.fft.ifft(x, norm="forward"))


# only the step's stage transforms take the gufunc route, so a run whose
# steps agree to the bit agrees to the bit
@pytest.mark.parametrize("n", [8, 512, 4096])
@pytest.mark.parametrize("b", [0.0, 0.1])
@pytest.mark.parametrize("a", [0.0, 0.1, 0.25])
def test_kernel_route_steps_as_np_fft_to_the_bit(monkeypatch, a, b, n):
    g = make_grid(20.0, n)
    vhat = np.fft.fft(random_smooth_field(np.random.default_rng(n), g, amp=1.5).values)
    p = ModelParams(b)

    def fifty_steps():
        stepper, v = _Stepper(g, 1e-3, p, a), vhat
        for _ in range(50):
            v = stepper.step(v)
        return v

    v_new = fifty_steps()
    monkeypatch.setattr(ev, "pocketfft", _NpFft)
    v_old = fifty_steps()
    assert np.all(np.isfinite(v_new)) and np.array_equal(v_new, v_old)


# --- blow-up screen ----------------------------------------------------------


def _frozen_run(monkeypatch, state, f0):
    """evolve() from f0 whose every step lands on `state`: three steps, of
    which only the last is a record step, so the screen alone decides
    whether the first two stop the run."""
    g = f0.grid
    monkeypatch.setattr(ev._Stepper, "step", lambda self, vhat: np.fft.fft(state))
    cfg = EvolveConfig(b=0.0, record_every=10**9)
    dt = min(cfg.dt, ev.CFL * g.dx / (1.0 + np.max(np.abs(f0.values)) ** 2))
    # three steps of t_end / 3 without the Richardson test, which the frozen
    # states would fail before the screen is reached
    t_end = 2.5 * dt

    def three_steps(f0, vhat0, p, cfg):
        return t_end / 3, 3, ev._Stepper(g, t_end / 3, p, cfg.gauge_a), [t_end / 3]

    monkeypatch.setattr(ev, "_tune_dt", three_steps)
    return evolve(f0, replace(cfg, t_end=t_end))


def test_screen_flags_amplitude_just_above_cap(monkeypatch):
    g = make_grid(20.0, 512)
    state = np.exp(-g.x**2) * (AMP_CAP * (1.0 + 1e-9)) + 0j
    f0 = random_smooth_field(np.random.default_rng(1), g, amp=0.5)
    traj = _frozen_run(monkeypatch, state, f0)
    assert (traj.status, traj.reason, traj.n_steps) == ("blow-up", "amp-cap", 1)


def test_screen_flags_non_finite_state(monkeypatch):
    g = make_grid(20.0, 512)
    state = np.exp(-g.x**2) + 0j
    state[7] = np.nan
    f0 = random_smooth_field(np.random.default_rng(1), g, amp=0.5)
    traj = _frozen_run(monkeypatch, state, f0)
    assert (traj.status, traj.reason, traj.n_steps) == ("blow-up", "non-finite", 1)


def test_screen_lets_large_l1_below_cap_run_on(monkeypatch):
    # sum |v-hat| / N exceeds the cap, so every step takes the exact check,
    # which finds max |v| below it
    g = make_grid(20.0, 512)
    phases = np.exp(2j * np.pi * np.random.default_rng(2).random(g.N))
    state = np.fft.ifft(phases)
    state *= 0.5 * AMP_CAP / np.max(np.abs(state))
    assert np.abs(np.fft.fft(state)).sum() / g.N > AMP_CAP > np.max(np.abs(state))
    traj = _frozen_run(monkeypatch, state, Field(g, state))
    # all three steps pass the screen; the record after the third then reads
    # the white spectrum, a quarter of whose kept power lies in the top band
    assert (traj.status, traj.reason, traj.n_steps) == ("stopped", "under-resolved", 3)
