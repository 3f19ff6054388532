"""Time integration in any gauge frame, plus diagnostics built on it.

The evolution equation for v = G_a(u) is

    v_t = i v_xx - (1-2a)|v|^2 v_x + 2a v^2 conj(v_x) + i kappa |v|^4 v,
    kappa = a^2 + a/2 + b,

solved pseudospectrally with a Lawson (integrating-factor) RK4 step and
2/3-rule dealiasing.  a = 0 is the original equation, a = 1/4 the frame
where the well theory lives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classifier import apriori_bound, k_sign
from .field import Field, Grid, h1_norm, l2_norm_sq, spectral_derivative
from .functionals import WELL_A, invariants
from .gauge import gauge_transform
from .solitons import ModelParams, phi_one_two

AMP_CAP = 1e6
GRAD_FACTOR = 1e4


def kappa(p: ModelParams, a: float) -> float:
    return a * a + 0.5 * a + p.b


@dataclass(frozen=True)
class EvolveConfig:
    b: float
    gauge_a: float = 0.0
    dt: float = 1e-3
    t_end: float = 1.0
    dealias: float = 2.0 / 3.0
    record_every: int = 10
    cfl: float = 0.5
    adapt: bool = True
    adapt_tol: float = 1e-9
    dt_floor: float = 1e-8


class _Stepper:
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


@dataclass
class Trajectory:
    times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    drift: list = field(default_factory=list)
    k_signs: list = field(default_factory=list)
    grad_history: list = field(default_factory=list)
    status: str = "ok"
    dt_used: float = 0.0
    apriori_bound: float | None = None

    @property
    def final(self) -> Field:
        return self.snapshots[-1][1]


def _tune_dt(vhat0, g: Grid, p: ModelParams, cfg: EvolveConfig) -> tuple[float, bool]:
    """Pick the step size; the flag is False when no dt above the floor
    meets the Richardson tolerance (the data is numerically hopeless)."""
    v0 = np.fft.ifft(vhat0)
    dt = min(cfg.dt, cfg.cfl * g.dx / (1.0 + float(np.max(np.abs(v0)) ** 2)))
    if not cfg.adapt:
        return dt, True
    scale = max(np.sqrt(l2_norm_sq(Field(g, v0))), 1e-30)
    ok = False
    while dt > cfg.dt_floor:
        coarse = _Stepper(g, dt, p, cfg.gauge_a, cfg.dealias).step(vhat0)
        fine = _Stepper(g, 0.5 * dt, p, cfg.gauge_a, cfg.dealias)
        vh = fine.step(fine.step(vhat0))
        # Parseval: ||diff||_L2 from the FFT coefficients directly
        with np.errstate(over="ignore", invalid="ignore"):
            err = np.sqrt(g.dx / g.N * np.sum(np.abs(coarse - vh) ** 2))
        if np.isfinite(err) and err / scale < cfg.adapt_tol:
            ok = True
            break
        dt *= 0.5
    return max(dt, cfg.dt_floor), ok


def step(f: Field, cfg: EvolveConfig) -> Field:
    """One integrating-factor RK4 step of the gauge-a equation."""
    p = ModelParams(cfg.b)
    st = _Stepper(f.grid, cfg.dt, p, cfg.gauge_a, cfg.dealias)
    out = np.fft.ifft(st.step(np.fft.fft(f.values)))
    if not np.all(np.isfinite(out)) or np.max(np.abs(out)) > AMP_CAP:
        raise FloatingPointError("numerical blow-up in a single step")
    return Field(f.grid, out)


def evolve(f0: Field, cfg: EvolveConfig, monitor=None) -> Trajectory:
    """Integrate to exactly t_end; record conserved-quantity drift and snapshots.

    The step is the largest dt = t_end / n that is no larger than the tuned
    one.  monitor = (omega, c) additionally tracks, in the well frame
    v = G_{1/4-a}(u), the sign of the dilation functional K and the gradient
    ||v_x||^2 that the a-priori bound 8 S(v0) + (c^2/2) M(v0) controls.
    """
    g = f0.grid
    p = ModelParams(cfg.b)
    a = cfg.gauge_a
    vhat = np.fft.fft(f0.values)
    dt_tuned, dt_ok = _tune_dt(vhat, g, p, cfg)
    n_steps = max(1, math.ceil(cfg.t_end / dt_tuned))
    dt = cfg.t_end / n_steps
    stepper = _Stepper(g, dt, p, a, cfg.dealias)

    def well(f, inv):
        return inv if a == WELL_A else invariants(gauge_transform(f, WELL_A - a), p.b, WELL_A)

    traj = Trajectory(dt_used=dt)
    inv0 = invariants(f0, p.b, a)
    e0, m0, p0 = inv0.energy, inv0.mass, inv0.momentum
    grad0 = inv0.grad_sq
    # solitons can have exactly zero energy or momentum; fall back to the
    # H^1 size of the data so "relative drift" stays meaningful
    char = max(m0 + grad0, 1e-30)
    scales = [max(abs(q), char) for q in (e0, m0, p0)]
    if monitor is not None:
        traj.apriori_bound = apriori_bound(well(f0, inv0), *monitor)

    def record(i, f) -> float:
        """Store the state of step i; returns its gradient norm squared."""
        t = i * dt
        inv = invariants(f, p.b, a)
        traj.times.append(t)
        traj.snapshots.append((t, f))
        traj.drift.append({
            "t": t,
            "dE": abs(inv.energy - e0) / scales[0],
            "dM": abs(inv.mass - m0) / scales[1],
            "dP": abs(inv.momentum - p0) / scales[2],
        })
        if monitor is not None:
            w = well(f, inv)
            traj.k_signs.append((t, k_sign(w, *monitor)))
            traj.grad_history.append((t, w.grad_sq))
        return inv.grad_sq

    record(0, f0)
    if not dt_ok:
        traj.status = "blow-up"
        return traj
    for i in range(1, n_steps + 1):
        vhat = stepper.step(vhat)
        v = np.fft.ifft(vhat)
        if not np.all(np.isfinite(v)) or np.max(np.abs(v)) > AMP_CAP:
            traj.status = "blow-up"
            traj.times.append(i * dt)  # the offending state itself is not storable
            return traj
        if i % cfg.record_every == 0 or i == n_steps:
            if record(i, Field(g, v)) > GRAD_FACTOR**2 * max(grad0, 1e-30):
                traj.status = "blow-up"
                return traj
    return traj


def gauge_consistency(f0: Field, b: float, t_end: float, dt: float = 1e-3) -> float:
    """L^2 distance between evolve-then-gauge and gauge-then-evolve."""
    cfg0 = EvolveConfig(b=b, gauge_a=0.0, dt=dt, t_end=t_end, record_every=10**9)
    cfg4 = EvolveConfig(b=b, gauge_a=0.25, dt=dt, t_end=t_end, record_every=10**9)
    u = evolve(f0, cfg0).final
    path1 = gauge_transform(u, 0.25)
    v = evolve(gauge_transform(f0, 0.25), cfg4).final
    diff = path1.values - v.values
    return float(np.sqrt(np.sum(np.abs(diff) ** 2) * f0.grid.dx))


# --- modulation fit against the algebraic profile --------------------------

_GRAD_SQ_REF = 4.0 * np.pi  # ||d/dx phi_{1,2}||_2^2 in closed form


def _model(g: Grid, theta: float, y: float, lam: float) -> Field:
    vals = np.exp(1j * theta) / np.sqrt(lam) * phi_one_two((g.x - y) / lam)
    return Field(g, vals)


def _h1_resid(f: Field, theta: float, y: float, lam: float) -> float:
    m = _model(f.grid, theta, y, lam)
    return h1_norm(Field(f.grid, f.values - m.values))


def profile_fit(f: Field) -> dict:
    """Fit e^{i theta} lam^{-1/2} phi_{1,2}((x - y)/lam) to f in H^1.

    The scale lam starts from the gradient norm (the family is L^2-critical,
    so ||f_x|| = lam^{-1} ||phi'_{1,2}||); theta and y come from FFT
    cross-correlation.  All three are then polished by Nelder-Mead on the
    H^1 residual — the gradient-ratio estimate alone carries the grid's
    tail-truncation error, which the polish removes.
    """
    from scipy.optimize import minimize

    g = f.grid
    grad = l2_norm_sq(spectral_derivative(f))
    if grad < 1e-24:
        raise ValueError("field has no gradient content; scale is undefined")
    lam0 = float(np.sqrt(_GRAD_SQ_REF / grad))

    ref = np.abs(_model(g, 0.0, 0.0, lam0).values)
    corr = np.fft.ifft(np.fft.fft(np.abs(f.values)) * np.conj(np.fft.fft(ref))).real
    shift = int(np.argmax(corr))
    y0 = shift * g.dx
    if y0 > g.L:
        y0 -= 2.0 * g.L
    m0 = _model(g, 0.0, y0, lam0)
    theta0 = float(np.angle(np.sum(f.values * np.conj(m0.values))))

    res = minimize(
        lambda z: _h1_resid(f, z[0], z[1], abs(z[2])),
        x0=[theta0, y0, lam0],
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
    )
    theta, y, lam = float(res.x[0]) % (2.0 * np.pi), float(res.x[1]), abs(float(res.x[2]))
    return {
        "theta": theta,
        "y": y,
        "lam": lam,
        "lam_grad_estimate": lam0,
        "residual_h1": float(res.fun),
        "ref_h1": h1_norm(_model(g, theta, y, lam)),
    }
