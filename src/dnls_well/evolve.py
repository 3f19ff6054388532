"""Time integration in any gauge frame, plus diagnostics built on it.

The evolution equation for v = G_a(u) is

    v_t = i v_xx - (1-2a)|v|^2 v_x + 2a v^2 conj(v_x) + i kappa |v|^4 v,
    kappa = a^2 + a/2 + b,

solved pseudospectrally with a Lawson (integrating-factor) RK4 step and
2/3-rule dealiasing.  a = 0 is the original equation, a = 1/4 the frame
where the well theory lives.

With z = conj(v) v_x and rho = |v|^2 the nonlinearity is exactly v q,

    q = (4a - 1) Re z + i (kappa rho^2 - Im z),

since rho v_x = v z and v^2 conj(v_x) = v conj(z).  At a = 1/4 the real
part drops out and q is purely imaginary.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .classifier import apriori_bound, k_sign
from .field import Field, Grid, h1_norm, l2_norm_sq, spectral_derivative
from .functionals import WELL_A, invariants
from .gauge import gauge_transform
from .solitons import ModelParams, phi_one_two

AMP_CAP = 1e6
GRAD_FACTOR = 1e4
DEALIAS = 2.0 / 3.0  # the 2/3 rule: modes above DEALIAS * k_max are zeroed
CFL = 0.5  # dt <= CFL dx / (1 + max |v0|^2)
ADAPT_TOL = 1e-9  # Richardson tolerance, relative L^2
DT_FLOOR = 1e-8  # no dt at or below this is stepped
MAX_STEPS = 10**6  # no run that needs more steps than this is stepped


def kappa(p: ModelParams, a: float) -> float:
    return a * a + 0.5 * a + p.b


@dataclass(frozen=True)
class EvolveConfig:
    b: float
    gauge_a: float = 0.0
    dt: float = 1e-3
    t_end: float = 1.0
    record_every: int = 10

    def __post_init__(self):
        # the chained comparisons are false for nan as well
        finite = 0.0 < self.t_end < math.inf and 0.0 < self.dt < math.inf
        if not (finite and self.record_every >= 1):
            raise ValueError(f"need finite t_end, dt > 0 and record_every >= 1: {self}")


class _Stepper:
    """Precomputed Lawson-RK4 data and work arrays for one (grid, dt, a, b).

    A step makes four stages of one inverse FFT (v and v_x from a (2, N)
    stack) and one forward FFT each: 8 FFT calls, 12 transforms.  Every
    stage writes into the work arrays, so a step allocates only the array
    it returns; it never writes into its input.
    """

    def __init__(self, g: Grid, dt: float, p: ModelParams, a: float):
        n, k = g.N, g.k
        self.dt = dt
        self.re_q = 4.0 * a - 1.0
        self.kap = kappa(p, a)
        kmax = np.max(np.abs(k))
        self.mask = (np.abs(k) <= DEALIAS * kmax).astype(float)
        # one multiplier turns v-hat into the stack [mask v-hat, mask ik v-hat]
        self.to_v_vx = np.stack([self.mask, self.mask * g.ik])
        self.e_half = np.exp(-0.5j * dt * k**2)
        self.e_full = self.e_half**2
        # the RK4 weights, with their integrating factors folded in
        self.h_half = 0.5 * dt * self.e_half
        self.h_full = dt * self.e_half
        self.w1 = dt / 6.0 * self.e_full
        self.w23 = dt / 3.0 * self.e_half
        # work arrays: the stack before and after the inverse FFT, rho and
        # a real scratch row, z, q, the four stages, e_half v-hat and the
        # stage argument
        self._stack = np.empty((2, n), complex)
        self._v_vx = np.empty((2, n), complex)
        self._rho = np.empty(n)
        self._tmp = np.empty(n)
        self._z = np.empty(n, complex)
        self._q = np.empty(n, complex)
        self._k = np.empty((4, n), complex)
        self._ehv = np.empty(n, complex)
        self._arg = np.empty(n, complex)
        self._v, self._vx = self._v_vx

    def _nhat(self, vhat, out=None):
        """Dealiased transform of the nonlinearity v q, into out (or a new array)."""
        np.multiply(self.to_v_vx, vhat, out=self._stack)
        np.fft.ifft(self._stack, out=self._v_vx)
        v, vx, rho, tmp, z, q = self._v, self._vx, self._rho, self._tmp, self._z, self._q
        np.multiply(v.real, v.real, out=rho)
        np.multiply(v.imag, v.imag, out=tmp)
        rho += tmp
        np.conjugate(v, out=z)
        z *= vx
        np.multiply(z.real, self.re_q, out=q.real)
        np.multiply(rho, rho, out=tmp)
        tmp *= self.kap
        np.subtract(tmp, z.imag, out=q.imag)
        q *= v
        out = np.fft.fft(q, out=out)
        out *= self.mask
        return out

    def step(self, vhat):
        k1, k2, k3, k4 = self._k
        ehv, arg = self._ehv, self._arg
        out = self.e_full * vhat  # e_full v-hat, then the result
        np.multiply(self.e_half, vhat, out=ehv)
        self._nhat(vhat, k1)
        np.multiply(self.h_half, k1, out=arg)
        arg += ehv
        self._nhat(arg, k2)
        np.multiply(k2, 0.5 * self.dt, out=arg)
        arg += ehv
        self._nhat(arg, k3)
        np.multiply(self.h_full, k3, out=arg)
        arg += out
        self._nhat(arg, k4)
        k1 *= self.w1
        out += k1
        k2 += k3
        k2 *= self.w23
        out += k2
        k4 *= self.dt / 6.0
        out += k4
        return out


@dataclass
class Trajectory:
    """What a run stored, why it stopped and where its time went.

    status is "ok" or "blow-up"; reason names the stop of a blow-up run:
    "dt-floor" (the CFL-capped dt is already at or below the floor, so no
    Richardson test ran), "richardson-failed" (no dt above the floor meets the
    tolerance at t = 0), "step-budget" (the tuned dt needs more than MAX_STEPS
    steps, so none is taken), "non-finite" or "amp-cap" (the state after a
    step), or "grad-growth" (a recorded gradient grew past GRAD_FACTOR^2 times
    the initial one).  n_steps counts the steps taken and dt_trail the step
    sizes _tune_dt tried (for "dt-floor", the capped dt); dt_used, the dt
    stepped, is t_end over a whole number of steps.  peak_drift is the largest
    dE, dM or dP over the records, and phase_s the seconds spent in "tune" (dt
    tuning and stepper set-up), "step" (the stepping loop and its blow-up
    checks, records excluded) and "record" (every record, the t = 0 one
    included).
    """

    times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    drift: list = field(default_factory=list)
    k_signs: list = field(default_factory=list)
    grad_history: list = field(default_factory=list)
    status: str = "ok"
    reason: str | None = None
    n_steps: int = 0
    dt_used: float = 0.0
    dt_trail: list = field(default_factory=list)
    apriori_bound: float | None = None
    peak_drift: float = 0.0
    phase_s: dict = field(default_factory=dict)

    @property
    def final(self) -> Field:
        return self.snapshots[-1][1]

    def stop(self, reason: str) -> Trajectory:
        self.status, self.reason = "blow-up", reason
        return self


def _tune_dt(vhat0, g: Grid, p: ModelParams, cfg: EvolveConfig) -> tuple[float, str | None, list]:
    """Pick the step size; return it, the reason no usable dt exists (None
    when one does) and every dt tried.  "dt-floor" means the CFL-capped dt
    is already at or below DT_FLOOR (its trail is that dt),
    "richardson-failed" that no dt above the floor meets ADAPT_TOL."""
    v0 = np.fft.ifft(vhat0)
    dt = min(cfg.dt, CFL * g.dx / (1.0 + float(np.max(np.abs(v0)) ** 2)))
    if dt <= DT_FLOOR:
        return DT_FLOOR, "dt-floor", [dt]
    scale = max(np.sqrt(l2_norm_sq(Field(g, v0))), 1e-30)
    trail = []
    while dt > DT_FLOOR:
        trail.append(dt)
        # a trial step on large data may overflow; a non-finite err rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            coarse = _Stepper(g, dt, p, cfg.gauge_a).step(vhat0)
            fine = _Stepper(g, 0.5 * dt, p, cfg.gauge_a)
            vh = fine.step(fine.step(vhat0))
            # Parseval: ||diff||_L2 from the FFT coefficients directly
            err = np.sqrt(g.dx / g.N * np.sum(np.abs(coarse - vh) ** 2))
        if np.isfinite(err) and err / scale < ADAPT_TOL:
            return dt, None, trail
        dt *= 0.5
    return DT_FLOOR, "richardson-failed", trail


def _blow_up(v) -> str | None:
    """Reason a physical-space state is unusable, or None."""
    if not np.all(np.isfinite(v)):
        return "non-finite"
    if np.max(np.abs(v)) > AMP_CAP:
        return "amp-cap"
    return None


def step(f: Field, cfg: EvolveConfig) -> Field:
    """One integrating-factor RK4 step of the gauge-a equation."""
    p = ModelParams(cfg.b)
    st = _Stepper(f.grid, cfg.dt, p, cfg.gauge_a)
    out = np.fft.ifft(st.step(np.fft.fft(f.values)))
    if _blow_up(out) is not None:
        raise FloatingPointError("numerical blow-up in a single step")
    return Field(f.grid, out)


def evolve(f0: Field, cfg: EvolveConfig, monitor=None) -> Trajectory:
    """Integrate to exactly t_end; record conserved-quantity drift and snapshots.

    The step is the largest dt = t_end / n that is no larger than the tuned
    one.  monitor = (omega, c) additionally tracks, in the well frame
    v = G_{1/4-a}(u), the sign of the dilation functional K and the gradient
    ||v_x||^2 that the a-priori bound 8 S(v0) + (c^2/2) M(v0) controls.
    """
    clock = time.perf_counter
    t_start = clock()
    g = f0.grid
    p = ModelParams(cfg.b)
    a = cfg.gauge_a
    vhat = np.fft.fft(f0.values)
    dt_tuned, unusable, trail = _tune_dt(vhat, g, p, cfg)
    n_steps = max(1, math.ceil(cfg.t_end / dt_tuned))
    if unusable is None and n_steps > MAX_STEPS:
        unusable = "step-budget"
    dt = cfg.t_end / n_steps
    stepper = _Stepper(g, dt, p, a)
    # |v_j| <= sum_k |v-hat_k| / N <= sum_k (|Re v-hat_k| + |Im v-hat_k|) / N
    # for numpy's ifft: below this (with room for rounding) the amplitude cap
    # cannot be hit, and a non-finite v-hat fails the comparison, so only
    # the other steps need the back-transform
    clean_l1 = g.N * AMP_CAP * (1.0 - 1e-9)
    parts = np.empty(2 * g.N)
    phase = {"tune": clock() - t_start, "step": 0.0, "record": 0.0}

    def well(f, inv):
        return inv if a == WELL_A else invariants(gauge_transform(f, WELL_A - a), p.b, WELL_A)

    traj = Trajectory(dt_used=dt, dt_trail=trail, phase_s=phase)
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
        t_in = clock()
        t = i * dt
        inv = invariants(f, p.b, a)
        drift = {
            "t": t,
            "dE": abs(inv.energy - e0) / scales[0],
            "dM": abs(inv.mass - m0) / scales[1],
            "dP": abs(inv.momentum - p0) / scales[2],
        }
        traj.times.append(t)
        traj.snapshots.append((t, f))
        traj.drift.append(drift)
        traj.peak_drift = max(traj.peak_drift, drift["dE"], drift["dM"], drift["dP"])
        if monitor is not None:
            w = well(f, inv)
            traj.k_signs.append((t, k_sign(w, *monitor)))
            traj.grad_history.append((t, w.grad_sq))
        phase["record"] += clock() - t_in
        return inv.grad_sq

    record(0, f0)
    if unusable is not None:
        return traj.stop(unusable)
    t_loop, record_before = clock(), phase["record"]
    reason = None
    for i in range(1, n_steps + 1):
        vhat = stepper.step(vhat)
        traj.n_steps = i
        due = i % cfg.record_every == 0 or i == n_steps
        if not due and np.abs(vhat.view(float), out=parts).sum() <= clean_l1:
            continue
        v = np.fft.ifft(vhat)
        reason = _blow_up(v)
        if reason is not None:
            traj.times.append(i * dt)  # the offending state itself is not storable
            break
        if due and record(i, Field(g, v)) > GRAD_FACTOR**2 * max(grad0, 1e-30):
            reason = "grad-growth"
            break
    phase["step"] = clock() - t_loop - (phase["record"] - record_before)
    return traj if reason is None else traj.stop(reason)


def gauge_consistency(f0: Field, b: float, t_end: float) -> float:
    """L^2 distance between evolve-then-gauge and gauge-then-evolve."""
    cfg0 = EvolveConfig(b=b, gauge_a=0.0, t_end=t_end, record_every=10**9)
    cfg4 = EvolveConfig(b=b, gauge_a=0.25, t_end=t_end, record_every=10**9)
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
