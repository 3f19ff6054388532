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
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.fft import _pocketfft_umath as pocketfft

from .classifier import apriori_bound, invariant_summary, k_sign
from .field import Field, Grid, l2_norm_sq, spectral_derivative
from .functionals import WELL_A, invariants
from .gauge import gauge_transform
from .solitons import ModelParams, phi_one_two

AMP_CAP = 1e6
TAIL_MAX = 1e-2  # a record whose spectral tail passes this is under-resolved,
DRIFT_MAX = 0.1  # and so is one whose dE, dM or dP passes this
DEALIAS = 2.0 / 3.0  # the 2/3 rule: modes above DEALIAS * k_max are zeroed
CFL = 0.5  # dt <= CFL dx / (1 + max |v0|^2)
ADAPT_TOL = 1e-9  # Richardson tolerance, relative L^2
MAX_STEPS = 10**6  # no dt below t_end / MAX_STEPS is tried or stepped


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
        # an int, not a bool or a float: i % 2.5 would record every 5th step
        counted = type(self.record_every) is int and self.record_every >= 1
        if not (finite and math.isfinite(self.gauge_a) and counted):
            raise ValueError(f"need finite t_end and gauge_a, dt > 0, an int record_every >= 1: {self}")


def _kept(k):
    """The 2/3 rule: 1.0 on the modes |k| <= DEALIAS k_max it keeps, else 0.0."""
    return (np.abs(k) <= DEALIAS * np.max(np.abs(k))).astype(float)


class _Stepper:
    """Precomputed Lawson-RK4 data and work arrays for one (grid, dt, a, b).

    A step makes four stages of one inverse FFT (v and v_x from a (2, N)
    stack) and one forward FFT each: 8 FFT calls, 12 transforms.  The
    constants live in the multipliers, so no transform scales and no stage
    masks: 1/N (with the dealiasing mask) is folded into `to_v_vx`, which
    feeds an unnormalised inverse FFT, and the mask into every weight a
    stage result meets (`h_half`, `h_mid`, `h_full`, `w1`, `w23`, `w4`).
    Every stage writes into the work arrays, so a step allocates only the
    array it returns; it never writes into its input.

    The stage FFTs call numpy's pocketfft gufuncs (`numpy.fft._pocketfft_umath`)
    directly, with factor 1.0 and `out=`, on their default axes, the last.
    They are the kernels that `np.fft.fft` and `np.fft.ifft(...,
    norm="forward")` end in, so the results are the same to the bit, but
    each call skips the wrapper's argument handling, about 13% of a step at
    N = 512.  The module is private to
    numpy; `tests/test_stepper_parity.py` holds the step to the `np.fft`
    route bit for bit, and CI runs it at the numpy floor.
    """

    def __init__(self, g: Grid, dt: float, p: ModelParams, a: float):
        n, k = g.N, g.k
        self.re_q = 4.0 * a - 1.0
        self.kap = kappa(p, a)
        self.mask = _kept(k)
        # one multiplier turns v-hat into the stack [mask v-hat, mask ik v-hat] / N
        self.to_v_vx = np.stack([self.mask, self.mask * g.ik]) / n
        self.e_half = np.exp(-0.5j * dt * k**2)
        self.e_full = self.e_half**2
        # the RK4 weights, with their integrating factors and the mask folded in;
        # the real ones are stored complex, as numpy multiplies two complex
        # arrays faster than a real by a complex one
        self.h_half = 0.5 * dt * self.mask * self.e_half
        self.h_mid = (0.5 * dt * self.mask).astype(complex)
        self.h_full = dt * self.mask * self.e_half
        self.w1 = dt / 6.0 * self.mask * self.e_full
        self.w23 = dt / 3.0 * self.mask * self.e_half
        self.w4 = (dt / 6.0 * self.mask).astype(complex)
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

    def _nhat(self, vhat, out):
        """Transform of the nonlinearity v q of the dealiased v-hat, into out.
        The result itself is not masked: the weights that multiply it are."""
        np.multiply(self.to_v_vx, vhat, out=self._stack)
        pocketfft.ifft(self._stack, 1.0, out=self._v_vx)
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
        return pocketfft.fft(q, 1.0, out=out)

    def step(self, vhat):
        k1, k2, k3, k4 = self._k
        ehv, arg = self._ehv, self._arg
        out = self.e_full * vhat  # e_full v-hat, then the result
        np.multiply(self.e_half, vhat, out=ehv)
        self._nhat(vhat, k1)
        np.multiply(self.h_half, k1, out=arg)
        arg += ehv
        self._nhat(arg, k2)
        np.multiply(self.h_mid, k2, out=arg)
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
        k4 *= self.w4
        out += k4
        return out


@dataclass
class Trajectory:
    """What a run stored, why it stopped and where its time went.

    reason is None for a run that reached t_end, else why it stopped:
    "step-budget" (no dt from the CFL-capped one down to t_end / MAX_STEPS
    passes the Richardson test at t = 0, so no step is taken), "non-finite"
    or "amp-cap" (the state after a step), or "under-resolved" (a record's
    spectral tail passed TAIL_MAX or its drift DRIFT_MAX).  status reads it:
    "ok" for None, "blow-up" for "non-finite" and "amp-cap", else "stopped".
    The tail is the share of |v-hat|^2 over the kept modes |k| <= DEALIAS
    k_max that lies in the band (k_max/2, DEALIAS k_max]; tail_history
    holds (t, tail) for every record and peak_tail the largest.
    n_steps counts the steps taken and dt_trail the step sizes t_end / n
    _tune_dt tried, none when the CFL-capped dt is already below the budget.
    dt_used is the dt stepped, dt_trail[-1] on a run that steps; for
    "step-budget" it is the first dt below the budget.  peak_drift is the
    largest dE, dM or dP over the records, and phase_s the seconds spent in
    "tune" (dt tuning and stepper set-up), "step" (the stepping loop and its
    blow-up checks, records excluded) and "record" (every record, the t = 0
    one included).
    """

    times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    drift: list = field(default_factory=list)
    k_signs: list = field(default_factory=list)
    grad_history: list = field(default_factory=list)
    tail_history: list = field(default_factory=list)
    reason: str | None = None
    n_steps: int = 0
    dt_used: float = 0.0
    dt_trail: list = field(default_factory=list)
    apriori_bound: float | None = None
    peak_drift: float = 0.0
    peak_tail: float = 0.0
    phase_s: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        if self.reason is None:
            return "ok"
        return "blow-up" if self.reason in ("non-finite", "amp-cap") else "stopped"

    @property
    def final(self) -> Field:
        return self.snapshots[-1][1]


def _tune_dt(f0: Field, vhat0, p: ModelParams, cfg: EvolveConfig) -> tuple[float, int, _Stepper | None, list]:
    """Pick the step size t_end / n; return it, n, its stepper and every dt
    tried.  n starts at ceil(t_end / dt_cfl) and doubles until one step and
    two half steps meet ADAPT_TOL; each dt tried builds one stepper, as a
    rejected trial's half-step stepper is the next trial's full-step one.
    No stepper (n = 0) means "step-budget": no n up to MAX_STEPS passes, and
    the dt is the first one below the budget (the CFL-capped one if it is)."""
    g, a = f0.grid, cfg.gauge_a

    def l2(vhat):  # Parseval: ||ifft(vhat)||_L2 from the FFT coefficients directly
        return np.sqrt(g.dx / g.N * np.sum(np.abs(vhat) ** 2))

    dt = min(cfg.dt, CFL * g.dx / (1.0 + float(np.max(np.abs(f0.values))) ** 2))
    # dt >= t_end / MAX_STEPS, multiplied out: a dt of 0 fails it, as t_end > 0
    if dt * MAX_STEPS < cfg.t_end:
        return dt, 0, None, []
    # so the quotient is finite; it is 0 only if it underflows
    n = max(1, math.ceil(cfg.t_end / dt))
    scale = max(l2(vhat0), 1e-30)
    trail, half = [], None
    while n <= MAX_STEPS:
        trail.append(cfg.t_end / n)
        full = half or _Stepper(g, cfg.t_end / n, p, a)
        half = _Stepper(g, cfg.t_end / (2 * n), p, a)
        # a trial step on large data may overflow; a non-finite err rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            err = l2(full.step(vhat0) - half.step(half.step(vhat0)))
        if np.isfinite(err) and err / scale < ADAPT_TOL:
            return trail[-1], n, full, trail
        n *= 2
    return cfg.t_end / n, 0, None, trail


def _clean(vhat) -> bool:
    """True when v = ifft(v-hat) is surely finite and below AMP_CAP.

    By Parseval for numpy's ifft, max_j |v_j| <= ||v||_2 = sqrt(vdot(v-hat,
    v-hat) / N), so below N AMP_CAP^2 (with room for rounding) the cap
    cannot be hit; a nan or inf in v-hat, or an overflowing sum, fails the
    comparison and leaves the state to the exact check `_blow_up`.
    """
    return bool(np.vdot(vhat, vhat).real <= vhat.size * AMP_CAP**2 * (1.0 - 1e-9))


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

    The run steps the stepper _tune_dt certified, n steps of dt = t_end / n.
    monitor = (omega, c) additionally tracks, in the well frame
    v = G_{1/4-a}(u), the sign of the dilation functional K and the gradient
    ||v_x||^2 that the a-priori bound 8 S(v0) + (c^2/2) M(v0) controls;
    its omega and c must be finite.
    """
    if monitor is not None and not all(map(math.isfinite, monitor)):
        raise ValueError(f"monitor (omega, c) must be finite, got {monitor}")
    g, p, a = f0.grid, ModelParams(cfg.b), cfg.gauge_a
    # data whose integrals overflow is refused here, before the CFL cap squares it
    inv0 = invariants(f0, p.b, a)
    clock = time.perf_counter
    t_start = clock()
    vhat = np.fft.fft(f0.values)
    dt, n_steps, stepper, trail = _tune_dt(f0, vhat, p, cfg)
    phase = {"tune": clock() - t_start, "step": 0.0, "record": 0.0}
    traj = Trajectory(reason=None if stepper else "step-budget", dt_used=dt, dt_trail=trail, phase_s=phase)
    e0, m0, p0 = inv0.energy, inv0.mass, inv0.momentum
    # solitons can have exactly zero energy or momentum; fall back to the
    # H^1 size of the data so "relative drift" stays meaningful
    char = max(m0 + inv0.grad_sq, 1e-30)
    scales = [max(abs(q), char) for q in (e0, m0, p0)]
    # the kept modes and the top band of them that the spectral tail reads
    kept = _kept(g.k)
    k_abs = np.abs(g.k)
    band = kept * (k_abs > 0.5 * np.max(k_abs))

    def record(i, f, vhat):
        """Store the state f of step i, with transform vhat."""
        t_in = clock()
        t = i * dt
        power = np.abs(vhat) ** 2
        tail = float(power @ band / max(power @ kept, 1e-300))
        traj.tail_history.append((t, tail))
        traj.peak_tail = max(traj.peak_tail, tail)
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
            w = invariant_summary(f, p, a)
            if i == 0:  # the bound and the first K sign read one well-frame record
                traj.apriori_bound = apriori_bound(w, *monitor)
            traj.k_signs.append((t, k_sign(w, *monitor)))
            traj.grad_history.append((t, w.grad_sq))
        phase["record"] += clock() - t_in

    record(0, f0, vhat)
    if stepper is None:
        return traj
    t_loop, record_before = clock(), phase["record"]
    for i in range(1, n_steps + 1):
        vhat = stepper.step(vhat)
        traj.n_steps = i
        if not _clean(vhat):
            traj.reason = _blow_up(np.fft.ifft(vhat))
            if traj.reason is not None:
                traj.times.append(i * dt)  # the offending state itself is not storable
                break
        if i % cfg.record_every and i < n_steps:
            continue
        record(i, Field(g, np.fft.ifft(vhat)), vhat)
        if traj.peak_tail > TAIL_MAX or traj.peak_drift > DRIFT_MAX:
            traj.reason = "under-resolved"
            break
    phase["step"] = clock() - t_loop - (phase["record"] - record_before)
    return traj


def gauge_consistency(f0: Field, b: float, t_end: float) -> float:
    """L^2 distance between evolve-then-gauge and gauge-then-evolve.  Either
    run stopping short of t_end leaves nothing to compare: RuntimeError."""
    cfg = EvolveConfig(b=b, t_end=t_end, record_every=10**9)
    run1 = evolve(f0, cfg)
    run2 = evolve(gauge_transform(f0, WELL_A), replace(cfg, gauge_a=WELL_A))
    if run1.status != "ok" or run2.status != "ok":
        raise RuntimeError(
            "gauge consistency needs both runs to reach t_end; reasons: "
            f"a = 0 {run1.reason or 'none'}, a = {WELL_A} {run2.reason or 'none'}"
        )
    path1 = gauge_transform(run1.final, WELL_A)
    return math.sqrt(l2_norm_sq(Field(f0.grid, path1.values - run2.final.values)))


def _reflect(v):
    """w(x) = conj v(-x) on the grid: x_j -> x_{N-j}, an exact index map that
    is its own inverse bit for bit."""
    return np.conj(np.roll(v[::-1], 1))


def reversal_error(f0: Field, cfg: EvolveConfig) -> dict:
    """The run's time error, estimated from the equation's time reversal.

    If v solves the frame-a equation, so does conj v(-t, -x).  So a run to
    t_end, reflected, run to t_end again with the same cfg and reflected back
    returns f0 up to the time error of the two runs.  "error" is that
    round trip's ||back - f0|| / ||f0||.  Spatial truncation is reversible
    and does not show in it, so "peak_tail", the larger of the two runs'
    peak_tail, is returned beside it.  Either run stopping short of t_end
    leaves nothing to compare: RuntimeError.
    """
    run1 = evolve(f0, cfg)
    run2 = evolve(Field(f0.grid, _reflect(run1.final.values)), cfg)
    if run1.status != "ok" or run2.status != "ok":
        raise RuntimeError(
            "the reversal error needs both runs to reach t_end; reasons: "
            f"forward {run1.reason or 'none'}, reflected {run2.reason or 'none'}"
        )
    back = Field(f0.grid, _reflect(run2.final.values) - f0.values)
    return {
        "error": math.sqrt(l2_norm_sq(back) / l2_norm_sq(f0)),
        "peak_tail": max(run1.peak_tail, run2.peak_tail),
    }


# --- modulation fit against the algebraic profile --------------------------

_GRAD_SQ_REF = 4.0 * np.pi  # ||d/dx phi_{1,2}||_2^2 in closed form
FIT_STEP_TOL = 1e-12  # a step of at most this times max |(theta, y, lam)| ends the fit
FIT_MAX_STEPS = 100  # a fit that takes this many steps without ending raises


def _model(g: Grid, theta: float, y: float, lam: float) -> Field:
    vals = np.exp(1j * theta) / np.sqrt(lam) * phi_one_two((g.x - y) / lam)
    return Field(g, vals)


def profile_fit(f: Field) -> dict:
    """Fit m = e^{i theta} lam^{-1/2} phi_{1,2}((x - y)/lam) to f in H^1.

    lam starts from the gradient norm (the family is L^2-critical, so
    ||f_x|| = lam^{-1} ||phi'_{1,2}||), theta and y from FFT cross-correlation.
    Gauss-Newton then minimises ||f - m||_{H^1}^2, by Parseval a sum of
    squares of the weighted Fourier residual, with the analytic Jacobian:
    for xi = (x - y)/lam and phi'_{1,2} = phi_{1,2} l,
    l = (-4 xi + i(4 xi^2 - 1))/(4 xi^2 + 1), its columns are i m, -m l/lam
    and -m (1/2 + xi l)/lam.  A step is halved until the cost does not rise
    and lam stays positive; a step of at most FIT_STEP_TOL max |(theta, y,
    lam)| ends the fit, and so does a direction with no descent left.
    "steps" counts the steps taken.  A fit still moving after FIT_MAX_STEPS
    steps, or whose centre y ends off the grid [-L, L], raises RuntimeError.
    """
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

    weight = np.sqrt(g.dx / g.N * (1.0 + np.abs(g.ik) ** 2))

    def system(z):
        """The weighted transform of [f - m, dm/dtheta, dm/dy, dm/dlam] at z
        and the cost, the squared norm of its row 0."""
        theta, y, lam = z
        xi = (g.x - y) / lam
        m = _model(g, theta, y, lam).values
        ell = (-4.0 * xi + 1j * (4.0 * xi * xi - 1.0)) / (4.0 * xi * xi + 1.0)
        cols = np.stack([f.values - m, 1j * m, -m * ell / lam, -m * (0.5 + xi * ell) / lam])
        a = weight * np.fft.fft(cols)
        return a, float(np.sum(np.abs(a[0]) ** 2))

    z = np.array([theta0, y0, lam0])
    a, cost = system(z)
    for n_steps in range(FIT_MAX_STEPS + 1):
        # the real view puts the real and imaginary parts side by side
        a_re = a.view(float)
        step = np.linalg.lstsq(a_re[1:].T, a_re[0], rcond=None)[0]
        while np.max(np.abs(step)) > FIT_STEP_TOL * np.max(np.abs(z)):
            trial = z + step
            if trial[2] > 0.0:
                trial_a, trial_cost = system(trial)
                if trial_cost <= cost:
                    break
            step *= 0.5
        else:
            break
        if n_steps == FIT_MAX_STEPS:
            raise RuntimeError(f"profile fit still moving after {n_steps} steps")
        # an accepted trial's transform is the next step's system
        z, a, cost = trial, trial_a, trial_cost
    theta, y, lam = z
    if abs(y) > g.L:
        raise RuntimeError(f"profile fit centre y = {y:.3g} ended off the grid after {n_steps} steps")
    return {
        "theta": float(theta) % (2.0 * np.pi),
        "y": float(y),
        "lam": float(lam),
        "residual_h1": float(np.sqrt(cost)),
        "steps": n_steps,
    }
