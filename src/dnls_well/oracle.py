"""Independent verification back-ends.

Two routes that never touch the closed-form branch logic: double-exponential
quadrature of the explicit integrands, and a shooting solver for the
double-power profile ODE

    -Phi'' + (omega - c^2/4) Phi + (c/2) Phi^3 - (3 gamma/16) Phi^5 = 0.

The quadrature is the double-exponential rule of Takahasi and Mori (Publ.
RIMS 9 (1974) 721): the trapezoid rule in t after a change of variables
x(t) whose weight x'(t) decays double-exponentially.  tanh-sinh maps a
finite [a, b], exp-sinh a half-line, and the whole line is split at 0 into
two exp-sinh half-lines.  The integrand is called on an ndarray of nodes
and must return an array of the same shape.

Shooting bisects on the peak value Phi(0) with Phi'(0) = 0: amplitudes that
bounce (Phi' hits 0 at positive Phi) are too small, amplitudes that drive
Phi through zero are too large.
"""
from __future__ import annotations

import numpy as np

from .solitons import ModelParams, RegionError, SolitonParams, phi_sq


class QuadratureError(RuntimeError):
    pass


class ShootingError(RuntimeError):
    pass


# Nodes sit at t = k h with |t| <= _T_MAX; h starts at 1/2 and halves per
# level.  exp(pi/2 sinh 4.5) ~ 5e30 and its inverse ~ 2e-31 reach far enough
# into both ends of a half-line that no piece of it is missed.
_T_MAX = 4.5
_MIN_LEVELS = 3
_MAX_LEVELS = 12
QUAD_TOL = 1e-10  # successive levels agree to max(QUAD_TOL, QUAD_TOL |I|)
_PEAK_TOL = 1e-15  # shooting bisection stops at a relative bracket of this width


def _de_nodes(kind: str, a: float, b: float, t: np.ndarray):
    """Abscissas and weights x(t), x'(t) of one double-exponential map.

    'finite' is tanh-sinh on [a, b]; 'upper' is exp-sinh on [a, inf) and
    'lower' is its mirror image on (-inf, b].
    """
    u = 0.5 * np.pi * np.sinh(t)
    du = 0.5 * np.pi * np.cosh(t)
    if kind == "finite":
        # distance to the nearer endpoint, free of the 1 - tanh cancellation
        half = 0.5 * (b - a)
        d = 2.0 * half / (1.0 + np.exp(2.0 * np.abs(u)))
        x = np.where(t < 0.0, a + d, b - d)
        w = half * du / np.cosh(u) ** 2
    else:
        e = np.exp(u)
        x = a + e if kind == "upper" else b - e
        w = du * e
    # drop weights that under- or overflow, and nodes that round onto a
    # finite endpoint, where f may be singular
    keep = (w > 0.0) & np.isfinite(w) & (x != a) & (x != b)
    return x[keep], w[keep]


def adaptive_quad(f, a, b) -> float:
    """Double-exponential quadrature of f over [a, b]; a, b may be +-inf.

    f takes an ndarray of abscissas.  Each level halves the step h and
    evaluates f only at the new nodes.  The result is returned once two
    successive levels, from the third on, agree to max(QUAD_TOL, QUAD_TOL |I|).
    """
    if a > b:
        return -adaptive_quad(f, b, a)
    if np.isinf(a) and np.isinf(b):
        # two half-lines from 0, each carrying f(x) + f(-x)
        def g(x):
            return f(x) + f(-x)

        kind, a, b = "upper", 0.0, np.inf
    else:
        g = f
        kind = "upper" if np.isinf(b) else "lower" if np.isinf(a) else "finite"
    total = prev = 0.0
    with np.errstate(over="ignore"):  # integrand tails such as cosh overflow to inf
        for level in range(_MAX_LEVELS):
            h = 0.5**(level + 1)
            n = int(_T_MAX / h)
            k = np.arange(-n, n + 1)
            if level:
                k = k[k % 2 == 1]  # the even nodes were summed at coarser levels
            x, w = _de_nodes(kind, a, b, k * h)
            total += float(np.sum(np.asarray(g(x), dtype=float) * w))
            est = h * total
            if not np.isfinite(est):
                raise QuadratureError(f"non-finite quadrature sum at level {level}")
            diff = abs(est - prev)
            if level >= _MIN_LEVELS - 1 and diff <= max(QUAD_TOL, QUAD_TOL * abs(est)):
                return est
            prev = est
    raise QuadratureError(f"no convergence in {_MAX_LEVELS} levels: last two differ by {diff:.3g}")


def mass_by_quadrature(p: ModelParams, omega: float, c: float) -> float:
    """int Phi^2 dx via the explicit integrand, independent of branch formulas."""
    sp = SolitonParams(p, omega, c)
    return adaptive_quad(lambda x: phi_sq(sp, x), -np.inf, np.inf)


def l4_by_quadrature(p: ModelParams, omega: float, c: float) -> float:
    sp = SolitonParams(p, omega, c)
    return adaptive_quad(lambda x: phi_sq(sp, x) ** 2, -np.inf, np.inf)


def momentum_by_quadrature(p: ModelParams, omega: float, c: float) -> float:
    """P = -(c/2) M(Phi) + (1/4) ||Phi||_4^4, both terms by quadrature."""
    return -0.5 * c * mass_by_quadrature(p, omega, c) + 0.25 * l4_by_quadrature(p, omega, c)


def _shoot_once(p: ModelParams, omega: float, c: float, peak: float, half_length: float):
    """Integrate the profile ODE from x = 0; classify the failure mode.

    Returns (status, sol) with status in {'decay', 'bounce', 'cross'}.
    """
    from scipy.integrate import solve_ivp

    a2 = omega - 0.25 * c * c
    a4 = 0.5 * c
    a6 = -3.0 / 16.0 * p.gamma

    def rhs(x, y):
        phi, dphi = y
        return [dphi, a2 * phi + a4 * phi**3 + a6 * phi**5]

    def crossed(x, y):
        return y[0]

    crossed.terminal = True
    crossed.direction = -1

    def bounced(x, y):
        # turning point away from the start and away from the axis
        return y[1] + 1e-15 if x > 1e-6 and y[0] > 1e-8 else -1.0

    bounced.terminal = True
    bounced.direction = 1

    def exploded(x, y):
        # gamma <= 0 overshoots run off to +inf instead of crossing zero
        return abs(y[0]) - 3.0 * peak

    exploded.terminal = True
    exploded.direction = 1

    sol = solve_ivp(
        rhs,
        (0.0, half_length),
        [peak, 0.0],
        events=(crossed, bounced, exploded),
        method="DOP853",
        rtol=1e-13,
        atol=1e-16,
        dense_output=True,
        max_step=0.1,
    )
    if sol.t_events[0].size or sol.t_events[2].size:
        return "cross", sol
    if sol.t_events[1].size:
        return "bounce", sol
    return "decay", sol


def ode_profile(
    p: ModelParams, omega: float, c: float, half_length: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample points and even profile values over [-half_length, half_length).

    Exponential regime only; the algebraic soliton's 1/x decay admits no
    shooting bracket.
    """
    if omega - 0.25 * c * c <= 0:
        raise ShootingError("algebraic decay not shootable; exponential regime only")
    # Bisection over [0, L] locks onto the amplitude whose zero crossing sits
    # exactly at L, which is offset from the true peak by O(exp(-2 rate L)).
    # Shooting over an extended interval pushes that bias far below the
    # requested window, leaving only integration error inside [-L, L].
    rate = np.sqrt(omega - 0.25 * c * c)
    shoot_length = half_length + 12.0 / rate
    # bracket the peak: small amplitudes bounce, large ones cross zero
    lo, hi = 1e-6, None
    amp = 1.0
    for _ in range(200):
        status, _ = _shoot_once(p, omega, c, amp, shoot_length)
        if status == "cross":
            hi = amp
            break
        lo = amp
        amp *= 2.0
    if hi is None:
        raise ShootingError("failed to bracket the shooting amplitude")
    while hi - lo > _PEAK_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        status, _ = _shoot_once(p, omega, c, mid, shoot_length)
        if status == "cross":
            hi = mid
        else:
            lo = mid
    peak = 0.5 * (lo + hi)
    _, sol = _shoot_once(p, omega, c, peak, shoot_length)
    # The decaying solution is unstable under forward integration: any residual
    # error grows like exp(rate x).  Past the point where the trajectory
    # stops decreasing, splice in the exact linearized tail instead.
    fine = np.linspace(0.0, sol.t[-1], 4096)
    traj = sol.sol(fine)[0]
    rising = np.flatnonzero((np.diff(traj) >= 0.0) & (fine[1:] > 1.0) | (traj[1:] <= 0.0))
    x_cut = fine[rising[0]] if rising.size else sol.t[-1]
    v_cut = float(sol.sol(x_cut)[0])
    xs = -half_length + (2.0 * half_length / n) * np.arange(n)
    ax = np.abs(xs)
    vals = np.where(
        ax <= x_cut,
        sol.sol(np.minimum(ax, sol.t[-1]))[0],
        v_cut * np.exp(-rate * (ax - x_cut)),
    )
    return xs, np.clip(vals, 0.0, None)
