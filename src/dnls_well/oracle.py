"""Independent verification back-ends.

Two routes that never touch the closed-form branch logic: adaptive
Gauss-Kronrod quadrature of the explicit integrands, and a shooting solver
for the double-power profile ODE

    -Phi'' + (omega - c^2/4) Phi + (c/2) Phi^3 - (3 gamma/16) Phi^5 = 0.

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


def adaptive_quad(f, a, b, tol: float = 1e-10) -> float:
    """Adaptive quadrature of f over [a, b]; a, b may be +-inf."""
    from scipy.integrate import quad

    with np.errstate(over="ignore"):
        val, err = quad(f, a, b, epsabs=tol, epsrel=tol, limit=400)
    if err > max(tol, 1e-10 * abs(val)) * 100:
        raise QuadratureError(f"quadrature error estimate {err} exceeds tolerance")
    return float(val)


def mass_by_quadrature(p: ModelParams, omega: float, c: float, tol: float = 1e-10) -> float:
    """int Phi^2 dx via the explicit integrand, independent of branch formulas."""
    sp = SolitonParams(p, omega, c)
    return adaptive_quad(lambda x: phi_sq(sp, x), -np.inf, np.inf, tol)


def l4_by_quadrature(p: ModelParams, omega: float, c: float, tol: float = 1e-10) -> float:
    sp = SolitonParams(p, omega, c)
    return adaptive_quad(lambda x: phi_sq(sp, x) ** 2, -np.inf, np.inf, tol)


def momentum_by_quadrature(p: ModelParams, omega: float, c: float, tol: float = 1e-10) -> float:
    """P = -(c/2) M(Phi) + (1/4) ||Phi||_4^4, both terms by quadrature."""
    return -0.5 * c * mass_by_quadrature(p, omega, c, tol) + 0.25 * l4_by_quadrature(
        p, omega, c, tol
    )


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
    p: ModelParams,
    omega: float,
    c: float,
    half_length: float,
    n: int,
    peak_tol: float = 1e-15,
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
    while hi - lo > peak_tol * max(1.0, hi):
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
