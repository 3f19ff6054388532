"""Independent verification back-ends.

Two routes that never touch the closed-form branch logic: double-exponential
quadrature of the explicit integrands, and a Newton solver for the
double-power profile ODE

    -Phi'' + a2 Phi + a4 Phi^3 + a6 Phi^5 = 0,
    a2 = omega - c^2/4,  a4 = c/2,  a6 = -3 gamma/16.

The quadrature is the double-exponential rule of Takahasi and Mori (Publ.
RIMS 9 (1974) 721): the trapezoid rule in t after a change of variables
x(t) whose weight x'(t) decays double-exponentially.  tanh-sinh maps a
finite [a, b] and exp-sinh a half-line [a, inf); (-inf, b] is mirrored onto
[-b, inf), and the whole line is folded onto [0, inf).  The integrand is
called on an ndarray of nodes and must return an array of the same shape.

The profile solver is Newton's method on Fourier collocation (Boyd,
Chebyshev and Fourier Spectral Methods, 2001; J. Yang, Nonlinear Waves in
Integrable and Nonintegrable Systems, 2010) over even functions, which
removes the translation kernel of the Jacobian, on a periodic grid that runs
12 decay lengths past the window.  Its seed is one RK4 shot from the peak,
which the ODE's first integral gives in closed form.
"""
from __future__ import annotations

import math

import numpy as np

from .field import Grid
from .solitons import ModelParams, SolitonParams, phi_sq


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
_NEWTON_TOL = 1e-11  # Newton stops at a step of at most this times max Phi
_NEWTON_FLOOR = 1e-8  # or before a step below this times max Phi that does not halve
_NEWTON_MAX = 20
_PEAK_GUARD = 1e-2  # Newton's peak may move this far, relative, from the first integral's
# Newton's dense system holds (m + 1)^2 floats in each of several arrays: 134 MB
# each at this bound, well above the 1,777 of `verify --suite ode`'s b = -2 case
_MAX_UNKNOWNS = 4096


def _de_nodes(a: float, b: float, t: np.ndarray):
    """Abscissas and weights x(t), x'(t) of one double-exponential map:
    exp-sinh on [a, inf) when b is inf, else tanh-sinh on [a, b]."""
    u = 0.5 * np.pi * np.sinh(t)
    du = 0.5 * np.pi * np.cosh(t)
    if np.isinf(b):
        e = np.exp(u)
        x, w = a + e, du * e
    else:
        # distance to the nearer endpoint, free of the 1 - tanh cancellation
        half = 0.5 * (b - a)
        d = 2.0 * half / (1.0 + np.exp(2.0 * np.abs(u)))
        x = np.where(t < 0.0, a + d, b - d)
        w = half * du / np.cosh(u) ** 2
    # drop weights that under- or overflow, and nodes that round onto a
    # finite endpoint, where f may be singular
    keep = (w > 0.0) & np.isfinite(w) & (x != a) & (x != b)
    return x[keep], w[keep]


def adaptive_quad(f, a, b) -> float:
    """Double-exponential quadrature of f over [a, b]; a, b may be +-inf, and a == b gives 0.

    (-inf, b] is [-b, inf) for f(-x), and the whole line is [0, inf) for
    f(x) + f(-x).  f takes an ndarray of abscissas.  Each level halves the
    step h and evaluates f only at the new nodes.  The result is returned
    once two successive levels, from the third on, agree to max(QUAD_TOL,
    QUAD_TOL |I|).
    """
    if a >= b:  # a == b is an empty range, also at +-inf where the whole-line fold would run
        return -adaptive_quad(f, b, a) if a > b else 0.0
    if np.isinf(a):
        if np.isinf(b):
            return adaptive_quad(lambda x: f(x) + f(-x), 0.0, np.inf)
        return adaptive_quad(lambda x: f(-x), -b, np.inf)
    total = prev = 0.0
    with np.errstate(over="ignore"):  # integrand tails such as cosh overflow to inf
        for level in range(_MAX_LEVELS):
            h = 0.5**(level + 1)
            n = int(_T_MAX / h)
            k = np.arange(-n, n + 1)
            if level:
                k = k[k % 2 == 1]  # the even nodes were summed at coarser levels
            x, w = _de_nodes(a, b, k * h)
            total += float(np.sum(np.asarray(f(x), dtype=float) * w))
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


def _seed(f, amp: float, rate: float, dx: float, m: int) -> np.ndarray:
    """Coarse profile at x_j = j dx, j = 0..m: one RK4 shot of Phi'' = f(Phi)
    from the peak Phi(0) = amp, Phi'(0) = 0, kept up to its first minimum after
    a fall or up to where it would leave (0, inf), then the linearised ODE's
    tail exp(-rate x).
    """
    y, v, h, fell = amp, 0.0, 0.5 * dx, False
    vals = [amp]
    for _ in range(m):
        k1, l1 = v, f(y)
        k2, l2 = v + h * l1, f(y + h * k1)
        k3, l3 = v + h * l2, f(y + h * k2)
        k4, l4 = v + dx * l3, f(y + dx * k3)
        y += dx / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v += dx / 6.0 * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
        if not 0.0 < y < np.inf or fell and v >= 0.0:  # the first test is false for nan
            break
        fell = v < 0.0
        vals.append(y)
    return np.append(vals, vals[-1] * np.exp(-rate * dx * np.arange(1, m + 2 - len(vals))))


def _even_d2(dx: float, m: int) -> np.ndarray:
    """Fourier second derivative on the 2m-point grid of period 2m dx,
    folded onto even data phi_j = Phi(j dx), j = 0..m."""
    d = np.arange(m + 1)
    s = np.empty(m + 1)
    # the periodic stencil at distance d, in closed form; d <= m keeps the sine
    # argument away from pi, where it would lose digits
    s[0] = -(m * m / 3.0 + 1.0 / 6.0)
    s[1:] = -((-1.0) ** d[1:]) / (2.0 * np.sin(0.5 * np.pi * d[1:] / m) ** 2)
    s *= (np.pi / (m * dx)) ** 2
    j, l = d[:, None], d[None, :]
    op = s[np.abs(j - l)] + s[np.minimum(j + l, 2 * m - j - l)]
    op[:, [0, m]] *= 0.5  # phi_0 and phi_m each stand for one point, not two
    return op


def ode_profile(
    p: ModelParams, omega: float, c: float, half_length: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample points and even profile values over [-half_length, half_length).

    Exponential regime only.  ShootingError also means no soliton (the first
    integral has no positive zero), a system above _MAX_UNKNOWNS unknowns,
    no Newton convergence, or a Newton peak away from the first integral's.
    """
    a2, a4, a6 = omega - 0.25 * c * c, 0.5 * c, -3.0 / 16.0 * p.gamma
    if a2 <= 0:
        raise ShootingError("algebraic decay not shootable; exponential regime only")
    # The first integral Phi'^2/2 = a2 Phi^2/2 + a4 Phi^4/4 + a6 Phi^6/6 vanishes
    # at the peak A, its first positive zero.  The radicand is r^2/16 with
    # r^2 = c^2 + gamma q, and den = (r - c)/4 > 0 is the existence region read
    # from the ODE alone: for gamma <= 0 it is c < 0 with z > -1.
    rad = 0.25 * a4 * a4 - 4.0 / 3.0 * a2 * a6
    den = math.sqrt(rad) - 0.5 * a4 if rad > 0 else 0.0
    amp = math.sqrt(2.0 * a2 / den) if den > 0 else 0.0
    if not 0.0 < amp < math.inf:
        raise ShootingError("the first integral has no positive zero: no soliton")
    g = Grid(half_length, n)
    dx = g.dx  # a Python float, so the RK4 shot runs in plain floats
    # Past L the grid runs on for 12 decay lengths, so the periodic image and
    # the cut-off tail sit far below the requested window.
    rate = np.sqrt(a2)
    m = int(np.ceil((half_length + 12.0 / rate) / dx))
    if m + 1 > _MAX_UNKNOWNS:
        raise ShootingError(f"{m + 1} unknowns, above the {_MAX_UNKNOWNS} a dense Newton system may hold")

    def f(y):
        return y * (a2 + y * y * (a4 + a6 * y * y))

    op = _even_d2(dx, m)
    # a shot that runs off and a diverging Newton overflow; both are caught below
    with np.errstate(over="ignore", invalid="ignore"):
        phi, last = _seed(f, amp, rate, dx, m), math.inf
        for _ in range(_NEWTON_MAX):
            jac = op - np.diag(a2 + phi * phi * (3.0 * a4 + 5.0 * a6 * phi * phi))
            step = np.linalg.solve(jac, op @ phi - f(phi))
            size = np.max(np.abs(step))
            if 0.5 * last < size < _NEWTON_FLOOR * np.max(phi):
                break  # a step at rounding level that no longer shrinks is not taken
            phi, last = phi - step, size
            if size <= _NEWTON_TOL * np.max(phi):
                break
        else:
            raise ShootingError(f"Newton did not converge in {_NEWTON_MAX} steps")
    if abs(phi[0] - amp) > _PEAK_GUARD * amp:
        raise ShootingError(f"Newton peak {phi[0]:.6g} left the first integral's {amp:.6g}")
    return g.x, phi[np.abs(np.arange(n) - n // 2)]
