"""The modulation fit and the quadrature against the implementations they replaced.

`earlier_profile_fit` and `earlier_adaptive_quad` below are the earlier
implementations, kept verbatim but for their names.  The earlier fit built
the model and took one FFT of the residual at every trial point, and the
next step built the same model again for its (4, N) transform; the current
fit takes that transform once per trial point and reads the cost from its
row 0, which numpy computes bit for bit as the one-row FFT.  The earlier
quadrature had a third map, exp-sinh mirrored onto (-inf, b]; the current
one integrates f(-x) over [-b, inf), whose nodes are the same floats
negated.  Both must give the same floats, and the same raises, as before.
"""
import math

import numpy as np
import pytest

from dnls_well.evolve import FIT_MAX_STEPS, FIT_STEP_TOL, _GRAD_SQ_REF, _model, profile_fit
from dnls_well.field import Field, l2_norm_sq, make_grid, spectral_derivative
from dnls_well.oracle import (
    _MAX_LEVELS,
    _MIN_LEVELS,
    _T_MAX,
    QUAD_TOL,
    QuadratureError,
    adaptive_quad,
    mass_by_quadrature,
    momentum_by_quadrature,
)
from dnls_well.solitons import ModelParams, SolitonParams, phi_one_two, phi_sq

from conftest import random_smooth_field

# --- earlier implementations, verbatim but for their names ---------------------


def earlier_de_nodes(kind: str, a: float, b: float, t: np.ndarray):
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


def earlier_adaptive_quad(f, a, b) -> float:
    """Double-exponential quadrature of f over [a, b]; a, b may be +-inf.

    f takes an ndarray of abscissas.  Each level halves the step h and
    evaluates f only at the new nodes.  The result is returned once two
    successive levels, from the third on, agree to max(QUAD_TOL, QUAD_TOL |I|).
    """
    if a > b:
        return -earlier_adaptive_quad(f, b, a)
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
            x, w = earlier_de_nodes(kind, a, b, k * h)
            total += float(np.sum(np.asarray(g(x), dtype=float) * w))
            est = h * total
            if not np.isfinite(est):
                raise QuadratureError(f"non-finite quadrature sum at level {level}")
            diff = abs(est - prev)
            if level >= _MIN_LEVELS - 1 and diff <= max(QUAD_TOL, QUAD_TOL * abs(est)):
                return est
            prev = est
    raise QuadratureError(f"no convergence in {_MAX_LEVELS} levels: last two differ by {diff:.3g}")


def earlier_profile_fit(f: Field) -> dict:
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

    def cost_of(z) -> float:
        r = f.values - _model(g, *z).values
        return float(np.sum(np.abs(weight * np.fft.fft(r)) ** 2))

    z = np.array([theta0, y0, lam0])
    cost = cost_of(z)
    for n_steps in range(FIT_MAX_STEPS + 1):
        theta, y, lam = z
        xi = (g.x - y) / lam
        m = _model(g, theta, y, lam).values
        ell = (-4.0 * xi + 1j * (4.0 * xi * xi - 1.0)) / (4.0 * xi * xi + 1.0)
        # one FFT of [f - m, dm/dtheta, dm/dy, dm/dlam]; the real view puts the
        # real and imaginary parts side by side
        cols = np.stack([f.values - m, 1j * m, -m * ell / lam, -m * (0.5 + xi * ell) / lam])
        a = (weight * np.fft.fft(cols)).view(float)
        step = np.linalg.lstsq(a[1:].T, a[0], rcond=None)[0]
        while np.max(np.abs(step)) > FIT_STEP_TOL * np.max(np.abs(z)):
            trial = z + step
            if trial[2] > 0.0:
                trial_cost = cost_of(trial)
                if trial_cost <= cost:
                    break
            step *= 0.5
        else:
            break
        if n_steps == FIT_MAX_STEPS:
            raise RuntimeError(f"profile fit still moving after {n_steps} steps")
        z, cost = trial, trial_cost
    if abs(y) > g.L:
        raise RuntimeError(f"profile fit centre y = {y:.3g} ended off the grid after {n_steps} steps")
    return {
        "theta": float(theta) % (2.0 * np.pi),
        "y": float(y),
        "lam": float(lam),
        "residual_h1": float(np.sqrt(cost)),
        "steps": n_steps,
    }


# --- the current code against them ---------------------------------------------


def _outcome(fit, f):
    """repr of the fit, or the exception's type and message."""
    try:
        return repr(fit(f))
    except (RuntimeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_profile_fit_equals_the_earlier_loop_on_the_family():
    g = make_grid(60.0, 2048)
    rng = np.random.default_rng(7)
    for theta, y, lam in ((1.3, -2.5, 0.8), (0.7, -3.0, 1.0), (2.1, 5.5, 0.7), (5.0, 0.0, 1.4)):
        vals = np.exp(1j * theta) / np.sqrt(lam) * phi_one_two((g.x - y) / lam)
        noise = random_smooth_field(rng, g, amp=1.0).values
        for f in (vals, vals + 0.01 * np.max(np.abs(vals)) / np.max(np.abs(noise)) * noise):
            assert _outcome(profile_fit, Field(g, f)) == _outcome(earlier_profile_fit, Field(g, f))


@pytest.mark.parametrize("seed", [0, 1, 8])
def test_profile_fit_equals_the_earlier_loop_off_the_family(seed):
    # seed 8 keeps moving to the step cap (numpy 2.4 on x86-64); the raise
    # must be the same either way
    f = random_smooth_field(np.random.default_rng(seed), make_grid(60.0, 2048), amp=1)
    assert _outcome(profile_fit, f) == _outcome(earlier_profile_fit, f)


_INTEGRANDS = {
    "lorentz": lambda x: 1.0 / (1.0 + x * x),
    "gauss": lambda x: np.exp(-x * x),
    "exp": np.exp,
    "shifted-sech2": lambda x: 1.0 / np.cosh(x - 1.5) ** 2,
}


@pytest.mark.parametrize("name", sorted(_INTEGRANDS))
@pytest.mark.parametrize("b", [-2.0, -0.0, 0.0, 0.7, 3.0])
def test_lower_half_line_is_the_mirrored_upper_one(name, b):
    f = _INTEGRANDS[name]
    got = adaptive_quad(f, -np.inf, b)
    assert got == adaptive_quad(lambda x: f(-x), -b, np.inf)
    assert got == earlier_adaptive_quad(f, -np.inf, b)


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda y: 1.0 / (np.cosh(y) + 1.0), -np.inf, np.inf),
        (lambda y: 1.0 / np.cosh(y) ** 2, -np.inf, np.inf),
        (np.sin, 0.0, math.pi),
        (np.sin, math.pi, 0.0),
        (lambda x: x**-2.0, 1.0, np.inf),
        (lambda x: 1.0 / (1.0 + x * x), 3.0, -np.inf),
    ],
    ids=["cosh+1", "sech2", "finite", "reversed", "upper-from-1", "reversed-lower"],
)
def test_adaptive_quad_equals_the_earlier_maps(f, a, b):
    assert adaptive_quad(f, a, b) == earlier_adaptive_quad(f, a, b)


@pytest.mark.parametrize(
    "b, omega, c",
    [(0.0, 1.0, 0.5), (0.1, 1.5, -0.4), (-0.5, 1.0, -1.9), (-3.0 / 16.0, 1.0, -0.8), (0.2, 0.7, 1.2),
     (0.0, 1.0, 2.0)],
)
def test_quadrature_oracles_equal_the_earlier_maps(b, omega, c):
    p = ModelParams(b)
    sp = SolitonParams(p, omega, c)
    mass = earlier_adaptive_quad(lambda x: phi_sq(sp, x), -np.inf, np.inf)
    l4 = earlier_adaptive_quad(lambda x: phi_sq(sp, x) ** 2, -np.inf, np.inf)
    assert mass_by_quadrature(p, omega, c) == mass
    assert momentum_by_quadrature(p, omega, c) == -0.5 * c * mass + 0.25 * l4
