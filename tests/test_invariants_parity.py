"""The invariant kernel against the one it replaced.

`seed_invariants` below is the earlier body of `functionals.invariants`,
kept verbatim: |f|^2 through np.abs and every integral through
`field.integrate`.  The current kernel forms |f|^2 and the integrand of
<i f_x, f> from real and imaginary parts and takes the integrals as dot
products, so the two may differ only by rounding.  Each integral is
compared on its own natural size: grad_sq, mass, l4 and l6 on themselves,
p_lin on sqrt(mass grad_sq) and inter on sqrt(l6 grad_sq), the
Cauchy-Schwarz bounds of the two that can cancel to zero.
"""
import math

import numpy as np
import pytest

from dnls_well.field import Field, integrate, make_grid, spectral_derivative
from dnls_well.functionals import Invariants, invariants
from dnls_well.solitons import ModelParams, SolitonParams, sample_varphi, suggested_half_length

from conftest import random_smooth_field

# --- earlier implementation, verbatim ----------------------------------------


def seed_invariants(f: Field, b: float, a: float) -> Invariants:
    """The integrals of f in gauge frame a, from one spectral derivative."""
    g = f.grid
    v = f.values
    vx = spectral_derivative(f).values
    rho = np.abs(v) ** 2
    w = (1j * vx * np.conj(v)).real  # integrand of <i f_x, f>
    return Invariants(
        b=b,
        a=a,
        grad_sq=integrate(np.abs(vx) ** 2, g),
        mass=integrate(rho, g),
        p_lin=integrate(w, g),
        l4=integrate(rho * rho, g),
        l6=integrate(rho**3, g),
        inter=integrate(rho * w, g),
    )


# --- parity ------------------------------------------------------------------

SIZES = [256, 512, 4096]
SOLITONS = [(0.0, 1.0, 0.0), (0.1, 1.0, 0.4), (-0.1, 1.2, -0.5), (0.0, 1.0, 2.0)]


def _assert_same(f: Field, b: float, a: float):
    new, ref = invariants(f, b, a), seed_invariants(f, b, a)
    assert (new.b, new.a) == (ref.b, ref.a)
    size = {
        "grad_sq": ref.grad_sq,
        "mass": ref.mass,
        "l4": ref.l4,
        "l6": ref.l6,
        "p_lin": math.sqrt(ref.mass * ref.grad_sq),
        "inter": math.sqrt(ref.l6 * ref.grad_sq),
    }
    for name, scale in size.items():
        assert scale > 0.0
        assert abs(getattr(new, name) - getattr(ref, name)) <= 1e-13 * scale, name


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("a", [0.0, 0.25])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_invariants_match_seed_kernel_on_smooth_fields(n, a, seed):
    g = make_grid(20.0, n)
    f = random_smooth_field(np.random.default_rng(seed), g, amp=0.3 + 0.4 * seed)
    _assert_same(f, 0.1, a)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("a", [0.0, 0.25])
@pytest.mark.parametrize("spec", SOLITONS)
def test_invariants_match_seed_kernel_on_solitons(n, a, spec):
    b, omega, c = spec
    sp = SolitonParams(ModelParams(b), omega, c)
    # the algebraic profile (c = 2 sqrt(omega)) decays like 1/x: a fixed box
    g = make_grid(60.0 if sp.algebraic else suggested_half_length(sp), n)
    _assert_same(sample_varphi(sp, g), b, a)


def test_invariants_match_seed_kernel_on_a_strided_field():
    # values that are a non-contiguous view still give the same integrals
    g = make_grid(20.0, 512)
    wide = random_smooth_field(np.random.default_rng(4), make_grid(20.0, 1024), amp=0.8).values
    f = Field(g, wide[::2])
    assert not f.values.flags.c_contiguous
    _assert_same(f, -0.1, 0.25)
