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

from dnls_well.classifier import classify_thm17
from dnls_well.field import Field, GridError, integrate, make_grid, spectral_derivative
from dnls_well.functionals import Frame, Invariants, invariants, report
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
    view = wide[::2]
    assert not view.flags.c_contiguous
    f = Field(g, view)
    # the field keeps a copy of its own
    assert not np.shares_memory(f.values, wide)
    _assert_same(f, -0.1, 0.25)


# --- the kernel before the integrals moved onto Field, verbatim ---------------


def parent_invariants(f: Field, b: float, a: float) -> Invariants:
    """The integrals of f in gauge frame a, from one (2, N) FFT of [f, |f|^2 f]
    by the formulas of the module docstring; each is a sum or a dot product.

    A field whose integrals overflow is refused with GridError; numpy's
    overflow warnings are silenced here, so that the refusal is the error.
    """
    g, v = f.grid, f.values
    dx = g.dx
    w = dx / g.N
    with np.errstate(over="ignore", invalid="ignore"):
        rho = v.real * v.real + v.imag * v.imag
        vv = np.empty((2, v.size), complex)
        vv[0] = v
        np.multiply(rho, v, out=vv[1])
        vhat, rvhat = np.fft.fft(vv, out=vv)
        ikv = g.ik * vhat
        ikv_parts = ikv.view(float)
        rho2 = rho * rho
        inv = Invariants(
            b=b,
            a=a,
            grad_sq=w * float(ikv_parts @ ikv_parts),
            mass=dx * float(rho.sum()),
            p_lin=-w * float(np.vdot(vhat, ikv).imag),
            l4=dx * float(rho @ rho),
            l6=dx * float(rho2 @ rho),
            inter=-w * float(np.vdot(rvhat, ikv).imag),
        )
    if not all(map(math.isfinite, (inv.grad_sq, inv.mass, inv.p_lin, inv.l4, inv.l6, inv.inter))):
        raise GridError(f"the integrals of the field are not finite: {inv}")
    return inv


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_invariants_equal_the_parent_kernel_on_smooth_fields(n, seed):
    f = random_smooth_field(np.random.default_rng(seed), make_grid(20.0, n), amp=0.3 + 0.4 * seed)
    for b, a in ((0.1, 0.0), (-0.1, 0.25)):
        assert invariants(f, b, a) == parent_invariants(f, b, a)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("spec", SOLITONS)
def test_invariants_equal_the_parent_kernel_on_solitons(n, spec):
    b, omega, c = spec
    sp = SolitonParams(ModelParams(b), omega, c)
    f = sample_varphi(sp, make_grid(60.0 if sp.algebraic else suggested_half_length(sp), n))
    for a in (0.0, 0.25):
        assert invariants(f, b, a) == parent_invariants(f, b, a)


def test_classify_report_and_invariants_read_a_field_once(monkeypatch):
    # the six integrals come from one (2, N) transform, kept on the field
    sp = SolitonParams(ModelParams(0.1), 1.0, 0.5)
    f = sample_varphi(sp, make_grid(suggested_half_length(sp), 512))
    calls = []
    fft = np.fft.fft

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    classify_thm17(f, sp.params)
    report(f, sp.params, 1.0, 0.5, Frame.GAUGE)
    inv = invariants(f, 0.1, 0.25)
    assert calls == [(2, 512)]
    assert inv == parent_invariants(f, 0.1, 0.25)
