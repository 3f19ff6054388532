"""Every public scalar entry computes with the float of its parameter.

A numpy scalar (np.float32 above all, which NumPy 2 keeps when a Python
float meets it, and np.float64) or an int gives the same result, of the same
Python types, as `float()` of itself: records store the float where they are
built, and free functions convert at entry.  Arrays must be equal with the
same dtype.  A string or None is refused with TypeError.
"""
import dataclasses
import math

import numpy as np
import pytest

from dnls_well import closedform as cf
from dnls_well.classifier import (
    apriori_bound,
    classify_thm17,
    invariant_summary,
    k_sign,
    member,
    nehari_normalize,
    scan_curve,
)
from dnls_well.evolve import EvolveConfig, evolve, kappa
from dnls_well.field import Field, make_grid
from dnls_well.functionals import Frame, invariants, report
from dnls_well.gauge import gauge_transform
from dnls_well.oracle import mass_by_quadrature, momentum_by_quadrature, ode_profile
from dnls_well.solitons import (
    SolitonParams,
    algebraic_tail_l4,
    algebraic_tail_mass,
    sample_varphi,
    suggested_half_length,
)

P = cf.ModelParams(0.1)
G = make_grid(20.0, 256)
F = Field(G, 1.2 * np.exp(-G.x**2) * np.exp(0.3j * G.x))
SI = invariant_summary(F, P, 0.0)
ALG = SolitonParams(P, 1.0, 2.0)


def _run(f, cfg, monitor):
    traj = evolve(f, cfg, monitor=monitor)
    return traj.drift, traj.k_signs, traj.grad_history, traj.apriori_bound, traj.final.values


# entry: (value, its int stand-in or None, the call on one parameter x)
ENTRIES = {
    "ModelParams": (0.1, 0, lambda x: (cf.ModelParams(x).b, cf.ModelParams(x).turning)),
    "turning_point": (0.1, None, cf.turning_point),
    "mass_threshold": (0.1, 0, cf.mass_threshold),
    "SolitonParams.omega": (0.7, 1, lambda x: dataclasses.astuple(SolitonParams(P, x, 0.3))),
    "SolitonParams.c": (0.3, 0, lambda x: dataclasses.astuple(SolitonParams(P, 0.7, x))),
    "sample_varphi": (0.3, 0, lambda x: sample_varphi(SolitonParams(P, 0.7, x), G).values),
    "EvolveConfig.b": (0.1, 0, lambda x: dataclasses.astuple(EvolveConfig(b=x))),
    "EvolveConfig.gauge_a": (0.1, 0, lambda x: dataclasses.astuple(EvolveConfig(b=0.1, gauge_a=x))),
    "EvolveConfig.dt": (1e-3, None, lambda x: dataclasses.astuple(EvolveConfig(b=0.1, dt=x))),
    "EvolveConfig.t_end": (0.7, 1, lambda x: dataclasses.astuple(EvolveConfig(b=0.1, t_end=x))),
    "invariants.b": (0.1, 0, lambda x: (invariants(F, x, 0.25), invariants(F, x, 0.25).energy)),
    "invariants.a": (0.1, 0, lambda x: (invariants(F, 0.1, x), invariants(F, 0.1, x).energy)),
    "invariant_summary.a": (0.1, 0, lambda x: invariant_summary(F, P, x)),
    "report.b": (0.1, 0, lambda x: report(F, cf.ModelParams(x), 0.7, 0.3, Frame.GAUGE)),
    "report.omega": (0.7, 1, lambda x: report(F, P, x, 0.3, Frame.DNLS)),
    "report.c": (0.3, 0, lambda x: report(F, P, 0.7, x, Frame.GAUGE)),
    "cosh_integral": (0.7, 1, lambda x: (cf.cosh_integral(x, 1), cf.cosh_integral(x, 2))),
    "is_algebraic.omega": (0.7, 1, lambda x: (cf.is_algebraic(x, 0.3), cf.is_algebraic(x, 2.0))),
    "is_algebraic.c": (0.3, 2, lambda x: (cf.is_algebraic(1.0, x), cf.is_algebraic(1.0, 2.0 * x))),
    "kappa": (0.1, 0, lambda x: kappa(P, x)),
    "gauge_transform": (0.3, 1, lambda x: gauge_transform(F, x).values),
    "member.omega": (0.7, 1, lambda x: member(SI, P, x, 0.3)),
    "member.c": (0.3, 0, lambda x: member(SI, P, 0.7, x)),
    "k_sign.omega": (0.7, 1, lambda x: k_sign(SI, x, 0.3)),
    "k_sign.c": (0.3, 0, lambda x: k_sign(SI, 0.7, x)),
    "apriori_bound.omega": (0.7, 1, lambda x: apriori_bound(SI, x, 0.3)),
    "apriori_bound.c": (0.3, 0, lambda x: apriori_bound(SI, 0.7, x)),
    "nehari_normalize.omega": (0.7, 1, lambda x: nehari_normalize(SI, x, 0.3)),
    "nehari_normalize.c": (0.3, 0, lambda x: nehari_normalize(SI, 0.7, x)),
    "scan_curve.s": (0.3, 0, lambda x: scan_curve(SI, P, x)),
    "classify_thm17.b": (0.1, 0, lambda x: classify_thm17(F, cf.ModelParams(x), [-0.5, 0.5])),
    "classify_thm17.critical_b": (-3.0 / 16.0, None, lambda x: classify_thm17(F, cf.ModelParams(x))),
    "classify_thm17.s_grid": (0.3, 0, lambda x: classify_thm17(F, P, [x, -0.5])),
    "mass_by_quadrature.c": (0.3, 0, lambda x: mass_by_quadrature(P, 0.7, x)),
    "momentum_by_quadrature.c": (0.3, 0, lambda x: momentum_by_quadrature(P, 0.7, x)),
    "ode_profile.omega": (0.7, 1, lambda x: ode_profile(P, x, 0.3, half_length=15.0, n=256)),
    "ode_profile.c": (0.3, 0, lambda x: ode_profile(P, 0.7, x, half_length=15.0, n=256)),
    "suggested_half_length": (0.7, 1, lambda x: suggested_half_length(SolitonParams(P, x, 0.3))),
    "algebraic_tail_mass": (20.3, 20, lambda x: algebraic_tail_mass(ALG, x)),
    "algebraic_tail_l4": (20.3, 20, lambda x: algebraic_tail_l4(ALG, x)),
    "evolve.monitor": (0.7, 1, lambda x: _run(F, EvolveConfig(b=0.1, t_end=0.01), (x, 0.3))),
    "evolve.cfg": (0.1, 0, lambda x: _run(F, EvolveConfig(b=x, gauge_a=x, t_end=0.01), (0.7, 0.3))),
}
# the closed forms at c = 0.3 (the atan2 form) and c = -0.3 (the c < 0 form)
for fn in (cf.d_value, cf.soliton_mass, cf.soliton_momentum, cf.soliton_energy):
    ENTRIES[f"{fn.__name__}.omega"] = (0.7, 1, lambda x, fn=fn: (fn(P, x, 0.3), fn(P, x, -0.3)))
    ENTRIES[f"{fn.__name__}.c"] = (0.3, 0, lambda x, fn=fn: (fn(P, 0.7, x), fn(P, 0.7, -x)))
# the kernel's one conversion of c is float(), which also reads a string
READS_A_STRING = {"d_value.c", "soliton_mass.c", "soliton_momentum.c"}


def _same(got, want) -> None:
    """got equals want, with the same Python type at every leaf and the same
    dtype in every array; nan equals nan."""
    assert type(got) is type(want), (got, want)
    if isinstance(got, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)
    elif isinstance(got, dict):
        assert list(got) == list(want)
        for k in got:
            _same(got[k], want[k])
    elif isinstance(got, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same(g, w)
    elif isinstance(got, float) and math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want


CASES = [
    pytest.param(name, kind, id=f"{name}-{kind}")
    for name, (_, int_value, _) in ENTRIES.items()
    for kind in ("float32", "float64", "int")
    if kind != "int" or int_value is not None
]


@pytest.mark.parametrize("name, kind", CASES)
def test_entry_computes_with_the_float_of_its_parameter(name, kind):
    value, int_value, call = ENTRIES[name]
    x = int_value if kind == "int" else getattr(np, kind)(value)
    _same(call(x), call(float(x)))


@pytest.mark.parametrize(
    "name, bad",
    [
        pytest.param(name, bad, id=f"{name}-{type(bad).__name__}")
        for name in ENTRIES
        for bad in ("0.5", None)
        if not (bad == "0.5" and name in READS_A_STRING)
    ],
)
def test_entry_refuses_a_parameter_that_is_not_a_real_number(name, bad):
    with pytest.raises(TypeError):
        ENTRIES[name][2](bad)


# the solitons helpers that return one number return a Python float, not np.float64
@pytest.mark.parametrize("name", ["suggested_half_length", "algebraic_tail_mass", "algebraic_tail_l4"])
def test_scalar_helper_returns_a_python_float(name):
    value, int_value, call = ENTRIES[name]
    for x in (value, int_value, np.float32(value), np.float64(value)):
        assert type(call(x)) is float, x
