"""The public closed forms at and next to the region edges.

Mass, momentum, energy and d all call the one kernel `_mass_momentum`.  On a
dense grid in c, with each region edge and its two float neighbours, every
admissible point must give M, P, E and d with no exception and no nan (the
values may be +inf: at c -> 0- with gamma = 0 the true values overflow), and
`soliton_mass`, `soliton_momentum` and `d_value` must return the kernel's
floats bit for bit.  Every point outside the region must raise `RegionError` with
the message below.

The kernel used to be compared bit for bit with the separate functions it
replaced, which the test name still says; that comparison ended when the
kernel became uniform in gamma and the earlier floats stopped being the
reference (the 50-digit one is in `test_closedform_parity.py`).
"""
import math

import numpy as np
import pytest

from dnls_well import closedform as cf
from dnls_well.solitons import ModelParams, RegionError, existence_region, s_lower

BCRIT = -3.0 / 16.0
B_GRID = [
    0.1, -0.1, BCRIT, BCRIT + 1e-10, BCRIT - 1e-10, BCRIT + 1e-6, BCRIT - 1e-6,
    BCRIT - 1e-3, -0.3, 1e-9, 3.0,
]
OMEGAS = [0.7, 1.0, 2.3]
PUBLIC = [cf.soliton_mass, cf.soliton_momentum, cf.soliton_energy, cf.d_value]


def _c_grid(p: ModelParams, omega: float) -> np.ndarray:
    """c = 2 s sqrt(omega) over dense s, lo + 10^-k and hi - 10^-k for
    k = 2 .. 14, and each region edge in c with its two float neighbours."""
    lo, hi, closed = cf.admissible_s_range(p)
    edge = 10.0 ** -np.arange(2.0, 15.0)
    s = np.concatenate([np.linspace(lo, hi, 1001)[1:-1], lo + edge, hi - edge, [hi]])
    rw = 2.0 * math.sqrt(omega)
    c_edges = [-rw, rw if p.gamma > 0 else -s_lower(p) * rw]
    near = [np.nextafter(e, d) for e in c_edges for d in (-np.inf, np.inf)]
    return np.unique(np.concatenate([2.0 * s * math.sqrt(omega), c_edges, near]))


def _outcome(fn, p, omega, c):
    """The float, or the exception's type and message."""
    try:
        return fn(p, omega, c)
    except (ValueError, ArithmeticError) as exc:  # RegionError, ZeroDivisionError
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("b", B_GRID)
def test_kernel_bit_identical_to_separate_functions(b):
    p = ModelParams(b)
    n_outside = 0
    for omega in OMEGAS:
        for c in _c_grid(p, omega):
            c = float(c)
            got = [_outcome(fn, p, omega, c) for fn in PUBLIC]
            if not existence_region(p, omega, c):
                n_outside += 1
                message = f"(omega={omega}, c={c}) outside existence region for b={b}"
                assert all(g == ("RegionError", message) for g in got), (omega, c, got)
                continue
            assert all(isinstance(g, float) and not math.isnan(g) for g in got), (omega, c, got)
            m, mom, d = cf._mass_momentum(p, omega, c)
            assert got[0] == m and got[1] == mom and got[3] == d, (omega, c)
    # both edges of every omega lie outside the region on one side
    assert n_outside >= 2 * len(OMEGAS)
