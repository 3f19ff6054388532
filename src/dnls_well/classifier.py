"""Potential-well membership along the scaling curve (omega, 2 s sqrt(omega)).

Every verdict is taken in the well frame a = 1/4, whose invariants
`invariant_summary` reads from a field given in any frame a.  A field
belongs to the well A_{omega,c} when its action lies below the soliton's
action value d(omega, c); the split into A+ / A- follows the sign of the
dilation functional K.  Along the curve c = 2 s mu (mu = sqrt(omega)),
d(mu^2, 2 s mu) = mu^2 d(1, 2s), so both the action gap

    f_s(mu) = E + (mu^2/2)(M - 2 d(1,2s)) + s mu P

and K(mu) are quadratics in mu, and the per-s verdict reduces to sign
analysis of two parabolas.
"""
from __future__ import annotations

import copy
import math
import sys
from typing import NamedTuple

from .closedform import B_CRIT, ModelParams, RegionError, as_float, d_value
from .field import Field, GridError
from .functionals import WELL_A, Frame, Invariants, invariants
from .gauge import gauge_transform

# Discretized solitons sit exactly on well boundaries; exact-zero tests are
# meaningless in floating point, so every boundary verdict takes its sign
# from `_sign`, whose dead-band is REL_TOL relative to a size.
REL_TOL = 1e-6

# (K > 0 somewhere on J, K < 0 somewhere on J) -> (curve verdict, K signs)
_VERDICTS = {
    (True, True): ("both", (-1, 1)),
    (True, False): ("A_plus", (1,)),
    (False, True): ("A_minus", (-1,)),
    (False, False): ("neither", ()),
}


def invariant_summary(f: Field, p: ModelParams, a: float) -> Invariants:
    """Invariants in the well frame a = 1/4 of f, given in frame a (a float or a `Frame`)."""
    return invariants(gauge_transform(f, WELL_A - as_float(a)), p.b, WELL_A)


def _sign(x: float, size: float) -> int:
    """Sign of x as an int, numpy x included; 0 inside the dead-band
    |x| < REL_TOL max(size, 1e-30), and for a nan x, which has no sign."""
    if abs(x) < REL_TOL * max(size, 1e-30):
        return 0
    return 1 if x > 0 else -1 if x < 0 else 0


def k_sign(si: Invariants, omega: float, c: float) -> int:
    """Sign of K at (omega, c); 0 inside the dead-band REL_TOL ||f_x||^2.
    A non-finite K has no sign and raises ValueError."""
    omega, c = as_float(omega), as_float(c)
    k = si.nehari(omega, c)
    if not math.isfinite(k):
        raise ValueError(f"K is not finite at (omega={omega}, c={c}): {k}")
    return _sign(k, si.grad_sq)


def apriori_bound(si: Invariants, omega: float, c: float) -> float:
    """8 S + (c^2/2) M: bounds ||v_x||^2 along the flow of data in A+_{omega,c}."""
    omega, c = as_float(omega), as_float(c)
    return 8.0 * si.action(omega, c) + 0.5 * c * c * si.mass


def member(si: Invariants, p: ModelParams, omega: float, c: float):
    """Well membership and K sign at one (omega, c), with dead-bands."""
    omega, c = as_float(omega), as_float(c)
    d = d_value(p, omega, c)
    s = si.action(omega, c)
    return {"in_A": _sign(s - d, abs(s) + d) < 0, "K_sign": k_sign(si, omega, c)}


def _coeffs(si: Invariants) -> tuple[float, float, float]:
    """(M/2, P, E) of a record: S(mu^2, 2 s mu) = (M/2) mu^2 + s P mu + E."""
    return 0.5 * si.mass, si.momentum, si.energy


def _negative_intervals(a: float, b: float, c: float) -> list[tuple[float, float]]:
    """{mu > 0 : a mu^2 + b mu + c < 0} as a list of open intervals; the only
    root code of the package.  A linear polynomial (a = 0) has its other root
    at -inf, and a double root is no sign change.  When b^2 - 4ac overflows,
    or is below 2^-900 while every coefficient is below 2^509, the roots are
    taken from the coefficients times the power of two that brings the largest
    into [2^509, 2^510): the same roots, with b^2 and 4ac inside the floats."""
    inf = math.inf
    disc = b * b - 4.0 * (a * c)  # a c first: 4 a can overflow where 4 a c does not
    if a and not 2.0**-900 <= abs(disc) < inf:
        big = max(abs(a), abs(b), abs(c))
        e = 510 - math.frexp(big)[1]  # 2^e brings the largest into [2^509, 2^510)
        if big < inf and (e > 0 or not abs(disc) < inf):  # a finite disc is never scaled down
            a, b, c = math.ldexp(a, e), math.ldexp(b, e), math.ldexp(c, e)
            disc = b * b - 4.0 * (a * c)
    if a == 0.0:  # linear, or an a below the floats, whose root is past them
        if b == 0.0:  # one sign: that of c
            return [(0.0, inf)] if c < 0 else []
        r1, r2 = -inf, -c / b
    elif disc <= 0.0:  # one sign: that of a
        return [(0.0, inf)] if a < 0 else []
    else:  # q and c/q avoid the cancellation of -b + sqrt(disc) when |a c| << b^2
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        r1, r2 = q / a, c / q
        r1, r2 = (r2, r1) if r2 < r1 else (r1, r2)
    if (a or b) > 0:
        lo = max(r1, 0.0)
        return [(lo, r2)] if r2 > lo else []
    return ([(0.0, r1)] if r1 > 0 else []) + [(max(r2, 0.0), inf)]


def scan_curve(si: Invariants, p: ModelParams, s: float) -> dict:
    """Per-s verdict over the curve family A_{mu^2, 2 s mu}.

    Returns the admissible-mu interval set J_s, the K signs realized on it,
    and the verdict: A_plus / A_minus / both / neither.
    """
    return _scan(_coeffs(si), _coeffs(si.dilated()), p, as_float(s))


def _scan(co, dil_co, p: ModelParams, s: float) -> dict:
    """`scan_curve` at a float s from `_coeffs` of the record (co) and of its
    dilation (dil_co), so that an s loop reads them once."""
    j, cert, minus = _curve(co, dil_co, p, s)
    verdict, signs = _VERDICTS[bool(cert), minus]
    return {
        "s": s,
        "verdict": verdict,
        "J": [[lo, hi if math.isfinite(hi) else None] for lo, hi in j],
        "k_signs": list(signs),
    }


def _curve(co, dil_co, p: ModelParams, s: float):
    """(J, C, minus) on the curve s: J = {action gap (M/2 - d(1, 2s)) mu^2 + s P mu + E < 0},
    C = {mu in J : K >= 0} with K the quadratic of dil_co, and minus says whether J meets {K < 0}.
    A zero of K counts as K > 0; a double root's tie rule lives in `_negative_intervals` alone."""
    half_m, mom, e = co
    try:  # at (1, 2s) the kernel's region test is exactly the admissible s range
        j = _negative_intervals(half_m - p.curve_d(s), s * mom, e)
    except RegionError:
        raise RegionError(f"s={s} outside admissible range for b={p.b}") from None
    half_m, mom, e = dil_co
    neg = _negative_intervals(half_m, s * mom, e)
    # C meets (lo, hi) in the closed gaps [g_lo, g_hi] between neg's ascending intervals, which
    # it misses iff g_hi <= lo or hi <= g_lo; the last gap runs past every float, inf included
    cert, minus = [], False
    for lo, hi in j:
        g_lo = 0.0
        for n_lo, n_hi in neg:
            minus = minus or max(lo, n_lo) < min(hi, n_hi)
            if not (n_lo <= lo or hi <= g_lo):
                cert.append((max(lo, g_lo), min(hi, n_lo)))
            g_lo = n_hi
        if not hi <= g_lo:
            cert.append((max(lo, g_lo), hi))
    return j, cert, minus


def critical_b_membership(si: Invariants, p: ModelParams) -> dict:
    """b = -3/16 route: every field lands in some A+_s with s in (-1, 0).

    At gamma = 0, d(1, 2s) = q^{3/2} / (3 |2s|) grows without bound as s -> 0-
    and overflows to inf before s underflows, so halving s from -1/2 reaches
    2 d(1, 2s) > M for every finite M, in at most 1,021 halvings.  There the
    mu^2 coefficient M/2 - d(1, 2s) of the action gap is negative, so J
    contains some (r, inf), and that of K is M > 0, so K > 0 far out on J:
    `scan_curve` at that s says A_plus or both.  A nan or infinite M is
    refused with RegionError before the first halving.
    """
    if p.b != B_CRIT:
        raise RegionError("universal-membership route applies at b = -3/16 only")
    if not math.isfinite(si.mass):
        raise RegionError(f"universal-membership route needs a finite mass, got M={si.mass}")
    s = -0.5
    while not 2.0 * p.curve_d(s) > si.mass:
        s *= 0.5
    return {"s": s, "verdict": "A_plus"}


class ClassificationResult(NamedTuple):
    """The case-ii witness (omega, c) is the closure point of C where `apriori_bound` is least.

    An immutable NamedTuple, so also a tuple of its fields in this order
    (iterable, indexable, equal to a plain tuple of the same values)."""
    mass: float
    energy: float
    momentum: float
    theorem17_case: str
    global_existence: bool
    m_star: float | None = None
    s_star: float | None = None
    boundary_soliton: bool = False
    witness_omega: float | None = None
    witness_c: float | None = None
    apriori_bound: float | None = None
    per_s: list | tuple = ()  # a NamedTuple field takes no default factory

    def to_dict(self) -> dict:
        """The fields by name; per_s is a new list of copies of its rows."""
        d = self._asdict()
        d["per_s"] = [copy.deepcopy(row) for row in self.per_s]
        return d


def classify_thm17(
    f: Field, p: ModelParams, s_grid=None, frame: float = Frame.GAUGE
) -> ClassificationResult:
    """Full mass/energy/momentum case analysis plus per-s curve verdicts of f in frame `frame`.

    Case ii certifies global existence when C (`_curve`) on the curve s* (1 for b <= 0)
    is not empty; each mu of C bounds ||v_x||^2 along the flow by B = 8 S + (c^2/2) M at
    (mu^2, 2 s mu).  The witness is the closure point of C where B is least, often an
    open end of C (S = d there), where B is the infimum of bounds that each hold.
    """
    if p.b < B_CRIT:  # refused before the field is read
        raise RegionError("classification requires b >= -3/16")
    si = invariant_summary(f, p, frame)
    e, m, mom = si.energy, si.mass, si.momentum
    if p.b == B_CRIT:
        return ClassificationResult(
            mass=m,
            energy=e,
            momentum=mom,
            theorem17_case="critical-b",
            global_existence=True,
            per_s=[critical_b_membership(si, p)],
        )

    s_star, m_star = p.turning
    sign_m = _sign(m - m_star, m_star)
    sign_e = _sign(e, si.grad_sq)
    sign_p = _sign(mom, si.grad_sq + si.l4)
    if p.b >= 0 and sign_m == sign_e == sign_p == 0:
        case = "vi-a"
    elif sign_m < 0 or (sign_m == 0 and sign_p < 0):
        case = "ii"
    elif sign_e < 0:
        case = "iv"
    elif sign_p == 0:
        case = "v"
    else:
        case = "none"

    # with no s* (b <= 0) the witness runs on s = 1, the algebraic curve s* tends to
    s_w = 1.0 if s_star is None else s_star
    co, dil_co = _coeffs(si), _coeffs(si.dilated())
    cert = _curve(co, dil_co, p, s_w)[1] if case == "ii" else []
    # B = 8E + (4 + 2 s^2) M mu^2 + 8 s P mu is least at its vertex clipped to a piece of C
    vertex = -2.0 * s_w * mom / ((2.0 + s_w * s_w) * m) if m else 0.0
    mu = min((min(max(vertex, lo), hi) for lo, hi in cert), default=None,
             key=lambda x: apriori_bound(si, x * x, 2.0 * s_w * x))
    omega, c = (mu * mu, 2.0 * s_w * mu) if mu is not None else (None, None)
    s_values = [as_float(s) for s in s_grid] if s_grid is not None else []
    if s_star is not None and s_star not in s_values:
        s_values.append(s_star)
    return ClassificationResult(
        mass=m,
        energy=e,
        momentum=mom,
        theorem17_case=case,
        global_existence=mu is not None,
        m_star=m_star,
        s_star=s_star,
        boundary_soliton=case == "vi-a",
        witness_omega=omega,
        witness_c=c,
        apriori_bound=None if mu is None else apriori_bound(si, omega, c),
        per_s=[_scan(co, dil_co, p, s) for s in s_values],
    )


def nehari_normalize(si: Invariants, omega: float, c: float) -> float:
    """Scaling lam0 > 0 with K(lam0 phi) = 0.

    K(lam phi) = t K2 + t^2 K4 + t^3 K6 with t = lam^2, where K2 = L, K4
    and K6 are the parts of K of degree 2, 4 and 6; t0 = lam0^2 is the least
    positive root of K6 t^2 + K4 t + K2.  Those of 2^j phi are 2^{2j} K2,
    2^{4j} K4 and 2^{6j} K6, so lam0(2^j phi) = 2^-j lam0(phi) to the bit.  A
    nonzero record whose ||f||_6^6 is below the normal floats has lost K6's
    digits (below about 1e-51 in amplitude for a unit-width field) and raises GridError.
    """
    if si.l6 < sys.float_info.min and (si.mass or si.grad_sq):
        raise GridError(f"||f||_6^6 = {si.l6!r} underflowed; no Nehari normalization from this record")
    omega, c = as_float(omega), as_float(c)
    parts = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    k2, k4, k6 = (si.graded(*w).nehari(omega, c) for w in parts)
    ends = [x for iv in _negative_intervals(k6, k4, k2) for x in iv if 0.0 < x < math.inf]
    if not ends:
        raise RegionError("no positive Nehari normalization for this field")
    t = min(ends)
    resid = t * (k2 + t * (k4 + t * k6))
    scale = max(k2, abs(k4) * t, abs(k6) * t * t)
    if abs(resid) > 1e-10 * max(scale * t, 1e-30):
        raise RuntimeError("Nehari normalization residual too large")
    return math.sqrt(t)
