"""Potential-well membership along the scaling curve (omega, 2 s sqrt(omega)).

Every verdict is taken in the well frame a = 1/4: fields given in another
frame are gauge-transformed first.  A field belongs to the well A_{omega,c}
when its action lies below the soliton's action value d(omega, c); the
split into A+ / A- follows the sign of the dilation functional K.  Along
the curve c = 2 s mu (mu = sqrt(omega)), d(mu^2, 2 s mu) = mu^2 d(1, 2s), so
both the action gap

    f_s(mu) = E + (mu^2/2)(M - 2 d(1,2s)) + s mu P

and K(mu) are quadratics in mu, and the per-s verdict reduces to sign
analysis of two parabolas.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .closedform import admissible_s_range, d_value, mass_threshold, turning_point
from .field import Field
from .functionals import WELL_A, Frame, Invariants, invariants
from .gauge import gauge_transform
from .solitons import ModelParams, RegionError

# Discretized solitons sit exactly on well boundaries; exact-zero tests are
# meaningless in floating point, so boundary verdicts use these dead-bands.
REL_TOL = 1e-6

_MU_CAP = float(2**30)

# (K > 0 somewhere on J, K < 0 somewhere on J) -> curve verdict
_VERDICTS = {
    (True, True): "both",
    (True, False): "A_plus",
    (False, True): "A_minus",
    (False, False): "neither",
}


def invariant_summary(f: Field, p: ModelParams, frame: Frame) -> Invariants:
    """Invariants of f in the well frame a = 1/4; f is given in `frame`."""
    return invariants(gauge_transform(f, WELL_A - frame.a), p.b, WELL_A)


def k_sign(si: Invariants, omega: float, c: float) -> int:
    """Sign of K at (omega, c); 0 inside the dead-band REL_TOL ||f_x||^2."""
    k = si.nehari(omega, c)
    if abs(k) < REL_TOL * max(si.grad_sq, 1e-30):
        return 0
    return 1 if k > 0 else -1


def apriori_bound(si: Invariants, omega: float, c: float) -> float:
    """8 S + (c^2/2) M: bounds ||v_x||^2 along the flow of data in A+_{omega,c}."""
    return 8.0 * si.action(omega, c) + 0.5 * c * c * si.mass


def member(si: Invariants, p: ModelParams, omega: float, c: float):
    """Well membership and K sign at one (omega, c), with dead-bands."""
    d = d_value(p, omega, c)
    s = si.action(omega, c)
    in_a = s < d - REL_TOL * (abs(s) + d)
    return {"in_A": bool(in_a), "K_sign": k_sign(si, omega, c)}


def _curve(si: Invariants, s: float, d1: float = 0.0) -> tuple[float, float, float]:
    """Coefficients in mu of S(mu^2, 2 s mu) - d1 mu^2."""
    return 0.5 * si.mass - d1, s * si.momentum, si.energy


def _negative_intervals(a: float, b: float, c: float) -> list[tuple[float, float]]:
    """{mu > 0 : a mu^2 + b mu + c < 0} as a list of open intervals."""
    inf = math.inf
    if a == 0.0:
        if b == 0.0:
            return [(0.0, inf)] if c < 0 else []
        r = -c / b
        if b > 0:
            return [(0.0, r)] if r > 0 else []
        return [(max(r, 0.0), inf)]
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return [] if a > 0 else [(0.0, inf)]
    # q and c/q avoid the cancellation of -b + sqrt(disc) when |a c| << b^2
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    r1, r2 = sorted((q / a, c / q))
    if a > 0:
        lo, hi = max(r1, 0.0), r2
        return [(lo, hi)] if hi > lo else []
    out = []
    if r1 > 0:
        out.append((0.0, r1))
    out.append((max(r2, 0.0), inf))
    return out


def _k_signs_on(intervals, kq) -> set[int]:
    """Signs the quadratic kq takes over a union of open intervals of mu > 0.

    -1 where the union meets {kq < 0}, +1 where it is not contained in it
    (a zero of kq counts as +1).
    """
    neg = _negative_intervals(*kq)
    signs: set[int] = set()
    for lo, hi in intervals:
        if any(max(lo, n_lo) < min(hi, n_hi) for n_lo, n_hi in neg):
            signs.add(-1)
        if not any(n_lo <= lo and hi <= n_hi for n_lo, n_hi in neg):
            signs.add(1)
    return signs


def scan_curve(si: Invariants, p: ModelParams, s: float) -> dict:
    """Per-s verdict over the curve family A_{mu^2, 2 s mu}.

    Returns the admissible-mu interval set J_s, the K signs realized on it,
    and the verdict: A_plus / A_minus / both / neither.
    """
    lo, hi, closed = admissible_s_range(p)
    if not (lo < s < hi or (closed and s == hi)):
        raise RegionError(f"s={s} outside admissible range for b={p.b}")
    d1 = d_value(p, 1.0, 2.0 * s)
    j = _negative_intervals(*_curve(si, s, d1))
    signs = _k_signs_on(j, _curve(si.dilated(), s))
    return {
        "s": s,
        "verdict": _VERDICTS[1 in signs, -1 in signs],
        "J": [[float(lo), float(hi) if math.isfinite(hi) else None] for lo, hi in j],
        "k_signs": sorted(signs),
    }


def critical_b_membership(si: Invariants, p: ModelParams) -> dict:
    """b = -3/16 route: every field lands in some A+_s with s in (-1, 0).

    d(1, 2s) diverges as s -> 0-, so halving s from -1/2 always reaches
    2 d(1, 2s) > mass; the verdict then follows from the curve scan.
    """
    if abs(p.b + 3.0 / 16.0) > 1e-12:
        raise RegionError("universal-membership route applies at b = -3/16 only")
    s = -0.5
    for _ in range(200):
        if 2.0 * d_value(p, 1.0, 2.0 * s) > si.mass:
            res = scan_curve(si, p, s)
            if res["verdict"] in ("A_plus", "both"):
                return {"s": s, "verdict": "A_plus"}
        s *= 0.5
    return {"s": None, "verdict": "not found"}


@dataclass(frozen=True)
class ClassificationResult:
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
    per_s: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def classify_thm17(
    f: Field, p: ModelParams, s_grid=None, frame: Frame = Frame.GAUGE
) -> ClassificationResult:
    """Full mass/energy/momentum case analysis plus per-s curve verdicts."""
    si = invariant_summary(f, p, frame)
    e, m, mom = si.energy, si.mass, si.momentum
    if p.b <= -3.0 / 16.0:
        if abs(p.b + 3.0 / 16.0) > 1e-12:
            raise RegionError("classification requires b >= -3/16")
        route = critical_b_membership(si, p)
        return ClassificationResult(
            mass=m,
            energy=e,
            momentum=mom,
            theorem17_case="critical-b",
            global_existence=route["verdict"] == "A_plus",
            per_s=[route],
        )

    s_dag, m_star = turning_point(p.b) if p.b > 0 else (1.0, mass_threshold(p.b))
    scale_e = REL_TOL * max(si.grad_sq, 1e-30)
    scale_p = REL_TOL * max(si.grad_sq + si.l4, 1e-30)
    on_mstar = abs(m - m_star) < REL_TOL * m_star
    if p.b >= 0 and on_mstar and abs(e) < scale_e and abs(mom) < scale_p:
        case = "vi-a"
    elif m < m_star * (1.0 - REL_TOL) or (on_mstar and mom < -scale_p):
        case = "ii"
    elif e < -scale_e:
        case = "iv"
    elif e >= 0 and m >= m_star * (1.0 - REL_TOL) and abs(mom) < scale_p:
        case = "v"
    else:
        case = "none"

    mu = _case_ii_witness(si, p, s_dag) if case == "ii" else None
    omega, c = (mu * mu, 2.0 * s_dag * mu) if mu is not None else (None, None)
    s_values = list(s_grid) if s_grid is not None else []
    if p.b > 0 and s_dag not in s_values:
        s_values.append(s_dag)
    return ClassificationResult(
        mass=m,
        energy=e,
        momentum=mom,
        theorem17_case=case,
        global_existence=mu is not None,
        m_star=m_star,
        s_star=s_dag if p.b > 0 else None,
        boundary_soliton=case == "vi-a",
        witness_omega=omega,
        witness_c=c,
        apriori_bound=None if mu is None else apriori_bound(si, omega, c),
        per_s=[scan_curve(si, p, s) for s in s_values],
    )


def _case_ii_witness(si: Invariants, p: ModelParams, s: float):
    """Doubling search for mu with action gap < 0 and K > 0 at (mu^2, 2 s mu).

    Such a point certifies membership in A+.  Returns mu, or None if none is
    found below the cap (never a negative claim).
    """
    d1 = d_value(p, 1.0, 2.0 * s)
    mu = 1.0
    while mu <= _MU_CAP:
        omega, c = mu * mu, 2.0 * s * mu
        if si.action(omega, c) < omega * d1 and si.nehari(omega, c) > 0:
            return mu
        mu *= 2.0
    return None


def nehari_normalize(si: Invariants, omega: float, c: float) -> float:
    """Scaling lam0 > 0 with K(lam0 phi) = 0.

    K(lam phi) = t K2 + t^2 K4 + t^3 K6 with t = lam^2, where K2 = L, K4
    and K6 are the parts of K of degree 2, 4 and 6; t0 = lam0^2 solves
    K6 t^2 + K4 t + K2 = 0.
    """
    k2, k4, k6 = (
        si.graded(*w).nehari(omega, c) for w in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    )
    roots = [r.real for r in np.roots([k6, k4, k2]) if abs(r.imag) < 1e-14 and r.real > 0]
    if not roots:
        raise RegionError("no positive Nehari normalization for this field")
    t = min(roots)
    resid = t * k2 + t * t * k4 + t**3 * k6
    scale = max(k2, abs(k4) * t, abs(k6) * t * t)
    if abs(resid) > 1e-10 * max(scale * t, 1e-30):
        raise RuntimeError("Nehari normalization residual too large")
    return math.sqrt(t)
