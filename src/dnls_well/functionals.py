"""One kernel for the scalar functionals of a field in any gauge frame.

The equation for v = G_a(u) conserves the mass M = ||v||^2, the energy and
the momentum

    E_a = 1/2 ||v_x||^2 + (a - 1/4) <i|v|^2 v_x, v> + (a^2/2 - a/4 - b/6) ||v||_6^6
    P_a = <i v_x, v> + a ||v||_4^4.

a = 0 is the original equation and a = 1/4 the frame where the potential
wells live; there the sextic coefficient is -gamma/32.  `Frame` names the
two, and each member is the float a itself.  The action
S = E + (omega/2) M + (c/2) P, its dilation derivative K (Nehari
functional), the quadratic form L and I = S - K/4 are methods of the record
of six integrals these are built from.

`invariants` makes that record from the field's six integrals,
`Field.integrals`, where their formulas live: one (2, N) FFT per field,
read once and kept, since a field's samples are read-only.  Each record of
the flow is the `invariants` of its snapshot.
"""
from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .closedform import ModelParams, as_float, finite_floats
from .field import Field

WELL_A = 0.25


class Frame(float, enum.Enum):
    """The two named frames; each member is its gauge parameter a."""

    DNLS = 0.0
    GAUGE = WELL_A


class Invariants(NamedTuple):
    """The integrals of one field that every functional of frame a is built from.

    grad_sq, mass and p_lin are of degree 2 in the field, l4 and inter of
    degree 4, l6 of degree 6; every functional is linear in them.  An
    immutable NamedTuple: it is also a tuple of its eight fields in this
    order, iterable and indexable, and equal to a plain tuple of the same values.
    """

    b: float
    a: float
    grad_sq: float  # ||f_x||^2
    mass: float  # ||f||^2
    p_lin: float  # <i f_x, f>
    l4: float  # ||f||_4^4
    l6: float  # ||f||_6^6
    inter: float  # <i |f|^2 f_x, f>

    @property
    def energy(self) -> float:
        a = self.a
        return (
            0.5 * self.grad_sq
            + (a - 0.25) * self.inter
            + (0.5 * a * a - 0.25 * a - self.b / 6.0) * self.l6
        )

    @property
    def momentum(self) -> float:
        return self.p_lin + self.a * self.l4

    def action(self, omega: float, c: float) -> float:
        return self.energy + 0.5 * omega * self.mass + 0.5 * c * self.momentum

    def graded(self, w2: float, w4: float, w6: float) -> "Invariants":
        """The record with its parts of degree 2, 4 and 6 multiplied by w2, w4, w6."""
        return Invariants(
            self.b,
            self.a,
            w2 * self.grad_sq,
            w2 * self.mass,
            w2 * self.p_lin,
            w4 * self.l4,
            w6 * self.l6,
            w4 * self.inter,
        )

    def scaled(self, lam: float) -> "Invariants":
        """The record of lam * f."""
        t = lam * lam
        return self.graded(t, t * t, t * t * t)

    def dilated(self) -> "Invariants":
        """d/dlam of the record of lam * f at lam = 1."""
        return self.graded(2.0, 4.0, 6.0)

    def nehari(self, omega: float, c: float) -> float:
        """K_a = d/dlam S_a(lam f) at lam = 1."""
        return self.dilated().action(omega, c)

    def ell(self, omega: float, c: float) -> float:
        """L = ||f_x||^2 + omega ||f||^2 + c <i f_x, f>, the quadratic part of K_a."""
        return self.graded(2.0, 0.0, 0.0).action(omega, c)

    @property
    def gn_ratio(self) -> float | None:
        """||f||_6^6 / ((4/pi^2) ||f||_2^4 ||f_x||^2); None for a vanishing
        denominator (a constant or zero field).  The sextic Gagliardo-Nirenberg
        bound, ratio <= 1, holds on the line; a field the grid does not resolve
        can pass it (a unit spike on `make_grid(3.0, 8)` gives 8/7)."""
        den = 4.0 / np.pi**2 * self.mass * self.mass * self.grad_sq
        return self.l6 / den if den else None


def invariants(f: Field, b: float, a: float) -> Invariants:
    """The record of f in gauge frame a: b and a as floats, and
    `Field.integrals`, which reads the six integrals once per field and
    refuses with GridError a field whose integrals overflow."""
    return Invariants(as_float(b), as_float(a), *f.integrals)


class FunctionalReport(NamedTuple):
    """All scalar invariants of a field at one (omega, c) in one frame.

    An immutable NamedTuple, so also a tuple of its fields in this order
    (iterable, indexable, equal to a plain tuple of the same values)."""

    frame: str
    b: float
    omega: float
    c: float
    energy: float
    mass: float
    momentum: float
    action: float
    nehari: float
    ell: float
    ii: float
    l4: float
    l6: float
    grad_sq: float
    gn_ratio: float | None  # None for a constant or zero field

    def to_dict(self) -> dict:
        return self._asdict()


def report(f: Field, p: ModelParams, omega: float, c: float, frame: float) -> FunctionalReport:
    """Every functional of f at (omega, c), with f given in `frame` (a `Frame`
    or its gauge number a; any other a is a ValueError)."""
    (omega, c), frame = finite_floats("omega and c", omega, c), Frame(frame)
    inv = invariants(f, p.b, frame)
    # I = S - K/4, from S and K computed once
    action, nehari = inv.action(omega, c), inv.nehari(omega, c)
    return FunctionalReport(
        frame=frame.name.lower(),
        b=p.b,
        omega=omega,
        c=c,
        energy=inv.energy,
        mass=inv.mass,
        momentum=inv.momentum,
        action=action,
        nehari=nehari,
        ell=inv.ell(omega, c),
        ii=action - 0.25 * nehari,
        l4=inv.l4,
        l6=inv.l6,
        grad_sq=inv.grad_sq,
        gn_ratio=inv.gn_ratio,
    )
