"""Uniform periodic grid, complex fields, spectral calculus.

Everything downstream (profiles, functionals, time stepping) works on a
uniform grid over [-L, L) with FFT-based differentiation and
antidifferentiation (both by `Grid.ik`) and rectangle-rule integration,
which is spectrally accurate for smooth periodic data.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class GridError(ValueError):
    """Invalid grid construction or grid mismatch."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L) with N points, x_j = -L + j*dx."""

    L: float
    N: int

    def __post_init__(self):
        L, n = self.L, self.N
        # false for nan as well
        if isinstance(L, bool) or not isinstance(L, numbers.Real) or not 0.0 < L < np.inf:
            raise GridError(f"half-length must be finite and positive, got {L!r}")
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise GridError(f"point count must be an int, got {n!r}")
        if n % 2 != 0 or n < 8:
            raise GridError(f"point count must be even and >= 8, got {n}")
        object.__setattr__(self, "L", float(L))
        object.__setattr__(self, "N", int(n))

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @cached_property
    def x(self) -> np.ndarray:
        """Grid points -L + j dx, computed once and read-only."""
        x = -self.L + self.dx * np.arange(self.N)
        x.setflags(write=False)
        return x

    @cached_property
    def k(self) -> np.ndarray:
        """Angular wavenumbers in FFT order, computed once and read-only."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.dx)
        k.setflags(write=False)
        return k

    @cached_property
    def ik(self) -> np.ndarray:
        """Derivative multiplier 1j k, computed once and read-only.  The Nyquist
        mode is zeroed: for even N its derivative is not representable."""
        ik = 1j * self.k
        ik[self.N // 2] = 0.0
        ik.setflags(write=False)
        return ik


make_grid = Grid


@dataclass(frozen=True)
class Field:
    """Complex samples of a function on a Grid.

    The field owns its samples and they are read-only: what is passed in is
    copied, never kept, so `integrals`, read once, cannot go stale.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex)  # a copy: never the caller's array
        if vals.shape != (self.grid.N,):
            raise GridError(
                f"values shape {vals.shape} does not match grid N={self.grid.N}"
            )
        if not np.all(np.isfinite(vals)):
            raise GridError("field contains non-finite samples")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @cached_property
    def integrals(self) -> tuple[float, float, float, float, float, float]:
        """(||f_x||^2, ||f||^2, <i f_x, f>, ||f||_4^4, ||f||_6^6, <i |f|^2 f_x, f>),
        read once, from one (2, N) FFT of [f, |f|^2 f].

        With rho = |f|^2, the mass, ||f||_4^4 and ||f||_6^6 are sums over rho
        in physical space; the three integrals with a derivative come by
        Parseval from the transforms f-hat and F(rho f), with ik f-hat
        (`Grid.ik`, Nyquist mode zeroed) as the transform of f_x, and
        w = dx / N:

            ||f_x||^2            = w ||ik f-hat||^2
            <i f_x, f>           = -w Im vdot(f-hat, ik f-hat)
            <i |f|^2 f_x, f>     = -w Im vdot(F(rho f), ik f-hat).

        No derivative is formed in physical space.  A field whose integrals
        overflow is refused with GridError on every read (only a returned
        value is cached); numpy's overflow warnings are silenced here, so
        that the refusal is the error.
        """
        g, v = self.grid, self.values
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
            ints = (
                w * float(ikv_parts @ ikv_parts),
                dx * float(rho.sum()),
                -w * float(np.vdot(vhat, ikv).imag),
                dx * float(rho @ rho),
                dx * float(rho2 @ rho),
                -w * float(np.vdot(rvhat, ikv).imag),
            )
        if not all(map(math.isfinite, ints)):
            raise GridError(f"the integrals of the field are not finite: {ints}")
        return ints


def spectral_derivative(f: Field) -> Field:
    """Fourier-collocation d/dx with `Grid.ik`; exact for band-limited data."""
    return Field(f.grid, np.fft.ifft(f.grid.ik * np.fft.fft(f.values)))


def integrate(samples: np.ndarray, grid: Grid) -> float:
    """Rectangle rule dx * sum, the natural quadrature on a periodic grid."""
    return float(grid.dx * np.sum(samples).real)


def cumulative_integral(samples: np.ndarray, grid: Grid) -> np.ndarray:
    """Running integral int_{-L}^x of real periodic samples, spectrally accurate.

    The mean contributes a linear ramp; the other modes of one real FFT are
    divided by `Grid.ik`, except the Nyquist mode, which has no derivative
    there and so gets no antiderivative.
    """
    n = grid.N
    shat = np.fft.rfft(np.asarray(samples, dtype=float))
    mean = shat[0].real / n
    shat[1 : n // 2] /= grid.ik[1 : n // 2]
    shat[0] = shat[n // 2] = 0.0
    prim = np.fft.irfft(shat, n)
    return mean * (grid.x + grid.L) + prim - prim[0]


def l2_norm_sq(f: Field) -> float:
    return integrate(np.abs(f.values) ** 2, f.grid)


def to_json_dict(f: Field) -> dict:
    return {
        "grid": {"L": f.grid.L, "N": f.grid.N},
        "re": f.values.real.tolist(),
        "im": f.values.imag.tolist(),
    }


def from_json_dict(d: dict) -> Field:
    """The field of a `to_json_dict` record.  `Grid` checks L and N; re and im
    must each be a list of N JSON numbers, read as floats: no strings, bools
    or nested lists, and no shape that would broadcast."""
    if type(d) is not dict or type(d.get("grid")) is not dict:
        raise GridError("a field record is a JSON object whose grid is an object")
    g = Grid(d["grid"]["L"], d["grid"]["N"])
    re, im = d["re"], d["im"]
    # type(True) is bool, not int; np.asarray would read true as 1 and turn
    # an int beyond int64 into an object array
    if not (type(re) is type(im) is list and len(re) == len(im) == g.N
            and {*map(type, re), *map(type, im)} <= {int, float}):
        raise GridError(f"re and im must each be a list of {g.N} JSON numbers")
    try:
        return Field(g, np.array(re, dtype=float) + 1j * np.array(im, dtype=float))
    except OverflowError:  # an int beyond the float range, which Field would refuse as inf
        raise GridError("field contains non-finite samples") from None


def save_field(f: Field, path) -> None:
    # one dumps string: json.dump streams through the pure-Python encoder
    with open(path, "w") as fh:
        fh.write(json.dumps(to_json_dict(f)))


def load_field(path) -> Field:
    with open(path) as fh:
        return from_json_dict(json.load(fh))
