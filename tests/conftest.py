import numpy as np
import pytest

from dnls_well.field import Field, GridError, integrate, l2_norm_sq, make_grid, spectral_derivative


def random_smooth_field(rng, grid, n_modes=12, amp=1.0):
    """Band-limited random complex field with decaying spectrum."""
    coeffs = rng.standard_normal((2, n_modes)) + 1j * rng.standard_normal((2, n_modes))
    k = np.arange(1, n_modes + 1)
    decay = 1.0 / (1.0 + k**2)
    x = grid.x * np.pi / grid.L
    vals = np.zeros(grid.N, dtype=complex)
    for j, kj in enumerate(k):
        vals += decay[j] * (coeffs[0, j] * np.cos(kj * x) + coeffs[1, j] * np.sin(kj * x))
    envelope = np.exp(-((grid.x / (0.6 * grid.L)) ** 8))
    return Field(grid, amp * vals * envelope)


def inner_re(v: Field, w: Field) -> float:
    """Real inner product Re int v * conj(w) dx."""
    if v.grid != w.grid:
        raise GridError("inner product requires fields on the same grid")
    return integrate((v.values * np.conj(w.values)).real, v.grid)


def lp_norm_pow(f: Field, p: int) -> float:
    """||f||_p^p on the grid."""
    return integrate(np.abs(f.values) ** p, f.grid)


def h1_norm(f: Field) -> float:
    return float(np.sqrt(l2_norm_sq(f) + l2_norm_sq(spectral_derivative(f))))


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
