import io
import json
import math

import numpy as np
import pytest

from dnls_well.field import (
    Field,
    Grid,
    GridError,
    cumulative_integral,
    from_json_dict,
    integrate,
    l2_norm_sq,
    load_field,
    make_grid,
    save_field,
    spectral_derivative,
    to_json_dict,
)

from conftest import h1_norm, inner_re, lp_norm_pow
from conftest import random_smooth_field


def test_grid_validation():
    with pytest.raises(GridError):
        make_grid(-1.0, 64)
    with pytest.raises(GridError):
        make_grid(10.0, 63)
    with pytest.raises(GridError):
        make_grid(10.0, 4)


@pytest.mark.parametrize("L", [math.nan, math.inf])
def test_grid_refuses_a_half_length_that_is_not_finite_and_positive(L):
    with pytest.raises(GridError, match="half-length must be finite and positive"):
        make_grid(L, 8)


def test_field_file_with_a_nan_half_length_is_refused_on_load():
    with pytest.raises(GridError, match="half-length"):
        from_json_dict({"grid": {"L": math.nan, "N": 8}, "re": [0.0] * 8, "im": [0.0] * 8})


_RE8 = [0.1 * j for j in range(8)]


@pytest.mark.parametrize(
    "grid, re, im",
    [
        ({"L": 3.0, "N": 8}, _RE8, [0.5]),  # would broadcast as a constant imaginary part
        ({"L": 3.0, "N": 8}, 1.0, [0.0] * 8),  # a scalar re would broadcast too
        ({"L": 3.0, "N": 8}, _RE8, [0.0] * 7),
        ({"L": 3.0, "N": 8}, [_RE8], [[0.0] * 8]),
        ({"L": 3.0, "N": 8.7}, _RE8, [0.0] * 8),  # int() would truncate it to 8
        ({"L": 3.0, "N": 8.0}, _RE8, [0.0] * 8),
        ({"L": 3.0, "N": True}, [1.0], [0.0]),
        ({"L": 3.0, "N": 8}, [str(v) for v in _RE8], [0.0] * 8),  # np.asarray would parse them
        ({"L": 3.0, "N": 8}, _RE8, [True] * 8),  # and read true as 1
        ({"L": "3", "N": 8}, _RE8, [0.0] * 8),
        ({"L": True, "N": 8}, _RE8, [0.0] * 8),
        ({"L": 3.0, "N": 8}, [True, *_RE8[1:]], [0.0] * 8),  # one bool among numbers
        ({"L": 3.0, "N": 8}, [10**400, *_RE8[1:]], [0.0] * 8),  # an int with no float
    ],
    ids=[
        "im-one-entry", "re-scalar", "im-short", "two-d", "N-float", "N-integral-float", "N-bool",
        "re-strings", "im-bools", "L-str", "L-bool", "re-mixed-bool", "re-int-beyond-float",
    ],
)
def test_field_file_whose_values_do_not_match_an_int_n_is_refused(grid, re, im):
    with pytest.raises(GridError):
        from_json_dict({"grid": grid, "re": re, "im": im})


@pytest.mark.parametrize(
    "record",
    [
        [1, 2],
        "field",
        None,
        {"grid": None, "re": [0.0] * 8, "im": [0.0] * 8},
        {"grid": [3.0, 8], "re": [0.0] * 8, "im": [0.0] * 8},
        {"re": [0.0] * 8, "im": [0.0] * 8},
    ],
    ids=["list", "string", "null", "grid-null", "grid-list", "no-grid"],
)
def test_field_record_that_is_not_an_object_with_an_object_grid_is_refused(record):
    with pytest.raises(GridError, match="JSON object"):
        from_json_dict(record)


def test_grid_geometry():
    g = make_grid(10.0, 64)
    assert g.dx == pytest.approx(20.0 / 64)
    assert g.x[0] == -10.0
    assert g.x[-1] == pytest.approx(10.0 - g.dx)


def test_grid_wavenumbers_cached_and_read_only():
    g = make_grid(10.0, 64)
    k = g.k
    assert g.k is k
    np.testing.assert_array_equal(k, 2.0 * np.pi * np.fft.fftfreq(64, g.dx))
    with pytest.raises(ValueError):
        k[0] = 1.0
    assert make_grid(10.0, 64) == g  # the cache is not part of equality


def test_grid_points_cached_and_read_only():
    g = make_grid(10.0, 64)
    x = g.x
    assert g.x is x
    assert not x.flags.writeable
    np.testing.assert_array_equal(x, -g.L + g.dx * np.arange(g.N))
    with pytest.raises(ValueError):
        x[0] = 1.0
    assert make_grid(10.0, 64) == g


def test_grid_derivative_multiplier_cached_and_read_only():
    g = make_grid(10.0, 64)
    ik = g.ik
    assert g.ik is ik
    assert not ik.flags.writeable
    # the multiplier spectral_derivative used to build on every call
    old = 1j * g.k
    old[g.N // 2] = 0.0
    np.testing.assert_array_equal(ik, old)
    with pytest.raises(ValueError):
        ik[0] = 1.0


def test_field_shape_and_finiteness():
    g = make_grid(5.0, 16)
    with pytest.raises(GridError):
        Field(g, np.zeros(8))
    with pytest.raises(GridError):
        Field(g, np.full(16, np.nan))


def test_field_samples_are_read_only():
    f = Field(make_grid(5.0, 16), np.ones(16, complex))
    assert not f.values.flags.writeable
    with pytest.raises(ValueError):
        f.values[0] = 2.0
    with pytest.raises(ValueError):
        f.values *= 2.0


@pytest.mark.parametrize("part", [np.array, np.real])
def test_field_owns_its_samples_and_integrals(rng, part):
    # a complex array, and a real one that the field converts
    g = make_grid(10.0, 64)
    vals = np.array(part(random_smooth_field(rng, g).values))
    f = Field(g, vals)
    before, ints = f.values.copy(), f.integrals
    assert f.integrals is ints  # read once
    assert not np.shares_memory(f.values, vals)
    vals *= 3.0  # the caller's array is its own to change
    assert np.array_equal(f.values, before)
    assert f.integrals is ints
    assert Field(g, before).integrals == ints


def test_field_whose_integrals_overflow_is_refused_on_every_read():
    f = Field(make_grid(3.0, 8), np.full(8, 1e60, dtype=complex))
    for _ in range(2):
        with pytest.raises(GridError, match="not finite"):
            f.integrals
    assert "integrals" not in vars(f)  # nothing was cached


def test_spectral_derivative_trig():
    g = make_grid(np.pi, 128)
    f = Field(g, np.exp(2j * g.x))
    df = spectral_derivative(f)
    assert np.max(np.abs(df.values - 2j * np.exp(2j * g.x))) < 1e-12


def test_spectral_derivative_gaussian():
    g = make_grid(15.0, 256)
    u = np.exp(-(g.x**2))
    f = Field(g, u)
    df = spectral_derivative(f)
    assert np.max(np.abs(df.values - (-2.0 * g.x * u))) < 1e-10


def test_integrate_and_norms():
    g = make_grid(20.0, 512)
    u = np.exp(-(g.x**2))
    f = Field(g, u)
    assert integrate(u, g) == pytest.approx(np.sqrt(np.pi), abs=1e-12)
    assert l2_norm_sq(f) == pytest.approx(np.sqrt(np.pi / 2), abs=1e-12)
    assert lp_norm_pow(f, 4) == pytest.approx(np.sqrt(np.pi) / 2, abs=1e-12)
    assert h1_norm(f) == pytest.approx(
        np.sqrt(np.sqrt(np.pi / 2) + np.sqrt(np.pi / 2)), abs=1e-10
    )


def test_inner_re_requires_same_grid():
    f = Field(make_grid(5.0, 32), np.ones(32))
    h = Field(make_grid(5.0, 64), np.ones(64))
    with pytest.raises(GridError):
        inner_re(f, h)


def test_cumulative_integral_constant_ramp():
    g = make_grid(3.0, 64)
    cum = cumulative_integral(np.ones(g.N), g)
    assert np.max(np.abs(cum - (g.x + g.L))) < 1e-12


def test_json_round_trip_bit_identical():
    g = make_grid(7.5, 32)
    rng = np.random.default_rng(1)
    f = Field(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    d = json.loads(json.dumps(to_json_dict(f)))
    f2 = from_json_dict(d)
    assert np.array_equal(f.values, f2.values)
    assert f.grid == f2.grid


def _cumulative_integral_complex_fft(samples, grid):
    """The running integral by a complex FFT pair with a dummy zero mode, the
    formula `cumulative_integral` had before it used a real FFT."""
    s = np.asarray(samples, dtype=float)
    mean = s.mean()
    shat = np.fft.fft(s - mean)
    ik = 1j * grid.k
    ik[0] = 1.0  # dummy; the zero mode of (s - mean) vanishes
    prim = np.fft.ifft(shat / ik).real
    return mean * (grid.x + grid.L) + prim - prim[0]


@pytest.mark.parametrize("n", [512, 4096])
def test_cumulative_integral_exact_for_gaussian_and_sech2(n):
    g = make_grid(20.0, n)
    erf = np.vectorize(math.erf)
    cases = [
        (np.exp(-(g.x**2)), 0.5 * np.sqrt(np.pi) * (erf(g.x) - erf(-g.L))),
        (1.0 / np.cosh(g.x) ** 2, np.tanh(g.x) - np.tanh(-g.L)),
    ]
    for samples, exact in cases:
        assert np.max(np.abs(cumulative_integral(samples, g) - exact)) < 1e-12


@pytest.mark.parametrize("n", [256, 512, 4096])
def test_cumulative_integral_agrees_with_complex_fft_formula(rng, n):
    g = make_grid(20.0, n)
    draws = [np.abs(rng.standard_normal(n)) ** 2 for _ in range(10)]
    draws.append(np.abs(random_smooth_field(rng, g, amp=2.0).values) ** 2)
    for s in draws:
        ref = _cumulative_integral_complex_fft(s, g)
        assert np.max(np.abs(cumulative_integral(s, g) - ref)) <= 4e-15 * np.max(np.abs(ref))


def test_cumulative_integral_gives_the_nyquist_mode_no_antiderivative():
    # Grid.ik zeroes the Nyquist mode's derivative; its antiderivative is zero too
    g = make_grid(3.0, 64)
    cum = cumulative_integral(1.0 + (-1.0) ** np.arange(g.N), g)
    assert np.max(np.abs(cum - (g.x + g.L))) < 1e-12


def test_save_field_bytes_are_those_of_the_streaming_encoder(tmp_path):
    # one json.dumps string, byte for byte what json.dump streamed before,
    # at magnitudes up to 1e+-300 and with signed zeros
    rng = np.random.default_rng(3)
    for n in (8, 256, 1024):
        g = make_grid(12.5, n)
        mag = 10.0 ** rng.uniform(-300, 300, (2, n))
        parts = rng.standard_normal((2, n)) * mag
        parts[:, ::7] = -0.0
        parts[:, 1::11] = 0.0
        f = Field(g, parts[0] + 1j * parts[1])
        save_field(f, tmp_path / "f.json")
        stream = io.StringIO()
        json.dump(to_json_dict(f), stream)
        assert (tmp_path / "f.json").read_bytes() == stream.getvalue().encode()
        assert np.array_equal(load_field(tmp_path / "f.json").values.view(float), f.values.view(float))


@pytest.mark.parametrize(
    "L, N",
    [(3.0, 8.0), (3.0, 8.7), (3.0, True), ("3", 8), (True, 8), (None, 8), (3.0, "8")],
    ids=["N-integral-float", "N-float", "N-bool", "L-str", "L-bool", "L-none", "N-str"],
)
def test_grid_refuses_what_is_not_a_real_l_and_an_integer_n(L, N):
    with pytest.raises(GridError):
        Grid(L, N)


def test_make_grid_is_grid_and_stores_python_numbers():
    g = make_grid(np.float64(3.0), np.int64(8))
    assert make_grid is Grid
    assert type(g.L) is float and type(g.N) is int
    assert g == Grid(3, 8)


def test_field_file_of_json_integers_loads_as_floats():
    f = from_json_dict({"grid": {"L": 3, "N": 8}, "re": list(range(8)), "im": [0] * 8})
    assert f.grid == make_grid(3.0, 8)
    assert np.array_equal(f.values, np.arange(8.0) + 0j)
    # integers past int64 load too, as the floats they round to
    big = from_json_dict({"grid": {"L": 3, "N": 8}, "re": [10**30, 2**63, *range(6)], "im": [0] * 8})
    assert big.values[:2].tolist() == [1e30 + 0j, 2.0**63 + 0j]
