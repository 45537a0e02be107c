"""Grid construction, transforms, and trigonometric interpolation."""

import numpy as np
import pytest

from dampedwave.errors import ConfigError
from dampedwave.grid import (
    Grid,
    SpectralField,
    evaluate_at,
    forward_transform,
    full_of,
    hermitian_defect,
    inverse_transform,
)


def test_axes_and_spacing():
    g = Grid(1, 64, 8.0)
    assert g.dx == pytest.approx(16.0 / 64)
    assert g.dxi == pytest.approx(np.pi / 8.0)
    assert g.xi_max == pytest.approx(np.pi * 64 / 16.0)
    x = g.x_axis
    assert x[0] == pytest.approx(-8.0)
    assert np.allclose(np.diff(x), g.dx)
    # frequency axis is symmetric around zero up to the Nyquist mode
    xi = g.xi_axis
    assert xi.min() == pytest.approx(-g.xi_max)
    assert 0.0 in xi


def test_low_frequency_guard():
    # xi_max must clear the kernel branch point at |xi| = 1/2
    with pytest.raises(ConfigError):
        Grid(1, 8, 32.0)


def test_roundtrip_1d():
    g = Grid(1, 128, 10.0)
    rng = np.random.default_rng(3)
    samples = rng.standard_normal(g.shape)
    fld = forward_transform(g, samples)
    back = fld.physical()
    assert np.max(np.abs(back - samples)) < 1e-12


def test_roundtrip_2d():
    g = Grid(2, 32, 6.0)
    rng = np.random.default_rng(4)
    samples = rng.standard_normal(g.shape)
    back = forward_transform(g, samples).physical()
    assert np.max(np.abs(back - samples)) < 1e-12


def test_gaussian_coefficients_match_continuum():
    # unitary convention: Fourier transform of e^{-x^2/2} is e^{-xi^2/2}
    g = Grid(1, 256, 20.0)
    fld = forward_transform(g, np.exp(-0.5 * g.x_axis**2))
    expected = np.exp(-0.5 * g.xi_axis[: g.size // 2 + 1] ** 2)
    assert fld.coeffs.shape == (g.size // 2 + 1,)
    assert np.max(np.abs(fld.coeffs - expected)) < 1e-12


def test_parseval_exact():
    # the half-spectrum counts each column k = 1 .. N/2 - 1 twice (for k and
    # -k) and the self-conjugate columns k = 0 and k = N/2 once
    for dim, size, half_length in [(1, 128, 9.0), (2, 16, 5.0), (3, 8, 4.0)]:
        g = Grid(dim, size, half_length)
        samples = np.random.default_rng(5 + dim).standard_normal(g.shape)
        fld = forward_transform(g, samples)
        assert fld.coeffs.shape == g.shape[:-1] + (size // 2 + 1,)
        count = np.full(size // 2 + 1, 2.0)
        count[0] = count[-1] = 1.0
        phys = float(np.sum(samples**2) * g.dx**dim)
        spec = float(np.sum(count * np.abs(fld.coeffs) ** 2) * g.dxi**dim)
        assert phys == pytest.approx(spec, rel=1e-13)
        assert np.array_equal(g.column_weight, count)


def test_dealias_mask_cuts_top_third():
    g = Grid(1, 64, 8.0)
    # modes with |k| <= N // 3 survive, each column k > 0 standing for +-k
    assert g.dealias_mask.shape == (33,)
    assert int(g.dealias_mask.sum()) == 64 // 3 + 1
    kept = float(np.sum(g.dealias_mask * g.column_weight))
    assert kept == 2 * (64 // 3) + 1


def test_evaluate_at_reproduces_lattice():
    g = Grid(1, 64, 7.0)
    rng = np.random.default_rng(8)
    samples = rng.standard_normal(g.shape)
    fld = forward_transform(g, samples)
    pts = g.x_axis.reshape(-1, 1)[5:20]
    vals = evaluate_at(fld, pts)
    assert np.max(np.abs(vals - samples[5:20])) < 1e-11


def test_evaluate_at_off_lattice_band_limited():
    # a pure lattice harmonic is reproduced exactly anywhere in the box
    g = Grid(1, 64, np.pi)
    x = g.x_axis
    samples = np.cos(3.0 * x) + 0.5 * np.sin(7.0 * x)
    fld = forward_transform(g, samples)
    pts = np.linspace(-2.5, 2.5, 41).reshape(-1, 1)
    vals = evaluate_at(fld, pts)
    expected = np.cos(3.0 * pts[:, 0]) + 0.5 * np.sin(7.0 * pts[:, 0])
    assert np.max(np.abs(vals - expected)) < 1e-11


def test_evaluate_at_2d():
    g = Grid(2, 32, np.pi)
    xx = g.x_axis[:, None]
    yy = g.x_axis[None, :]
    samples = np.sin(2.0 * xx) * np.cos(3.0 * yy)
    fld = forward_transform(g, samples)
    pts = np.array([[0.3, -0.7], [1.1, 0.2], [-2.0, 2.5]])
    vals = evaluate_at(fld, pts)
    expected = np.sin(2.0 * pts[:, 0]) * np.cos(3.0 * pts[:, 1])
    assert np.max(np.abs(vals - expected)) < 1e-11


def test_grid_equality_and_caching():
    a = Grid(1, 64, 8.0)
    b = Grid(1, 64, 8.0)
    assert a == b
    assert a.xi2 is a.xi2  # cached property returns one array


def full_lattice_coeffs(g: Grid, samples: np.ndarray) -> np.ndarray:
    """Reference: the fftn-ordered coefficients of the full lattice."""
    sign = (-1.0) ** np.abs(g.k_axis)
    phase = np.prod(np.meshgrid(*[sign] * g.dim, indexing="ij"), axis=0)
    return np.fft.fftn(samples) * phase * g.transform_scale


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_full_of_restores_the_half_spectrum_of_real_data(dim):
    g = Grid(dim, 8, 4.0)
    noise = np.random.default_rng(dim).standard_normal(g.shape)
    coeffs = full_lattice_coeffs(g, noise)
    full = full_of(forward_transform(g, noise).coeffs)
    assert full.shape == g.shape
    assert np.max(np.abs(full - coeffs)) <= 1e-15 * np.max(np.abs(coeffs))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_hermitian_defect_separates_real_from_non_real_coefficients(dim):
    g = Grid(dim, 8, 4.0)
    fld = forward_transform(g, np.random.default_rng(dim).standard_normal(g.shape))
    assert hermitian_defect(fld) <= 1e-15
    assert hermitian_defect(SpectralField(g, g.zeros_spectral())) == 0.0
    # a mode off the self-mirrored planes is free; the zero mode is not
    coeffs = fld.coeffs.copy()
    coeffs[(0,) * (dim - 1) + (1,)] += 1j
    assert hermitian_defect(SpectralField(g, coeffs)) <= 1e-15
    coeffs[(0,) * dim] += 1j
    assert hermitian_defect(SpectralField(g, coeffs)) > 1e-3
