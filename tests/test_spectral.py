"""Half-spectrum kernels against full complex-spectrum references.

The library transforms real fields with ``rfftn``/``irfftn`` and sums
derivative terms in Fourier space; the references here take one full
``fftn``/``ifftn`` round trip per term with the wavenumbers of
``oracles.py``.  Inputs are white noise, so every Fourier entry, the
unpaired Nyquist planes included, carries content.
"""

import numpy as np
import pytest

from driftsolve.grid import (
    GridSpec,
    ScalarField,
    SymTensorField,
    VectorField,
    _lap_grad_values,
    _project_solvable,
    _scalar_op_values,
    _unpaired_fraction,
    c2_surrogate,
    conformal_killing,
    divergence,
    gradient,
    lame_invert,
    laplacian,
    solve_scalar_linear,
    tensor_divergence,
)

from oracles import axes, ref_grad, ref_lap

GRIDS = [(dim, n, length) for dim in (3, 4, 5) for n in (8, 16)
         for length in (2.0 * np.pi, 1.0)]


def _ids(case):
    dim, n, length = case
    return f"d{dim}n{n}L{length:.3g}"


def _close(got, ref):
    err = np.abs(got - ref).max()
    assert err <= 1e-12 * np.abs(ref).max(), err


def _nyquist(dim, n):
    return np.any(np.indices((n,) * dim) == n // 2, axis=0)


def _ref_partial(u, k, axis):
    return ref_grad(u, k[axis:axis + 1])[0]


def _ref_cdev(w, k):
    dim = len(w)
    partial = np.array([ref_grad(wj, k) for wj in w]).swapaxes(0, 1)
    div = np.trace(partial, axis1=0, axis2=1)
    s = partial + partial.swapaxes(0, 1)
    for i in range(dim):
        s[i, i] -= (2.0 / dim) * div
    return s


def _ref_lame_invert(x, k, k2):
    """Rank-one inverse of -(|k|^2 I + beta k k^T), one full transform each."""
    dim = len(x)
    beta = 1.0 - 2.0 / dim
    hat = np.array([np.fft.fftn(c) for c in x])
    inv = np.zeros_like(k2)
    np.divide(1.0, k2, out=inv, where=k2 > 0)
    kdot = sum(kj * hj for kj, hj in zip(k, hat))
    coef = (beta / (1.0 + beta)) * kdot * inv * inv
    return np.array([np.fft.ifftn(-hat[j] * inv + k[j] * coef).real
                     for j in range(dim)])


@pytest.fixture(params=GRIDS, ids=_ids)
def case(request):
    dim, n, length = request.param
    grid = GridSpec(dim=dim, n_axis=n, length=length)
    _, k, k2 = axes(dim, n, length)
    rng = np.random.default_rng(dim * 100 + n + int(length))
    return grid, k, k2, rng


def test_scalar_kernels_match_full_spectrum(case):
    grid, k, k2, rng = case
    u = rng.normal(size=grid.shape)
    _close(gradient(ScalarField(grid, u)).values, ref_grad(u, k))
    _close(laplacian(ScalarField(grid, u)).values, ref_lap(u, k2))
    gu = ref_grad(u, k)
    hess = max(np.abs(ref_grad(gj, k)).max() for gj in gu)
    ref_c2 = np.abs(u).max() + np.sqrt(np.sum(gu**2, axis=0)).max() + hess
    assert c2_surrogate(ScalarField(grid, u)) == pytest.approx(ref_c2, rel=1e-12)

    full = np.fft.fftn(u)
    mask = _nyquist(grid.dim, grid.n_axis)
    ref_frac = np.sqrt((np.abs(full[mask]) ** 2).sum() / (np.abs(full) ** 2).sum())
    assert _unpaired_fraction(grid, u) == pytest.approx(ref_frac, rel=1e-12)

    lap, grad = _lap_grad_values(grid, u)
    _close(lap, ref_lap(u, k2))
    _close(grad, ref_grad(u, k))
    h = rng.normal(size=grid.shape)
    drift = rng.normal(size=(grid.dim,) + grid.shape)
    ref_op = ref_lap(u, k2) + h * u
    _close(_scalar_op_values(grid, h, None, u), ref_op)
    _close(_scalar_op_values(grid, h, drift, u),
           ref_op + np.sum(ref_grad(u, k) * drift, axis=0))


def test_vector_kernels_match_full_spectrum(case):
    grid, k, k2, rng = case
    w = rng.normal(size=(grid.dim,) + grid.shape)
    ref_div = sum(_ref_partial(w[j], k, j) for j in range(grid.dim))
    _close(divergence(VectorField(grid, w)).values, ref_div)

    ref_s = _ref_cdev(w, k)
    _close(conformal_killing(VectorField(grid, w)).values, ref_s)

    s = rng.normal(size=(grid.dim, grid.dim) + grid.shape)
    s = s + s.swapaxes(0, 1)
    ref_tdiv = np.array([sum(_ref_partial(s[i, j], k, i) for i in range(grid.dim))
                         for j in range(grid.dim)])
    _close(tensor_divergence(SymTensorField(grid, s)).values, ref_tdiv)

    _close(lame_invert(VectorField(grid, w)).values, _ref_lame_invert(w, k, k2))

    mask = _nyquist(grid.dim, grid.n_axis)
    ref_proj, ref_removed = np.empty_like(w), 0.0
    for j in range(grid.dim):
        hat = np.fft.fftn(w[j])
        hat.flat[0] = 0.0  # the mean is removed but not measured
        cut = np.where(mask, hat, 0.0)
        ref_proj[j] = np.fft.ifftn(hat - cut).real
        ref_removed = max(ref_removed, np.abs(np.fft.ifftn(cut).real).max())
    proj, removed = _project_solvable(grid, w)
    _close(proj, ref_proj)
    assert removed == pytest.approx(ref_removed, rel=1e-12)


@pytest.mark.parametrize("dim", (3, 4, 5))
@pytest.mark.parametrize("length", (2.0 * np.pi, 1.0))
def test_drift_solve_meets_tolerance_on_oracle_operator(dim, length):
    grid = GridSpec(dim=dim, n_axis=8, length=length)
    rng = np.random.default_rng(dim)
    _, k, k2 = axes(dim, 8, length)
    scale = (2.0 * np.pi / length) ** 2
    h = scale * (2.0 + 0.5 * np.sin(grid.phase(np.eye(dim, dtype=int)[0])))
    drift = np.sqrt(scale) * 0.5 * np.cos(
        np.array([grid.phase(np.roll(np.eye(dim, dtype=int)[0], j + 1))
                  for j in range(dim)]))
    rhs = rng.normal(size=grid.shape)
    tol = 1e-10
    u = solve_scalar_linear(grid, ScalarField(grid, h), VectorField(grid, drift),
                            ScalarField(grid, rhs), tol=tol).values
    resid = ref_lap(u, k2) + h * u + np.sum(ref_grad(u, k) * drift, axis=0) - rhs
    assert np.abs(resid).max() <= tol * max(1.0, np.abs(rhs).max())
