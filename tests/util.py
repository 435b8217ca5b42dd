"""Small shared builders for test fields."""

from __future__ import annotations

import numpy as np

from driftsolve.grid import GridSpec, ScalarField, SymTensorField, VectorField


def mesh(grid):
    """Full coordinate arrays of the grid points, one per axis."""
    return np.meshgrid(*grid.x_axes, indexing="ij")


def const_s(grid, value):
    return ScalarField(grid, np.full(grid.shape, float(value)))


def _axis_phase(grid, axis, mode):
    kvec = np.zeros(grid.dim, dtype=int)
    kvec[axis] = mode
    return grid.phase(kvec)


def sin_s(grid, axis=0, amp=1.0, offset=0.0, mode=1):
    phase = _axis_phase(grid, axis, mode)
    return ScalarField(grid, offset + amp * np.sin(phase) + np.zeros(grid.shape))


def cos_s(grid, axis=0, amp=1.0, offset=0.0, mode=1):
    phase = _axis_phase(grid, axis, mode)
    return ScalarField(grid, offset + amp * np.cos(phase) + np.zeros(grid.shape))


def zero_v(grid):
    return VectorField(grid, np.zeros((grid.dim,) + grid.shape))


def const_v(grid, comps):
    vals = np.zeros((grid.dim,) + grid.shape)
    for j, c in enumerate(comps):
        vals[j] = c
    return VectorField(grid, vals)


def vec_with(grid, comp, scalar_field):
    vals = np.zeros((grid.dim,) + grid.shape)
    vals[comp] = scalar_field.values
    return VectorField(grid, vals)


def zero_t(grid):
    return SymTensorField(grid, np.zeros((grid.dim, grid.dim) + grid.shape))


def random_band_limited(grid, rng, amp=1.0, kmax=2):
    """Smooth random periodic scalar: a few low Fourier modes, zero mean."""
    vals = np.zeros(grid.shape)
    for _ in range(6):
        kvec = rng.integers(-kmax, kmax + 1, size=grid.dim)
        if not np.any(kvec):
            continue
        phase = grid.phase(kvec)
        vals = vals + rng.normal() * np.cos(phase) + rng.normal() * np.sin(phase)
    scale = np.abs(vals).max()
    if scale > 0:
        vals *= amp / scale
    return ScalarField(grid, vals + np.zeros(grid.shape))


def random_vector(grid, rng, amp=1.0, kmax=2):
    comps = [random_band_limited(grid, rng, amp, kmax).values for _ in range(grid.dim)]
    return VectorField(grid, np.array(comps))
