"""Linearization of the scalar equation and principal-eigenvalue iteration.

The linearized operator at a solution ``u`` acts as

    phi -> laplacian(phi) + zeroth * phi + <grad phi, first>,

and its smallest eigenvalue decides whether the solution sits at a stable
branch point.  With drift the operator is not symmetric, but the ground
state is still real with a sign-definite eigenfunction, which the power
iteration below recovers and certifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, SignIndefiniteEigenfunction
from .grid import (
    ScalarField,
    VectorField,
    gradient,
    laplacian,
    solve_scalar_linear,
)


@dataclass
class LinearizedOperator:
    """Zeroth- and first-order coefficients plus a positivity shift.

    ``k_lin`` is large enough that ``zeroth + k_lin`` is pointwise positive,
    making the shifted operator safely invertible for inverse iteration.
    """

    zeroth: ScalarField
    first: VectorField
    k_lin: float


def linearize(u, coeffs):
    """Differentiate the scalar residual at ``u``.

    Returns
    -------
    LinearizedOperator
    """
    g = u.grid
    q = g.q
    uv = u.values
    s = np.zeros(g.shape)
    yv = coeffs.Y.values
    if np.any(yv):
        gu = gradient(u).values
        s = np.sum(gu * yv, axis=0)
    zeroth = (
        coeffs.h.values
        - (q - 1.0) * coeffs.f.values * uv ** (q - 2.0)
        + (q + 1.0) * coeffs.a.values * uv ** (-q - 2.0)
        - coeffs.b.values * uv**-2.0
        - (q + 3.0) * s**2 * uv ** (-q - 4.0)
        - coeffs.c.values * s * (2.0 * coeffs.d.values * uv**-3.0
                                 + (q + 2.0) * uv ** (-q - 3.0))
    )
    weight = 2.0 * s * uv ** (-q - 3.0) + coeffs.c.values * (
        coeffs.d.values * uv**-2.0 + uv ** (-q - 2.0))
    first = weight * yv
    k_lin = max(0.0, -float(zeroth.min())) + 1.0
    return LinearizedOperator(zeroth=ScalarField(g, zeroth),
                              first=VectorField(g, first), k_lin=k_lin)


def _apply(op, phi):
    g = phi.grid
    out = laplacian(phi).values + op.zeroth.values * phi.values
    if op.first is not None and np.any(op.first.values):
        gphi = gradient(phi).values
        out = out + np.sum(gphi * op.first.values, axis=0)
    return out


def _starting_block(grid, m):
    """Smooth deterministic starting subspace: constant plus single modes.

    Starting from smooth fields matters: on an even grid the zeroed
    highest-mode derivative symbols admit spurious low-lying modes carrying
    unpaired-mode content, and a smooth block has exactly zero overlap with
    them, so the iteration converges to the physical ground state.
    """
    unit = np.eye(grid.dim, dtype=int)
    cols = [np.ones(grid.shape)]
    ax = 0
    while len(cols) < m:
        phase = grid.phase(unit[ax])
        cols.append(np.cos(phase))
        if len(cols) < m:
            cols.append(np.sin(phase))
        ax = (ax + 1) % grid.dim
    return np.column_stack([c.ravel() for c in cols])


def _unpaired_fraction(grid, vals):
    """L2 fraction of a field living on the unpaired-highest-mode planes."""
    power = grid._pair_weight * np.abs(np.fft.rfftn(vals)) ** 2
    total = float(np.sqrt(power.sum()))
    if total == 0.0:
        return 0.0
    return float(np.sqrt(power[grid._nyquist_half].sum())) / total


def smallest_eigenvalue(op, tol=5e-9, max_iter=800, block=6):
    """Ground eigenpair of the linearized operator.

    Block inverse iteration on the operator shifted by ``k_lin``, with a
    Rayleigh-Ritz extraction every step: invert the shifted operator on each
    basis column, re-orthonormalize, project the unshifted operator onto the
    subspace augmented by the previous eigen-residual, and take the lowest
    acceptable Ritz pair.  Two kinds of Ritz pairs are rejected: complex
    pairs, and pairs whose vector carries a substantial fraction of
    unpaired-highest-mode content -- the zeroed derivative symbols make such
    modes artificially cheap, so they can sit below the physical ground
    state without being eigenfunctions of the resolved problem.  Augmenting
    by the residual lets the small eigenproblem split such a spurious
    direction off the physical one even when the two values nearly coincide.

    Stops once the eigen-residual ``L phi - lambda phi`` is below ``tol`` in
    L2 relative to ``phi``.  The reported eigenvalue is the final Rayleigh
    quotient.

    Returns
    -------
    (float, ScalarField)
        Eigenvalue and L2-normalized, sign-definite eigenfunction.

    Raises
    ------
    NonConvergence
        If the residual target is not met within ``max_iter`` sweeps.
    SignIndefiniteEigenfunction
        If the converged eigenfunction changes sign.
    """
    g = op.zeroth.grid
    shifted = ScalarField(g, op.zeroth.values + op.k_lin)
    drift = op.first if (op.first is not None and np.any(op.first.values)) else None

    basis, _ = np.linalg.qr(_starting_block(g, block))
    phi = None
    lam = 0.0
    resid = np.inf
    enrich = None
    for _ in range(max_iter):
        nxt = np.empty_like(basis)
        for j in range(basis.shape[1]):
            col = ScalarField(g, basis[:, j].reshape(g.shape))
            nxt[:, j] = solve_scalar_linear(g, shifted, drift, col).values.ravel()
        basis, _ = np.linalg.qr(nxt)

        ext = basis
        if enrich is not None:
            ext, _ = np.linalg.qr(np.column_stack([basis, enrich]))
        applied = np.empty_like(ext)
        for j in range(ext.shape[1]):
            col = ScalarField(g, ext[:, j].reshape(g.shape))
            applied[:, j] = _apply(op, col).ravel()
        small = ext.T @ applied
        ritz_vals, ritz_vecs = np.linalg.eig(small)

        cand = None
        for i in np.argsort(ritz_vals.real):
            if abs(ritz_vals[i].imag) > 1e-10 * (1.0 + abs(ritz_vals[i].real)):
                continue
            vec = (ext @ ritz_vecs[:, i].real).reshape(g.shape)
            nrm = float(np.sqrt(np.mean(vec**2) * g.volume))
            if nrm == 0.0 or _unpaired_fraction(g, vec) > 0.01:
                continue
            cand = vec / nrm
            break
        if cand is None:
            continue
        phi = cand
        lap_phi = _apply(op, ScalarField(g, phi))
        lam = float(np.mean(phi * lap_phi) / np.mean(phi**2))
        r = lap_phi - lam * phi
        resid = float(np.sqrt(np.mean(r**2) * g.volume))
        if resid <= tol:
            break
        enrich = r.ravel() / np.linalg.norm(r.ravel())
    else:
        raise NonConvergence("eigenvalue iteration stalled",
                             iterations=max_iter, residual=resid)

    if float(phi.mean()) < 0:
        phi = -phi
    field = ScalarField(g, phi)
    if phi.min() * phi.max() <= 0:
        raise SignIndefiniteEigenfunction(
            f"ground-state candidate changes sign: range "
            f"[{phi.min():.3e}, {phi.max():.3e}]")
    return lam, field


def coercivity_eigenvalue(h, tol=5e-9, max_iter=2000):
    """Smallest eigenvalue of ``laplacian + h`` (symmetric, no drift)."""
    g = h.grid
    k = max(0.0, -float(h.values.min())) + 1.0
    op = LinearizedOperator(zeroth=h, first=None, k_lin=k)
    lam, _ = smallest_eigenvalue(op, tol=tol, max_iter=max_iter)
    return lam
