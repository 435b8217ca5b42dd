"""Linearization of the scalar equation and principal-eigenvalue iteration.

The linearized operator at a solution ``u`` acts as

    phi -> laplacian(phi) + zeroth * phi + <grad phi, first>,

and its smallest eigenvalue decides whether the solution sits at a stable
branch point.  With drift the operator is not symmetric, but the ground
state is still real with a sign-definite eigenfunction, which a block
preconditioned Davidson iteration recovers and certifies.  Its
preconditioner is the Fourier symbol ``|k|^2 + mean(zeroth) + k_lin``, a
diagonal division, so the eigen iteration nests no linear solve.  The
basis is capped at 48 vectors (eight per kept Ritz pair) and
thick-restarted from the kept Ritz vectors when full.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, SignIndefiniteEigenfunction
from .grid import (ScalarField, VectorField, _scalar_op_values, _shifted_lap_inverse,
                   _unpaired_fraction, gradient)

# Ritz pairs kept and expanded per Davidson iteration
_BLOCK = 6
# Davidson basis rows per block column.  A tighter cap restarts too often to
# split a ground state from an exactly degenerate twin of unpaired-mode
# content: at 4 or 5, the 8^3 drift operator of the dense-oracle test
# converges to a sign-changing mixture of the two.
_BASIS_PER_BLOCK = 8
# relative size below which an orthogonalized correction counts as already
# in the basis
_DROP = 1e-10


@dataclass
class LinearizedOperator:
    """Zeroth- and first-order coefficients plus a positivity shift.

    ``k_lin`` is large enough that ``zeroth + k_lin`` is pointwise positive,
    so the eigen preconditioner ``|k|^2 + mean(zeroth) + k_lin`` is at
    least 1.
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


def smallest_eigenvalue(op, tol=5e-9, max_iter=800):
    """Ground eigenpair of the linearized operator.

    Block preconditioned Davidson iteration.  An orthonormal basis and its
    image under the operator grow from the smooth ``_starting_block``; every
    iteration projects the operator onto the basis and walks the Ritz pairs
    upward, keeping up to six acceptable ones.  Two kinds of Ritz pairs
    are rejected: complex pairs, and pairs whose vector carries more than 1%
    unpaired-highest-mode content -- the zeroed derivative symbols make such
    modes artificially cheap, so they can sit below the physical ground
    state without being eigenfunctions of the resolved problem.  The lowest
    kept pair is tested with a fresh apply; then the basis grows by the
    kept pairs' residuals, preconditioned by division by the Fourier symbol
    ``|k|^2 + mean(zeroth) + k_lin`` (at least 1, so no linear solve is
    needed) and orthogonalized by classical Gram-Schmidt run twice.
    Directions already in the basis are dropped.  The basis holds at most
    48 vectors: when a step would exceed that, it restarts from the kept
    Ritz vectors, whose images follow by the same combinations.
    An iteration that finds no acceptable pair grows the basis from the
    lowest six Ritz pairs instead.

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
        If the residual target is not met within ``max_iter`` iterations,
        each of which projects the operator onto the basis once.
    SignIndefiniteEigenfunction
        If the converged eigenfunction changes sign.
    """
    g = op.zeroth.grid
    zeroth = op.zeroth.values
    drift = op.first.values if op.first is not None and np.any(op.first.values) else None
    precond = _shifted_lap_inverse(g, float(np.mean(zeroth)) + op.k_lin)
    cap = _BASIS_PER_BLOCK * _BLOCK
    basis = np.empty((cap, zeroth.size))
    image = np.empty_like(basis)

    def grow(m, rows):
        """Append the directions of ``rows`` the basis lacks; new size."""
        for row in rows:
            t = np.array(row, dtype=np.float64)
            size = np.linalg.norm(t)
            for _ in range(2):
                t -= (basis[:m] @ t) @ basis[:m]
            nrm = np.linalg.norm(t)
            if nrm <= _DROP * size:
                continue
            basis[m] = t / nrm
            image[m] = _scalar_op_values(g, zeroth, drift, basis[m].reshape(g.shape)).ravel()
            m += 1
        return m

    m = grow(0, _starting_block(g, _BLOCK).T)
    resid = np.inf
    for _ in range(max_iter):
        ritz_vals, ritz_vecs = np.linalg.eig(basis[:m] @ image[:m].T)
        order = np.argsort(ritz_vals.real)
        picks = []
        for i in order:
            if abs(ritz_vals[i].imag) > 1e-10 * (1.0 + abs(ritz_vals[i].real)):
                continue
            vec = ritz_vecs[:, i].real @ basis[:m]
            if _unpaired_fraction(g, vec.reshape(g.shape)) > 0.01:
                continue
            picks.append(i)
            if len(picks) == _BLOCK:
                break
        accepted = bool(picks)
        if not accepted:
            picks = order[:_BLOCK]
        coef = ritz_vecs[:, picks].real
        thetas = ritz_vals[picks].real
        vecs = coef.T @ basis[:m]
        resids = coef.T @ image[:m] - thetas[:, None] * vecs
        if accepted:
            x0 = vecs[0]
            ax = _scalar_op_values(g, zeroth, drift, x0.reshape(g.shape)).ravel()
            lam = float(x0 @ ax / (x0 @ x0))
            resids[0] = ax - lam * x0
            resid = float(np.linalg.norm(resids[0]) / np.linalg.norm(x0))
            if resid <= tol:
                break
        steps = [precond(r) for r in resids]
        if m + len(steps) > cap:
            keep, _ = np.linalg.qr(coef)
            basis[:keep.shape[1]] = keep.T @ basis[:m]
            image[:keep.shape[1]] = keep.T @ image[:m]
            m = keep.shape[1]
        m = grow(m, steps)
    else:
        raise NonConvergence("eigenvalue iteration stalled",
                             iterations=max_iter, residual=resid)

    phi = x0.reshape(g.shape)
    phi = phi / np.sqrt(np.mean(phi**2) * g.volume)
    if float(phi.mean()) < 0:
        phi = -phi
    if phi.min() * phi.max() <= 0:
        raise SignIndefiniteEigenfunction(
            f"ground-state candidate changes sign: range "
            f"[{phi.min():.3e}, {phi.max():.3e}]")
    return lam, ScalarField(g, phi)


def coercivity_eigenvalue(h, tol=5e-9, max_iter=2000):
    """Smallest eigenvalue of ``laplacian + h`` (symmetric, no drift)."""
    k = max(0.0, -float(h.values.min())) + 1.0
    op = LinearizedOperator(zeroth=h, first=None, k_lin=k)
    lam, _ = smallest_eigenvalue(op, tol=tol, max_iter=max_iter)
    return lam
