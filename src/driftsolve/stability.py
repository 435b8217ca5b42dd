"""Principal-eigenvalue iteration for the linearized scalar equation.

The linearized operator ``scalar.linearize`` at a solution ``u`` acts as

    phi -> laplacian(phi) + zeroth * phi + <grad phi, first>,

and its smallest eigenvalue decides whether the solution sits at a stable
branch point.  With drift the operator is not symmetric, but the ground
state is still real with a sign-definite eigenfunction, which a
preconditioned Davidson iteration on a single Ritz pair recovers and
certifies.  Its preconditioner is the Fourier symbol
``|k|^2 + mean(zeroth) + max(0, -min(zeroth)) + 1``, at least 1 and a
diagonal division, so the eigen iteration nests no linear solve.  The
basis is capped at 48 vectors and restarted from the current Ritz vector
when full.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergence, SignIndefiniteEigenfunction
from .grid import (ScalarField, VectorField, _scalar_op_values, _shifted_lap_inverse,
                   _unpaired_fraction)
from .scalar import LinearizedOperator, linearize

__all__ = ["LinearizedOperator", "coercivity_eigenvalue", "linearize", "smallest_eigenvalue"]

# Davidson basis size at which the iteration restarts from its Ritz vector.
# A tighter cap restarts too often: at 6 or 8 the 8^3 drift operator of the
# dense-oracle test does not converge within 800 iterations, and at 12 or 16
# the band-limited 16^3 drift operators take up to 1.6x the applies of 24 to
# 64, which all take the same.
_BASIS_CAP = 48
# relative size below which an orthogonalized correction counts as already
# in the basis
_DROP = 1e-10


def _start(grid):
    """Start vector of the eigen iteration: the constant, flattened.

    Starting from a smooth field matters: on an even grid the zeroed
    highest-mode derivative symbols admit spurious low-lying modes carrying
    unpaired-mode content, and the constant has exactly zero overlap with
    them, so the iteration converges to the physical ground state.
    """
    return np.ones(grid.shape).ravel()


def smallest_eigenvalue(op, tol=5e-9, max_iter=800):
    """Ground eigenpair of the linearized operator.

    Preconditioned Davidson iteration on one Ritz pair.  An orthonormal
    basis and its image under the operator grow from the constant vector of
    ``_start``; every iteration projects the operator onto the basis and
    walks the Ritz pairs upward to the lowest acceptable one.  Two kinds of
    Ritz pairs are rejected: complex pairs, and pairs whose vector carries
    more than 1% unpaired-highest-mode content -- the zeroed derivative
    symbols make such modes artificially cheap, so they can sit below the
    physical ground state without being eigenfunctions of the resolved
    problem.  The kept pair's residual is combined from the stored images;
    once it meets ``tol``, a fresh apply certifies the pair or, if the
    certificate fails, gives the residual to go on from.  The basis grows
    by the residual, preconditioned by division by the Fourier symbol
    ``|k|^2 + mean(zeroth) + max(0, -min(zeroth)) + 1`` (at least 1, so no
    linear solve is needed) and orthogonalized by classical Gram-Schmidt
    run twice.  A direction already in the basis is dropped.  The basis
    holds at most 48 vectors: when it is full, it restarts from the Ritz
    vector, whose image follows by the same combination.  An iteration
    that finds no acceptable pair grows the basis from the lowest Ritz pair
    instead.

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
    drift = op.first.values if np.any(op.first.values) else None
    shift = max(0.0, -float(zeroth.min())) + 1.0
    precond = _shifted_lap_inverse(g, float(np.mean(zeroth)) + shift)
    basis = np.empty((_BASIS_CAP, zeroth.size))
    image = np.empty_like(basis)

    def apply(flat):
        return _scalar_op_values(g, zeroth, drift, flat.reshape(g.shape)).ravel()

    def grow(m, t):
        """Append the direction of ``t`` unless the basis has it; new size."""
        size = np.linalg.norm(t)
        for _ in range(2):
            t = t - (basis[:m] @ t) @ basis[:m]
        nrm = np.linalg.norm(t)
        if nrm <= _DROP * size:
            return m
        basis[m] = t / nrm
        image[m] = apply(basis[m])
        return m + 1

    m = grow(0, _start(g))
    resid = np.inf
    for _ in range(max_iter):
        ritz_vals, ritz_vecs = np.linalg.eig(basis[:m] @ image[:m].T)
        order = np.argsort(ritz_vals.real)
        accepted = False
        for i in order:
            if abs(ritz_vals[i].imag) > 1e-10 * (1.0 + abs(ritz_vals[i].real)):
                continue
            vec = ritz_vecs[:, i].real @ basis[:m]
            if _unpaired_fraction(g, vec.reshape(g.shape)) <= 0.01:
                accepted = True
                break
        if not accepted:
            i = order[0]
        coef = ritz_vecs[:, i].real
        x = coef @ basis[:m]
        ax = coef @ image[:m]  # the image of x, combined from the stored images
        lam = float(ritz_vals[i].real)
        r = ax - lam * x
        resid = float(np.linalg.norm(r) / np.linalg.norm(x))
        if accepted and resid <= tol:  # certify the pair with a fresh apply
            ax = apply(x)
            lam = float(x @ ax / (x @ x))
            r = ax - lam * x
            resid = float(np.linalg.norm(r) / np.linalg.norm(x))
            if resid <= tol:
                break
        if m == _BASIS_CAP:
            nrm = np.linalg.norm(coef)
            image[0] = ax / nrm
            basis[0] = x / nrm
            m = 1
        m = grow(m, precond(r))
    else:
        raise NonConvergence("eigenvalue iteration stalled",
                             iterations=max_iter, residual=resid)

    phi = x.reshape(g.shape)
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
    g = h.grid
    op = LinearizedOperator(zeroth=h, first=VectorField(g, np.zeros((g.dim,) + g.shape)))
    lam, _ = smallest_eigenvalue(op, tol=tol, max_iter=max_iter)
    return lam
