"""Independent reference computations used to cross-check the library.

Everything here is deliberately self-contained: dense matrices are
assembled with plain numpy and eigen/linear solves go through
``numpy.linalg``, so agreement with the library's matrix-free iterative
paths is a genuine two-route check, not a tautology.
"""

from __future__ import annotations

import numpy as np


def wavenumbers(n_axis, length):
    """Integer-mode wavenumbers with the unpaired mode treated as constant.

    The entry at index n_axis//2 (the mode without a conjugate partner on
    an even grid) is zeroed: its first derivative is not representable on
    the collocation grid, so the calculus treats it as derivative-free.
    """
    k = 2.0 * np.pi / length * np.fft.fftfreq(n_axis, d=1.0 / n_axis)
    if n_axis % 2 == 0:
        k[n_axis // 2] = 0.0
    return k


def axes(dim, n_axis, length=2.0 * np.pi):
    x1 = np.arange(n_axis) * (length / n_axis)
    k1 = wavenumbers(n_axis, length)
    x = np.meshgrid(*([x1] * dim), indexing="ij", sparse=True)
    k = np.meshgrid(*([k1] * dim), indexing="ij", sparse=True)
    k2 = np.zeros((n_axis,) * dim)
    for kj in k:
        k2 = k2 + kj**2
    return x, k, k2


def ref_grad(u, k):
    uh = np.fft.fftn(u)
    return np.array([np.fft.ifftn(1j * kj * uh).real for kj in k])


def ref_lap(u, k2):
    """Positive-spectrum Laplacian, the negative of div(grad(.))."""
    return np.fft.ifftn(k2 * np.fft.fftn(u)).real


def dense_matrix(apply_op, n_total):
    """Assemble the dense matrix of a linear operator on flat vectors."""
    cols = np.empty((n_total, n_total))
    e = np.zeros(n_total)
    for j in range(n_total):
        e[j] = 1.0
        cols[:, j] = apply_op(e)
        e[j] = 0.0
    return cols


def min_real_eigenvalue(mat, imag_tol=1e-8):
    """Smallest real part among (near-)real eigenvalues of a dense matrix."""
    lam = np.linalg.eigvals(mat)
    real = lam[np.abs(lam.imag) <= imag_tol * (1.0 + np.abs(lam.real))]
    if real.size == 0:
        real = lam
    return float(np.min(real.real))


def dense_ground_pair(mat, imag_tol=1e-8, cluster_tol=1e-8):
    """Ground eigenpair of a dense operator: the constant-content cluster.

    The zeroed-highest-mode calculus admits spurious near-real eigenvalues
    whose eigenvectors carry unpaired-mode oscillation and no constant
    component; they can even undercut the physical ground state.  This
    selector clusters near-real eigenvalues, fits the constant vector inside
    each cluster's eigenspace, and returns the cluster that contains it best
    -- the principal (sign-definite) pair for every operator used in the
    tests.
    """
    lam, vec = np.linalg.eig(mat)
    keep = np.abs(lam.imag) <= imag_tol * (1.0 + np.abs(lam.real))
    lam, vec = lam[keep].real, vec[:, keep].real
    order = np.argsort(lam)
    lam, vec = lam[order], vec[:, order]

    ones = np.ones(mat.shape[0])
    best = None
    start = 0
    while start < lam.size:
        stop = start + 1
        while (stop < lam.size
               and lam[stop] - lam[stop - 1] <= cluster_tol * (1.0 + abs(lam[stop]))):
            stop += 1
        span = vec[:, start:stop]
        coef, *_ = np.linalg.lstsq(span, ones, rcond=None)
        fit = span @ coef
        miss = np.linalg.norm(ones - fit) / np.linalg.norm(ones)
        if best is None or miss < best[0]:
            best = (miss, float(lam[start:stop].mean()), fit)
        start = stop
    _, value, fit = best
    return value, fit / np.linalg.norm(fit)


def dense_scalar_operator(dim, n_axis, zeroth, first=None, length=2.0 * np.pi):
    """Dense matrix of  u -> lap(u) + zeroth*u + <grad u, first>."""
    _, k, k2 = axes(dim, n_axis, length)
    shape = (n_axis,) * dim
    z = np.broadcast_to(zeroth, shape)

    def apply_op(vec):
        u = vec.reshape(shape)
        out = ref_lap(u, k2) + z * u
        if first is not None:
            g = ref_grad(u, k)
            for j in range(dim):
                out = out + g[j] * first[j]
        return out.ravel()

    return dense_matrix(apply_op, n_axis**dim)


def dense_newton_quadratic_gradient(dim, n_axis, big_h, th1, th2, th3, z_vec,
                                    length=2.0 * np.pi, tol=1e-12):
    """Dense Newton solve of  lap(u) + H u + th1 <grad u, Z>^2 + th2 <grad u, Z> + th3 = 0.

    Z is a constant vector; all coefficient fields are broadcastable to the
    grid shape. Used as the reference for the library's matrix-free path.
    """
    _, k, k2 = axes(dim, n_axis, length)
    shape = (n_axis,) * dim
    n_total = n_axis**dim
    big_h = np.broadcast_to(big_h, shape).astype(float)
    th1 = np.broadcast_to(th1, shape).astype(float)
    th2 = np.broadcast_to(th2, shape).astype(float)
    th3 = np.broadcast_to(th3, shape).astype(float)

    def s_of(u):
        g = ref_grad(u, k)
        return sum(g[j] * z_vec[j] for j in range(dim))

    def resid(u):
        s = s_of(u)
        return ref_lap(u, k2) + big_h * u + th1 * s**2 + th2 * s + th3

    # directional-derivative matrix D_Z = sum_j Z_j d/dx_j
    def apply_dz(vec):
        return s_of(vec.reshape(shape)).ravel()

    d_z = dense_matrix(apply_dz, n_total)

    def apply_lap(vec):
        return ref_lap(vec.reshape(shape), k2).ravel()

    lap_mat = dense_matrix(apply_lap, n_total)

    u = (-th3 / big_h).copy()
    for _ in range(60):
        r = resid(u)
        rn = np.abs(r).max()
        if rn < tol:
            break
        s = s_of(u)
        jac = lap_mat + np.diag(big_h.ravel()) + np.diag((2 * th1 * s + th2).ravel()) @ d_z
        delta = np.linalg.solve(jac, -r.ravel()).reshape(shape)
        alpha = 1.0
        while alpha > 1e-8:
            trial = u + alpha * delta
            if np.abs(resid(trial)).max() <= (1 - 0.25 * alpha) * rn:
                break
            alpha *= 0.5
        u = u + alpha * delta
    return u


def constant_margin_max(h, f, a, q, lo, hi, n_scan=4001):
    """Largest worst-case margin ``min_x (h t - f t^(q-1) - a t^(-q-1))`` of a
    constant level ``t`` in ``[lo, hi]``, by a log-spaced scan of
    ``n_scan`` levels refined by golden section on ``log t`` between the
    neighbours of the best one.

    Returns
    -------
    (float, float)
        The level and its margin.
    """
    def margin(log_t):
        t = np.exp(log_t)
        return float(np.min(h * t - f * t ** (q - 1.0) - a * t ** (-q - 1.0)))

    grid = np.linspace(np.log(lo), np.log(hi), n_scan)
    i = int(np.argmax([margin(s) for s in grid]))
    left, right = grid[max(i - 1, 0)], grid[min(i + 1, n_scan - 1)]
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    while right - left > 1e-12:
        s1 = right - ratio * (right - left)
        s2 = left + ratio * (right - left)
        if margin(s1) < margin(s2):
            left = s1
        else:
            right = s2
    s = 0.5 * (left + right)
    return float(np.exp(s)), margin(s)


def dense_least_squares(mat, rhs):
    sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    return sol


def lame_probe_ratios(dim, n_axis, length, n_probes):
    """Ratios ``sup|cdev(W)| / sup|X|`` of the constant-coefficient vector
    solve ``div(cdev W) = X`` over the probe set of a random operator-norm
    search: the lowest mode ``sin(2 pi x1 / L) e1`` first, then
    ``n_probes`` random mean-free fields, each component a sum of six modes
    with integer wavevector entries in [-2, 2].

    The solve inverts the full-spectrum Fourier blocks
    ``-(|k|^2 I + beta k k^T)``, ``beta = 1 - 2/dim``, mode by mode;
    ``sup|X|`` is the largest pointwise Euclidean length and ``sup|cdev W|``
    the largest tensor entry.
    """
    x, k, k2 = axes(dim, n_axis, length)
    shape = (n_axis,) * dim
    scale = 2.0 * np.pi / length

    def phase(kvec):
        return sum(scale * kj * xj for kj, xj in zip(kvec, x))

    single = np.zeros((dim,) + shape)
    single[0] = np.sin(phase(np.eye(dim, dtype=int)[0]))
    probes = [single]
    rng = np.random.default_rng(0)
    for _ in range(n_probes):
        comps = np.zeros((dim,) + shape)
        for j in range(dim):
            for _ in range(6):
                kvec = rng.integers(-2, 3, size=dim)
                if np.any(kvec):
                    p = phase(kvec)
                    comps[j] += rng.normal() * np.cos(p) + rng.normal() * np.sin(p)
        probes.append(comps)

    beta = 1.0 - 2.0 / dim
    inv_k2 = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0)
    ratios = []
    for comps in probes:
        xh = [np.fft.fftn(c) for c in comps]
        kx = sum(kj * xj for kj, xj in zip(k, xh))
        wh = [-(xj - beta / (1.0 + beta) * kj * kx * inv_k2) * inv_k2
              for kj, xj in zip(k, xh)]
        div_h = sum(1j * kj * wj for kj, wj in zip(k, wh))
        cdev_sup = max(
            np.abs(np.fft.ifftn(1j * k[i] * wh[j] + 1j * k[j] * wh[i]
                                - (i == j) * (2.0 / dim) * div_h).real).max()
            for i in range(dim) for j in range(i, dim))
        ratios.append(cdev_sup / np.sqrt(np.sum(comps**2, axis=0)).max())
    return ratios
