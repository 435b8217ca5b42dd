"""Periodic grid, field containers, spectral calculus, and the linear solve.

Everything lives on a flat torus [0, L)^n sampled on a uniform N^n lattice
with n in {3, 4, 5}.  Derivatives are spectral (FFT multipliers).  Two
conventions matter everywhere downstream:

* the Laplacian is the *positive* operator, i.e. its Fourier symbol is
  +|k|^2, so ``laplacian(sin x1) == sin x1``;
* on an even grid the unpaired highest mode (the Nyquist plane of each
  axis) has no representable first derivative, so every first-derivative
  multiplier zeroes that entry, and |k|^2 is assembled from the *same*
  zeroed wavenumbers.  This makes div(grad u) == -laplacian(u) and the
  discrete integration-by-parts identity exact on the full space of real
  grid functions, at the price of the Laplacian (and the vector operator
  below) annihilating pure Nyquist modes.  Solvers treat those modes as
  part of the operator kernel and project them out of right-hand sides.

``GridSpec`` owns both: ``GridSpec.phase`` turns an integer wavevector into
the phase of its mode and ``GridSpec.nyquist`` marks the unpaired planes.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NonConvergence, SingularOperator

_DEFAULT_MEMORY_BUDGET = 2**32


class GridSpec:
    """Uniform periodic grid on [0, length)^dim.

    Parameters
    ----------
    dim : int
        Spatial dimension, one of 3, 4, 5.
    n_axis : int
        Points per axis; a power of two, at least 8.
    length : float, optional
        Period of every axis.  Defaults to 2*pi.
    memory_budget : int, optional
        Upper bound in bytes for a single scalar field; guards against
        accidentally huge allocations.
    """

    def __init__(self, dim, n_axis, length=2.0 * np.pi,
                 memory_budget=_DEFAULT_MEMORY_BUDGET):
        if dim not in (3, 4, 5):
            raise ConfigError(f"dim must be 3, 4, or 5, got {dim}")
        if n_axis < 8 or (n_axis & (n_axis - 1)) != 0:
            raise ConfigError(f"n_axis must be a power of two >= 8, got {n_axis}")
        if not (length > 0):
            raise ConfigError(f"length must be positive, got {length}")
        if 8 * n_axis**dim > memory_budget:
            raise ConfigError(
                f"a {n_axis}^{dim} field needs {8 * n_axis**dim} bytes, "
                f"over the budget of {memory_budget}")
        self.dim = int(dim)
        self.n_axis = int(n_axis)
        self.length = float(length)
        self.shape = (self.n_axis,) * self.dim
        self.q = 2.0 * self.dim / (self.dim - 2.0)
        self.volume = self.length**self.dim

        step = self.length / self.n_axis
        axis = np.arange(self.n_axis) * step
        axis.setflags(write=False)
        self.x_axes = [axis] * self.dim
        self._x_mesh = np.meshgrid(*self.x_axes, indexing="ij", sparse=True)

        half = self.n_axis // 2
        k = 2.0 * np.pi * np.fft.fftfreq(self.n_axis, d=step)
        k[half] = 0.0  # unpaired mode carries no first derivative
        k.setflags(write=False)
        self.k_axes = [k] * self.dim

        kmesh = np.meshgrid(*self.k_axes, indexing="ij", sparse=True)
        unpaired = np.meshgrid(*[np.arange(self.n_axis) == half] * self.dim,
                               indexing="ij", sparse=True)
        k2 = np.zeros(self.shape)
        nyquist = np.zeros(self.shape, dtype=bool)
        for kj, uj in zip(kmesh, unpaired):
            k2 = k2 + kj**2
            nyquist = nyquist | uj
        k2.setflags(write=False)
        nyquist.setflags(write=False)
        self.k_squared = k2
        # Fourier-index mask of the unpaired highest-mode planes of all axes
        self.nyquist = nyquist
        self._k_mesh = kmesh

    def phase(self, kvec):
        """Phase ``sum_j (2 pi / length) k_j x_j`` of the integer wavevector
        ``kvec`` on the grid points, summed over the axes in index order.

        Every mode this returns is periodic on the grid, whatever its length.
        """
        scale = 2.0 * np.pi / self.length
        return sum(scale * int(k) * xj
                   for k, xj in zip(kvec, self._x_mesh, strict=True))

    def __eq__(self, other):
        return (isinstance(other, GridSpec)
                and (self.dim, self.n_axis, self.length)
                == (other.dim, other.n_axis, other.length))

    def __hash__(self):
        return hash((self.dim, self.n_axis, self.length))

    def __repr__(self):
        return f"GridSpec(dim={self.dim}, n_axis={self.n_axis}, length={self.length!r})"


def _frozen_array(grid, values, shape, kind):
    arr = np.array(values, dtype=np.float64, order="C", copy=True)
    if arr.shape != shape:
        raise ValueError(f"{kind} expects shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{kind} contains non-finite entries")
    arr.setflags(write=False)
    return arr


class ScalarField:
    """Immutable real scalar field sampled on a grid."""

    def __init__(self, grid, values):
        self.grid = grid
        self.values = _frozen_array(grid, values, grid.shape, "ScalarField")


class VectorField:
    """Immutable vector field; component axis first, shape (dim, N, ..., N)."""

    def __init__(self, grid, values):
        self.grid = grid
        self.values = _frozen_array(grid, values, (grid.dim,) + grid.shape,
                                    "VectorField")


class SymTensorField:
    """Immutable symmetric 2-tensor field, shape (dim, dim, N, ..., N)."""

    def __init__(self, grid, values):
        self.grid = grid
        arr = _frozen_array(grid, values, (grid.dim, grid.dim) + grid.shape,
                            "SymTensorField")
        skew = np.abs(arr - arr.swapaxes(0, 1)).max()
        if skew > 1e-12 * (1.0 + np.abs(arr).max()):
            raise ValueError(f"tensor is not symmetric (max skew {skew:.3e})")
        self.values = arr


# ------------------------------------------------------------------ calculus


def _grad_values(grid, values):
    hat = np.fft.fftn(values)
    out = np.empty((grid.dim,) + grid.shape)
    for j, kj in enumerate(grid._k_mesh):
        out[j] = np.fft.ifftn(1j * kj * hat).real
    return out


def gradient(u):
    return VectorField(u.grid, _grad_values(u.grid, u.values))


def _div_values(grid, comps):
    out = np.zeros(grid.shape)
    for j, kj in enumerate(grid._k_mesh):
        out = out + np.fft.ifftn(1j * kj * np.fft.fftn(comps[j])).real
    return out


def divergence(v):
    return ScalarField(v.grid, _div_values(v.grid, v.values))


def _lap_values(grid, values):
    return np.fft.ifftn(grid.k_squared * np.fft.fftn(values)).real


def laplacian(u):
    """Positive Laplacian: Fourier symbol +|k|^2."""
    return ScalarField(u.grid, _lap_values(u.grid, u.values))


def conformal_killing(w):
    """Trace-free symmetrized derivative of a vector field.

    ``S_ij = d_i w_j + d_j w_i - (2/dim) div(w) delta_ij``.
    """
    g = w.grid
    partial = np.empty((g.dim, g.dim) + g.shape)
    for j in range(g.dim):
        partial[:, j] = _grad_values(g, w.values[j])  # partial[i, j] = d_i w_j
    div = np.trace(partial, axis1=0, axis2=1)
    s = partial + partial.swapaxes(0, 1)
    for i in range(g.dim):
        s[i, i] -= (2.0 / g.dim) * div
    return SymTensorField(g, s)


def tensor_divergence(s):
    """Row divergence of a symmetric tensor: out_j = sum_i d_i S_ij."""
    g = s.grid
    out = np.empty((g.dim,) + g.shape)
    for j in range(g.dim):
        out[j] = _div_values(g, s.values[:, j])
    return VectorField(g, out)


def lame(w):
    """Divergence of the trace-free symmetrized derivative."""
    return tensor_divergence(conformal_killing(w))


def lame_invert(x):
    """Invert :func:`lame` on the mean-free, Nyquist-free subspace.

    The Fourier blocks are ``-(|k|^2 I + beta k k^T)`` with
    ``beta = 1 - 2/dim``; inversion uses the rank-one update formula.
    Content in the operator kernel (the zero mode and, by the derivative
    convention, pure Nyquist modes) is mapped to zero.
    """
    g = x.grid
    beta = 1.0 - 2.0 / g.dim
    hat = np.array([np.fft.fftn(c) for c in x.values])
    k2 = g.k_squared
    inv = np.zeros(g.shape)
    np.divide(1.0, k2, out=inv, where=k2 > 0)
    kdot = np.zeros(g.shape, dtype=complex)
    for j, kj in enumerate(g._k_mesh):
        kdot = kdot + kj * hat[j]
    coef = (beta / (1.0 + beta)) * kdot * inv * inv
    out = np.empty((g.dim,) + g.shape)
    for j, kj in enumerate(g._k_mesh):
        out[j] = np.fft.ifftn(-hat[j] * inv + kj * coef).real
    return VectorField(g, out)


# --------------------------------------------------------------------- norms


def mean(u):
    return float(np.mean(u.values))


def sup_norm(field):
    """Pointwise magnitude, maximized over the grid.

    Scalars: |u|; vectors: Euclidean length; tensors: largest entry.
    """
    v = field.values
    if isinstance(field, ScalarField):
        return float(np.abs(v).max())
    if isinstance(field, VectorField):
        return float(np.sqrt(np.sum(v**2, axis=0)).max())
    return float(np.abs(v).max())


def l2_norm(field):
    v = field.values
    if not isinstance(field, ScalarField):
        v = np.sqrt(np.sum(v**2, axis=tuple(range(v.ndim - field.grid.dim))))
    return float(np.sqrt(np.mean(v**2) * field.grid.volume))


def c2_surrogate(u):
    """Cheap stand-in for a C^2 norm: sup|u| + sup|grad u| + sup|Hess u|."""
    g = u.grid
    gv = _grad_values(g, u.values)
    hess_sup = 0.0
    for j in range(g.dim):
        hess_sup = max(hess_sup, np.abs(_grad_values(g, gv[j])).max())
    return float(np.abs(u.values).max()
                 + np.sqrt(np.sum(gv**2, axis=0)).max()
                 + hess_sup)


# --------------------------------------------------------------- linear solve


def solve_scalar_linear(grid, h, drift, rhs, tol=1e-12):
    """Solve ``laplacian(u) + h u + <grad u, drift> = rhs``.

    Parameters
    ----------
    grid : GridSpec
    h : ScalarField
        Zeroth-order coefficient.
    drift : VectorField or None
        First-order coefficient; ``None`` means no drift term.
    rhs : ScalarField
    tol : float, optional
        Relative residual target.

    Returns
    -------
    ScalarField

    Raises
    ------
    SingularOperator
        If ``h`` and ``drift`` both vanish and the right side has a mean
        component, or a constant ``h`` makes a Fourier denominator vanish.
    NonConvergence
        If the iterative path stalls above the residual target.

    Notes
    -----
    Constant ``h`` without drift is a diagonal division in Fourier space.
    Otherwise GMRES runs with that diagonal solve (at the mean of ``h``)
    as preconditioner, followed by defect-correction polish down to
    ``tol`` times the right-hand-side magnitude.  Each of the four rounds
    gets at most ten restart cycles: GMRES aims below ``tol``, and on a
    nearly singular operator its own target lies under the roundoff floor,
    where further cycles gain nothing.
    """
    hv = h.values
    bv = None if drift is None else drift.values
    if bv is not None and not np.any(bv):
        bv = None
    scale = max(1.0, float(np.abs(rhs.values).max()))
    h_const = hv.max() == hv.min()

    if h_const and bv is None:
        h0 = float(hv.flat[0])
        rhat = np.fft.fftn(rhs.values)
        if h0 == 0.0:
            mean_defect = abs(rhat.flat[0]) / rhs.values.size
            if mean_defect > 1e-13 * scale:
                raise SingularOperator(
                    "operator has no zeroth-order term and the right side "
                    f"has mean {mean_defect:.3e}")
            inv = np.zeros(grid.shape)
            np.divide(1.0, grid.k_squared, out=inv, where=grid.k_squared > 0)
            return ScalarField(grid, np.fft.ifftn(rhat * inv).real)
        denom = grid.k_squared + h0
        if np.abs(denom).min() < 1e-12 * (1.0 + abs(h0)):
            raise SingularOperator(
                f"constant coefficient {h0} resonates with a Fourier mode")
        return ScalarField(grid, np.fft.ifftn(rhat / denom).real)

    from scipy.sparse.linalg import LinearOperator, gmres

    n_total = rhs.values.size
    kmesh = grid._k_mesh

    def apply_op(flat):
        u = flat.reshape(grid.shape)
        hat = np.fft.fftn(u)
        out = np.fft.ifftn(grid.k_squared * hat).real + hv * u
        if bv is not None:
            for j, kj in enumerate(kmesh):
                out += bv[j] * np.fft.ifftn(1j * kj * hat).real
        return out.ravel()

    shift = max(float(np.mean(hv)), 1e-2)
    pre_denom = grid.k_squared + shift

    def apply_pre(flat):
        r = flat.reshape(grid.shape)
        return np.fft.ifftn(np.fft.fftn(r) / pre_denom).real.ravel()

    a_op = LinearOperator((n_total, n_total), matvec=apply_op, dtype=np.float64)
    m_op = LinearOperator((n_total, n_total), matvec=apply_pre, dtype=np.float64)

    b = rhs.values.ravel()
    u = np.zeros(n_total)
    r = b.copy()
    for _ in range(4):
        du, _ = gmres(a_op, r, M=m_op, rtol=1e-13, atol=0.0,
                      restart=60, maxiter=10)
        u = u + du
        r = b - apply_op(u)
        if np.abs(r).max() <= tol * scale:
            return ScalarField(grid, u.reshape(grid.shape))
    raise NonConvergence("linear scalar solve stalled",
                         iterations=4, residual=float(np.abs(r).max()))
