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
  below) annihilating pure Nyquist modes.

No other module touches a spectrum.  ``_rfft`` and ``_to_real`` are the one
transform seam (``np.fft.rfftn``/``irfftn``, real-to-complex: only the half
spectrum of the last axis is computed).  Kernels multiply half spectra by
symbols ``GridSpec`` builds once (``i k_j`` as sparse meshes, ``|k|^2``,
``1/|k|^2``) and by two masks that are different sets: ``_unpaired_half``,
the unpaired planes, which the Lame solve projects out of its data and the
eigen iteration measures in Ritz vectors; and ``_kernel_half``, the kernel
``|k|^2 == 0`` (the mean and the pure unpaired corners, 2^dim entries),
where ``1/|k|^2`` is 0 and which ``solve_scalar_linear`` without
lower-order terms refuses in a right side.  Derivative terms that add up
to one output are summed in Fourier space before a single inverse
transform, and symmetric tensors are transformed only on their upper
triangle.  The vector operator ``div(rho3 cdev W)`` thus costs
``2 dim + dim (dim + 1)`` transforms per apply: 18, 28 and 40 in dims 3,
4 and 5.

Solver loops work on arrays: ``_scalar_op_values`` is the one kernel of
``lap u + h u + <grad u, drift>`` (linear solve, eigen iteration and its
certificate), and ``_lap_grad_values`` gives an array's Laplacian and
gradient from one forward transform.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, NonConvergence, SingularOperator

_MEMORY_BUDGET = 2**32  # bytes one scalar field may take


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
    """

    def __init__(self, dim, n_axis, length=2.0 * np.pi):
        if dim not in (3, 4, 5):
            raise ConfigError(f"dim must be 3, 4, or 5, got {dim}")
        if n_axis < 8 or (n_axis & (n_axis - 1)) != 0:
            raise ConfigError(f"n_axis must be a power of two >= 8, got {n_axis}")
        if not (length > 0):
            raise ConfigError(f"length must be positive, got {length}")
        if 8 * n_axis**dim > _MEMORY_BUDGET:
            raise ConfigError(
                f"a {n_axis}^{dim} field needs {8 * n_axis**dim} bytes, "
                f"over the budget of {_MEMORY_BUDGET}")
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

        # Half-spectrum symbols: real-to-complex transforms keep the last
        # axis's non-negative frequencies 0..n/2, every other axis whole.
        half = self.n_axis // 2
        freq = (np.arange(self.n_axis) + half) % self.n_axis - half  # FFT order
        k = 2.0 * np.pi * (freq * (1.0 / (self.n_axis * step)))
        k[half] = 0.0  # unpaired mode carries no first derivative
        k_axes = [k] * (self.dim - 1) + [k[:half + 1]]
        kmesh = np.meshgrid(*k_axes, indexing="ij", sparse=True)
        planes = np.meshgrid(*[np.arange(len(ka)) == half for ka in k_axes],
                             indexing="ij", sparse=True)
        self._ik = [1j * kj for kj in kmesh]
        k2 = sum(kj**2 for kj in kmesh)
        kernel = k2 == 0
        inv_k2 = np.zeros_like(k2)
        np.divide(1.0, k2, out=inv_k2, where=~kernel)
        unpaired = functools.reduce(np.logical_or, planes)
        for arr in (*self._ik, k2, inv_k2, kernel, unpaired):
            arr.setflags(write=False)
        self._k2 = k2
        self._inv_k2 = inv_k2
        self._kernel_half = kernel
        self._unpaired_half = unpaired
        # interior last-axis entries stand for a conjugate pair of modes
        weight = np.full(half + 1, 2.0)
        weight[[0, half]] = 1.0
        weight.setflags(write=False)
        self._pair_weight = weight

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


def _frozen_array(values, shape, kind):
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
        self.values = _frozen_array(values, grid.shape, "ScalarField")


class VectorField:
    """Immutable vector field; component axis first, shape (dim, N, ..., N)."""

    def __init__(self, grid, values):
        self.grid = grid
        self.values = _frozen_array(values, (grid.dim,) + grid.shape,
                                    "VectorField")


class SymTensorField:
    """Immutable symmetric 2-tensor field, shape (dim, dim, N, ..., N)."""

    def __init__(self, grid, values):
        self.grid = grid
        arr = _frozen_array(values, (grid.dim, grid.dim) + grid.shape,
                            "SymTensorField")
        skew = np.abs(arr - arr.swapaxes(0, 1)).max()
        if skew > 1e-12 * (1.0 + np.abs(arr).max()):
            raise ValueError(f"tensor is not symmetric (max skew {skew:.3e})")
        self.values = arr


# ------------------------------------------------------------------ calculus


def _rfft(values):
    """Half spectrum of a real grid array: the forward side of the seam."""
    return np.fft.rfftn(values)


def _to_real(grid, hat):
    """Inverse of ``_rfft`` onto the grid."""
    return np.fft.irfftn(hat, s=grid.shape, axes=range(grid.dim))


def _lap_of_hat(grid, hat):
    return _to_real(grid, grid._k2 * hat)


def _grad_of_hat(grid, hat):
    out = np.empty((grid.dim,) + grid.shape)
    for j, ikj in enumerate(grid._ik):
        out[j] = _to_real(grid, ikj * hat)
    return out


def gradient(u):
    return VectorField(u.grid, _grad_of_hat(u.grid, _rfft(u.values)))


def _div_hat(grid, hats):
    """Half spectrum of ``sum_j d_j v_j`` from the half spectra of the v_j."""
    terms = zip(grid._ik, hats, strict=True)
    ik0, hat0 = next(terms)
    acc = ik0 * hat0
    for ikj, hat in terms:
        acc += ikj * hat
    return acc


def divergence(v):
    hats = map(_rfft, v.values)
    return ScalarField(v.grid, _to_real(v.grid, _div_hat(v.grid, hats)))


def _lap_values(grid, values):
    return _lap_of_hat(grid, _rfft(values))


def laplacian(u):
    """Positive Laplacian: Fourier symbol +|k|^2."""
    return ScalarField(u.grid, _lap_values(u.grid, u.values))


def _lap_grad_values(grid, values):
    """Laplacian and gradient of a grid array from one forward transform."""
    hat = _rfft(values)
    return _lap_of_hat(grid, hat), _grad_of_hat(grid, hat)


def _scalar_op_values(grid, h, drift, u):
    """``lap u + h u + <grad u, drift>`` on grid arrays from one forward
    transform; ``drift`` is None when there is no first-order term."""
    hat = _rfft(u)
    out = _lap_of_hat(grid, hat)
    out += h * u
    if drift is not None:
        for bj, ikj in zip(drift, grid._ik, strict=True):
            out += bj * _to_real(grid, ikj * hat)
    return out


def _cdev_values(grid, w_vals):
    """Entries of the trace-free symmetrized derivative; each of the
    dim*(dim+1)/2 unique entries is summed in Fourier space and inverted once."""
    hats = [_rfft(c) for c in w_vals]
    div = _div_hat(grid, hats)
    div *= 2.0 / grid.dim
    out = np.empty((grid.dim, grid.dim) + grid.shape)
    for i, iki in enumerate(grid._ik):
        for j in range(i, grid.dim):
            entry = iki * hats[j] + grid._ik[j] * hats[i]
            if i == j:
                entry -= div
            out[i, j] = _to_real(grid, entry)
            out[j, i] = out[i, j]
    return out


def conformal_killing(w):
    """Trace-free symmetrized derivative of a vector field.

    ``S_ij = d_i w_j + d_j w_i - (2/dim) div(w) delta_ij``.
    """
    return SymTensorField(w.grid, _cdev_values(w.grid, w.values))


def _tensor_div_values(grid, s_vals):
    """Row divergence of a symmetric tensor from its upper triangle alone."""
    hats = {}
    for i in range(grid.dim):
        for j in range(i, grid.dim):
            hats[i, j] = hats[j, i] = _rfft(s_vals[i, j])
    out = np.empty((grid.dim,) + grid.shape)
    for j in range(grid.dim):
        row = (hats[i, j] for i in range(grid.dim))
        out[j] = _to_real(grid, _div_hat(grid, row))
    return out


def tensor_divergence(s):
    """Row divergence of a symmetric tensor: out_j = sum_i d_i S_ij."""
    return VectorField(s.grid, _tensor_div_values(s.grid, s.values))


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
    hats = [_rfft(c) for c in x.values]
    # k_j (k . x) = -(i k_j)(i k . x): the rank-one term is the gradient of
    # the divergence
    coef = _div_hat(g, hats)
    coef *= (beta / (1.0 + beta)) * g._inv_k2 * g._inv_k2
    out = np.empty((g.dim,) + g.shape)
    for j, ikj in enumerate(g._ik):
        out[j] = _to_real(g, -(hats[j] * g._inv_k2 + ikj * coef))
    return VectorField(g, out)


def _project_solvable(grid, comps):
    """Zero the mean and the unpaired planes of each component.

    Returns the projected components and the sup norm of the largest removed
    unpaired-plane content, the mean left out.  The Lame solve projects its
    data once with this; its iterates need no projection, because
    :func:`lame_invert` already maps the operator kernel to zero.
    """
    out = np.empty_like(comps)
    removed = 0.0
    for j in range(grid.dim):
        hat = _rfft(comps[j])
        hat[(0,) * grid.dim] = 0.0
        cut = np.where(grid._unpaired_half, hat, 0.0)
        hat[grid._unpaired_half] = 0.0
        out[j] = _to_real(grid, hat)
        removed = max(removed, np.abs(_to_real(grid, cut)).max())
    return out, removed


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


def _unpaired_fraction(grid, vals):
    """L2 fraction of a field living on the unpaired planes."""
    power = grid._pair_weight * np.abs(_rfft(vals)) ** 2
    total = float(np.sqrt(power.sum()))
    if total == 0.0:
        return 0.0
    return float(np.sqrt(power[grid._unpaired_half].sum())) / total


def c2_surrogate(u):
    """Cheap stand-in for a C^2 norm: sup|u| + sup|grad u| + sup|Hess u|."""
    g = u.grid
    hat = _rfft(u.values)
    grad_sq = np.zeros(g.shape)
    hess_sup = 0.0
    for i, iki in enumerate(g._ik):
        grad_sq += _to_real(g, iki * hat) ** 2
        for ikj in g._ik[i:]:
            hess_sup = max(hess_sup, np.abs(_to_real(g, iki * ikj * hat)).max())
    return float(np.abs(u.values).max() + np.sqrt(grad_sq.max()) + hess_sup)


# --------------------------------------------------------------- linear solve


def _shifted_lap_inverse(grid, shift):
    """``(lap + shift)^-1`` on flat grid arrays, a diagonal division in
    Fourier space; the symbol is built once, here."""
    denom = grid._k2 + shift

    def apply(flat):
        return _to_real(grid, _rfft(flat.reshape(grid.shape)) / denom).ravel()
    return apply


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
        If ``h`` and ``drift`` both vanish and the right side has content
        in the kernel of the Laplacian (the mean or a pure unpaired-corner
        mode), or a constant ``h`` makes a Fourier denominator vanish.
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
        rhat = _rfft(rhs.values)
        if h0 == 0.0:
            defect = float(np.abs(rhat[grid._kernel_half]).max()) / rhs.values.size
            if defect > 1e-13 * scale:
                raise SingularOperator(
                    "operator has no zeroth-order term and the right side has "
                    f"kernel content (mean or unpaired corners) {defect:.3e}")
            return ScalarField(grid, _to_real(grid, rhat * grid._inv_k2))
        denom = grid._k2 + h0
        if np.abs(denom).min() < 1e-12 * (1.0 + abs(h0)):
            raise SingularOperator(
                f"constant coefficient {h0} resonates with a Fourier mode")
        return ScalarField(grid, _to_real(grid, rhat / denom))

    from scipy.sparse.linalg import LinearOperator, gmres

    n_total = rhs.values.size

    def apply_op(flat):
        return _scalar_op_values(grid, hv, bv, flat.reshape(grid.shape)).ravel()

    apply_pre = _shifted_lap_inverse(grid, max(float(np.mean(hv)), 1e-2))
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
