"""Grid construction, spectral calculus, norms, and the linear scalar solve."""

import numpy as np
import pytest

from driftsolve.errors import ConfigError, NonConvergence, SingularOperator
from driftsolve.grid import (
    GridSpec,
    ScalarField,
    SymTensorField,
    VectorField,
    _scalar_op_values,
    c2_surrogate,
    conformal_killing,
    divergence,
    gradient,
    l2_norm,
    lame,
    lame_invert,
    laplacian,
    solve_scalar_linear,
    sup_norm,
    tensor_divergence,
)

from util import const_s, const_v, cos_s, mesh, sin_s, vec_with, zero_v


# ---------------------------------------------------------------- GridSpec


def test_gridspec_validation():
    GridSpec(dim=3, n_axis=8)
    GridSpec(dim=4, n_axis=16)
    GridSpec(dim=5, n_axis=8)
    with pytest.raises(ConfigError):
        GridSpec(dim=2, n_axis=16)
    with pytest.raises(ConfigError):
        GridSpec(dim=6, n_axis=16)
    with pytest.raises(ConfigError):
        GridSpec(dim=3, n_axis=12)  # not a power of two
    with pytest.raises(ConfigError):
        GridSpec(dim=3, n_axis=4)  # below minimum
    with pytest.raises(ConfigError):
        GridSpec(dim=3, n_axis=16, length=0.0)
    with pytest.raises(ConfigError):
        GridSpec(dim=3, n_axis=1024)  # 8 GiB, over the 4 GiB budget


def test_gridspec_critical_exponent():
    assert GridSpec(dim=3, n_axis=8).q == pytest.approx(6.0, abs=0)
    assert GridSpec(dim=4, n_axis=8).q == pytest.approx(4.0, abs=0)
    assert GridSpec(dim=5, n_axis=8).q == pytest.approx(10.0 / 3.0, rel=1e-15)


def test_gridspec_volume():
    g = GridSpec(dim=3, n_axis=16)
    assert g.volume == pytest.approx(248.05021344239853, rel=1e-15)


# ------------------------------------------------------------- field types


def test_fields_immutable_and_finite():
    g = GridSpec(dim=3, n_axis=8)
    u = const_s(g, 1.0)
    with pytest.raises(ValueError):
        u.values[0, 0, 0] = 2.0
    bad = np.zeros(g.shape)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        ScalarField(g, bad)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((4, 4, 4)))
    with pytest.raises(ValueError):
        VectorField(g, np.zeros(g.shape))


def test_symtensor_requires_symmetry():
    g = GridSpec(dim=3, n_axis=8)
    vals = np.zeros((3, 3) + g.shape)
    vals[0, 1] = 1.0
    with pytest.raises(ValueError):
        SymTensorField(g, vals)
    vals[1, 0] = 1.0
    SymTensorField(g, vals)


# ---------------------------------------------------------------- calculus


def test_laplacian_positive_convention():
    g = GridSpec(dim=3, n_axis=16)
    u = sin_s(g)
    assert np.allclose(laplacian(u).values, u.values, atol=1e-13)
    u2 = sin_s(g, mode=2)
    assert np.allclose(laplacian(u2).values, 4.0 * u2.values, atol=1e-12)


def test_gradient_and_divergence():
    g = GridSpec(dim=3, n_axis=16)
    gu = gradient(sin_s(g, axis=0))
    assert np.allclose(gu.values[0], cos_s(g, axis=0).values, atol=1e-13)
    assert np.allclose(gu.values[1], 0.0, atol=1e-13)
    v = vec_with(g, 0, sin_s(g, axis=0))
    assert np.allclose(divergence(v).values, cos_s(g, axis=0).values, atol=1e-13)


def test_div_grad_is_minus_laplacian_exactly():
    g = GridSpec(dim=3, n_axis=16)
    rng = np.random.default_rng(11)
    u = ScalarField(g, rng.normal(size=g.shape))  # full spectrum incl. unpaired mode
    lhs = divergence(gradient(u)).values
    rhs = -laplacian(u).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_integration_by_parts():
    g = GridSpec(dim=3, n_axis=16)
    rng = np.random.default_rng(7)
    u = ScalarField(g, rng.normal(size=g.shape))
    v = ScalarField(g, rng.normal(size=g.shape))
    lhs = float(np.mean(u.values * laplacian(v).values))
    gu, gv = gradient(u).values, gradient(v).values
    rhs = float(np.mean(np.sum(gu * gv, axis=0)))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_unpaired_mode_is_derivative_free():
    g = GridSpec(dim=3, n_axis=16)
    u = cos_s(g, axis=0, mode=g.n_axis // 2)
    assert sup_norm(gradient(u)) <= 1e-14
    assert sup_norm(laplacian(u)) <= 1e-12


def test_phase_and_nyquist_mask():
    g = GridSpec(dim=4, n_axis=8, length=1.0)
    x = mesh(g)
    expected = 2.0 * np.pi * (x[0] - 2.0 * x[2] + 3.0 * x[3])
    assert np.allclose(g.phase([1, 0, -2, 3]), expected, atol=1e-13)
    # half spectrum: the last axis keeps indices 0..n/2
    idx = np.indices((8, 8, 8, 5))
    # an unpaired plane has index n/2 on some axis; the kernel |k|^2 == 0
    # is the mean and the pure unpaired corners
    assert np.array_equal(g._unpaired_half, np.any(idx == 4, axis=0))
    kernel = np.all((idx == 0) | (idx == 4), axis=0)
    assert np.array_equal(g._kernel_half, kernel) and kernel.sum() == 2**4
    assert np.array_equal(g._inv_k2 == 0, kernel)
    assert not g._unpaired_half.flags.writeable
    assert not g._kernel_half.flags.writeable


def test_conformal_killing_trace_and_values():
    g = GridSpec(dim=3, n_axis=16)
    w = vec_with(g, 0, sin_s(g, axis=0))
    s = conformal_killing(w)
    trace = s.values[0, 0] + s.values[1, 1] + s.values[2, 2]
    assert np.abs(trace).max() <= 1e-13
    # entries: L_11 = (2 - 2/3) cos x1, L_22 = L_33 = -(2/3) cos x1
    c = cos_s(g, axis=0).values
    assert np.allclose(s.values[0, 0], (4.0 / 3.0) * c, atol=1e-13)
    assert np.allclose(s.values[1, 1], -(2.0 / 3.0) * c, atol=1e-13)
    assert np.allclose(s.values[0, 1], 0.0, atol=1e-13)


def test_lame_kernel_is_constants():
    g = GridSpec(dim=3, n_axis=16)
    w = const_v(g, (1.0, -2.0, 0.5))
    assert sup_norm(lame(w)) == 0.0
    # invertibility off the kernel: single-mode round trip
    x = vec_with(g, 0, sin_s(g, axis=0))
    w1 = lame_invert(x)
    assert sup_norm(VectorField(g, lame(w1).values - x.values)) <= 1e-12
    assert np.abs(w1.values.mean(axis=(1, 2, 3))).max() <= 1e-15


def test_lame_single_mode_closed_form():
    # lame block at k=(1,0,0): diag(-(1+beta), -1, -1) with beta = 1 - 2/n
    g = GridSpec(dim=3, n_axis=16)
    x = vec_with(g, 0, sin_s(g, axis=0))
    w = lame_invert(x)
    expected = -(3.0 / 4.0) * sin_s(g, axis=0).values
    assert np.abs(w.values[0] - expected).max() <= 1e-13
    assert np.abs(w.values[1:]).max() <= 1e-14


def test_tensor_divergence_consistency():
    g = GridSpec(dim=3, n_axis=16)
    w = vec_with(g, 0, sin_s(g, axis=1))
    assert np.allclose(
        tensor_divergence(conformal_killing(w)).values, lame(w).values, atol=1e-13
    )


# ------------------------------------------------------------------- norms


def test_norms():
    g = GridSpec(dim=3, n_axis=16)
    u = sin_s(g)
    assert l2_norm(u) == pytest.approx(11.136655993663416, rel=1e-12)
    assert sup_norm(u) == pytest.approx(1.0, rel=1e-12)
    v = const_v(g, (3.0, 4.0, 0.0))
    assert sup_norm(v) == pytest.approx(5.0, rel=1e-12)  # pointwise Euclidean
    s = conformal_killing(vec_with(g, 0, ScalarField(g, -(3.0 / 4.0) * sin_s(g).values)))
    assert sup_norm(s) == pytest.approx(1.0, rel=1e-10)  # largest entry


def test_c2_surrogate():
    g = GridSpec(dim=3, n_axis=16)
    u = sin_s(g)
    # sup=1, grad sup=1, hessian max-entry=1
    assert c2_surrogate(u) == pytest.approx(3.0, rel=1e-10)
    assert c2_surrogate(const_s(g, 2.0)) == pytest.approx(2.0, rel=1e-12)


# ------------------------------------------------------- linear scalar solve


def test_linear_solve_constant_coefficient_fast_path():
    g = GridSpec(dim=3, n_axis=16)
    rhs = ScalarField(g, 3.0 * sin_s(g).values)
    u = solve_scalar_linear(g, const_s(g, 2.0), None, rhs)
    assert np.abs(u.values - sin_s(g).values).max() <= 1e-12


def test_linear_solve_variable_coefficient():
    g = GridSpec(dim=3, n_axis=16)
    h = ScalarField(g, 2.0 + sin_s(g, axis=0).values)
    u_star = cos_s(g, axis=1, amp=0.3, offset=1.0)
    rhs = ScalarField(g, laplacian(u_star).values + h.values * u_star.values)
    u = solve_scalar_linear(g, h, None, rhs)
    assert np.abs(u.values - u_star.values).max() <= 1e-9
    resid = laplacian(u).values + h.values * u.values - rhs.values
    assert np.abs(resid).max() <= 1e-12 * max(1.0, np.abs(rhs.values).max())


def test_linear_solve_with_drift():
    g = GridSpec(dim=3, n_axis=16)
    h = const_s(g, 1.5)
    b = vec_with(g, 0, sin_s(g, axis=1))
    u_star = cos_s(g, axis=1, amp=0.3, offset=1.0)
    gu = gradient(u_star).values
    adv = sum(gu[j] * b.values[j] for j in range(3))
    rhs = ScalarField(g, laplacian(u_star).values + h.values * u_star.values + adv)
    u = solve_scalar_linear(g, h, b, rhs)
    assert np.abs(u.values - u_star.values).max() <= 1e-9


def drift_problem():
    """16^3 operator with variable ``h`` and drift, and a right side."""
    g = GridSpec(dim=3, n_axis=16)
    h = sin_s(g, axis=0, amp=0.5, offset=2.0)
    drift = VectorField(g, np.stack([0.3 * cos_s(g, axis=1).values,
                                     np.full(g.shape, 0.2), np.zeros(g.shape)]))
    return g, h, drift, cos_s(g, axis=2)


def nearly_singular_problem():
    """8^3 operator whose h = -1 + 1e-6 sin x1 nearly cancels the |k| = 1
    modes, and a right side with content on them."""
    g = GridSpec(dim=3, n_axis=8)
    h = ScalarField(g, -1.0 + 1e-6 * sin_s(g).values)
    rhs = ScalarField(g, cos_s(g, axis=1).values + sin_s(g, axis=2, amp=0.3, mode=2).values)
    return g, h, None, rhs


def test_linear_solve_stops_at_the_requested_tol(op_applies):
    # GMRES aims at the requested tol: a loose tol meets its residual test
    # in fewer operator applies than a tight one
    g, h, drift, rhs = drift_problem()
    work = {}
    for tol in (1e-6, 1e-12):
        op_applies[0] = 0
        u = solve_scalar_linear(g, h, drift, rhs, tol=tol)
        work[tol] = op_applies[0]
        resid = _scalar_op_values(g, h.values, drift.values, u.values) - rhs.values
        assert np.abs(resid).max() <= tol * max(1.0, np.abs(rhs.values).max())
    assert work[1e-6] < work[1e-12]


def test_linear_solve_singular_operator():
    g = GridSpec(dim=3, n_axis=16)
    with pytest.raises(SingularOperator):
        solve_scalar_linear(g, const_s(g, 0.0), None, const_s(g, 1.0))
    # zero-mean right side is solvable: lap(sin x1) = sin x1
    u = solve_scalar_linear(g, const_s(g, 0.0), None, sin_s(g))
    assert np.abs(u.values - sin_s(g).values).max() <= 1e-12


def test_linear_solve_gives_up_on_nearly_singular_operator(monkeypatch):
    # no iterate gets within the tolerance, and the solve must say so after
    # bounded work
    n_fft = [0]
    rfftn = np.fft.rfftn

    def counting_rfftn(*args, **kwargs):
        n_fft[0] += 1
        return rfftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", counting_rfftn)
    with pytest.raises(NonConvergence):
        solve_scalar_linear(*nearly_singular_problem())
    # at most 40 restart cycles; a cycle of 60 steps costs two transforms a
    # step plus a few (the unbounded solve took ~195000)
    assert 0 < n_fft[0] <= 4 * 10 * (2 * 60 + 3)


def test_linear_solve_makes_one_gmres_call(monkeypatch):
    # the solve is one right-preconditioned GMRES call, whether it meets a
    # loose or a tight tol or gives up on a nearly singular operator
    import scipy.sparse.linalg

    calls = [0]
    gmres = scipy.sparse.linalg.gmres

    def counting_gmres(*args, **kwargs):
        calls[0] += 1
        return gmres(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "gmres", counting_gmres)
    for tol in (1e-6, 1e-12):
        calls[0] = 0
        solve_scalar_linear(*drift_problem(), tol=tol)
        assert calls[0] == 1
    calls[0] = 0
    with pytest.raises(NonConvergence):
        solve_scalar_linear(*nearly_singular_problem())
    assert calls[0] == 1


def test_linear_solve_refuses_unpaired_corner_content():
    # cos(4 x1) is the pure unpaired corner of axis 0 on 8 points: the
    # Laplacian annihilates it, so lap u = rhs has no solution
    g = GridSpec(dim=3, n_axis=8)
    rhs = ScalarField(g, cos_s(g, mode=4).values + sin_s(g, axis=1).values)
    with pytest.raises(SingularOperator, match="kernel content"):
        solve_scalar_linear(g, const_s(g, 0.0), None, rhs)


def test_linear_solve_zero_mean_convention():
    g = GridSpec(dim=3, n_axis=16)
    u = solve_scalar_linear(g, const_s(g, 0.0), None, sin_s(g, mode=2))
    assert abs(float(np.mean(u.values))) <= 1e-14
    resid = laplacian(u).values - sin_s(g, mode=2).values
    assert np.abs(resid).max() <= 1e-12
