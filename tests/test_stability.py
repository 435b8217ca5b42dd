"""Linearization at a solution and principal-eigenvalue iteration."""

import numpy as np
import pytest

from driftsolve import stability
from driftsolve.errors import NonConvergence
from driftsolve.grid import (GridSpec, ScalarField, VectorField, _scalar_op_values, gradient,
                             l2_norm, laplacian)
from driftsolve.scalar import LichCoefficients
from driftsolve.stability import (
    LinearizedOperator,
    _start,
    _unpaired_fraction,
    coercivity_eigenvalue,
    linearize,
    smallest_eigenvalue,
)

import oracles
from util import (
    const_s,
    const_v,
    mesh,
    random_band_limited,
    random_vector,
    sin_s,
    zero_v,
)


def constant_coeffs(grid, a=0.5, f=0.5, h=1.0, b=0.0, c=0.0, d=0.0):
    return LichCoefficients(
        a=const_s(grid, a), b=const_s(grid, b), c=const_s(grid, c),
        d=const_s(grid, d), f=const_s(grid, f), h=const_s(grid, h),
        Y=zero_v(grid),
    )


def test_start_has_no_unpaired_content():
    g = GridSpec(dim=3, n_axis=16, length=1.0)
    assert _unpaired_fraction(g, _start(g).reshape(g.shape)) <= 1e-15


# ------------------------------------------------------------- linearization


def test_linearize_hand_value():
    g = GridSpec(dim=3, n_axis=16)
    op = linearize(const_s(g, 1.0), constant_coeffs(g))
    assert np.abs(op.zeroth.values - 2.0).max() <= 1e-13
    assert np.abs(op.first.values).max() == 0.0
    assert op.zeroth.values.min() + op.k_lin >= 0.0


def test_linearize_affine_shift_in_a():
    g = GridSpec(dim=3, n_axis=16)
    u = sin_s(g, amp=0.1, offset=1.2)
    q = g.q
    op1 = linearize(u, constant_coeffs(g, a=0.5))
    op2 = linearize(u, constant_coeffs(g, a=0.7))
    shift = (q + 1) * 0.2 * u.values ** (-q - 2)
    assert np.allclose(op2.zeroth.values - op1.zeroth.values, shift, atol=1e-12)


def test_linearize_first_term_vanishes_without_drift():
    g = GridSpec(dim=3, n_axis=16)
    u = sin_s(g, amp=0.1, offset=1.2)
    op = linearize(u, constant_coeffs(g, c=0.4, d=0.9))
    assert np.abs(op.first.values).max() == 0.0  # Y = 0 kills both pieces


def test_linearize_first_term_formula():
    g = GridSpec(dim=3, n_axis=16)
    u = sin_s(g, amp=0.1, offset=1.2)
    y = const_v(g, (0.3, 0.0, 0.0))
    coeffs = LichCoefficients(
        a=const_s(g, 0.5), b=const_s(g, 0.0), c=const_s(g, 0.4),
        d=const_s(g, 0.9), f=const_s(g, 0.5), h=const_s(g, 1.0), Y=y,
    )
    op = linearize(u, coeffs)
    q = g.q
    uv = u.values
    s = gradient(u).values[0] * 0.3
    weight = 2.0 * s * uv ** (-q - 3) + 0.4 * (0.9 * uv**-2 + uv ** (-q - 2))
    assert np.allclose(op.first.values[0], weight * 0.3, atol=1e-12)
    assert np.abs(op.first.values[1:]).max() == 0.0


# ---------------------------------------------------------------- eigenpairs


def test_smallest_eigenvalue_constant_operator():
    g = GridSpec(dim=3, n_axis=16)
    op = LinearizedOperator(zeroth=const_s(g, 1.0), first=zero_v(g), k_lin=1.0)
    lam, phi = smallest_eigenvalue(op)
    assert lam == pytest.approx(1.0, abs=1e-10)
    assert phi.values.std() <= 1e-9
    assert l2_norm(phi) == pytest.approx(1.0, rel=1e-10)
    assert phi.values.min() > 0


def test_smallest_eigenvalue_constant_drift_keeps_constant_mode():
    g = GridSpec(dim=3, n_axis=16)
    op = LinearizedOperator(zeroth=const_s(g, 1.0),
                            first=const_v(g, (0.7, -0.2, 0.1)), k_lin=1.0)
    lam, phi = smallest_eigenvalue(op)
    assert lam == pytest.approx(1.0, abs=1e-8)
    assert phi.values.min() * phi.values.max() > 0


def test_smallest_eigenvalue_certificate():
    g = GridSpec(dim=3, n_axis=8)
    op = LinearizedOperator(zeroth=sin_s(g, amp=0.3, offset=1.0),
                            first=zero_v(g), k_lin=2.0)
    lam, phi = smallest_eigenvalue(op)
    resid = laplacian(phi).values + op.zeroth.values * phi.values - lam * phi.values
    num = float(np.sqrt(np.mean(resid**2) * g.volume))
    assert num <= 1e-8 * l2_norm(phi)
    assert phi.values.min() * phi.values.max() > 0


def test_smallest_eigenvalue_matches_dense_oracle():
    g = GridSpec(dim=3, n_axis=8)
    zeroth = sin_s(g, amp=0.3, offset=1.0)
    op = LinearizedOperator(zeroth=zeroth, first=zero_v(g), k_lin=2.0)
    lam, _ = smallest_eigenvalue(op)
    dense = oracles.dense_scalar_operator(3, 8, zeroth.values)
    ref = oracles.min_real_eigenvalue(dense)
    assert lam == pytest.approx(ref, abs=1e-6)


def drift_oracle_operator():
    """8^3 drift operator whose coefficients do not depend on the last axis,
    so its ground state has an exactly degenerate twin of unpaired content:
    the same field times ``(-1)^i`` along that axis."""
    g = GridSpec(dim=3, n_axis=8)
    zeroth = sin_s(g, amp=0.3, offset=1.0)
    x = mesh(g)
    first = np.zeros((3,) + g.shape)
    first[0] = 0.2 * np.cos(x[1])
    op = LinearizedOperator(zeroth=zeroth, first=VectorField(g, first), k_lin=2.0)
    return op, oracles.dense_scalar_operator(3, 8, zeroth.values, first=first)


def test_smallest_eigenvalue_with_drift_matches_dense_oracle():
    op, dense = drift_oracle_operator()
    lam, phi = smallest_eigenvalue(op)
    ref, _ = oracles.dense_ground_pair(dense)
    assert lam == pytest.approx(ref, abs=1e-6)
    # the returned pair must be a genuine eigenpair of the dense route too
    flat = phi.values.ravel()
    gap = np.linalg.norm(dense @ flat - lam * flat) / np.linalg.norm(flat)
    assert gap <= 1e-6
    assert phi.values.min() * phi.values.max() > 0


# Along axis 2 the seed is the degenerate twin itself, whose share the
# iteration keeps: from about 1e-2 on, the Ritz filter or the sign test
# refuses the answer with a typed error instead.
@pytest.mark.parametrize("axis, eps", [(0, 0.0), (0, 1e-8), (0, 1e-4), (0, 1e-2),
                                       (0, 0.1), (2, 1e-8), (2, 1e-4)])
def test_smallest_eigenvalue_from_start_seeded_with_unpaired_content(monkeypatch,
                                                                     axis, eps):
    op, dense = drift_oracle_operator()
    g = op.zeroth.grid
    twin = (-1.0) ** np.indices(g.shape)[axis]
    unseeded = stability._start

    def seeded(grid):
        return unseeded(grid) + eps * twin.ravel()

    monkeypatch.setattr(stability, "_start", seeded)
    lam, phi = smallest_eigenvalue(op)
    ref, _ = oracles.dense_ground_pair(dense)
    assert lam == pytest.approx(ref, abs=1e-12)
    assert phi.values.min() * phi.values.max() > 0


def test_rayleigh_consistency_symmetric_case():
    g = GridSpec(dim=3, n_axis=8)
    zeroth = sin_s(g, amp=0.4, offset=0.8)
    op = LinearizedOperator(zeroth=zeroth, first=zero_v(g), k_lin=2.0)
    lam, phi = smallest_eigenvalue(op)
    gphi = gradient(phi).values
    num = np.mean(np.sum(gphi**2, axis=0)) + np.mean(zeroth.values * phi.values**2)
    den = np.mean(phi.values**2)
    assert lam == pytest.approx(float(num / den), abs=1e-8)


def band_limited_drift_operator(seed):
    g = GridSpec(dim=3, n_axis=16)
    rng = np.random.default_rng(seed)
    zeroth = 1.0 + random_band_limited(g, rng, amp=0.5).values
    first = random_vector(g, rng, amp=0.3).values
    return LinearizedOperator(zeroth=ScalarField(g, zeroth),
                              first=VectorField(g, first),
                              k_lin=max(0.0, -float(zeroth.min())) + 1.0)


def test_smallest_eigenvalue_band_limited_drift_certificate():
    op = band_limited_drift_operator(seed=7)
    g = op.zeroth.grid
    tol = 5e-9
    lam, phi = smallest_eigenvalue(op, tol=tol)
    action = (laplacian(phi).values + op.zeroth.values * phi.values
              + np.sum(gradient(phi).values * op.first.values, axis=0))
    cert = l2_norm(ScalarField(g, action - lam * phi.values)) / l2_norm(phi)
    assert cert <= tol
    assert phi.values.min() * phi.values.max() > 0


def test_smallest_eigenvalue_apply_count(monkeypatch):
    # the Ritz residual is combined from the stored images, so an iteration
    # applies the operator only to the vector it adds, and the converged
    # pair costs one fresh apply for its certificate (26 applies here)
    applies = []

    def counted(*args):
        applies.append(1)
        return _scalar_op_values(*args)

    monkeypatch.setattr(stability, "_scalar_op_values", counted)
    lam, _ = smallest_eigenvalue(band_limited_drift_operator(seed=7))
    assert np.isfinite(lam)
    assert len(applies) <= 30


def test_smallest_eigenvalue_nests_no_linear_solve(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("the eigen iteration must not solve linear systems")

    monkeypatch.setattr("driftsolve.grid.solve_scalar_linear", broken)
    monkeypatch.setattr("driftsolve.stability.solve_scalar_linear", broken,
                        raising=False)
    lam, _ = smallest_eigenvalue(band_limited_drift_operator(seed=3))
    assert np.isfinite(lam)


def test_smallest_eigenvalue_budget_counts_iterations():
    with pytest.raises(NonConvergence) as err:
        smallest_eigenvalue(band_limited_drift_operator(seed=5), max_iter=1)
    assert err.value.iterations == 1
    assert np.isfinite(err.value.residual)


# ---------------------------------------------------------------- coercivity


def test_coercivity_constant_values():
    g = GridSpec(dim=3, n_axis=16)
    assert coercivity_eigenvalue(const_s(g, 1.0)) == pytest.approx(1.0, abs=1e-10)
    assert coercivity_eigenvalue(const_s(g, -0.5)) == pytest.approx(-0.5, abs=1e-10)


def test_coercivity_matches_dense_oracle():
    g = GridSpec(dim=3, n_axis=8)
    h = sin_s(g, amp=0.4, offset=0.5)
    lam = coercivity_eigenvalue(h)
    dense = oracles.dense_scalar_operator(3, 8, h.values)
    ref = oracles.min_real_eigenvalue(dense)
    assert lam == pytest.approx(ref, abs=1e-8)
