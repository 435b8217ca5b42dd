"""Vector (Lame-type) solver, operator-constant estimate, drift right side."""

import numpy as np
import pytest

import driftsolve.grid as grid_mod
from driftsolve.errors import ContractionViolated, NonPositiveField
from driftsolve.grid import (
    GridSpec,
    ScalarField,
    VectorField,
    conformal_killing,
    divergence,
    gradient,
    sup_norm,
)
from driftsolve.momentum import (
    MomentumProblem,
    estimate_C1,
    momentum_rhs,
    q_correction,
    solve_lame,
)
from driftsolve.verify import manufacture_momentum

import oracles
from util import (
    const_s,
    cos_s,
    mesh,
    random_band_limited,
    random_vector,
    sin_s,
    vec_with,
    zero_v,
)


# ------------------------------------------------------------- operator norm


def test_estimate_c1_floor_and_determinism():
    g = GridSpec(dim=3, n_axis=16)
    c1 = estimate_C1(g)
    # the single-mode probe realizes ratio exactly 1
    assert c1 >= 1.0 - 1e-12
    assert c1 < 1.5
    assert estimate_C1(g) == c1
    with pytest.raises(TypeError):
        estimate_C1(g, seed=0)


def test_estimate_c1_scale_invariance_of_probes():
    # the closed form is the ratio this lowest-mode probe realizes
    g = GridSpec(dim=3, n_axis=16)
    from driftsolve.grid import lame_invert

    x = vec_with(g, 0, sin_s(g, axis=0))
    w = lame_invert(x)
    ratio = sup_norm(conformal_killing(w)) / sup_norm(x)
    assert ratio == pytest.approx(1.0, abs=1e-12)
    assert estimate_C1(g) >= ratio - 1e-12


def test_estimate_c1_floor_scales_with_length():
    # the single-mode probe sin(2 pi x / L) realizes the ratio L / (2 pi)
    g = GridSpec(dim=3, n_axis=16, length=1.0)
    assert estimate_C1(g) >= 1.0 / (2.0 * np.pi) - 1e-12


@pytest.mark.parametrize("dim, n_axis, length", [
    (3, 8, 2.0 * np.pi), (3, 16, 1.0), (4, 8, 2.0 * np.pi), (5, 8, 2.0 * np.pi)])
def test_estimate_c1_dominates_reference_probe_search(dim, n_axis, length):
    g = GridSpec(dim=dim, n_axis=n_axis, length=length)
    c1 = estimate_C1(g)
    assert c1 == g.length / (2.0 * np.pi)
    ratios = oracles.lame_probe_ratios(dim, n_axis, length, 8)
    # the lowest mode attains c1 up to roundoff; the random probes stay below
    assert ratios[0] == pytest.approx(c1, rel=1e-14)
    assert all(r <= c1 * (1.0 + 1e-14) for r in ratios)


# ----------------------------------------------------------------- the solve


def test_solve_lame_unit_coefficient_closed_form():
    g = GridSpec(dim=3, n_axis=32)
    prob = MomentumProblem(const_s(g, 1.0), vec_with(g, 0, sin_s(g, axis=0)))
    w, kernel = solve_lame(prob)
    expected = -(3.0 / 4.0) * sin_s(g, axis=0).values
    assert np.abs(w.values[0] - expected).max() <= 1e-12
    assert np.abs(w.values[1:]).max() <= 1e-12
    assert np.abs(kernel.defect).max() <= 1e-15
    assert kernel.residual <= 1e-10


def test_solve_lame_zero_rhs():
    g = GridSpec(dim=3, n_axis=16)
    w, kernel = solve_lame(MomentumProblem(const_s(g, 1.0), zero_v(g)))
    assert sup_norm(w) == 0.0
    assert np.abs(kernel.defect).max() == 0.0


def test_solve_lame_homogeneity_in_constant_rho3():
    g = GridSpec(dim=3, n_axis=16)
    x = vec_with(g, 0, sin_s(g, axis=0))
    w1, _ = solve_lame(MomentumProblem(const_s(g, 1.0), x))
    w2, _ = solve_lame(MomentumProblem(const_s(g, 2.0), x))
    assert np.abs(w2.values - 0.5 * w1.values).max() <= 1e-12


def test_solve_lame_projects_kernel_component():
    g = GridSpec(dim=3, n_axis=16)
    x = vec_with(g, 0, sin_s(g, axis=0))
    shifted = VectorField(g, x.values + np.array([0.3, -0.1, 0.0])[:, None, None, None])
    w1, k1 = solve_lame(MomentumProblem(const_s(g, 1.0), x))
    w2, k2 = solve_lame(MomentumProblem(const_s(g, 1.0), shifted))
    assert np.abs(w1.values - w2.values).max() <= 1e-13
    assert k2.defect == pytest.approx([0.3, -0.1, 0.0], abs=1e-14)
    assert np.abs(k1.defect).max() <= 1e-15


def test_solve_lame_mean_is_not_unresolved():
    g = GridSpec(dim=3, n_axis=16)
    x = vec_with(g, 0, sin_s(g, axis=0, offset=0.5))
    _, kernel = solve_lame(MomentumProblem(const_s(g, 1.0), x))
    assert kernel.unresolved <= 1e-15  # roundoff; the mean (0.5) is not counted
    assert kernel.projected is True
    assert kernel.defect == pytest.approx([0.5, 0.0, 0.0], abs=1e-14)


def test_solve_lame_variable_coefficient_contract():
    g = GridSpec(dim=3, n_axis=32)
    rho3 = sin_s(g, axis=1, amp=0.1, offset=1.0)
    x = vec_with(g, 0, sin_s(g, axis=0))
    w, kernel = solve_lame(MomentumProblem(rho3, x))
    # independent residual recomputation against the projected right side
    xp = x.values - x.values.mean(axis=(1, 2, 3), keepdims=True)
    flux = rho3.values * conformal_killing(w).values
    div_flux = np.empty_like(xp)
    for j in range(3):
        div_flux[j] = divergence(VectorField(g, flux[:, j])).values
    resid = np.abs(div_flux - xp).max()
    scale = max(1.0, sup_norm(x))
    assert resid <= 1e-10 * scale + kernel.unresolved
    assert kernel.residual <= 1e-10 * scale
    assert kernel.iterations <= 12
    # contraction property from the problem data and the operator constant
    c1 = estimate_C1(g)
    bound = 0.1 * c1 / 0.9 + 0.05
    assert all(r <= bound for r in kernel.ratios[1:])


def test_solve_lame_contraction_guard():
    g = GridSpec(dim=3, n_axis=16)
    rho3 = sin_s(g, axis=1, amp=0.8, offset=1.0)
    x = vec_with(g, 0, sin_s(g, axis=0))
    with pytest.raises(ContractionViolated):
        solve_lame(MomentumProblem(rho3, x))


def band_limited_lame(dim, n_axis, seed=1):
    g = GridSpec(dim=dim, n_axis=n_axis)
    rng = np.random.default_rng(seed)
    rho3 = ScalarField(g, 1.0 + 0.1 * random_band_limited(g, rng).values)
    return MomentumProblem(rho3, random_vector(g, rng, amp=1.0))


@pytest.mark.parametrize("dim, n_axis", [(3, 16), (4, 8), (5, 8)])
def test_solve_lame_band_limited_data_meets_tolerance(dim, n_axis):
    # the residual divided by rho3 has content on the unpaired planes away
    # from the operator kernel; the steps must correct it, not drop it
    prob = band_limited_lame(dim, n_axis)
    tol = 1e-10
    w, kernel = solve_lame(prob, tol=tol)
    scale = max(1.0, sup_norm(prob.x))
    assert kernel.residual <= tol * scale
    assert kernel.unresolved <= 1e-14  # modes up to 2 only: nothing on the planes
    # independent recomputation: the data is mean-free and band-limited, so
    # it is its own projection
    resid = prob.x.values - manufacture_momentum(w, prob.rho3).values
    assert np.abs(resid).max() <= 2.0 * tol * scale


def test_solve_lame_makes_16_transforms_per_defect_step(monkeypatch):
    count = [0]

    def counted(fn):
        def wrapper(*args):
            count[0] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(grid_mod, "_rfft", counted(grid_mod._rfft))
    monkeypatch.setattr(grid_mod, "_to_real", counted(grid_mod._to_real))
    _, kernel = solve_lame(band_limited_lame(3, 16))
    # set-up: grad rho3 (1 forward, 3 inverse) and one projection of the data
    # (3 forward, 3 inverse, 3 for the removed content); each step: the
    # constant-coefficient inverse to spectra (3 forward) and the apply from
    # them (5 flux entries inverted and transformed back, 3 inverse); W is
    # inverted once, after the last step (3)
    assert kernel.iterations >= 5
    assert count[0] == 4 + 9 + 16 * kernel.iterations + 3


def test_momentum_problem_requires_positive_rho3():
    g = GridSpec(dim=3, n_axis=16)
    with pytest.raises(NonPositiveField):
        MomentumProblem(const_s(g, 0.0), zero_v(g))


def test_mean_zero_gauge():
    g = GridSpec(dim=3, n_axis=16)
    rho3 = sin_s(g, axis=1, amp=0.1, offset=1.0)
    x = vec_with(g, 1, sin_s(g, axis=0, amp=0.7))
    w, _ = solve_lame(MomentumProblem(rho3, x))
    assert np.abs(w.values.mean(axis=(1, 2, 3))).max() <= 1e-14


# ------------------------------------------------------------ drift right side


def test_momentum_rhs_zero_inputs():
    g = GridSpec(dim=3, n_axis=16)
    out = momentum_rhs(const_s(g, 1.0), zero_v(g), const_s(g, 1.0),
                       const_s(g, 0.0), const_s(g, 0.0))
    assert sup_norm(out) == 0.0


def test_momentum_rhs_scalar_field_source():
    g = GridSpec(dim=3, n_axis=16)
    out = momentum_rhs(const_s(g, 1.0), zero_v(g), const_s(g, 1.0),
                       const_s(g, 1.0), sin_s(g, axis=0))
    assert np.allclose(out.values[0], cos_s(g, axis=0).values, atol=1e-13)
    assert np.abs(out.values[1:]).max() <= 1e-14


def test_momentum_rhs_drift_hand_value():
    # u=1, N=2, V = sin(x1)e1, n=3:
    # (2/3) * grad(2 cos x1 / 2) = -(2/3) sin x1 e1
    g = GridSpec(dim=3, n_axis=16)
    out = momentum_rhs(const_s(g, 1.0), vec_with(g, 0, sin_s(g, axis=0)),
                       const_s(g, 2.0), const_s(g, 0.0), const_s(g, 0.0))
    expected = -(2.0 / 3.0) * sin_s(g, axis=0).values
    assert np.allclose(out.values[0], expected, atol=1e-13)


def test_momentum_rhs_half_versus_full_drift():
    g = GridSpec(dim=3, n_axis=16)
    args = (const_s(g, 1.0), vec_with(g, 0, sin_s(g, axis=0)),
            const_s(g, 1.0), const_s(g, 0.0), const_s(g, 0.0))
    half = momentum_rhs(*args)
    full = momentum_rhs(*args, half_drift=False)
    assert np.allclose(full.values, 2.0 * half.values, atol=1e-14)


def test_momentum_rhs_requires_positive_fields():
    g = GridSpec(dim=3, n_axis=16)
    with pytest.raises(NonPositiveField):
        momentum_rhs(const_s(g, -1.0), zero_v(g), const_s(g, 1.0),
                     const_s(g, 0.0), const_s(g, 0.0))
    with pytest.raises(NonPositiveField):
        momentum_rhs(const_s(g, 1.0), zero_v(g), const_s(g, 0.0),
                     const_s(g, 0.0), const_s(g, 0.0))


# --------------------------------------------------------- kernel correction


def corrected_defect(u, v_tilde, n_tilde, pi, psi):
    """Mean of the full-weight source after the drift shift of q_correction."""
    q = q_correction(u, v_tilde, n_tilde)
    source = momentum_rhs(u, VectorField(u.grid, v_tilde.values + q.values), n_tilde,
                          pi, psi, half_drift=False)
    return q, source.values.mean(axis=tuple(range(1, 1 + u.grid.dim)))


def test_q_correction_trivial_at_constant_u():
    g = GridSpec(dim=3, n_axis=16)
    q, defect = corrected_defect(const_s(g, 1.0), vec_with(g, 0, sin_s(g, axis=0)),
                                 const_s(g, 1.0), const_s(g, 0.0), const_s(g, 0.0))
    assert sup_norm(q) == 0.0
    assert np.abs(defect).max() <= 1e-14


def test_q_correction_gradient_source_has_zero_defect():
    g = GridSpec(dim=3, n_axis=16)
    _, defect = corrected_defect(const_s(g, 1.0), zero_v(g), const_s(g, 1.0),
                                 const_s(g, 1.0), sin_s(g, axis=0))
    assert np.abs(defect).max() <= 1e-14


def test_q_correction_nonconstant_u_kills_drift_mean():
    g = GridSpec(dim=3, n_axis=32)
    u = sin_s(g, axis=0, amp=0.2, offset=1.0)
    nt = sin_s(g, axis=2, amp=0.2, offset=1.0)
    vt = vec_with(g, 0, sin_s(g, axis=0))
    q, defect = corrected_defect(u, vt, nt, const_s(g, 0.0), const_s(g, 0.0))
    # u varies along x1 only, so the normal equations are rank one
    assert q.values[0].flat[0] == pytest.approx(-0.71547607, abs=1e-6)
    assert np.abs(q.values[1:]).max() == 0.0
    assert np.abs(defect).max() <= 1e-13


def test_q_correction_matches_dense_least_squares():
    # u varies along x0 and x1, so the normal matrix has rank 2 and the
    # pseudoinverse must pick the minimum-norm shift, as lstsq does
    g = GridSpec(dim=3, n_axis=16)
    x = mesh(g)
    u = ScalarField(g, 1.0 + 0.2 * np.sin(x[0]) + 0.1 * np.sin(x[1]))
    nt = sin_s(g, axis=2, amp=0.2, offset=1.0)
    vt = VectorField(g, np.array([np.sin(x[0]), np.sin(x[1]), np.sin(x[2])]))
    q = q_correction(u, vt, nt)
    # dense route: minimize || sqrt(w) (D0 + sum_l c_l d_l(u^q)) ||_2 with
    # the reference spectral derivatives
    _, k, _ = oracles.axes(g.dim, g.n_axis)
    uq = u.values**g.q
    w = nt.values * u.values ** (-2 * g.q)
    d0 = sum(oracles.ref_grad(uq * vt.values[j], k)[j] for j in range(g.dim))
    mat = np.array([(np.sqrt(w) * col).ravel() for col in oracles.ref_grad(uq, k)]).T
    rhs = -(np.sqrt(w) * d0).ravel()
    ref = oracles.dense_least_squares(mat, rhs)
    assert abs(ref[0]) > 1e-3 and abs(ref[1]) > 1e-3 and abs(ref[2]) <= 1e-12
    for j in range(g.dim):
        assert np.abs(q.values[j] - ref[j]).max() <= 1e-8
