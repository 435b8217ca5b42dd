"""Physical-to-abstract parameter map, data reconstruction, constraint residuals."""

import dataclasses

import numpy as np
import pytest

from driftsolve.errors import UnderResolved
from driftsolve.grid import (
    GridSpec,
    ScalarField,
    SymTensorField,
    VectorField,
    conformal_killing,
    divergence,
    gradient,
    sup_norm,
)
from driftsolve.momentum import _UNRESOLVED_LIMIT, momentum_rhs, q_correction, torus_basis
from driftsolve.physical import (
    PhysicalParameters,
    constraint_residuals,
    direct_constraint_terms,
    map_parameters,
    mapped_constraint_terms,
    reconstruct_data,
    solve_drift_momentum,
)

from util import (
    const_s,
    cos_s,
    mesh,
    random_band_limited,
    random_vector,
    sin_s,
    vec_with,
    zero_t,
    zero_v,
)

KAPPA3 = 0.125


def make_phys(grid, *, v_tilde=None, n_tilde=None, u_tensor=None, pi=None,
              psi=None, tau_star=0.3, v_coeffs=(1.0,)):
    return PhysicalParameters(
        v_tilde=v_tilde if v_tilde is not None else zero_v(grid),
        n_tilde=n_tilde if n_tilde is not None else const_s(grid, 1.0),
        u_tensor=u_tensor if u_tensor is not None else zero_t(grid),
        pi=pi if pi is not None else const_s(grid, 0.0),
        psi=psi if psi is not None else const_s(grid, 0.0),
        tau_star=tau_star,
        v_coeffs=tuple(v_coeffs),
    )


def random_sym_tensor(grid, rng, amp=0.2):
    a = random_vector(grid, rng, amp=1.0)
    b = random_vector(grid, rng, amp=1.0)
    vals = 0.5 * (a.values[:, None] * b.values[None, :]
                  + a.values[None, :] * b.values[:, None])
    return SymTensorField(grid, amp * vals)


# ------------------------------------------------------------- parameter map


def test_map_constant_coefficients_frozen():
    g = GridSpec(dim=3, n_axis=16)
    phys = make_phys(g, n_tilde=const_s(g, 2.0), tau_star=0.3, v_coeffs=(1.0,))
    sys, rep = map_parameters(phys)
    assert rep.kappa == pytest.approx(0.125, abs=0)
    assert sys.f.values.flat[0] == pytest.approx(0.2425, abs=1e-15)
    assert sys.c.values.flat[0] == pytest.approx(0.5773502691896257, abs=1e-15)
    assert sys.d.values.flat[0] == pytest.approx(0.3, abs=0)
    assert sys.rho2.values.flat[0] == pytest.approx(0.3535533905932738, abs=1e-15)
    assert sup_norm(sys.h) <= 1e-15          # flat metric, constant psi
    assert sup_norm(sys.b) == 0.0            # div of zero drift
    assert sup_norm(sys.Y) == 0.0
    assert np.all(sys.rho3.values == 1.0)    # half of n_tilde == 2


def test_map_kinetic_coupling_dimension_table():
    for dim, n_axis, c_val in ((3, 8, 0.5773502691896257),
                               (4, 8, 0.7071067811865476),
                               (5, 8, 0.7745966692414834)):
        g = GridSpec(dim=dim, n_axis=n_axis)
        phys = make_phys(g)
        sys, _ = map_parameters(phys)
        assert sys.c.values.flat[0] == pytest.approx(c_val, abs=1e-15)


def test_map_wave_and_drift_fields():
    g = GridSpec(dim=3, n_axis=16)
    x = mesh(g)
    nt = ScalarField(g, 1.0 + 0.2 * np.sin(x[2]))
    vt = vec_with(g, 0, sin_s(g, axis=0))
    psi = sin_s(g, axis=1)
    phys = make_phys(g, v_tilde=vt, n_tilde=nt, psi=psi,
                     pi=const_s(g, 0.4), tau_star=0.3)
    sys, rep = map_parameters(phys)

    gpsi = gradient(psi).values
    h_ref = -KAPPA3 * np.sum(gpsi**2, axis=0)
    assert np.abs(sys.h.values - h_ref).max() <= 1e-13

    div_v = divergence(vt).values
    b_ref = (1.0 / 6.0) * 0.3 * nt.values * div_v
    assert np.abs(sys.b.values - b_ref).max() <= 1e-13

    y_ref = np.sqrt(3.0) * nt.values * vt.values
    assert np.abs(sys.Y.values - y_ref).max() <= 1e-13

    rho1_gt = KAPPA3 * (0.4**2 - (2.0 / 3.0) * nt.values**2 * div_v**2)
    rho1_lin = KAPPA3 * (0.4 - (2.0 / 3.0) * nt.values**2 * div_v)
    assert np.abs(sys.rho1.values - rho1_gt).max() <= 1e-14
    assert np.abs(rep.rho1_corollary.values - rho1_lin).max() <= 1e-14

    assert np.abs(sys.rho3.values - nt.values / 2.0).max() == 0.0
    grad_nt = gradient(nt).values
    assert rep.contraction_sup == pytest.approx(
        np.sqrt(np.sum((grad_nt / 2.0) ** 2, axis=0)).max(), rel=1e-12)
    assert rep.contraction_alt == pytest.approx(
        np.sqrt(np.sum((grad_nt / nt.values) ** 2, axis=0)).max(), rel=1e-12)


def test_map_surfaces_reading_discrepancies():
    g = GridSpec(dim=3, n_axis=8)
    phys = make_phys(g, v_tilde=vec_with(g, 0, sin_s(g)), pi=const_s(g, 0.4))
    _, rep = map_parameters(phys)
    ids = {r.id for r in rep.records}
    assert "rho3 reading" in ids
    assert "rho1 linear-vs-squared pi" in ids
    assert "drift gradient weight" in ids
    for r in rep.records:
        assert r.detail


def test_map_flags_noncoercive_background():
    g = GridSpec(dim=3, n_axis=16)
    phys = make_phys(g, psi=sin_s(g, axis=1))
    sys, rep = map_parameters(phys)
    assert rep.flags["coercive"] == "FAIL"
    assert np.all(sys.h.values <= 1e-15)


def test_coercive_flag_nonnegative_h_needs_no_eigen_solve(monkeypatch):
    import driftsolve.physical

    def no_eigen(h):
        raise AssertionError("eigen check ran for a nonnegative h")

    monkeypatch.setattr(driftsolve.physical, "coercivity_eigenvalue", no_eigen)
    g = GridSpec(dim=3, n_axis=8)
    h = ScalarField(g, sin_s(g).values ** 2)
    assert h.values.min() == 0.0
    assert driftsolve.physical._coercive_flag(h) == "PASS"


def test_map_h_override_keeps_physical_field():
    g = GridSpec(dim=3, n_axis=16)
    psi = sin_s(g, axis=1)
    phys = make_phys(g, psi=psi)
    sys, rep = map_parameters(phys, h_override=const_s(g, 1.0))
    assert np.all(sys.h.values == 1.0)
    assert rep.flags["h_overridden"] == "YES"
    gpsi = gradient(psi).values
    assert np.abs(rep.h_physical.values + KAPPA3 * np.sum(gpsi**2, axis=0)).max() <= 1e-13
    assert rep.flags["coercive"] == "PASS"


# ------------------------------------------------------- termwise comparison


SLOTS = ("laplacian", "zeroth_h", "potential_f", "inverse_a", "linear_b",
         "gradient_square", "tau_gradient", "drift_gradient")


def sample_state(grid, rng):
    u = ScalarField(grid, np.exp(random_band_limited(grid, rng, amp=0.3).values))
    w = random_vector(grid, rng, amp=0.5)
    return u, w


def sample_phys(grid, rng, *, with_drift):
    x = mesh(grid)
    vt = random_vector(grid, rng, amp=0.7) if with_drift else zero_v(grid)
    return make_phys(
        grid,
        v_tilde=vt,
        n_tilde=ScalarField(grid, 1.0 + 0.2 * np.sin(x[2])),
        u_tensor=random_sym_tensor(grid, rng),
        pi=ScalarField(grid, 0.3 + 0.1 * np.cos(x[1])),
        psi=ScalarField(grid, 0.4 * np.sin(x[0])),
        tau_star=0.3,
        v_coeffs=(0.5, 0.1),
    )


def test_termwise_identity_without_drift():
    g = GridSpec(dim=3, n_axis=8)
    rng = np.random.default_rng(11)
    for _ in range(8):
        phys = sample_phys(g, rng, with_drift=False)
        sys, _ = map_parameters(phys)
        u, w = sample_state(g, rng)
        direct = direct_constraint_terms(u, w, phys)
        mapped = mapped_constraint_terms(u, w, sys)
        for slot in SLOTS:
            scale = 1.0 + np.abs(direct[slot]).max()
            assert np.abs(direct[slot] - mapped[slot]).max() <= 1e-10 * scale, slot


def test_termwise_identity_with_drift_isolates_one_slot():
    g = GridSpec(dim=3, n_axis=8)
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(8):
        phys = sample_phys(g, rng, with_drift=True)
        sys, rep = map_parameters(phys)
        u, w = sample_state(g, rng)
        direct = direct_constraint_terms(u, w, phys)
        mapped = mapped_constraint_terms(u, w, sys)
        for slot in SLOTS:
            if slot == "drift_gradient":
                continue
            scale = 1.0 + np.abs(direct[slot]).max()
            assert np.abs(direct[slot] - mapped[slot]).max() <= 1e-10 * scale, slot
        # the direct term carries an extra local weight n_tilde * div(v_tilde)
        weight = phys.n_tilde.values * divergence(phys.v_tilde).values
        assert np.abs(direct["drift_gradient"]
                      - weight * mapped["drift_gradient"]).max() <= 1e-12 * (
            1.0 + np.abs(direct["drift_gradient"]).max())
        worst = max(worst, np.abs(direct["drift_gradient"]
                                  - mapped["drift_gradient"]).max())
        assert any(r.id == "drift gradient weight" for r in rep.records)
    assert worst > 1e-6  # the slot really does differ on generic drifts


def test_mapped_terms_sum_to_scalar_residual():
    from driftsolve.coupled import effective_a, system_residual

    g = GridSpec(dim=3, n_axis=8)
    rng = np.random.default_rng(13)
    phys = sample_phys(g, rng, with_drift=True)
    sys, _ = map_parameters(phys)
    u, w = sample_state(g, rng)
    # a state whose realized coefficient a (and rho1) is negative somewhere:
    # the residual is still evaluated, not rejected
    shift = float(effective_a(sys, w).values.min()) + 0.1
    negative = dataclasses.replace(sys, rho1=ScalarField(g, sys.rho1.values - shift))
    assert negative.rho1.values.min() < 0
    assert effective_a(negative, w).values.min() < 0
    for system in (sys, negative):
        mapped = mapped_constraint_terms(u, w, system)
        total = sum(mapped[s] for s in SLOTS)
        res = system_residual(u, w, system)[0].values
        assert np.all(np.isfinite(res))
        assert np.abs(total - res).max() <= 1e-11 * (1.0 + np.abs(total).max())


# --------------------------------------------------------------- reconstruct


def test_reconstruct_trivial_background():
    g = GridSpec(dim=3, n_axis=16)
    phys = make_phys(g, tau_star=0.6)
    data = reconstruct_data(const_s(g, 1.0), zero_v(g), phys)
    assert np.all(data.metric_factor.values == 1.0)
    k_diag = data.k_hat.values[0, 0]
    assert np.abs(k_diag - 0.2).max() <= 1e-15
    assert np.abs(data.k_hat.values[0, 1]).max() == 0.0
    assert np.abs(data.tau.values - 0.6).max() <= 1e-15


def test_reconstruct_mean_curvature_splits_off_drift_divergence():
    g = GridSpec(dim=3, n_axis=16)
    phys = make_phys(g, v_tilde=vec_with(g, 0, sin_s(g)), tau_star=0.3)
    data = reconstruct_data(const_s(g, 1.0), zero_v(g), phys)
    ref = 0.3 + cos_s(g).values
    assert np.abs(data.tau.values - ref).max() <= 1e-13


def test_reconstruct_momentum_density_weight():
    g = GridSpec(dim=3, n_axis=8)
    phys = make_phys(g, pi=const_s(g, 0.7))
    data = reconstruct_data(const_s(g, 2.0), zero_v(g), phys)
    assert np.abs(data.pi_hat.values - 0.7 * 2.0**-6).max() <= 1e-15


def test_reconstruct_trace_identity():
    g = GridSpec(dim=3, n_axis=16)
    rng = np.random.default_rng(21)
    phys = sample_phys(g, rng, with_drift=True)
    u, w = sample_state(g, rng)
    data = reconstruct_data(u, w, phys)
    # metric trace of the extrinsic tensor must reproduce the mean curvature
    inv_factor = u.values ** (2 - g.q)
    tr = inv_factor * np.trace(data.k_hat.values, axis1=0, axis2=1)
    assert np.abs(tr - data.tau.values).max() <= 1e-12 * (1 + np.abs(tr).max())


def test_reconstruct_constant_mean_curvature_vacuum():
    g = GridSpec(dim=3, n_axis=16)
    tau_star = 0.7
    lam = tau_star**2 / 3.0
    phys = make_phys(g, tau_star=tau_star, v_coeffs=(lam,))
    data = reconstruct_data(const_s(g, 1.0), zero_v(g), phys)
    ham, cod = constraint_residuals(data, phys)
    assert sup_norm(ham) <= 1e-12
    assert sup_norm(cod) <= 1e-12


# ----------------------------------------------------------- momentum bridge


def test_solve_drift_momentum_single_mode_closed_form():
    g = GridSpec(dim=3, n_axis=16)
    phys = make_phys(g, v_tilde=vec_with(g, 0, sin_s(g)), tau_star=0.3)
    u = const_s(g, 1.0)
    w, kernel, used = solve_drift_momentum(u, phys)
    ref = vec_with(g, 0, sin_s(g))
    assert np.abs(w.values - ref.values).max() <= 1e-9
    assert kernel.residual <= 1e-9
    # correction basis is divergence-free here, so the drift is unchanged
    assert np.abs(used.v_tilde.values - phys.v_tilde.values).max() <= 1e-12
    data = reconstruct_data(u, w, used)
    _, cod = constraint_residuals(data, phys)
    assert sup_norm(cod) <= 1e-8


def test_solve_drift_momentum_nonconstant_factor_closes_codazzi():
    g = GridSpec(dim=3, n_axis=32)
    x = mesh(g)
    phys = make_phys(
        g,
        v_tilde=vec_with(g, 0, sin_s(g)),
        n_tilde=ScalarField(g, 1.0 + 0.2 * np.sin(x[2])),
        tau_star=0.3,
    )
    u = ScalarField(g, 1.0 + 0.2 * np.sin(x[0]))
    w, kernel, used = solve_drift_momentum(u, phys)
    assert kernel.iterations <= 12
    data = reconstruct_data(u, w, used)
    _, cod = constraint_residuals(data, phys)
    assert sup_norm(cod) <= 1e-6


def test_solve_drift_momentum_refuses_under_resolved_source():
    # criterion 11's drift data on a grid too coarse for its source
    g = GridSpec(dim=3, n_axis=16)
    x = mesh(g)
    phys = make_phys(
        g,
        v_tilde=vec_with(g, 0, sin_s(g)),
        n_tilde=ScalarField(g, 1.0 + 0.2 * np.sin(x[2])),
        tau_star=0.3,
    )
    u = ScalarField(g, 1.0 + 0.2 * np.sin(x[0]))
    with pytest.raises(UnderResolved) as info:
        solve_drift_momentum(u, phys)
    q, _ = q_correction(u, phys.v_tilde, phys.n_tilde, phys.pi, phys.psi,
                        torus_basis(g), half_drift=False)
    source = momentum_rhs(u, VectorField(g, phys.v_tilde.values + q.values),
                          phys.n_tilde, phys.pi, phys.psi, half_drift=False)
    assert info.value.content == pytest.approx(5.5e-3, rel=0.02)
    assert info.value.limit == pytest.approx(
        _UNRESOLVED_LIMIT * max(1.0, sup_norm(source)), rel=1e-12)
