"""Acceptance gate: one test per shipped guarantee, one printed verdict line each.

Every test computes its metric, prints a single PASS/FAIL line with the
measured number, and then asserts.  Criterion 9 carries an infeasibility
certificate for its nominal coefficient choice (no constant barrier exists
above the bifurcation threshold) together with a feasible variant solved to
tolerance; see the printed lines for both halves.
"""

import dataclasses

import numpy as np
import pytest

from driftsolve.coupled import (
    RhsInputs,
    SystemCoefficients,
    fixed_point_solve,
)
from driftsolve.errors import ContractionViolated, NoSupersolutionFound
from driftsolve.grid import (
    GridSpec,
    ScalarField,
    divergence,
    gradient,
    l2_norm,
    laplacian,
    sup_norm,
)
from driftsolve.momentum import MomentumProblem, estimate_C1, solve_lame
from driftsolve.physical import (
    constraint_residuals,
    direct_constraint_terms,
    map_parameters,
    mapped_constraint_terms,
    reconstruct_data,
    solve_drift_momentum,
)
from driftsolve.scalar import (
    LichCoefficients,
    find_supersolution,
    monotone_iterate,
    scalar_residual,
)
from driftsolve.stability import linearize, smallest_eigenvalue
from driftsolve.verify import check_model_profile, manufacture_scalar

from test_physical import SLOTS, make_phys, sample_phys, sample_state
from util import const_s, mesh, sin_s, vec_with, zero_t, zero_v


def verdict(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok


def constant_coeffs(g, a=0.5):
    z = const_s(g, 0.0)
    return LichCoefficients(a=const_s(g, a), b=z, c=z, d=z,
                            f=const_s(g, 0.5), h=const_s(g, 1.0), Y=zero_v(g))


def test_criterion_01_constant_scalar_solve():
    g = GridSpec(dim=3, n_axis=16)
    # psi = 1.1 is a genuine upper barrier here: residual(1.1) = +0.038
    u, trace = monotone_iterate(constant_coeffs(g), const_s(g, 1.1),
                                step_tol=1e-13, tol_outer=1e-10, max_outer=2000)
    err = np.abs(u.values - 1.0).max()
    verdict(1, "constant-coefficient scalar solve", err <= 1e-10,
            f"sup|u-1| = {err:.3e}, sweeps = {trace.iterate_count}")


def test_criterion_02_manufactured_scalar_solve():
    g = GridSpec(dim=3, n_axis=16)
    u_star = ScalarField(g, 1.0 + 0.05 * np.sin(mesh(g)[0]))
    base = LichCoefficients(
        a=const_s(g, 0.5), b=const_s(g, 0.0), c=const_s(g, 0.3),
        d=const_s(g, 0.2), f=const_s(g, 0.5), h=const_s(g, 1.0),
        Y=vec_with(g, 0, const_s(g, 0.4)),
    )
    coeffs = dataclasses.replace(base, b=manufacture_scalar(u_star, base))
    u, _ = monotone_iterate(coeffs, u_star, step_tol=1e-10,
                            tol_outer=1e-9, max_outer=5000)
    err = np.abs(u.values - u_star.values).max()
    verdict(2, "manufactured variable-coefficient solve", err <= 1e-8,
            f"sup|u-u*| = {err:.3e}")


def test_criterion_03_constant_barrier_threshold():
    g = GridSpec(dim=3, n_axis=8)
    h, f = const_s(g, 1.0), const_s(g, 0.5)
    psi = find_supersolution(h, f, const_s(g, 0.58))
    r = scalar_residual(psi, LichCoefficients(
        a=const_s(g, 0.58), b=const_s(g, 0.0), c=const_s(g, 0.0),
        d=const_s(g, 0.0), f=f, h=h, Y=zero_v(g)))
    defect = r.values.min()
    below_ok = defect >= -1e-8
    try:
        find_supersolution(h, f, const_s(g, 0.61))
        above_ok = False
        best = float("nan")
    except NoSupersolutionFound as err:
        above_ok = True
        best = err.best_defect
    verdict(3, "barrier existence threshold", below_ok and above_ok,
            f"defect(0.58) = {defect:.3e}, best defect(0.61) = {best:.3e}")


def test_criterion_04_nonconstant_barrier_search():
    g = GridSpec(dim=3, n_axis=16)
    h = sin_s(g, amp=0.9, offset=1.0)
    f = const_s(g, 0.5)
    at = const_s(g, 0.03)
    psi = find_supersolution(h, f, at)
    r = scalar_residual(psi, LichCoefficients(
        a=at, b=const_s(g, 0.0), c=const_s(g, 0.0), d=const_s(g, 0.0),
        f=f, h=h, Y=zero_v(g)))
    defect = r.values.min()
    spread = psi.values.max() - psi.values.min()
    ok = defect >= -1e-8 and psi.values.min() > 0 and spread >= 0.05
    verdict(4, "nonconstant barrier search", ok,
            f"defect = {defect:.3e}, spread = {spread:.3f}")


def test_criterion_05_vector_solve_closed_form():
    g = GridSpec(dim=3, n_axis=32)
    x = vec_with(g, 0, sin_s(g, amp=-1.0))
    w, kernel = solve_lame(MomentumProblem(const_s(g, 1.0), x))
    ref = 0.75 * np.sin(mesh(g)[0])
    err = max(np.abs(w.values[0] - ref).max(), np.abs(w.values[1:]).max())
    c1 = estimate_C1(g)
    ok = (err <= 1e-12 and np.abs(kernel.defect).max() <= 1e-15
          and 1.0 - 1e-12 <= c1 < 1.5)
    verdict(5, "vector solve closed form", ok,
            f"sup error = {err:.3e}, C1 = {c1:.4f}")


def test_criterion_06_vector_solve_variable_coefficient():
    g = GridSpec(dim=3, n_axis=32)
    rho3 = sin_s(g, axis=1, amp=0.1, offset=1.0)
    x = vec_with(g, 0, sin_s(g, amp=-1.0))
    w, kernel = solve_lame(MomentumProblem(rho3, x))
    c1 = estimate_C1(g)
    bound = 0.1 * c1 / 0.9 + 0.05
    ok = (kernel.residual <= 1e-10 and kernel.iterations <= 12
          and all(r <= bound for r in kernel.ratios[1:]))
    verdict(6, "vector solve with variable coefficient", ok,
            f"residual = {kernel.residual:.3e} in {kernel.iterations} iterations")


def test_criterion_07_contraction_guard():
    g = GridSpec(dim=3, n_axis=32)
    rho3 = sin_s(g, axis=1, amp=0.8, offset=1.0)
    x = vec_with(g, 0, sin_s(g, amp=-1.0))
    try:
        solve_lame(MomentumProblem(rho3, x))
        ok, msg = False, "no error raised"
    except ContractionViolated as err:
        ok, msg = True, str(err)
    verdict(7, "contraction guard on steep coefficient", ok, msg)


def coupled_system(g, rho1, rho2=1e-3, with_rhs=True):
    z = const_s(g, 0.0)
    rhs = RhsInputs(
        v_tilde=vec_with(g, 0, sin_s(g, amp=1e-3)),
        n_tilde=const_s(g, 1.0),
        pi=const_s(g, 1e-3),
        psi=sin_s(g, axis=1),
    ) if with_rhs else None
    return SystemCoefficients(
        b=z, c=z, d=z, f=const_s(g, 0.5), h=const_s(g, 1.0),
        rho1=rho1, rho2=const_s(g, rho2), rho3=const_s(g, 1.0),
        Y=zero_v(g), Psi=zero_t(g),
        rhs_mode="abstract" if with_rhs else "zero", rhs=rhs,
    )


def test_criterion_08_coupled_fixed_point():
    g = GridSpec(dim=3, n_axis=16)
    sys = coupled_system(g, const_s(g, 0.3))
    u, w, rep = fixed_point_solve(sys, const_s(g, 0.5))
    decoupled = coupled_system(g, const_s(g, 0.3), rho2=0.0, with_rhs=False)
    u0, w0, _ = fixed_point_solve(decoupled, const_s(g, 0.5))
    psi = find_supersolution(decoupled.h, decoupled.f, const_s(g, 0.5))
    u_ref, _ = monotone_iterate(LichCoefficients(
        a=decoupled.rho1, b=decoupled.b, c=decoupled.c, d=decoupled.d,
        f=decoupled.f, h=decoupled.h, Y=decoupled.Y), psi)
    agree = np.abs(u0.values - u_ref.values).max()
    ok = (rep.final_scalar_residual <= 1e-8 and rep.final_vector_residual <= 1e-8
          and all(m < 0 for m in rep.condition_margins)
          and rep.lambda0 > 0 and agree <= 1e-10 and sup_norm(w0) == 0.0)
    verdict(8, "coupled fixed point", ok,
            f"residuals = ({rep.final_scalar_residual:.2e}, "
            f"{rep.final_vector_residual:.2e}), decoupled gap = {agree:.1e}")


def test_criterion_09_oscillatory_sources_with_certificate():
    g = GridSpec(dim=3, n_axis=32)
    profile = sin_s(g, amp=0.1, offset=1.0)

    # nominal coefficient level: no constant barrier can exist, certify it
    rho1_nominal = ScalarField(g, 0.5 * profile.values)
    at_nominal = ScalarField(g, rho1_nominal.values + 0.2)
    try:
        find_supersolution(const_s(g, 1.0), const_s(g, 0.5), at_nominal)
        cert, best = False, float("nan")
    except NoSupersolutionFound as err:
        cert, best = True, err.best_defect

    # feasible level of the same shape solves to tolerance
    rho1 = ScalarField(g, 0.05 * profile.values)
    sys = coupled_system(g, rho1)
    at = ScalarField(g, rho1.values + 0.2)
    u, w, rep = fixed_point_solve(sys, at)
    ok = (cert and rep.final_scalar_residual <= 1e-8
          and rep.final_vector_residual <= 1e-8)
    verdict(9, "oscillatory source level", ok,
            f"nominal level certified infeasible (best defect {best:.3e}); "
            f"reduced level residual = {rep.final_scalar_residual:.2e}")


def test_criterion_10_stability_certificate():
    g = GridSpec(dim=3, n_axis=16)
    coeffs = constant_coeffs(g)
    u, _ = monotone_iterate(coeffs, const_s(g, 1.1),
                            step_tol=1e-13, tol_outer=1e-10, max_outer=2000)
    op = linearize(u, coeffs)
    lam, phi = smallest_eigenvalue(op)
    action = (laplacian(phi).values + op.zeroth.values * phi.values
              + np.sum(gradient(phi).values * op.first.values, axis=0))
    resid = l2_norm(ScalarField(g, action - lam * phi.values))
    ok = (abs(lam - 2.0) <= 1e-6 and resid <= 1e-8 * l2_norm(phi)
          and phi.values.min() * phi.values.max() > 0)
    verdict(10, "stability eigenvalue certificate", ok,
            f"lambda0 = {lam:.9f}, certificate residual = {resid:.2e}")


def test_criterion_11_physical_reconstruction():
    # (a) constant-curvature vacuum reconstructed exactly
    g = GridSpec(dim=3, n_axis=16)
    tau_star = 0.7
    vac = make_phys(g, tau_star=tau_star, v_coeffs=(tau_star**2 / 3.0,))
    data = reconstruct_data(const_s(g, 1.0), zero_v(g), vac)
    ham, cod = constraint_residuals(data, vac)
    vac_sup = max(sup_norm(ham), sup_norm(cod))

    # (b) drift momentum pipeline closes the transverse constraint
    g2 = GridSpec(dim=3, n_axis=32)
    x = mesh(g2)
    phys = make_phys(
        g2,
        v_tilde=vec_with(g2, 0, sin_s(g2)),
        n_tilde=ScalarField(g2, 1.0 + 0.2 * np.sin(x[2])),
        tau_star=0.3,
    )
    u = ScalarField(g2, 1.0 + 0.2 * np.sin(x[0]))
    w, kernel, used = solve_drift_momentum(u, phys)
    data2 = reconstruct_data(u, w, used)
    _, cod2 = constraint_residuals(data2, phys)
    cod_sup = sup_norm(cod2)
    ok = vac_sup <= 1e-12 and cod_sup <= 1e-6
    verdict(11, "physical data reconstruction", ok,
            f"vacuum residual = {vac_sup:.2e}, transverse residual = {cod_sup:.2e}")


def test_criterion_12_parameter_dictionary():
    g = GridSpec(dim=3, n_axis=8)
    rng = np.random.default_rng(1012)
    worst_clean = 0.0
    for _ in range(6):
        phys = sample_phys(g, rng, with_drift=False)
        sys, _ = map_parameters(phys)
        u, w = sample_state(g, rng)
        direct = direct_constraint_terms(u, w, phys)
        mapped = mapped_constraint_terms(u, w, sys)
        for slot in SLOTS:
            scale = 1.0 + np.abs(direct[slot]).max()
            worst_clean = max(worst_clean,
                              np.abs(direct[slot] - mapped[slot]).max() / scale)
    ids = set()
    worst_other = 0.0
    for _ in range(6):
        phys = sample_phys(g, rng, with_drift=True)
        sys, rep = map_parameters(phys)
        ids |= {r.id for r in rep.records}
        u, w = sample_state(g, rng)
        direct = direct_constraint_terms(u, w, phys)
        mapped = mapped_constraint_terms(u, w, sys)
        for slot in SLOTS:
            if slot == "drift_gradient":
                continue
            scale = 1.0 + np.abs(direct[slot]).max()
            worst_other = max(worst_other,
                              np.abs(direct[slot] - mapped[slot]).max() / scale)
    surfaced = {"rho3 reading", "rho1 linear-vs-squared pi",
                "drift gradient weight"} <= ids
    ok = worst_clean <= 1e-10 and worst_other <= 1e-10 and surfaced
    verdict(12, "parameter dictionary", ok,
            f"drift-free slots agree to {worst_clean:.2e}, "
            f"generic non-drift slots to {worst_other:.2e}, "
            f"readings surfaced: {sorted(ids)}")
