"""Hypothesis checks, the closed-form Sobolev bound, and the coupled driver."""

import dataclasses

import numpy as np
import pytest

from driftsolve.coupled import (
    RhsInputs,
    SystemCoefficients,
    check_hypotheses,
    estimate_sobolev_constant,
    fixed_point_solve,
    system_residual,
)
from driftsolve.errors import (
    ConditionViolated,
    ConfigError,
    NonConvergence,
    NotCoercive,
)
from driftsolve.grid import GridSpec, ScalarField, SymTensorField, sup_norm
from driftsolve.scalar import LichCoefficients, find_supersolution, monotone_iterate
from driftsolve.stability import coercivity_eigenvalue

from util import const_s, sin_s, vec_with, zero_t, zero_v


def make_sys(grid, *, rho1, rho2=0.0, psi_tensor=None, rhs=None,
             f=0.5, h=1.0, b=0.0, c=0.0, d=0.0, rho3=1.0):
    return SystemCoefficients(
        b=const_s(grid, b), c=const_s(grid, c), d=const_s(grid, d),
        f=const_s(grid, f), h=const_s(grid, h),
        rho1=rho1 if isinstance(rho1, ScalarField) else const_s(grid, rho1),
        rho2=const_s(grid, rho2),
        rho3=const_s(grid, rho3),
        Y=zero_v(grid),
        Psi=psi_tensor if psi_tensor is not None else zero_t(grid),
        rhs_mode="zero" if rhs is None else "abstract",
        rhs=rhs,
    )


def small_rhs(grid):
    return RhsInputs(
        v_tilde=vec_with(grid, 0, sin_s(grid, axis=0, amp=1e-3)),
        n_tilde=const_s(grid, 1.0),
        pi=const_s(grid, 1e-3),
        psi=sin_s(grid, axis=1),
    )


def test_rhs_mode_and_rhs_inputs_must_agree():
    # rhs inputs in the zero mode would be graded into c_r by
    # check_hypotheses and never solved for
    g = GridSpec(dim=3, n_axis=8)
    sys = make_sys(g, rho1=0.3)
    with pytest.raises(ConfigError, match="'zero'"):
        dataclasses.replace(sys, rhs=small_rhs(g))
    with pytest.raises(ConfigError, match="'abstract'"):
        dataclasses.replace(sys, rhs_mode="abstract")


# --------------------------------------------------------------- hypotheses


def test_hypothesis_report_reference_numbers():
    g = GridSpec(dim=3, n_axis=16)
    sys = make_sys(g, rho1=0.5)
    rep = check_hypotheses(sys, const_s(g, 0.7))
    assert rep.theta == pytest.approx(0.5, abs=1e-15)
    assert rep.omega == pytest.approx(0.2, abs=1e-13)
    assert rep.l1_lhs == pytest.approx(0.5 * 248.05021344239853, rel=1e-12)
    assert rep.coercivity_lambda == pytest.approx(1.0, abs=1e-8)
    assert rep.verdicts["f_positive"] == "PASS"
    assert rep.verdicts["rho1_positive"] == "PASS"
    assert rep.verdicts["coercive"] == "PASS"
    assert rep.verdicts["omega_positive"] == "PASS"
    assert rep.verdicts["l1_smallness"] == "ADVISORY"
    assert rep.verdicts["smallness_box"] == "ADVISORY"
    assert rep.smallness_lhs >= 0.0
    assert rep.sh_estimate > 0.0
    assert rep.t_norm >= 0.5


def test_hypothesis_report_flags_bad_f():
    g = GridSpec(dim=3, n_axis=16)
    sys = make_sys(g, rho1=0.5, f=-0.25)
    rep = check_hypotheses(sys, const_s(g, 0.7))
    assert rep.verdicts["f_positive"] == "FAIL"
    assert rep.theta == pytest.approx(-0.25, abs=1e-15)


def test_hypothesis_report_never_throws_on_noncoercive_h():
    g = GridSpec(dim=3, n_axis=16)
    sys = make_sys(g, rho1=0.5, h=-1.0)
    rep = check_hypotheses(sys, const_s(g, 0.7))
    assert rep.verdicts["coercive"] == "FAIL"
    assert rep.sh_estimate == 0.0  # not defined without coercivity


def test_hypothesis_report_grades_nonpositive_n_tilde():
    # with n_tilde <= 0 the abstract source is undefined: a FAIL verdict,
    # and c_r is not probed (the probe raised NonPositiveField)
    g = GridSpec(dim=3, n_axis=8)
    at = const_s(g, 0.5)
    bad = dataclasses.replace(small_rhs(g), n_tilde=const_s(g, -1.0))
    rep = check_hypotheses(make_sys(g, rho1=0.3, rhs=bad), at)
    assert rep.verdicts["n_tilde_positive"] == "FAIL"
    assert rep.c_r_measured == 0.0
    good = check_hypotheses(make_sys(g, rho1=0.3, rhs=small_rhs(g)), at)
    assert good.verdicts["n_tilde_positive"] == "PASS"
    assert good.c_r_measured > 0.0
    assert "n_tilde_positive" not in check_hypotheses(make_sys(g, rho1=0.3), at).verdicts


# --------------------------------------------------------- Sobolev constant


def test_sobolev_estimate_dominates_constant_test_function():
    g = GridSpec(dim=3, n_axis=16)
    est = estimate_sobolev_constant(const_s(g, 1.0))
    assert est >= 1.6252523020247696e-05 * (1 - 1e-12)


def test_sobolev_estimate_is_talenti_constant_in_dim_3():
    g = GridSpec(dim=3, n_axis=16)
    est = estimate_sobolev_constant(const_s(g, 1.0))
    assert est == pytest.approx(16.0 / (27.0 * np.pi**4), rel=1e-12)


@pytest.mark.parametrize("dim, value", [(4, 0.0094989), (5, 0.0111939)])
def test_sobolev_estimate_sharp_constant_dims_4_5(dim, value):
    g = GridSpec(dim=dim, n_axis=8)
    assert estimate_sobolev_constant(const_s(g, 1.0)) == pytest.approx(value, abs=1e-7)


@pytest.mark.parametrize("h", [1.0, 0.05])
def test_sobolev_estimate_does_not_depend_on_resolution(h):
    est = [estimate_sobolev_constant(const_s(GridSpec(dim=3, n_axis=n), h))
           for n in (8, 16, 32)]
    assert est == pytest.approx([est[0]] * 3, rel=1e-12)


def test_sobolev_estimate_does_not_increase_in_h():
    g = GridSpec(dim=3, n_axis=16)
    levels = [0.02, 0.05, 0.1, 0.2, 1.0, 4.0]
    est = [estimate_sobolev_constant(const_s(g, h)) for h in levels]
    assert all(b <= a for a, b in zip(est, est[1:]))
    sharp = 16.0 / (27.0 * np.pi**4)
    assert est[-1] == est[-2] == pytest.approx(sharp, rel=1e-12)
    # for small mean(h) the constant function's quotient wins
    for h, e in zip(levels[:2], est[:2]):
        assert e == pytest.approx(g.volume**-2 * h**-3, rel=1e-12)
        assert e > 2.0 * sharp


def test_check_hypotheses_solves_one_eigenproblem(monkeypatch):
    import driftsolve.coupled as coupled

    calls = []

    def counted(h, **kwargs):
        calls.append(h)
        return coercivity_eigenvalue(h, **kwargs)

    monkeypatch.setattr(coupled, "coercivity_eigenvalue", counted)
    g = GridSpec(dim=3, n_axis=16)
    rep = check_hypotheses(make_sys(g, rho1=0.5), const_s(g, 0.7))
    assert len(calls) == 1
    assert rep.sh_estimate == pytest.approx(16.0 / (27.0 * np.pi**4), rel=1e-12)


def test_sobolev_estimate_requires_coercivity():
    g = GridSpec(dim=3, n_axis=16)
    with pytest.raises(NotCoercive):
        estimate_sobolev_constant(const_s(g, -1.0))


# ------------------------------------------------------------ coupled driver


def test_fixed_point_decoupled_matches_scalar_solve():
    g = GridSpec(dim=3, n_axis=16)
    sys = make_sys(g, rho1=0.3)
    at = const_s(g, 0.5)
    u, w, rep = fixed_point_solve(sys, at)
    assert sup_norm(w) == 0.0
    psi = find_supersolution(sys.h, sys.f, at)
    coeffs = LichCoefficients(a=sys.rho1, b=sys.b, c=sys.c, d=sys.d,
                              f=sys.f, h=sys.h, Y=sys.Y)
    u_ref, _ = monotone_iterate(coeffs, psi)
    assert np.array_equal(u.values, u_ref.values)


def test_fixed_point_small_coupling_converges():
    g = GridSpec(dim=3, n_axis=16)
    sys = make_sys(g, rho1=0.3, rho2=1e-3, rhs=small_rhs(g))
    u, w, rep = fixed_point_solve(sys, const_s(g, 0.5))
    assert rep.final_scalar_residual <= 1e-8
    assert rep.final_vector_residual <= 1e-8
    assert all(m < 0 for m in rep.condition_margins)
    assert rep.outer_iterations == len(rep.phi_steps)
    assert rep.phi_steps[-1] < 1e-9
    assert rep.lambda0 >= -1e-8
    rs, rv = system_residual(u, w, sys)
    assert sup_norm(rs) <= 1e-8
    assert sup_norm(rv) <= 1e-8


def test_fixed_point_condition_guard():
    g = GridSpec(dim=3, n_axis=16)
    psi_vals = np.zeros((3, 3) + g.shape)
    psi_vals[0, 0] = np.sqrt(0.3)
    sys = make_sys(g, rho1=0.4, psi_tensor=SymTensorField(g, psi_vals))
    with pytest.raises(ConditionViolated) as info:
        fixed_point_solve(sys, const_s(g, 0.5))
    assert info.value.margin >= 0.19


def test_fixed_point_iteration_budget():
    g = GridSpec(dim=3, n_axis=16)
    sys = make_sys(g, rho1=0.3)
    with pytest.raises(NonConvergence):
        fixed_point_solve(sys, const_s(g, 0.5), max_outer=1)


# ------------------------------------------------------------ residual pairs


def test_system_residual_exact_constant_solution():
    g = GridSpec(dim=3, n_axis=16)
    sys = make_sys(g, rho1=0.5)  # h=1, f=0.5, a-slot = 0.5 at W=0 -> u=1 exact
    rs, rv = system_residual(const_s(g, 1.0), zero_v(g), sys)
    assert sup_norm(rs) <= 1e-10
    assert sup_norm(rv) <= 1e-10


def test_system_residual_kernel_invariance():
    g = GridSpec(dim=3, n_axis=16)
    sys = make_sys(g, rho1=0.3, rho2=1e-2, rhs=small_rhs(g))
    u = sin_s(g, amp=0.05, offset=1.0)
    w = vec_with(g, 0, sin_s(g, axis=1, amp=0.1))
    from driftsolve.grid import VectorField

    w_shift = VectorField(g, w.values + np.array([0.4, 0.0, -0.2])[:, None, None, None])
    _, rv1 = system_residual(u, w, sys)
    _, rv2 = system_residual(u, w_shift, sys)
    assert np.abs(rv1.values - rv2.values).max() <= 1e-12


def test_system_residual_not_identically_zero():
    g = GridSpec(dim=3, n_axis=16)
    sys = make_sys(g, rho1=0.5)
    rs, _ = system_residual(const_s(g, 2.0), zero_v(g), sys)
    assert sup_norm(rs) > 0.1
