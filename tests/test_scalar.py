"""Monotone scalar solver: barrier constants, inner solve, outer iteration."""

import dataclasses

import numpy as np
import pytest

import driftsolve.scalar
from driftsolve.errors import (
    NonConvergence,
    NonPositiveField,
    NoSubsolution,
    NoSupersolutionFound,
    NotASupersolution,
)
from driftsolve.grid import (GridSpec, ScalarField, SymTensorField, VectorField, gradient,
                             laplacian, sup_norm)
from driftsolve.scalar import (
    GenEqData,
    LichCoefficients,
    compute_K,
    find_supersolution,
    monotone_iterate,
    pick_epsilon0,
    scalar_residual,
    solve_gen_eq,
)

import oracles
from util import const_s, const_v, mesh, random_band_limited, sin_s, vec_with, zero_v


def constant_coeffs(grid, a=0.5, f=0.5, h=1.0, b=0.0, c=0.0, d=0.0):
    return LichCoefficients(
        a=const_s(grid, a),
        b=const_s(grid, b),
        c=const_s(grid, c),
        d=const_s(grid, d),
        f=const_s(grid, f),
        h=const_s(grid, h),
        Y=zero_v(grid),
    )


def manufactured_b(grid, u_star, coeffs):
    """Independent evaluation of the b-slot that makes u_star an exact solution."""
    q = grid.q
    u = u_star.values
    gu = gradient(u_star).values
    s = sum(gu[j] * coeffs.Y.values[j] for j in range(grid.dim))
    core = (
        coeffs.f.values * u ** (q - 1)
        + coeffs.a.values * u ** (-q - 1)
        - laplacian(u_star).values
        - coeffs.h.values * u
        - s**2 * u ** (-q - 3)
        - coeffs.c.values * s * (coeffs.d.values * u**-2 + u ** (-q - 2))
    )
    return ScalarField(grid, u * core)


def with_b(coeffs, b_field):
    return LichCoefficients(
        a=coeffs.a, b=b_field, c=coeffs.c, d=coeffs.d,
        f=coeffs.f, h=coeffs.h, Y=coeffs.Y,
    )


# ------------------------------------------------------------ lower barrier


def test_pick_epsilon0_reference_value():
    g = GridSpec(dim=3, n_axis=16)
    eps0 = pick_epsilon0(const_s(g, 1.1), constant_coeffs(g))
    assert eps0 == pytest.approx(0.756806773728343, rel=1e-14)


def test_pick_epsilon0_only_psi_binds():
    g = GridSpec(dim=3, n_axis=16)
    coeffs = constant_coeffs(g, h=-0.3)
    assert pick_epsilon0(const_s(g, 1.1), coeffs) == pytest.approx(0.99, rel=1e-14)


def test_pick_epsilon0_b_bound():
    g = GridSpec(dim=3, n_axis=16)
    coeffs = constant_coeffs(g, b=2.0)
    expected = 0.9 * (0.5 / 4.0) ** (1.0 / 6.0)
    assert pick_epsilon0(const_s(g, 1.1), coeffs) == pytest.approx(expected, rel=1e-14)


def test_pick_epsilon0_monotone_in_a():
    g = GridSpec(dim=3, n_axis=16)
    psi = const_s(g, 1.1)
    e1 = pick_epsilon0(psi, constant_coeffs(g, a=0.5))
    e2 = pick_epsilon0(psi, constant_coeffs(g, a=1.0))
    assert e2 >= e1


def test_pick_epsilon0_rejects_nonpositive_psi():
    g = GridSpec(dim=3, n_axis=16)
    with pytest.raises(NoSubsolution):
        pick_epsilon0(const_s(g, -0.5), constant_coeffs(g))
    with pytest.raises(NoSubsolution):
        pick_epsilon0(sin_s(g), constant_coeffs(g))


# ------------------------------------------------------------- shift policy


def test_compute_K_reference_value():
    g = GridSpec(dim=3, n_axis=16)
    k = compute_K(constant_coeffs(g), 0.756806773728343, 1.1)
    assert k == pytest.approx(34.87294511314494, rel=1e-12)


def test_compute_K_refinement_agreement():
    g = GridSpec(dim=3, n_axis=16)
    coeffs = constant_coeffs(g, b=0.4, c=0.3, d=0.7)
    k256 = compute_K(coeffs, 0.7, 1.3)
    k4096 = compute_K(coeffs, 0.7, 1.3, n_tgrid=4096)
    assert abs(k256 - k4096) <= 0.005 * abs(k4096)


def test_compute_K_nonincreasing_in_eps0():
    g = GridSpec(dim=3, n_axis=16)
    coeffs = constant_coeffs(g)
    assert compute_K(coeffs, 0.85, 1.1) <= compute_K(coeffs, 0.7568, 1.1)


def test_compute_K_c_term_vanishes():
    g = GridSpec(dim=3, n_axis=16)
    k_plain = compute_K(constant_coeffs(g), 0.7568, 1.1)
    k_d_only = compute_K(constant_coeffs(g, d=5.0), 0.7568, 1.1)
    assert k_plain == k_d_only  # d enters only through the c-weighted term


# -------------------------------------------------------------- inner solve


def test_gen_eq_constant_data():
    g = GridSpec(dim=3, n_axis=16)
    data = GenEqData(
        H=const_s(g, 1.0), th1=const_s(g, 1.0), th2=const_s(g, 0.0),
        th3=const_s(g, -2.0), Z=zero_v(g),
    )
    u = solve_gen_eq(data, const_s(g, 1.0))
    assert np.abs(u.values - 2.0).max() <= 1e-12


def test_gen_eq_invariants_checked():
    g = GridSpec(dim=3, n_axis=16)
    with pytest.raises(NonPositiveField):
        GenEqData(H=const_s(g, 0.0), th1=const_s(g, 1.0), th2=const_s(g, 0.0),
                  th3=const_s(g, -2.0), Z=zero_v(g))
    with pytest.raises(NonPositiveField):
        GenEqData(H=const_s(g, 1.0), th1=const_s(g, 1.0), th2=const_s(g, 0.0),
                  th3=const_s(g, 0.5), Z=zero_v(g))


def gen_eq_example(grid):
    return GenEqData(
        H=const_s(grid, 1.0),
        th1=const_s(grid, 1.0),
        th2=const_s(grid, 0.0),
        th3=ScalarField(grid, -(2.0 + sin_s(grid, axis=0).values)),
        Z=const_v(grid, (1.0, 0.0, 0.0)),
    )


def test_gen_eq_variable_case_bounds_and_residual():
    g = GridSpec(dim=3, n_axis=16)
    data = gen_eq_example(g)
    u = solve_gen_eq(data, const_s(g, 2.0))
    assert u.values.min() >= 1.0 - 1e-9
    assert u.values.max() <= 3.0 + 1e-9
    gu = gradient(u).values
    s = gu[0]
    resid = laplacian(u).values + u.values + s**2 + data.th3.values
    assert np.abs(resid).max() <= 1e-10


def test_gen_eq_unique_from_different_starts():
    g = GridSpec(dim=3, n_axis=16)
    data = gen_eq_example(g)
    u1 = solve_gen_eq(data, const_s(g, 1.05))
    u2 = solve_gen_eq(data, const_s(g, 2.9))
    assert np.abs(u1.values - u2.values).max() <= 1e-8


def test_gen_eq_matches_dense_newton():
    g = GridSpec(dim=3, n_axis=8)
    data = gen_eq_example(g)
    u = solve_gen_eq(data, const_s(g, 2.0))
    ref = oracles.dense_newton_quadratic_gradient(
        3, 8, 1.0, 1.0, 0.0, data.th3.values, (1.0, 0.0, 0.0)
    )
    assert np.abs(u.values - ref).max() <= 1e-8


def test_gen_eq_failed_line_search_raises(monkeypatch):
    # Newton steps that cannot lower the residual end the solve at once: no
    # second solver path takes over from the stalled Newton iteration
    real = driftsolve.scalar.solve_scalar_linear

    def no_newton_step(grid, h, drift, rhs, **kwargs):
        if drift is None:
            return real(grid, h, drift, rhs, **kwargs)
        return ScalarField(grid, np.zeros(grid.shape))

    monkeypatch.setattr(driftsolve.scalar, "solve_scalar_linear", no_newton_step)
    g = GridSpec(dim=3, n_axis=8)
    with pytest.raises(NonConvergence, match="line search") as err:
        solve_gen_eq(gen_eq_example(g), const_s(g, 2.0))
    assert err.value.iterations == 0


def test_frozen_table_jacobian_is_the_hand_written_one():
    # the sweep problem's four-row table differentiates, bit for bit, to the
    # zeroth-order H and the drift (2 th1 s + th2) Z; its residual is the
    # hand-written one up to the order of summation
    g = GridSpec(dim=3, n_axis=8)
    x = mesh(g)
    data = GenEqData(
        H=ScalarField(g, 1.0 + 0.2 * np.cos(x[1])),
        th1=ScalarField(g, 0.5 + 0.3 * np.sin(x[2])),
        th2=ScalarField(g, 0.4 * np.cos(x[0])),
        th3=ScalarField(g, -(2.0 + np.sin(x[0]))),
        Z=VectorField(g, np.stack([0.4 + 0.2 * np.sin(x[1]), 0.3 * np.cos(x[2]),
                                   0.2 * np.sin(x[0] + x[1])])),
    )
    u = ScalarField(g, 1.5 + 0.2 * np.sin(x[0]) * np.cos(x[1]))
    zv = data.Z.values
    terms = driftsolve.scalar._frozen_terms(data)
    res, s = driftsolve.scalar._residual_values(g, u.values, terms, zv)
    assert np.array_equal(s, np.sum(gradient(u).values * zv, axis=0))
    hand = (laplacian(u).values + data.H.values * u.values + data.th3.values
            + data.th1.values * s**2 + data.th2.values * s)
    assert np.abs(res - hand).max() <= 1e-14 * np.abs(hand).max()
    zeroth, first = driftsolve.scalar._jacobian(u.values, terms, zv, s)
    assert np.array_equal(zeroth, data.H.values)
    assert np.array_equal(first, (2.0 * data.th1.values * s + data.th2.values) * zv)


# ----------------------------------------------------------- outer iteration


def test_monotone_constant_configuration():
    g = GridSpec(dim=3, n_axis=16)
    u, trace = monotone_iterate(constant_coeffs(g), const_s(g, 1.1))
    assert np.abs(u.values - 1.0).max() <= 5e-9
    assert trace.eps0 == pytest.approx(0.756806773728343, rel=1e-13)
    assert trace.K == pytest.approx(34.87294511314494, rel=1e-12)
    assert trace.final_residual <= 1e-9
    assert trace.iterate_count == len(trace.steps)
    mins = np.array(trace.mins)
    assert np.all(np.diff(mins) >= -1e-12)


def test_monotone_tight_tolerances_reach_constant():
    g = GridSpec(dim=3, n_axis=16)
    u, _ = monotone_iterate(
        constant_coeffs(g), const_s(g, 1.1),
        step_tol=1e-13, tol_outer=1e-10, max_outer=2000,
    )
    assert np.abs(u.values - 1.0).max() <= 1e-10


def test_monotone_manufactured_recovery():
    g = GridSpec(dim=3, n_axis=16)
    u_star = sin_s(g, amp=0.05, offset=1.0)
    base = constant_coeffs(g)
    coeffs = with_b(base, manufactured_b(g, u_star, base))
    iterates = []
    u, trace = monotone_iterate(coeffs, u_star, callback=lambda i, v: iterates.append(v.copy()))
    assert sup_norm(ScalarField(g, scalar_residual(u, coeffs).values)) <= 1e-9
    assert np.all(u.values <= u_star.values + 1e-9)
    # monotone invariants on every recorded iterate
    eps0 = trace.eps0
    prev = None
    for vals in iterates:
        assert vals.min() >= eps0 - 1e-12
        assert np.all(vals <= u_star.values + 1e-9)
        if prev is not None:
            assert np.all(vals >= prev - 1e-12)
        prev = vals
    assert len(iterates) == trace.iterate_count


def test_monotone_sweeps_stay_on_arrays(monkeypatch):
    import driftsolve.grid
    import driftsolve.scalar

    g = GridSpec(dim=3, n_axis=8)
    u_star = sin_s(g, amp=0.05, offset=1.0)
    base = dataclasses.replace(constant_coeffs(g, c=0.3, d=0.2),
                               Y=const_v(g, (0.4, 0.0, 0.0)))
    coeffs = with_b(base, manufactured_b(g, u_star, base))

    def forbidden(*args, **kwargs):
        raise AssertionError("public field calculus called inside the sweeps")

    for name in ("gradient", "laplacian"):
        monkeypatch.setattr(driftsolve.grid, name, forbidden)
        monkeypatch.setattr(driftsolve.scalar, name, forbidden, raising=False)
    # loose tolerances keep the sweep count small; the sweeps are the same
    u, trace = monotone_iterate(coeffs, u_star, step_tol=1e-3, tol_outer=1e-2)
    assert trace.iterate_count > 1
    assert np.all(u.values <= u_star.values + 1e-9)


def test_monotone_without_drift_takes_no_gradient(monkeypatch):
    import driftsolve.grid

    g = GridSpec(dim=3, n_axis=8)
    u_star = sin_s(g, amp=0.05, offset=1.0)
    base = constant_coeffs(g)
    coeffs = with_b(base, manufactured_b(g, u_star, base))

    def forbidden(*args, **kwargs):
        raise AssertionError("gradient taken with Y == 0")

    monkeypatch.setattr(driftsolve.grid, "_grad_of_hat", forbidden)
    u, trace = monotone_iterate(coeffs, u_star, step_tol=1e-3, tol_outer=1e-2)
    assert trace.iterate_count > 1
    assert np.all(u.values <= u_star.values + 1e-9)


def test_monotone_ordering_in_a():
    g = GridSpec(dim=3, n_axis=16)
    psi = const_s(g, 1.1)
    u1, _ = monotone_iterate(constant_coeffs(g, a=0.5), psi)
    u2, _ = monotone_iterate(constant_coeffs(g, a=0.55), psi)
    assert np.all(u1.values <= u2.values + 1e-9)


def test_monotone_rejects_bad_supersolution():
    g = GridSpec(dim=3, n_axis=16)
    with pytest.raises(NotASupersolution) as info:
        monotone_iterate(constant_coeffs(g), const_s(g, 0.5))
    assert info.value.defect < 0


def test_monotone_exact_supersolution_stays_below():
    g = GridSpec(dim=3, n_axis=16)
    u_star = sin_s(g, amp=0.05, offset=1.0)
    base = constant_coeffs(g)
    coeffs = with_b(base, manufactured_b(g, u_star, base))
    u, _ = monotone_iterate(coeffs, u_star)
    assert np.all(u.values <= u_star.values + 1e-9)


# ----------------------------------------------------------- Newton polish


def drift_problem(grid):
    """Criterion-02-like manufactured drift problem; returns (coeffs, u*)."""
    u_star = sin_s(grid, amp=0.05, offset=1.0)
    base = dataclasses.replace(constant_coeffs(grid, c=0.3, d=0.2),
                               Y=const_v(grid, (0.4, 0.0, 0.0)))
    return with_b(base, manufactured_b(grid, u_star, base)), u_star


# tolerances of the fallback tests: tight enough that five sweeps do not
# stop, loose enough that the resumed sweeps end soon
FALLBACK_TOLS = {"step_tol": 1e-8, "tol_outer": 1e-8}


@pytest.fixture(scope="module")
def pure_sweeps():
    """The 8^3 drift problem solved by sweeps alone."""
    g = GridSpec(dim=3, n_axis=8)
    coeffs, u_star = drift_problem(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driftsolve.scalar, "_SWEEPS_BEFORE_POLISH", 10**6)
        u, trace = monotone_iterate(coeffs, u_star, **FALLBACK_TOLS)
    assert trace.newton_steps == 0 and not trace.polished
    return coeffs, u_star, u, trace


def test_polish_finishes_after_five_sweeps(monkeypatch):
    g = GridSpec(dim=3, n_axis=8)
    coeffs, u_star = drift_problem(g)
    real = driftsolve.scalar.solve_scalar_linear
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(driftsolve.scalar, "solve_scalar_linear", counted)
    sweeps = []
    u, trace = monotone_iterate(coeffs, u_star, callback=lambda i, v: sweeps.append(i))
    assert trace.polished
    assert trace.iterate_count <= 5
    assert sweeps == list(range(trace.iterate_count))
    assert trace.newton_steps >= 1
    assert len(calls) <= 30
    assert np.abs(u.values - u_star.values).max() <= 1e-12
    assert trace.final_residual <= 1e-9


@pytest.mark.parametrize("leave", [
    lambda uv, u_k: uv + 1e-3,   # above the barrier
    lambda uv, u_k: u_k - 1e-3,  # below the last sweep iterate
], ids=["above-psi", "below-u_k"])
def test_polish_outside_order_interval_is_rejected(monkeypatch, pure_sweeps, leave):
    coeffs, u_star, u_ref, trace_ref = pure_sweeps
    real = driftsolve.scalar._damped_newton

    def displaced(grid, terms, yv, uv, **kwargs):
        out, res_sup, step, n, err = real(grid, terms, yv, uv, **kwargs)
        if kwargs["step_tol"] is None:  # a sweep's frozen problem
            return out, res_sup, step, n, err
        return leave(out, uv), res_sup, step, n, err

    monkeypatch.setattr(driftsolve.scalar, "_damped_newton", displaced)
    u, trace = monotone_iterate(coeffs, u_star, **FALLBACK_TOLS)
    assert not trace.polished
    assert trace.newton_steps >= 1
    assert np.array_equal(u.values, u_ref.values)
    assert trace.steps == trace_ref.steps
    assert trace.final_residual == trace_ref.final_residual


def test_polish_solver_error_resumes_sweeps(monkeypatch, pure_sweeps):
    coeffs, u_star, u_ref, trace_ref = pure_sweeps
    real_solve = driftsolve.scalar.solve_scalar_linear
    real_newton = driftsolve.scalar._damped_newton
    in_polish = [False]
    jacobians = []

    def flagged(*args, **kwargs):
        # the polish is the Newton run with a step rule; sweeps have none
        in_polish[0] = kwargs["step_tol"] is not None
        try:
            return real_newton(*args, **kwargs)
        finally:
            in_polish[0] = False

    def failing(grid, h, drift, rhs, **kwargs):
        if in_polish[0]:
            jacobians.append(h)
            raise NonConvergence("linear scalar solve stalled", iterations=4, residual=1.0)
        return real_solve(grid, h, drift, rhs, **kwargs)

    monkeypatch.setattr(driftsolve.scalar, "_damped_newton", flagged)
    monkeypatch.setattr(driftsolve.scalar, "solve_scalar_linear", failing)
    u, trace = monotone_iterate(coeffs, u_star, **FALLBACK_TOLS)
    assert len(jacobians) == 1  # one polish, stopped at its first solve
    assert not trace.polished and trace.newton_steps == 0
    assert trace.iterate_count == trace_ref.iterate_count > 5
    assert np.array_equal(u.values, u_ref.values)


def test_polish_apply_budget(op_applies):
    # Newton linear solves stop at the forcing target 1e-4 sup|residual|:
    # the 16^3 drift problem costs 100 applies (151 with every linear solve
    # at 1e-12), with the same answer
    g = GridSpec(dim=3, n_axis=16)
    coeffs, u_star = drift_problem(g)
    u, trace = monotone_iterate(coeffs, u_star)
    assert np.abs(u.values - u_star.values).max() <= 1e-12
    assert trace.polished and trace.iterate_count == 5
    assert op_applies[0] <= 150


def test_newton_jacobian_makes_no_transform(monkeypatch):
    # outside the linear solves every transform of the sweeps and the polish
    # is a residual's: 5 at dim 3 (one forward, the Laplacian and three
    # gradient components); a Newton step's Jacobian reuses the residual's s
    import driftsolve.grid

    g = GridSpec(dim=3, n_axis=8)
    coeffs, u_star = drift_problem(g)
    transforms, residuals, solving = [0], [0], [False]

    def counted(real, tally):
        def wrapper(*args, **kwargs):
            if not solving[0]:
                tally[0] += 1
            return real(*args, **kwargs)
        return wrapper

    real_solve = driftsolve.scalar.solve_scalar_linear

    def excluded(*args, **kwargs):
        solving[0] = True
        try:
            return real_solve(*args, **kwargs)
        finally:
            solving[0] = False

    for name in ("_rfft", "_to_real"):
        monkeypatch.setattr(driftsolve.grid, name, counted(getattr(driftsolve.grid, name),
                                                           transforms))
    monkeypatch.setattr(driftsolve.scalar, "_residual_values",
                        counted(driftsolve.scalar._residual_values, residuals))
    monkeypatch.setattr(driftsolve.scalar, "solve_scalar_linear", excluded)
    u, trace = monotone_iterate(coeffs, u_star)
    assert trace.polished and trace.newton_steps >= 1
    assert residuals[0] > 0
    assert transforms[0] == 5 * residuals[0]


def test_monotone_two_sweep_budget_raises():
    # a budget below the polish point ends in NonConvergence, as before
    g = GridSpec(dim=3, n_axis=8)
    coeffs, u_star = drift_problem(g)
    with pytest.raises(NonConvergence) as err:
        monotone_iterate(coeffs, u_star, max_outer=2)
    assert err.value.iterations == 2


def test_reduced_newton_terms_are_the_hand_written_ones():
    # with b = c = d = 0 and Y = 0 the full residual and the Jacobian Newton
    # forms from its table are bit-for-bit the reduced equation's
    from driftsolve.grid import _lap_values

    g = GridSpec(dim=3, n_axis=8)
    q = g.q
    h, f, at = sin_s(g, amp=0.9, offset=1.0), const_s(g, 0.5), const_s(g, 0.03)
    zero = const_s(g, 0.0)
    coeffs = LichCoefficients(a=at, b=zero, c=zero, d=zero, f=f, h=h, Y=zero_v(g))
    u = sin_s(g, axis=1, amp=0.2, offset=1.3)
    uv = u.values
    terms = driftsolve.scalar._terms(q, at.values, coeffs)
    res, s = driftsolve.scalar._residual_values(g, uv, terms, coeffs.Y.values)
    assert np.array_equal(res, _lap_values(g, uv) + h.values * uv
                          - f.values * uv ** (q - 1.0) - at.values * uv ** (-q - 1.0))
    zeroth, first = driftsolve.scalar._jacobian(uv, terms, coeffs.Y.values, s)
    assert np.array_equal(zeroth,
                          h.values - (q - 1.0) * f.values * uv ** (q - 2.0)
                          + (q + 1.0) * at.values * uv ** (-q - 2.0))
    assert not np.any(first)


def test_constant_margin_is_the_hand_written_one():
    # the margin summed from the reduced table's s-free rows is bit-for-bit
    # the worst case of h t - f t^(q-1) - a t^(-q-1)
    g = GridSpec(dim=3, n_axis=8)
    q = g.q
    h, f = sin_s(g, amp=0.9, offset=1.0), sin_s(g, axis=1, amp=0.1, offset=0.5)
    at = sin_s(g, axis=2, amp=0.01, offset=0.03)
    zero = const_s(g, 0.0)
    coeffs = LichCoefficients(a=at, b=zero, c=zero, d=zero, f=f, h=h, Y=zero_v(g))
    terms = driftsolve.scalar._terms(q, at.values, coeffs)
    for t in (0.3, 1.0, 1.7):
        hand = np.min(h.values * t - f.values * t ** (q - 1.0)
                      - at.values * t ** (-q - 1.0))
        assert driftsolve.scalar._constant_margin(terms, t) == hand


def all_terms_problem(grid):
    """Coefficients and a field at which all seven lower-order terms of the
    residual are nonzero: b, c, d and Y vary in space."""
    x = mesh(grid)
    coeffs = LichCoefficients(
        a=ScalarField(grid, 0.4 + 0.1 * np.cos(x[2])),
        b=ScalarField(grid, 0.3 * np.sin(x[1])),
        c=ScalarField(grid, 0.5 + 0.2 * np.cos(x[0])),
        d=ScalarField(grid, 0.7 - 0.3 * np.sin(x[2])),
        f=ScalarField(grid, 0.6 + 0.1 * np.sin(x[0])),
        h=ScalarField(grid, 1.0 + 0.3 * np.cos(x[1])),
        Y=VectorField(grid, np.stack([0.4 + 0.2 * np.sin(x[1]), 0.3 * np.cos(x[2]),
                                      0.2 * np.sin(x[0] + x[1])])),
    )
    u = ScalarField(grid, 1.1 + 0.2 * np.sin(x[0]) * np.cos(x[1]) + 0.1 * np.cos(x[2]))
    return coeffs, u


def test_linearize_is_the_derivative_of_the_residual():
    from driftsolve.grid import _scalar_op_values

    g = GridSpec(dim=3, n_axis=8)
    coeffs, u = all_terms_problem(g)
    a = coeffs.a.values
    s = np.sum(gradient(u).values * coeffs.Y.values, axis=0)
    # each of the seven terms is nonzero: so are its coefficient and s
    for field in (coeffs.b.values, coeffs.c.values * coeffs.d.values, s):
        assert np.abs(field).max() > 0.05
    x = mesh(g)
    phi = 0.3 * np.cos(x[2]) + 0.2 * np.sin(x[0] + x[1]) - 0.1 * np.sin(2 * x[1])
    op = driftsolve.scalar.linearize(u, coeffs)
    exact = _scalar_op_values(g, op.zeroth.values, op.first.values, phi)
    terms = driftsolve.scalar._terms(g.q, a, coeffs)

    def residual(uv):
        return driftsolve.scalar._residual_values(g, uv, terms, coeffs.Y.values)[0]

    eps = 1e-5
    central = (residual(u.values + eps * phi) - residual(u.values - eps * phi)) / (2.0 * eps)
    assert np.abs(central - exact).max() <= 1e-8 * np.abs(exact).max()


def test_one_table_entry_changes_every_reader(monkeypatch):
    # the residual, its linearization and the mapped slots all read one
    # table: turning its tau_gradient term c d u^-2 s into c d u^-1 s^2
    # moves each of them by exactly that change
    import driftsolve.physical
    from driftsolve.coupled import SystemCoefficients
    from driftsolve.physical import mapped_constraint_terms

    g = GridSpec(dim=3, n_axis=8)
    coeffs, u = all_terms_problem(g)
    # with Psi = 0 and w = 0 the realized coefficient is rho1 = a
    sys = SystemCoefficients(b=coeffs.b, c=coeffs.c, d=coeffs.d, f=coeffs.f,
                             h=coeffs.h, rho1=coeffs.a, rho2=const_s(g, 0.3),
                             rho3=const_s(g, 1.0), Y=coeffs.Y,
                             Psi=SymTensorField(g, np.zeros((3, 3) + g.shape)))
    w = zero_v(g)

    def readers():
        res = scalar_residual(u, coeffs).values
        op = driftsolve.scalar.linearize(u, coeffs)
        return res, op.zeroth.values, op.first.values, mapped_constraint_terms(u, w, sys)

    res0, zeroth0, first0, mapped0 = readers()
    table = driftsolve.scalar._terms
    assert driftsolve.physical._terms is table

    def changed(q, a, k):
        return [(slot, coef, -1.0, 2) if slot == "tau_gradient" else (slot, coef, p, m)
                for slot, coef, p, m in table(q, a, k)]

    for module in (driftsolve.scalar, driftsolve.physical):
        monkeypatch.setattr(module, "_terms", changed)
    res1, zeroth1, first1, mapped1 = readers()

    uv = u.values
    cd = coeffs.c.values * coeffs.d.values
    s = np.sum(gradient(u).values * coeffs.Y.values, axis=0)

    def close(got, want):
        return np.abs(got - want).max() <= 1e-12 * (1.0 + np.abs(want).max())

    assert close(res1 - res0, cd * s**2 / uv - cd * s / uv**2)
    assert close(zeroth1 - zeroth0, -cd * s**2 / uv**2 + 2.0 * cd * s / uv**3)
    assert close(first1 - first0, (2.0 * cd * s / uv - cd / uv**2) * coeffs.Y.values)
    assert close(mapped1["tau_gradient"], cd * s**2 / uv)
    assert set(mapped1) == set(mapped0)
    for slot in set(mapped0) - {"tau_gradient"}:
        assert np.array_equal(mapped1[slot], mapped0[slot]), slot


# ------------------------------------------------------------ supersolutions


def test_find_supersolution_constant_scan():
    g = GridSpec(dim=3, n_axis=16)
    psi = find_supersolution(const_s(g, 1.0), const_s(g, 0.5), const_s(g, 0.5))
    assert psi.values.max() - psi.values.min() <= 1e-14  # constant
    t = float(psi.values.flat[0])
    defect = t - 0.5 * t**5 - 0.5 * t**-7
    assert defect >= -1e-8


@pytest.mark.parametrize("n_axis, f_level, a_level", [
    (8, 0.5, 0.58),  # criterion 03, below the threshold 16/27
    (8, 0.5, 0.61),  # criterion 03, above it
    (16, 0.5, None),  # a coupled-abstract-like level, 0.25 + 0.005 band-limited
    (16, 1.0, 1e6),
])
def test_find_supersolution_one_bounded_search(monkeypatch, n_axis, f_level, a_level):
    # the worst-case margin is concave in the level, so one bounded search
    # finds its maximum over [1e-3 t_mid, 1e3 t_mid]
    real = driftsolve.scalar._constant_margin
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(driftsolve.scalar, "_constant_margin", counted)
    g = GridSpec(dim=3, n_axis=n_axis)
    h, f = const_s(g, 1.0), const_s(g, f_level)
    if a_level is None:
        rng = np.random.default_rng(17)
        at = ScalarField(g, 0.25 + 0.005 * random_band_limited(g, rng).values)
    else:
        at = const_s(g, a_level)
    q = g.q
    try:
        psi = find_supersolution(h, f, at)
    except NoSupersolutionFound as err:
        got = err.best_defect
    else:
        assert psi.values.max() - psi.values.min() == 0.0
        t = float(psi.values.flat[0])
        got = float(np.min(h.values * t - f.values * t ** (q - 1.0)
                           - at.values * t ** (-q - 1.0)))
    assert calls[0] <= 60
    t_mid = (1.0 / f_level) ** (1.0 / (q - 2.0))
    _, ref = oracles.constant_margin_max(h.values, f.values, at.values, q,
                                         1e-3 * t_mid, 1e3 * t_mid)
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_find_supersolution_exact_root():
    g = GridSpec(dim=3, n_axis=16)
    psi = find_supersolution(const_s(g, 2.0), const_s(g, 1.0), const_s(g, 1.0))
    t = float(psi.values.flat[0])
    assert 2.0 * t - t**5 - t**-7 >= -1e-8


def test_find_supersolution_near_threshold():
    # constants exist iff sup_t (t^8 - f t^12) >= a-level; h=1, f=0.5 puts it at 16/27
    g = GridSpec(dim=3, n_axis=16)
    psi = find_supersolution(const_s(g, 1.0), const_s(g, 0.5), const_s(g, 0.58))
    t = float(psi.values.flat[0])
    assert t - 0.5 * t**5 - 0.58 * t**-7 >= -1e-8
    with pytest.raises(NoSupersolutionFound) as info:
        find_supersolution(const_s(g, 1.0), const_s(g, 0.5), const_s(g, 0.61))
    assert info.value.best_defect < 0


def test_find_supersolution_large_a_certificate():
    g = GridSpec(dim=3, n_axis=16)
    with pytest.raises(NoSupersolutionFound) as info:
        find_supersolution(const_s(g, 1.0), const_s(g, 1.0), const_s(g, 1e6))
    assert info.value.best_defect < 0


def test_find_supersolution_newton_fallback():
    # h dips low enough that no constant works, but a nonconstant profile exists
    g = GridSpec(dim=3, n_axis=16)
    h = sin_s(g, amp=0.9, offset=1.0)
    f = const_s(g, 0.5)
    at = const_s(g, 0.03)
    psi = find_supersolution(h, f, at)
    assert psi.values.min() > 0
    assert psi.values.max() - psi.values.min() > 1e-3  # genuinely nonconstant
    defect = (
        laplacian(psi).values + h.values * psi.values
        - f.values * psi.values**5 - at.values * psi.values**-7
    )
    assert defect.min() >= -1e-8


def test_find_supersolution_refuses_infeasible_level_cheaply(op_applies):
    # criterion 09's nominal level has no barrier: stage two's Newton search
    # must give up within a bounded number of operator applies (68 with the
    # forcing target; 8225 with every linear solve at 1e-11, measured when
    # each linear solve made one more apply)
    g = GridSpec(dim=3, n_axis=32)
    at = ScalarField(g, 0.5 * sin_s(g, amp=0.1, offset=1.0).values + 0.2)
    with pytest.raises(NoSupersolutionFound) as info:
        find_supersolution(const_s(g, 1.0), const_s(g, 0.5), at)
    assert info.value.best_defect == pytest.approx(-8.941345e-2, rel=1e-6)
    assert op_applies[0] <= 200


def test_find_supersolution_propagates_programming_errors(monkeypatch):
    # only a solver failure ends the Newton stage; anything else is a bug
    def broken(*args, **kwargs):
        raise RuntimeError("broken linear solve")

    monkeypatch.setattr("driftsolve.scalar.solve_scalar_linear", broken)
    g = GridSpec(dim=3, n_axis=16)
    with pytest.raises(RuntimeError):
        find_supersolution(sin_s(g, amp=0.9, offset=1.0), const_s(g, 0.5),
                           const_s(g, 0.03))


# ----------------------------------------------------------------- residual


def test_scalar_residual_constant_zero():
    g = GridSpec(dim=3, n_axis=16)
    r = scalar_residual(const_s(g, 1.0), constant_coeffs(g))
    assert np.abs(r.values).max() <= 1e-14


def test_scalar_residual_affine_in_b():
    g = GridSpec(dim=3, n_axis=16)
    x = mesh(g)
    u = ScalarField(g, 1.0 + 0.2 * np.sin(x[0] + x[1] + x[2]) + np.zeros(g.shape))
    base = constant_coeffs(g, b=0.3)
    doubled = constant_coeffs(g, b=0.6)
    r1 = scalar_residual(u, base).values
    r2 = scalar_residual(u, doubled).values
    assert np.allclose(r2 - r1, 0.3 / u.values, atol=1e-13)


def test_scalar_residual_supersolution_sign():
    g = GridSpec(dim=3, n_axis=16)
    r = scalar_residual(const_s(g, 1.1), constant_coeffs(g))
    assert r.values.min() == pytest.approx(0.03816594088464659, rel=1e-12)


def test_scalar_residual_rejects_nonpositive():
    g = GridSpec(dim=3, n_axis=16)
    with pytest.raises(NonPositiveField):
        scalar_residual(const_s(g, -1.0), constant_coeffs(g))


def test_coefficients_require_positive_a_and_f():
    g = GridSpec(dim=3, n_axis=16)
    with pytest.raises(NonPositiveField):
        constant_coeffs(g, a=0.0)
    with pytest.raises(NonPositiveField):
        constant_coeffs(g, f=-0.5)
