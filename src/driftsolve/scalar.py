"""Monotone solver for the scalar constraint equation with gradient terms.

The equation, in residual form with the positive Laplacian, is

    lap(u) + h u - f u^(q-1) - a u^(-q-1) + b/u
           + <grad u, Y>^2 u^(-q-3)
           + c <grad u, Y> (d u^(-2) + u^(-q-2))  =  0,

with q the critical exponent of the grid dimension.  ``a`` and ``f`` must be
strictly positive; ``b``, ``c``, ``d``, ``h`` may have either sign.  An upper
barrier ("supersolution") is a positive field with residual >= 0; a constant
one is found, if it exists, by one bounded 1-d search, because the worst-case
margin of a constant level is strictly concave in the level when ``a, f > 0``.
A constant lower barrier epsilon0 comes from a closed-form recipe.  The outer
iteration sweeps upward from epsilon0: each sweep freezes the zeroth-order
nonlinearities at the previous iterate, shifts both sides by K u with K large
enough to make the sweep order-preserving, and solves the resulting
gradient-quadratic problem.  Iterates then increase monotonically and stay
below the barrier.

The sweep map contracts only linearly, so after a few sweeps a damped
Newton iteration on the full residual (Jacobian ``linearize``, taken term
by term from the residual's table) finishes the solve.  Its answer is kept
only if it is finite, positive, meets the sweeps' own stop rule, and lies
in the order interval between the last sweep iterate and the barrier;
otherwise the sweeps go on from where
they stopped.  An accepted answer therefore keeps the barrier bounds
epsilon0 <= u <= psi of the monotone construction, and it lies at or above
the sweeps' limit, the smallest solution above the last sweep iterate.
``find_supersolution`` runs the same Newton iteration to find a
nonconstant barrier.

Every Newton step, in a sweep and in the polish alike, solves its linear
system only as accurately as the step needs: to a residual of at most
``1e-4`` of the Newton residual's sup-norm (the fixed forcing term of
inexact Newton methods), and no tighter than ``solve_scalar_linear``'s
default relative ``1e-12``.  The acceptance checks do not depend on it: each
sweep's residual target, the polish's stop rule and order interval,
``find_supersolution``'s ``1e-10`` target, the Newton step caps and
``solve_scalar_linear``'s cycle cap are those of exact linear solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonConvergence,
    NonPositiveField,
    NoSubsolution,
    NoSupersolutionFound,
    NotASupersolution,
    SolverError,
)
from .grid import (ScalarField, VectorField, _grad_values, _lap_grad_values, _lap_values,
                   solve_scalar_linear)

_MAX_NEWTON = 50  # Newton steps allowed to one frozen sweep problem
_MAX_HALVINGS = 12  # step halvings in one Newton line search
_SWEEPS_BEFORE_POLISH = 5  # sweeps before Newton on the full residual
_MAX_POLISH = 12  # Newton steps allowed to that polish
_BARRIER_TOL = -1e-8  # least pointwise residual an upper barrier may have


@dataclass
class LichCoefficients:
    """Coefficient set of the scalar equation.

    ``a`` and ``f`` are validated strictly positive; the rest are free.
    """

    a: ScalarField
    b: ScalarField
    c: ScalarField
    d: ScalarField
    f: ScalarField
    h: ScalarField
    Y: VectorField

    def __post_init__(self):
        if self.a.values.min() <= 0:
            raise NonPositiveField(f"coefficient a must be > 0, min {self.a.values.min()}")
        if self.f.values.min() <= 0:
            raise NonPositiveField(f"coefficient f must be > 0, min {self.f.values.min()}")


def _terms(q, a, k):
    """The residual's lower-order terms ``coef u^p s^m``, ``s = <grad u, Y>``,
    as (slot, coef, p, m) for the critical exponent ``q``, the array ``a``
    and the carrier ``k`` of ``b c d f h Y``: the one table of the equation."""
    return [("zeroth_h", k.h.values, 1.0, 0),
            ("potential_f", -k.f.values, q - 1.0, 0),
            ("inverse_a", -a, -q - 1.0, 0),
            ("linear_b", k.b.values, -1.0, 0),
            ("gradient_square", 1.0, -q - 3.0, 2),
            ("tau_gradient", k.c.values * k.d.values, -2.0, 1),
            ("drift_gradient", k.c.values, -q - 2.0, 1)]


def _monomial(coef, uv, p, s=0.0, m=0):
    """``coef u^p s^m`` on grid arrays, as a new array."""
    out = uv**p
    out *= coef
    if m:
        out *= s**m
    return out


def _residual_values(grid, uv, a, coeffs):
    """Equation residual at the positive grid array ``uv`` for the array ``a``
    (of either sign) and ``b c d f h Y`` from any object carrying them."""
    if uv.min() <= 0:
        raise NonPositiveField(f"residual needs u > 0, min {uv.min()}")
    if np.any(coeffs.Y.values):
        out, grad = _lap_grad_values(grid, uv)
        s = np.sum(grad * coeffs.Y.values, axis=0)
    else:  # no gradient terms: the Laplacian alone, as in linearize
        out, s = _lap_values(grid, uv), 0.0
    for _, coef, p, m in _terms(grid.q, a, coeffs):
        out += _monomial(coef, uv, p, s, m)
    return out


def scalar_residual(u, coeffs):
    """Evaluate the equation residual at a positive field ``u``."""
    return ScalarField(u.grid, _residual_values(u.grid, u.values, coeffs.a.values, coeffs))


@dataclass
class LinearizedOperator:
    """The operator ``phi -> laplacian(phi) + zeroth phi + <grad phi, first>``
    as its zeroth- and first-order coefficients; ``first`` is a field, zero
    when the operator has no drift."""

    zeroth: ScalarField
    first: VectorField


def linearize(u, coeffs):
    """Differentiate the scalar residual at ``u`` term by term: a term
    ``coef u^p s^m`` adds ``coef p u^(p-1) s^m`` to the zeroth-order
    coefficient and ``coef m u^p s^(m-1) Y`` to the first-order one.

    Returns
    -------
    LinearizedOperator
    """
    g = u.grid
    uv = u.values
    yv = coeffs.Y.values
    s = np.sum(_grad_values(g, uv) * yv, axis=0) if np.any(yv) else 0.0
    zeroth = np.zeros(g.shape)
    weight = np.zeros(g.shape)
    for _, coef, p, m in _terms(g.q, coeffs.a.values, coeffs):
        zeroth += _monomial(coef * p, uv, p - 1.0, s, m)
        if m:
            weight += _monomial(coef * m, uv, p, s, m - 1)
    return LinearizedOperator(zeroth=ScalarField(g, zeroth), first=VectorField(g, weight * yv))


def _newton_tol(res_sup):
    """``tol`` for the linear solve of a Newton step whose residual has
    sup-norm ``res_sup``.

    ``solve_scalar_linear`` scales ``tol`` by ``max(1, res_sup)``, so
    ``1e-4 min(1, res_sup)`` lets the linear residual reach ``1e-4 res_sup``
    in sup-norm: the fixed forcing term of inexact Newton (Eisenstat and
    Walker, SIAM J. Sci. Comput. 17, 1996).  The floor is
    ``solve_scalar_linear``'s default relative ``1e-12``.
    """
    return max(1e-12, 1e-4 * min(1.0, res_sup))


def _damped_newton(coeffs, uv, target, step_tol, max_steps, max_halvings):
    """Damped Newton on the full residual from the positive grid array ``uv``.

    Each step solves ``linearize(u) delta = -residual`` to the forcing
    target of ``_newton_tol`` and halves ``delta`` until the trial field is
    positive with a finite residual of smaller sup-norm.  The stop rule is
    that of exact solves: before a step once the residual sup-norm is at
    most ``target`` and the last correction's sup-norm is below ``step_tol``
    (so it takes at least one step); also when a linear solve raises a
    ``SolverError``, when ``max_halvings`` halvings do not lower the
    residual, or after ``max_steps`` steps.

    Returns
    -------
    (ndarray, float, float, int)
        The last accepted iterate, its residual sup-norm, the sup-norm of
        the last correction solved for (inf if none) and the number of
        corrections solved for.
    """
    g = coeffs.a.grid
    a = coeffs.a.values
    res = _residual_values(g, uv, a, coeffs)
    res_sup = float(np.abs(res).max())
    step = np.inf
    for n in range(max_steps):
        if res_sup <= target and step < step_tol:
            return uv, res_sup, step, n
        op = linearize(ScalarField(g, uv), coeffs)
        try:
            delta = solve_scalar_linear(g, op.zeroth, op.first, ScalarField(g, -res),
                                        tol=_newton_tol(res_sup)).values
        except SolverError:
            return uv, res_sup, step, n
        step = float(np.abs(delta).max())
        lam = 1.0
        for _ in range(max_halvings):
            trial = uv + lam * delta
            if trial.min() > 0:
                res_t = _residual_values(g, trial, a, coeffs)
                sup_t = float(np.abs(res_t).max())  # NaN or inf if any entry is
                if np.isfinite(sup_t) and sup_t < res_sup:
                    uv, res, res_sup = trial, res_t, sup_t
                    break
            lam *= 0.5
        else:
            return uv, res_sup, step, n + 1
    return uv, res_sup, step, max_steps


# --------------------------------------------------------------- lower barrier


def pick_epsilon0(psi, coeffs):
    """Constant lower barrier below the upper barrier ``psi``.

    Takes 90% of the smallest of: inf(psi); the level where the
    ``a``-term dominates ``h`` when sup(h) > 0; and the level where it
    dominates ``b`` when sup(b) > 0.
    """
    if psi.values.min() <= 0:
        raise NoSubsolution(
            f"upper barrier must be strictly positive, min {psi.values.min()}")
    q = psi.grid.q
    a_lo = coeffs.a.values.min()
    candidates = [float(psi.values.min())]
    h_hi = coeffs.h.values.max()
    if h_hi > 0:
        candidates.append(float((a_lo / (2.0 * h_hi)) ** (1.0 / (q + 2.0))))
    b_hi = coeffs.b.values.max()
    if b_hi > 0:
        candidates.append(float((a_lo / (2.0 * b_hi)) ** (1.0 / q)))
    return 0.9 * min(candidates)


def compute_K(coeffs, eps0, sup_psi, n_tgrid=256):
    """Monotonicity shift for the sweep map on the interval [eps0, sup_psi].

    Scans a geometric grid of trial levels, bounding the derivative of the
    frozen nonlinearity from above with worst-case coefficient bounds, and
    also forces the frozen zeroth-order block to stay negative.
    """
    q = coeffs.a.grid.q
    t = np.geomspace(eps0, sup_psi, n_tgrid)
    f_lo = coeffs.f.values.min()
    a_hi = coeffs.a.values.max()
    a_lo = coeffs.a.values.min()
    b_lo = coeffs.b.values.min()
    b_hi = coeffs.b.values.max()
    c_hi = np.abs(coeffs.c.values).max()
    d_hi = np.abs(coeffs.d.values).max()

    bracket = (-(q - 1.0) * f_lo * t ** (q - 2.0)
               + (q + 1.0) * a_hi * t ** (-q - 2.0)
               - b_lo * t**-2
               + c_hi**2 * (2.0 * d_hi * t**-3 + (q + 2.0) * t ** (-q - 3.0)) ** 2
               * t ** (q + 4.0) / (4.0 * (q + 3.0)))
    negativity = (-f_lo * t ** (q - 1.0) - a_lo * t ** (-q - 1.0) + b_hi / t) / t
    return 1.1 * max(float(bracket.max()), -float(coeffs.h.values.min()),
                     float(negativity.max()), 1e-2)


# ----------------------------------------------------------------- inner solve


@dataclass
class GenEqData:
    """One sweep's frozen problem: lap(u) + H u + th1 s^2 + th2 s + th3 = 0
    with s = <grad u, Z>.  Requires H > 0 and th3 < 0 pointwise, which makes
    the constant levels inf(-th3/H) and sup(-th3/H) a solution bracket."""

    H: ScalarField
    th1: ScalarField
    th2: ScalarField
    th3: ScalarField
    Z: VectorField

    def __post_init__(self):
        if self.H.values.min() <= 0:
            raise NonPositiveField(f"H must be > 0, min {self.H.values.min()}")
        if self.th3.values.max() >= 0:
            raise NonPositiveField(f"th3 must be < 0, max {self.th3.values.max()}")


def _gen_eq_residual(data, uv):
    """Residual of the frozen sweep problem at the grid array ``uv``, and the
    ``s = <grad u, Z>`` it was formed from."""
    lap, grad = _lap_grad_values(data.H.grid, uv)
    s = np.sum(grad * data.Z.values, axis=0)
    out = lap + data.H.values * uv + data.th3.values
    out += data.th1.values * s**2 + data.th2.values * s
    return out, s


def solve_gen_eq(data, u_init):
    """Solve the frozen sweep problem by damped Newton (direct when linear).

    With ``Z == 0`` the problem is linear and handled in one solve.
    Otherwise Newton linearizes the gradient terms into a drift
    ``(2 th1 s + th2) Z`` and backtracks on the sup-norm of the residual.
    Each Newton linear solve stops at the forcing target of ``_newton_tol``
    (``1e-4`` of the residual's sup-norm); the residual target of the sweep
    problem is ``1e-11 max(1, sup|th3|)`` whatever the forcing.  Newton
    gets at most 50 steps.

    Raises
    ------
    NonConvergence
        If 12 halvings of a Newton step cannot lower the residual (the
        line search failed), or the 50 steps run out above the target.
    """
    g = data.H.grid
    tol = 1e-11 * max(1.0, float(np.abs(data.th3.values).max()))

    if not np.any(data.Z.values):
        rhs = ScalarField(g, -data.th3.values)
        return solve_scalar_linear(g, data.H, None, rhs)

    uv = u_init.values
    res, s = _gen_eq_residual(data, uv)
    for it in range(_MAX_NEWTON):
        res_sup = np.abs(res).max()
        if res_sup <= tol:
            return ScalarField(g, uv)
        drift = VectorField(
            g, (2.0 * data.th1.values * s + data.th2.values) * data.Z.values)
        delta = solve_scalar_linear(g, data.H, drift, ScalarField(g, -res),
                                    tol=_newton_tol(res_sup)).values
        lam, improved = 1.0, False
        for _ in range(_MAX_HALVINGS):
            trial = uv + lam * delta
            res_t, s_t = _gen_eq_residual(data, trial)
            if np.all(np.isfinite(res_t)) and np.abs(res_t).max() < res_sup:
                uv, res, s, improved = trial, res_t, s_t, True
                break
            lam *= 0.5
        if not improved:
            raise NonConvergence(
                f"inner Newton line search failed: {_MAX_HALVINGS} halvings "
                f"did not lower the residual",
                iterations=it, residual=float(res_sup))
    raise NonConvergence("inner Newton ran out of iterations",
                         iterations=_MAX_NEWTON, residual=float(np.abs(res).max()))


# -------------------------------------------------------------- outer sweeps


@dataclass
class MonotoneTrace:
    """Work and history of ``monotone_iterate``.

    ``steps`` and ``mins`` hold each sweep's sup-norm step and the new
    iterate's minimum; ``iterate_count`` is the number of sweeps.
    ``newton_steps`` counts the Newton corrections the polish solved for
    (0 if it never ran), and ``polished`` says whether its answer was
    returned.  ``final_residual`` is the residual sup-norm of the returned
    field (of the last sweep when no answer was returned).
    """

    eps0: float
    K: float
    steps: list = field(default_factory=list)
    mins: list = field(default_factory=list)
    final_residual: float = np.inf
    newton_steps: int = 0
    polished: bool = False

    @property
    def iterate_count(self):
        return len(self.steps)


def _polish(coeffs, u_k, psi_v, step_tol, tol_outer, trace):
    """Newton from the sweep iterate ``u_k``; the polished field if it is
    finite, positive, meets the sweeps' stop rule and lies in the order
    interval ``[u_k, psi]`` up to roundoff, else None."""
    uv, res_sup, step, trace.newton_steps = _damped_newton(
        coeffs, u_k, target=tol_outer, step_tol=step_tol, max_steps=_MAX_POLISH,
        max_halvings=_MAX_HALVINGS)
    slack = 1e-12 * max(1.0, float(psi_v.max()))
    if not (np.all(np.isfinite(uv)) and uv.min() > 0
            and res_sup <= tol_outer and step < step_tol
            and np.all(uv >= u_k - slack) and np.all(uv <= psi_v + slack)):
        return None
    trace.polished = True
    trace.final_residual = res_sup
    return ScalarField(coeffs.a.grid, uv)


def monotone_iterate(coeffs, psi, step_tol=1e-10, tol_outer=1e-9,
                     max_outer=2000, callback=None):
    """Sweep upward from the constant lower barrier to a solution below ``psi``.

    The sweeps stop once the sup-norm sweep step is below ``step_tol``
    *and* the equation residual is below ``tol_outer``.  If they have not
    stopped after ``_SWEEPS_BEFORE_POLISH`` sweeps, damped Newton on the
    full residual (at most ``_MAX_POLISH`` steps) starts from the last
    sweep iterate ``u_k``.  Its answer is returned only if it is finite and
    positive, its residual is at most ``tol_outer``, its last Newton
    correction is below ``step_tol``, and it lies in the order interval
    ``u_k <= u <= psi`` up to a slack of ``1e-12 max(1, sup psi)``.  Such
    an answer keeps the barrier bounds ``eps0 <= u <= psi`` of the monotone
    construction, and it lies at or above the sweeps' limit: that limit is
    the smallest solution above ``u_k``.  If any check fails, or a Newton
    linear solve raises a ``SolverError``, the sweeps resume from ``u_k``
    and return exactly what they return without the polish.

    Parameters
    ----------
    coeffs : LichCoefficients
    psi : ScalarField
        Verified upper barrier (residual >= -1e-8 pointwise).
    step_tol, tol_outer : float
        Stop rule of the sweeps, and acceptance rule of the polish.
    max_outer : int
        Sweep budget.
    callback : callable, optional
        Called as ``callback(i, values)`` after sweep ``i`` with the new
        iterate's value array; once per sweep, never for the polish.

    Returns
    -------
    (ScalarField, MonotoneTrace)
    """
    g = psi.grid
    a = coeffs.a.values
    eps0 = pick_epsilon0(psi, coeffs)
    barrier = _residual_values(g, psi.values, a, coeffs)
    if barrier.min() < _BARRIER_TOL:
        node = np.unravel_index(int(np.argmin(barrier)), g.shape)
        raise NotASupersolution(node, float(barrier.min()))
    K = compute_K(coeffs, eps0, float(psi.values.max()))
    trace = MonotoneTrace(eps0=eps0, K=K)
    h_shift = ScalarField(g, coeffs.h.values + K)

    uv = np.full(g.shape, eps0)
    u = ScalarField(g, uv)
    for it in range(max_outer):
        # the frozen terms grouped by their power m of s: th3, th2, th1
        frozen = [-h_shift.values * uv, np.zeros(g.shape), np.zeros(g.shape)]
        for _, coef, p, m in _terms(g.q, a, coeffs):
            frozen[m] += _monomial(coef, uv, p)
        th3, th2, th1 = (ScalarField(g, v) for v in frozen)
        data = GenEqData(H=h_shift, th1=th1, th2=th2, th3=th3, Z=coeffs.Y)
        u = solve_gen_eq(data, u)
        step = float(np.abs(u.values - uv).max())
        uv = u.values
        resid = float(np.abs(_residual_values(g, uv, a, coeffs)).max())
        trace.steps.append(step)
        trace.mins.append(float(uv.min()))
        trace.final_residual = resid
        if callback is not None:
            callback(it, uv)
        if step < step_tol and resid <= tol_outer:
            return u, trace
        if it + 1 == _SWEEPS_BEFORE_POLISH:
            polished = _polish(coeffs, uv, psi.values, step_tol, tol_outer, trace)
            if polished is not None:
                return polished, trace
    raise NonConvergence("monotone sweeps did not settle",
                         iterations=max_outer, residual=trace.final_residual)


# ------------------------------------------------------------- upper barriers


def _constant_margin(h, f, at, t):
    """Worst-case residual of the constant field t."""
    q = h.grid.q
    vals = (h.values * t - f.values * t ** (q - 1.0)
            - at.values * t ** (-q - 1.0))
    return float(vals.min())


def find_supersolution(h, f, a_tilde):
    """Search for an upper barrier of the reduced equation (b = c = 0, Y = 0).

    Stage one maximizes the worst-case margin of constant levels by one
    bounded 1-d search over ``[1e-3 t_mid, 1e3 t_mid]``; that margin is
    strictly concave in the level ``t``, since each of its terms
    ``h t - f t^(q-1) - a t^(-q-1)`` has second derivative
    ``-(q-1)(q-2) f t^(q-3) - (q+1)(q+2) a t^(-q-3) < 0`` for ``f, a > 0``.
    If no constant works, stage two runs damped Newton for an exact
    nonconstant solution of the reduced equation starting from the best
    constant.  Raises NoSupersolutionFound with the best constant and its
    defect if both stages fail.
    """
    from scipy.optimize import minimize_scalar

    g = h.grid
    q = g.q
    if f.values.min() <= 0:
        raise NonPositiveField(f"f must be > 0, min {f.values.min()}")
    if a_tilde.values.min() <= 0:
        raise NonPositiveField(f"a-level must be > 0, min {a_tilde.values.min()}")

    # balance point of the two negative terms sets the natural scale
    t_mid = (max(np.abs(h.values).max(), 1.0) / f.values.min()) ** (1.0 / (q - 2.0))
    # the bounded search stops once its bracket is within sqrt(eps) |t| +
    # xatol / 3, so t is settled to about 1.5e-8 relative, whatever a small
    # xatol: enough, as the margin is flat at its maximum.  xatol = 1e-13
    # stays only because scipy's default 1e-5 would move the barrier.
    opt = minimize_scalar(lambda t: -_constant_margin(h, f, a_tilde, t),
                          bounds=(1e-3 * t_mid, 1e3 * t_mid), method="bounded",
                          options={"xatol": 1e-13})
    best_t, best_margin = float(opt.x), -float(opt.fun)
    if best_margin >= _BARRIER_TOL:
        return ScalarField(g, np.full(g.shape, best_t))

    # stage two: exact nonconstant solution of the reduced equation; the
    # best constant misses by more than the target, so a step is always due
    zero = ScalarField(g, np.zeros(g.shape))
    reduced = LichCoefficients(a=a_tilde, b=zero, c=zero, d=zero, f=f, h=h,
                               Y=VectorField(g, np.zeros((g.dim,) + g.shape)))
    uv, res_sup, _, _ = _damped_newton(
        reduced, np.full(g.shape, best_t), target=1e-10, step_tol=np.inf,
        max_steps=60, max_halvings=15)
    if res_sup <= 1e-10:
        return ScalarField(g, uv)
    raise NoSupersolutionFound(best_defect=best_margin, best_value=best_t)
